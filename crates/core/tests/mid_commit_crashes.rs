//! Store-budget fault-hook semantics.
//!
//! The exhaustive every-store-boundary recovery sweep that used to live
//! here moved to `crates/faultsim/tests/campaigns.rs`: the FaultPlan
//! explorer (`dsnrep_faultsim::exhaustive_single_fault`) now drives the
//! same sweep for every engine version through the shared shadow oracle,
//! so this file keeps only the low-level contract of the injection hook
//! itself, and that every engine hands a halt back to its caller.

use std::rc::Rc;

use dsnrep_core::{arena_len, build_engine, EngineConfig, Machine, TxError, VersionTag};
use dsnrep_simcore::{Addr, CostModel, Halted, TrafficClass};

const DB_LEN: u64 = 32 * 1024;

#[test]
fn halted_machine_stops_at_the_exact_store() -> Result<(), Halted> {
    let config = EngineConfig::for_db(DB_LEN);
    let arena = dsnrep_core::shared_arena(arena_len(VersionTag::ImprovedLog, &config));
    let mut m = Machine::standalone(CostModel::alpha_21164a(), Rc::clone(&arena));
    m.inject_crash_after_stores(1);
    m.write(Addr::new(0), &[1], TrafficClass::Meta)?;
    let before = m.stats();
    assert_eq!(
        m.write(Addr::new(8), &[2], TrafficClass::Meta),
        Err(Halted),
        "the second store must halt"
    );
    assert_eq!(
        arena.borrow().read_vec(Addr::new(0), 1),
        vec![1],
        "first store landed"
    );
    assert_eq!(
        arena.borrow().read_vec(Addr::new(8), 1),
        vec![0],
        "second store dropped"
    );
    // The halting store charged nothing and did not count, and every later
    // store halts too.
    assert_eq!(m.stats(), before);
    assert_eq!(m.stores_executed(), 1);
    assert_eq!(
        m.write_u64(Addr::new(16), 3, TrafficClass::Meta),
        Err(Halted)
    );
    assert_eq!(m.stats(), before);
    m.clear_fault();
    m.write(Addr::new(8), &[2], TrafficClass::Meta)?;
    assert_eq!(arena.borrow().read_vec(Addr::new(8), 1), vec![2]);
    Ok(())
}

#[test]
fn every_engine_passes_a_halt_out_of_set_range() {
    for version in VersionTag::ALL {
        let config = EngineConfig::for_db(DB_LEN);
        let arena = dsnrep_core::shared_arena(arena_len(version, &config));
        let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
        let mut engine = build_engine(version, &mut m, &config);
        let db = engine.db_region().start();
        m.inject_crash_after_stores(1);
        engine.begin(&mut m).expect("begin stays within the budget");
        assert_eq!(
            engine.set_range(&mut m, db, 16),
            Err(TxError::Halted),
            "{version}"
        );
        assert_eq!(m.stores_executed(), 1, "{version}");
    }
}

/// Debug builds catch any accounted access that runs after a halt.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "halted node")]
fn an_accounted_load_on_a_halted_machine_is_caught() {
    let arena = dsnrep_core::shared_arena(4096);
    let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
    m.inject_crash_after_stores(0);
    assert_eq!(m.write(Addr::new(0), &[1], TrafficClass::Meta), Err(Halted));
    m.read_u64(Addr::new(0));
}

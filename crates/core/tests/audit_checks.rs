//! The auditor: clean after normal operation and recovery, loud after
//! targeted corruption.

use dsnrep_core::{
    arena_len, attach_engine, audit, build_engine, EngineConfig, Machine, VersionTag,
};
use dsnrep_rio::{Layout, RootSlot};
use dsnrep_simcore::{Addr, CostModel, SplitMix64};

fn run_some(version: VersionTag, txns: u64) -> Machine {
    let config = EngineConfig::for_db(32 * 1024);
    let arena = dsnrep_core::shared_arena(arena_len(version, &config));
    let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
    let mut e = build_engine(version, &mut m, &config);
    let db = e.db_region();
    let mut rng = SplitMix64::new(3);
    for _ in 0..txns {
        e.begin(&mut m).unwrap();
        let len = 8 + rng.next_below(32);
        let off = rng.next_below(db.len() - len);
        e.set_range(&mut m, db.start() + off, len).unwrap();
        e.write(
            &mut m,
            db.start() + off,
            &vec![rng.next_u64() as u8; len as usize],
        )
        .unwrap();
        e.commit(&mut m).unwrap();
    }
    m
}

#[test]
fn clean_after_committed_transactions() {
    for version in VersionTag::ALL {
        let m = run_some(version, 50);
        let report =
            audit(version, &m.arena().borrow()).unwrap_or_else(|e| panic!("{version}: {e}"));
        assert_eq!(report.committed_seq, 50, "{version}");
        assert!(
            !report.in_flight,
            "{version}: idle arena reported in-flight"
        );
    }
}

#[test]
fn clean_after_crash_and_recovery() {
    for version in VersionTag::ALL {
        let config = EngineConfig::for_db(32 * 1024);
        let arena = dsnrep_core::shared_arena(arena_len(version, &config));
        let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
        let mut e = build_engine(version, &mut m, &config);
        let db = e.db_region().start();
        e.begin(&mut m).unwrap();
        e.set_range(&mut m, db, 64).unwrap();
        e.write(&mut m, db, &[7; 64]).unwrap();
        drop(e);
        m.crash();
        // Mid-transaction the audit may see in-flight structures but no
        // violations.
        let pre = audit(version, &m.arena().borrow()).unwrap_or_else(|e| panic!("{version}: {e}"));
        assert!(
            pre.in_flight || matches!(version, VersionTag::MirrorCopy | VersionTag::MirrorDiff),
            "{version}: expected in-flight structures before recovery"
        );
        let mut e = attach_engine(version, &mut m);
        e.recover(&mut m).unwrap();
        let post = audit(version, &m.arena().borrow()).unwrap_or_else(|e| panic!("{version}: {e}"));
        assert!(
            !post.in_flight,
            "{version}: recovery must quiesce the arena"
        );
    }
}

#[test]
fn detects_an_out_of_bounds_undo_record() {
    // Corrupt a V3 log header to point outside the database.
    let config = EngineConfig::for_db(32 * 1024);
    let arena = dsnrep_core::shared_arena(arena_len(VersionTag::ImprovedLog, &config));
    let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
    let mut e = build_engine(VersionTag::ImprovedLog, &mut m, &config);
    let db = e.db_region().start();
    e.begin(&mut m).unwrap();
    e.set_range(&mut m, db, 32).unwrap();
    e.write(&mut m, db, &[1; 32]).unwrap();
    // Mid-transaction: rewrite the first header's base offset to absurdity.
    let layout = Layout::read(&m.arena().borrow()).unwrap();
    let log = layout.expect_region(dsnrep_rio::RegionId::UndoLog);
    let word = m.arena().borrow().read_u64(log.start());
    m.arena()
        .borrow_mut()
        .write_u64(log.start(), word | 0xFFFF_0000);
    let err = audit(VersionTag::ImprovedLog, &m.arena().borrow()).unwrap_err();
    assert!(err.message().contains("outside the database"), "{err}");
}

#[test]
fn detects_a_diverged_mirror() {
    let m = run_some(VersionTag::MirrorCopy, 20);
    // Flip one mirror byte while idle.
    let layout = Layout::read(&m.arena().borrow()).unwrap();
    let mirror = layout.expect_region(dsnrep_rio::RegionId::Mirror);
    let mut byte = m.arena().borrow().read_vec(mirror.start() + 100, 1);
    byte[0] ^= 0xFF;
    m.arena().borrow_mut().write(mirror.start() + 100, &byte);
    let err = audit(VersionTag::MirrorCopy, &m.arena().borrow()).unwrap_err();
    assert!(err.message().contains("mirror diverges"), "{err}");
}

#[test]
fn detects_a_corrupted_heap() {
    let m = run_some(VersionTag::Vista, 20);
    let layout = Layout::read(&m.arena().borrow()).unwrap();
    let heap = layout.expect_region(dsnrep_rio::RegionId::Heap);
    // Smash a boundary tag in the middle of the heap.
    m.arena().borrow_mut().write_u64(heap.start() + 64, 3);
    let err = audit(VersionTag::Vista, &m.arena().borrow()).unwrap_err();
    assert!(err.message().contains("heap"), "{err}");
}

#[test]
fn detects_an_unparseable_layout() {
    let arena = dsnrep_core::shared_arena(8192);
    arena.borrow_mut().write_u64(Addr::new(0), 0xBAD);
    let err = audit(VersionTag::ImprovedLog, &arena.borrow()).unwrap_err();
    assert!(err.message().contains("layout"), "{err}");
    // Root slots are part of the documented header; sanity-check one.
    assert!(Layout::root_addr(RootSlot::TxnSeq).as_u64() < 4096);
}

//! Engine semantics matrix: every behaviour checked across all four
//! versions.

use std::cell::RefCell;
use std::rc::Rc;

use dsnrep_core::{
    arena_len, attach_engine, build_engine, Engine, EngineConfig, Machine, ShadowDb, TxError,
    VersionTag,
};
use dsnrep_rio::Arena;
use dsnrep_simcore::{CostModel, VirtualInstant};

fn setup(version: VersionTag) -> (Machine, Box<dyn Engine>, Rc<RefCell<Arena>>) {
    let config = EngineConfig::for_db(64 * 1024);
    let arena = Rc::new(RefCell::new(Arena::new(arena_len(version, &config))));
    let mut m = Machine::standalone(CostModel::alpha_21164a(), Rc::clone(&arena));
    let engine = build_engine(version, &mut m, &config);
    (m, engine, arena)
}

fn for_each_version(mut f: impl FnMut(VersionTag)) {
    for v in VersionTag::ALL {
        f(v);
    }
}

#[test]
fn committed_writes_are_durable() {
    for_each_version(|v| {
        let (mut m, mut e, arena) = setup(v);
        let db = e.db_region().start();
        e.begin(&mut m).unwrap();
        e.set_range(&mut m, db + 16, 8).unwrap();
        e.write(&mut m, db + 16, &0xFEED_u64.to_le_bytes()).unwrap();
        e.commit(&mut m).unwrap();
        assert_eq!(arena.borrow().read_u64(db + 16), 0xFEED, "{v}");
        assert_eq!(e.committed_seq(&mut m), 1, "{v}");
    });
}

#[test]
fn abort_restores_all_ranges() {
    for_each_version(|v| {
        let (mut m, mut e, arena) = setup(v);
        let db = e.db_region().start();
        // Seed committed state.
        e.begin(&mut m).unwrap();
        e.set_range(&mut m, db, 32).unwrap();
        e.write(&mut m, db, &[0xAA; 32]).unwrap();
        e.commit(&mut m).unwrap();
        // Abort a transaction touching two ranges.
        e.begin(&mut m).unwrap();
        e.set_range(&mut m, db, 16).unwrap();
        e.set_range(&mut m, db + 100, 8).unwrap();
        e.write(&mut m, db, &[0xBB; 16]).unwrap();
        e.write(&mut m, db + 100, &[0xCC; 8]).unwrap();
        e.abort(&mut m).unwrap();
        assert_eq!(arena.borrow().read_vec(db, 32), vec![0xAA; 32], "{v}");
        assert_eq!(arena.borrow().read_vec(db + 100, 8), vec![0; 8], "{v}");
        assert_eq!(e.committed_seq(&mut m), 1, "{v}");
        // The engine takes the next transaction, even an empty one.
        e.begin(&mut m).unwrap();
        e.commit(&mut m).unwrap();
        assert_eq!(e.committed_seq(&mut m), 2, "{v}");
    });
}

#[test]
fn overlapping_set_ranges_abort_to_oldest() {
    for_each_version(|v| {
        let (mut m, mut e, arena) = setup(v);
        let db = e.db_region().start();
        e.begin(&mut m).unwrap();
        e.set_range(&mut m, db, 16).unwrap();
        e.write(&mut m, db, &[1; 16]).unwrap();
        // Second, overlapping set_range captures the already-modified data.
        e.set_range(&mut m, db + 8, 16).unwrap();
        e.write(&mut m, db + 8, &[2; 16]).unwrap();
        e.abort(&mut m).unwrap();
        // The pre-transaction data (zeros) must win everywhere.
        assert_eq!(arena.borrow().read_vec(db, 24), vec![0; 24], "{v}");
    });
}

#[test]
fn write_outside_set_range_is_rejected() {
    for_each_version(|v| {
        let (mut m, mut e, _) = setup(v);
        let db = e.db_region().start();
        e.begin(&mut m).unwrap();
        e.set_range(&mut m, db, 8).unwrap();
        let err = e.write(&mut m, db + 8, &[1]).unwrap_err();
        assert!(
            matches!(err, TxError::UnprotectedWrite { .. }),
            "{v}: {err}"
        );
        // A partially covered write is also rejected.
        let err = e.write(&mut m, db + 4, &[1; 8]).unwrap_err();
        assert!(
            matches!(err, TxError::UnprotectedWrite { .. }),
            "{v}: {err}"
        );
        e.abort(&mut m).unwrap();
    });
}

#[test]
fn api_state_machine_is_enforced() {
    for_each_version(|v| {
        let (mut m, mut e, _) = setup(v);
        let db = e.db_region().start();
        assert_eq!(e.commit(&mut m), Err(TxError::NoActiveTransaction), "{v}");
        assert_eq!(e.abort(&mut m), Err(TxError::NoActiveTransaction), "{v}");
        assert!(
            matches!(
                e.set_range(&mut m, db, 8),
                Err(TxError::NoActiveTransaction)
            ),
            "{v}"
        );
        e.begin(&mut m).unwrap();
        assert_eq!(e.begin(&mut m), Err(TxError::TransactionActive), "{v}");
        e.abort(&mut m).unwrap();
    });
}

#[test]
fn set_range_outside_db_is_rejected() {
    for_each_version(|v| {
        let (mut m, mut e, _) = setup(v);
        let db = e.db_region();
        e.begin(&mut m).unwrap();
        let err = e.set_range(&mut m, db.end() - 4, 8).unwrap_err();
        assert!(matches!(err, TxError::RangeOutOfDatabase { .. }), "{v}");
        e.abort(&mut m).unwrap();
        // The rejected range left the engine clean.
        e.begin(&mut m).unwrap();
        e.abort(&mut m).unwrap();
    });
}

#[test]
fn crash_mid_transaction_rolls_back() {
    for_each_version(|v| {
        let (mut m, mut e, arena) = setup(v);
        let db = e.db_region().start();
        e.begin(&mut m).unwrap();
        e.set_range(&mut m, db, 64).unwrap();
        e.write(&mut m, db, &[0x11; 64]).unwrap();
        e.commit(&mut m).unwrap();

        e.begin(&mut m).unwrap();
        e.set_range(&mut m, db + 32, 64).unwrap();
        e.write(&mut m, db + 32, &[0x22; 64]).unwrap();
        drop(e); // the crash destroys all volatile state
        m.crash();

        let mut e = attach_engine(v, &mut m);
        let report = e.recover(&mut m).unwrap();
        assert!(report.rolled_back, "{v}");
        assert_eq!(report.committed_seq, 1, "{v}");
        assert_eq!(arena.borrow().read_vec(db, 64), vec![0x11; 64], "{v}");
        assert_eq!(arena.borrow().read_vec(db + 64, 32), vec![0; 32], "{v}");

        // The engine is usable again after recovery.
        e.begin(&mut m).unwrap();
        e.set_range(&mut m, db, 8).unwrap();
        e.write(&mut m, db, &[9; 8]).unwrap();
        e.commit(&mut m).unwrap();
        assert_eq!(e.committed_seq(&mut m), 2, "{v}");
    });
}

#[test]
fn crash_with_no_transaction_recovers_cleanly() {
    for_each_version(|v| {
        let (mut m, mut e, arena) = setup(v);
        let db = e.db_region().start();
        e.begin(&mut m).unwrap();
        e.set_range(&mut m, db, 8).unwrap();
        e.write(&mut m, db, &[5; 8]).unwrap();
        e.commit(&mut m).unwrap();
        drop(e);
        m.crash();
        let mut e = attach_engine(v, &mut m);
        let report = e.recover(&mut m).unwrap();
        assert!(!report.rolled_back, "{v}");
        assert_eq!(report.committed_seq, 1, "{v}");
        assert_eq!(arena.borrow().read_vec(db, 8), vec![5; 8], "{v}");
    });
}

#[test]
fn recovery_is_idempotent() {
    for_each_version(|v| {
        let (mut m, mut e, arena) = setup(v);
        let db = e.db_region().start();
        e.begin(&mut m).unwrap();
        e.set_range(&mut m, db, 16).unwrap();
        e.write(&mut m, db, &[3; 16]).unwrap();
        drop(e);
        m.crash();
        let mut e = attach_engine(v, &mut m);
        e.recover(&mut m).unwrap();
        let again = e.recover(&mut m).unwrap();
        assert!(!again.rolled_back, "{v}: second recovery must be a no-op");
        assert_eq!(arena.borrow().read_vec(db, 16), vec![0; 16], "{v}");
    });
}

#[test]
fn long_random_schedule_matches_shadow() {
    for_each_version(|v| {
        let (mut m, mut e, arena) = setup(v);
        let db_region = e.db_region();
        let mut shadow = ShadowDb::new(db_region);
        let mut rng = dsnrep_simcore::SplitMix64::new(0xD5E1 + v as u64);
        for i in 0..300 {
            e.begin(&mut m).unwrap();
            shadow.begin();
            let n_ranges = 1 + rng.next_below(4);
            for _ in 0..n_ranges {
                let len = 1 + rng.next_below(96);
                let off = rng.next_below(db_region.len() - len);
                let base = db_region.start() + off;
                e.set_range(&mut m, base, len).unwrap();
                let mut data = vec![0u8; len as usize];
                for b in &mut data {
                    *b = rng.next_u64() as u8;
                }
                e.write(&mut m, base, &data).unwrap();
                shadow.write(base, &data);
            }
            if i % 7 == 3 {
                e.abort(&mut m).unwrap();
                shadow.abort();
            } else {
                e.commit(&mut m).unwrap();
                shadow.commit();
            }
        }
        assert!(
            shadow.matches(&arena.borrow()),
            "{v}: first mismatch at {:?}",
            shadow.first_mismatch(&arena.borrow())
        );
        assert_eq!(e.committed_seq(&mut m), shadow.seq(), "{v}");
        assert!(m.now() > VirtualInstant::EPOCH);
    });
}

/// The paper's Table 3 mechanism: the restructured versions beat Version 0
/// standalone, and Version 3 beats the mirroring versions.
#[test]
fn standalone_cost_ordering_matches_table3() {
    let mut times = Vec::new();
    for v in VersionTag::ALL {
        let (mut m, mut e, _) = setup(v);
        let db_region = e.db_region();
        let mut rng = dsnrep_simcore::SplitMix64::new(7);
        for _ in 0..500 {
            e.begin(&mut m).unwrap();
            for _ in 0..4 {
                let len = 16;
                let off = rng.next_below(db_region.len() - len) & !7;
                let base = db_region.start() + off;
                e.set_range(&mut m, base, len).unwrap();
                e.write(&mut m, base, &rng.next_u64().to_le_bytes())
                    .unwrap();
            }
            e.commit(&mut m).unwrap();
        }
        times.push((v, m.now().as_picos()));
    }
    let t = |v: VersionTag| times.iter().find(|(x, _)| *x == v).expect("present").1;
    assert!(
        t(VersionTag::Vista) > t(VersionTag::MirrorCopy),
        "V1 should beat V0 standalone: {times:?}"
    );
    assert!(
        t(VersionTag::Vista) > t(VersionTag::MirrorDiff),
        "V2 should beat V0 standalone: {times:?}"
    );
    assert!(
        t(VersionTag::MirrorCopy) > t(VersionTag::ImprovedLog),
        "V3 should beat V1 standalone: {times:?}"
    );
}

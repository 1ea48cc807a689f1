//! Property tests: random transaction schedules with random crash points,
//! verified against the shadow oracle, for all four engine versions.

use std::cell::RefCell;
use std::rc::Rc;

use dsnrep_core::{
    arena_len, attach_engine, build_engine, Engine, EngineConfig, Machine, ShadowDb, VersionTag,
};
use dsnrep_rio::Arena;
use dsnrep_simcore::{Addr, CostModel, SplitMix64};
use proptest::prelude::*;

const DB_LEN: u64 = 16 * 1024;

#[derive(Clone, Copy, Debug)]
enum Outcome {
    Commit,
    Abort,
    /// Crash after this many steps into the transaction
    /// (0 = right after begin).
    CrashAfter(u8),
}

#[derive(Clone, Copy, Debug)]
struct TxnPlan {
    ranges: u8,
    outcome: Outcome,
    seed: u64,
}

fn txn_strategy() -> impl Strategy<Value = TxnPlan> {
    (
        1u8..5,
        prop_oneof![
            5 => Just(Outcome::Commit),
            2 => Just(Outcome::Abort),
            1 => (0u8..8).prop_map(Outcome::CrashAfter),
        ],
        any::<u64>(),
    )
        .prop_map(|(ranges, outcome, seed)| TxnPlan {
            ranges,
            outcome,
            seed,
        })
}

fn version_strategy() -> impl Strategy<Value = VersionTag> {
    prop_oneof![
        Just(VersionTag::Vista),
        Just(VersionTag::MirrorCopy),
        Just(VersionTag::MirrorDiff),
        Just(VersionTag::ImprovedLog),
    ]
}

/// Runs one transaction plan; returns `false` if the plan crashed (so the
/// caller recovers before continuing).
fn run_txn(
    e: &mut dyn Engine,
    m: &mut Machine,
    shadow: &mut ShadowDb,
    plan: TxnPlan,
) -> Result<bool, TestCaseError> {
    let db = e.db_region();
    let mut rng = SplitMix64::new(plan.seed);
    e.begin(m).unwrap();
    shadow.begin();
    let crash_step = match plan.outcome {
        Outcome::CrashAfter(s) => Some(u64::from(s)),
        _ => None,
    };
    let mut step = 0u64;
    for _ in 0..plan.ranges {
        if crash_step == Some(step) {
            shadow.abort(); // the crash will roll this transaction back
            return Ok(false);
        }
        step += 1;
        let len = 1 + rng.next_below(64);
        let off = rng.next_below(db.len() - len);
        let base = db.start() + off;
        e.set_range(m, base, len).unwrap();
        let mut data = vec![0u8; len as usize];
        for b in &mut data {
            *b = rng.next_u64() as u8;
        }
        if crash_step == Some(step) {
            shadow.abort();
            return Ok(false);
        }
        step += 1;
        e.write(m, base, &data).unwrap();
        shadow.write(base, &data);
    }
    match plan.outcome {
        Outcome::Commit => {
            e.commit(m).unwrap();
            shadow.commit();
        }
        Outcome::Abort => {
            e.abort(m).unwrap();
            shadow.abort();
        }
        Outcome::CrashAfter(_) => {
            // Crash after all the writes but before commit.
            shadow.abort();
            return Ok(false);
        }
    }
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of committed, aborted and crashed transactions
    /// recovers to exactly the committed prefix (standalone: no 1-safe
    /// window exists).
    #[test]
    fn schedule_with_crashes_recovers_to_shadow(
        version in version_strategy(),
        plans in prop::collection::vec(txn_strategy(), 1..25),
    ) {
        let config = EngineConfig::for_db(DB_LEN);
        let arena = Rc::new(RefCell::new(Arena::new(arena_len(version, &config))));
        let mut m = Machine::standalone(CostModel::alpha_21164a(), Rc::clone(&arena));
        let mut engine = build_engine(version, &mut m, &config);
        let mut shadow = ShadowDb::new(engine.db_region());

        for plan in plans {
            let survived = run_txn(engine.as_mut(), &mut m, &mut shadow, plan)?;
            if !survived {
                drop(engine);
                m.crash();
                engine = attach_engine(version, &mut m);
                engine.recover(&mut m).unwrap();
            }
            prop_assert!(
                shadow.matches(&arena.borrow()),
                "{version}: mismatch at {:?} after {plan:?}",
                shadow.first_mismatch(&arena.borrow())
            );
        }
        prop_assert_eq!(engine.committed_seq(&mut m), shadow.seq());
    }

    /// Reads always observe the engine's own in-place writes.
    #[test]
    fn reads_see_in_place_writes(
        version in version_strategy(),
        off in 0u64..(DB_LEN - 64),
        data in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let config = EngineConfig::for_db(DB_LEN);
        let arena = Rc::new(RefCell::new(Arena::new(arena_len(version, &config))));
        let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
        let mut engine = build_engine(version, &mut m, &config);
        let base = engine.db_region().start() + off;
        engine.begin(&mut m).unwrap();
        engine.set_range(&mut m, base, data.len() as u64).unwrap();
        engine.write(&mut m, base, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        engine.read(&mut m, base, &mut buf);
        prop_assert_eq!(&buf, &data, "{} uncommitted read", version);
        engine.commit(&mut m).unwrap();
        engine.read(&mut m, base, &mut buf);
        prop_assert_eq!(&buf, &data, "{} committed read", version);
    }
}

/// Crashing *during* commit processing must still recover to a transaction
/// boundary. We drive this deterministically by crashing right after commit
/// returns on a cloned arena snapshot taken mid-commit is not possible from
/// outside, so instead we exercise the weaker—but still strong—property:
/// a crash immediately after commit keeps the transaction.
#[test]
fn crash_immediately_after_commit_keeps_the_transaction() {
    for version in VersionTag::ALL {
        let config = EngineConfig::for_db(DB_LEN);
        let arena = Rc::new(RefCell::new(Arena::new(arena_len(version, &config))));
        let mut m = Machine::standalone(CostModel::alpha_21164a(), Rc::clone(&arena));
        let mut engine = build_engine(version, &mut m, &config);
        let base = engine.db_region().start();
        engine.begin(&mut m).unwrap();
        engine.set_range(&mut m, base, 8).unwrap();
        engine.write(&mut m, base, &[1; 8]).unwrap();
        engine.commit(&mut m).unwrap();
        drop(engine);
        m.crash();
        let mut engine = attach_engine(version, &mut m);
        let report = engine.recover(&mut m).unwrap();
        assert_eq!(report.committed_seq, 1, "{version}");
        assert_eq!(
            arena.borrow().read_vec(Addr::new(base.as_u64()), 8),
            vec![1; 8],
            "{version}"
        );
    }
}

//! Steady-state host allocations: after a warm-up, no driver allocates on
//! the heap per transaction or per replica read.
//!
//! A thread-local counting global allocator counts every allocation and
//! reallocation the test's own thread makes (the harness's other threads
//! do not disturb it). Each driver runs `WARMUP` transactions, then
//! `MEASURED` more must allocate fewer than once per hundred
//! transactions. What remains is amortized growth: the read history's
//! columns and the drivers' queues doubling now and then.
//!
//! Arena page frames taken from the heap are counted apart, by rio's own
//! per-thread count ([`Arena::heap_frames`]). They are the simulated
//! memory itself, materialized on a page's first nonzero write and never
//! again, and a workload keeps touching fresh pages of its 2 MiB database
//! for tens of thousands of transactions (Debit-Credit's history ring
//! alone spans 32 768 of them). A page whose frame an earlier driver
//! dropped on this thread takes no allocation at all, so the count is of
//! frames, not of pages materialized.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dsnrep_cluster::{ReplicationStrategy, Topology};
use dsnrep_core::{arena_len, build_engine, shared_arena, EngineConfig, Machine, VersionTag};
use dsnrep_repl::{ActiveCluster, PassiveCluster, ReplicaSet};
use dsnrep_rio::Arena;
use dsnrep_simcore::{CostModel, MIB};
use dsnrep_workloads::{TxCtx, WorkloadKind};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; nothing measured runs
    // then.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a `const`-initialized thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const DB: u64 = 2 * MIB;
const SEED: u64 = 41;
/// Transactions before counting starts.
const WARMUP: u64 = 1_000;
/// Transactions counted.
const MEASURED: u64 = 1_000;

/// What steps `WARMUP..WARMUP + MEASURED` of a driver did.
#[derive(Debug)]
struct Steady {
    /// Heap allocations and reallocations.
    allocs: u64,
    /// Arena page frames taken from the heap, each one of `allocs`.
    frames: u64,
}

/// Runs `step(k)` for every step `k`; each runs one transaction (and
/// maybe a read).
fn steady(mut step: impl FnMut(u64)) -> Steady {
    for k in 0..WARMUP {
        step(k);
    }
    let (allocs, frames) = (ALLOCS.with(Cell::get), Arena::heap_frames());
    for k in WARMUP..WARMUP + MEASURED {
        step(k);
    }
    Steady {
        allocs: ALLOCS.with(Cell::get) - allocs,
        frames: Arena::heap_frames() - frames,
    }
}

fn standalone(kind: WorkloadKind, version: VersionTag) -> Steady {
    let config = EngineConfig::for_db(DB);
    let mut m = Machine::standalone(
        CostModel::alpha_21164a(),
        shared_arena(arena_len(version, &config)),
    );
    let mut engine = build_engine(version, &mut m, &config);
    let mut w = kind.build(engine.db_region(), SEED);
    steady(|_| {
        w.run_txn(&mut TxCtx::new(&mut m, engine.as_mut()))
            .expect("a correctly sized standalone engine never fails");
    })
}

/// Runs `kind` on `set`, serving a read at the head's instant after every
/// second write when `reads`.
fn replicated(set: &mut ReplicaSet, kind: WorkloadKind, reads: bool) -> Steady {
    let mut w = kind.build(set.engine().db_region(), SEED);
    steady(|k| {
        set.run_txn(w.as_mut());
        if reads && k % 2 == 1 {
            let at = set.machine().now();
            set.serve_read(at);
        }
    })
}

/// Runs every driver on `kind` and fails naming each one that allocates
/// once per hundred transactions or more.
fn check(kind: WorkloadKind) {
    let config = EngineConfig::for_db(DB);
    let mut counts = Vec::new();
    for version in VersionTag::ALL {
        counts.push((format!("standalone {version}"), standalone(kind, version)));
        let mut pair = PassiveCluster::new(CostModel::alpha_21164a(), version, &config);
        counts.push((
            format!("passive pair {version}"),
            replicated(&mut pair, kind, false),
        ));
    }
    let mut pair = ActiveCluster::new(CostModel::alpha_21164a(), &config);
    counts.push(("active pair".to_owned(), replicated(&mut pair, kind, false)));
    for (driver, strategy) in [
        ("chain RF 3", ReplicationStrategy::Chain),
        (
            "quorum R2W2",
            ReplicationStrategy::Quorum { read: 2, write: 2 },
        ),
    ] {
        let topology = Topology::new(3, strategy).expect("RF 3 chain and R2W2 quorum are valid");
        let mut set = ReplicaSet::new(
            CostModel::alpha_21164a(),
            VersionTag::ImprovedLog,
            &config,
            topology,
        );
        counts.push((driver.to_owned(), replicated(&mut set, kind, true)));
    }
    for (driver, steady) in &counts {
        assert!(
            steady.frames <= steady.allocs,
            "{kind}, {driver}: {steady:?}"
        );
    }
    let over: Vec<_> = counts
        .iter()
        .filter(|(_, steady)| (steady.allocs - steady.frames) * 100 >= MEASURED)
        .collect();
    assert!(
        over.is_empty(),
        "{kind}: allocations over {MEASURED} steady-state transactions, beside arena page \
         frames: {over:?} (all: {counts:?})"
    );
}

#[test]
fn debit_credit_allocates_nothing_per_transaction() {
    check(WorkloadKind::DebitCredit);
}

#[test]
fn order_entry_allocates_nothing_per_transaction() {
    check(WorkloadKind::OrderEntry);
}

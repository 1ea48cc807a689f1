//! The paper's benchmarks: Debit-Credit (TPC-B-like) and Order-Entry
//! (TPC-C-like).
//!
//! Both issue transactions sequentially and as fast as possible, with no
//! terminal I/O, to isolate the transaction system (paper §2.4). Workloads
//! un against any `Engine` (from `dsnrep-core`) through a [`TxCtx`],
//! which can also mirror every logical write into a
//! [`ShadowDb`](dsnrep_core::ShadowDb) oracle (tests) or a redo stager
//! (the active-backup driver).
//!
//! # Examples
//!
//! Measuring standalone throughput in virtual time:
//!
//! ```
//! use dsnrep_core::{build_engine, EngineConfig, Machine, VersionTag};
//! use dsnrep_simcore::CostModel;
//! use dsnrep_workloads::{run_standalone, DebitCredit, Workload};
//!
//! let config = EngineConfig::for_db(1 << 20);
//! let arena = dsnrep_core::shared_arena(dsnrep_core::arena_len(
//!     VersionTag::ImprovedLog, &config));
//! let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
//! let mut engine = build_engine(VersionTag::ImprovedLog, &mut m, &config);
//! let mut workload = DebitCredit::new(engine.db_region(), 42);
//!
//! let report = run_standalone(&mut workload, &mut m, engine.as_mut(), 1_000);
//! assert_eq!(report.txns, 1_000);
//! assert!(report.tps() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ctx;
mod debit_credit;
mod open;
mod order_entry;
mod synthetic;

pub use ctx::TxCtx;
pub use debit_credit::DebitCredit;
pub use open::{det_exp, det_ln, ArrivalGen, ArrivalProcess, ZipfKeys};
pub use order_entry::OrderEntry;
pub use synthetic::{Synthetic, SyntheticSpec};

use dsnrep_core::{Engine, Machine, TxError};
use dsnrep_obs::{NullTracer, Tracer};
use dsnrep_simcore::{Region, VirtualDuration};

/// A transaction stream that can drive any engine.
///
/// The `T` parameter is the tracer threaded through the machine the
/// workload runs on; it defaults to [`NullTracer`], so `dyn Workload`
/// means the untraced workload and existing code compiles unchanged.
pub trait Workload<T: Tracer = NullTracer> {
    /// Human-readable benchmark name.
    fn name(&self) -> &'static str;

    /// The database region the workload laid itself out in.
    fn db_region(&self) -> Region;

    /// Issues exactly one transaction (begin through commit/abort).
    ///
    /// # Errors
    ///
    /// Propagates engine errors; a correctly sized engine never fails.
    fn run_txn(&mut self, ctx: &mut TxCtx<'_, T>) -> Result<(), TxError>;
}

/// Which of the paper's two benchmarks to instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// The TPC-B variant.
    DebitCredit,
    /// The TPC-C variant.
    OrderEntry,
}

impl WorkloadKind {
    /// Both benchmarks, in the paper's column order.
    pub const ALL: [WorkloadKind; 2] = [WorkloadKind::DebitCredit, WorkloadKind::OrderEntry];

    /// Builds the workload over `db` with `seed`.
    pub fn build(self, db: Region, seed: u64) -> Box<dyn Workload> {
        self.build_traced(db, seed)
    }

    /// Builds the workload for a machine carrying tracer `T` (the traced
    /// twin of [`WorkloadKind::build`]; `T` cannot be inferred from the
    /// arguments, so it is a separate method).
    pub fn build_traced<T: Tracer + 'static>(self, db: Region, seed: u64) -> Box<dyn Workload<T>> {
        match self {
            WorkloadKind::DebitCredit => Box::new(DebitCredit::new(db, seed)),
            WorkloadKind::OrderEntry => Box::new(OrderEntry::new(db, seed)),
        }
    }

    /// The benchmark's display name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::DebitCredit => "Debit-Credit",
            WorkloadKind::OrderEntry => "Order-Entry",
        }
    }
}

impl core::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Throughput measured over a run, in virtual time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThroughputReport {
    /// Transactions committed.
    pub txns: u64,
    /// Virtual time elapsed.
    pub elapsed: VirtualDuration,
}

impl ThroughputReport {
    /// Transactions per virtual second.
    pub fn tps(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.txns as f64 / self.elapsed.as_secs_f64()
        }
    }
}

impl core::fmt::Display for ThroughputReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} txns in {} ({:.0} TPS)",
            self.txns,
            self.elapsed,
            self.tps()
        )
    }
}

/// Runs `txns` transactions of `workload` against a standalone engine and
/// reports virtual-time throughput.
///
/// # Panics
///
/// Panics if the workload returns an engine error (a sizing bug).
pub fn run_standalone<T: Tracer>(
    workload: &mut dyn Workload<T>,
    m: &mut Machine<T>,
    engine: &mut dyn Engine<T>,
    txns: u64,
) -> ThroughputReport {
    let start = m.now();
    for _ in 0..txns {
        let mut ctx = TxCtx::new(m, engine);
        workload
            .run_txn(&mut ctx)
            .expect("workload transaction failed");
    }
    ThroughputReport {
        txns,
        elapsed: m.now().duration_since(start),
    }
}

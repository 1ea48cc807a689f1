//! The experiment implementations behind every table and figure.
//!
//! [`Grid`] runs each 50 MB configuration once, and Tables 1–7 read from
//! it; [`figure1`], [`table8`] and [`smp_figure`] run the configurations
//! only they use. Each runs in virtual time and returns structured
//! results, which the `reproduce` binary prints next to the paper's
//! numbers. Transaction counts are scaled down from the paper's
//! multi-million-transaction runs (throughput is a steady-state rate and
//! traffic per transaction is constant, so volumes are rescaled to the
//! paper's run lengths for comparison).

use dsnrep_core::{build_engine, EngineConfig, Machine, MachineStats, VersionTag};
use dsnrep_mcsim::{figure1_sweep, BandwidthPoint, Traffic};
use dsnrep_repl::{ReplicaSet, Scheme, SmpExperiment};
use dsnrep_simcore::{CostModel, TrafficClass, MIB};
use dsnrep_workloads::{run_standalone, WorkloadKind};

use crate::paper;

/// How many transactions each experiment runs per configuration.
///
/// The defaults keep the full table regeneration under a couple of minutes;
/// set the `DSNREP_TXNS` environment variable to override (e.g. `100000`
/// for tighter statistics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunScale {
    /// Transactions per Debit-Credit configuration.
    pub debit_credit: u64,
    /// Transactions per Order-Entry configuration.
    pub order_entry: u64,
    /// Transactions per stream in the SMP experiments.
    pub smp_per_stream: u64,
}

impl RunScale {
    /// The default scale, honoring `DSNREP_TXNS` when set.
    ///
    /// # Errors
    ///
    /// As [`txns_from_env`]: `DSNREP_TXNS` is set to anything but a
    /// positive integer.
    pub fn from_env() -> Result<Self, String> {
        let base = txns_from_env("DSNREP_TXNS")?.unwrap_or(30_000);
        Ok(RunScale {
            debit_credit: base,
            order_entry: (base / 2).max(1),
            smp_per_stream: (base / 6).max(1),
        })
    }

    /// A tiny scale for smoke tests.
    pub fn smoke() -> Self {
        RunScale {
            debit_credit: 300,
            order_entry: 200,
            smp_per_stream: 60,
        }
    }

    fn txns(&self, kind: WorkloadKind) -> u64 {
        match kind {
            WorkloadKind::DebitCredit => self.debit_credit,
            WorkloadKind::OrderEntry => self.order_entry,
        }
    }
}

/// Reads a transaction count from the environment variable `name`:
/// `None` when it is unset, and a set value must be a positive integer.
///
/// # Errors
///
/// A message naming `name` and its value when the value is anything else
/// (zero, a non-number, an empty string): a count the run cannot honor
/// never silently becomes the default.
pub fn txns_from_env(name: &str) -> Result<Option<u64>, String> {
    let raw = std::env::var_os(name);
    parse_txns(name, raw.as_ref().map(|v| v.to_string_lossy()).as_deref())
}

/// [`txns_from_env`] on the variable's value (`None` when unset).
fn parse_txns(name: &str, raw: Option<&str>) -> Result<Option<u64>, String> {
    let Some(value) = raw else {
        return Ok(None);
    };
    match value.parse::<u64>() {
        Ok(txns) if txns > 0 => Ok(Some(txns)),
        _ => Err(format!(
            "{name}={value:?} is not a positive transaction count"
        )),
    }
}

/// The paper's database size for the single-stream experiments.
pub const PAPER_DB: u64 = 50 * MIB;
/// The paper's per-stream database size for the SMP experiments.
pub const SMP_DB: u64 = 10 * MIB;
/// The fixed workload seed every experiment runs with.
pub const SEED: u64 = 42;

/// The calibrated cost model every experiment runs with.
pub fn costs() -> CostModel {
    CostModel::alpha_21164a()
}

/// Process-wide throttle for experiment cells: at most
/// `available_parallelism()` cells simulate at once, no matter how many
/// `par_cells` calls are in flight (the `reproduce` binary runs every
/// report section concurrently). Without the throttle, tens of cells — each
/// with a database-sized working set — would time-share each core and
/// thrash its cache; with it, a core always runs one cell to completion's
/// worth of locality. Waiting threads hold no simulation state, so peak
/// memory also stays at one live cell per core.
mod permits {
    use std::sync::{Condvar, Mutex, OnceLock};

    struct Sem {
        free: Mutex<usize>,
        cv: Condvar,
    }

    static SEM: OnceLock<Sem> = OnceLock::new();

    fn sem() -> &'static Sem {
        SEM.get_or_init(|| Sem {
            free: Mutex::new(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            ),
            cv: Condvar::new(),
        })
    }

    /// An execution slot; released on drop.
    pub struct Permit(());

    /// Blocks until an execution slot is free.
    pub fn acquire() -> Permit {
        let s = sem();
        let mut free = s.free.lock().expect("permit lock poisoned");
        while *free == 0 {
            free = s.cv.wait(free).expect("permit lock poisoned");
        }
        *free -= 1;
        Permit(())
    }

    impl Drop for Permit {
        fn drop(&mut self) {
            let s = sem();
            *s.free.lock().expect("permit lock poisoned") += 1;
            s.cv.notify_one();
        }
    }
}

/// Runs `f(0..count)` with one scoped thread per cell — gated by the
/// internal permit semaphore to one running cell per core — and returns
/// the results in input order.
///
/// Every experiment cell builds its own single-threaded simulation (the
/// simulators are `Rc`/`RefCell`-based and never shared across cells), so
/// cells are independent and the OS schedule cannot affect any simulated
/// result: parallel and sequential runs produce bit-identical reports.
pub fn par_cells<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = Vec::with_capacity(count);
    out.resize_with(count, || None);
    std::thread::scope(|scope| {
        for (i, slot) in out.iter_mut().enumerate() {
            let f = &f;
            scope.spawn(move || {
                let _slot = permits::acquire();
                *slot = Some(f(i));
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("cell thread completed"))
        .collect()
}

/// Scales a traffic volume measured over `ran` transactions to the paper's
/// run length for `kind`.
pub fn scale_to_paper_run(kind: WorkloadKind, ran: u64, mib: f64) -> f64 {
    let paper_txns = paper::RUN_TXNS[kind_index(kind)];
    mib * paper_txns / ran as f64
}

/// Index of a workload in the paper tables (0 = Debit-Credit).
pub fn kind_index(kind: WorkloadKind) -> usize {
    match kind {
        WorkloadKind::DebitCredit => 0,
        WorkloadKind::OrderEntry => 1,
    }
}

/// A traffic breakdown in the paper's MB units, scaled to the paper's run
/// length.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrafficMib {
    /// Modified (in-place database) data.
    pub modified: f64,
    /// Undo or mirror data.
    pub undo: f64,
    /// Metadata.
    pub meta: f64,
}

impl TrafficMib {
    fn from_traffic(kind: WorkloadKind, ran: u64, t: &Traffic) -> Self {
        TrafficMib {
            modified: scale_to_paper_run(kind, ran, t.mib(TrafficClass::Modified)),
            undo: scale_to_paper_run(kind, ran, t.mib(TrafficClass::Undo)),
            meta: scale_to_paper_run(kind, ran, t.mib(TrafficClass::Meta)),
        }
    }

    /// Total MB.
    pub fn total(&self) -> f64 {
        self.modified + self.undo + self.meta
    }
}

/// Standalone throughput plus the machine's execution counters — the cache
/// hit rate is the direct evidence for the paper's Table 3 locality story.
fn standalone_tps_and_stats(
    kind: WorkloadKind,
    version: VersionTag,
    txns: u64,
) -> (f64, MachineStats) {
    let config = EngineConfig::for_db(PAPER_DB);
    let arena = dsnrep_core::shared_arena(dsnrep_core::arena_len(version, &config));
    let mut m = Machine::standalone(costs(), arena);
    let mut engine = build_engine(version, &mut m, &config);
    let mut workload = kind.build(engine.db_region(), SEED);
    let tps = run_standalone(workload.as_mut(), &mut m, engine.as_mut(), txns).tps();
    (tps, m.stats())
}

/// Throughput and traffic of the paper's pair under `scheme`: passive
/// (Tables 1, 2, 4, 5) or active (Tables 6, 7, 8).
fn pair_tps_and_traffic(
    kind: WorkloadKind,
    scheme: Scheme,
    txns: u64,
    db_len: u64,
) -> (f64, TrafficMib) {
    let config = EngineConfig::for_db(db_len);
    let mut set = ReplicaSet::pair(costs(), scheme, &config);
    let mut workload = kind.build(set.db_region(), SEED);
    let report = set.run(workload.as_mut(), txns);
    (
        report.tps(),
        TrafficMib::from_traffic(kind, txns, &set.traffic()),
    )
}

/// Figure 1: the strided-store bandwidth sweep.
pub fn figure1() -> Vec<BandwidthPoint> {
    figure1_sweep(&costs(), MIB)
}

/// The pair schemes of the [`Grid`], in [`Grid::pair`] order: passive
/// Version `v` at index `v`, then the active backup at [`ACTIVE`].
pub const PAIR_SCHEMES: [Scheme; 5] = [
    Scheme::Passive(VersionTag::Vista),
    Scheme::Passive(VersionTag::MirrorCopy),
    Scheme::Passive(VersionTag::MirrorDiff),
    Scheme::Passive(VersionTag::ImprovedLog),
    Scheme::Active,
];

/// The active backup's index in [`PAIR_SCHEMES`] and [`Grid::pair`].
pub const ACTIVE: usize = 4;

/// Every 50 MB configuration of Tables 1–7, each simulated once.
///
/// The paper's tables share their runs: Table 1 is Version 0 of Tables 3
/// and 4, Table 2 is Table 5's Version 0 traffic, and the passive column
/// of Tables 6 and 7 is Version 3 of Tables 4 and 5. The grid runs each
/// of those configurations once per workload, and all seven tables and
/// the report's instrumentation block read from it. The first index of
/// both arrays is [`kind_index`].
#[derive(Clone, Debug, PartialEq)]
pub struct Grid {
    /// Standalone TPS and the machine's counters, `[workload][version]`:
    /// Table 3, whose Version 0 is Table 1's single machine.
    pub standalone: [[(f64, MachineStats); 4]; 2],
    /// The pair's TPS and traffic, `[workload][scheme]` in
    /// [`PAIR_SCHEMES`] order: Tables 4 and 5, whose Version 0 is Tables 1
    /// and 2's primary-backup, and whose Version 3 is Tables 6 and 7's
    /// passive column beside [`ACTIVE`].
    pub pair: [[(f64, TrafficMib); 5]; 2],
}

/// One grid cell's result.
enum Cell {
    Standalone((f64, MachineStats)),
    Pair((f64, TrafficMib)),
}

impl Grid {
    /// Runs the grid: 18 cells, one [`par_cells`] cell per configuration.
    pub fn run(scale: RunScale) -> Self {
        let nv = VersionTag::ALL.len();
        let per_kind = nv + PAIR_SCHEMES.len();
        let cells = par_cells(WorkloadKind::ALL.len() * per_kind, |i| {
            let kind = WorkloadKind::ALL[i / per_kind];
            let txns = scale.txns(kind);
            match i % per_kind {
                j if j < nv => {
                    Cell::Standalone(standalone_tps_and_stats(kind, VersionTag::ALL[j], txns))
                }
                j => Cell::Pair(pair_tps_and_traffic(
                    kind,
                    PAIR_SCHEMES[j - nv],
                    txns,
                    PAPER_DB,
                )),
            }
        });
        let mut grid = Grid {
            standalone: [[(0.0, MachineStats::default()); 4]; 2],
            pair: [[(0.0, TrafficMib::default()); 5]; 2],
        };
        for (i, cell) in cells.into_iter().enumerate() {
            let (k, j) = (kind_index(WorkloadKind::ALL[i / per_kind]), i % per_kind);
            match cell {
                Cell::Standalone(run) => grid.standalone[k][j] = run,
                Cell::Pair(run) => grid.pair[k][j - nv] = run,
            }
        }
        grid
    }
}

/// Table 8 result: active TPS at 10 MB / 100 MB / 1 GB databases.
pub fn table8(scale: RunScale) -> [[f64; 3]; 2] {
    let sizes = [10 * MIB, 100 * MIB, 1024 * MIB];
    let res = par_cells(2 * sizes.len(), |i| {
        let kind = WorkloadKind::ALL[i / sizes.len()];
        pair_tps_and_traffic(
            kind,
            Scheme::Active,
            scale.txns(kind),
            sizes[i % sizes.len()],
        )
        .0
    });
    let mut out = [[0.0; 3]; 2];
    for (i, &tps) in res.iter().enumerate() {
        out[kind_index(WorkloadKind::ALL[i / sizes.len()])][i % sizes.len()] = tps;
    }
    out
}

/// The scheme order of Figures 2 and 3.
pub const FIGURE_SCHEMES: [Scheme; 4] = [
    Scheme::Active,
    Scheme::Passive(VersionTag::ImprovedLog),
    Scheme::Passive(VersionTag::MirrorDiff),
    Scheme::Passive(VersionTag::MirrorCopy),
];

/// Figures 2 and 3 result: aggregate TPS, `[scheme][processors-1]`.
pub fn smp_figure(kind: WorkloadKind, scale: RunScale) -> [[f64; 4]; 4] {
    let res = par_cells(FIGURE_SCHEMES.len() * 4, |i| {
        let scheme = FIGURE_SCHEMES[i / 4];
        let procs = i % 4 + 1;
        let config = EngineConfig::for_db(SMP_DB);
        let exp = SmpExperiment::new(costs(), scheme, kind, &config, procs);
        exp.run(scale.smp_per_stream).aggregate_tps()
    });
    let mut out = [[0.0; 4]; 4];
    for (i, &tps) in res.iter().enumerate() {
        out[i / 4][i % 4] = tps;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_table1_shape() {
        let grid = Grid::run(RunScale::smoke());
        for k in 0..WorkloadKind::ALL.len() {
            let row = [grid.standalone[k][0].0, grid.pair[k][0].0];
            assert!(
                row[0] > row[1],
                "single machine must beat the straightforward port: {row:?}"
            );
        }
    }

    #[test]
    fn smoke_figure1_monotone() {
        let f = figure1();
        assert!(f.windows(2).all(|w| w[0].mib_per_sec < w[1].mib_per_sec));
    }

    #[test]
    fn txn_counts_must_be_positive_integers() {
        assert_eq!(parse_txns("DSNREP_TXNS", None), Ok(None));
        assert_eq!(parse_txns("DSNREP_TXNS", Some("3000")), Ok(Some(3_000)));
        for bad in ["0", "abc", "", "-5", "1.5"] {
            let err = parse_txns("DSNREP_TXNS", Some(bad))
                .expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.contains("DSNREP_TXNS"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn traffic_scaling_is_linear() {
        assert_eq!(
            scale_to_paper_run(WorkloadKind::DebitCredit, 1000, 2.0),
            2.0 * paper::RUN_TXNS[0] / 1000.0
        );
    }
}

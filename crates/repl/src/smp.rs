//! The SMP-primary experiment driver (paper §8, Figures 2 and 3).
//!
//! A small shared-memory multiprocessor runs one transaction server per
//! processor, over disjoint data (a private 10 MB database per stream, as
//! in the paper), so streams never synchronize — but every stream's
//! write-through traffic funnels into the **one** Memory Channel adapter.
//! Whether aggregate throughput scales is decided entirely by how
//! bandwidth-frugal and coalescing-friendly each scheme is.
//!
//! Streams are simulated in minimum-virtual-time order at transaction
//! granularity: at each step the stream whose clock is furthest behind runs
//! one transaction against the shared link, ties going to the lower stream
//! index. The arbitration error is bounded by one transaction (a few
//! microseconds), negligible at the multi-second horizons of the
//! experiment.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use dsnrep_cluster::Topology;
use dsnrep_core::EngineConfig;
use dsnrep_mcsim::{Link, Traffic};
use dsnrep_obs::NullTracer;
use dsnrep_simcore::{CostModel, VirtualDuration, VirtualInstant};
use dsnrep_workloads::{Workload, WorkloadKind};

use crate::replica_set::{ReplicaSet, Scheme};

struct Stream {
    set: ReplicaSet,
    workload: Box<dyn Workload>,
}

/// The result of one SMP run.
#[derive(Clone, Debug)]
pub struct SmpReport {
    /// Streams (processors) that ran.
    pub streams: usize,
    /// Transactions per stream.
    pub txns_per_stream: u64,
    /// Virtual time at which the *slowest* stream finished.
    pub makespan: VirtualDuration,
    /// Link traffic across all streams.
    pub traffic: Traffic,
}

impl SmpReport {
    /// Aggregate transactions per second across all streams.
    pub fn aggregate_tps(&self) -> f64 {
        if self.makespan.is_zero() {
            return 0.0;
        }
        (self.streams as u64 * self.txns_per_stream) as f64 / self.makespan.as_secs_f64()
    }
}

/// A multi-stream primary over one shared SAN link.
///
/// # Examples
///
/// ```
/// use dsnrep_core::{EngineConfig, VersionTag};
/// use dsnrep_repl::{Scheme, SmpExperiment};
/// use dsnrep_simcore::{CostModel, MIB};
/// use dsnrep_workloads::WorkloadKind;
///
/// let config = EngineConfig::for_db(MIB);
/// let exp = SmpExperiment::new(
///     CostModel::alpha_21164a(), Scheme::Active, WorkloadKind::DebitCredit,
///     &config, 2);
/// let report = exp.run(50);
/// assert_eq!(report.streams, 2);
/// assert!(report.aggregate_tps() > 0.0);
/// ```
pub struct SmpExperiment {
    streams: Vec<Stream>,
    link: Rc<RefCell<Link>>,
}

impl core::fmt::Debug for SmpExperiment {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SmpExperiment")
            .field("streams", &self.streams.len())
            .finish()
    }
}

impl SmpExperiment {
    /// Builds `count` independent streams of `scheme` x `kind`, all sharing
    /// one link. Each stream is a pair [`ReplicaSet`] with its own database
    /// (`config.db_len` bytes; the paper uses 10 MB per stream); active
    /// streams share one reverse link too, as they share one backup
    /// adapter.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(
        costs: CostModel,
        scheme: Scheme,
        kind: WorkloadKind,
        config: &EngineConfig,
        count: usize,
    ) -> Self {
        assert!(count > 0, "need at least one stream");
        let link = Rc::new(RefCell::new(Link::new(&costs)));
        let reverse_link = Rc::new(RefCell::new(Link::new(&costs)));
        let streams = (0..count)
            .map(|i| {
                let set = ReplicaSet::build(
                    costs.clone(),
                    scheme,
                    config,
                    Topology::pair(),
                    Rc::clone(&link),
                    Some(Rc::clone(&reverse_link)),
                    NullTracer,
                )
                .without_history();
                let workload = kind.build(set.db_region(), 0xD5E1_0000 + i as u64);
                Stream { set, workload }
            })
            .collect();
        SmpExperiment { streams, link }
    }

    /// Runs every stream to `txns_per_stream` transactions, interleaving in
    /// minimum-virtual-time order.
    ///
    /// The run consumes the experiment: the shared link counts its traffic
    /// from the experiment's construction, so a report describes exactly
    /// one run only if the experiment runs once. A second run needs a
    /// fresh experiment.
    ///
    /// ```compile_fail
    /// use dsnrep_core::EngineConfig;
    /// use dsnrep_repl::{Scheme, SmpExperiment};
    /// use dsnrep_simcore::{CostModel, MIB};
    /// use dsnrep_workloads::WorkloadKind;
    ///
    /// let config = EngineConfig::for_db(MIB);
    /// let mut exp = SmpExperiment::new(
    ///     CostModel::alpha_21164a(), Scheme::Active, WorkloadKind::DebitCredit,
    ///     &config, 2);
    /// exp.run(40);
    /// exp.run(40);
    /// ```
    pub fn run(mut self, txns_per_stream: u64) -> SmpReport {
        let start: Vec<VirtualInstant> =
            self.streams.iter().map(|s| s.set.machine().now()).collect();
        // One entry per unfinished stream, keyed on `(clock, index)`: the
        // min-heap pops the stream furthest behind, ties to the lower
        // index, and the stream re-enters at its new clock.
        //
        // A popped stream delivers its own SAN packets up to its own clock,
        // which may run ahead of the other streams' clocks. That is safe
        // because each stream's packets land only in its private backup
        // arenas, which no other stream reads.
        let mut next: BinaryHeap<Reverse<(VirtualInstant, usize)>> = if txns_per_stream > 0 {
            start.iter().copied().zip(0..).map(Reverse).collect()
        } else {
            BinaryHeap::new()
        };
        let mut done = vec![0; self.streams.len()];
        while let Some(Reverse((_, i))) = next.pop() {
            let s = &mut self.streams[i];
            s.set.run_txn(s.workload.as_mut());
            done[i] += 1;
            if done[i] < txns_per_stream {
                next.push(Reverse((s.set.machine().now(), i)));
            }
        }
        let makespan = self
            .streams
            .iter()
            .zip(&start)
            .map(|(s, &t0)| s.set.machine().now().duration_since(t0))
            .max()
            .unwrap_or(VirtualDuration::ZERO);
        SmpReport {
            streams: self.streams.len(),
            txns_per_stream,
            makespan,
            traffic: self.link.borrow().traffic().clone(),
        }
    }
}

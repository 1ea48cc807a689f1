//! The per-transaction critical-path profiler.
//!
//! The attribution tree (PR 3) explains where a *node's* whole run went;
//! this module explains where each *committed transaction's* latency went.
//! The stream clock is self-attributing — every picosecond of elapsed time
//! is charged to exactly one [`BusyCause`] or [`StallCause`] — so the
//! critical path of a transaction on a single-stream machine is simply the
//! clock's breakdown *delta* over the transaction's span: the machine
//! snapshots the breakdowns at `begin`, subtracts at `commit`/`abort`, and
//! reports the per-cause deltas through [`Tracer::txn_path`]. The eleven
//! causes fold into seven reader-facing [`Segment`]s, and
//! `Σ segments == commit latency` holds **by construction**, not by
//! measurement — the recorder asserts it on every path it records.
//!
//! [`CriticalPathReport`] aggregates the recorded paths per node:
//! per-segment totals split into in-transaction and outside-transaction
//! time (both conserving against the attribution-tree leaves), p50/p95/p99
//! per segment over the per-transaction log₂ histograms, and the top-k
//! slowest transactions with their full segment decomposition.
//!
//! [`Tracer::txn_path`]: crate::Tracer::txn_path

use core::fmt;

use dsnrep_simcore::{BusyCause, StallCause};

use crate::attribution::AttributionTree;
use crate::json_escape;
use crate::recorder::FlightRecorder;
use crate::timeseries::{log2_bucket, sparse_hist, sparse_percentile, LOG2_BUCKETS};
use crate::TRACE_SCHEMA_VERSION;

/// A reader-facing critical-path segment: a disjoint grouping of the
/// clock's eleven busy/stall causes into where-did-the-latency-go buckets.
///
/// Every cause maps to exactly one segment ([`Segment::of_busy`] /
/// [`Segment::of_stall`]), so segment sums inherit the clock conservation
/// law: per transaction, `Σ segments == commit latency`; per run,
/// `Σ (in-txn + outside) == elapsed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Segment {
    /// CPU work: instruction issue, per-operation engine costs, think time
    /// ([`BusyCause::CpuIssue`]).
    Cpu,
    /// Cache-model service time ([`BusyCause::Cache`]).
    Cache,
    /// I/O-space store issue of doubled SAN payloads
    /// ([`BusyCause::SanModified`]/[`SanUndo`](BusyCause::SanUndo)/[`SanMeta`](BusyCause::SanMeta)).
    SanIssue,
    /// Waiting for room to issue: posted-write window, write-buffer flush
    /// drains, redo-ring flow control
    /// ([`StallCause::PostedWindow`]/[`WbufFlush`](StallCause::WbufFlush)/[`RingFull`](StallCause::RingFull)).
    QueueWait,
    /// Waiting for SAN delivery acknowledgements — the 2-safe commit wait
    /// ([`StallCause::TwoSafe`]).
    SanTransit,
    /// Backup-side wait for data visibility before applying
    /// ([`StallCause::DataVisibility`]).
    BackupApply,
    /// Uncategorised waits, e.g. the takeover clamp ([`StallCause::Other`]).
    OtherStall,
}

impl Segment {
    /// Every segment, in display order.
    pub const ALL: [Segment; 7] = [
        Segment::Cpu,
        Segment::Cache,
        Segment::SanIssue,
        Segment::QueueWait,
        Segment::SanTransit,
        Segment::BackupApply,
        Segment::OtherStall,
    ];

    /// Number of segments (length of [`Segment::ALL`]).
    pub const COUNT: usize = 7;

    /// Dense index into [`Segment::ALL`].
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The segment a busy cause folds into.
    pub const fn of_busy(cause: BusyCause) -> Segment {
        match cause {
            BusyCause::CpuIssue => Segment::Cpu,
            BusyCause::Cache => Segment::Cache,
            BusyCause::SanModified | BusyCause::SanUndo | BusyCause::SanMeta => Segment::SanIssue,
        }
    }

    /// The segment a stall cause folds into.
    pub const fn of_stall(cause: StallCause) -> Segment {
        match cause {
            StallCause::PostedWindow | StallCause::WbufFlush | StallCause::RingFull => {
                Segment::QueueWait
            }
            StallCause::TwoSafe => Segment::SanTransit,
            StallCause::DataVisibility => Segment::BackupApply,
            StallCause::Other => Segment::OtherStall,
        }
    }

    /// A stable lower-snake-case name for JSON output.
    pub const fn name(self) -> &'static str {
        match self {
            Segment::Cpu => "cpu",
            Segment::Cache => "cache",
            Segment::SanIssue => "san_issue",
            Segment::QueueWait => "queue_wait",
            Segment::SanTransit => "san_transit",
            Segment::BackupApply => "backup_apply",
            Segment::OtherStall => "stall_other",
        }
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Folds per-cause picosecond breakdowns into per-[`Segment`] totals.
/// Pure regrouping: `Σ out == Σ busy + Σ stall`.
pub fn fold_segments(
    busy_picos: &[u64; BusyCause::COUNT],
    stall_picos: &[u64; StallCause::COUNT],
) -> [u64; Segment::COUNT] {
    let mut out = [0u64; Segment::COUNT];
    for cause in BusyCause::ALL {
        out[Segment::of_busy(cause).index()] += busy_picos[cause.index()];
    }
    for cause in StallCause::ALL {
        out[Segment::of_stall(cause).index()] += stall_picos[cause.index()];
    }
    out
}

/// One finished transaction's critical path: its span and the per-segment
/// picosecond decomposition of its latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnPath {
    /// The node that ran the transaction.
    pub track: u32,
    /// Stable transaction id (see `OBSERVABILITY.md` for the packing).
    pub txn: u64,
    /// Transaction begin, virtual picoseconds.
    pub start_ps: u64,
    /// Transaction end (commit or abort), virtual picoseconds.
    pub end_ps: u64,
    /// Per-[`Segment::index`] picoseconds; sums exactly to
    /// [`TxnPath::latency_ps`].
    pub segments: [u64; Segment::COUNT],
}

impl TxnPath {
    /// The transaction's commit latency in picoseconds.
    pub fn latency_ps(&self) -> u64 {
        self.end_ps - self.start_ps
    }

    /// Sum of the segment decomposition (must equal
    /// [`TxnPath::latency_ps`]).
    pub fn segment_total(&self) -> u64 {
        self.segments.iter().sum()
    }
}

/// Unbounded per-track critical-path accumulators, folded on every
/// [`TxnPath`] as it is recorded — never truncated by the bounded ring, so
/// whole-run conservation against the attribution tree survives ring
/// pressure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnPathStats {
    /// Transactions folded.
    pub txns: u64,
    /// Per-segment picosecond totals over all folded transactions.
    pub seg_totals: [u64; Segment::COUNT],
    /// Per-segment count of transactions with a nonzero segment value.
    pub seg_txns: [u64; Segment::COUNT],
    /// Per-segment log₂ histograms of the *nonzero* per-transaction
    /// values (bucket = `floor(log2(picos))`, same as the latency
    /// histogram).
    pub seg_hist: Vec<[u64; LOG2_BUCKETS]>,
}

impl Default for TxnPathStats {
    fn default() -> Self {
        TxnPathStats {
            txns: 0,
            seg_totals: [0; Segment::COUNT],
            seg_txns: [0; Segment::COUNT],
            seg_hist: vec![[0; LOG2_BUCKETS]; Segment::COUNT],
        }
    }
}

impl TxnPathStats {
    /// Folds one transaction's path into the accumulators.
    pub fn fold(&mut self, path: &TxnPath) {
        self.txns += 1;
        for (i, &picos) in path.segments.iter().enumerate() {
            self.seg_totals[i] += picos;
            if picos > 0 {
                self.seg_txns[i] += 1;
                self.seg_hist[i][log2_bucket(picos)] += 1;
            }
        }
    }

    /// p50/p95/p99 of the nonzero per-transaction values of `segment`, as
    /// bucket lower bounds in picoseconds (the same semantics as the
    /// commit-latency percentiles); `None` when the segment never appeared.
    pub fn percentiles(&self, segment: Segment) -> Option<(u64, u64, u64)> {
        let sparse = sparse_hist(&self.seg_hist[segment.index()]);
        Some((
            sparse_percentile(&sparse, 0.50)?,
            sparse_percentile(&sparse, 0.95)?,
            sparse_percentile(&sparse, 0.99)?,
        ))
    }
}

/// One node's aggregated critical path: in-transaction segment totals, the
/// remainder outside transactions, percentiles, and the top-k slowest
/// transactions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeCriticalPath {
    /// Stream name (`"primary"`, `"backup"`, ...).
    pub stream: String,
    /// The recorder track this node reported as.
    pub track: u32,
    /// The node clock's whole-run elapsed picoseconds.
    pub elapsed_picos: u64,
    /// Transactions whose paths were folded.
    pub txns: u64,
    /// Per-segment picoseconds spent *inside* transactions.
    pub in_txn: [u64; Segment::COUNT],
    /// Per-segment picoseconds spent *outside* transactions (barriers
    /// between txns, recovery, takeover clamps): attribution-tree leaf
    /// minus the in-transaction share.
    pub outside: [u64; Segment::COUNT],
    /// Per-segment count of transactions where the segment was nonzero.
    pub seg_txns: [u64; Segment::COUNT],
    /// Per-segment `(p50, p95, p99)` over nonzero per-transaction values
    /// (bucket lower bounds, picoseconds); `None` if never nonzero.
    pub percentiles: [Option<(u64, u64, u64)>; Segment::COUNT],
    /// The k slowest transactions (latency descending, txn id ascending on
    /// ties) still present in the bounded path ring.
    pub top_txns: Vec<TxnPath>,
}

impl NodeCriticalPath {
    /// Sum of the in-transaction segment totals.
    pub fn in_txn_total(&self) -> u64 {
        self.in_txn.iter().sum()
    }

    /// Sum of the outside-transaction segment totals.
    pub fn outside_total(&self) -> u64 {
        self.outside.iter().sum()
    }
}

/// The schema-versioned critical-path report over every node of a run
/// (`critical_path.json`).
///
/// Built against the [`AttributionTree`] so conservation is checked at
/// construction: for every node and segment,
/// `in_txn + outside == fold(attribution leaves)`, and summed over
/// segments the two sides equal the clock's elapsed time. A failure is a
/// bug in the tracing layer, and [`CriticalPathReport::build`] refuses to
/// produce a report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalPathReport {
    /// The experiment cell this run corresponds to.
    pub experiment: String,
    /// The engine version label (`"v0"`..`"v3"`, `"active"`).
    pub engine_version: String,
    /// One entry per attribution-tree node.
    pub nodes: Vec<NodeCriticalPath>,
    /// Transaction paths currently held in the bounded ring.
    pub paths_recorded: u64,
    /// Transaction paths dropped from the ring (top-k may be partial;
    /// totals and percentiles are not affected).
    pub paths_dropped: u64,
    /// How many top transactions each node reports.
    pub top_k: usize,
}

impl CriticalPathReport {
    /// Slowest-transaction exemplars kept per node.
    pub const TOP_K: usize = 5;

    /// Builds the report from a recorder's critical-path records and the
    /// run's verified attribution tree.
    ///
    /// # Errors
    ///
    /// Returns a description of the first conservation violation found:
    /// a per-transaction decomposition that does not sum to its latency,
    /// or a segment whose in-transaction time exceeds the attribution-tree
    /// leaf it must fit inside.
    pub fn build(recorder: &FlightRecorder, tree: &AttributionTree) -> Result<Self, String> {
        let ring = recorder.txn_paths();
        for path in &ring {
            if path.segment_total() != path.latency_ps() {
                return Err(format!(
                    "txn {:#x} on track {}: segments sum to {} ps but latency is {} ps",
                    path.txn,
                    path.track,
                    path.segment_total(),
                    path.latency_ps()
                ));
            }
        }
        let mut nodes = Vec::with_capacity(tree.nodes.len());
        for node in &tree.nodes {
            let stats = recorder.txn_path_stats(node.track);
            let leaves = fold_segments(&node.clock.busy_picos, &node.clock.stall_picos);
            let mut outside = [0u64; Segment::COUNT];
            for (i, segment) in Segment::ALL.iter().enumerate() {
                outside[i] = leaves[i].checked_sub(stats.seg_totals[i]).ok_or_else(|| {
                    format!(
                        "node '{}' segment {}: {} ps inside transactions exceeds \
                         the {} ps attributed to the whole run",
                        node.stream, segment, stats.seg_totals[i], leaves[i]
                    )
                })?;
            }
            let attributed: u64 = leaves.iter().sum();
            if attributed != node.clock.elapsed_picos {
                return Err(format!(
                    "node '{}': folded segments sum to {} ps but the clock \
                     elapsed {} ps",
                    node.stream, attributed, node.clock.elapsed_picos
                ));
            }
            let mut top_txns: Vec<TxnPath> = ring
                .iter()
                .filter(|p| p.track == node.track)
                .copied()
                .collect();
            top_txns.sort_by(|a, b| b.latency_ps().cmp(&a.latency_ps()).then(a.txn.cmp(&b.txn)));
            top_txns.truncate(Self::TOP_K);
            let mut percentiles = [None; Segment::COUNT];
            for (i, segment) in Segment::ALL.iter().enumerate() {
                percentiles[i] = stats.percentiles(*segment);
            }
            nodes.push(NodeCriticalPath {
                stream: node.stream.clone(),
                track: node.track,
                elapsed_picos: node.clock.elapsed_picos,
                txns: stats.txns,
                in_txn: stats.seg_totals,
                outside,
                seg_txns: stats.seg_txns,
                percentiles,
                top_txns,
            });
        }
        Ok(CriticalPathReport {
            experiment: tree.experiment.clone(),
            engine_version: tree.engine_version.clone(),
            nodes,
            paths_recorded: ring.len() as u64,
            paths_dropped: recorder.dropped_txn_paths(),
            top_k: Self::TOP_K,
        })
    }

    /// Renders `critical_path.json`: all-integer, schema-versioned, and
    /// stable under `simdiff`'s exact comparison.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {TRACE_SCHEMA_VERSION},\n"));
        out.push_str(&format!(
            "  \"experiment\": \"{}\",\n",
            json_escape(&self.experiment)
        ));
        out.push_str(&format!(
            "  \"engine_version\": \"{}\",\n",
            json_escape(&self.engine_version)
        ));
        out.push_str(&format!(
            "  \"txn_paths\": {{\"recorded\": {}, \"dropped\": {}}},\n",
            self.paths_recorded, self.paths_dropped
        ));
        out.push_str(&format!("  \"top_k\": {},\n", self.top_k));
        out.push_str("  \"nodes\": [\n");
        for (ni, node) in self.nodes.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!(
                "      \"stream\": \"{}\",\n",
                json_escape(&node.stream)
            ));
            out.push_str(&format!("      \"track\": {},\n", node.track));
            out.push_str(&format!(
                "      \"elapsed_picos\": {},\n",
                node.elapsed_picos
            ));
            out.push_str(&format!("      \"txns\": {},\n", node.txns));
            out.push_str(&format!(
                "      \"in_txn_total_picos\": {},\n",
                node.in_txn_total()
            ));
            out.push_str(&format!(
                "      \"outside_total_picos\": {},\n",
                node.outside_total()
            ));
            out.push_str("      \"segments\": {\n");
            for (i, segment) in Segment::ALL.iter().enumerate() {
                let percentiles = match node.percentiles[i] {
                    Some((p50, p95, p99)) => format!(
                        "\"p50_ge_picos\": {p50}, \"p95_ge_picos\": {p95}, \
                         \"p99_ge_picos\": {p99}"
                    ),
                    None => "\"p50_ge_picos\": null, \"p95_ge_picos\": null, \
                             \"p99_ge_picos\": null"
                        .to_string(),
                };
                out.push_str(&format!(
                    "        \"{}\": {{\"in_txn_picos\": {}, \"outside_picos\": {}, \
                     \"txns_with_segment\": {}, {}}}{}\n",
                    segment,
                    node.in_txn[i],
                    node.outside[i],
                    node.seg_txns[i],
                    percentiles,
                    if i + 1 < Segment::COUNT { "," } else { "" }
                ));
            }
            out.push_str("      },\n");
            out.push_str("      \"top_txns\": [\n");
            for (ti, path) in node.top_txns.iter().enumerate() {
                let segments: Vec<String> = Segment::ALL
                    .iter()
                    .enumerate()
                    .map(|(i, s)| format!("\"{}\": {}", s, path.segments[i]))
                    .collect();
                out.push_str(&format!(
                    "        {{\"txn\": {}, \"start_ps\": {}, \"end_ps\": {}, \
                     \"latency_ps\": {}, \"segments\": {{{}}}}}{}\n",
                    path.txn,
                    path.start_ps,
                    path.end_ps,
                    path.latency_ps(),
                    segments.join(", "),
                    if ti + 1 < node.top_txns.len() {
                        ","
                    } else {
                        ""
                    }
                ));
            }
            out.push_str("      ]\n");
            out.push_str(&format!(
                "    }}{}\n",
                if ni + 1 < self.nodes.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::ClockAttribution;
    use crate::tracer::{Phase, Tracer};
    use dsnrep_simcore::VirtualInstant;

    fn at(p: u64) -> VirtualInstant {
        VirtualInstant::from_picos(p)
    }

    #[test]
    fn every_cause_maps_to_exactly_one_segment_and_folding_conserves() {
        let busy = [1, 2, 4, 8, 16];
        let stall = [32, 64, 128, 256, 512, 1024];
        let folded = fold_segments(&busy, &stall);
        let busy_sum: u64 = busy.iter().sum();
        let stall_sum: u64 = stall.iter().sum();
        assert_eq!(folded.iter().sum::<u64>(), busy_sum + stall_sum);
        assert_eq!(folded[Segment::Cpu.index()], 1);
        assert_eq!(folded[Segment::Cache.index()], 2);
        assert_eq!(folded[Segment::SanIssue.index()], 4 + 8 + 16);
        assert_eq!(folded[Segment::QueueWait.index()], 32 + 64 + 256);
        assert_eq!(folded[Segment::SanTransit.index()], 128);
        assert_eq!(folded[Segment::BackupApply.index()], 512);
        assert_eq!(folded[Segment::OtherStall.index()], 1024);
        for (i, s) in Segment::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
            for (j, t) in Segment::ALL.iter().enumerate() {
                assert_eq!(i == j, s.name() == t.name());
            }
        }
    }

    #[test]
    fn stats_fold_totals_counts_and_histograms() {
        let mut stats = TxnPathStats::default();
        let mut path = TxnPath {
            track: 0,
            txn: 1,
            start_ps: 0,
            end_ps: 1024 + 100,
            segments: [0; Segment::COUNT],
        };
        path.segments[Segment::Cpu.index()] = 1024; // bucket 10
        path.segments[Segment::SanTransit.index()] = 100; // bucket 6
        stats.fold(&path);
        stats.fold(&path);
        assert_eq!(stats.txns, 2);
        assert_eq!(stats.seg_totals[Segment::Cpu.index()], 2048);
        assert_eq!(stats.seg_txns[Segment::Cpu.index()], 2);
        assert_eq!(stats.seg_txns[Segment::Cache.index()], 0);
        assert_eq!(stats.seg_hist[Segment::Cpu.index()][10], 2);
        assert_eq!(stats.percentiles(Segment::Cpu), Some((1024, 1024, 1024)));
        assert_eq!(stats.percentiles(Segment::Cache), None);
    }

    /// Drives a recorder through the Tracer seam and checks the report
    /// conserves against a hand-built attribution tree.
    #[test]
    fn report_builds_and_conserves_against_the_tree() {
        let rec = FlightRecorder::new();
        rec.set_track_name(0, "primary");
        let mut busy = [0u64; BusyCause::COUNT];
        busy[BusyCause::CpuIssue.index()] = 70;
        let mut stall = [0u64; StallCause::COUNT];
        stall[StallCause::TwoSafe.index()] = 30;
        rec.span(0, Phase::Txn, at(0), at(100));
        rec.txn_path(0, 0, at(0), at(100), busy, stall);

        let mut clock = ClockAttribution {
            elapsed_picos: 150,
            ..Default::default()
        };
        // 70 ps cpu inside the txn + 50 outside; 30 ps two-safe inside.
        clock.busy_picos[BusyCause::CpuIssue.index()] = 120;
        clock.stall_picos[StallCause::TwoSafe.index()] = 30;
        let mut tree = AttributionTree::new("unit/test", "v3");
        tree.add_node("primary", 0, clock);

        let report = CriticalPathReport::build(&rec, &tree).unwrap();
        assert_eq!(report.nodes.len(), 1);
        let node = &report.nodes[0];
        assert_eq!(node.txns, 1);
        assert_eq!(node.in_txn[Segment::Cpu.index()], 70);
        assert_eq!(node.outside[Segment::Cpu.index()], 50);
        assert_eq!(node.in_txn[Segment::SanTransit.index()], 30);
        assert_eq!(node.outside[Segment::SanTransit.index()], 0);
        assert_eq!(node.in_txn_total() + node.outside_total(), 150);
        assert_eq!(node.top_txns.len(), 1);
        assert_eq!(node.top_txns[0].latency_ps(), 100);

        let json = report.to_json();
        assert!(json.contains("\"schema_version\""));
        assert!(json.contains("\"cpu\": {\"in_txn_picos\": 70, \"outside_picos\": 50"));
        assert!(json.contains("\"p50_ge_picos\": null")); // cache never appears
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn in_txn_time_exceeding_the_leaves_is_a_conservation_error() {
        let rec = FlightRecorder::new();
        let mut busy = [0u64; BusyCause::COUNT];
        busy[BusyCause::CpuIssue.index()] = 100;
        rec.txn_path(0, 0, at(0), at(100), busy, [0; StallCause::COUNT]);
        let mut clock = ClockAttribution {
            elapsed_picos: 40,
            ..Default::default()
        };
        clock.busy_picos[BusyCause::CpuIssue.index()] = 40; // < 100 inside
        let mut tree = AttributionTree::new("unit/test", "v3");
        tree.add_node("primary", 0, clock);
        let err = CriticalPathReport::build(&rec, &tree).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn top_txns_sort_by_latency_then_id_and_truncate() {
        let rec = FlightRecorder::new();
        let mut busy = [0u64; BusyCause::COUNT];
        for txn in 0..8u64 {
            let latency = if txn == 3 { 500 } else { 100 };
            busy[BusyCause::CpuIssue.index()] = latency;
            rec.txn_path(
                0,
                txn,
                at(1000 * txn),
                at(1000 * txn + latency),
                busy,
                [0; StallCause::COUNT],
            );
        }
        let mut clock = ClockAttribution {
            elapsed_picos: 1200,
            ..Default::default()
        };
        clock.busy_picos[BusyCause::CpuIssue.index()] = 1200;
        let mut tree = AttributionTree::new("unit/test", "v3");
        tree.add_node("primary", 0, clock);
        let report = CriticalPathReport::build(&rec, &tree).unwrap();
        let top = &report.nodes[0].top_txns;
        assert_eq!(top.len(), CriticalPathReport::TOP_K);
        assert_eq!(top[0].txn, 3); // slowest first
        assert_eq!(top[1].txn, 0); // then id ascending among ties
        assert_eq!(top[2].txn, 1);
    }
}

//! The probe interface and its zero-cost default.

use core::fmt;

use dsnrep_simcore::{BusyCause, StallCause, TrafficClass, VirtualDuration, VirtualInstant};

/// The transaction id carried by SAN packets issued outside any
/// transaction (barrier flushes, recovery writes, cursor write-backs).
/// Such packets get lifecycle records but never flow events.
pub const NO_TXN: u64 = u64::MAX;

/// A per-transaction pipeline phase, the unit of span attribution.
///
/// The phases follow the paper's cost anatomy of a transaction: begin
/// bookkeeping, in-place database stores, undo-log (or mirror) writes,
/// the commit sequence, and the write barriers that order it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// A whole transaction, begin to commit (or abort).
    Txn,
    /// `begin`: set-range bookkeeping reset, begin cost.
    Begin,
    /// `set_range`: undo-log payload copies / mirror propagation.
    UndoWrite,
    /// `write`: an in-place database store (modified data).
    DbWrite,
    /// `commit`: sequence-number update, commit flag, durability wait.
    Commit,
    /// A write-memory barrier (flush of partially filled write buffers).
    Barrier,
    /// `abort`: undo-log rollback.
    Abort,
    /// `recover`: post-crash log scan and rollback/roll-forward.
    Recovery,
    /// Backup-side apply: a redo reader draining delivered log into the
    /// backup database image (active scheme's `catch_up`/takeover drain).
    Apply,
    /// A replica read served by the strategy's read path (primary, chain
    /// tail, or R-quorum). Never folded into the commit-latency histogram.
    Read,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 10] = [
        Phase::Txn,
        Phase::Begin,
        Phase::UndoWrite,
        Phase::DbWrite,
        Phase::Commit,
        Phase::Barrier,
        Phase::Abort,
        Phase::Recovery,
        Phase::Apply,
        Phase::Read,
    ];

    /// A stable lower-snake-case name for trace and JSON output.
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Txn => "txn",
            Phase::Begin => "begin",
            Phase::UndoWrite => "undo_write",
            Phase::DbWrite => "db_write",
            Phase::Commit => "commit",
            Phase::Barrier => "barrier",
            Phase::Abort => "abort",
            Phase::Recovery => "recovery",
            Phase::Apply => "apply",
            Phase::Read => "read",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A point event on a track: cluster lifecycle and failure-detection marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceEventKind {
    /// The primary crashed (argument: virtual crash instant in picoseconds).
    PrimaryCrash,
    /// Backup recovery began (argument: committed sequence at takeover).
    RecoveryStart,
    /// Failover finished; the backup is serving (argument: committed
    /// sequence after recovery).
    FailoverComplete,
    /// A consistency audit found a violation (argument: violation count).
    AuditViolation,
    /// An armed fault fired: a simulated halt at a store, SAN packet, or
    /// recovery-write boundary (argument: the boundary counter at the halt).
    FaultInjected,
}

impl TraceEventKind {
    /// A stable lower-snake-case name for trace and JSON output.
    pub const fn name(self) -> &'static str {
        match self {
            TraceEventKind::PrimaryCrash => "primary_crash",
            TraceEventKind::RecoveryStart => "recovery_start",
            TraceEventKind::FailoverComplete => "failover_complete",
            TraceEventKind::AuditViolation => "audit_violation",
            TraceEventKind::FaultInjected => "fault_injected",
        }
    }
}

impl fmt::Display for TraceEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether a [`Metric`] accumulates (counter) or snapshots (gauge).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MetricKind {
    /// Monotone accumulator; the time-series exports per-window deltas and
    /// their sum must equal the whole-run total exactly.
    Counter,
    /// Instantaneous level; the time-series exports the last value set in
    /// each window.
    Gauge,
}

/// A named per-track metric published through the [`Tracer`] seam.
///
/// Counters are deltas summed into windows (conservation: window deltas
/// re-aggregate to the whole-run total); gauges are levels sampled as the
/// last value set within each window. Stall counters are in picoseconds and
/// mirror [`StallCause::ALL`] one-to-one via [`Metric::stall`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Metric {
    /// Transactions committed (counter).
    CommittedTxns,
    /// SAN packets sent (counter).
    SanPackets,
    /// SAN payload bytes carrying modified data (counter).
    SanModifiedBytes,
    /// SAN payload bytes carrying undo-log or mirror data (counter).
    SanUndoBytes,
    /// SAN payload bytes carrying control metadata (counter).
    SanMetaBytes,
    /// Picoseconds stalled on the posted-write window (counter).
    StallPostedWindow,
    /// Picoseconds stalled on write-buffer flush drains (counter).
    StallWbufFlush,
    /// Picoseconds stalled waiting for 2-safe delivery acks (counter).
    StallTwoSafe,
    /// Picoseconds stalled on redo-ring flow control (counter).
    StallRingFull,
    /// Picoseconds a backup stalled waiting for data visibility (counter).
    StallDataVisibility,
    /// Picoseconds stalled on uncategorised waits (counter).
    StallOther,
    /// Picoseconds packets queued behind the SAN link before service — the
    /// link's FIFO wait, summed per packet at issue time (counter).
    LinkQueueWaitPicos,
    /// Picoseconds the SAN link spent serving this node's packets
    /// (overhead + wire time; window delta / window width = utilization)
    /// (counter).
    LinkBusyPicos,
    /// Transactions currently between begin and commit/abort (gauge).
    InflightTxns,
    /// Dirty write-buffer lines awaiting merge or flush (gauge).
    WbufDirtyLines,
    /// Valid lines resident in the board cache (gauge).
    CacheOccupancyLines,
    /// SAN packets sent but not yet delivered to the peer, the sender's
    /// in-flight queue depth (gauge).
    LinkQueueDepth,
    /// Replica reads served by the strategy's read path (counter).
    ReadsServed,
    /// Reads that observed a committed-but-stale prefix: the serving
    /// replica's visible sequence trailed the coordinator's committed
    /// sequence at the read instant (counter).
    StaleReads,
    /// Total staleness across served reads, in transactions: the sum over
    /// reads of `committed_seq - visible_seq` at the read instant (counter).
    ReadStalenessTxns,
    /// Open-system requests dropped at the arrival queue (counter).
    RequestsDropped,
    /// Picoseconds open-system requests waited between arrival and service
    /// start, summed per request at service time (counter).
    ArrivalQueueDelayPicos,
    /// Open-system requests arrived but not yet served or dropped (gauge).
    InflightArrivals,
}

impl Metric {
    /// Every metric, in display order.
    pub const ALL: [Metric; 23] = [
        Metric::CommittedTxns,
        Metric::SanPackets,
        Metric::SanModifiedBytes,
        Metric::SanUndoBytes,
        Metric::SanMetaBytes,
        Metric::StallPostedWindow,
        Metric::StallWbufFlush,
        Metric::StallTwoSafe,
        Metric::StallRingFull,
        Metric::StallDataVisibility,
        Metric::StallOther,
        Metric::LinkQueueWaitPicos,
        Metric::LinkBusyPicos,
        Metric::InflightTxns,
        Metric::WbufDirtyLines,
        Metric::CacheOccupancyLines,
        Metric::LinkQueueDepth,
        Metric::ReadsServed,
        Metric::StaleReads,
        Metric::ReadStalenessTxns,
        Metric::RequestsDropped,
        Metric::ArrivalQueueDelayPicos,
        Metric::InflightArrivals,
    ];

    /// Number of metrics (length of [`Metric::ALL`]).
    pub const COUNT: usize = 23;

    /// Dense index into [`Metric::ALL`].
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The stall counter mirroring `cause` (picoseconds stalled per window).
    pub const fn stall(cause: StallCause) -> Metric {
        match cause {
            StallCause::PostedWindow => Metric::StallPostedWindow,
            StallCause::WbufFlush => Metric::StallWbufFlush,
            StallCause::TwoSafe => Metric::StallTwoSafe,
            StallCause::RingFull => Metric::StallRingFull,
            StallCause::DataVisibility => Metric::StallDataVisibility,
            StallCause::Other => Metric::StallOther,
        }
    }

    /// The SAN payload-byte counter of traffic `class`.
    pub const fn san_bytes(class: TrafficClass) -> Metric {
        match class {
            TrafficClass::Modified => Metric::SanModifiedBytes,
            TrafficClass::Undo => Metric::SanUndoBytes,
            TrafficClass::Meta => Metric::SanMetaBytes,
        }
    }

    /// Whether this metric accumulates or snapshots.
    pub const fn kind(self) -> MetricKind {
        match self {
            Metric::InflightTxns
            | Metric::WbufDirtyLines
            | Metric::CacheOccupancyLines
            | Metric::LinkQueueDepth
            | Metric::InflightArrivals => MetricKind::Gauge,
            _ => MetricKind::Counter,
        }
    }

    /// A stable lower-snake-case name for trace and JSON output.
    pub const fn name(self) -> &'static str {
        match self {
            Metric::CommittedTxns => "committed_txns",
            Metric::SanPackets => "san_packets",
            Metric::SanModifiedBytes => "san_modified_bytes",
            Metric::SanUndoBytes => "san_undo_bytes",
            Metric::SanMetaBytes => "san_meta_bytes",
            Metric::StallPostedWindow => "stall_posted_window_picos",
            Metric::StallWbufFlush => "stall_wbuf_flush_picos",
            Metric::StallTwoSafe => "stall_two_safe_picos",
            Metric::StallRingFull => "stall_ring_full_picos",
            Metric::StallDataVisibility => "stall_data_visibility_picos",
            Metric::StallOther => "stall_other_picos",
            Metric::LinkQueueWaitPicos => "link_queue_wait_picos",
            Metric::LinkBusyPicos => "link_busy_picos",
            Metric::InflightTxns => "inflight_txns",
            Metric::WbufDirtyLines => "wbuf_dirty_lines",
            Metric::CacheOccupancyLines => "cache_occupancy_lines",
            Metric::LinkQueueDepth => "link_queue_depth",
            Metric::ReadsServed => "reads_served",
            Metric::StaleReads => "stale_reads",
            Metric::ReadStalenessTxns => "read_staleness_txns",
            Metric::RequestsDropped => "requests_dropped",
            Metric::ArrivalQueueDelayPicos => "arrival_queue_delay_picos",
            Metric::InflightArrivals => "inflight_arrivals",
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The full virtual-time lifecycle of one SAN packet, captured at issue
/// time by its sender (a port, or a replica set's fabric hop).
///
/// The four instants are monotone (`ready <= start <= done <= delivered`)
/// and name the lifecycle stages: **issue** (`ready`, the store reaches the
/// port), **enqueue** (`ready..start`, FIFO wait behind earlier packets on
/// the link), **transit** (`start..delivered`, link overhead + wire time +
/// latency; `done` is when the link frees up for the next packet), and
/// **deliver** (`delivered`, the packet becomes applicable at the peer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketLife {
    /// Stable packet id, unique per run (see `OBSERVABILITY.md` for the
    /// packing of port and fabric ids).
    pub id: u64,
    /// The transaction whose store issued this packet, or [`NO_TXN`].
    pub txn: u64,
    /// Issue: the instant the store handed the packet to the port.
    pub ready: VirtualInstant,
    /// Enqueue end: the instant the link started serving the packet
    /// (`start - ready` is the per-packet queue wait).
    pub start: VirtualInstant,
    /// The instant the link finished serving (sender-side busy end).
    pub done: VirtualInstant,
    /// Deliver: the instant the payload becomes applicable at the peer.
    pub delivered: VirtualInstant,
    /// Payload bytes per [`TrafficClass`] index.
    pub class_bytes: [u64; 3],
}

impl PacketLife {
    /// Time spent queued behind earlier packets on the link.
    pub fn queue_wait(&self) -> VirtualDuration {
        self.start.duration_since(self.ready)
    }

    /// Time from link service start to peer-side applicability.
    pub fn transit(&self) -> VirtualDuration {
        self.delivered.duration_since(self.start)
    }

    /// Total payload bytes across traffic classes.
    pub fn bytes(&self) -> u64 {
        self.class_bytes.iter().sum()
    }

    /// Unit-test shorthand: an untagged packet served and delivered at
    /// `at`.
    #[cfg(test)]
    pub(crate) fn sent(at: VirtualInstant, class_bytes: [u64; 3]) -> Self {
        PacketLife {
            id: 0,
            txn: NO_TXN,
            ready: at,
            start: at,
            done: at,
            delivered: at,
            class_bytes,
        }
    }
}

/// The probe interface threaded through the pipeline as a type parameter.
///
/// Every method has a no-op default body, so an implementation records only
/// what it cares about — and the [`NullTracer`] records nothing at all and
/// monomorphizes to zero instructions. Probes receive a `track` (a small
/// integer naming the simulated node: see
/// [`TRACK_PRIMARY`](crate::TRACK_PRIMARY) /
/// [`TRACK_BACKUP`](crate::TRACK_BACKUP)) and virtual-time coordinates.
///
/// Implementations are handles: cloning must produce a view onto the same
/// underlying recorder (or another zero-sized no-op), because the pipeline
/// clones the tracer into every machine, port and cluster it instruments.
pub trait Tracer: Clone + fmt::Debug {
    /// Returns `true` if this tracer records anything. Callers may use this
    /// to skip argument preparation that is only needed for tracing.
    #[inline]
    fn is_enabled(&self) -> bool {
        false
    }

    /// Records a completed phase span `[start, end)` on `track`.
    #[inline]
    fn span(&self, track: u32, phase: Phase, start: VirtualInstant, end: VirtualInstant) {
        let _ = (track, phase, start, end);
    }

    /// Records a point event at `at` on `track` with one numeric argument.
    #[inline]
    fn instant(&self, track: u32, kind: TraceEventKind, at: VirtualInstant, arg: u64) {
        let _ = (track, kind, at, arg);
    }

    /// Adds `delta` to the counter `metric` on `track` at instant `at`.
    ///
    /// Only meaningful for [`MetricKind::Counter`] metrics; the time-series
    /// layer attributes the delta to the window containing `at`.
    #[inline]
    fn counter_add(&self, track: u32, metric: Metric, at: VirtualInstant, delta: u64) {
        let _ = (track, metric, at, delta);
    }

    /// Sets the gauge `metric` on `track` to `value` at instant `at`.
    ///
    /// Only meaningful for [`MetricKind::Gauge`] metrics; each window
    /// exports the last value set within it.
    #[inline]
    fn gauge_set(&self, track: u32, metric: Metric, at: VirtualInstant, value: u64) {
        let _ = (track, metric, at, value);
    }

    /// Records one SAN packet sent from `track`: its full lifecycle (issue
    /// → enqueue → transit → deliver), captured at issue time. This is the
    /// only packet probe. The packet and its per-class bytes count toward
    /// the traffic totals at `life.start`; the lifecycle itself feeds flow
    /// events and the critical-path profiler.
    #[inline]
    fn packet_life(&self, track: u32, life: PacketLife) {
        let _ = (track, life);
    }

    /// Records that packet `id` (issued by transaction `txn`, or
    /// [`NO_TXN`]) was applied into the peer arena on `track` at `at`.
    /// Crash-lost packets are never applied and never reach this probe.
    #[inline]
    fn packet_applied(&self, track: u32, id: u64, txn: u64, at: VirtualInstant) {
        let _ = (track, id, txn, at);
    }

    /// Records the busy/stall decomposition of one finished transaction
    /// `txn` spanning `[start, end)` on `track`: per-cause picosecond
    /// deltas of the stream clock's self-attribution over the span. By the
    /// clock conservation law, `Σbusy + Σstall == end - start` exactly.
    #[inline]
    fn txn_path(
        &self,
        track: u32,
        txn: u64,
        start: VirtualInstant,
        end: VirtualInstant,
        busy_picos: [u64; BusyCause::COUNT],
        stall_picos: [u64; StallCause::COUNT],
    ) {
        let _ = (track, txn, start, end, busy_picos, stall_picos);
    }
}

/// The zero-cost default tracer: records nothing, compiles to nothing.
///
/// # Examples
///
/// ```
/// use dsnrep_obs::{NullTracer, Tracer};
///
/// let t = NullTracer;
/// assert!(!t.is_enabled());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullTracer;

impl Tracer for NullTracer {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracer_is_disabled_and_inert() {
        let t = NullTracer;
        assert!(!t.is_enabled());
        t.span(
            0,
            Phase::Commit,
            VirtualInstant::from_picos(0),
            VirtualInstant::from_picos(1),
        );
        t.instant(0, TraceEventKind::PrimaryCrash, VirtualInstant::EPOCH, 0);
        t.counter_add(0, Metric::CommittedTxns, VirtualInstant::EPOCH, 1);
        t.gauge_set(0, Metric::InflightTxns, VirtualInstant::EPOCH, 1);
        t.packet_life(
            0,
            PacketLife {
                id: 7,
                txn: NO_TXN,
                ready: VirtualInstant::EPOCH,
                start: VirtualInstant::from_picos(1),
                done: VirtualInstant::from_picos(2),
                delivered: VirtualInstant::from_picos(3),
                class_bytes: [1, 2, 3],
            },
        );
        t.packet_applied(1, 7, NO_TXN, VirtualInstant::from_picos(3));
        t.txn_path(
            0,
            0,
            VirtualInstant::EPOCH,
            VirtualInstant::from_picos(4),
            [0; BusyCause::COUNT],
            [0; StallCause::COUNT],
        );
    }

    #[test]
    fn packet_life_helpers_decompose_the_lifecycle() {
        let life = PacketLife {
            id: 1,
            txn: 9,
            ready: VirtualInstant::from_picos(100),
            start: VirtualInstant::from_picos(130),
            done: VirtualInstant::from_picos(170),
            delivered: VirtualInstant::from_picos(250),
            class_bytes: [32, 8, 4],
        };
        assert_eq!(life.queue_wait().as_picos(), 30);
        assert_eq!(life.transit().as_picos(), 120);
        assert_eq!(life.bytes(), 44);
    }

    #[test]
    fn metric_names_indices_and_kinds_are_stable() {
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
            for (j, n) in Metric::ALL.iter().enumerate() {
                assert_eq!(i == j, m.name() == n.name());
            }
        }
        assert_eq!(Metric::ALL.len(), Metric::COUNT);
        assert_eq!(Metric::CommittedTxns.kind(), MetricKind::Counter);
        assert_eq!(Metric::WbufDirtyLines.kind(), MetricKind::Gauge);
        // Every stall cause has a distinct picosecond counter.
        for cause in StallCause::ALL {
            let m = Metric::stall(cause);
            assert_eq!(m.kind(), MetricKind::Counter);
            assert!(m.name().starts_with("stall_"), "{m}");
            assert!(m.name().ends_with("_picos"), "{m}");
        }
        // Every traffic class has a distinct byte counter.
        for class in TrafficClass::ALL {
            let m = Metric::san_bytes(class);
            assert_eq!(m.kind(), MetricKind::Counter);
            assert!(
                m.name().starts_with("san_") && m.name().ends_with("_bytes"),
                "{m}"
            );
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Phase::UndoWrite.name(), "undo_write");
        assert_eq!(
            TraceEventKind::FailoverComplete.to_string(),
            "failover_complete"
        );
        for (i, p) in Phase::ALL.iter().enumerate() {
            for (j, q) in Phase::ALL.iter().enumerate() {
                assert_eq!(i == j, p.name() == q.name());
            }
        }
    }
}

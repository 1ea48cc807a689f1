//! The flight recorder: a bounded ring of virtual-time records.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use dsnrep_simcore::{BusyCause, StallCause, TrafficClass, VirtualInstant};

use crate::critpath::{fold_segments, TxnPath, TxnPathStats};
use crate::summary::{TraceSummary, TrackSummary};
use crate::timeseries::{log2_bucket, MetricsHub, TimeSeries, DEFAULT_WINDOW_PICOS};
use crate::tracer::{Metric, PacketLife, Phase, TraceEventKind, Tracer};

/// A completed phase span on one track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Which simulated node the span belongs to.
    pub track: u32,
    /// The pipeline phase.
    pub phase: Phase,
    /// Span start (virtual time).
    pub start: VirtualInstant,
    /// Span end (virtual time), `>= start`.
    pub end: VirtualInstant,
}

/// A point event on one track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstantRecord {
    /// Which simulated node the event belongs to.
    pub track: u32,
    /// What happened.
    pub kind: TraceEventKind,
    /// When it happened (virtual time).
    pub at: VirtualInstant,
    /// One event-specific argument (see [`TraceEventKind`]).
    pub arg: u64,
}

/// A delivered packet applied into a peer arena (causal record).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ApplyRecord {
    /// The node whose arena received the payload.
    pub track: u32,
    /// The packet's stable id (matches a [`PacketLife::id`]).
    pub id: u64,
    /// The transaction that issued the packet, or
    /// [`NO_TXN`](crate::NO_TXN).
    pub txn: u64,
    /// The delivery instant at which the payload became applicable.
    pub at: VirtualInstant,
}

/// A bounded drop-oldest ring: pushing onto a full ring evicts its
/// oldest record and counts the loss.
struct Ring<T> {
    capacity: usize,
    records: VecDeque<T>,
    dropped: u64,
}

impl<T: Copy> Ring<T> {
    fn new(capacity: usize) -> Self {
        Ring {
            capacity,
            records: VecDeque::new(),
            dropped: 0,
        }
    }

    fn push(&mut self, record: T) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }

    /// The records held, oldest first.
    fn to_vec(&self) -> Vec<T> {
        self.records.iter().copied().collect()
    }
}

struct Inner {
    spans: Ring<SpanRecord>,
    instants: Ring<InstantRecord>,
    track_names: Vec<Option<String>>,
    /// Every count the recorder exports: the summary, the attribution
    /// tree's traffic and the time-series all sum these windows.
    hub: MetricsHub,
    packet_lives: Ring<(u32, PacketLife)>,
    applies: Ring<ApplyRecord>,
    txn_paths: Ring<TxnPath>,
    path_stats: Vec<TxnPathStats>,
}

/// An in-memory flight recorder implementing [`Tracer`].
///
/// The recorder is a cheap-to-clone handle: every clone shares the same
/// bounded ring, so the same recorder can be threaded into a primary, its
/// backup, and their ports. When the span ring fills, the **oldest** record
/// is dropped (and counted), which is exactly what a flight recorder should
/// do: after a failure you want the most recent history.
///
/// Not `Send` on purpose — the simulation is single-threaded per stream, and
/// the parallel experiment harness runs untraced ([`crate::NullTracer`]).
///
/// # Examples
///
/// ```
/// use dsnrep_obs::{FlightRecorder, Phase, Tracer, TRACK_PRIMARY};
/// use dsnrep_simcore::VirtualInstant;
///
/// let rec = FlightRecorder::with_capacity(2);
/// for i in 0..3 {
///     let t0 = VirtualInstant::from_picos(i * 10);
///     rec.span(TRACK_PRIMARY, Phase::DbWrite, t0, t0 + dsnrep_simcore::VirtualDuration::from_picos(5));
/// }
/// assert_eq!(rec.span_count(), 2); // oldest dropped
/// assert_eq!(rec.dropped_spans(), 1);
/// ```
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Rc<RefCell<Inner>>,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("FlightRecorder")
            .field("capacity", &inner.spans.capacity)
            .field("spans", &inner.spans.records.len())
            .field("dropped_spans", &inner.spans.dropped)
            .field("instants", &inner.instants.records.len())
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// Default span-ring capacity (records, not bytes).
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Creates a recorder with the default ring capacity.
    pub fn new() -> Self {
        FlightRecorder::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a recorder whose span ring holds at most `capacity` records
    /// (the instant and causal rings share the same bound; counters are
    /// unbounded).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be non-zero");
        FlightRecorder {
            inner: Rc::new(RefCell::new(Inner {
                spans: Ring::new(capacity),
                instants: Ring::new(capacity),
                track_names: Vec::new(),
                hub: MetricsHub::new(DEFAULT_WINDOW_PICOS),
                packet_lives: Ring::new(capacity),
                applies: Ring::new(capacity),
                txn_paths: Ring::new(capacity),
                path_stats: Vec::new(),
            })),
        }
    }

    /// Snapshots the windowed metric time-series recorded so far (the open
    /// window becomes the final, possibly partial, window). Idempotent:
    /// snapshotting does not mutate the live hub.
    pub fn timeseries(&self) -> TimeSeries {
        let inner = self.inner.borrow();
        inner.hub.snapshot(&|track| self.track_name(track))
    }

    /// Names a track for trace output (e.g. `"primary"`, `"backup"`).
    /// Unnamed tracks render as `track N`.
    pub fn set_track_name(&self, track: u32, name: &str) {
        let mut inner = self.inner.borrow_mut();
        let idx = track as usize;
        if idx >= inner.track_names.len() {
            inner.track_names.resize(idx + 1, None);
        }
        inner.track_names[idx] = Some(name.to_string());
    }

    /// The display name of a track (`"track N"` if unnamed).
    pub fn track_name(&self, track: u32) -> String {
        let inner = self.inner.borrow();
        inner
            .track_names
            .get(track as usize)
            .and_then(|n| n.clone())
            .unwrap_or_else(|| format!("track {track}"))
    }

    /// Number of spans currently held in the ring.
    pub fn span_count(&self) -> usize {
        self.inner.borrow().spans.records.len()
    }

    /// Number of spans dropped because the ring was full.
    pub fn dropped_spans(&self) -> u64 {
        self.inner.borrow().spans.dropped
    }

    /// Number of point events dropped because the ring was full.
    pub fn dropped_instants(&self) -> u64 {
        self.inner.borrow().instants.dropped
    }

    /// The ring capacity (records per ring: spans, instants and each
    /// causal ring alike).
    pub fn capacity(&self) -> usize {
        self.inner.borrow().spans.capacity
    }

    /// A copy of the spans currently in the ring, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.borrow().spans.to_vec()
    }

    /// A copy of the point events currently in the ring, oldest first.
    pub fn instants(&self) -> Vec<InstantRecord> {
        self.inner.borrow().instants.to_vec()
    }

    /// Point events of one kind, oldest first.
    pub fn instants_of(&self, kind: TraceEventKind) -> Vec<InstantRecord> {
        self.inner
            .borrow()
            .instants
            .records
            .iter()
            .filter(|i| i.kind == kind)
            .copied()
            .collect()
    }

    /// Aggregate statistics: transaction count, commit-latency histogram,
    /// the per-track traffic-class matrix, and ring occupancy. The counts
    /// are the metrics windows summed (counted even for records the ring
    /// has since dropped), so they agree with
    /// [`FlightRecorder::timeseries`] by construction. Stall attribution is
    /// owned by each stream's `Clock`; callers merge it in via
    /// [`TraceSummary::set_stalls`].
    pub fn summary(&self) -> TraceSummary {
        let ts = self.timeseries();
        let tracks = (0..ts.traffic_rows())
            .map(|track| {
                let (packets, bytes_by_class) = ts.traffic(track);
                TrackSummary {
                    track,
                    name: self.track_name(track),
                    packets,
                    bytes_by_class,
                }
            })
            .collect();
        let inner = self.inner.borrow();
        TraceSummary {
            txns: ts.counter_total(Metric::CommittedTxns),
            commit_latency_log2: ts.latency_reaggregated(),
            tracks,
            ring_capacity: inner.spans.capacity as u64,
            spans_recorded: inner.spans.records.len() as u64,
            spans_dropped: inner.spans.dropped,
            events: inner.instants.records.len() as u64,
            events_dropped: inner.instants.dropped,
            stall_picos: Vec::new(),
        }
    }

    /// A copy of the packet lifecycles currently in the ring, oldest
    /// first, each with its sending track.
    pub fn packet_lives(&self) -> Vec<(u32, PacketLife)> {
        self.inner.borrow().packet_lives.to_vec()
    }

    /// Packet lifecycles dropped because the ring was full.
    pub fn dropped_packet_lives(&self) -> u64 {
        self.inner.borrow().packet_lives.dropped
    }

    /// A copy of the apply records currently in the ring, oldest first.
    pub fn applies(&self) -> Vec<ApplyRecord> {
        self.inner.borrow().applies.to_vec()
    }

    /// Apply records dropped because the ring was full.
    pub fn dropped_applies(&self) -> u64 {
        self.inner.borrow().applies.dropped
    }

    /// A copy of the transaction critical paths currently in the ring,
    /// oldest first.
    pub fn txn_paths(&self) -> Vec<TxnPath> {
        self.inner.borrow().txn_paths.to_vec()
    }

    /// Transaction paths dropped because the ring was full (the unbounded
    /// [`FlightRecorder::txn_path_stats`] accumulators are unaffected).
    pub fn dropped_txn_paths(&self) -> u64 {
        self.inner.borrow().txn_paths.dropped
    }

    /// The unbounded critical-path accumulators for `track` (empty stats
    /// if the track never recorded a path).
    pub fn txn_path_stats(&self, track: u32) -> TxnPathStats {
        self.inner
            .borrow()
            .path_stats
            .get(track as usize)
            .cloned()
            .unwrap_or_default()
    }

    pub(crate) fn with_inner_records<R>(
        &self,
        f: impl FnOnce(&VecDeque<SpanRecord>, &VecDeque<InstantRecord>) -> R,
    ) -> R {
        let inner = self.inner.borrow();
        f(&inner.spans.records, &inner.instants.records)
    }

    /// Every track a span or point event in the ring names, plus the rows
    /// of the summary's traffic matrix (`ts` is this recorder's snapshot).
    pub(crate) fn known_tracks(&self, ts: &TimeSeries) -> Vec<u32> {
        let inner = self.inner.borrow();
        let mut tracks: Vec<u32> = inner
            .spans
            .records
            .iter()
            .map(|s| s.track)
            .chain(inner.instants.records.iter().map(|i| i.track))
            .chain(0..ts.traffic_rows())
            .collect();
        tracks.sort_unstable();
        tracks.dedup();
        tracks
    }
}

impl Tracer for FlightRecorder {
    #[inline]
    fn is_enabled(&self) -> bool {
        true
    }

    fn span(&self, track: u32, phase: Phase, start: VirtualInstant, end: VirtualInstant) {
        debug_assert!(end >= start, "span ends before it starts");
        let mut inner = self.inner.borrow_mut();
        let bucket = log2_bucket(end.duration_since(start).as_picos());
        match phase {
            // Goodput and latency land in the commit instant's window.
            Phase::Txn => {
                inner.hub.counter_add(track, Metric::CommittedTxns, end, 1);
                inner.hub.observe_latency(track, end, bucket);
            }
            // Reads get their own histogram, apart from commit latency.
            Phase::Read => {
                inner.hub.counter_add(track, Metric::ReadsServed, end, 1);
                inner.hub.observe_read_latency(track, end, bucket);
            }
            _ => {}
        }
        inner.spans.push(SpanRecord {
            track,
            phase,
            start,
            end,
        });
    }

    fn instant(&self, track: u32, kind: TraceEventKind, at: VirtualInstant, arg: u64) {
        self.inner.borrow_mut().instants.push(InstantRecord {
            track,
            kind,
            at,
            arg,
        });
    }

    fn counter_add(&self, track: u32, metric: Metric, at: VirtualInstant, delta: u64) {
        self.inner
            .borrow_mut()
            .hub
            .counter_add(track, metric, at, delta);
    }

    fn gauge_set(&self, track: u32, metric: Metric, at: VirtualInstant, value: u64) {
        self.inner
            .borrow_mut()
            .hub
            .gauge_set(track, metric, at, value);
    }

    fn packet_life(&self, track: u32, life: PacketLife) {
        debug_assert!(
            life.ready <= life.start && life.start <= life.done && life.done <= life.delivered,
            "packet lifecycle instants must be monotone"
        );
        let mut inner = self.inner.borrow_mut();
        // The traffic counts land at link-service start, whatever the ring
        // keeps.
        let hub = &mut inner.hub;
        hub.counter_add(track, Metric::SanPackets, life.start, 1);
        for class in TrafficClass::ALL {
            let bytes = life.class_bytes[class.index()];
            hub.counter_add(track, Metric::san_bytes(class), life.start, bytes);
        }
        inner.packet_lives.push((track, life));
    }

    fn packet_applied(&self, track: u32, id: u64, txn: u64, at: VirtualInstant) {
        self.inner
            .borrow_mut()
            .applies
            .push(ApplyRecord { track, id, txn, at });
    }

    fn txn_path(
        &self,
        track: u32,
        txn: u64,
        start: VirtualInstant,
        end: VirtualInstant,
        busy_picos: [u64; BusyCause::COUNT],
        stall_picos: [u64; StallCause::COUNT],
    ) {
        let mut inner = self.inner.borrow_mut();
        let segments = fold_segments(&busy_picos, &stall_picos);
        let path = TxnPath {
            track,
            txn,
            start_ps: start.as_picos(),
            end_ps: end.as_picos(),
            segments,
        };
        // The clock conservation law makes this hold by construction; a
        // mismatch means a probe reported a breakdown that is not the
        // delta of a self-attributing clock.
        assert_eq!(
            path.segment_total(),
            path.latency_ps(),
            "txn {txn:#x} on track {track}: critical-path segments must sum \
             to the commit latency"
        );
        let idx = track as usize;
        if idx >= inner.path_stats.len() {
            inner.path_stats.resize_with(idx + 1, TxnPathStats::default);
        }
        inner.path_stats[idx].fold(&path);
        inner.txn_paths.push(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(p: u64) -> VirtualInstant {
        VirtualInstant::from_picos(p)
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let rec = FlightRecorder::with_capacity(3);
        for i in 0..5u64 {
            rec.span(0, Phase::DbWrite, at(i * 10), at(i * 10 + 1));
        }
        assert_eq!(rec.span_count(), 3);
        assert_eq!(rec.dropped_spans(), 2);
        let spans = rec.spans();
        assert_eq!(spans[0].start, at(20)); // the two oldest are gone
    }

    #[test]
    fn clones_share_the_ring() {
        let rec = FlightRecorder::new();
        let handle = rec.clone();
        handle.span(1, Phase::Commit, at(0), at(4));
        assert_eq!(rec.span_count(), 1);
        assert_eq!(rec.spans()[0].track, 1);
    }

    #[test]
    fn txn_spans_feed_the_latency_histogram() {
        let rec = FlightRecorder::new();
        rec.span(0, Phase::Txn, at(0), at(1024)); // 2^10 ps -> bucket 10
        rec.span(0, Phase::Txn, at(0), at(1800)); // still bucket 10
        rec.span(0, Phase::Txn, at(0), at(2048)); // bucket 11
        let s = rec.summary();
        assert_eq!(s.txns, 3);
        assert_eq!(s.commit_latency_log2[10], 2);
        assert_eq!(s.commit_latency_log2[11], 1);
    }

    #[test]
    fn packet_lives_fill_the_traffic_matrix_whatever_the_ring_keeps() {
        let rec = FlightRecorder::with_capacity(1);
        rec.packet_life(0, PacketLife::sent(at(0), [32, 0, 0]));
        rec.packet_life(0, PacketLife::sent(at(1), [0, 8, 4]));
        rec.packet_life(2, PacketLife::sent(at(2), [0, 0, 16]));
        // A track with metrics but no packets adds no row past the last
        // sender.
        rec.span(5, Phase::Txn, at(0), at(4));
        assert_eq!(rec.packet_lives().len(), 1);
        assert_eq!(rec.dropped_packet_lives(), 2);
        let s = rec.summary();
        assert_eq!(s.txns, 1);
        let rows: Vec<_> = s
            .tracks
            .iter()
            .map(|t| (t.track, t.name.as_str(), t.packets, t.bytes_by_class))
            .collect();
        assert_eq!(
            rows,
            [
                (0, "track 0", 2, [32, 8, 4]),
                (1, "track 1", 0, [0, 0, 0]),
                (2, "track 2", 1, [0, 0, 16]),
            ]
        );
    }

    #[test]
    fn instants_filter_by_kind() {
        let rec = FlightRecorder::new();
        rec.instant(0, TraceEventKind::PrimaryCrash, at(5), 5);
        rec.instant(1, TraceEventKind::FailoverComplete, at(9), 42);
        let fo = rec.instants_of(TraceEventKind::FailoverComplete);
        assert_eq!(fo.len(), 1);
        assert_eq!(fo[0].arg, 42);
        assert_eq!(rec.instants().len(), 2);
    }

    #[test]
    fn track_names_render() {
        let rec = FlightRecorder::new();
        rec.set_track_name(0, "primary");
        assert_eq!(rec.track_name(0), "primary");
        assert_eq!(rec.track_name(3), "track 3");
    }

    #[test]
    fn zero_length_txn_span_is_bucket_zero() {
        let rec = FlightRecorder::new();
        let t = at(77);
        rec.span(0, Phase::Txn, t, t);
        assert_eq!(rec.summary().commit_latency_log2[0], 1);
    }

    #[test]
    fn txn_spans_and_packets_feed_the_timeseries() {
        use crate::tracer::Metric;
        const W: u64 = DEFAULT_WINDOW_PICOS;
        let rec = FlightRecorder::new();
        rec.set_track_name(0, "primary");
        rec.packet_life(0, PacketLife::sent(at(100), [32, 8, 4]));
        rec.span(0, Phase::Txn, at(W), at(W + 1024)); // commits in window 1

        // Counted in the window its link service starts in (2), not in its
        // issue (1) or delivery (3) window.
        rec.packet_life(
            0,
            PacketLife {
                ready: at(2 * W - 100),
                start: at(2 * W + 100),
                done: at(2 * W + 200),
                delivered: at(3 * W),
                ..PacketLife::sent(at(0), [16, 0, 0])
            },
        );
        let ts = rec.timeseries();
        let t = &ts.tracks[0];
        assert_eq!(t.name, "primary");
        assert_eq!(t.counter_deltas(Metric::CommittedTxns), vec![0, 1, 0]);
        assert_eq!(t.counter_deltas(Metric::SanPackets), vec![1, 0, 1]);
        assert_eq!(t.counter_deltas(Metric::SanModifiedBytes), vec![32, 0, 16]);
        assert_eq!(t.counter_deltas(Metric::SanUndoBytes), vec![8, 0, 0]);
        assert_eq!(t.counter_deltas(Metric::SanMetaBytes), vec![4, 0, 0]);
        assert_eq!(ts.latency_reaggregated()[10], 1);
        // Snapshotting is idempotent: the live hub is untouched.
        assert_eq!(rec.timeseries(), ts);
    }

    #[test]
    fn causal_stores_record_lives_applies_and_paths() {
        let life = PacketLife {
            id: 3,
            txn: 5,
            ready: at(10),
            start: at(12),
            done: at(20),
            delivered: at(30),
            class_bytes: [64, 0, 0],
        };
        let rec = FlightRecorder::new();
        rec.span(0, Phase::Txn, at(0), at(100));
        rec.packet_life(0, life);
        rec.packet_applied(1, 3, 5, at(30));
        let mut busy = [0u64; BusyCause::COUNT];
        busy[0] = 100;
        rec.txn_path(0, 5, at(0), at(100), busy, [0; StallCause::COUNT]);
        assert_eq!(rec.packet_lives(), vec![(0, life)]);
        assert_eq!(rec.applies().len(), 1);
        assert_eq!(rec.applies()[0].txn, 5);
        assert_eq!(rec.txn_paths().len(), 1);
        assert_eq!(rec.txn_path_stats(0).txns, 1);
        assert_eq!(rec.txn_path_stats(9).txns, 0);
    }

    #[test]
    fn causal_rings_drop_oldest_and_count() {
        let rec = FlightRecorder::with_capacity(2);
        for i in 0..4u64 {
            rec.packet_applied(1, i, i, at(i));
        }
        assert_eq!(rec.applies().len(), 2);
        assert_eq!(rec.dropped_applies(), 2);
        assert_eq!(rec.applies()[0].id, 2);
    }

    #[test]
    #[should_panic(expected = "must sum")]
    fn txn_path_that_does_not_cover_its_latency_panics() {
        let rec = FlightRecorder::new();
        let mut busy = [0u64; BusyCause::COUNT];
        busy[0] = 60; // only 60 of 100 ps accounted
        rec.txn_path(0, 1, at(0), at(100), busy, [0; StallCause::COUNT]);
    }
}

//! Windowed virtual-time metric time-series: the [`MetricsHub`].
//!
//! Whole-run aggregates (summary.json, attribution.json) answer *where the
//! time went*; they cannot answer *when* — what goodput looked like while a
//! takeover was in flight, how far p99 moved during the write-buffer storm
//! a barrier caused, how long after `recovery_start` the first transaction
//! committed. The hub answers those questions by bucketing every metric
//! published through the [`Tracer`](crate::Tracer) seam into fixed
//! virtual-time windows:
//!
//! * **Counters** accumulate per-window deltas whose sum *is* the
//!   whole-run total: the hub is the recorder's only accumulator, so the
//!   summary's and the attribution tree's counts are these windows summed.
//! * **Gauges** export the last value set within each window, carrying the
//!   level across idle windows.
//! * The **commit-latency log₂ histogram** is windowed the same way, so
//!   each window yields its own p50/p95/p99 and the per-window deltas
//!   re-aggregate to the run histogram bit-for-bit.
//!
//! # Determinism contract
//!
//! Windows are derived purely from virtual timestamps (`window = at /
//! window_picos`), never from host time or driver pacing. A track's open
//! window closes when one of its metrics lands in a later window (idle
//! windows in between materialize then), and a snapshot exports the open
//! window as the last. Nothing else closes a window, so the exported
//! series depends on the timestamps alone, which is what lets the
//! time-series ride the tracer seam without perturbing a single virtual
//! outcome.
//!
//! Per-track updates are clock-monotone in practice; an update timestamped
//! before the track's open window (cross-clock skew between a machine
//! clock and its link send times) is attributed to the open window, so
//! totals are conserved under any interleaving.

use std::fmt::Write as _;

use dsnrep_simcore::{TrafficClass, VirtualInstant};

use crate::tracer::{Metric, MetricKind};

/// Log₂ histogram bucket count: bucket [`log2_bucket`] of a `u64`
/// picosecond duration, so 64 covers the whole range.
pub(crate) const LOG2_BUCKETS: usize = 64;

/// The log₂ histogram bucket of a picosecond duration:
/// `floor(log2(picos))`, with zero-length durations in bucket 0.
pub(crate) fn log2_bucket(picos: u64) -> usize {
    63 - picos.max(1).leading_zeros() as usize
}

/// A dense log₂ histogram's nonzero buckets as `(bucket, count)`, in
/// bucket order.
pub(crate) fn sparse_hist(hist: &[u64]) -> Vec<(u8, u64)> {
    hist.iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(b, &c)| (b as u8, c))
        .collect()
}

/// Default window width: 1 virtual millisecond (10⁹ picoseconds).
pub const DEFAULT_WINDOW_PICOS: u64 = 1_000_000_000;

/// The still-accumulating window at a track's head.
#[derive(Clone, Debug)]
struct OpenWindow {
    index: u64,
    values: [u64; Metric::COUNT],
    latency: [u64; LOG2_BUCKETS],
    read_latency: [u64; LOG2_BUCKETS],
}

impl OpenWindow {
    fn new(index: u64, carried: &[u64; Metric::COUNT]) -> Self {
        let mut values = [0u64; Metric::COUNT];
        for m in Metric::ALL {
            if m.kind() == MetricKind::Gauge {
                values[m.index()] = carried[m.index()];
            }
        }
        OpenWindow {
            index,
            values,
            latency: [0; LOG2_BUCKETS],
            read_latency: [0; LOG2_BUCKETS],
        }
    }

    fn close(&self) -> ClosedWindow {
        ClosedWindow {
            values: self.values,
            latency: sparse_hist(&self.latency),
            read_latency: sparse_hist(&self.read_latency),
        }
    }
}

/// One finished window: metric values plus sparse commit- and
/// read-latency histograms.
#[derive(Clone, Debug)]
struct ClosedWindow {
    values: [u64; Metric::COUNT],
    latency: Vec<(u8, u64)>,
    read_latency: Vec<(u8, u64)>,
}

/// One track's window sequence. Closed windows are contiguous from
/// `first_window`; the open window always sits at
/// `first_window + closed.len()`.
#[derive(Clone, Debug, Default)]
struct TrackSeries {
    touched: bool,
    first_window: u64,
    closed: Vec<ClosedWindow>,
    open: Option<OpenWindow>,
}

impl TrackSeries {
    /// Advances the open window to `target`, closing it (and materializing
    /// any idle windows in between: zero counter deltas, carried gauge
    /// levels) as needed. A target at or before the open window is the
    /// clamp case and changes nothing.
    fn advance_to(&mut self, target: u64) {
        let Some(open) = self.open.as_mut() else {
            self.open = Some(OpenWindow::new(target, &[0; Metric::COUNT]));
            self.first_window = target;
            return;
        };
        while open.index < target {
            let carried = open.values;
            let next = open.index + 1;
            self.closed.push(open.close());
            *open = OpenWindow::new(next, &carried);
        }
    }

    fn ensure(&mut self, at: u64, window_picos: u64) -> &mut OpenWindow {
        self.touched = true;
        self.advance_to(at / window_picos);
        self.open.as_mut().expect("advance_to opened a window")
    }
}

/// A hub of named per-track counters and gauges bucketed into fixed
/// virtual-time windows.
///
/// The [`FlightRecorder`](crate::FlightRecorder) embeds one and feeds it
/// from its [`Tracer`](crate::Tracer) methods; it can also be driven
/// directly.
///
/// # Examples
///
/// ```
/// use dsnrep_obs::{Metric, MetricsHub};
/// use dsnrep_simcore::VirtualInstant;
///
/// let mut hub = MetricsHub::new(1_000); // 1 ns windows
/// hub.counter_add(0, Metric::CommittedTxns, VirtualInstant::from_picos(100), 1);
/// hub.counter_add(0, Metric::CommittedTxns, VirtualInstant::from_picos(2_500), 2);
/// let ts = hub.snapshot(&|track| format!("track {track}"));
/// assert_eq!(ts.tracks[0].counter_deltas(Metric::CommittedTxns), vec![1, 0, 2]);
/// assert_eq!(ts.tracks[0].counter_total(Metric::CommittedTxns), 3);
/// ```
#[derive(Clone, Debug)]
pub struct MetricsHub {
    window_picos: u64,
    tracks: Vec<TrackSeries>,
}

impl MetricsHub {
    /// Creates a hub bucketing at `window_picos` virtual picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `window_picos` is zero.
    pub fn new(window_picos: u64) -> Self {
        assert!(window_picos > 0, "metrics window must be nonzero");
        MetricsHub {
            window_picos,
            tracks: Vec::new(),
        }
    }

    fn track_mut(&mut self, track: u32) -> &mut TrackSeries {
        let idx = track as usize;
        if idx >= self.tracks.len() {
            self.tracks.resize_with(idx + 1, TrackSeries::default);
        }
        &mut self.tracks[idx]
    }

    /// Adds `delta` to counter `metric` on `track`, attributed to the
    /// window containing `at`.
    pub fn counter_add(&mut self, track: u32, metric: Metric, at: VirtualInstant, delta: u64) {
        debug_assert_eq!(metric.kind(), MetricKind::Counter, "{metric} is a gauge");
        if delta == 0 {
            return;
        }
        let w = self.window_picos;
        let open = self.track_mut(track).ensure(at.as_picos(), w);
        open.values[metric.index()] += delta;
    }

    /// Sets gauge `metric` on `track` to `value` within the window
    /// containing `at`; the level carries across idle windows.
    pub fn gauge_set(&mut self, track: u32, metric: Metric, at: VirtualInstant, value: u64) {
        debug_assert_eq!(metric.kind(), MetricKind::Gauge, "{metric} is a counter");
        let w = self.window_picos;
        let open = self.track_mut(track).ensure(at.as_picos(), w);
        open.values[metric.index()] = value;
    }

    /// Records one commit in log₂ latency `bucket` within the window
    /// containing `at` (a `Txn` span's end instant).
    pub fn observe_latency(&mut self, track: u32, at: VirtualInstant, bucket: usize) {
        let w = self.window_picos;
        let open = self.track_mut(track).ensure(at.as_picos(), w);
        open.latency[bucket.min(LOG2_BUCKETS - 1)] += 1;
    }

    /// Records one served read in log₂ latency `bucket` within the window
    /// containing `at` (a `Read` span's end instant). Read latency lives in
    /// its own histogram so read traffic never reaches the summary's
    /// commit-latency histogram.
    pub fn observe_read_latency(&mut self, track: u32, at: VirtualInstant, bucket: usize) {
        let w = self.window_picos;
        let open = self.track_mut(track).ensure(at.as_picos(), w);
        open.read_latency[bucket.min(LOG2_BUCKETS - 1)] += 1;
    }

    /// Snapshots the series recorded so far (the open window becomes the
    /// final, possibly partial, window). `name_of` supplies display names,
    /// typically [`FlightRecorder::track_name`](crate::FlightRecorder::track_name).
    pub fn snapshot(&self, name_of: &dyn Fn(u32) -> String) -> TimeSeries {
        let tracks = self
            .tracks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.touched)
            .map(|(i, t)| {
                let mut windows: Vec<ClosedWindow> = t.closed.clone();
                if let Some(open) = &t.open {
                    windows.push(open.close());
                }
                TrackTimeSeries {
                    track: i as u32,
                    name: name_of(i as u32),
                    first_window: t.first_window,
                    values: windows.iter().map(|w| w.values).collect(),
                    read_latency: windows.iter().map(|w| w.read_latency.clone()).collect(),
                    latency: windows.into_iter().map(|w| w.latency).collect(),
                }
            })
            .collect();
        TimeSeries {
            window_picos: self.window_picos,
            tracks,
        }
    }
}

/// One track's exported window sequence (dense from `first_window`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrackTimeSeries {
    /// Track id.
    pub track: u32,
    /// Display name.
    pub name: String,
    /// Virtual-time index of the first window (`start = first_window *
    /// window_picos`).
    pub first_window: u64,
    /// Per-window metric values in [`Metric::ALL`] order: counter deltas
    /// and last-set gauge levels.
    pub values: Vec<[u64; Metric::COUNT]>,
    /// Per-window sparse commit-latency histogram: `(log2 bucket, count)`.
    pub latency: Vec<Vec<(u8, u64)>>,
    /// Per-window sparse read-latency histogram: `(log2 bucket, count)`.
    pub read_latency: Vec<Vec<(u8, u64)>>,
}

impl TrackTimeSeries {
    /// Number of windows exported for this track.
    pub fn windows(&self) -> usize {
        self.values.len()
    }

    /// The per-window delta series of a counter.
    pub fn counter_deltas(&self, metric: Metric) -> Vec<u64> {
        debug_assert_eq!(metric.kind(), MetricKind::Counter);
        self.values.iter().map(|v| v[metric.index()]).collect()
    }

    /// The whole-run total of a counter (sum of its window deltas).
    pub fn counter_total(&self, metric: Metric) -> u64 {
        self.values.iter().map(|v| v[metric.index()]).sum()
    }

    /// The per-window last-set level series of a gauge.
    pub fn gauge_levels(&self, metric: Metric) -> Vec<u64> {
        debug_assert_eq!(metric.kind(), MetricKind::Gauge);
        self.values.iter().map(|v| v[metric.index()]).collect()
    }
}

/// A snapshot of every track's windowed metrics, exportable as
/// `timeseries.json` and as Perfetto counter tracks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimeSeries {
    /// The window width in virtual picoseconds.
    pub window_picos: u64,
    /// Per-track series, track id ascending.
    pub tracks: Vec<TrackTimeSeries>,
}

/// The percentile of a sparse log₂ histogram (`(bucket, count)` in bucket
/// order): the lower bound in picoseconds of the bucket containing the
/// `q`-th quantile, or `None` for an empty histogram. Every percentile the
/// crate reports goes through here.
pub(crate) fn sparse_percentile(buckets: &[(u8, u64)], q: f64) -> Option<u64> {
    // u128 accumulation: counts are u64 per bucket, and a saturated
    // histogram can overflow a u64 total.
    let total: u128 = buckets.iter().map(|&(_, c)| c as u128).sum();
    if total == 0 {
        return None;
    }
    // Rank of the quantile sample, 1-based: ceil(q * total), clamped.
    let rank = ((q * total as f64).ceil() as u128).clamp(1, total);
    let mut seen: u128 = 0;
    for &(bucket, count) in buckets {
        seen += count as u128;
        if seen >= rank {
            return Some(1u64 << (bucket as usize).min(63));
        }
    }
    unreachable!("rank {rank} exceeds total {total}")
}

impl TimeSeries {
    /// Sums the commit-latency windows of every track back into one
    /// whole-run log₂ histogram — the summary's `commit_latency_log2`.
    pub fn latency_reaggregated(&self) -> Vec<u64> {
        let mut hist = vec![0u64; LOG2_BUCKETS];
        for track in &self.tracks {
            for window in &track.latency {
                for &(bucket, count) in window {
                    hist[bucket as usize] += count;
                }
            }
        }
        hist
    }

    /// The whole-run total of `metric` summed across every track.
    pub fn counter_total(&self, metric: Metric) -> u64 {
        self.tracks.iter().map(|t| t.counter_total(metric)).sum()
    }

    /// One track's whole-run SAN traffic: packets, and payload bytes per
    /// [`TrafficClass`] index (zeros for a track with no series).
    pub(crate) fn traffic(&self, track: u32) -> (u64, [u64; 3]) {
        let series = self.tracks.iter().find(|t| t.track == track);
        let total = |metric| series.map_or(0, |t| t.counter_total(metric));
        (
            total(Metric::SanPackets),
            TrafficClass::ALL.map(|class| total(Metric::san_bytes(class))),
        )
    }

    /// The traffic matrix's row count: one row per track from 0 up to the
    /// last track that sent a packet.
    pub(crate) fn traffic_rows(&self) -> u32 {
        self.tracks
            .iter()
            .rev()
            .find(|t| t.counter_total(Metric::SanPackets) > 0)
            .map_or(0, |t| t.track + 1)
    }

    /// Per-window committed transactions summed across tracks, as
    /// `(window_index, committed)` — the goodput curve. Windows outside
    /// every track's range are absent; overlapping tracks merge.
    pub fn goodput_curve(&self) -> Vec<(u64, u64)> {
        let mut curve: Vec<(u64, u64)> = Vec::new();
        let lo = self.tracks.iter().map(|t| t.first_window).min();
        let hi = self
            .tracks
            .iter()
            .map(|t| t.first_window + t.windows() as u64)
            .max();
        let (Some(lo), Some(hi)) = (lo, hi) else {
            return curve;
        };
        for w in lo..hi {
            let committed: u64 = self
                .tracks
                .iter()
                .filter_map(|t| {
                    let idx = w.checked_sub(t.first_window)? as usize;
                    let v = t.values.get(idx)?;
                    Some(v[Metric::CommittedTxns.index()])
                })
                .sum();
            curve.push((w, committed));
        }
        curve
    }

    /// Renders the snapshot as pretty-printed, schema-versioned JSON
    /// (`timeseries.json`). Every value is virtual, so `simdiff` gates the
    /// whole artifact bit-exactly.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(
            out,
            "  \"schema_version\": {},",
            crate::TRACE_SCHEMA_VERSION
        );
        let _ = writeln!(out, "  \"window_picos\": {},", self.window_picos);
        out.push_str("  \"tracks\": [");
        for (i, t) in self.tracks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\n      \"track\": {},\n      \"name\": \"{}\",\n      \
                 \"first_window\": {},\n      \"windows\": {},",
                t.track,
                crate::json_escape(&t.name),
                t.first_window,
                t.windows()
            );
            out.push_str("\n      \"counters\": {");
            let mut first = true;
            for m in Metric::ALL {
                if m.kind() != MetricKind::Counter {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "\n        \"{m}\": {{\"total\": {}, \"deltas\": {}}}",
                    t.counter_total(m),
                    render_u64_array(&t.counter_deltas(m))
                );
            }
            out.push_str("\n      },\n      \"gauges\": {");
            let mut first = true;
            for m in Metric::ALL {
                if m.kind() != MetricKind::Gauge {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "\n        \"{m}\": {}",
                    render_u64_array(&t.gauge_levels(m))
                );
            }
            out.push_str("\n      },\n      \"latency_log2\": [");
            let mut first = true;
            for (w, buckets) in t.latency.iter().enumerate() {
                if buckets.is_empty() {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "\n        {{\"window\": {}, \"buckets\": [",
                    t.first_window + w as u64
                );
                for (j, &(bucket, count)) in buckets.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(
                        out,
                        "{{\"ge_picos\": {}, \"count\": {count}}}",
                        1u128 << bucket
                    );
                }
                out.push_str("]}");
            }
            out.push_str("\n      ],\n      \"latency_percentiles\": [");
            let mut first = true;
            for (w, buckets) in t.latency.iter().enumerate() {
                let (Some(p50), Some(p95), Some(p99)) = (
                    sparse_percentile(buckets, 0.50),
                    sparse_percentile(buckets, 0.95),
                    sparse_percentile(buckets, 0.99),
                ) else {
                    continue;
                };
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "\n        {{\"window\": {}, \"p50_ge_picos\": {p50}, \
                     \"p95_ge_picos\": {p95}, \"p99_ge_picos\": {p99}}}",
                    t.first_window + w as u64
                );
            }
            out.push_str("\n      ],\n      \"read_latency_log2\": [");
            let mut first = true;
            for (w, buckets) in t.read_latency.iter().enumerate() {
                if buckets.is_empty() {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "\n        {{\"window\": {}, \"buckets\": [",
                    t.first_window + w as u64
                );
                for (j, &(bucket, count)) in buckets.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(
                        out,
                        "{{\"ge_picos\": {}, \"count\": {count}}}",
                        1u128 << bucket
                    );
                }
                out.push_str("]}");
            }
            out.push_str("\n      ],\n      \"read_latency_percentiles\": [");
            let mut first = true;
            for (w, buckets) in t.read_latency.iter().enumerate() {
                let (Some(p50), Some(p95), Some(p99)) = (
                    sparse_percentile(buckets, 0.50),
                    sparse_percentile(buckets, 0.95),
                    sparse_percentile(buckets, 0.99),
                ) else {
                    continue;
                };
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "\n        {{\"window\": {}, \"p50_ge_picos\": {p50}, \
                     \"p95_ge_picos\": {p95}, \"p99_ge_picos\": {p99}}}",
                    t.first_window + w as u64
                );
            }
            out.push_str("\n      ]\n    }");
        }
        out.push_str("\n  ]\n}");
        out
    }

    /// Per-window (p50, p95, p99) for one track, `None` for windows with
    /// no commit — the percentiles-over-time series the counter tracks
    /// render.
    pub fn window_percentiles(&self, track_index: usize) -> Vec<Option<(u64, u64, u64)>> {
        self.tracks[track_index]
            .latency
            .iter()
            .map(|buckets| {
                Some((
                    sparse_percentile(buckets, 0.50)?,
                    sparse_percentile(buckets, 0.95)?,
                    sparse_percentile(buckets, 0.99)?,
                ))
            })
            .collect()
    }
}

fn render_u64_array(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(p: u64) -> VirtualInstant {
        VirtualInstant::from_picos(p)
    }

    fn names(track: u32) -> String {
        format!("t{track}")
    }

    #[test]
    fn counter_deltas_land_in_their_windows_and_conserve() {
        let mut hub = MetricsHub::new(100);
        hub.counter_add(0, Metric::CommittedTxns, at(10), 1);
        hub.counter_add(0, Metric::CommittedTxns, at(150), 2);
        hub.counter_add(0, Metric::CommittedTxns, at(460), 3);
        let ts = hub.snapshot(&names);
        let t = &ts.tracks[0];
        assert_eq!(t.first_window, 0);
        assert_eq!(t.counter_deltas(Metric::CommittedTxns), vec![1, 2, 0, 0, 3]);
        assert_eq!(t.counter_total(Metric::CommittedTxns), 6);
    }

    #[test]
    fn gauges_carry_their_level_across_idle_windows() {
        let mut hub = MetricsHub::new(100);
        hub.gauge_set(0, Metric::InflightTxns, at(50), 7);
        hub.counter_add(0, Metric::SanPackets, at(350), 1);
        hub.gauge_set(0, Metric::InflightTxns, at(360), 2);
        let ts = hub.snapshot(&names);
        assert_eq!(
            ts.tracks[0].gauge_levels(Metric::InflightTxns),
            [7, 7, 7, 2]
        );
    }

    #[test]
    fn late_update_is_clamped_into_the_open_window() {
        let mut hub = MetricsHub::new(100);
        hub.counter_add(0, Metric::SanPackets, at(250), 1); // opens window 2
        hub.counter_add(0, Metric::SanPackets, at(40), 1); // late: clamped
        let ts = hub.snapshot(&names);
        assert_eq!(ts.tracks[0].first_window, 2);
        assert_eq!(ts.tracks[0].counter_deltas(Metric::SanPackets), vec![2]);
    }

    #[test]
    fn tracks_window_independently() {
        let mut hub = MetricsHub::new(100);
        hub.counter_add(0, Metric::SanPackets, at(10), 1);
        hub.counter_add(1, Metric::SanPackets, at(910), 4);
        let ts = hub.snapshot(&names);
        assert_eq!(ts.tracks[0].first_window, 0);
        assert_eq!(ts.tracks[0].windows(), 1);
        assert_eq!(ts.tracks[1].first_window, 9);
        assert_eq!(ts.tracks[1].windows(), 1);
        assert_eq!(ts.counter_total(Metric::SanPackets), 5);
    }

    #[test]
    fn latency_windows_reaggregate_exactly() {
        let mut hub = MetricsHub::new(100);
        hub.observe_latency(0, at(10), 4);
        hub.observe_latency(0, at(20), 4);
        hub.observe_latency(0, at(150), 9);
        hub.observe_latency(1, at(460), 4);
        let ts = hub.snapshot(&names);
        let hist = ts.latency_reaggregated();
        assert_eq!(hist[4], 3);
        assert_eq!(hist[9], 1);
        assert_eq!(hist.iter().sum::<u64>(), 4);
    }

    #[test]
    fn goodput_curve_merges_tracks_over_the_union_range() {
        let mut hub = MetricsHub::new(100);
        hub.counter_add(0, Metric::CommittedTxns, at(10), 2);
        hub.counter_add(0, Metric::CommittedTxns, at(110), 1);
        hub.counter_add(1, Metric::CommittedTxns, at(210), 5);
        let ts = hub.snapshot(&names);
        assert_eq!(ts.goodput_curve(), vec![(0, 2), (1, 1), (2, 5)]);
    }

    #[test]
    fn json_is_schema_versioned_and_balanced() {
        let mut hub = MetricsHub::new(1_000);
        hub.counter_add(0, Metric::CommittedTxns, at(10), 1);
        hub.observe_latency(0, at(10), 10);
        hub.gauge_set(0, Metric::CacheOccupancyLines, at(20), 99);
        let json = hub.snapshot(&|_| "primary".to_string()).to_json();
        assert!(json.contains(&format!(
            "\"schema_version\": {}",
            crate::TRACE_SCHEMA_VERSION
        )));
        assert!(json.contains("\"window_picos\": 1000"));
        assert!(json.contains("\"committed_txns\": {\"total\": 1, \"deltas\": [1]}"));
        assert!(json.contains("\"cache_occupancy_lines\": [99]"));
        assert!(json.contains("\"ge_picos\": 1024, \"count\": 1"));
        assert!(json.contains("\"p50_ge_picos\": 1024"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn log2_buckets_floor_and_sparse_percentiles_take_lower_bounds() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 0);
        assert_eq!(log2_bucket(1023), 9);
        assert_eq!(log2_bucket(1024), 10);
        assert_eq!(log2_bucket(u64::MAX), 63);
        let mut dense = [0u64; LOG2_BUCKETS];
        dense[8] = 90;
        dense[12] = 9;
        dense[20] = 1;
        let buckets = sparse_hist(&dense);
        assert_eq!(buckets, [(8u8, 90u64), (12, 9), (20, 1)]);
        assert_eq!(sparse_percentile(&buckets, 0.50), Some(1 << 8));
        assert_eq!(sparse_percentile(&buckets, 0.95), Some(1 << 12));
        assert_eq!(sparse_percentile(&buckets, 1.0), Some(1 << 20));
        assert_eq!(sparse_percentile(&[], 0.5), None);
    }
}

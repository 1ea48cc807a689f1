//! Aggregate run statistics and their JSON rendering.

use std::fmt::Write as _;

use dsnrep_simcore::{StallCause, TrafficClass, VirtualDuration};

use crate::json_escape;
use crate::timeseries::{sparse_hist, sparse_percentile};

/// One row of the traffic-class matrix: a track's packet and byte totals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrackSummary {
    /// Track id.
    pub track: u32,
    /// Display name.
    pub name: String,
    /// Packets sent from this track.
    pub packets: u64,
    /// Bytes per [`TrafficClass`] index.
    pub bytes_by_class: [u64; 3],
}

/// Aggregate statistics for one traced run.
///
/// Produced by [`FlightRecorder::summary`](crate::FlightRecorder::summary)
/// from the recorder's metrics windows; stall attribution lives in each
/// stream's `Clock`, so callers merge it in with
/// [`TraceSummary::set_stalls`] before rendering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// Transactions whose `Txn` span was recorded.
    pub txns: u64,
    /// Commit-latency histogram: bucket `i` counts transactions whose
    /// virtual duration `d` satisfies `floor(log2(d_picos)) == i`.
    pub commit_latency_log2: Vec<u64>,
    /// Per-track traffic-class matrix.
    pub tracks: Vec<TrackSummary>,
    /// The recorder's ring capacity (records per ring).
    pub ring_capacity: u64,
    /// Spans currently held in the ring.
    pub spans_recorded: u64,
    /// Spans dropped because the ring was full.
    pub spans_dropped: u64,
    /// Point events currently held in the ring.
    pub events: u64,
    /// Point events dropped because the ring was full.
    pub events_dropped: u64,
    /// Named per-cause stall totals in picoseconds, one entry per stream
    /// (`(stream_name, breakdown)`), empty until [`set_stalls`] is called.
    ///
    /// [`set_stalls`]: TraceSummary::set_stalls
    pub stall_picos: Vec<(String, [u64; StallCause::COUNT])>,
}

impl TraceSummary {
    /// Records the per-cause stall breakdown of one stream (typically read
    /// off its `Clock::stall_breakdown`). May be called once per stream.
    pub fn set_stalls(&mut self, stream: &str, breakdown: [VirtualDuration; StallCause::COUNT]) {
        let mut picos = [0u64; StallCause::COUNT];
        for (slot, d) in picos.iter_mut().zip(breakdown.iter()) {
            *slot = d.as_picos();
        }
        self.stall_picos.push((stream.to_string(), picos));
    }

    /// The commit-latency percentile at `q` (in `(0, 1]`), as the lower
    /// bound in picoseconds of the log₂ bucket containing the `q`-th
    /// quantile transaction (the same `ge_picos` value the JSON reports).
    /// `None` when no transaction was recorded.
    ///
    /// The histogram is log-bucketed, so the answer is exact to within one
    /// power of two — enough to compare tail behaviour across runs without
    /// keeping every sample.
    pub fn commit_latency_percentile(&self, q: f64) -> Option<u64> {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1], got {q}");
        sparse_percentile(&sparse_hist(&self.commit_latency_log2), q)
    }

    /// The (p50, p95, p99) commit-latency percentiles, or `None` when no
    /// transaction was recorded. See
    /// [`TraceSummary::commit_latency_percentile`] for the bucket
    /// semantics.
    pub fn commit_latency_percentiles(&self) -> Option<(u64, u64, u64)> {
        Some((
            self.commit_latency_percentile(0.50)?,
            self.commit_latency_percentile(0.95)?,
            self.commit_latency_percentile(0.99)?,
        ))
    }

    /// Renders the summary as one pretty-printed JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(
            out,
            "  \"schema_version\": {},",
            crate::TRACE_SCHEMA_VERSION
        );
        let _ = writeln!(out, "  \"txns\": {},", self.txns);
        out.push_str("  \"commit_latency_log2\": [");
        let mut first = true;
        for (bucket, &count) in self.commit_latency_log2.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"ge_picos\": {}, \"count\": {count}}}",
                1u128 << bucket
            );
        }
        out.push_str("\n  ],\n");
        if let Some((p50, p95, p99)) = self.commit_latency_percentiles() {
            let _ = writeln!(
                out,
                "  \"commit_latency_percentiles\": \
                 {{\"p50_ge_picos\": {p50}, \"p95_ge_picos\": {p95}, \"p99_ge_picos\": {p99}}},"
            );
        }
        out.push_str("  \"tracks\": [");
        for (i, t) in self.tracks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"track\": {}, \"name\": \"{}\", \"packets\": {}, \
                 \"modified_bytes\": {}, \"undo_bytes\": {}, \"meta_bytes\": {}}}",
                t.track,
                json_escape(&t.name),
                t.packets,
                t.bytes_by_class[TrafficClass::Modified.index()],
                t.bytes_by_class[TrafficClass::Undo.index()],
                t.bytes_by_class[TrafficClass::Meta.index()]
            );
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"stalls\": {");
        for (i, (stream, picos)) in self.stall_picos.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {{", json_escape(stream));
            let mut total = 0u64;
            for cause in StallCause::ALL {
                let _ = write!(out, "\"{}\": {}, ", cause.name(), picos[cause.index()]);
                total += picos[cause.index()];
            }
            let _ = write!(out, "\"total\": {total}}}");
        }
        out.push_str("\n  },\n");
        let _ = writeln!(
            out,
            "  \"ring\": {{\"capacity\": {}, \"spans\": {}, \"dropped_spans\": {}, \
             \"events\": {}, \"dropped_events\": {}}}",
            self.ring_capacity,
            self.spans_recorded,
            self.spans_dropped,
            self.events,
            self.events_dropped
        );
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::FlightRecorder;
    use crate::tracer::{PacketLife, Phase, Tracer};
    use dsnrep_simcore::VirtualInstant;

    #[test]
    fn summary_json_contains_the_expected_sections() {
        let rec = FlightRecorder::new();
        rec.set_track_name(0, "primary");
        rec.span(
            0,
            Phase::Txn,
            VirtualInstant::from_picos(0),
            VirtualInstant::from_picos(1024),
        );
        rec.packet_life(
            0,
            PacketLife::sent(VirtualInstant::from_picos(5), [32, 0, 4]),
        );
        let mut s = rec.summary();
        let mut breakdown = [VirtualDuration::ZERO; StallCause::COUNT];
        breakdown[StallCause::PostedWindow.index()] = VirtualDuration::from_picos(11);
        breakdown[StallCause::TwoSafe.index()] = VirtualDuration::from_picos(31);
        s.set_stalls("primary", breakdown);
        let json = s.to_json();
        assert!(json.contains("\"txns\": 1"));
        assert!(json.contains("\"ge_picos\": 1024, \"count\": 1"));
        assert!(json.contains("\"name\": \"primary\""));
        assert!(json.contains("\"modified_bytes\": 32"));
        assert!(json.contains("\"meta_bytes\": 4"));
        assert!(json.contains("\"posted_window\": 11"));
        assert!(json.contains("\"two_safe\": 31"));
        assert!(json.contains("\"total\": 42"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    fn summary_with_histogram(buckets: &[(usize, u64)]) -> TraceSummary {
        let mut s = FlightRecorder::new().summary();
        for &(bucket, count) in buckets {
            s.commit_latency_log2[bucket] = count;
        }
        s.txns = s
            .commit_latency_log2
            .iter()
            .fold(0u64, |acc, &c| acc.saturating_add(c));
        s
    }

    #[test]
    fn percentiles_of_empty_histogram_are_none() {
        let s = summary_with_histogram(&[]);
        assert_eq!(s.commit_latency_percentile(0.5), None);
        assert_eq!(s.commit_latency_percentiles(), None);
    }

    #[test]
    fn percentiles_of_single_bucket_all_land_there() {
        let s = summary_with_histogram(&[(10, 1_000)]);
        assert_eq!(s.commit_latency_percentiles(), Some((1024, 1024, 1024)));
    }

    #[test]
    fn percentiles_split_across_buckets() {
        // 90 txns in bucket 8, 9 in bucket 12, 1 in bucket 20.
        let s = summary_with_histogram(&[(8, 90), (12, 9), (20, 1)]);
        assert_eq!(s.commit_latency_percentile(0.50), Some(1 << 8));
        assert_eq!(s.commit_latency_percentile(0.90), Some(1 << 8));
        assert_eq!(s.commit_latency_percentile(0.95), Some(1 << 12));
        assert_eq!(s.commit_latency_percentile(0.99), Some(1 << 12));
        assert_eq!(s.commit_latency_percentile(1.0), Some(1 << 20));
    }

    #[test]
    fn percentiles_survive_saturating_counts() {
        // Two buckets whose counts sum past u64::MAX: the u128 walk must
        // not overflow, and the top bucket's lower bound must not shift.
        let s = summary_with_histogram(&[(0, u64::MAX), (63, u64::MAX)]);
        assert_eq!(s.commit_latency_percentile(0.25), Some(1));
        assert_eq!(s.commit_latency_percentile(0.75), Some(1u64 << 63));
        assert_eq!(s.commit_latency_percentile(1.0), Some(1u64 << 63));
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0, 1]")]
    fn percentile_rejects_out_of_range_quantile() {
        let s = summary_with_histogram(&[(0, 1)]);
        let _ = s.commit_latency_percentile(0.0);
    }

    #[test]
    fn json_reports_schema_ring_and_percentiles() {
        let rec = FlightRecorder::with_capacity(2);
        for i in 0..3u64 {
            rec.span(
                0,
                Phase::Txn,
                VirtualInstant::from_picos(0),
                VirtualInstant::from_picos(1024 + i),
            );
            rec.instant(
                0,
                crate::TraceEventKind::PrimaryCrash,
                VirtualInstant::from_picos(i),
                0,
            );
        }
        let json = rec.summary().to_json();
        assert!(json.contains(&format!(
            "\"schema_version\": {}",
            crate::TRACE_SCHEMA_VERSION
        )));
        assert!(json.contains(
            "\"commit_latency_percentiles\": \
             {\"p50_ge_picos\": 1024, \"p95_ge_picos\": 1024, \"p99_ge_picos\": 1024}"
        ));
        assert!(json.contains(
            "\"ring\": {\"capacity\": 2, \"spans\": 2, \"dropped_spans\": 1, \
             \"events\": 2, \"dropped_events\": 1}"
        ));
    }

    #[test]
    fn stall_causes_round_trip_through_names() {
        // The JSON keys come straight from StallCause::name; make sure
        // every cause appears exactly once per stream.
        let rec = FlightRecorder::new();
        let mut s = rec.summary();
        s.set_stalls("s0", [VirtualDuration::ZERO; StallCause::COUNT]);
        let json = s.to_json();
        for cause in StallCause::ALL {
            assert_eq!(
                json.matches(&format!("\"{}\"", cause.name())).count(),
                1,
                "cause {cause} missing or duplicated"
            );
        }
    }
}

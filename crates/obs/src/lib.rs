//! Virtual-time observability for the replication pipeline.
//!
//! The paper argues through *breakdowns*: Tables 2/5/7 split write-through
//! traffic into modified/undo/meta bytes, and Section 5 explains throughput
//! differences by where a stream's time goes — link arbitration, posted-write
//! flow control, write-buffer flushes. This crate is the layer that lets the
//! simulator answer the same questions on any run, without re-running
//! ablations blind:
//!
//! * [`Tracer`] — the probe interface threaded (as a type parameter) through
//!   `Machine`, the engines, the ports and the clusters. Its default impl is
//!   a no-op on every method, so the [`NullTracer`] monomorphizes away and a
//!   production run pays nothing.
//! * [`FlightRecorder`] — a cheap-to-clone handle over bounded in-memory
//!   rings of virtual-time [`SpanRecord`]s, [`InstantRecord`]s and
//!   [`PacketLife`]s. It keeps no totals of its own: every count it exports
//!   lives in one [`MetricsHub`].
//! * [`MetricsHub`] — named per-track [`Metric`] counters and gauges folded
//!   into fixed-width virtual-time windows, with per-window log2 commit- and
//!   read-latency histograms. Snapshots export as a [`TimeSeries`] (goodput
//!   curves, per-[`TrafficClass`](dsnrep_simcore::TrafficClass) SAN
//!   traffic, stall picoseconds and gauge levels over virtual time); the
//!   summary's and the attribution tree's counts are its windows summed.
//! * [`Tracer::packet_life`] — the one packet probe: a port or a replica
//!   set's fabric hop reports each SAN packet once, and the recorder both
//!   counts it and keeps its lifecycle for flows and the critical path.
//! * [`chrome_trace_json`](FlightRecorder::chrome_trace_json) /
//!   [`events_jsonl`](FlightRecorder::events_jsonl) /
//!   [`summary`](FlightRecorder::summary) /
//!   [`timeseries`](FlightRecorder::timeseries) — the export shapes: a
//!   Chrome `trace_event` file Perfetto loads directly (phase spans plus
//!   `"ph":"C"` counter tracks), a line-per-event JSONL stream, aggregate
//!   summary stats, and the windowed time-series (see `OBSERVABILITY.md`
//!   at the repository root).
//!
//! # Examples
//!
//! ```
//! use dsnrep_obs::{FlightRecorder, Phase, Tracer};
//! use dsnrep_simcore::VirtualInstant;
//!
//! let rec = FlightRecorder::new();
//! rec.span(
//!     dsnrep_obs::TRACK_PRIMARY,
//!     Phase::Commit,
//!     VirtualInstant::from_picos(1_000),
//!     VirtualInstant::from_picos(5_000),
//! );
//! assert_eq!(rec.span_count(), 1);
//! assert!(rec.chrome_trace_json().contains("\"commit\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod attribution;
mod chrome;
mod critpath;
mod recorder;
mod summary;
mod timeseries;
mod tracer;

pub use attribution::{
    AttributionTree, ClockAttribution, ConservationError, NodeAttribution, PhaseProfile,
};
pub use critpath::{fold_segments, CriticalPathReport, NodeCriticalPath, Segment, TxnPath};
pub use recorder::{ApplyRecord, FlightRecorder, InstantRecord, SpanRecord};
pub use summary::{TraceSummary, TrackSummary};
pub use timeseries::{MetricsHub, TimeSeries, TrackTimeSeries, DEFAULT_WINDOW_PICOS};
pub use tracer::{
    Metric, MetricKind, NullTracer, PacketLife, Phase, TraceEventKind, Tracer, NO_TXN,
};

/// Conventional track id for a cluster's primary node.
pub const TRACK_PRIMARY: u32 = 0;

/// Conventional track id for a cluster's (first) backup node.
pub const TRACK_BACKUP: u32 = 1;

/// Schema version stamped into every trace artifact this crate renders
/// (`summary.json`, the `events.jsonl` header line, `attribution.json`,
/// `timeseries.json`, `critical_path.json`).
///
/// Bumped whenever a key is renamed, removed, or changes meaning, so
/// `simdiff` can refuse to compare artifacts whose shapes diverged instead
/// of silently misreading them (the same contract `simperf` keeps with its
/// own `schema_version`). Version 2: causal tracing — new link metrics in
/// `timeseries.json`, the `apply` phase, and the `critical_path.json`
/// artifact.
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// Escapes a string for inclusion inside a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

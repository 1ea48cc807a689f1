//! Chrome `trace_event` and JSONL export.
//!
//! The Chrome format is the JSON Array / JSON Object flavour documented in
//! the Trace Event Format spec and understood by Perfetto's legacy importer
//! (`ui.perfetto.dev` → "Open trace file"). We emit:
//!
//! * one `M` (metadata) event per track naming its "thread",
//! * one `X` (complete) event per recorded span, `ts`/`dur` in microseconds
//!   of **virtual** time,
//! * one `i` (instant) event per point record, global scope,
//! * one `C` (counter) event per metrics window per nonzero series, so the
//!   windowed counters and gauges (goodput, stall picoseconds, in-flight
//!   transactions, per-window latency percentiles) render as counter
//!   tracks beside the phase spans — plus final `ring_dropped_*` samples
//!   so a truncated trace is self-describing.
//!
//! All JSON is hand-rolled: the workspace is offline and the values are
//! simple enough that a serializer would be pure dependency weight.

use std::fmt::Write as _;

use std::collections::BTreeMap;

use crate::json_escape;
use crate::recorder::FlightRecorder;
use crate::tracer::{Metric, Phase, NO_TXN};

/// Synthetic Perfetto "thread" id offset for per-sender SAN link tracks:
/// packet lifecycle spans for sender `track` render on
/// `SAN_TID_BASE + track`, visually between the node tracks (small tids)
/// and clearly not a simulated node.
const SAN_TID_BASE: u64 = 1000;

/// Virtual picoseconds to Chrome's microsecond `ts` unit, with sub-µs
/// precision kept as a fraction (Perfetto accepts fractional ts).
fn picos_to_us(picos: u64) -> String {
    let whole = picos / 1_000_000;
    let frac = picos % 1_000_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        // Up to six fractional digits (picosecond precision), trimmed.
        let s = format!("{whole}.{frac:06}");
        s.trim_end_matches('0').to_string()
    }
}

impl FlightRecorder {
    /// Renders the ring as a Chrome `trace_event` JSON object, loadable in
    /// Perfetto. Timestamps are **virtual** microseconds since the epoch.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let ts = self.timeseries();
        for track in self.known_tracks(&ts) {
            let name = json_escape(&self.track_name(track));
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{track},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            );
        }
        self.with_inner_records(|spans, instants| {
            for s in spans {
                if !first {
                    out.push(',');
                }
                first = false;
                let ts = picos_to_us(s.start.as_picos());
                let dur = picos_to_us(s.end.duration_since(s.start).as_picos());
                let _ = write!(
                    out,
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"cat\":\"phase\",\
                     \"name\":\"{}\",\"ts\":{ts},\"dur\":{dur}}}",
                    s.track,
                    s.phase.name()
                );
            }
            for i in instants {
                if !first {
                    out.push(',');
                }
                first = false;
                let ts = picos_to_us(i.at.as_picos());
                let _ = write!(
                    out,
                    "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"cat\":\"event\",\
                     \"name\":\"{}\",\"ts\":{ts},\"s\":\"g\",\
                     \"args\":{{\"arg\":{}}}}}",
                    i.track,
                    i.kind.name(),
                    i.arg
                );
            }
        });
        // Causal layer: per-packet lifecycle spans on synthetic SAN link
        // tracks, zero-duration apply spans on the receiving track, and
        // `s`/`t`/`f` flow events stitching each transaction's span to the
        // packets that carried its traffic and to their backup-side
        // applies. Flows are emitted only when both anchors exist in the
        // ring (the enclosing `txn` span and the apply record), so every
        // flow start has exactly one finish even under ring pressure or a
        // crash that voids in-flight packets.
        let lives = self.packet_lives();
        if !lives.is_empty() {
            let mut san_tracks: Vec<u32> = lives.iter().map(|(t, _)| *t).collect();
            san_tracks.sort_unstable();
            san_tracks.dedup();
            for track in san_tracks {
                let name = json_escape(&format!("san:{}", self.track_name(track)));
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{name}\"}}}}",
                    SAN_TID_BASE + track as u64
                );
            }
            let applied_by_id: BTreeMap<u64, crate::recorder::ApplyRecord> =
                self.applies().into_iter().map(|a| (a.id, a)).collect();
            // Txn spans per track (sorted) so a flow start is only emitted
            // when its enclosing span actually survived in the ring.
            let mut txn_spans: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
            self.with_inner_records(|spans, _| {
                for s in spans {
                    if s.phase == Phase::Txn {
                        txn_spans
                            .entry(s.track)
                            .or_default()
                            .push((s.start.as_picos(), s.end.as_picos()));
                    }
                }
            });
            for v in txn_spans.values_mut() {
                v.sort_unstable();
            }
            let enclosed_in_txn = |track: u32, at: u64| -> bool {
                txn_spans.get(&track).is_some_and(|v| {
                    let i = v.partition_point(|&(start, _)| start <= at);
                    i > 0 && v[i - 1].1 >= at
                })
            };
            for (track, life) in &lives {
                let san_tid = SAN_TID_BASE + *track as u64;
                if life.start > life.ready {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{san_tid},\"cat\":\"san\",\
                         \"name\":\"queue\",\"ts\":{},\"dur\":{},\
                         \"args\":{{\"id\":{}}}}}",
                        picos_to_us(life.ready.as_picos()),
                        picos_to_us(life.queue_wait().as_picos()),
                        life.id
                    );
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{san_tid},\"cat\":\"san\",\
                     \"name\":\"pkt\",\"ts\":{},\"dur\":{},\
                     \"args\":{{\"id\":{},\"bytes\":{}}}}}",
                    picos_to_us(life.start.as_picos()),
                    picos_to_us(life.transit().as_picos()),
                    life.id,
                    life.bytes()
                );
                let Some(apply) = applied_by_id.get(&life.id) else {
                    continue; // crash-lost: no apply span, no flow
                };
                if !first {
                    out.push(',');
                }
                first = false;
                let apply_ts = picos_to_us(apply.at.as_picos());
                let _ = write!(
                    out,
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"cat\":\"san\",\
                     \"name\":\"apply\",\"ts\":{apply_ts},\"dur\":0,\
                     \"args\":{{\"id\":{}}}}}",
                    apply.track, life.id
                );
                if life.txn == NO_TXN || !enclosed_in_txn(*track, life.ready.as_picos()) {
                    continue;
                }
                let _ = write!(
                    out,
                    ",{{\"ph\":\"s\",\"pid\":0,\"tid\":{},\"cat\":\"flow\",\
                     \"name\":\"txn\",\"id\":{},\"ts\":{}}}",
                    track,
                    life.id,
                    picos_to_us(life.ready.as_picos())
                );
                let _ = write!(
                    out,
                    ",{{\"ph\":\"t\",\"pid\":0,\"tid\":{san_tid},\"cat\":\"flow\",\
                     \"name\":\"txn\",\"id\":{},\"ts\":{}}}",
                    life.id,
                    picos_to_us(life.start.as_picos())
                );
                let _ = write!(
                    out,
                    ",{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":{},\"cat\":\"flow\",\
                     \"name\":\"txn\",\"id\":{},\"ts\":{apply_ts}}}",
                    apply.track, life.id
                );
            }
        }
        let mut counter = |track: u32, name: &str, at_picos: u64, value: u64| {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"ph\":\"C\",\"pid\":0,\"tid\":{track},\"name\":\"{name}\",\
                 \"ts\":{},\"args\":{{\"value\":{value}}}}}",
                picos_to_us(at_picos)
            );
        };
        let mut end_picos = 0u64;
        for (idx, t) in ts.tracks.iter().enumerate() {
            let label = json_escape(&t.name);
            end_picos = end_picos.max((t.first_window + t.windows() as u64) * ts.window_picos);
            for m in Metric::ALL {
                // An all-zero series would only be counter-track noise.
                if t.values.iter().all(|v| v[m.index()] == 0) {
                    continue;
                }
                for (w, v) in t.values.iter().enumerate() {
                    let at = (t.first_window + w as u64) * ts.window_picos;
                    counter(t.track, &format!("{label}.{m}"), at, v[m.index()]);
                }
            }
            for (w, pcts) in ts.window_percentiles(idx).iter().enumerate() {
                let Some((p50, p95, p99)) = pcts else {
                    continue;
                };
                let at = (t.first_window + w as u64) * ts.window_picos;
                counter(t.track, &format!("{label}.latency_p50_ge_picos"), at, *p50);
                counter(t.track, &format!("{label}.latency_p95_ge_picos"), at, *p95);
                counter(t.track, &format!("{label}.latency_p99_ge_picos"), at, *p99);
            }
        }
        // Final drop-count samples: a trace whose ring overflowed carries
        // the evidence in-band, where the missing spans would have been.
        if !ts.tracks.is_empty() || self.dropped_spans() > 0 || self.dropped_instants() > 0 {
            counter(0, "ring_dropped_spans", end_picos, self.dropped_spans());
            counter(0, "ring_dropped_events", end_picos, self.dropped_instants());
        }
        out.push_str("]}");
        out
    }

    /// Renders the ring as JSONL: a header line carrying the schema version,
    /// then one JSON object per line, spans first (oldest first), then point
    /// events. Times are virtual picoseconds.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"header\",\"schema_version\":{}}}",
            crate::TRACE_SCHEMA_VERSION
        );
        self.with_inner_records(|spans, instants| {
            for s in spans {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"span\",\"track\":{},\"phase\":\"{}\",\
                     \"start_ps\":{},\"end_ps\":{}}}",
                    s.track,
                    s.phase.name(),
                    s.start.as_picos(),
                    s.end.as_picos()
                );
            }
            for i in instants {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"event\",\"track\":{},\"kind\":\"{}\",\
                     \"at_ps\":{},\"arg\":{}}}",
                    i.track,
                    i.kind.name(),
                    i.at.as_picos(),
                    i.arg
                );
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{Phase, TraceEventKind, Tracer};
    use dsnrep_simcore::VirtualInstant;

    fn at(p: u64) -> VirtualInstant {
        VirtualInstant::from_picos(p)
    }

    #[test]
    fn picos_render_as_fractional_microseconds() {
        assert_eq!(picos_to_us(0), "0");
        assert_eq!(picos_to_us(2_000_000), "2");
        assert_eq!(picos_to_us(1_500_000), "1.5");
        assert_eq!(picos_to_us(1), "0.000001");
    }

    #[test]
    fn chrome_trace_is_wellformed_and_contains_events() {
        let rec = FlightRecorder::new();
        rec.set_track_name(0, "primary");
        rec.span(0, Phase::Txn, at(1_000_000), at(3_000_000));
        rec.instant(0, TraceEventKind::PrimaryCrash, at(2_000_000), 7);
        let json = rec.chrome_trace_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"primary\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"txn\",\"ts\":1,\"dur\":2"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"primary_crash\""));
        // Balanced braces and brackets (cheap well-formedness check).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn jsonl_has_one_object_per_line() {
        let rec = FlightRecorder::new();
        rec.span(0, Phase::Commit, at(0), at(10));
        rec.instant(1, TraceEventKind::FailoverComplete, at(20), 3);
        let jsonl = rec.events_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"header\""));
        assert!(lines[0].contains(&format!(
            "\"schema_version\":{}",
            crate::TRACE_SCHEMA_VERSION
        )));
        assert!(lines[1].contains("\"type\":\"span\""));
        assert!(lines[1].contains("\"phase\":\"commit\""));
        assert!(lines[2].contains("\"type\":\"event\""));
        assert!(lines[2].contains("\"kind\":\"failover_complete\""));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn causal_layer_renders_san_spans_applies_and_flows() {
        use crate::tracer::{PacketLife, NO_TXN};
        let rec = FlightRecorder::new();
        rec.set_track_name(0, "primary");
        rec.set_track_name(1, "backup");
        rec.span(0, Phase::Txn, at(0), at(10_000_000));
        let life = PacketLife {
            id: 42,
            txn: 7,
            ready: at(1_000_000),
            start: at(2_000_000),
            done: at(3_000_000),
            delivered: at(4_000_000),
            class_bytes: [64, 0, 0],
        };
        rec.packet_life(0, life);
        rec.packet_applied(1, 42, 7, at(4_000_000));
        // An untagged (outside-txn) packet: lifecycle only, no flow.
        rec.packet_life(
            0,
            PacketLife {
                id: 43,
                txn: NO_TXN,
                ready: at(5_000_000),
                start: at(5_000_000),
                done: at(5_500_000),
                delivered: at(6_000_000),
                class_bytes: [0, 0, 16],
            },
        );
        rec.packet_applied(1, 43, NO_TXN, at(6_000_000));
        // A crash-lost packet: no apply record, so no apply span, no flow.
        rec.packet_life(
            0,
            PacketLife {
                id: 44,
                txn: 7,
                ready: at(7_000_000),
                start: at(7_000_000),
                done: at(7_500_000),
                delivered: at(8_000_000),
                class_bytes: [32, 0, 0],
            },
        );
        let json = rec.chrome_trace_json();
        assert!(json.contains("\"name\":\"san:primary\""));
        assert!(json.contains("\"name\":\"queue\"")); // id 42 waited 1 us
        assert_eq!(json.matches("\"name\":\"pkt\"").count(), 3);
        assert_eq!(json.matches("\"name\":\"apply\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"t\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1);
        assert!(json.contains(
            "\"ph\":\"s\",\"pid\":0,\"tid\":0,\"cat\":\"flow\",\"name\":\"txn\",\"id\":42,\"ts\":1"
        ));
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":1,"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn flows_are_suppressed_when_the_enclosing_txn_span_is_missing() {
        use crate::tracer::PacketLife;
        let rec = FlightRecorder::new();
        // Tagged packet and apply, but no Txn span recorded at all.
        rec.packet_life(
            0,
            PacketLife {
                id: 1,
                txn: 5,
                ready: at(1_000),
                start: at(1_000),
                done: at(2_000),
                delivered: at(3_000),
                class_bytes: [8, 0, 0],
            },
        );
        rec.packet_applied(1, 1, 5, at(3_000));
        let json = rec.chrome_trace_json();
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 0);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 0);
        assert_eq!(json.matches("\"name\":\"apply\"").count(), 1);
    }

    #[test]
    fn empty_recorder_still_emits_valid_skeleton() {
        let rec = FlightRecorder::new();
        let json = rec.chrome_trace_json();
        assert_eq!(json, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}");
        assert_eq!(
            rec.events_jsonl(),
            format!(
                "{{\"type\":\"header\",\"schema_version\":{}}}\n",
                crate::TRACE_SCHEMA_VERSION
            )
        );
    }
}

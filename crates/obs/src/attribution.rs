//! The attribution engine: folds a run's clocks, recorder counters and
//! phase spans into a per-node tree that explains *where the picoseconds
//! went* — and proves it lost none of them.
//!
//! The paper argues through exactly this breakdown (Section 5, Tables 2/5/7):
//! V3 beats V0 not because it is "faster" but because its cells contain less
//! SAN-issue time and fewer posted-window stalls. The tree makes that the
//! repo's standing output: every node's total virtual time splits into busy
//! time per [`BusyCause`] (CPU issue, cache service, SAN payload issue per
//! traffic class) and stall time per [`StallCause`], and
//! [`AttributionTree::verify_conservation`] checks the leaves sum *exactly*
//! to the clock's elapsed time — a run whose attribution does not conserve
//! is a bug, not a rounding artifact.
//!
//! The observed per-phase profile (from the flight-recorder ring) rides
//! along for explanation, but is **not** part of the conservation proof:
//! the ring drops oldest records under pressure, so phases are labelled
//! partial whenever spans were dropped.

use std::fmt;
use std::fmt::Write as _;

use dsnrep_simcore::{BusyCause, StallCause, TrafficClass, VirtualDuration};

use crate::json_escape;
use crate::recorder::FlightRecorder;
use crate::tracer::Phase;
use crate::TRACE_SCHEMA_VERSION;

/// One clock's fully attributed virtual time, in picoseconds.
///
/// Conservation invariant (checked, not assumed):
/// `elapsed_picos == Σ busy_picos + Σ stall_picos`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClockAttribution {
    /// Virtual time elapsed since the clock's origin.
    pub elapsed_picos: u64,
    /// Busy time per [`BusyCause::index`].
    pub busy_picos: [u64; BusyCause::COUNT],
    /// Stall time per [`StallCause::index`].
    pub stall_picos: [u64; StallCause::COUNT],
}

impl ClockAttribution {
    /// Builds from duration-typed breakdowns (e.g. a machine's stats).
    pub fn from_durations(
        elapsed: VirtualDuration,
        busy: [VirtualDuration; BusyCause::COUNT],
        stalls: [VirtualDuration; StallCause::COUNT],
    ) -> Self {
        let mut a = ClockAttribution {
            elapsed_picos: elapsed.as_picos(),
            ..Default::default()
        };
        for (slot, d) in a.busy_picos.iter_mut().zip(busy) {
            *slot = d.as_picos();
        }
        for (slot, d) in a.stall_picos.iter_mut().zip(stalls) {
            *slot = d.as_picos();
        }
        a
    }

    /// Sum of the busy leaves.
    pub fn busy_total(&self) -> u64 {
        self.busy_picos.iter().sum()
    }

    /// Sum of the stall leaves.
    pub fn stall_total(&self) -> u64 {
        self.stall_picos.iter().sum()
    }

    /// Sum of every leaf (what must equal `elapsed_picos`).
    pub fn leaf_total(&self) -> u64 {
        self.busy_total() + self.stall_total()
    }
}

/// Observed time in one pipeline phase, folded from the recorder's ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseProfile {
    /// The phase.
    pub phase: Phase,
    /// Summed span duration, picoseconds.
    pub picos: u64,
    /// Number of spans observed.
    pub count: u64,
}

/// One simulated node's attribution: the clock tree plus the traffic-class
/// counters and the observed phase profile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeAttribution {
    /// Stream name (`"primary"`, `"backup"`, ...).
    pub stream: String,
    /// The recorder track this node reported as.
    pub track: u32,
    /// The attributed clock.
    pub clock: ClockAttribution,
    /// SAN packets sent by this node.
    pub packets: u64,
    /// Payload bytes per [`TrafficClass`] index.
    pub bytes_by_class: [u64; 3],
    /// Injected faults that fired on this node
    /// ([`TraceEventKind::FaultInjected`](crate::TraceEventKind::FaultInjected)).
    pub faults: u64,
    /// Observed per-phase time (ring contents; informational).
    pub phases: Vec<PhaseProfile>,
    /// `true` when the ring dropped spans, i.e. `phases` under-counts.
    pub phases_partial: bool,
}

/// A conservation failure: some node's leaves do not sum to its elapsed
/// virtual time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConservationError {
    /// Which node failed.
    pub stream: String,
    /// The clock's elapsed picoseconds.
    pub elapsed_picos: u64,
    /// What the leaves summed to instead.
    pub attributed_picos: u64,
}

impl fmt::Display for ConservationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "attribution for '{}' does not conserve virtual time: \
             elapsed {} ps but leaves sum to {} ps (delta {})",
            self.stream,
            self.elapsed_picos,
            self.attributed_picos,
            self.attributed_picos as i128 - self.elapsed_picos as i128
        )
    }
}

impl std::error::Error for ConservationError {}

/// The per-(experiment, engine-version) attribution tree over every node
/// of a run.
///
/// # Examples
///
/// ```
/// use dsnrep_obs::{AttributionTree, ClockAttribution};
///
/// let mut tree = AttributionTree::new("passive-v3/debit-credit", "v3");
/// let mut clock = ClockAttribution::default();
/// clock.elapsed_picos = 30;
/// clock.busy_picos[0] = 10;
/// clock.stall_picos[2] = 20;
/// tree.add_node("primary", 0, clock);
/// tree.verify_conservation().unwrap();
/// assert!(tree.to_json().contains("\"stream\": \"primary\""));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttributionTree {
    /// The experiment cell this run corresponds to.
    pub experiment: String,
    /// The engine version label (`"v0"`..`"v3"`, `"active"`).
    pub engine_version: String,
    /// One entry per simulated node.
    pub nodes: Vec<NodeAttribution>,
}

impl AttributionTree {
    /// Creates an empty tree for one experiment cell.
    pub fn new(experiment: &str, engine_version: &str) -> Self {
        AttributionTree {
            experiment: experiment.to_string(),
            engine_version: engine_version.to_string(),
            nodes: Vec::new(),
        }
    }

    /// Adds a node from its attributed clock. Traffic counters and the
    /// phase profile are zero until [`AttributionTree::fold_recorder`].
    pub fn add_node(&mut self, stream: &str, track: u32, clock: ClockAttribution) {
        self.nodes.push(NodeAttribution {
            stream: stream.to_string(),
            track,
            clock,
            packets: 0,
            bytes_by_class: [0; 3],
            faults: 0,
            phases: Vec::new(),
            phases_partial: false,
        });
    }

    /// Folds a recorder into the tree: per-track packet/byte totals (its
    /// metrics windows summed) and the observed phase profile land on the
    /// node with the matching track.
    pub fn fold_recorder(&mut self, recorder: &FlightRecorder) {
        let partial = recorder.dropped_spans() > 0;
        let faults = recorder.instants_of(crate::TraceEventKind::FaultInjected);
        let ts = recorder.timeseries();
        for node in &mut self.nodes {
            (node.packets, node.bytes_by_class) = ts.traffic(node.track);
            node.faults = faults.iter().filter(|i| i.track == node.track).count() as u64;
            let mut picos = [0u64; Phase::ALL.len()];
            let mut count = [0u64; Phase::ALL.len()];
            for span in recorder.spans() {
                if span.track != node.track {
                    continue;
                }
                let idx = Phase::ALL
                    .iter()
                    .position(|p| *p == span.phase)
                    .expect("Phase::ALL is exhaustive");
                picos[idx] += span.end.duration_since(span.start).as_picos();
                count[idx] += 1;
            }
            node.phases = Phase::ALL
                .iter()
                .enumerate()
                .filter(|(i, _)| count[*i] > 0)
                .map(|(i, p)| PhaseProfile {
                    phase: *p,
                    picos: picos[i],
                    count: count[i],
                })
                .collect();
            node.phases_partial = partial;
        }
    }

    /// Total attributed virtual time across all nodes.
    pub fn total_picos(&self) -> u64 {
        self.nodes.iter().map(|n| n.clock.elapsed_picos).sum()
    }

    /// Checks that every node's leaves sum exactly to its elapsed time.
    ///
    /// # Errors
    ///
    /// Returns the first node whose leaves do not conserve.
    pub fn verify_conservation(&self) -> Result<(), ConservationError> {
        for node in &self.nodes {
            let attributed = node.clock.leaf_total();
            if attributed != node.clock.elapsed_picos {
                return Err(ConservationError {
                    stream: node.stream.clone(),
                    elapsed_picos: node.clock.elapsed_picos,
                    attributed_picos: attributed,
                });
            }
        }
        Ok(())
    }

    /// Renders the tree as one pretty-printed JSON object (the
    /// `attribution.json` artifact `simdiff` consumes).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema_version\": {TRACE_SCHEMA_VERSION},");
        let _ = writeln!(
            out,
            "  \"experiment\": \"{}\",",
            json_escape(&self.experiment)
        );
        let _ = writeln!(
            out,
            "  \"engine_version\": \"{}\",",
            json_escape(&self.engine_version)
        );
        out.push_str("  \"nodes\": [");
        for (i, node) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            let _ = writeln!(out, "      \"stream\": \"{}\",", json_escape(&node.stream));
            let _ = writeln!(out, "      \"track\": {},", node.track);
            let _ = writeln!(out, "      \"total_picos\": {},", node.clock.elapsed_picos);
            out.push_str("      \"busy\": {");
            for cause in BusyCause::ALL {
                let _ = write!(
                    out,
                    "\"{}\": {}, ",
                    cause.name(),
                    node.clock.busy_picos[cause.index()]
                );
            }
            let _ = writeln!(out, "\"total\": {}}},", node.clock.busy_total());
            out.push_str("      \"stalls\": {");
            for cause in StallCause::ALL {
                let _ = write!(
                    out,
                    "\"{}\": {}, ",
                    cause.name(),
                    node.clock.stall_picos[cause.index()]
                );
            }
            let _ = writeln!(out, "\"total\": {}}},", node.clock.stall_total());
            let _ = writeln!(
                out,
                "      \"traffic\": {{\"packets\": {}, \"modified_bytes\": {}, \
                 \"undo_bytes\": {}, \"meta_bytes\": {}}},",
                node.packets,
                node.bytes_by_class[TrafficClass::Modified.index()],
                node.bytes_by_class[TrafficClass::Undo.index()],
                node.bytes_by_class[TrafficClass::Meta.index()]
            );
            let _ = writeln!(out, "      \"faults\": {},", node.faults);
            let _ = write!(
                out,
                "      \"phases\": {{\"observed_complete\": {}",
                !node.phases_partial
            );
            for p in &node.phases {
                let _ = write!(
                    out,
                    ", \"{}\": {{\"picos\": {}, \"count\": {}}}",
                    p.phase.name(),
                    p.picos,
                    p.count
                );
            }
            out.push_str("}\n    }");
        }
        out.push_str("\n  ]\n}");
        out
    }

    /// Renders the tree as indented text for terminal reports.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "attribution: {} (engine {})",
            self.experiment, self.engine_version
        );
        for node in &self.nodes {
            let total = node.clock.elapsed_picos;
            let _ = writeln!(out, "{}: total {}", node.stream, fmt_picos(total));
            let busy = node.clock.busy_total();
            let _ = writeln!(out, "  busy {} ({})", fmt_picos(busy), pct(busy, total));
            for cause in BusyCause::ALL {
                let v = node.clock.busy_picos[cause.index()];
                if v > 0 {
                    let _ = writeln!(
                        out,
                        "    {:<14} {} ({})",
                        cause.name(),
                        fmt_picos(v),
                        pct(v, total)
                    );
                }
            }
            let stalled = node.clock.stall_total();
            let _ = writeln!(
                out,
                "  stalled {} ({})",
                fmt_picos(stalled),
                pct(stalled, total)
            );
            for cause in StallCause::ALL {
                let v = node.clock.stall_picos[cause.index()];
                if v > 0 {
                    let _ = writeln!(
                        out,
                        "    {:<14} {} ({})",
                        cause.name(),
                        fmt_picos(v),
                        pct(v, total)
                    );
                }
            }
            let bytes: u64 = node.bytes_by_class.iter().sum();
            let _ = writeln!(
                out,
                "  traffic: {} packets, {} bytes (modified {}, undo {}, meta {})",
                node.packets,
                bytes,
                node.bytes_by_class[TrafficClass::Modified.index()],
                node.bytes_by_class[TrafficClass::Undo.index()],
                node.bytes_by_class[TrafficClass::Meta.index()]
            );
            if node.faults > 0 {
                let _ = writeln!(out, "  injected faults fired: {}", node.faults);
            }
            if !node.phases.is_empty() {
                let qualifier = if node.phases_partial {
                    " (partial: ring dropped spans)"
                } else {
                    ""
                };
                let _ = writeln!(out, "  observed phases{qualifier}:");
                for p in &node.phases {
                    let _ = writeln!(
                        out,
                        "    {:<14} {} x{}",
                        p.phase.name(),
                        fmt_picos(p.picos),
                        p.count
                    );
                }
            }
        }
        out
    }
}

/// Picoseconds as engineering-friendly text (ms/us/ns granularity).
fn fmt_picos(picos: u64) -> String {
    if picos >= 1_000_000_000 {
        format!("{:.3} ms", picos as f64 / 1e9)
    } else if picos >= 1_000_000 {
        format!("{:.3} us", picos as f64 / 1e6)
    } else if picos >= 1_000 {
        format!("{:.3} ns", picos as f64 / 1e3)
    } else {
        format!("{picos} ps")
    }
}

fn pct(part: u64, total: u64) -> String {
    if total == 0 {
        "0.0%".to_string()
    } else {
        format!("{:.1}%", part as f64 * 100.0 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{PacketLife, Tracer};
    use dsnrep_simcore::VirtualInstant;

    fn conserving_clock() -> ClockAttribution {
        let mut c = ClockAttribution {
            elapsed_picos: 100,
            ..Default::default()
        };
        c.busy_picos[BusyCause::CpuIssue.index()] = 40;
        c.busy_picos[BusyCause::Cache.index()] = 25;
        c.busy_picos[BusyCause::SanUndo.index()] = 5;
        c.stall_picos[StallCause::PostedWindow.index()] = 20;
        c.stall_picos[StallCause::TwoSafe.index()] = 10;
        c
    }

    #[test]
    fn conservation_holds_when_leaves_sum() {
        let mut tree = AttributionTree::new("unit", "v3");
        tree.add_node("primary", 0, conserving_clock());
        tree.verify_conservation().unwrap();
        assert_eq!(tree.total_picos(), 100);
    }

    #[test]
    fn conservation_error_reports_the_delta() {
        let mut clock = conserving_clock();
        clock.elapsed_picos = 101; // one picosecond vanished
        let mut tree = AttributionTree::new("unit", "v3");
        tree.add_node("primary", 0, clock);
        let err = tree.verify_conservation().unwrap_err();
        assert_eq!(err.stream, "primary");
        assert_eq!(err.elapsed_picos, 101);
        assert_eq!(err.attributed_picos, 100);
        assert!(err.to_string().contains("delta -1"));
    }

    #[test]
    fn fold_recorder_attaches_traffic_and_phases() {
        let rec = FlightRecorder::new();
        rec.packet_life(0, PacketLife::sent(VirtualInstant::EPOCH, [32, 0, 4]));
        rec.span(
            0,
            Phase::Commit,
            VirtualInstant::from_picos(10),
            VirtualInstant::from_picos(25),
        );
        rec.span(
            1,
            Phase::Recovery,
            VirtualInstant::from_picos(30),
            VirtualInstant::from_picos(90),
        );
        rec.instant(
            1,
            crate::TraceEventKind::FaultInjected,
            VirtualInstant::from_picos(40),
            3,
        );
        let mut tree = AttributionTree::new("unit", "v3");
        tree.add_node("primary", 0, conserving_clock());
        tree.add_node("backup", 1, conserving_clock());
        tree.fold_recorder(&rec);
        let primary = &tree.nodes[0];
        assert_eq!(primary.packets, 1);
        assert_eq!(primary.bytes_by_class, [32, 0, 4]);
        assert_eq!(primary.faults, 0);
        assert_eq!(
            primary.phases,
            vec![PhaseProfile {
                phase: Phase::Commit,
                picos: 15,
                count: 1
            }]
        );
        assert!(!primary.phases_partial);
        let backup = &tree.nodes[1];
        assert_eq!(backup.packets, 0);
        assert_eq!(backup.faults, 1);
        assert_eq!(
            backup.phases,
            vec![PhaseProfile {
                phase: Phase::Recovery,
                picos: 60,
                count: 1
            }]
        );
    }

    #[test]
    fn dropped_spans_mark_phases_partial() {
        let rec = FlightRecorder::with_capacity(1);
        for i in 0..3u64 {
            rec.span(
                0,
                Phase::DbWrite,
                VirtualInstant::from_picos(i * 10),
                VirtualInstant::from_picos(i * 10 + 1),
            );
        }
        let mut tree = AttributionTree::new("unit", "v0");
        tree.add_node("primary", 0, conserving_clock());
        tree.fold_recorder(&rec);
        assert!(tree.nodes[0].phases_partial);
    }

    #[test]
    fn json_is_balanced_and_carries_the_sections() {
        let rec = FlightRecorder::new();
        rec.packet_life(0, PacketLife::sent(VirtualInstant::EPOCH, [8, 0, 0]));
        let mut tree = AttributionTree::new("passive-v3/debit-credit", "v3");
        tree.add_node("primary", 0, conserving_clock());
        tree.fold_recorder(&rec);
        let json = tree.to_json();
        assert!(json.contains("\"schema_version\""));
        assert!(json.contains("\"experiment\": \"passive-v3/debit-credit\""));
        assert!(json.contains("\"cpu_issue\": 40"));
        assert!(json.contains("\"san_undo\": 5"));
        assert!(json.contains("\"posted_window\": 20"));
        assert!(json.contains("\"faults\": 0"));
        assert!(json.contains("\"observed_complete\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn text_render_shows_percentages() {
        let mut tree = AttributionTree::new("unit", "v3");
        tree.add_node("primary", 0, conserving_clock());
        let text = tree.render_text();
        assert!(text.contains("primary: total 100 ps"));
        assert!(text.contains("busy 70 ps (70.0%)"));
        assert!(text.contains("stalled 30 ps (30.0%)"));
        assert!(text.contains("cpu_issue"));
    }

    #[test]
    fn picos_format_scales_units() {
        assert_eq!(fmt_picos(999), "999 ps");
        assert_eq!(fmt_picos(1_500), "1.500 ns");
        assert_eq!(fmt_picos(2_000_000), "2.000 us");
        assert_eq!(fmt_picos(3_000_000_000), "3.000 ms");
    }
}

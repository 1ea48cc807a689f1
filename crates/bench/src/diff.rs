//! The `simdiff` comparison engine: flattens two artifact JSONs into
//! path → leaf maps and applies per-metric tolerance rules.
//!
//! Rules (see OBSERVABILITY.md, "The perf-regression sentinel"):
//!
//! * `schema_version` must be present in both documents and equal —
//!   otherwise the comparison is refused outright ([`DiffOutcome::Refused`]),
//!   because a shape change makes every other delta meaningless.
//! * A leaf whose path contains `wall` measures **host** time. Host time is
//!   noisy by nature, so those leaves are compared with a relative
//!   tolerance band and only ever produce *warnings*, never gate.
//! * Every other numeric leaf is deterministic virtual-time arithmetic and
//!   must match **bit-exactly**; any difference is a gating regression.
//! * A leaf present on one side only is a gating regression too (schema
//!   drift that slipped past `schema_version` is still drift) — except
//!   under a `wall` path, where it is a warning.

use std::fmt::Write as _;

use crate::json::JsonValue;

/// Relative tolerance applied to `wall` metrics before even a warning is
/// raised: host timing on shared CI runners routinely jitters by tens of
/// percent, so the band is generous. Virtual-time metrics get no band, and
/// a wall metric only ever warns, so no run needs a different band.
pub const WALL_TOLERANCE: f64 = 0.5;

/// How one leaf compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaKind {
    /// Bit-exact match (or wall metric within tolerance).
    Unchanged,
    /// Wall metric outside the tolerance band: reported, never gates.
    Warning,
    /// Virtual-time metric changed, appeared, or disappeared: gates.
    Regression,
}

/// One leaf's comparison result.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Dotted path to the leaf (`scenarios.active_redo_ring.virtual.tps`).
    pub path: String,
    /// Verdict for this leaf.
    pub kind: DeltaKind,
    /// Baseline value rendered as text, `-` if absent.
    pub baseline: String,
    /// Current value rendered as text, `-` if absent.
    pub current: String,
    /// Human-readable note (relative change, "missing", ...).
    pub note: String,
}

/// The outcome of comparing two documents.
#[derive(Debug)]
pub enum DiffOutcome {
    /// Comparison ran; deltas (including clean leaves) inside.
    Compared(DiffReport),
    /// Comparison refused (schema mismatch); human-readable reason inside.
    Refused(String),
}

/// Every leaf's verdict, plus the headline counts.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Per-leaf verdicts, in baseline document order.
    pub deltas: Vec<Delta>,
}

impl DiffReport {
    /// Number of gating regressions.
    pub fn regressions(&self) -> usize {
        self.count(DeltaKind::Regression)
    }

    /// Number of non-gating warnings.
    pub fn warnings(&self) -> usize {
        self.count(DeltaKind::Warning)
    }

    fn count(&self, kind: DeltaKind) -> usize {
        self.deltas.iter().filter(|d| d.kind == kind).count()
    }

    /// `true` when nothing gates (warnings allowed).
    pub fn passed(&self) -> bool {
        self.regressions() == 0
    }

    /// Renders the report as markdown: headline, then one table row per
    /// changed leaf. Unchanged leaves are summarized, not listed.
    pub fn render_markdown(&self, baseline_name: &str, current_name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# simdiff: `{current_name}` vs `{baseline_name}`");
        let _ = writeln!(out);
        let unchanged = self.deltas.len() - self.regressions() - self.warnings();
        let _ = writeln!(
            out,
            "**{} regression(s)**, {} warning(s), {} metric(s) unchanged.",
            self.regressions(),
            self.warnings(),
            unchanged
        );
        if self.regressions() == 0 && self.warnings() == 0 {
            return out;
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "| verdict | metric | baseline | current | note |");
        let _ = writeln!(out, "|---|---|---|---|---|");
        for d in &self.deltas {
            let verdict = match d.kind {
                DeltaKind::Unchanged => continue,
                DeltaKind::Warning => "warn",
                DeltaKind::Regression => "REGRESSION",
            };
            let _ = writeln!(
                out,
                "| {verdict} | `{}` | {} | {} | {} |",
                d.path, d.baseline, d.current, d.note
            );
        }
        out
    }
}

/// Compares two parsed artifact documents, `wall` leaves within
/// [`WALL_TOLERANCE`].
pub fn diff(baseline: &JsonValue, current: &JsonValue) -> DiffOutcome {
    match (
        baseline.get("schema_version").and_then(JsonValue::as_int),
        current.get("schema_version").and_then(JsonValue::as_int),
    ) {
        (Some(b), Some(c)) if b == c => {}
        (Some(b), Some(c)) => {
            return DiffOutcome::Refused(format!(
                "schema_version mismatch: baseline is v{b}, current is v{c}; \
                 re-bless the baseline (see OBSERVABILITY.md) instead of \
                 comparing across schema changes"
            ));
        }
        (b, _) => {
            let side = if b.is_none() { "baseline" } else { "current" };
            return DiffOutcome::Refused(format!(
                "{side} document carries no integer schema_version; refusing \
                 to compare unversioned artifacts"
            ));
        }
    }

    let mut base_leaves = Vec::new();
    flatten(baseline, String::new(), &mut base_leaves);
    let mut cur_leaves = Vec::new();
    flatten(current, String::new(), &mut cur_leaves);

    let mut report = DiffReport::default();
    for (path, bv) in &base_leaves {
        let cv = cur_leaves.iter().find(|(p, _)| p == path).map(|&(_, v)| v);
        report.deltas.push(compare_leaf(path, Some(bv), cv));
    }
    for (path, cv) in &cur_leaves {
        if !base_leaves.iter().any(|(p, _)| p == path) {
            report.deltas.push(compare_leaf(path, None, Some(cv)));
        }
    }
    DiffOutcome::Compared(report)
}

/// `true` when a path names host-wall-time data (non-gating).
fn is_wall_path(path: &str) -> bool {
    path.split('.').any(|seg| seg.contains("wall"))
}

fn render(v: Option<&JsonValue>) -> String {
    match v {
        None => "-".to_string(),
        Some(JsonValue::Null) => "null".to_string(),
        Some(JsonValue::Bool(b)) => b.to_string(),
        Some(JsonValue::Int(i)) => i.to_string(),
        Some(JsonValue::Float(f)) => format!("{f}"),
        Some(JsonValue::Str(s)) => format!("\"{s}\""),
        Some(_) => "<composite>".to_string(),
    }
}

fn as_f64(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Int(i) => Some(*i as f64),
        JsonValue::Float(f) => Some(*f),
        _ => None,
    }
}

fn compare_leaf(path: &str, baseline: Option<&JsonValue>, current: Option<&JsonValue>) -> Delta {
    let wall = is_wall_path(path);
    let (kind, note) = match (baseline, current) {
        (Some(b), Some(c)) if b == c => (DeltaKind::Unchanged, String::new()),
        (Some(b), Some(c)) => match (as_f64(b), as_f64(c)) {
            (Some(bf), Some(cf)) if wall => {
                let rel = if bf == 0.0 {
                    f64::INFINITY
                } else {
                    (cf - bf).abs() / bf.abs()
                };
                if rel <= WALL_TOLERANCE {
                    (DeltaKind::Unchanged, String::new())
                } else {
                    (
                        DeltaKind::Warning,
                        format!(
                            "host-time drift {:+.1}% exceeds the ±{:.0}% band",
                            (cf - bf) / bf * 100.0,
                            WALL_TOLERANCE * 100.0
                        ),
                    )
                }
            }
            (Some(bf), Some(cf)) => {
                let note = if bf != 0.0 {
                    format!(
                        "virtual-time metric changed {:+.2}%",
                        (cf - bf) / bf * 100.0
                    )
                } else {
                    "virtual-time metric changed".to_string()
                };
                (DeltaKind::Regression, note)
            }
            _ => (
                DeltaKind::Regression,
                "value changed type or content".to_string(),
            ),
        },
        (Some(_), None) => (
            if wall {
                DeltaKind::Warning
            } else {
                DeltaKind::Regression
            },
            "missing from current output".to_string(),
        ),
        (None, Some(_)) => (
            if wall {
                DeltaKind::Warning
            } else {
                DeltaKind::Regression
            },
            "absent from baseline".to_string(),
        ),
        (None, None) => (DeltaKind::Unchanged, String::new()),
    };
    Delta {
        path: path.to_string(),
        kind,
        baseline: render(baseline),
        current: render(current),
        note,
    }
}

/// Flattens a document to `(dotted.path, leaf)` pairs in document order.
/// Array elements use `[i]` suffixes.
fn flatten<'a>(v: &'a JsonValue, path: String, out: &mut Vec<(String, &'a JsonValue)>) {
    match v {
        JsonValue::Object(fields) => {
            for (k, child) in fields {
                let child_path = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                flatten(child, child_path, out);
            }
        }
        JsonValue::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                flatten(child, format!("{path}[{i}]"), out);
            }
        }
        leaf => out.push((path, leaf)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn compared(b: &str, c: &str) -> DiffReport {
        match diff(&parse(b).unwrap(), &parse(c).unwrap()) {
            DiffOutcome::Compared(r) => r,
            DiffOutcome::Refused(why) => panic!("unexpected refusal: {why}"),
        }
    }

    #[test]
    fn identical_documents_pass() {
        let doc = r#"{"schema_version": 3, "a": {"b": 1, "c": [1.5, "x"]}}"#;
        let r = compared(doc, doc);
        assert!(r.passed());
        assert_eq!(r.warnings(), 0);
        assert!(r.deltas.iter().all(|d| d.kind == DeltaKind::Unchanged));
    }

    #[test]
    fn virtual_metric_change_is_a_regression() {
        let b = r#"{"schema_version": 3, "virtual": {"packets": 100}}"#;
        let c = r#"{"schema_version": 3, "virtual": {"packets": 101}}"#;
        let r = compared(b, c);
        assert!(!r.passed());
        assert_eq!(r.regressions(), 1);
        assert_eq!(r.deltas[1].path, "virtual.packets");
    }

    #[test]
    fn one_ulp_of_picos_still_gates() {
        // A difference an f64 parse would erase must still be caught.
        let b = r#"{"schema_version": 1, "elapsed_ps": 9223372036854775808}"#;
        let c = r#"{"schema_version": 1, "elapsed_ps": 9223372036854775809}"#;
        assert!(!compared(b, c).passed());
    }

    #[test]
    fn wall_metrics_only_warn_and_only_outside_band() {
        let b = r#"{"schema_version": 3, "wall_secs": 10.0, "x": 1}"#;
        let inside = r#"{"schema_version": 3, "wall_secs": 12.0, "x": 1}"#;
        let outside = r#"{"schema_version": 3, "wall_secs": 100.0, "x": 1}"#;
        assert!(compared(b, inside).passed());
        assert_eq!(compared(b, inside).warnings(), 0);
        let r = compared(b, outside);
        assert!(r.passed(), "wall drift must not gate");
        assert_eq!(r.warnings(), 1);
        assert!(
            r.deltas[1].note.contains("±50% band"),
            "{}",
            r.deltas[1].note
        );
    }

    #[test]
    fn missing_and_extra_paths_gate_unless_wall() {
        let b = r#"{"schema_version": 3, "a": 1, "wall_secs": 1.0}"#;
        let c = r#"{"schema_version": 3, "b": 2}"#;
        let r = compared(b, c);
        assert_eq!(r.regressions(), 2); // "a" missing, "b" extra
        assert_eq!(r.warnings(), 1); // "wall_secs" missing: warns only
    }

    #[test]
    fn schema_mismatch_refuses() {
        let b = r#"{"schema_version": 2, "a": 1}"#;
        let c = r#"{"schema_version": 3, "a": 1}"#;
        match diff(&parse(b).unwrap(), &parse(c).unwrap()) {
            DiffOutcome::Refused(why) => assert!(why.contains("schema_version")),
            DiffOutcome::Compared(_) => panic!("must refuse mismatched schemas"),
        }
        let unversioned = r#"{"a": 1}"#;
        match diff(&parse(unversioned).unwrap(), &parse(c).unwrap()) {
            DiffOutcome::Refused(why) => assert!(why.contains("baseline")),
            DiffOutcome::Compared(_) => panic!("must refuse unversioned artifacts"),
        }
    }

    #[test]
    fn markdown_report_lists_changed_leaves() {
        let b = r#"{"schema_version": 3, "virtual": {"tps": 100.5}, "wallclock_secs": 1.0}"#;
        let c = r#"{"schema_version": 3, "virtual": {"tps": 90.5}, "wallclock_secs": 9.0}"#;
        let r = compared(b, c);
        let md = r.render_markdown("baseline.json", "current.json");
        assert!(md.contains("1 regression(s)"));
        assert!(md.contains("| REGRESSION | `virtual.tps` | 100.5 | 90.5 |"));
        assert!(md.contains("| warn | `wallclock_secs` |"));
    }
}

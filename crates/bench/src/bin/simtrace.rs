//! The virtual-time flight recorder, exported.
//!
//! Runs one traced cluster scenario and writes its artifacts:
//!
//! * `trace.json` — Chrome `trace_event` JSON; open it in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`. Includes one
//!   counter track per nonzero windowed metric.
//! * `events.jsonl` — the same spans and point events, one JSON object per
//!   line, for ad-hoc scripting.
//! * `summary.json` — commit-latency histogram, stall attribution and the
//!   per-track traffic-class matrix (also printed to stdout).
//! * `attribution.json` — the per-node virtual-time attribution tree
//!   (CPU issue / cache / SAN by class / stalls by cause), whose leaves
//!   provably sum to each node's total virtual time; rendered as an
//!   indented text tree on stderr.
//! * `timeseries.json` — the windowed metrics time-series (goodput,
//!   per-class SAN bytes, stall picoseconds, gauges, per-window latency
//!   percentiles), conservation-checked against the summary and the
//!   attribution tree.
//! * `availability.json` — the goodput-over-time availability report:
//!   SLO-violation windows and, for `--crash` runs, the virtual time from
//!   `recovery_start` to the first post-recovery commit.
//! * `critical_path.json` — the per-transaction critical-path profile:
//!   every committed transaction's latency decomposed into disjoint
//!   segments (cpu / cache / SAN issue / queue wait / transit / backup
//!   apply / other stalls) that provably sum to the commit latency, with
//!   per-segment whole-run totals, percentiles, and the top-k slowest
//!   transactions.
//!
//! With `--crash`, `--post-txns N` (default `txns / 10`) transactions run
//! on the promoted backup after recovery, so the availability report has
//! a recovery leg to measure.
//!
//! A flag the run cannot honor is a usage error, not dropped: `--version`
//! picks the passive scheme's engine version, so it is rejected with
//! `--scheme active`, and `--post-txns` is rejected without `--crash`.
//!
//! Every setting is a flag; no environment variable changes a run. Each
//! ring of the recorder keeps the last 65 536 records and metrics fold
//! into 1-virtual-ms windows, the values every blessed artifact records.
//! A run long enough to overflow a ring warns on stderr: lower `--txns`.
//!
//! If the post-run audit finds a violation (or takeover recovery fails),
//! the flight-recorder ring is still dumped — that dump *is* the crash
//! report — and the process exits non-zero.
//!
//! Exit codes: `0` — run passed its audit; `1` — audit violation; `2` —
//! usage error, or an `--out` directory that cannot be created or written.
//!
//! ```text
//! cargo run --release -p dsnrep-bench --bin simtrace -- \
//!     --scheme active --workload debit-credit --txns 2000 --crash --out target/trace
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dsnrep_bench::outln;
use dsnrep_bench::trace::{traced_run, TracedRun};
use dsnrep_core::VersionTag;
use dsnrep_repl::Scheme;
use dsnrep_simcore::MIB;
use dsnrep_workloads::WorkloadKind;

struct Options {
    scheme: Scheme,
    kind: WorkloadKind,
    txns: u64,
    db_len: u64,
    crash: bool,
    post_txns: Option<u64>,
    out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: simtrace [--scheme passive|active] [--version v0|v1|v2|v3]\n\
         \x20               [--workload debit-credit|order-entry] [--txns N]\n\
         \x20               [--db-mib N] [--crash] [--post-txns N] [--out DIR]\n\
         \n\
         --version picks the passive engine (not with --scheme active);\n\
         --post-txns runs on the promoted backup (only with --crash).\n\
         --out writes the seven artifacts into DIR. Each recorder ring keeps\n\
         the last 65536 records; a run that overflows one warns, so lower --txns."
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        scheme: Scheme::Passive(VersionTag::ImprovedLog),
        kind: WorkloadKind::DebitCredit,
        txns: 2_000,
        db_len: 10 * MIB,
        crash: false,
        post_txns: None,
        out: None,
    };
    let mut version = None;
    let mut active = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--scheme" => match value().as_str() {
                "passive" => active = false,
                "active" => active = true,
                _ => usage(),
            },
            "--version" => {
                version = Some(match value().as_str() {
                    "v0" => VersionTag::Vista,
                    "v1" => VersionTag::MirrorCopy,
                    "v2" => VersionTag::MirrorDiff,
                    "v3" => VersionTag::ImprovedLog,
                    _ => usage(),
                })
            }
            "--workload" => {
                opts.kind = match value().as_str() {
                    "debit-credit" => WorkloadKind::DebitCredit,
                    "order-entry" => WorkloadKind::OrderEntry,
                    _ => usage(),
                }
            }
            "--txns" => opts.txns = value().parse().unwrap_or_else(|_| usage()),
            // An empty database, or one whose byte count overflows, is a
            // usage error rather than a panic inside the engine.
            "--db-mib" => {
                opts.db_len = value()
                    .parse::<u64>()
                    .ok()
                    .and_then(|mib| mib.checked_mul(MIB))
                    .filter(|&len| len > 0)
                    .unwrap_or_else(|| usage())
            }
            "--crash" => opts.crash = true,
            "--post-txns" => opts.post_txns = Some(value().parse().unwrap_or_else(|_| usage())),
            "--out" => opts.out = Some(PathBuf::from(value())),
            _ => usage(),
        }
    }
    if (active && version.is_some()) || (opts.post_txns.is_some() && !opts.crash) {
        usage();
    }
    opts.scheme = if active {
        Scheme::Active
    } else {
        Scheme::Passive(version.unwrap_or(VersionTag::ImprovedLog))
    };
    opts
}

/// Writes the seven artifacts into `dir`, creating it first.
///
/// # Errors
///
/// The path that could not be created or written, and why.
fn write_artifacts(dir: &Path, run: &TracedRun) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let write = |name: &str, contents: String| {
        let path = dir.join(name);
        std::fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write("trace.json", run.recorder.chrome_trace_json())?;
    write("events.jsonl", run.recorder.events_jsonl())?;
    write("summary.json", run.summary.to_json())?;
    write("attribution.json", run.attribution.to_json())?;
    write("timeseries.json", run.timeseries.to_json())?;
    write("availability.json", run.availability.to_json())?;
    write("critical_path.json", run.critpath.to_json())
}

fn main() -> ExitCode {
    let opts = parse_args();
    let post_txns = match (opts.crash, opts.post_txns) {
        (false, _) => 0,
        (true, Some(n)) => n,
        (true, None) => opts.txns / 10,
    };
    let run = traced_run(
        opts.scheme,
        opts.kind,
        opts.txns,
        opts.db_len,
        opts.crash,
        post_txns,
    );

    // A truncated ring silently under-reports everything downstream of
    // it; surface the loss loudly and say how to keep the whole run.
    let dropped = run.recorder.dropped_spans() + run.recorder.dropped_instants();
    if dropped > 0 {
        eprintln!(
            "warning: the flight-recorder ring dropped {} span(s) and {} event(s); \
             the trace and its phase profile are truncated — lower --txns \
             (each ring keeps the last {} records) to keep the whole run",
            run.recorder.dropped_spans(),
            run.recorder.dropped_instants(),
            run.recorder.capacity()
        );
    }

    if let Some(dir) = &opts.out {
        if let Err(e) = write_artifacts(dir, &run) {
            eprintln!("simtrace: {e}");
            return ExitCode::from(2);
        }
        eprintln!(
            "wrote {}/trace.json (load in https://ui.perfetto.dev), events.jsonl, \
             summary.json, attribution.json, timeseries.json, availability.json, \
             critical_path.json",
            dir.display()
        );
    }
    outln!("{}", run.summary.to_json());
    eprint!("{}", run.attribution.render_text());
    if opts.crash {
        eprint!("{}", run.availability.to_json());
    }

    match &run.violation {
        None => ExitCode::SUCCESS,
        Some(v) => {
            // Dump-on-failure: the artifacts above already carry the ring
            // contents up to (and including) the violation event.
            eprintln!("audit violation: {v}");
            if opts.out.is_none() {
                eprintln!("events.jsonl dump follows:");
                eprint!("{}", run.recorder.events_jsonl());
            }
            ExitCode::FAILURE
        }
    }
}

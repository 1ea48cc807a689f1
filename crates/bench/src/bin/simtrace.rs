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
//! If the post-run audit finds a violation (or takeover recovery fails),
//! the flight-recorder ring is still dumped — that dump *is* the crash
//! report — and the process exits non-zero.
//!
//! ```text
//! cargo run --release -p dsnrep-bench --bin simtrace -- \
//!     --scheme active --workload debit-credit --txns 2000 --crash --out target/trace
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use dsnrep_bench::outln;
use dsnrep_bench::trace::traced_run_with;
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
         \x20               [--db-mib N] [--crash] [--post-txns N] [--out DIR]"
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
    let mut version = VersionTag::ImprovedLog;
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
                version = match value().as_str() {
                    "v0" => VersionTag::Vista,
                    "v1" => VersionTag::MirrorCopy,
                    "v2" => VersionTag::MirrorDiff,
                    "v3" => VersionTag::ImprovedLog,
                    _ => usage(),
                }
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
    opts.scheme = if active {
        Scheme::Active
    } else {
        Scheme::Passive(version)
    };
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    let post_txns = match (opts.crash, opts.post_txns) {
        (false, _) => 0,
        (true, Some(n)) => n,
        (true, None) => opts.txns / 10,
    };
    let run = traced_run_with(
        opts.scheme,
        opts.kind,
        opts.txns,
        opts.db_len,
        opts.crash,
        post_txns,
    );

    // A truncated ring silently under-reports everything downstream of
    // it; surface the loss loudly and name the knob that raises the cap.
    let dropped = run.recorder.dropped_spans() + run.recorder.dropped_instants();
    if dropped > 0 {
        eprintln!(
            "warning: the flight-recorder ring dropped {} span(s) and {} event(s); \
             the trace and its phase profile are truncated — raise DSNREP_TRACE_CAP \
             (currently {} records per ring) to keep the whole run",
            run.recorder.dropped_spans(),
            run.recorder.dropped_instants(),
            run.recorder.capacity()
        );
    }

    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir).expect("create output directory");
        std::fs::write(dir.join("trace.json"), run.recorder.chrome_trace_json())
            .expect("write trace.json");
        std::fs::write(dir.join("events.jsonl"), run.recorder.events_jsonl())
            .expect("write events.jsonl");
        std::fs::write(dir.join("summary.json"), run.summary.to_json())
            .expect("write summary.json");
        std::fs::write(dir.join("attribution.json"), run.attribution.to_json())
            .expect("write attribution.json");
        std::fs::write(dir.join("timeseries.json"), run.timeseries.to_json())
            .expect("write timeseries.json");
        std::fs::write(dir.join("availability.json"), run.availability.to_json())
            .expect("write availability.json");
        std::fs::write(dir.join("critical_path.json"), run.critpath.to_json())
            .expect("write critical_path.json");
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

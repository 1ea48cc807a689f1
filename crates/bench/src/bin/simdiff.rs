//! Compares two artifact JSONs (simperf summaries, trace summaries, or
//! attribution trees) and exits non-zero when a deterministic virtual-time
//! metric regressed. The perf-regression sentinel CI runs on every push.
//!
//! ```text
//! simdiff <baseline.json> <current.json> [--report <delta.md>]
//! ```
//!
//! Exit codes:
//!
//! * `0` — no gating difference (host wall-time drift may still warn),
//! * `1` — at least one virtual-time metric changed: a regression,
//! * `2` — usage, I/O, parse, or schema_version error; nothing compared.
//!
//! Tolerance rules live in [`dsnrep_bench::diff`]; the one-line summary and
//! per-metric table go to stdout, and `--report` additionally writes the
//! markdown table to a file for CI to upload as an artifact.

use std::process::ExitCode;

use dsnrep_bench::diff::{diff, DiffOutcome};
use dsnrep_bench::json::parse;
use dsnrep_bench::out;

struct Args {
    baseline: String,
    current: String,
    report: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!("usage: simdiff <baseline.json> <current.json> [--report <delta.md>]");
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut positional = Vec::new();
    let mut report = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--report" => match argv.next() {
                Some(path) => report = Some(path),
                None => return Err(usage()),
            },
            "--help" | "-h" => return Err(usage()),
            _ if arg.starts_with("--") => return Err(usage()),
            _ => positional.push(arg),
        }
    }
    let [baseline, current] = <[String; 2]>::try_from(positional).map_err(|_| usage())?;
    Ok(Args {
        baseline,
        current,
        report,
    })
}

fn load(path: &str) -> Result<dsnrep_bench::json::JsonValue, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("simdiff: cannot read {path}: {e}");
        ExitCode::from(2)
    })?;
    parse(&text).map_err(|e| {
        eprintln!("simdiff: {path} is not valid JSON: {e}");
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let baseline = match load(&args.baseline) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let current = match load(&args.current) {
        Ok(v) => v,
        Err(code) => return code,
    };

    let report = match diff(&baseline, &current) {
        DiffOutcome::Refused(why) => {
            eprintln!("simdiff: refusing to compare: {why}");
            return ExitCode::from(2);
        }
        DiffOutcome::Compared(r) => r,
    };

    let markdown = report.render_markdown(&args.baseline, &args.current);
    out!("{markdown}");
    if let Some(path) = &args.report {
        if let Err(e) = std::fs::write(path, &markdown) {
            eprintln!("simdiff: cannot write report {path}: {e}");
            return ExitCode::from(2);
        }
    }

    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

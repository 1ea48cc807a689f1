//! The fault-injection coverage gate: runs deterministic crash-schedule
//! campaigns over the full driver x engine-version x workload matrix and
//! emits `faultcov.json` for `simdiff` to gate against the blessed
//! baseline.
//!
//! ```text
//! cargo run --release -p dsnrep-bench --bin simfault -- \
//!     --mode both --seed 7 --plans 12 --out target/faultcov.json
//! ```
//!
//! The matrix covers every combination the acceptance sweep requires:
//! passive V0-V3 x both workloads, the active driver (always V3 on the
//! primary) x both workloads in 1-safe and 2-safe modes, plus the
//! N-node chain and quorum drivers at RF = 3. `--mode exhaustive`
//! sweeps every single-fault point (each store, packet and transaction
//! boundary, plus mid-recovery crashes at every recovery write of the
//! deepest rollback); `--mode random` explores seeded multi-fault
//! schedules and, for the chain/quorum scenarios, additionally runs a
//! seeded partition campaign (every plan severs or delays one fabric
//! link, half also crash the head); `--mode both` runs both. The same
//! seed and arguments reproduce `faultcov.json` byte-for-byte — CI runs
//! the gate twice and `cmp`s the outputs.
//!
//! Exit codes:
//!
//! * `0` — every plan passed the shadow oracle and recovery invariants,
//! * `1` — at least one counterexample; its shrunk plan and a
//!   copy-pasteable regression test are printed to stderr,
//! * `2` — usage error or a broken scenario (the fault-free probe run
//!   itself violated the oracle; nothing was swept).

use std::path::PathBuf;
use std::process::ExitCode;

use dsnrep_bench::faultcov::{render, ScenarioCoverage};
use dsnrep_bench::out;
use dsnrep_faultsim::{exhaustive_single_fault, partition_campaign, random_campaign, Scenario};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Exhaustive,
    Random,
    Both,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Exhaustive => "exhaustive",
            Mode::Random => "random",
            Mode::Both => "both",
        }
    }
}

struct Options {
    mode: Mode,
    txns: u64,
    plans: u64,
    seed: u64,
    out: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: simfault [--mode exhaustive|random|both] [--txns N] [--plans N]\n\
         \x20               [--seed N] [--out faultcov.json]\n\
         \n\
         --txns sets the Debit-Credit run length (default 4); Order-Entry\n\
         scenarios run half as many transactions (its transactions touch\n\
         far more records). --plans and --seed shape the random mode."
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut opts = Options {
        mode: Mode::Both,
        txns: 4,
        plans: 12,
        seed: 7,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(usage);
        match arg.as_str() {
            "--mode" => {
                opts.mode = match value()?.as_str() {
                    "exhaustive" => Mode::Exhaustive,
                    "random" => Mode::Random,
                    "both" => Mode::Both,
                    _ => return Err(usage()),
                }
            }
            "--txns" => opts.txns = value()?.parse().map_err(|_| usage())?,
            "--plans" => opts.plans = value()?.parse().map_err(|_| usage())?,
            "--seed" => opts.seed = value()?.parse().map_err(|_| usage())?,
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            _ => return Err(usage()),
        }
    }
    if opts.txns == 0 || opts.plans == 0 {
        return Err(usage());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };

    let scenarios = Scenario::matrix(opts.txns);
    let mut coverage = Vec::new();
    for scenario in &scenarios {
        let label = scenario.label();
        let exhaustive = if opts.mode != Mode::Random {
            match exhaustive_single_fault(scenario, None) {
                Ok(c) => Some(c),
                Err(e) => {
                    eprintln!("simfault: {label}: exhaustive sweep aborted: {e}");
                    return ExitCode::from(2);
                }
            }
        } else {
            None
        };
        let random = if opts.mode != Mode::Exhaustive {
            match random_campaign(scenario, opts.seed, opts.plans, None) {
                Ok(c) => Some(c),
                Err(e) => {
                    eprintln!("simfault: {label}: random campaign aborted: {e}");
                    return ExitCode::from(2);
                }
            }
        } else {
            None
        };
        let partition = if opts.mode != Mode::Exhaustive && scenario.topology().is_some() {
            match partition_campaign(scenario, opts.seed, opts.plans, None) {
                Ok(c) => Some(c),
                Err(e) => {
                    eprintln!("simfault: {label}: partition campaign aborted: {e}");
                    return ExitCode::from(2);
                }
            }
        } else {
            None
        };
        let cov = ScenarioCoverage {
            label,
            exhaustive,
            random,
            partition,
        };
        let plans: u64 = cov
            .exhaustive
            .iter()
            .chain(cov.random.iter())
            .chain(cov.partition.iter())
            .map(|c| c.plans_run)
            .sum();
        eprintln!(
            "simfault: {}: {} plan(s), {} counterexample(s)",
            cov.label,
            plans,
            cov.counterexamples()
        );
        coverage.push(cov);
    }

    let doc = render(opts.mode.label(), opts.seed, &coverage);
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("simfault: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    out!("{doc}");

    let mut failed = 0usize;
    for cov in &coverage {
        for campaign in cov
            .exhaustive
            .iter()
            .chain(cov.random.iter())
            .chain(cov.partition.iter())
        {
            for cx in &campaign.counterexamples {
                failed += 1;
                eprintln!(
                    "\nsimfault: counterexample in {}:\n  original: {}\n  shrunk:   {}\n  breaks:   {}",
                    cx.scenario, cx.original, cx.shrunk, cx.shrunk_violation
                );
                eprintln!("  regression test:\n{}", cx.regression_test);
            }
        }
    }
    if failed > 0 {
        eprintln!("\nsimfault: {failed} counterexample(s) — recovery is broken somewhere");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

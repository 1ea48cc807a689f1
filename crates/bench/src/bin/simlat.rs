//! Open-system latency scenarios: commit and read latency percentiles,
//! request drops, SLO-violation windows and time-to-re-attain-p99 for
//! the three replication strategies under an injected failover, plus a
//! bursty calm run exercising the modulated arrival process.
//!
//! ```text
//! cargo run --release -p dsnrep-bench --bin simlat -- --out simlat.json
//! cargo run --release -p dsnrep-bench --bin simlat -- --requests 800
//! ```
//!
//! The arrival and read-key generators are seeded with 41505, and the
//! violation windows are judged against a 2000-virtual-µs SLO; both are
//! constants, the values the blessed artifact records. Every setting is a
//! flag; no environment variable changes a run.
//!
//! Every latency, drop count and window index in the artifact is
//! virtual-time arithmetic over seeded generators, so the JSON is
//! bit-stable for a given request count and is gated bit-exactly
//! by `simdiff` against `crates/bench/baselines/simlat.json`; the `wall`
//! section is host time and only ever warns.
//!
//! Exit codes: `0` — artifact written; `2` — usage error, or an `--out`
//! file that cannot be written.

use std::process::ExitCode;
use std::time::Instant;

use dsnrep_bench::openlat::{open_system_run, OpenLatConfig, OpenLatRun};
use dsnrep_bench::out;
use dsnrep_cluster::{ReplicationStrategy, Topology};
use dsnrep_core::VersionTag;
use dsnrep_simcore::{VirtualDuration, MIB};
use dsnrep_workloads::{ArrivalProcess, WorkloadKind};

/// Database size: big enough for realistic record spread, small enough
/// that four scenarios stay cheap in CI.
const DB: u64 = MIB;

/// Mean interarrival time of the Poisson scenarios. The v3 engine commits
/// a Debit-Credit write in a few virtual microseconds, so a 40 us mean
/// keeps steady state calm; the drops and SLO violations come from the
/// ~4 ms detection-plus-recovery outage, during which roughly a hundred
/// arrivals pile into the bounded queue. The run must also outlast the
/// outage by a wide margin so the p99 can re-attain (400 requests span
/// ~16 ms against a crash near 5 ms).
const MEAN_US: u64 = 40;

/// The bursty scenario: off-peak mean interarrival, burst rate factor,
/// modulation period, and the duty slice of the period spent bursting.
const BURSTY_OFF_PEAK_US: u64 = 80;
const BURSTY_FACTOR: u64 = 4;
const BURSTY_PERIOD_US: u64 = 4_000;
const BURSTY_DUTY_PCT: u64 = 25;

/// Admitted-but-uncommitted writes beyond which arrivals are rejected.
const QUEUE_CAP: u64 = 16;

/// Zipfian read-key population and skew.
const KEY_POPULATION: u32 = 256;
const KEY_SKEW: f64 = 1.0;

/// Commits before the injected head crash in the failover scenarios.
const CRASH_AFTER_COMMITS: u64 = 60;

/// Seed of the arrival and read-key streams.
const ARRIVAL_SEED: u64 = 0xA221;

/// Per-request latency SLO, virtual microseconds.
const SLO_US: u64 = 2_000;

struct Options {
    requests: u64,
    out: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: simlat [--requests N] [--out FILE]\n\
         \n\
         --requests sets the arrivals per scenario (default 400); --out\n\
         writes the JSON artifact to FILE instead of stdout."
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut opts = Options {
        requests: 400,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(usage);
        match arg.as_str() {
            "--requests" => opts.requests = value()?.parse().map_err(|_| usage())?,
            "--out" => opts.out = Some(value()?),
            _ => return Err(usage()),
        }
    }
    if opts.requests == 0 {
        return Err(usage());
    }
    Ok(opts)
}

/// The fixed scenario set: each failover strategy under Poisson load with
/// a mid-run head crash, plus one calm bursty run.
fn scenarios(requests: u64) -> Vec<OpenLatConfig> {
    let base = |label: &str, topology: Topology| OpenLatConfig {
        label: label.to_string(),
        topology,
        version: VersionTag::ImprovedLog,
        workload: WorkloadKind::DebitCredit,
        db_len: DB,
        workload_seed: 0xD5,
        process: ArrivalProcess::poisson(VirtualDuration::from_micros(MEAN_US)),
        arrival_seed: ARRIVAL_SEED,
        requests,
        read_every: 2,
        key_population: KEY_POPULATION,
        key_skew: KEY_SKEW,
        queue_cap: QUEUE_CAP,
        slo_us: SLO_US,
        crash_after_commits: Some(CRASH_AFTER_COMMITS.min(requests / 4)),
    };
    let pb3 = Topology::new(3, ReplicationStrategy::PrimaryBackup).expect("rf 3 primary-backup");
    let chain3 = Topology::new(3, ReplicationStrategy::Chain).expect("rf 3 chain");
    let quorum3 = Topology::new(3, ReplicationStrategy::Quorum { read: 2, write: 2 })
        .expect("rf 3 majority quorum");
    let mut bursty = base("pb-rf3-bursty-calm", pb3);
    bursty.process = ArrivalProcess::bursty(
        VirtualDuration::from_micros(BURSTY_OFF_PEAK_US),
        BURSTY_FACTOR,
        VirtualDuration::from_micros(BURSTY_PERIOD_US),
        BURSTY_DUTY_PCT,
    );
    bursty.crash_after_commits = None;
    vec![
        base("pb-rf3-poisson-crash", pb3),
        base("chain-rf3-poisson-crash", chain3),
        base("quorum-rf3-r2w2-poisson-crash", quorum3),
        bursty,
    ]
}

/// Re-indents a pretty-printed JSON document so it nests under `pad`
/// (first line unpadded: it follows a `"key": ` prefix).
fn indent(json: &str, pad: &str) -> String {
    let mut out = String::new();
    for (i, line) in json.trim_end().lines().enumerate() {
        if i > 0 {
            out.push('\n');
            if !line.is_empty() {
                out.push_str(pad);
            }
        }
        out.push_str(line);
    }
    out
}

fn render(runs: &[OpenLatRun], requests: u64, wall: f64) -> String {
    use std::fmt::Write as _;
    fn opt(v: Option<u64>) -> String {
        v.map_or_else(|| "null".to_string(), |v| v.to_string())
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"schema_version\": 1,\n  \"arrival_seed\": {ARRIVAL_SEED},\n  \
         \"slo_us\": {SLO_US},\n  \"requests\": {requests},\n  \"scenarios\": ["
    );
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\n      \"label\": \"{}\",\n      \"strategy\": \"{}\",\n      \
             \"writes_committed\": {},\n      \"reads_served\": {},\n      \
             \"hot_key\": {},\n      \"hot_key_hits\": {},\n      \
             \"crash_picos\": {},\n      \"recovery_end_picos\": {},\n      \
             \"elapsed_picos\": {},\n      \"availability\": {}\n    }}",
            run.label,
            run.strategy,
            run.writes_committed,
            run.reads_served,
            run.hot_key,
            run.hot_key_hits,
            opt(run.crash_picos),
            opt(run.recovery_end_picos),
            run.elapsed_picos,
            indent(&run.availability.to_json(), "      ")
        );
    }
    let _ = write!(
        out,
        "\n  ],\n  \"wall\": {{\n    \"run_secs\": {wall:.3}\n  }}\n}}\n"
    );
    out
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };
    let started = Instant::now();
    let runs: Vec<OpenLatRun> = scenarios(opts.requests)
        .iter()
        .map(open_system_run)
        .collect();
    let wall = started.elapsed().as_secs_f64();

    for run in &runs {
        let os = run
            .availability
            .open_system
            .as_ref()
            .expect("openlat always fills the open-system section");
        eprintln!(
            "simlat: {}: commit p99 {:.1} us, read p99 {:.1} us, {} dropped, \
             {} SLO window(s), re-attain {}",
            run.label,
            os.commit_latency.p99_picos as f64 / 1e6,
            os.read_latency.p99_picos as f64 / 1e6,
            os.dropped,
            os.slo_violation_windows.len(),
            os.time_to_reattain_p99_picos
                .map_or_else(|| "-".to_string(), |t| format!("{:.1} us", t as f64 / 1e6)),
        );
    }

    let json = render(&runs, opts.requests, wall);
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("simlat: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
        None => out!("{json}"),
    }
    ExitCode::SUCCESS
}

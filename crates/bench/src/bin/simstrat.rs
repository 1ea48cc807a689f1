//! Head-to-head replication-strategy comparison: primary-backup (RF 2
//! and 3), chain (RF 3) and majority quorum (RF 3) on the same engine,
//! workload and seed — SAN traffic from a calm run, recovery time and
//! availability from the shadow-oracle fault campaigns.
//!
//! ```text
//! cargo run --release -p dsnrep-bench --bin simstrat
//! cargo run --release -p dsnrep-bench --bin simstrat -- --txns 500 --plans 24
//! ```
//!
//! The calm section runs every strategy through [`ReplicaSet`] and
//! reports the deterministic virtual footprint (elapsed, TPS, SAN bytes
//! per transaction) — the availability-vs-traffic trade-off at a glance.
//! The fault section replays the `faultsim` campaigns (exhaustive
//! single-fault sweep, seeded random multi-fault, and — for the fabric
//! strategies — a seeded partition campaign) and reports counterexample
//! counts, the worst crash-to-serving outage, and the availability that
//! outage implies at one crash per simulated minute. Everything printed
//! is virtual-time arithmetic: the same arguments reproduce the report
//! byte-for-byte.
//!
//! Exit codes: `0` — every campaign plan passed the oracle and recovery
//! invariants; `1` — at least one counterexample; `2` — usage error.

use std::process::ExitCode;

use dsnrep_bench::outln;
use dsnrep_cluster::{ReplicationStrategy, Topology};
use dsnrep_core::{EngineConfig, VersionTag};
use dsnrep_faultsim::{
    exhaustive_single_fault, partition_campaign, random_campaign, Campaign, Scenario,
};
use dsnrep_repl::ReplicaSet;
use dsnrep_simcore::{CostModel, MIB};
use dsnrep_workloads::WorkloadKind;

const DB: u64 = 10 * MIB;
const SEED: u64 = 42;

/// Availability denominator: one crash per simulated minute, the paper's
/// order of magnitude for the commodity-cluster MTBF argument.
const MISSION_PS: u64 = 60 * 1_000_000_000_000;

struct Options {
    txns: u64,
    plans: u64,
    seed: u64,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: simstrat [--txns N] [--plans N] [--seed N]\n\
         \n\
         --txns sets the calm-run length (default 200); --plans and --seed\n\
         shape the random and partition campaigns (defaults 12 and 7)."
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut opts = Options {
        txns: 200,
        plans: 12,
        seed: 7,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(usage);
        match arg.as_str() {
            "--txns" => opts.txns = value()?.parse().map_err(|_| usage())?,
            "--plans" => opts.plans = value()?.parse().map_err(|_| usage())?,
            "--seed" => opts.seed = value()?.parse().map_err(|_| usage())?,
            _ => return Err(usage()),
        }
    }
    if opts.txns == 0 || opts.plans == 0 {
        return Err(usage());
    }
    Ok(opts)
}

/// One strategy under comparison: its cluster shape and, when the
/// faultsim layer has a driver for it, the campaign scenario.
struct Strategy {
    name: &'static str,
    topology: Topology,
    /// `None` for primary-backup at RF 3: the fault drivers cover the
    /// pair (bit-identical to RF 2 fan-out) and both fabric strategies.
    scenario: Option<Scenario>,
}

fn strategies() -> Vec<Strategy> {
    let v3 = VersionTag::ImprovedLog;
    let dc = WorkloadKind::DebitCredit;
    vec![
        Strategy {
            name: "primary-backup rf2",
            topology: Topology::pair(),
            scenario: Some(Scenario::passive(v3, dc)),
        },
        Strategy {
            name: "primary-backup rf3",
            topology: Topology::new(3, ReplicationStrategy::PrimaryBackup)
                .expect("rf 3 primary-backup"),
            scenario: None,
        },
        Strategy {
            name: "chain rf3",
            topology: Topology::new(3, ReplicationStrategy::Chain).expect("rf 3 chain"),
            scenario: Some(Scenario::chain(v3, dc, 3)),
        },
        Strategy {
            name: "quorum rf3 r2w2",
            topology: Topology::new(3, ReplicationStrategy::Quorum { read: 2, write: 2 })
                .expect("rf 3 majority quorum"),
            scenario: Some(Scenario::quorum(v3, dc, 3, 2, 2)),
        },
    ]
}

/// Deterministic calm-run footprint of one strategy.
struct CalmRun {
    elapsed_ps: u64,
    tps: f64,
    san_bytes: u64,
    san_packets: u64,
}

fn calm_run(topology: Topology, txns: u64) -> CalmRun {
    let config = EngineConfig::for_db(DB);
    let mut set = ReplicaSet::new(
        CostModel::alpha_21164a(),
        VersionTag::ImprovedLog,
        &config,
        topology,
    );
    let mut workload = WorkloadKind::DebitCredit.build(set.engine().db_region(), SEED);
    let report = set.run(workload.as_mut(), txns);
    set.quiesce();
    let traffic = set.traffic();
    CalmRun {
        elapsed_ps: set.machine().stats().elapsed.as_picos(),
        tps: report.tps(),
        san_bytes: traffic.total_bytes(),
        san_packets: traffic.total_packets(),
    }
}

/// The fault-campaign digest for one strategy.
struct FaultDigest {
    plans: u64,
    counterexamples: usize,
    max_outage_ps: u64,
    degraded_commits: u64,
}

fn fault_digest(scenario: &Scenario, opts: &Options) -> Result<FaultDigest, ExitCode> {
    let mut campaigns: Vec<Campaign> = Vec::new();
    let run = |r: Result<Campaign, _>| {
        r.map_err(|e| {
            eprintln!("simstrat: {}: campaign aborted: {e}", scenario.label());
            ExitCode::from(2)
        })
    };
    campaigns.push(run(exhaustive_single_fault(scenario, None))?);
    campaigns.push(run(random_campaign(scenario, opts.seed, opts.plans, None))?);
    if scenario.topology().is_some() {
        campaigns.push(run(partition_campaign(
            scenario, opts.seed, opts.plans, None,
        ))?);
    }
    Ok(FaultDigest {
        plans: campaigns.iter().map(|c| c.plans_run).sum(),
        counterexamples: campaigns.iter().map(|c| c.counterexamples.len()).sum(),
        max_outage_ps: campaigns.iter().map(|c| c.max_outage_ps).max().unwrap_or(0),
        degraded_commits: campaigns.iter().map(|c| c.degraded_commits).sum(),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };

    let strategies = strategies();
    outln!("# Replication strategy comparison\n");
    outln!(
        "Improved-log engine, Debit-Credit, {} calm transactions, seed {}; \
         fault campaigns run {} random plans per mode.\n",
        opts.txns,
        opts.seed,
        opts.plans
    );

    outln!("## Calm run: SAN traffic\n");
    outln!("| strategy | elapsed (ms) | TPS | SAN bytes/txn | SAN packets |");
    outln!("|---|---|---|---|---|");
    for s in &strategies {
        let calm = calm_run(s.topology, opts.txns);
        outln!(
            "| {} | {:.3} | {:.0} | {:.1} | {} |",
            s.name,
            calm.elapsed_ps as f64 / 1e9,
            calm.tps,
            calm.san_bytes as f64 / opts.txns as f64,
            calm.san_packets
        );
    }

    outln!("\n## Fault campaigns: recovery and availability\n");
    outln!(
        "Worst outage is the longest crash-to-serving gap any campaign \
         plan produced; availability assumes one such crash per simulated \
         minute. Degraded commits proceeded on the head's 2-safe copy \
         after a partition starved the acknowledgement set.\n"
    );
    outln!("| strategy | plans | counterexamples | worst outage (us) | availability | degraded commits |");
    outln!("|---|---|---|---|---|---|");
    let mut failed = 0usize;
    for s in &strategies {
        let Some(scenario) = &s.scenario else {
            outln!("| {} | - | - | - | - | - |", s.name);
            continue;
        };
        let digest = match fault_digest(scenario, &opts) {
            Ok(d) => d,
            Err(code) => return code,
        };
        failed += digest.counterexamples;
        let availability = 1.0 - digest.max_outage_ps as f64 / MISSION_PS as f64;
        outln!(
            "| {} | {} | {} | {:.1} | {:.6} | {} |",
            s.name,
            digest.plans,
            digest.counterexamples,
            digest.max_outage_ps as f64 / 1e6,
            availability,
            digest.degraded_commits
        );
    }

    if failed > 0 {
        eprintln!("\nsimstrat: {failed} counterexample(s) — run simfault for the shrunk plans");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

//! Takeover recovery time by version (the paper's §5.1 tradeoff).
//!
//! The mirroring versions save failure-free communication by keeping the
//! set-range array local — and pay for it at takeover, when the backup
//! must copy the *entire database* from the mirror. The logging versions
//! only roll back the in-flight transaction; the active backup applies
//! whole transactions and recovers almost instantly.
use dsnrep_bench::experiments::txns_from_env;
use dsnrep_bench::outln;
use dsnrep_core::{EngineConfig, VersionTag};
use dsnrep_repl::{ActiveCluster, PassiveCluster};
use dsnrep_simcore::{CostModel, MIB};
use dsnrep_workloads::WorkloadKind;

fn main() {
    let txns = txns_from_env("DSNREP_TXNS", 5_000).unwrap_or_else(|e| {
        eprintln!("ablation_recovery: {e}");
        std::process::exit(2)
    });
    outln!("### Takeover recovery time by version (50 MB Debit-Credit database)\n");
    outln!("| scheme | recovery work | lost txns |");
    outln!("|--------|---------------|-----------|");
    let config = EngineConfig::for_db(50 * MIB);
    for version in VersionTag::ALL {
        let mut cluster = PassiveCluster::new(CostModel::alpha_21164a(), version, &config);
        let mut workload = WorkloadKind::DebitCredit.build(cluster.engine().db_region(), 42);
        cluster.run(workload.as_mut(), txns);
        let failover = cluster.crash_primary();
        outln!(
            "| passive {version} | {} | {} |",
            failover.recovery_time,
            txns - failover.report.committed_seq
        );
    }
    let mut cluster = ActiveCluster::new(CostModel::alpha_21164a(), &config);
    let mut workload = WorkloadKind::DebitCredit.build(cluster.db_region(), 42);
    cluster.run(workload.as_mut(), txns);
    let failover = cluster.crash_primary().expect("backup formats");
    outln!(
        "| active | {} | {} |",
        failover.recovery_time,
        txns - failover.report.committed_seq
    );
}

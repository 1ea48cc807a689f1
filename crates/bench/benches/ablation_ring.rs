//! Ablation: redo-ring capacity and flow-control stalls.
//!
//! The paper notes the primary "must block" if the redo log fills. This
//! sweep shrinks the ring until flow control dominates, showing the
//! capacity cliff.
use dsnrep_bench::experiments::txns_from_env;
use dsnrep_bench::outln;
use dsnrep_core::EngineConfig;
use dsnrep_repl::ActiveCluster;
use dsnrep_simcore::{CostModel, MIB};
use dsnrep_workloads::WorkloadKind;

fn main() {
    let txns = txns_from_env("DSNREP_TXNS", 20_000).unwrap_or_else(|e| {
        eprintln!("ablation_ring: {e}");
        std::process::exit(2)
    });
    outln!("### Ablation: redo-ring capacity (active, Debit-Credit, TPS)\n");
    outln!("| ring | TPS |");
    outln!("|------|-----|");
    for ring in [256u64, 1024, 4096, 16 * 1024, 128 * 1024, MIB] {
        let mut config = EngineConfig::for_db(50 * MIB);
        config.ring_capacity = ring;
        let mut cluster = ActiveCluster::new(CostModel::alpha_21164a(), &config);
        let mut workload = WorkloadKind::DebitCredit.build(cluster.db_region(), 42);
        let report = cluster.run(workload.as_mut(), txns);
        outln!("| {ring:>6} | {:>9.0} |", report.tps());
    }
}

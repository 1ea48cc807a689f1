//! Ablation: posted-write window depth (the PCI bridge queue).
//!
//! The paper's mirroring versions lose to logging partly because bursts of
//! small uncoalesced packets serialize with the link once the shallow
//! posted-write queue fills. Deepening the queue hides more of the SAN
//! time and compresses the gap — quantifying how much of the paper's
//! result depends on 1990s PCI bridges.
use dsnrep_bench::experiments::txns_from_env;
use dsnrep_bench::outln;
use dsnrep_core::{EngineConfig, VersionTag};
use dsnrep_repl::PassiveCluster;
use dsnrep_simcore::{CostModel, MIB};
use dsnrep_workloads::WorkloadKind;

fn main() {
    let txns = txns_from_env("DSNREP_TXNS", 20_000).unwrap_or_else(|e| {
        eprintln!("ablation_window: {e}");
        std::process::exit(2)
    });
    outln!("### Ablation: posted-write window (passive, Debit-Credit, TPS)\n");
    outln!("| window (packets) | Version 1 | Version 3 | V3/V1 |");
    outln!("|------------------|-----------|-----------|-------|");
    for packets in [1usize, 2, 3, 6, 16, 64] {
        let mut tps = [0.0f64; 2];
        for (i, version) in [VersionTag::MirrorCopy, VersionTag::ImprovedLog]
            .iter()
            .enumerate()
        {
            let mut costs = CostModel::alpha_21164a();
            costs.posted_window_packets = packets;
            costs.posted_window = (packets as u64) * 32;
            let config = EngineConfig::for_db(50 * MIB);
            let mut cluster = PassiveCluster::new(costs, *version, &config);
            let mut workload = WorkloadKind::DebitCredit.build(cluster.engine().db_region(), 42);
            tps[i] = cluster.run(workload.as_mut(), txns).tps();
        }
        outln!(
            "| {packets:>16} | {:>9.0} | {:>9.0} | {:>4.2}x |",
            tps[0],
            tps[1],
            tps[1] / tps[0]
        );
    }
}

//! Ablation: how many write buffers does coalescing need?
//!
//! The paper attributes the logging versions' primary-backup advantage to
//! write-buffer coalescing. This sweep varies the number of 32-byte write
//! buffers (the 21164A has 6) and reruns passive Version 3 and Version 1
//! on Debit-Credit: with a single buffer the log stream still coalesces
//! (it is sequential), but the interleaved database writes evict it
//! constantly, shrinking packets and dragging Version 3 toward the
//! mirroring versions.
use dsnrep_bench::experiments::txns_from_env;
use dsnrep_bench::outln;
use dsnrep_core::{EngineConfig, VersionTag};
use dsnrep_repl::PassiveCluster;
use dsnrep_simcore::{CostModel, MIB};
use dsnrep_workloads::WorkloadKind;

fn main() {
    let txns = txns_from_env("DSNREP_TXNS", 20_000).unwrap_or_else(|e| {
        eprintln!("ablation_write_buffers: {e}");
        std::process::exit(2)
    });
    outln!("### Ablation: write-buffer count (passive, Debit-Credit, TPS)\n");
    outln!("| buffers | Version 3 | mean pkt | Version 1 | mean pkt |");
    outln!("|---------|-----------|----------|-----------|----------|");
    for buffers in [1usize, 2, 4, 6, 8, 12] {
        let mut row = format!("| {buffers:>7} |");
        for version in [VersionTag::ImprovedLog, VersionTag::MirrorCopy] {
            let mut costs = CostModel::alpha_21164a();
            costs.write_buffers = buffers;
            let config = EngineConfig::for_db(50 * MIB);
            let mut cluster = PassiveCluster::new(costs, version, &config);
            let mut workload = WorkloadKind::DebitCredit.build(cluster.engine().db_region(), 42);
            let report = cluster.run(workload.as_mut(), txns);
            let mean = cluster.traffic().mean_packet_size();
            row.push_str(&format!(" {:>9.0} | {mean:>7.1}B |", report.tps()));
        }
        outln!("{row}");
    }
}

//! Ablation: where is the mirroring/logging crossover?
//!
//! The paper's benchmarks modify most of each small set-range, which is the
//! worst case for diffing. Sweep the range size at a fixed small write (8
//! bytes per range) and the picture inverts: once ranges are large and
//! sparsely modified, Version 3 pays to log the whole range while Version 2
//! ships only the changed bytes — mirroring-by-diff overtakes logging.
use dsnrep_bench::experiments::txns_from_env;
use dsnrep_bench::outln;
use dsnrep_core::{EngineConfig, VersionTag};
use dsnrep_repl::PassiveCluster;
use dsnrep_simcore::{CostModel, MIB};
use dsnrep_workloads::{Synthetic, SyntheticSpec};

fn main() {
    let txns = txns_from_env("DSNREP_TXNS", 10_000).unwrap_or_else(|e| {
        eprintln!("ablation_range_size: {e}");
        std::process::exit(2)
    });
    outln!("### Ablation: set-range size at a fixed 8-byte write per range (passive, TPS)\n");
    outln!("| range | Version 2 (diff) | Version 3 (log) | winner |");
    outln!("|-------|------------------|-----------------|--------|");
    for range_len in [16u64, 64, 256, 1024, 4096] {
        let mut tps = [0.0f64; 2];
        for (i, version) in [VersionTag::MirrorDiff, VersionTag::ImprovedLog]
            .iter()
            .enumerate()
        {
            let mut config = EngineConfig::for_db(16 * MIB);
            config.undo_capacity = 8 * MIB; // room for large-range logs
            let mut cluster = PassiveCluster::new(CostModel::alpha_21164a(), *version, &config);
            let spec = SyntheticSpec {
                ranges_per_txn: 4,
                range_len,
                write_fraction: (8.0 / range_len as f64).min(1.0),
                working_set: u64::MAX,
            };
            let mut workload = Synthetic::new(cluster.engine().db_region(), spec, 42);
            tps[i] = cluster.run(&mut workload, txns).tps();
        }
        let winner = if tps[0] > tps[1] { "diff" } else { "log" };
        outln!(
            "| {range_len:>5} | {:>16.0} | {:>15.0} | {winner} |",
            tps[0],
            tps[1]
        );
    }
    outln!("\nThe paper's workloads sit at the top of this table (small ranges,");
    outln!("densely modified), which is exactly where logging wins.");
}

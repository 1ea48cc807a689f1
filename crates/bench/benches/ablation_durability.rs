//! Ablation: 1-safe vs 2-safe commits (Gray & Reuter's taxonomy).
//!
//! The paper chooses a 1-safe design and accepts "a very short window of
//! vulnerability". This ablation quantifies the alternative: a 2-safe
//! commit waits one SAN latency (3.3 us) for the commit record to reach
//! the backup, which guarantees zero lost transactions at a steep
//! throughput price on a microsecond-scale engine.
use dsnrep_bench::experiments::txns_from_env;
use dsnrep_bench::outln;
use dsnrep_core::{Durability, EngineConfig, VersionTag};
use dsnrep_repl::{ActiveCluster, PassiveCluster};
use dsnrep_simcore::{CostModel, MIB};
use dsnrep_workloads::WorkloadKind;

fn main() {
    let txns = txns_from_env("DSNREP_TXNS", 20_000).unwrap_or_else(|e| {
        eprintln!("ablation_durability: {e}");
        std::process::exit(2)
    });
    outln!("### Ablation: 1-safe vs 2-safe commit (Debit-Credit, TPS)\n");
    outln!("| scheme | 1-safe | 2-safe | cost |");
    outln!("|--------|--------|--------|------|");
    for (label, version) in [
        ("passive Version 3", Some(VersionTag::ImprovedLog)),
        ("passive Version 1", Some(VersionTag::MirrorCopy)),
        ("active", None),
    ] {
        let mut tps = [0.0f64; 2];
        for (i, durability) in [Durability::OneSafe, Durability::TwoSafe]
            .iter()
            .enumerate()
        {
            let config = EngineConfig::for_db(50 * MIB);
            tps[i] = match version {
                Some(v) => {
                    let mut c = PassiveCluster::new(CostModel::alpha_21164a(), v, &config);
                    c.set_durability(*durability);
                    let mut w = WorkloadKind::DebitCredit.build(c.engine().db_region(), 42);
                    c.run(w.as_mut(), txns).tps()
                }
                None => {
                    let mut c = ActiveCluster::new(CostModel::alpha_21164a(), &config);
                    c.set_durability(*durability);
                    let mut w = WorkloadKind::DebitCredit.build(c.db_region(), 42);
                    c.run(w.as_mut(), txns).tps()
                }
            };
        }
        outln!(
            "| {label} | {:>7.0} | {:>7.0} | -{:.0}% |",
            tps[0],
            tps[1],
            (1.0 - tps[1] / tps[0]) * 100.0
        );
    }
}

//! Ablation: board-cache size and the standalone locality story.
//!
//! Table 3's standalone ranking is a cache-locality effect: the mirroring
//! versions sweep a database-sized mirror through the 8 MB board cache.
//! Shrinking or growing the cache moves the Version 3 vs Version 1 gap
//! accordingly.
use dsnrep_bench::experiments::txns_from_env;
use dsnrep_bench::outln;
use dsnrep_core::{build_engine, EngineConfig, Machine, VersionTag};
use dsnrep_simcore::{CostModel, MIB};
use dsnrep_workloads::{run_standalone, WorkloadKind};

fn main() {
    let txns = txns_from_env("DSNREP_TXNS", 20_000).unwrap_or_else(|e| {
        eprintln!("ablation_cache: {e}");
        std::process::exit(2)
    });
    outln!("### Ablation: cache capacity (standalone, Debit-Credit, TPS)\n");
    outln!("| cache | Version 1 | Version 3 | V3/V1 |");
    outln!("|-------|-----------|-----------|-------|");
    for mb in [1u64, 2, 4, 8, 16, 64] {
        let mut tps = [0.0f64; 2];
        for (i, version) in [VersionTag::MirrorCopy, VersionTag::ImprovedLog]
            .iter()
            .enumerate()
        {
            let mut costs = CostModel::alpha_21164a();
            costs.cache_capacity = mb * MIB;
            let config = EngineConfig::for_db(50 * MIB);
            let arena = dsnrep_core::shared_arena(dsnrep_core::arena_len(*version, &config));
            let mut m = Machine::standalone(costs, arena);
            let mut engine = build_engine(*version, &mut m, &config);
            let mut workload = WorkloadKind::DebitCredit.build(engine.db_region(), 42);
            tps[i] = run_standalone(workload.as_mut(), &mut m, engine.as_mut(), txns).tps();
        }
        outln!(
            "| {mb:>3}MB | {:>9.0} | {:>9.0} | {:>4.2}x |",
            tps[0],
            tps[1],
            tps[1] / tps[0]
        );
    }
}

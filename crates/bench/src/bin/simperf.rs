//! Self-benchmark of the simulator: wall-clock throughput (host CPU,
//! non-deterministic) plus the **deterministic virtual-time footprint** of
//! each scenario. Emits one JSON object on stdout; CI diffs it against the
//! blessed baseline in `crates/bench/baselines/simperf.json` with `simdiff`.
//!
//! ```text
//! cargo run --release -p dsnrep-bench --bin simperf
//! DSNREP_SIMPERF_TXNS=200000 cargo run --release -p dsnrep-bench --bin simperf
//! ```
//!
//! The scenario mix covers the pipeline's distinct hot paths (see
//! PERFORMANCE.md): a standalone engine (cache + arena only), a passive
//! primary-backup pair (write doubling, merge-friendly), mirror-by-copy
//! propagation (the unmerged word-at-a-time path), and the active redo
//! ring. `sim_txns_per_wallclock_sec` is the headline aggregate: total
//! simulated transactions across all scenarios over total wall time.
//!
//! Key-naming contract, relied on by `simdiff`'s gating rules: every metric
//! whose value depends on host timing carries `wall` in its key (compared
//! with a tolerance band, non-gating); everything else is pure virtual-time
//! arithmetic and must be **bit-exact** across runs and machines.

use std::time::Instant;

use dsnrep_bench::experiments::txns_from_env;
use dsnrep_bench::outln;
use dsnrep_cluster::{ReplicationStrategy, Topology};
use dsnrep_core::{build_engine, EngineConfig, Machine, VersionTag};
use dsnrep_mcsim::Traffic;
use dsnrep_repl::{ReplicaSet, Scheme, SmpExperiment};
use dsnrep_simcore::{CostModel, TrafficClass, MIB};
use dsnrep_workloads::{run_standalone, WorkloadKind};

const DB: u64 = 50 * MIB;
const SEED: u64 = 42;

/// Streams in the `bigcell` scenario: 32 primaries + 32 backup arenas =
/// a 64-node cell, the scale the roadmap's RF≥3 work needs to be cheap.
const BIGCELL_STREAMS: usize = 32;

/// Per-stream database size in the `bigcell` scenario.
///
/// Deliberately smaller than the paper's 10 MB per-stream SMP sizing: the
/// shared link is saturated at this stream count, so the scenario's
/// *virtual* metrics are database-size invariant (per-stream cache deltas
/// are absorbed into posted-window stalls) — verified by running the
/// scenario at 1/2/4/10 MiB and diffing. A small database keeps the host
/// working set cache-resident, so the *wall* number measures simulator
/// pipeline overhead rather than host DRAM misses.
const BIGCELL_DB: u64 = 2 * MIB;

/// Bumped whenever the shape of the emitted JSON changes, so `simdiff` (and
/// any script trending the numbers across CI runs) can refuse a comparison
/// instead of silently misparsing.
///
/// v3: added the per-scenario `virtual` block (elapsed_ps, tps, packets,
/// per-class bytes) and renamed the per-scenario wall-throughput key to
/// `sim_txns_per_wall_sec` so every host-time metric contains `wall`.
///
/// v4: added the `bigcell` 64-node cell scenario, a per-scenario `txns`
/// count (scenarios no longer all run exactly `txns_per_scenario`), and
/// `wall_host_cores` (host core count, named with `wall` so cross-machine
/// diffs only warn).
///
/// v5: added the N-node fabric scenarios `chain_rf3` and `quorum_rf3`
/// (RF = 3 improved-log replica sets over per-pair SAN links).
const SCHEMA_VERSION: u32 = 5;

/// The deterministic virtual-time footprint of one scenario. Identical
/// costs, seed and transaction count must reproduce these bit-for-bit.
#[derive(Default)]
struct VirtMetrics {
    elapsed_ps: u64,
    tps: f64,
    packets: u64,
    modified_bytes: u64,
    undo_bytes: u64,
    meta_bytes: u64,
}

impl VirtMetrics {
    fn from_traffic(elapsed_ps: u64, tps: f64, traffic: &Traffic) -> Self {
        VirtMetrics {
            elapsed_ps,
            tps,
            packets: traffic.total_packets(),
            modified_bytes: traffic.bytes(TrafficClass::Modified),
            undo_bytes: traffic.bytes(TrafficClass::Undo),
            meta_bytes: traffic.bytes(TrafficClass::Meta),
        }
    }
}

/// One scenario's result: simulated transactions per wall-clock second,
/// the wall time the scenario consumed (the per-scenario breakdown lets a
/// regression be pinned to a hot path without rerunning), and the virtual
/// footprint `simdiff` gates on.
struct Scenario {
    name: &'static str,
    /// Transactions this scenario actually simulated (the `bigcell`
    /// scenario rounds to a whole number per stream).
    txns: u64,
    txns_per_wall_sec: f64,
    wall_secs: f64,
    virt: VirtMetrics,
}

fn standalone_scenario(name: &'static str, version: VersionTag, txns: u64) -> Scenario {
    let config = EngineConfig::for_db(DB);
    let arena = dsnrep_core::shared_arena(dsnrep_core::arena_len(version, &config));
    let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
    let mut engine = build_engine(version, &mut m, &config);
    let mut workload = WorkloadKind::DebitCredit.build(engine.db_region(), SEED);
    let t0 = Instant::now();
    let report = run_standalone(workload.as_mut(), &mut m, engine.as_mut(), txns);
    let wall_secs = t0.elapsed().as_secs_f64();
    Scenario {
        name,
        txns,
        txns_per_wall_sec: txns as f64 / wall_secs,
        wall_secs,
        virt: VirtMetrics {
            // A standalone machine has no SAN port: no packets, no bytes.
            elapsed_ps: report.elapsed.as_picos(),
            tps: report.tps(),
            ..Default::default()
        },
    }
}

/// Times `txns` Debit-Credit transactions on `set`, then drains its
/// in-flight writes (untimed: deterministic virtual work only) so the
/// traffic counters cover the whole run.
fn set_scenario(name: &'static str, mut set: ReplicaSet, txns: u64) -> Scenario {
    let mut workload = WorkloadKind::DebitCredit.build(set.db_region(), SEED);
    let t0 = Instant::now();
    let report = set.run(workload.as_mut(), txns);
    let wall_secs = t0.elapsed().as_secs_f64();
    set.quiesce();
    Scenario {
        name,
        txns,
        txns_per_wall_sec: txns as f64 / wall_secs,
        wall_secs,
        virt: VirtMetrics::from_traffic(
            set.machine().stats().elapsed.as_picos(),
            report.tps(),
            &set.traffic(),
        ),
    }
}

/// The paper's pair under `scheme`, on a `DB`-byte database.
fn pair_scenario(name: &'static str, scheme: Scheme, txns: u64) -> Scenario {
    let set = ReplicaSet::pair(CostModel::alpha_21164a(), scheme, &EngineConfig::for_db(DB));
    set_scenario(name, set, txns)
}

/// An RF = 3 improved-log replica set: the head's native pair link plus
/// the multi-link fabric (chain hops or quorum fan-out/ack legs). These
/// pin the cost of the N-node paths next to `passive_improved_log`, so a
/// fabric-side regression cannot hide inside the pair numbers.
fn replica_set_scenario(name: &'static str, topology: Topology, txns: u64) -> Scenario {
    let set = ReplicaSet::new(
        CostModel::alpha_21164a(),
        VersionTag::ImprovedLog,
        &EngineConfig::for_db(DB),
        topology,
    );
    set_scenario(name, set, txns)
}

/// The 64-node cell: 32 passive improved-log streams (32 primaries + 32
/// backup arenas) over one shared link, interleaved in minimum-virtual-time
/// order — the many-node stress case.
/// `txns` is a total across streams; each stream runs `txns / 32` (rounded
/// down, min 1), and the reported `txns` is the actual total simulated.
fn bigcell_scenario(name: &'static str, txns: u64) -> Scenario {
    let config = EngineConfig::for_db(BIGCELL_DB);
    let exp = SmpExperiment::new(
        CostModel::alpha_21164a(),
        Scheme::Passive(VersionTag::ImprovedLog),
        WorkloadKind::DebitCredit,
        &config,
        BIGCELL_STREAMS,
    );
    let per_stream = (txns / BIGCELL_STREAMS as u64).max(1);
    let total = per_stream * BIGCELL_STREAMS as u64;
    let t0 = Instant::now();
    let report = exp.run(per_stream);
    let wall_secs = t0.elapsed().as_secs_f64();
    Scenario {
        name,
        txns: total,
        txns_per_wall_sec: total as f64 / wall_secs,
        wall_secs,
        virt: VirtMetrics::from_traffic(
            report.makespan.as_picos(),
            report.aggregate_tps(),
            &report.traffic,
        ),
    }
}

fn main() {
    let txns = txns_from_env("DSNREP_SIMPERF_TXNS")
        .map(|txns| txns.unwrap_or(50_000))
        .unwrap_or_else(|e| {
            eprintln!("simperf: {e}");
            std::process::exit(2)
        });
    let wall = Instant::now();

    let chain3 = Topology::new(3, ReplicationStrategy::Chain).expect("rf 3 chain");
    let quorum3 = Topology::new(3, ReplicationStrategy::Quorum { read: 2, write: 2 })
        .expect("rf 3 majority quorum");
    let scenarios = [
        standalone_scenario("standalone_improved_log", VersionTag::ImprovedLog, txns),
        pair_scenario("passive_vista", Scheme::Passive(VersionTag::Vista), txns),
        pair_scenario(
            "passive_mirror_copy",
            Scheme::Passive(VersionTag::MirrorCopy),
            txns,
        ),
        pair_scenario(
            "passive_improved_log",
            Scheme::Passive(VersionTag::ImprovedLog),
            txns,
        ),
        pair_scenario("active_redo_ring", Scheme::Active, txns),
        replica_set_scenario("chain_rf3", chain3, txns),
        replica_set_scenario("quorum_rf3", quorum3, txns),
        bigcell_scenario("bigcell", txns),
    ];

    let total_txns: u64 = scenarios.iter().map(|s| s.txns).sum();
    let total_secs = wall.elapsed().as_secs_f64();
    let host_cores = std::thread::available_parallelism().map_or(0, usize::from);

    outln!("{{");
    outln!("  \"schema_version\": {SCHEMA_VERSION},");
    outln!("  \"txns_per_scenario\": {txns},");
    outln!("  \"wall_host_cores\": {host_cores},");
    outln!(
        "  \"sim_txns_per_wallclock_sec\": {:.0},",
        total_txns as f64 / total_secs
    );
    outln!("  \"wallclock_secs\": {total_secs:.3},");
    outln!("  \"scenarios\": {{");
    for (i, s) in scenarios.iter().enumerate() {
        let comma = if i + 1 < scenarios.len() { "," } else { "" };
        outln!("    \"{}\": {{", s.name);
        outln!(
            "      \"txns\": {}, \"sim_txns_per_wall_sec\": {:.0}, \"wall_secs\": {:.3},",
            s.txns,
            s.txns_per_wall_sec,
            s.wall_secs
        );
        outln!(
            "      \"virtual\": {{\"elapsed_ps\": {}, \"tps\": {:.3}, \"packets\": {}, \
             \"modified_bytes\": {}, \"undo_bytes\": {}, \"meta_bytes\": {}}}",
            s.virt.elapsed_ps,
            s.virt.tps,
            s.virt.packets,
            s.virt.modified_bytes,
            s.virt.undo_bytes,
            s.virt.meta_bytes
        );
        outln!("    }}{comma}");
    }
    outln!("  }}");
    outln!("}}");
}

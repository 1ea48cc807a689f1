//! Property test for the attribution tree's conservation invariant.
//!
//! The tentpole claim of the attribution engine is that its leaves —
//! CPU issue, cache, per-class SAN payload, and per-cause stalls —
//! **provably sum to total virtual time** for every node. `Clock` makes
//! that true by construction (every `advance_for`/`advance_to_for` call
//! books its cause); this test checks nothing in the charge paths escapes
//! the books, across every engine version, both replication drivers,
//! both workloads, and randomized run lengths and seeds.

use dsnrep_bench::trace::build_attribution;
use dsnrep_core::{EngineConfig, MachineStats, VersionTag};
use dsnrep_obs::{FlightRecorder, TRACK_BACKUP, TRACK_PRIMARY};
use dsnrep_repl::{ActiveCluster, PassiveCluster, Scheme};
use dsnrep_simcore::{CostModel, MIB};
use dsnrep_workloads::WorkloadKind;
use proptest::prelude::*;

const DB: u64 = MIB;

fn version_strategy() -> impl Strategy<Value = VersionTag> {
    prop_oneof![
        Just(VersionTag::Vista),
        Just(VersionTag::MirrorCopy),
        Just(VersionTag::MirrorDiff),
        Just(VersionTag::ImprovedLog),
    ]
}

fn workload_strategy() -> impl Strategy<Value = WorkloadKind> {
    prop_oneof![
        Just(WorkloadKind::DebitCredit),
        Just(WorkloadKind::OrderEntry)
    ]
}

/// Conservation must already hold at the clock level for each node; the
/// tree-level check then pins the aggregation itself.
fn assert_conserved(
    scheme: Scheme,
    recorder: &FlightRecorder,
    primary: &MachineStats,
    backup: Option<&MachineStats>,
) {
    for (stream, stats) in
        std::iter::once(("primary", primary)).chain(backup.map(|b| ("backup", b)))
    {
        let leaves: u64 = stats
            .busy_breakdown
            .iter()
            .chain(stats.stall_breakdown.iter())
            .map(|d| d.as_picos())
            .sum();
        assert_eq!(
            stats.elapsed.as_picos(),
            leaves,
            "{stream} clock leaked virtual time past the cause accounting"
        );
    }
    // build_attribution panics on a conservation failure.
    let tree = build_attribution("prop", scheme, recorder, primary, backup);
    assert!(tree.verify_conservation().is_ok());
    assert_eq!(
        tree.total_picos(),
        primary.elapsed.as_picos() + backup.map(|b| b.elapsed.as_picos()).unwrap_or_default()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Passive replication: every engine version's busy and stall leaves
    /// sum to each node's elapsed virtual time.
    #[test]
    fn passive_attribution_conserves_virtual_time(
        version in version_strategy(),
        kind in workload_strategy(),
        txns in 5u64..120,
        seed in 1u64..500,
        crash in any::<bool>(),
    ) {
        let recorder = FlightRecorder::new();
        recorder.set_track_name(TRACK_PRIMARY, "primary");
        recorder.set_track_name(TRACK_BACKUP, "backup");
        let config = EngineConfig::for_db(DB);
        let mut cluster =
            PassiveCluster::new_traced(CostModel::alpha_21164a(), version, &config, recorder.clone());
        let mut workload = kind.build_traced(cluster.engine().db_region(), seed);
        cluster.run(workload.as_mut(), txns);
        let scheme = Scheme::Passive(version);
        if crash {
            let primary = cluster.machine().stats();
            let failover = cluster.crash_primary();
            let backup = failover.machine.stats();
            assert_conserved(scheme, &recorder, &primary, Some(&backup));
        } else {
            cluster.quiesce();
            let primary = cluster.machine().stats();
            assert_conserved(scheme, &recorder, &primary, None);
        }
    }

    /// Active replication: same invariant, redo-ring driver (primary and
    /// backup streams both conserve).
    #[test]
    fn active_attribution_conserves_virtual_time(
        kind in workload_strategy(),
        txns in 5u64..120,
        seed in 1u64..500,
        crash in any::<bool>(),
    ) {
        let recorder = FlightRecorder::new();
        recorder.set_track_name(TRACK_PRIMARY, "primary");
        recorder.set_track_name(TRACK_BACKUP, "backup");
        let config = EngineConfig::for_db(DB);
        let mut cluster =
            ActiveCluster::new_traced(CostModel::alpha_21164a(), &config, recorder.clone());
        let mut workload = kind.build_traced(cluster.db_region(), seed);
        cluster.run(workload.as_mut(), txns);
        if crash {
            let primary = cluster.machine().stats();
            let failover = cluster.crash_primary().expect("replicated layout");
            let backup = failover.machine.stats();
            assert_conserved(Scheme::Active, &recorder, &primary, Some(&backup));
        } else {
            cluster.quiesce();
            let primary = cluster.machine().stats();
            let backup = cluster.backup_stats().expect("an active pair has a backup CPU");
            assert_conserved(Scheme::Active, &recorder, &primary, Some(&backup));
        }
    }
}

//! Multi-backup passive replication over Memory Channel multicast.

use dsnrep_cluster::{ReplicationStrategy, Topology};
use dsnrep_core::{EngineConfig, VersionTag};
use dsnrep_repl::{PassiveCluster, ReplicaSet};
use dsnrep_simcore::{CostModel, MIB};
use dsnrep_workloads::{TxCtx, WorkloadKind};

/// A primary-backup set with `backups` passive backups.
fn backups_cluster(version: VersionTag, backups: u8) -> ReplicaSet {
    let topology = Topology::new(backups + 1, ReplicationStrategy::PrimaryBackup)
        .expect("a valid primary-backup shape");
    ReplicaSet::new(
        CostModel::alpha_21164a(),
        version,
        &EngineConfig::for_db(MIB),
        topology,
    )
}

fn three_replica_cluster(version: VersionTag) -> ReplicaSet {
    backups_cluster(version, 3)
}

#[test]
fn all_backups_receive_identical_state() {
    for version in VersionTag::ALL {
        let mut cluster = three_replica_cluster(version);
        let mut workload = WorkloadKind::DebitCredit.build(cluster.engine().db_region(), 7);
        cluster.run(workload.as_mut(), 300);
        cluster.quiesce();
        let regions = cluster.engine().replicated_regions();
        let reference = cluster.backup_arenas()[0].borrow().clone();
        for (i, backup) in cluster.backup_arenas().iter().enumerate().skip(1) {
            let backup = backup.borrow();
            for region in &regions {
                assert_eq!(
                    reference.region_vec(*region),
                    backup.region_vec(*region),
                    "{version}: backup {i} diverged in {region}"
                );
            }
        }
    }
}

#[test]
fn multicast_costs_the_same_as_unicast() {
    // One packet reaches every receiver: link traffic and throughput must
    // not depend on the backup count.
    let tps_and_bytes = |backups: u8| {
        let mut cluster = backups_cluster(VersionTag::ImprovedLog, backups);
        let mut workload = WorkloadKind::DebitCredit.build(cluster.engine().db_region(), 3);
        let report = cluster.run(workload.as_mut(), 500);
        let bytes = cluster.head_traffic().total_bytes();
        (report.elapsed, bytes)
    };
    assert_eq!(tps_and_bytes(1), tps_and_bytes(3));
}

#[test]
fn any_backup_can_take_over() {
    for index in 0..3u8 {
        let mut cluster = three_replica_cluster(VersionTag::ImprovedLog);
        let mut workload = WorkloadKind::DebitCredit.build(cluster.engine().db_region(), 9);
        cluster.run(workload.as_mut(), 200);
        let mut failover = cluster.begin_takeover_to(index + 1).takeover.recover();
        assert!(failover.report.committed_seq <= 200);
        assert!(
            failover.report.committed_seq >= 150,
            "lost too much at backup {index}"
        );
        for _ in 0..20 {
            let mut ctx = TxCtx::new(&mut failover.machine, failover.engine.as_mut());
            workload
                .run_txn(&mut ctx)
                .expect("post-failover transaction");
        }
    }
}

#[test]
fn cascading_failover_survives_two_crashes() {
    // Primary dies; backup 0 takes over with backup 1 as its new backup
    // (fresh cluster wiring); then the new primary dies too.
    let mut cluster = three_replica_cluster(VersionTag::ImprovedLog);
    let mut workload = WorkloadKind::DebitCredit.build(cluster.engine().db_region(), 15);
    cluster.run(workload.as_mut(), 200);
    let failover = cluster.begin_takeover_to(1).takeover.recover();
    let seq_after_first = failover.report.committed_seq;

    // The promoted node re-replicates to the surviving replica by running
    // a fresh cluster seeded from its recovered arena (re-synchronization).
    let costs = CostModel::alpha_21164a();
    let config = EngineConfig::for_db(MIB);
    let mut second = PassiveCluster::new(costs, VersionTag::ImprovedLog, &config);
    // Seed the second cluster's primary arena from the recovered state.
    {
        let recovered = failover.machine.arena().borrow().clone();
        *second.machine_mut().arena().borrow_mut() = recovered;
    }
    second.resync_backup();
    cluster_run_more(&mut second, workload.as_mut(), 100);
    let failover2 = second.crash_primary();
    assert!(failover2.report.committed_seq >= seq_after_first + 50);
}

fn cluster_run_more(
    cluster: &mut PassiveCluster,
    workload: &mut dyn dsnrep_workloads::Workload,
    txns: u64,
) {
    cluster.run(workload, txns);
}

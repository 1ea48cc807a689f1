//! Read-path oracle checks for the N-node replica set: replica reads
//! never observe uncommitted state, and a client's reads stay monotonic
//! across a head crash and takeover.
//!
//! The takeover case is regression-style: the crash boundary comes from an
//! embedded, already-shrunk [`FaultPlan`] literal, and the same plan is
//! replayed through the faultsim executor so the full invariant suite
//! (loss bound, torn-tail containment) runs alongside the read checks.

use dsnrep_cluster::{ReplicationStrategy, Topology};
use dsnrep_core::{EngineConfig, VersionTag};
use dsnrep_faultsim::{execute, FaultPlan, FaultSite, Scenario};
use dsnrep_repl::ReplicaSet;
use dsnrep_simcore::{CostModel, VirtualDuration, VirtualInstant, MIB};
use dsnrep_workloads::{Workload, WorkloadKind};

/// The shrunk counterexample-shaped schedule the monotonicity regression
/// replays: crash the head on the quiet boundary after the third commit.
/// (Boundary crashes maximize the committed prefix a client could already
/// have observed, which is exactly what monotonic reads stress.)
const SHRUNK_PLAN: &str = "crash primary @ txn=3";

fn build_set(topology: Topology) -> ReplicaSet {
    let config = EngineConfig::for_db(MIB);
    ReplicaSet::new(
        CostModel::alpha_21164a(),
        VersionTag::ImprovedLog,
        &config,
        topology,
    )
}

fn replicated_topologies() -> Vec<Topology> {
    vec![
        Topology::new(3, ReplicationStrategy::Chain).expect("rf 3 chain"),
        Topology::new(5, ReplicationStrategy::Chain).expect("rf 5 chain"),
        Topology::new(3, ReplicationStrategy::Quorum { read: 2, write: 2 }).expect("rf 3 quorum"),
        Topology::new(5, ReplicationStrategy::Quorum { read: 3, write: 3 }).expect("rf 5 quorum"),
    ]
}

/// Tail and R-quorum reads may lag the coordinator but must never run
/// ahead of it: whatever prefix a read observes was committed at (or
/// before) the read's own virtual instant. Sweeps read instants across
/// every commit boundary, including instants *before* the first commit
/// and mid-propagation instants right at commit time.
#[test]
fn replica_reads_never_observe_uncommitted_values() {
    for topology in replicated_topologies() {
        let mut set = build_set(topology);
        let mut workload: Box<dyn Workload> =
            WorkloadKind::DebitCredit.build(set.engine().db_region(), 7);
        let mut saw_boundary_effect = false;
        // A read before anything committed observes the empty prefix.
        let early = set.serve_read(VirtualInstant::EPOCH);
        assert_eq!(early.seq, 0, "{topology}: nothing is committed yet");
        for _ in 0..20 {
            set.run_txn(workload.as_mut());
            let commit = set.machine().now();
            // Just before, exactly at, and progressively after the
            // commit: propagation down the chain / across the fabric
            // makes the tight offsets the interesting ones.
            let offsets_picos = [0u64, 1, 50_000, 500_000, 5_000_000, 50_000_000];
            let before = VirtualInstant::from_picos(commit.as_picos().saturating_sub(1_000));
            let mut instants = vec![before, commit];
            instants.extend(
                offsets_picos
                    .iter()
                    .map(|&off| commit + VirtualDuration::from_picos(off)),
            );
            let committed_now = set.committed_at(set.machine().now());
            for at in instants {
                let committed = set.committed_at(at);
                let sample = set.serve_read(at);
                // Nothing beyond the durably committed prefix, ever: a
                // replica copy can hold the *one* transaction the head is
                // mid-commit on (receipt precedes the commit declaration
                // travelling back), but never a value that did not
                // commit, and never more than that single in-flight
                // transaction early.
                assert!(
                    sample.seq <= committed_now,
                    "{topology}: read at {} ps observed prefix {} beyond the {} \
                     durably committed",
                    at.as_picos(),
                    sample.seq,
                    committed_now
                );
                assert!(
                    sample.seq <= committed + 1,
                    "{topology}: read at {} ps observed prefix {} with only {} \
                     committed at that instant",
                    at.as_picos(),
                    sample.seq,
                    committed
                );
                assert_eq!(
                    sample.staleness,
                    committed.saturating_sub(sample.seq),
                    "{topology}: staleness must be the commit-prefix gap"
                );
                assert!(
                    sample.completed > sample.at,
                    "{topology}: service is not free"
                );
                if sample.seq != committed {
                    saw_boundary_effect = true;
                }
            }
        }
        if matches!(topology.strategy(), ReplicationStrategy::Chain) {
            // The chain head stalls until the tail's acknowledgement, so
            // the tail holds each transaction *before* the head declares
            // it committed: the pre-commit instant must observe the
            // in-flight transaction at least once, or the sweep never
            // actually straddled a commit boundary.
            assert!(
                saw_boundary_effect,
                "{topology}: no read ever straddled a commit boundary — the \
                 sweep is toothless"
            );
        }
    }
}

/// A single client's reads never go backwards across a takeover: the
/// promoted node serves a prefix at least as long as anything the client
/// observed before the crash.
///
/// Scoped to the 2-safe strategies. 1-safe primary-backup ships its log
/// asynchronously and is *allowed* to lose a tail window at failover —
/// that regression is the paper's 1-safe tradeoff, not a bug, so it is
/// deliberately outside this invariant.
#[test]
fn client_reads_stay_monotonic_across_a_takeover() {
    let plan: FaultPlan = SHRUNK_PLAN.parse().expect("embedded plan parses");
    let Some(FaultSite::Txn(crash_after)) = plan.primary_crash() else {
        panic!("the embedded plan names a txn-boundary crash");
    };
    let topologies = vec![
        Topology::new(3, ReplicationStrategy::Chain).expect("rf 3 chain"),
        Topology::new(3, ReplicationStrategy::Quorum { read: 2, write: 2 }).expect("rf 3 quorum"),
    ];
    for topology in topologies {
        let mut set = build_set(topology);
        let mut workload: Box<dyn Workload> =
            WorkloadKind::DebitCredit.build(set.engine().db_region(), 7);
        // One client: a read settles after every commit. The +10 us
        // offset lets propagation land so the client sees a nontrivial
        // prefix (a zero-prefix read would make monotonicity vacuous).
        let mut observed: Vec<u64> = Vec::new();
        for _ in 0..crash_after {
            set.run_txn(workload.as_mut());
            let at = set.machine().now() + VirtualDuration::from_micros(10);
            observed.push(set.serve_read(at).seq);
        }
        assert!(
            observed.windows(2).all(|w| w[0] <= w[1]),
            "{topology}: pre-crash reads regressed: {observed:?}"
        );
        let last_read = *observed.last().expect("the client read at least once");
        assert!(last_read > 0, "{topology}: the client must observe commits");

        let takeover = set.begin_takeover();
        let mut failover = takeover.takeover.recover();
        let recovered = failover.engine.committed_seq(&mut failover.machine);
        assert!(
            recovered >= last_read,
            "{topology}: the promoted node serves prefix {recovered} but the \
             client already observed {last_read}"
        );
        // The client keeps reading from the promoted primary; its
        // sequence must keep growing through post-takeover commits.
        let mut workload: Box<dyn Workload> =
            WorkloadKind::DebitCredit.build(failover.engine.db_region(), 7);
        let mut previous = recovered;
        for _ in 0..3 {
            failover.run_txn(workload.as_mut());
            let seq = failover.engine.committed_seq(&mut failover.machine);
            assert!(
                seq >= previous,
                "{topology}: post-takeover reads regressed from {previous} to {seq}"
            );
            previous = seq;
        }
    }

    // Replay the same embedded plan through the executor so the full
    // invariant suite (loss bound, torn-tail containment) runs on the
    // exact schedule the read checks used.
    for scenario in [
        Scenario::chain(VersionTag::ImprovedLog, WorkloadKind::DebitCredit, 3),
        Scenario::quorum(VersionTag::ImprovedLog, WorkloadKind::DebitCredit, 3, 2, 2),
    ] {
        let outcome = execute(&scenario, &plan).expect("the embedded plan executes");
        assert!(
            outcome.violation.is_none(),
            "plan `{plan}` on {scenario}: {}",
            outcome.violation.clone().expect("checked above")
        );
        assert!(outcome.committed >= crash_after);
        // 2-safety is what makes client reads monotonic: the promoted
        // node recovers at least everything that committed.
        assert!(outcome.recovered >= outcome.committed);
    }
}

//! N-node acceptance: exhaustive single-fault sweeps and partition
//! campaigns for the chain and quorum drivers at RF = 3, checked against
//! the shadow oracle with the 2-safe invariant
//! `committed <= recovered <= committed + 1`.

use dsnrep_core::VersionTag;
use dsnrep_faultsim::{
    execute, exhaustive_single_fault, partition_campaign, random_campaign, Campaign, FaultPlan,
    Mutation, Scenario,
};
use dsnrep_workloads::WorkloadKind;

fn assert_clean(campaign: &Campaign) {
    assert!(
        campaign.clean(),
        "campaign found counterexamples:\n{}",
        campaign
            .counterexamples
            .iter()
            .map(|c| format!(
                "  plan `{}` shrunk to `{}`: {}",
                c.original, c.shrunk, c.shrunk_violation
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn chain_rf3(version: VersionTag) -> Scenario {
    Scenario::chain(version, WorkloadKind::DebitCredit, 3)
}

fn quorum_rf3(version: VersionTag) -> Scenario {
    Scenario::quorum(version, WorkloadKind::DebitCredit, 3, 2, 2)
}

#[test]
fn exhaustive_sweep_chain_rf3_v3() {
    let campaign = exhaustive_single_fault(&chain_rf3(VersionTag::ImprovedLog), None).unwrap();
    assert_clean(&campaign);
    assert!(campaign.store_sites > 0);
    assert!(campaign.packet_sites > 0);
    // No recovery_sites assertion: the 2-safe head drains the link
    // between transactions, so the deepest store-boundary crash can land
    // before the in-flight undo head was delivered — a 0-write recovery.
}

#[test]
fn exhaustive_sweep_chain_rf3_v1() {
    let campaign = exhaustive_single_fault(&chain_rf3(VersionTag::MirrorCopy), None).unwrap();
    assert_clean(&campaign);
}

#[test]
fn exhaustive_sweep_quorum_rf3_v3() {
    let campaign = exhaustive_single_fault(&quorum_rf3(VersionTag::ImprovedLog), None).unwrap();
    assert_clean(&campaign);
    assert!(campaign.store_sites > 0);
    assert!(campaign.packet_sites > 0);
}

#[test]
fn partition_campaign_chain_rf3_is_clean_and_degrades() {
    let scenario = chain_rf3(VersionTag::ImprovedLog).with_txns(6);
    let campaign = partition_campaign(&scenario, 0xFACADE, 24, None).unwrap();
    assert_clean(&campaign);
    assert_eq!(campaign.partition_faults, 24, "every plan must partition");
    assert!(
        campaign.degraded_commits > 0,
        "dropping a chain hop must produce degraded commits somewhere in 24 plans"
    );
}

#[test]
fn partition_campaign_quorum_rf3_is_clean() {
    let scenario = quorum_rf3(VersionTag::ImprovedLog).with_txns(6);
    let campaign = partition_campaign(&scenario, 0x5EED, 24, None).unwrap();
    assert_clean(&campaign);
    assert_eq!(campaign.partition_faults, 24);
}

#[test]
fn partition_campaigns_replay_identically_from_a_seed() {
    let scenario = quorum_rf3(VersionTag::ImprovedLog);
    let a = partition_campaign(&scenario, 0xAB, 10, None).unwrap();
    let b = partition_campaign(&scenario, 0xAB, 10, None).unwrap();
    assert_eq!(a, b, "same seed must reproduce the same campaign");
}

#[test]
fn random_multi_fault_campaigns_cover_partitions() {
    let campaign = random_campaign(&chain_rf3(VersionTag::ImprovedLog), 0xC4A1, 32, None).unwrap();
    assert_clean(&campaign);
    assert!(
        campaign.partition_faults > 0,
        "a 32-plan chain campaign should roll at least one partition event"
    );
}

#[test]
fn planted_recovery_bug_is_caught_on_the_chain_driver() {
    let scenario = chain_rf3(VersionTag::ImprovedLog).with_txns(2);
    let campaign = exhaustive_single_fault(&scenario, Some(Mutation::ScribbleCommitted)).unwrap();
    assert!(
        !campaign.clean(),
        "the planted bug must surface through a chain takeover"
    );
}

#[test]
fn partition_plans_on_unmodeled_pairs_are_rejected() {
    // The chain at RF=3 moves packets over 1->2 and 2->0; 0->2 is a
    // quorum-only leg.
    let plan: FaultPlan = "partition 0->2 drop after=1".parse().unwrap();
    let err = execute(&chain_rf3(VersionTag::ImprovedLog), &plan).unwrap_err();
    assert!(err.message().contains("never moves packets"), "{err}");
    // The same plan is valid for the quorum driver...
    let ok = execute(&quorum_rf3(VersionTag::ImprovedLog), &plan).unwrap();
    assert!(ok.violation.is_none(), "{}", ok.violation.unwrap());
    // ...and partitions are rejected outright on the pair drivers.
    let err = execute(
        &Scenario::passive(VersionTag::ImprovedLog, WorkloadKind::DebitCredit),
        &plan,
    )
    .unwrap_err();
    assert!(err.message().contains("multi-link fabric"), "{err}");
}

#[test]
fn graceful_partitioned_run_keeps_node1_exact() {
    // No crash at all: W=3 needs both replica acks, so the starved head
    // times out every transaction — yet node 1's image stays
    // oracle-exact and nothing is lost.
    let scenario = Scenario::quorum(VersionTag::ImprovedLog, WorkloadKind::DebitCredit, 3, 1, 3);
    let plan: FaultPlan = "partition 0->2 drop after=0".parse().unwrap();
    let outcome = execute(&scenario, &plan).unwrap();
    assert!(
        outcome.violation.is_none(),
        "{}",
        outcome.violation.unwrap()
    );
    assert_eq!(outcome.recovered, outcome.committed);
    assert_eq!(outcome.degraded, outcome.committed, "every commit degraded");
}

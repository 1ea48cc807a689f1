//! Tentpole acceptance: exhaustive single-fault sweeps over every
//! engine x driver combination, a planted recovery bug that must be
//! caught and shrunk, and bit-determinism of campaigns.
//!
//! These tests replace the hand-rolled store-boundary sweep that used to
//! live in `crates/core/tests/mid_commit_crashes.rs` — the FaultPlan
//! explorer covers the same boundaries (and more) through the shadow
//! oracle instead of a private reference harness.

use dsnrep_core::VersionTag;
use dsnrep_faultsim::{
    execute, exhaustive_single_fault, random_campaign, Campaign, Mutation, Probe, Scenario,
    Violation,
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

/// Sweeps a standalone scenario and pins its exact counters: plans run,
/// faults fired, store sites and recovery sites, then the probe. Neither
/// `faultcov.json` nor the host benchmark runs the standalone driver, so
/// these numbers are its only bit-exact gate.
fn sweep_standalone(version: VersionTag, counters: [u64; 4], probe: Probe) {
    let scenario = Scenario::standalone(version, WorkloadKind::DebitCredit);
    let campaign = exhaustive_single_fault(&scenario, None).unwrap();
    assert_clean(&campaign);
    assert_eq!(
        [
            campaign.plans_run,
            campaign.faults_fired,
            campaign.store_sites,
            campaign.recovery_sites,
        ],
        counters,
        "{scenario}: plans run, faults fired, store sites, recovery sites"
    );
    assert_eq!(campaign.probe, probe, "{scenario}: probe");
}

fn sweep_passive(version: VersionTag) {
    let scenario = Scenario::passive(version, WorkloadKind::DebitCredit);
    let campaign = exhaustive_single_fault(&scenario, None).unwrap();
    assert_clean(&campaign);
    assert!(
        campaign.packet_sites > 0,
        "a clustered sweep must cover SAN packet boundaries"
    );
    assert!(campaign.store_sites > 0);
    assert!(campaign.recovery_sites > 0, "no mid-recovery crashes swept");
}

// Every engine version x {standalone, passive} — the 8 combinations the
// acceptance sweep requires — split into separate tests so the harness
// runs them in parallel.

#[test]
fn exhaustive_sweep_standalone_v0() {
    sweep_standalone(
        VersionTag::Vista,
        [696, 702, 691, 11],
        Probe {
            stores: 680,
            packets: 0,
            recovery_writes: 11,
        },
    );
}

#[test]
fn exhaustive_sweep_standalone_v1() {
    sweep_standalone(
        VersionTag::MirrorCopy,
        [107, 104, 102, 2],
        Probe {
            stores: 100,
            packets: 0,
            recovery_writes: 2,
        },
    );
}

#[test]
fn exhaustive_sweep_standalone_v2() {
    sweep_standalone(
        VersionTag::MirrorDiff,
        [117, 114, 112, 2],
        Probe {
            stores: 110,
            packets: 0,
            recovery_writes: 2,
        },
    );
}

#[test]
fn exhaustive_sweep_standalone_v3() {
    sweep_standalone(
        VersionTag::ImprovedLog,
        [62, 62, 57, 5],
        Probe {
            stores: 52,
            packets: 0,
            recovery_writes: 5,
        },
    );
}

#[test]
fn exhaustive_sweep_passive_v0() {
    sweep_passive(VersionTag::Vista);
}

#[test]
fn exhaustive_sweep_passive_v1() {
    sweep_passive(VersionTag::MirrorCopy);
}

#[test]
fn exhaustive_sweep_passive_v2() {
    sweep_passive(VersionTag::MirrorDiff);
}

#[test]
fn exhaustive_sweep_passive_v3() {
    sweep_passive(VersionTag::ImprovedLog);
}

#[test]
fn exhaustive_sweep_active_one_safe() {
    let scenario = Scenario::active(WorkloadKind::DebitCredit);
    let campaign = exhaustive_single_fault(&scenario, None).unwrap();
    assert_clean(&campaign);
    assert!(campaign.packet_sites > 0);
}

#[test]
fn exhaustive_sweep_active_two_safe() {
    let scenario = Scenario::active(WorkloadKind::DebitCredit).two_safe();
    let campaign = exhaustive_single_fault(&scenario, None).unwrap();
    assert_clean(&campaign);
}

#[test]
fn exhaustive_sweep_passive_order_entry() {
    // OrderEntry needs a 1 MiB database; two transactions keep the sweep
    // affordable while still crossing multi-record commit boundaries.
    let scenario =
        Scenario::passive(VersionTag::ImprovedLog, WorkloadKind::OrderEntry).with_txns(2);
    let campaign = exhaustive_single_fault(&scenario, None).unwrap();
    assert_clean(&campaign);
    assert!(campaign.store_sites > 0);
}

#[test]
fn planted_recovery_bug_is_caught_and_shrunk_standalone() {
    let scenario =
        Scenario::standalone(VersionTag::ImprovedLog, WorkloadKind::DebitCredit).with_txns(2);
    let campaign = exhaustive_single_fault(&scenario, Some(Mutation::SkipUndoChain)).unwrap();
    assert!(
        !campaign.clean(),
        "a recovery that skips the undo chain must fail the sweep"
    );
    for c in &campaign.counterexamples {
        assert!(
            c.shrunk.events().len() <= 3,
            "shrunk plan `{}` still has {} events",
            c.shrunk,
            c.shrunk.events().len()
        );
        assert!(
            c.regression_test.contains("#[test]")
                && c.regression_test.contains(&format!("\"{}\"", c.shrunk)),
            "regression snippet must embed the shrunk plan:\n{}",
            c.regression_test
        );
        // The shrunk plan's text form must round-trip through the DSL.
        let reparsed: dsnrep_faultsim::FaultPlan = c.shrunk.to_string().parse().unwrap();
        assert_eq!(reparsed, c.shrunk);
    }
}

#[test]
fn planted_recovery_bug_is_caught_on_every_takeover_driver() {
    // SkipUndoChain is legitimately invisible to a 1-safe failover (its
    // torn window covers the unrolled bytes), so the takeover planted bug
    // scribbles over *committed* data instead — no window explains that.
    // The chain driver's row lives in n_node_campaigns.rs.
    let v3 = VersionTag::ImprovedLog;
    let dc = WorkloadKind::DebitCredit;
    for scenario in [
        Scenario::passive(v3, dc),
        Scenario::active(dc),
        Scenario::active(dc).two_safe(),
        Scenario::quorum(v3, dc, 3, 2, 2),
        Scenario::quorum(v3, dc, 3, 1, 3),
    ] {
        let scenario = scenario.with_txns(2);
        let campaign =
            exhaustive_single_fault(&scenario, Some(Mutation::ScribbleCommitted)).unwrap();
        assert!(
            !campaign.clean(),
            "{scenario}: the planted bug must surface through the takeover"
        );
        for c in &campaign.counterexamples {
            assert!(
                matches!(c.shrunk_violation, Violation::Divergence { .. }),
                "{scenario}: `{}` shrunk to a non-divergence: {}",
                c.shrunk,
                c.shrunk_violation
            );
            assert!(
                c.shrunk.events().len() <= 3,
                "{scenario}: shrunk plan `{}` still has {} events",
                c.shrunk,
                c.shrunk.events().len()
            );
        }
    }
}

#[test]
fn same_seed_same_plan_is_bit_deterministic() {
    let scenario = Scenario::passive(VersionTag::MirrorDiff, WorkloadKind::DebitCredit);
    let plan: dsnrep_faultsim::FaultPlan =
        "crash primary @ packet=5; crash backup @ recovery-write=9"
            .parse()
            .unwrap();
    let a = execute(&scenario, &plan).unwrap();
    let b = execute(&scenario, &plan).unwrap();
    assert_eq!(a, b, "two replays of the same plan diverged");
    assert!(a.violation.is_none(), "{}", a.violation.unwrap());
}

#[test]
fn random_campaigns_replay_identically_from_a_seed() {
    let scenario = Scenario::passive(VersionTag::ImprovedLog, WorkloadKind::DebitCredit);
    let a = random_campaign(&scenario, 0xC0FFEE, 12, None).unwrap();
    let b = random_campaign(&scenario, 0xC0FFEE, 12, None).unwrap();
    assert_eq!(a, b, "same seed must reproduce the same campaign");
    assert_clean(&a);
    // A different seed explores different schedules (faults fired or
    // coverage counters differ with overwhelming probability).
    let c = random_campaign(&scenario, 0xBEEF, 12, None).unwrap();
    assert_clean(&c);
    assert_ne!(
        (a.faults_fired, a.store_sites, a.packet_sites, a.txn_sites),
        (c.faults_fired, c.store_sites, c.packet_sites, c.txn_sites),
        "different seeds produced identical exploration traces"
    );
}

#[test]
fn random_multi_fault_campaign_active_is_clean() {
    let scenario = Scenario::active(WorkloadKind::DebitCredit).with_txns(8);
    let campaign = random_campaign(&scenario, 0xD15EA5E, 24, None).unwrap();
    assert_clean(&campaign);
    assert!(campaign.plans_run == 24);
}

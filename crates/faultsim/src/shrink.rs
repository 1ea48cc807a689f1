//! Automatic shrinking of failing fault schedules.
//!
//! Greedy fixpoint reduction: repeatedly try dropping whole events, then
//! descending each event's counter toward zero (`0`, `n/2`, `n - 1`),
//! keeping any candidate that still fails. The result is a minimal plan
//! in the sense that removing any single event, or lowering any single
//! counter by the tried steps, makes the failure disappear — small
//! enough to read, and printable as a self-contained regression test.

use crate::exec::{execute_against, Mutation, Violation};
use crate::oracle::Reference;
use crate::plan::{FaultEvent, FaultPlan, FaultSite};
use crate::scenario::Scenario;

/// What the shrinker converged to.
#[derive(Clone, Debug)]
pub(crate) struct ShrinkResult {
    /// The minimal failing plan.
    pub(crate) plan: FaultPlan,
    /// The violation the minimal plan produces.
    pub(crate) violation: Violation,
    /// Plan executions spent shrinking.
    pub(crate) executions: u64,
}

/// Hard cap on shrink executions: convergence is usually < 50 runs, the
/// cap only guards against a pathological oscillation.
const MAX_EXECUTIONS: u64 = 500;

fn event_counter(event: FaultEvent) -> Option<u64> {
    match event {
        FaultEvent::CrashPrimary(FaultSite::Store(n))
        | FaultEvent::CrashPrimary(FaultSite::Packet(n))
        | FaultEvent::CrashPrimary(FaultSite::Txn(n))
        | FaultEvent::CrashBackupRecoveryWrite(n)
        | FaultEvent::DelayHeartbeats(n)
        | FaultEvent::DropHeartbeatsAfter(n)
        | FaultEvent::PartitionDelay { ps: n, .. }
        | FaultEvent::PartitionDropAfter { n, .. } => Some(n),
    }
}

fn with_counter(event: FaultEvent, n: u64) -> FaultEvent {
    match event {
        FaultEvent::CrashPrimary(FaultSite::Store(_)) => {
            FaultEvent::CrashPrimary(FaultSite::Store(n))
        }
        FaultEvent::CrashPrimary(FaultSite::Packet(_)) => {
            FaultEvent::CrashPrimary(FaultSite::Packet(n))
        }
        FaultEvent::CrashPrimary(FaultSite::Txn(_)) => FaultEvent::CrashPrimary(FaultSite::Txn(n)),
        FaultEvent::CrashBackupRecoveryWrite(_) => FaultEvent::CrashBackupRecoveryWrite(n),
        FaultEvent::DelayHeartbeats(_) => FaultEvent::DelayHeartbeats(n),
        FaultEvent::DropHeartbeatsAfter(_) => FaultEvent::DropHeartbeatsAfter(n),
        FaultEvent::PartitionDelay { from, to, .. } => {
            FaultEvent::PartitionDelay { from, to, ps: n }
        }
        FaultEvent::PartitionDropAfter { from, to, .. } => {
            FaultEvent::PartitionDropAfter { from, to, n }
        }
    }
}

/// Shrinks a failing `plan` to a minimal failing plan.
///
/// The caller passes the `violation` the unshrunk plan produced; the
/// shrinker only adopts candidates that still produce *some* violation
/// (not necessarily the same one — a simpler schedule often surfaces the
/// same bug through a different invariant).
pub(crate) fn shrink(
    scenario: &Scenario,
    reference: &Reference,
    mutation: Option<Mutation>,
    plan: &FaultPlan,
    violation: Violation,
) -> ShrinkResult {
    let mut best = plan.clone();
    let mut best_violation = violation;
    let mut executions = 0u64;
    let still_fails = |candidate: &FaultPlan, executions: &mut u64| -> Option<Violation> {
        if candidate.validate().is_err() {
            return None;
        }
        if *executions >= MAX_EXECUTIONS {
            return None;
        }
        *executions += 1;
        execute_against(scenario, candidate, reference, mutation)
            .ok()
            .and_then(|outcome| outcome.violation)
    };

    'fixpoint: loop {
        // Pass 1: drop whole events.
        for i in 0..best.events().len() {
            let mut events = best.events().to_vec();
            events.remove(i);
            let candidate = FaultPlan::new(events);
            if let Some(v) = still_fails(&candidate, &mut executions) {
                best = candidate;
                best_violation = v;
                continue 'fixpoint;
            }
        }
        // Pass 2: descend counters.
        for i in 0..best.events().len() {
            let event = best.events()[i];
            let Some(n) = event_counter(event) else {
                continue;
            };
            for smaller in [0, n / 2, n.saturating_sub(1)] {
                if smaller >= n {
                    continue;
                }
                let mut events = best.events().to_vec();
                events[i] = with_counter(event, smaller);
                let candidate = FaultPlan::new(events);
                if let Some(v) = still_fails(&candidate, &mut executions) {
                    best = candidate;
                    best_violation = v;
                    continue 'fixpoint;
                }
            }
        }
        break;
    }
    ShrinkResult {
        plan: best,
        violation: best_violation,
        executions,
    }
}

/// Renders a shrunk plan as a self-contained `#[test]` a developer can
/// paste into `crates/faultsim/tests/` to pin the failure.
pub(crate) fn regression_snippet(
    scenario: &Scenario,
    plan: &FaultPlan,
    violation: &Violation,
) -> String {
    format!(
        r#"#[test]
fn shrunk_fault_plan_regression() {{
    // Shrunk counterexample; last observed violation:
    // {violation}
    use dsnrep_core::VersionTag;
    use dsnrep_faultsim::{{execute, Driver, FaultPlan, Scenario}};
    use dsnrep_workloads::WorkloadKind;

    let scenario = Scenario {{
        driver: Driver::{driver:?},
        version: VersionTag::{version:?},
        workload: WorkloadKind::{workload:?},
        txns: {txns},
        db_len: {db_len},
        seed: {seed:#x},
        two_safe: {two_safe},
        rf: {rf},
        quorum_read: {quorum_read},
        quorum_write: {quorum_write},
    }};
    let plan: FaultPlan = "{plan}".parse().unwrap();
    let outcome = execute(&scenario, &plan).unwrap();
    assert!(outcome.violation.is_none(), "{{}}", outcome.violation.unwrap());
}}
"#,
        violation = violation,
        driver = scenario.driver,
        version = scenario.version,
        workload = scenario.workload,
        txns = scenario.txns,
        db_len = scenario.db_len,
        seed = scenario.seed,
        two_safe = scenario.two_safe,
        rf = scenario.rf,
        quorum_read = scenario.quorum_read,
        quorum_write = scenario.quorum_write,
        plan = plan,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_surgery_round_trips() {
        let e = FaultEvent::CrashPrimary(FaultSite::Packet(9));
        assert_eq!(event_counter(e), Some(9));
        assert_eq!(
            with_counter(e, 4),
            FaultEvent::CrashPrimary(FaultSite::Packet(4))
        );
        let d = FaultEvent::DelayHeartbeats(1000);
        assert_eq!(with_counter(d, 0), FaultEvent::DelayHeartbeats(0));
    }
}

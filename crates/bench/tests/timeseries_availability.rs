//! End-to-end contracts of the metrics time-series layer:
//!
//! * conservation — the windowed stall counters re-aggregate to the
//!   clocks' stall leaves — is enforced inside `traced_run` itself (it
//!   panics on a leak), and the summary's counts are the windows summed,
//!   so every test here exercises both;
//! * a failover run's availability report shows the goodput dip and the
//!   recovery: SLO-violation windows during the takeover and a measured
//!   time-to-first-committed-txn after `recovery_start`.

use dsnrep_bench::trace::{traced_run, AvailabilityReport};
use dsnrep_core::VersionTag;
use dsnrep_repl::Scheme;
use dsnrep_simcore::MIB;
use dsnrep_workloads::WorkloadKind;

const DB: u64 = MIB;
const TXNS: u64 = 400;

#[test]
fn traced_run_is_deterministic_across_repeats() {
    let a = traced_run(Scheme::Active, WorkloadKind::DebitCredit, 200, DB, true, 40);
    let b = traced_run(Scheme::Active, WorkloadKind::DebitCredit, 200, DB, true, 40);
    assert_eq!(a.tps.to_bits(), b.tps.to_bits());
    assert_eq!(a.timeseries.to_json(), b.timeseries.to_json());
    assert_eq!(a.availability.to_json(), b.availability.to_json());
}

/// The mirroring versions pay recovery with a whole-mirror copy — virtual
/// milliseconds of takeover during which no transaction commits. That dip
/// must surface as SLO-violation windows, and the first post-recovery
/// commit must land a measurable virtual-time distance after the
/// `recovery_start` event.
#[test]
fn failover_availability_shows_goodput_dip_and_recovery() {
    let run = traced_run(
        Scheme::Passive(VersionTag::MirrorDiff),
        WorkloadKind::DebitCredit,
        TXNS,
        DB,
        true,
        80,
    );
    assert!(run.passed(), "failover audit failed: {:?}", run.violation);
    let a = &run.availability;

    let crash = a.crash_picos.expect("crash runs record the crash instant");
    let recovery_start = a
        .recovery_start_picos
        .expect("the takeover records recovery_start");
    assert!(recovery_start >= crash);

    // The goodput curve dips: at least one window at/after the crash
    // under-delivers against the SLO threshold.
    let crash_window = crash / a.window_picos;
    assert!(
        a.violation_windows.iter().any(|&w| w >= crash_window),
        "no SLO-violation window during the takeover: threshold={} violations={:?} goodput={:?}",
        a.slo_threshold_txns,
        a.violation_windows,
        a.goodput
    );

    // ... and recovers: the promoted backup commits again, a measurable
    // virtual-time distance after recovery began.
    let ttfc = a
        .time_to_first_commit_picos
        .expect("post-recovery transactions committed");
    assert!(
        ttfc > 0,
        "first post-recovery commit cannot be instantaneous"
    );
    let first_commit = a.first_commit_after_recovery_picos.unwrap();
    assert_eq!(first_commit - recovery_start, ttfc);
    let first_commit_window = first_commit / a.window_picos;
    assert!(
        a.goodput
            .iter()
            .any(|&(w, txns)| w >= first_commit_window && txns > 0),
        "goodput never recovered after the failover: {:?}",
        a.goodput
    );

    // The report itself round-trips the numbers.
    let json = a.to_json();
    assert!(json.contains("\"schema_version\""));
    assert!(json.contains(&format!("\"time_to_first_commit_picos\": {ttfc}")));
}

#[test]
fn availability_report_for_a_calm_run_has_no_recovery_leg() {
    let run = traced_run(
        Scheme::Passive(VersionTag::ImprovedLog),
        WorkloadKind::DebitCredit,
        120,
        DB,
        false,
        0,
    );
    let a = &run.availability;
    assert_eq!(a.crash_picos, None);
    assert_eq!(a.recovery_start_picos, None);
    assert_eq!(a.time_to_first_commit_picos, None);
    assert!(a.goodput.iter().map(|&(_, t)| t).sum::<u64>() >= 120);
    let json = a.to_json();
    assert!(json.contains("\"crash_picos\": null"));
    // Sanity on the builder contract itself.
    assert_eq!(
        *a,
        AvailabilityReport::build(&run.recorder, &run.timeseries)
    );
}

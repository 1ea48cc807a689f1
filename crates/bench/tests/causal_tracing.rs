//! Integration tests for cross-node causal tracing.
//!
//! Three contracts are pinned here:
//!
//! 1. **Flow-event well-formedness** (property-tested): in any scenario's
//!    `trace.json`, every flow start (`"ph":"s"`) has exactly one step
//!    (`"t"`) and exactly one finish (`"f"`) with the same id, ids are
//!    unique, there are no orphan steps or finishes, and both endpoints
//!    lie inside a duration span on their thread. The trace is
//!    round-tripped through the repo's exact JSON parser, so this also
//!    proves the emitted document parses.
//! 2. **Critical-path conservation**: every recorded transaction's
//!    segments sum to its commit latency, and each node's in-transaction
//!    plus outside totals equal the attribution tree's independently
//!    computed elapsed time.
//! 3. **Failover profile**: after `--crash`, the promoted backup's
//!    post-recovery transactions are profiled and the takeover spike is
//!    attributed to out-of-transaction stall segments, conservation
//!    intact.
//! 4. **N-node traffic, counted once**: a traced chain or quorum set
//!    reports every SAN packet, fabric hops and acks included, through the
//!    one packet probe, and the summary's totals equal the links' own
//!    counters.

use std::collections::BTreeSet;

use dsnrep_bench::experiments::{costs, SEED};
use dsnrep_bench::json::{parse, JsonValue};
use dsnrep_bench::trace::traced_run;
use dsnrep_cluster::{ReplicationStrategy, Topology};
use dsnrep_core::{EngineConfig, VersionTag};
use dsnrep_obs::{FlightRecorder, Phase, Segment, TRACK_BACKUP};
use dsnrep_repl::{ReplicaSet, Scheme};
use dsnrep_simcore::{TrafficClass, MIB};
use dsnrep_workloads::WorkloadKind;
use proptest::prelude::*;

/// Cushion for float comparison: `ts` values are fractional microseconds
/// rendered from exact picosecond integers, so after one f64 parse two
/// renderings of the same instant agree to far better than a nanosecond.
const TS_EPS: f64 = 1e-6;

fn events(trace: &JsonValue) -> &[JsonValue] {
    match trace.get("traceEvents") {
        Some(JsonValue::Array(events)) => events,
        other => panic!("traceEvents missing or not an array: {other:?}"),
    }
}

fn str_field<'a>(e: &'a JsonValue, key: &str) -> &'a str {
    match e.get(key) {
        Some(JsonValue::Str(s)) => s,
        other => panic!("field {key} missing or not a string: {other:?}"),
    }
}

fn int_field(e: &JsonValue, key: &str) -> i128 {
    match e.get(key) {
        Some(JsonValue::Int(i)) => *i,
        other => panic!("field {key} missing or not an integer: {other:?}"),
    }
}

fn num_field(e: &JsonValue, key: &str) -> f64 {
    match e.get(key) {
        Some(JsonValue::Int(i)) => *i as f64,
        Some(JsonValue::Float(f)) => *f,
        other => panic!("field {key} missing or not a number: {other:?}"),
    }
}

/// `true` if some complete (`X`) span on `tid` contains instant `ts`.
fn inside_a_span(events: &[JsonValue], tid: i128, ts: f64) -> bool {
    events.iter().any(|e| {
        str_field(e, "ph") == "X"
            && int_field(e, "tid") == tid
            && num_field(e, "ts") - TS_EPS <= ts
            && ts <= num_field(e, "ts") + num_field(e, "dur") + TS_EPS
    })
}

fn assert_flows_well_formed(trace_json: &str) {
    let trace = parse(trace_json).expect("trace.json must round-trip through the exact parser");
    let events = events(&trace);
    let phase = |ph: &str| -> Vec<&JsonValue> {
        events.iter().filter(|e| str_field(e, "ph") == ph).collect()
    };
    let starts = phase("s");
    let steps = phase("t");
    let finishes = phase("f");
    assert_eq!(starts.len(), steps.len(), "every flow start needs one step");
    assert_eq!(
        starts.len(),
        finishes.len(),
        "every flow start needs one finish"
    );

    let mut seen = std::collections::BTreeSet::new();
    for s in &starts {
        let id = int_field(s, "id");
        assert!(seen.insert(id), "duplicate flow-start id {id}");
        assert_eq!(
            steps.iter().filter(|t| int_field(t, "id") == id).count(),
            1,
            "flow {id} must have exactly one step"
        );
        let f: Vec<_> = finishes
            .iter()
            .filter(|f| int_field(f, "id") == id)
            .collect();
        assert_eq!(f.len(), 1, "flow {id} must have exactly one finish");
        assert_eq!(
            str_field(f[0], "bp"),
            "e",
            "flow finishes must bind to the enclosing slice"
        );
        // Both endpoints sit inside a duration span on their thread: the
        // start inside the originating transaction's span, the finish
        // inside (at) the backup-side apply span.
        for (end, label) in [(*s, "start"), (f[0], "finish")] {
            let tid = int_field(end, "tid");
            let ts = num_field(end, "ts");
            assert!(
                inside_a_span(events, tid, ts),
                "flow {id} {label} at ts={ts} tid={tid} is not enclosed by any span"
            );
        }
    }
    // No orphans: finish/step ids are exactly the start ids.
    for e in steps.iter().chain(finishes.iter()) {
        let id = int_field(e, "id");
        assert!(seen.contains(&id), "orphan flow event with id {id}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn flow_events_are_well_formed_across_scenarios(
        active in any::<bool>(),
        version in prop_oneof![
            Just(VersionTag::MirrorDiff),
            Just(VersionTag::ImprovedLog),
        ],
        txns in 20u64..60,
        crash in any::<bool>(),
        kind in prop_oneof![
            Just(WorkloadKind::DebitCredit),
            Just(WorkloadKind::OrderEntry),
        ],
    ) {
        let scheme = if active {
            Scheme::Active
        } else {
            Scheme::Passive(version)
        };
        let run = traced_run(scheme, kind, txns, MIB, crash, if crash { 5 } else { 0 });
        prop_assert!(run.passed(), "scenario failed its audit");
        assert_flows_well_formed(&run.recorder.chrome_trace_json());
    }
}

/// Contract 2: the per-transaction decomposition is exact, and the
/// whole-run roll-up agrees with the attribution tree's leaves.
#[test]
fn critical_path_conserves_against_the_attribution_tree() {
    for scheme in [Scheme::Passive(VersionTag::ImprovedLog), Scheme::Active] {
        let txns = 200;
        let run = traced_run(scheme, WorkloadKind::DebitCredit, txns, 10 * MIB, false, 0);
        assert!(run.passed());
        let report = &run.critpath;
        assert_eq!(report.paths_dropped, 0);
        // Every transaction on the primary was profiled.
        let primary = report
            .nodes
            .iter()
            .find(|n| n.stream == "primary")
            .expect("primary node");
        assert_eq!(primary.txns, txns);
        for path in run.recorder.txn_paths() {
            assert_eq!(
                path.segment_total(),
                path.latency_ps(),
                "txn {:#x}: segments must sum to the commit latency",
                path.txn
            );
        }
        for node in &report.nodes {
            let leaves = run
                .attribution
                .nodes
                .iter()
                .find(|n| n.track == node.track)
                .expect("attribution node for every profiled track");
            assert_eq!(node.elapsed_picos, leaves.clock.elapsed_picos);
            assert_eq!(
                node.in_txn_total() + node.outside_total(),
                node.elapsed_picos,
                "node '{}': in-txn + outside must cover elapsed exactly",
                node.stream
            );
            for path in &node.top_txns {
                assert_eq!(path.segment_total(), path.latency_ps());
            }
        }
    }
}

/// Contract 3: under a crash, the promoted backup's profile separates its
/// post-recovery transactions from the takeover spike, which lands in the
/// out-of-transaction stall segments.
#[test]
fn failover_critical_path_attributes_the_takeover_spike() {
    let post_txns = 40;
    let run = traced_run(
        Scheme::Active,
        WorkloadKind::DebitCredit,
        300,
        10 * MIB,
        true,
        post_txns,
    );
    assert!(run.passed());
    let report = &run.critpath;
    let backup = report
        .nodes
        .iter()
        .find(|n| n.stream == "backup")
        .expect("crash runs profile the promoted backup");
    assert_eq!(backup.txns, post_txns);
    assert_eq!(
        backup.in_txn_total() + backup.outside_total(),
        backup.elapsed_picos
    );
    // The backup idled (clamped to the crash instant) and drained the redo
    // ring before its first own transaction: that spike is outside every
    // transaction and shows up in the stall segments, not in cpu time the
    // profiler would have to invent.
    assert!(
        backup.outside_total() > backup.in_txn_total(),
        "the takeover spike should dominate the backup's out-of-txn share"
    );
    assert!(
        backup.outside[Segment::BackupApply.index()] > 0,
        "pre-crash apply waits must be attributed to the backup-apply segment"
    );
    // The takeover's ring drain itself is traced as a backup-side apply
    // span at (or after) the crash instant.
    let crash = run
        .availability
        .crash_picos
        .expect("a crash run records the crash instant");
    assert!(
        run.recorder.spans().iter().any(|s| s.track == TRACK_BACKUP
            && s.phase == Phase::Apply
            && s.end.as_picos() >= crash),
        "the takeover ring drain must appear as an apply span on the backup track"
    );
}

/// Contract 4: the links' own counters are an independent source for the
/// summary's traffic. A chain or quorum set's fabric hops and acks reach
/// the summary exactly once each, under lifecycle ids of their own, and
/// render as well-formed Perfetto spans.
#[test]
fn replica_set_packets_reach_the_summary_once() {
    for strategy in [
        ReplicationStrategy::Chain,
        ReplicationStrategy::Quorum { read: 2, write: 2 },
    ] {
        let topology = Topology::new(3, strategy).expect("a valid rf3 topology");
        let recorder = FlightRecorder::new();
        let mut set = ReplicaSet::new_traced(
            costs(),
            VersionTag::ImprovedLog,
            &EngineConfig::for_db(MIB),
            topology,
            recorder.clone(),
        );
        let mut workload = WorkloadKind::DebitCredit.build_traced(set.engine().db_region(), SEED);
        set.run(workload.as_mut(), 50);
        set.quiesce();

        let traffic = set.traffic();
        let summary = recorder.summary();
        let packets: u64 = summary.tracks.iter().map(|t| t.packets).sum();
        assert_eq!(packets, traffic.total_packets(), "{strategy}");
        for class in TrafficClass::ALL {
            let bytes: u64 = summary
                .tracks
                .iter()
                .map(|t| t.bytes_by_class[class.index()])
                .sum();
            assert_eq!(bytes, traffic.bytes(class), "{strategy}: {class:?}");
        }
        let lives = recorder.packet_lives();
        assert_eq!(recorder.dropped_packet_lives(), 0);
        let ids: BTreeSet<u64> = lives.iter().map(|(_, life)| life.id).collect();
        assert_eq!(
            ids.len(),
            lives.len(),
            "{strategy}: duplicate lifecycle ids"
        );
        assert!(
            lives.iter().any(|&(track, _)| track > 0),
            "{strategy}: no fabric hop reported a lifecycle"
        );
        assert_flows_well_formed(&recorder.chrome_trace_json());
    }
}

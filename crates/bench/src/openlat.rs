//! Open-system latency runs: a seedable arrival process drives a
//! [`ReplicaSet`] as an open queueing system.
//!
//! The throughput experiments elsewhere in this crate are *closed*: the
//! next transaction starts the instant the previous one commits, so the
//! system never queues and latency equals service time. Real clients are
//! an *open* system — requests arrive on their own clock whether or not
//! the server keeps up — and that is where availability is actually felt:
//! during a failover the arrivals keep coming, the admission queue fills,
//! latency balloons, and requests are dropped until the promoted node
//! drains the backlog.
//!
//! The driver merges one arrival stream (from
//! [`dsnrep_workloads::ArrivalGen`]) of interleaved writes and replica
//! reads:
//!
//! * **Writes** occupy the head serially. A write arriving while the head
//!   is busy queues (its commit latency includes the queue delay); a
//!   write arriving with [`OpenLatConfig::queue_cap`] writes already
//!   admitted-but-uncommitted is dropped at the door.
//! * **Reads** go through the strategy's read path
//!   ([`ReplicaSet::serve_read`]) at their arrival instant — they are
//!   served by replica copies (tail, read quorum) and do not queue behind
//!   the head's write pipeline. Read keys are drawn from a
//!   [`ZipfKeys`] skew so the hot-key mass is part of the artifact.
//! * With [`OpenLatConfig::crash_after_commits`], the head crashes after
//!   that many commits and the strategy's takeover runs. Arrivals during
//!   the outage wait (reads) or pile into the bounded queue (writes);
//!   both show up as the latency spike and drop burst the availability
//!   section reports.
//!
//! Everything is virtual-time arithmetic over seeded generators, so a run
//! is bit-deterministic: the same config reproduces every percentile,
//! drop count and violation window byte-for-byte.

use std::collections::BTreeSet;

use dsnrep_cluster::{takeover_timeline, HeartbeatConfig, Topology};
use dsnrep_core::{EngineConfig, VersionTag};
use dsnrep_obs::{FlightRecorder, Metric, Phase, TimeSeries, Tracer, DEFAULT_WINDOW_PICOS};
use dsnrep_repl::{Failover, ReplicaSet};
use dsnrep_simcore::{StallCause, VirtualDuration, VirtualInstant};
use dsnrep_workloads::{ArrivalGen, ArrivalProcess, Workload, WorkloadKind, ZipfKeys};

use crate::experiments::costs;
use crate::trace::AvailabilityReport;

/// Stream-splitting constant for the read-key generator: the key stream
/// must be decorrelated from the interarrival stream even though both
/// derive from the one configured seed (2^64 / golden ratio, the
/// SplitMix64 increment).
const KEY_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// Heartbeat delivery latency over the fabric, matching the faultsim
/// executor's takeover timelines (SAN-class delivery).
const HEARTBEAT_DELIVERY: VirtualDuration = VirtualDuration::from_micros(3);

/// Consecutive commits that must land back under the pre-crash p99 before
/// the driver calls the percentile re-attained (a single calm commit is
/// not a recovered tail; a full backlog drain is).
const REATTAIN_RUN: usize = 8;

/// Exact nearest-rank percentile over a sorted sample: the smallest
/// element with at least `pct` percent of the sample at or below it.
/// Integer arithmetic only — percentiles are part of bit-exact artifacts.
fn nearest_rank(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * pct).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Exact integer-picosecond latency percentiles of one request class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Requests in the sample.
    pub count: u64,
    /// Median latency, picoseconds.
    pub p50_picos: u64,
    /// 95th-percentile latency, picoseconds.
    pub p95_picos: u64,
    /// 99th-percentile latency, picoseconds.
    pub p99_picos: u64,
    /// Worst latency, picoseconds.
    pub max_picos: u64,
}

impl LatencySummary {
    /// Summarizes a latency sample (need not be sorted).
    pub fn from_samples(samples: &[u64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        LatencySummary {
            count: sorted.len() as u64,
            p50_picos: nearest_rank(&sorted, 50),
            p95_picos: nearest_rank(&sorted, 95),
            p99_picos: nearest_rank(&sorted, 99),
            max_picos: sorted.last().copied().unwrap_or(0),
        }
    }

    /// Renders the summary as a one-line JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"p50_picos\": {}, \"p95_picos\": {}, \
             \"p99_picos\": {}, \"max_picos\": {}}}",
            self.count, self.p50_picos, self.p95_picos, self.p99_picos, self.max_picos
        )
    }
}

/// The open-system section of an availability report: what the arrival
/// stream experienced, beyond what the goodput curve alone shows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpenSystemStats {
    /// The per-request latency SLO the violation windows are judged
    /// against, picoseconds.
    pub slo_picos: u64,
    /// Requests the arrival process generated (reads + writes).
    pub arrivals: u64,
    /// Writes rejected at the door because the admission queue was full.
    pub dropped: u64,
    /// Commit latency (completion − arrival, queue delay included).
    pub commit_latency: LatencySummary,
    /// Read latency (response − arrival).
    pub read_latency: LatencySummary,
    /// Reads that observed a prefix behind the coordinator's commit count.
    pub stale_reads: u64,
    /// Worst staleness any read observed, in transactions.
    pub max_staleness_txns: u64,
    /// Metrics-window indices in which at least one request (read or
    /// write) exceeded the SLO.
    pub slo_violation_windows: Vec<u64>,
    /// Pre-crash commit-latency p99, picoseconds (crash runs only).
    pub baseline_p99_picos: Option<u64>,
    /// Completion instant of the first post-crash commit opening a run of
    /// eight consecutive commits all back under the baseline p99.
    pub reattained_p99_picos: Option<u64>,
    /// `reattained_p99_picos − crash instant`: how long the latency tail
    /// stayed blown out after the failover.
    pub time_to_reattain_p99_picos: Option<u64>,
}

/// Configuration of one open-system run.
#[derive(Clone, Debug)]
pub struct OpenLatConfig {
    /// Stable scenario label (dot-free; used in artifact keys).
    pub label: String,
    /// Cluster shape and replication strategy.
    pub topology: Topology,
    /// Engine version on every node.
    pub version: VersionTag,
    /// Transaction mix for the write stream.
    pub workload: WorkloadKind,
    /// Database size, bytes.
    pub db_len: u64,
    /// Seed for the write workload's own key choices.
    pub workload_seed: u64,
    /// The arrival process for the merged request stream.
    pub process: ArrivalProcess,
    /// Seed for the arrival and read-key generators.
    pub arrival_seed: u64,
    /// Total requests to generate (reads + writes).
    pub requests: u64,
    /// Every `read_every`-th request is a read; `0` disables reads.
    pub read_every: u64,
    /// Read-key population for the Zipfian skew.
    pub key_population: u32,
    /// Zipf exponent `s` (`0` = uniform).
    pub key_skew: f64,
    /// Admitted-but-uncommitted writes beyond which arrivals are dropped.
    pub queue_cap: u64,
    /// Per-request latency SLO, virtual microseconds.
    pub slo_us: u64,
    /// Crash the head after this many commits (`None` = calm run).
    pub crash_after_commits: Option<u64>,
}

/// Everything one open-system run produced.
#[derive(Debug)]
pub struct OpenLatRun {
    /// The scenario label, echoed from the config.
    pub label: String,
    /// The strategy, rendered (`"chain rf=3"`).
    pub strategy: String,
    /// The recorder every node and the driver reported into.
    pub recorder: FlightRecorder,
    /// Windowed metrics snapshot (read-latency windows included).
    pub timeseries: TimeSeries,
    /// Goodput/SLO availability view with the open-system section filled.
    pub availability: AvailabilityReport,
    /// Writes committed (admitted and served).
    pub writes_committed: u64,
    /// Reads served.
    pub reads_served: u64,
    /// The most-read key and its hit count (the Zipf mode).
    pub hot_key: u32,
    /// Hits on [`OpenLatRun::hot_key`].
    pub hot_key_hits: u64,
    /// Crash instant, if the run crashed the head.
    pub crash_picos: Option<u64>,
    /// Instant the promoted node finished recovery.
    pub recovery_end_picos: Option<u64>,
    /// Virtual instant of the last served request.
    pub elapsed_picos: u64,
}

/// The serving side of the run: the whole replica set before the crash,
/// the promoted survivor after it.
enum Server {
    Replicas(Box<ReplicaSet<FlightRecorder>>),
    Promoted {
        failover: Box<Failover<FlightRecorder>>,
        track: u32,
    },
    /// Transient placeholder while the takeover consumes the set.
    Down,
}

/// Completion instant of the first post-crash commit that opens a run of
/// [`REATTAIN_RUN`] commits all at or under `threshold`.
fn reattain_instant(commits: &[(u64, u64)], crash_picos: u64, threshold: u64) -> Option<u64> {
    let post: Vec<&(u64, u64)> = commits.iter().filter(|(c, _)| *c > crash_picos).collect();
    for i in 0..post.len() {
        let run = &post[i..(i + REATTAIN_RUN).min(post.len())];
        if run.iter().all(|(_, latency)| *latency <= threshold) {
            return Some(post[i].0);
        }
    }
    None
}

/// Runs one open-system scenario to completion and builds its reports.
///
/// # Panics
///
/// Panics on invalid shapes (zero requests, a key population of zero) and
/// on engine errors, like the other drivers in this crate.
pub fn open_system_run(config: &OpenLatConfig) -> OpenLatRun {
    assert!(config.requests > 0, "an open-system run needs arrivals");
    assert!(config.queue_cap > 0, "a zero-length queue drops everything");
    let recorder = FlightRecorder::new();
    let rf = config.topology.rf();
    for n in 0..rf {
        recorder.set_track_name(u32::from(n), &format!("node{n}"));
    }
    let engine_config = EngineConfig::for_db(config.db_len);
    let set = ReplicaSet::new_traced(
        costs(),
        config.version,
        &engine_config,
        config.topology,
        recorder.clone(),
    );
    let mut workload: Box<dyn Workload<FlightRecorder>> = config
        .workload
        .build_traced(set.engine().db_region(), config.workload_seed);
    let mut server = Server::Replicas(Box::new(set));

    let mut arrivals = ArrivalGen::new(config.process, config.arrival_seed);
    let population = config.key_population.max(1);
    let mut keys = ZipfKeys::new(
        population,
        config.key_skew,
        config.arrival_seed ^ KEY_STREAM,
    );
    let mut key_hits = vec![0u64; population as usize];

    let slo_picos = config.slo_us.saturating_mul(1_000_000);
    let window = DEFAULT_WINDOW_PICOS;
    let service = costs().cache_miss;

    let mut admitted_writes = 0u64;
    let mut dropped = 0u64;
    let mut write_completions: Vec<u64> = Vec::new();
    // (completion, latency) per commit, in completion order (serial head).
    let mut commits: Vec<(u64, u64)> = Vec::new();
    let mut read_latencies: Vec<u64> = Vec::new();
    let mut stale_reads = 0u64;
    let mut max_staleness = 0u64;
    let mut violations: BTreeSet<u64> = BTreeSet::new();
    let mut crash_picos: Option<u64> = None;
    let mut recovery_end_picos: Option<u64> = None;
    let mut elapsed_picos = 0u64;

    for i in 0..config.requests {
        let at = arrivals.next().expect("arrival processes never end");
        let is_read = config.read_every != 0 && (i + 1) % config.read_every == 0;
        let ingress = match &server {
            Server::Replicas(_) => 0u32,
            Server::Promoted { track, .. } => *track,
            Server::Down => unreachable!("the takeover always completes"),
        };
        if is_read {
            let key = keys.next_key();
            key_hits[key as usize] += 1;
            let (completed, staleness) = match &mut server {
                Server::Replicas(set) => {
                    let sample = set.serve_read(at);
                    (sample.completed, sample.staleness)
                }
                Server::Promoted { failover: _, track } => {
                    // The promoted primary serves reads from its own copy
                    // (zero staleness); a read arriving mid-outage waits
                    // for recovery to finish before it can be served.
                    let ready = VirtualInstant::from_picos(
                        recovery_end_picos.expect("promotion records recovery end"),
                    )
                    .max(at);
                    let completed = ready + service;
                    recorder.span(*track, Phase::Read, at, completed);
                    (completed, 0)
                }
                Server::Down => unreachable!("the takeover always completes"),
            };
            let latency = completed.duration_since(at).as_picos();
            read_latencies.push(latency);
            if staleness > 0 {
                stale_reads += 1;
                max_staleness = max_staleness.max(staleness);
            }
            if slo_picos > 0 && latency > slo_picos {
                violations.insert(completed.as_picos() / window);
            }
            elapsed_picos = elapsed_picos.max(completed.as_picos());
            continue;
        }

        // A write: admission control first.
        let completed_by_now = write_completions.partition_point(|&c| c <= at.as_picos()) as u64;
        let inflight = admitted_writes - completed_by_now;
        recorder.gauge_set(ingress, Metric::InflightArrivals, at, inflight);
        if inflight >= config.queue_cap {
            dropped += 1;
            recorder.counter_add(ingress, Metric::RequestsDropped, at, 1);
            continue;
        }
        admitted_writes += 1;
        let done = match &mut server {
            Server::Replicas(set) => {
                if set.machine().now() < at {
                    set.machine_mut().stall_until(StallCause::Other, at);
                }
                let start = set.machine().now();
                recorder.counter_add(
                    ingress,
                    Metric::ArrivalQueueDelayPicos,
                    start,
                    start.duration_since(at).as_picos(),
                );
                set.run_txn(workload.as_mut());
                set.machine().now()
            }
            Server::Promoted { failover, track } => {
                if failover.machine.now() < at {
                    failover.machine.stall_until(StallCause::Other, at);
                }
                let start = failover.machine.now();
                recorder.counter_add(
                    *track,
                    Metric::ArrivalQueueDelayPicos,
                    start,
                    start.duration_since(at).as_picos(),
                );
                failover.run_txn(workload.as_mut());
                failover.machine.now()
            }
            Server::Down => unreachable!("the takeover always completes"),
        };
        write_completions.push(done.as_picos());
        let latency = done.duration_since(at).as_picos();
        commits.push((done.as_picos(), latency));
        if slo_picos > 0 && latency > slo_picos {
            violations.insert(done.as_picos() / window);
        }
        elapsed_picos = elapsed_picos.max(done.as_picos());

        if config.crash_after_commits == Some(commits.len() as u64)
            && matches!(server, Server::Replicas(_))
        {
            let Server::Replicas(set) = std::mem::replace(&mut server, Server::Down) else {
                unreachable!("matched Replicas above");
            };
            let takeover = set.begin_takeover();
            crash_picos = Some(takeover.crashed_at.as_picos());
            let track = u32::from(takeover.successor.as_u8());
            let crashed_at = takeover.crashed_at;
            let mut failover = takeover.takeover.recover();
            // Recovery work alone does not bound the outage: the survivor
            // first has to *notice* the crash. Run the same heartbeat
            // detector + view install faultsim uses, then hold the
            // promoted node until the timeline says it is serving.
            let mut views = config.topology.view_manager(VirtualInstant::EPOCH);
            let timeline = takeover_timeline(
                HeartbeatConfig::default(),
                HEARTBEAT_DELIVERY,
                crashed_at,
                failover.recovery_time,
                &mut views,
            )
            .expect("rf >= 2 topologies always have a successor");
            if failover.machine.now() < timeline.serving_at {
                failover
                    .machine
                    .stall_until(StallCause::Other, timeline.serving_at);
            }
            recovery_end_picos = Some(failover.machine.now().as_picos());
            // The surviving copy carries the same layout; the workload
            // re-binds to it exactly as the traced crash runs do.
            workload = config
                .workload
                .build_traced(failover.engine.db_region(), config.workload_seed);
            server = Server::Promoted {
                failover: Box::new(failover),
                track,
            };
        }
    }

    if let Server::Replicas(set) = &mut server {
        set.quiesce();
    }

    let timeseries = recorder.timeseries();
    let mut availability = AvailabilityReport::build(&recorder, &timeseries);
    let (baseline_p99, reattained, time_to_reattain) = match crash_picos {
        Some(crash) => {
            let mut pre: Vec<u64> = commits
                .iter()
                .filter(|(done, _)| *done <= crash)
                .map(|&(_, latency)| latency)
                .collect();
            pre.sort_unstable();
            let p99 = nearest_rank(&pre, 99);
            let reattained = reattain_instant(&commits, crash, p99);
            (Some(p99), reattained, reattained.map(|r| r - crash))
        }
        None => (None, None, None),
    };
    let commit_latencies: Vec<u64> = commits.iter().map(|&(_, latency)| latency).collect();
    availability.open_system = Some(OpenSystemStats {
        slo_picos,
        arrivals: config.requests,
        dropped,
        commit_latency: LatencySummary::from_samples(&commit_latencies),
        read_latency: LatencySummary::from_samples(&read_latencies),
        stale_reads,
        max_staleness_txns: max_staleness,
        slo_violation_windows: violations.into_iter().collect(),
        baseline_p99_picos: baseline_p99,
        reattained_p99_picos: reattained,
        time_to_reattain_p99_picos: time_to_reattain,
    });

    let (hot_key, hot_key_hits) = key_hits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(k, &hits)| (k as u32, hits))
        .unwrap_or((0, 0));

    OpenLatRun {
        label: config.label.clone(),
        strategy: config.topology.to_string(),
        recorder,
        timeseries,
        availability,
        writes_committed: commits.len() as u64,
        reads_served: read_latencies.len() as u64,
        hot_key,
        hot_key_hits,
        crash_picos,
        recovery_end_picos,
        elapsed_picos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsnrep_cluster::ReplicationStrategy;
    use dsnrep_simcore::VirtualDuration;

    fn config(crash: Option<u64>) -> OpenLatConfig {
        OpenLatConfig {
            label: "test".to_string(),
            topology: Topology::new(3, ReplicationStrategy::Chain).expect("rf 3 chain"),
            version: VersionTag::ImprovedLog,
            workload: WorkloadKind::DebitCredit,
            db_len: 1 << 16,
            workload_seed: 0xD5,
            process: ArrivalProcess::poisson(VirtualDuration::from_micros(150)),
            arrival_seed: 0xA221,
            requests: 120,
            read_every: 2,
            key_population: 64,
            key_skew: 1.0,
            queue_cap: 16,
            slo_us: 2_000,
            crash_after_commits: crash,
        }
    }

    #[test]
    fn nearest_rank_is_exact() {
        assert_eq!(nearest_rank(&[], 99), 0);
        assert_eq!(nearest_rank(&[7], 50), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50), 50);
        assert_eq!(nearest_rank(&v, 95), 95);
        assert_eq!(nearest_rank(&v, 99), 99);
        assert_eq!(nearest_rank(&v, 100), 100);
    }

    #[test]
    fn crash_runs_fill_the_open_system_section() {
        let run = open_system_run(&config(Some(25)));
        let os = run
            .availability
            .open_system
            .as_ref()
            .expect("open-system section");
        assert_eq!(os.arrivals, 120);
        assert!(run.writes_committed > 25);
        assert!(run.reads_served > 0);
        assert!(run.crash_picos.is_some());
        // Even when recovery rolls back nothing, the heartbeat detector
        // needs multiple missed periods before the survivor takes over.
        let outage =
            run.recovery_end_picos.expect("crash run") - run.crash_picos.expect("crash run");
        assert!(
            outage >= VirtualDuration::from_millis(1).as_picos(),
            "outage {outage} ps is shorter than a heartbeat period"
        );
        assert!(os.commit_latency.p50_picos <= os.commit_latency.p99_picos);
        assert!(os.baseline_p99_picos.is_some());
    }

    #[test]
    fn calm_runs_leave_the_crash_fields_empty() {
        let run = open_system_run(&config(None));
        let os = run
            .availability
            .open_system
            .as_ref()
            .expect("open-system section");
        assert!(run.crash_picos.is_none());
        assert!(os.baseline_p99_picos.is_none());
        assert!(os.time_to_reattain_p99_picos.is_none());
        assert_eq!(run.reads_served, 60);
    }

    #[test]
    fn open_system_runs_are_bit_deterministic() {
        let a = open_system_run(&config(Some(25)));
        let b = open_system_run(&config(Some(25)));
        assert_eq!(a.availability, b.availability);
        assert_eq!(a.elapsed_picos, b.elapsed_picos);
        assert_eq!(a.hot_key, b.hot_key);
        assert_eq!(a.hot_key_hits, b.hot_key_hits);
    }
}

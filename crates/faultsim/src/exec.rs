//! Deterministic execution of a [`FaultPlan`] against a [`Scenario`].
//!
//! The executor builds the scenario's driver from scratch, arms the
//! injection hooks the plan names (store budgets on the primary machine,
//! packet budgets on the SAN adapter, arena write budgets on the
//! recovering backup), runs the workload, catches every simulated halt,
//! and drives recovery to completion — re-entering it over the surviving
//! arena as many times as the plan crashes it. The outcome is checked
//! against the shadow [`Reference`](crate::Reference) and the recovery
//! invariants. Everything is a pure function of (scenario, plan):
//! replaying the same pair is bit-deterministic.

use std::cell::RefCell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Once;

use dsnrep_cluster::{
    takeover_timeline_with_faults, HeartbeatConfig, HeartbeatFaults, NodeId, TakeoverTimeline,
    ViewManager,
};
use dsnrep_core::{arena_len, attach_engine, build_engine, Durability, EngineConfig, Machine};
use dsnrep_obs::NullTracer;
use dsnrep_repl::{
    modeled_pairs, ActiveCluster, ActiveTakeover, Failover, PassiveCluster, ReplicaSet, Takeover,
};
use dsnrep_rio::{Arena, Layout, RegionId};
use dsnrep_simcore::{CostModel, Region, VirtualDuration, VirtualInstant};
use dsnrep_workloads::TxCtx;

use crate::oracle::Reference;
use crate::plan::{FaultPlan, FaultSite, PlanError};
use crate::scenario::{Driver, Scenario};

/// A deliberately planted recovery bug, for validating that campaigns
/// catch and shrink real defects (they must never pass the oracle).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Zero the undo-log chain head before every recovery attempt: the
    /// recovery procedure "forgets" to roll the interrupted transaction
    /// back, leaving its partial writes in the committed image. Visible
    /// to the standalone exact-image check; a 1-safe failover's torn
    /// window legitimately hides it.
    SkipUndoChain,
    /// Flip a committed database byte before every recovery attempt:
    /// recovery "scribbles" over data no in-flight transaction touched.
    /// Visible on every driver — no torn window explains it.
    ScribbleCommitted,
}

/// How a faulted run broke its contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The recovered image differs from the oracle outside any allowed
    /// torn tail. Offsets are region-relative.
    Divergence {
        /// The recovered sequence number the image was compared at.
        seq: u64,
        /// Region-relative offset of the first unexplained byte.
        offset: u64,
    },
    /// The recovered sequence number is impossible: ahead of what the
    /// primary ever committed, or (for local recovery) behind it.
    SequenceDrift {
        /// What recovery reported.
        recovered: u64,
        /// Transactions the primary completed before the crash.
        committed: u64,
    },
    /// 1-safe replication lost more than the in-flight window.
    ExcessiveLoss {
        /// What recovery reported.
        recovered: u64,
        /// Transactions the primary completed before the crash.
        committed: u64,
    },
    /// The detection/takeover timeline is internally inconsistent.
    TimelineInverted(String),
    /// A panic that was not an injected fault (a real bug in the
    /// recovery path).
    UnexpectedPanic(String),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Divergence { seq, offset } => write!(
                f,
                "database diverges from the oracle at seq {seq}, region offset {offset}"
            ),
            Violation::SequenceDrift {
                recovered,
                committed,
            } => write!(
                f,
                "recovered seq {recovered} is impossible against {committed} committed"
            ),
            Violation::ExcessiveLoss {
                recovered,
                committed,
            } => write!(
                f,
                "lost {} transactions (recovered {recovered} of {committed})",
                committed - recovered
            ),
            Violation::TimelineInverted(msg) => write!(f, "takeover timeline inconsistent: {msg}"),
            Violation::UnexpectedPanic(msg) => write!(f, "unexpected panic: {msg}"),
        }
    }
}

/// What one plan execution produced. `PartialEq` exists so determinism
/// tests can compare whole outcomes across replays.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The plan that ran.
    pub plan: FaultPlan,
    /// Transactions the primary completed before any crash.
    pub committed: u64,
    /// The committed sequence after recovery (equals `committed` on a
    /// graceful run).
    pub recovered: u64,
    /// Injected faults that actually fired.
    pub faults_fired: u64,
    /// Accounted stores the primary executed during the run.
    pub stores: u64,
    /// SAN packets the primary emitted during the run.
    pub packets: u64,
    /// Arena writes the final (successful) recovery attempt performed.
    pub recovery_writes: u64,
    /// Crash-to-serving outage in picoseconds, when a takeover happened.
    pub outage_ps: Option<u64>,
    /// Commits whose chain/quorum acknowledgement set never assembled
    /// (the head proceeded after a coordinator timeout). Nonzero only
    /// for N-node drivers under partition faults.
    pub degraded: u64,
    /// The broken invariant, if any.
    pub violation: Option<Violation>,
}

impl Outcome {
    fn new(scenario: &Scenario, plan: &FaultPlan) -> Self {
        Outcome {
            scenario: *scenario,
            plan: plan.clone(),
            committed: 0,
            recovered: 0,
            faults_fired: 0,
            stores: 0,
            packets: 0,
            recovery_writes: 0,
            outage_ps: None,
            degraded: 0,
            violation: None,
        }
    }
}

const FAULT_MARKER: &str = "fault injection";

static SILENCE: Once = Once::new();

/// Installs a process-wide panic hook that swallows the backtrace noise
/// of *injected* faults (they are caught by design); every other panic
/// still reports normally. Idempotent.
pub fn silence_fault_panics() {
    SILENCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !msg.contains(FAULT_MARKER) {
                prev(info);
            }
        }));
    });
}

/// Runs `f`, turning a panic into its message.
fn run_caught<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())),
    }
}

fn is_fault(msg: &str) -> bool {
    msg.contains(FAULT_MARKER)
}

fn check_plan(scenario: &Scenario, plan: &FaultPlan) -> Result<(), PlanError> {
    plan.validate()?;
    if scenario.driver == Driver::Standalone {
        if matches!(plan.primary_crash(), Some(FaultSite::Packet(_))) {
            return Err(PlanError::new(
                "a packet-boundary crash needs a SAN link; the standalone driver has none",
            ));
        }
        if plan.heartbeat_delay_ps() > 0 || plan.heartbeat_drop_after().is_some() {
            return Err(PlanError::new(
                "heartbeat faults need a cluster; the standalone driver has none",
            ));
        }
    }
    match scenario.topology() {
        Some(Ok(topology)) => {
            let allowed = modeled_pairs(topology);
            for (from, to) in plan.partition_pairs() {
                if !allowed.contains(&(from, to)) {
                    return Err(PlanError::new(format!(
                        "partition {from}->{to} targets a pair the {topology} strategy \
                         never moves packets over (modeled pairs: {allowed:?})"
                    )));
                }
            }
        }
        Some(Err(e)) => {
            return Err(PlanError::new(format!("scenario topology is invalid: {e}")));
        }
        None => {
            if !plan.partition_pairs().is_empty() {
                return Err(PlanError::new(
                    "partition faults need a multi-link fabric; only the chain and quorum \
                     drivers have one",
                ));
            }
        }
    }
    Ok(())
}

fn apply_mutation(mutation: Option<Mutation>, arena: &Rc<RefCell<Arena>>) {
    match mutation {
        Some(Mutation::SkipUndoChain) => {
            let mut arena = arena.borrow_mut();
            if let Ok(layout) = Layout::read(&arena) {
                if let Some(log) = layout.region(RegionId::UndoLog) {
                    arena.write_u64(log.start(), 0);
                }
            }
        }
        Some(Mutation::ScribbleCommitted) => {
            let mut arena = arena.borrow_mut();
            if let Ok(layout) = Layout::read(&arena) {
                if let Some(db) = layout.region(RegionId::Database) {
                    // The byte is XOR-flipped (not overwritten), so the
                    // corruption never accidentally matches the oracle.
                    let addr = db.start() + db.len() / 2;
                    let byte = arena.read_vec(addr, 1)[0];
                    arena.write(addr, &[byte ^ 0xA5]);
                }
            }
        }
        None => {}
    }
}

/// Executes `plan` against `scenario`, building a fresh oracle reference.
///
/// # Errors
///
/// Returns a [`PlanError`] if the plan is inconsistent or names a site
/// the scenario's driver does not have. A plan that merely *breaks* the
/// run is not an error: the breakage lands in [`Outcome::violation`].
pub fn execute(scenario: &Scenario, plan: &FaultPlan) -> Result<Outcome, PlanError> {
    let reference = Reference::build(scenario);
    execute_against(scenario, plan, &reference, None)
}

/// As [`execute`], reusing a prebuilt [`Reference`] (campaigns run many
/// plans against one scenario) and optionally planting a [`Mutation`].
///
/// # Errors
///
/// Returns a [`PlanError`] if the plan is invalid for the scenario.
pub fn execute_against(
    scenario: &Scenario,
    plan: &FaultPlan,
    reference: &Reference,
    mutation: Option<Mutation>,
) -> Result<Outcome, PlanError> {
    check_plan(scenario, plan)?;
    silence_fault_panics();
    Ok(match scenario.driver {
        Driver::Standalone => run_standalone(scenario, plan, reference, mutation),
        Driver::Passive => run_passive(scenario, plan, reference, mutation),
        Driver::Active => run_active(scenario, plan, reference, mutation),
        Driver::Chain | Driver::Quorum => run_replica_set(scenario, plan, reference, mutation),
    })
}

/// Runs the workload loop, halting at the plan's transaction boundary or
/// on an injected mid-transaction fault. Returns `false` on a violation.
fn run_txn_loop(
    out: &mut Outcome,
    txns: u64,
    crash_txn: Option<u64>,
    mut one_txn: impl FnMut() -> Result<(), dsnrep_core::TxError>,
) -> bool {
    while out.committed < txns {
        if crash_txn == Some(out.committed) {
            return true;
        }
        match run_caught(&mut one_txn) {
            Ok(Ok(())) => out.committed += 1,
            Ok(Err(e)) => {
                out.violation = Some(Violation::UnexpectedPanic(format!("engine error: {e:?}")));
                return false;
            }
            Err(msg) if is_fault(&msg) => {
                out.faults_fired += 1;
                return true;
            }
            Err(msg) => {
                out.violation = Some(Violation::UnexpectedPanic(msg));
                return false;
            }
        }
    }
    true
}

fn check_image(
    out: &mut Outcome,
    reference: &Reference,
    arena: &Rc<RefCell<Arena>>,
    db: Region,
    seq: u64,
    allow_torn_tail: bool,
) {
    if seq > reference.txns() {
        out.violation = Some(Violation::SequenceDrift {
            recovered: seq,
            committed: out.committed,
        });
        return;
    }
    let arena = arena.borrow();
    if let Some(offset) = reference.first_unexplained_mismatch_in(seq, &arena, db, allow_torn_tail)
    {
        out.violation = Some(Violation::Divergence { seq, offset });
    }
}

fn check_timeline(
    out: &mut Outcome,
    plan: &FaultPlan,
    crashed_at: VirtualInstant,
    recovery: VirtualDuration,
    rf: u8,
) {
    let faults = HeartbeatFaults {
        delay: VirtualDuration::from_picos(plan.heartbeat_delay_ps()),
        drop_after: plan.heartbeat_drop_after(),
    };
    let backups: Vec<NodeId> = (1..rf.max(2)).map(NodeId::new).collect();
    let mut views = ViewManager::new(NodeId::new(0), backups, VirtualInstant::EPOCH);
    let timeline: TakeoverTimeline = match takeover_timeline_with_faults(
        HeartbeatConfig::default(),
        VirtualDuration::from_micros(3),
        crashed_at,
        recovery,
        &mut views,
        faults,
    ) {
        Ok(t) => t,
        Err(e) => {
            out.violation = Some(Violation::TimelineInverted(format!("no successor: {e:?}")));
            return;
        }
    };
    out.outage_ps = Some(timeline.outage().as_picos());
    if timeline.serving_at != timeline.view_installed_at + recovery {
        out.violation = Some(Violation::TimelineInverted(format!(
            "serving_at {} != view_installed_at {} + recovery {}",
            timeline.serving_at, timeline.view_installed_at, recovery
        )));
    } else if timeline.detected_at < timeline.last_heartbeat_at {
        out.violation = Some(Violation::TimelineInverted(format!(
            "detected_at {} precedes last_heartbeat_at {}",
            timeline.detected_at, timeline.last_heartbeat_at
        )));
    } else if faults.drop_after.is_none() && timeline.detected_at <= crashed_at {
        out.violation = Some(Violation::TimelineInverted(format!(
            "without dropped beats, detection at {} cannot precede the crash at {}",
            timeline.detected_at, crashed_at
        )));
    }
}

fn run_standalone(
    scenario: &Scenario,
    plan: &FaultPlan,
    reference: &Reference,
    mutation: Option<Mutation>,
) -> Outcome {
    let mut out = Outcome::new(scenario, plan);
    let costs = CostModel::alpha_21164a();
    let config = EngineConfig::for_db(scenario.db_len);
    let arena = dsnrep_core::shared_arena(arena_len(scenario.version, &config));
    let mut m = Machine::standalone(costs.clone(), Rc::clone(&arena));
    let mut engine = build_engine(scenario.version, &mut m, &config);
    let db = engine.db_region();
    let mut workload = scenario.workload.build(db, scenario.seed);

    let site = plan.primary_crash();
    if let Some(FaultSite::Store(n)) = site {
        m.inject_crash_after_stores(n);
    }
    let crash_txn = match site {
        Some(FaultSite::Txn(n)) => Some(n),
        _ => None,
    };
    let stores_before = m.stores_executed();
    let ok = run_txn_loop(&mut out, scenario.txns, crash_txn, || {
        let mut ctx = TxCtx::new(&mut m, engine.as_mut());
        workload.run_txn(&mut ctx)
    });
    out.stores = m.stores_executed() - stores_before;
    if !ok {
        return out;
    }

    if site.is_none() {
        out.recovered = engine.committed_seq(&mut m);
        if out.recovered != scenario.txns {
            out.violation = Some(Violation::SequenceDrift {
                recovered: out.recovered,
                committed: out.committed,
            });
            return out;
        }
        let seq = out.recovered;
        check_image(&mut out, reference, &arena, db, seq, false);
        return out;
    }

    // The primary is gone; recover in place over the surviving arena,
    // crashing recovery itself as many times as the plan demands.
    m.clear_fault();
    m.crash();
    let mut at = m.now();
    drop(engine);
    drop(m);
    let recover_once = |at: VirtualInstant, arena: &Rc<RefCell<Arena>>| {
        let mut rm = Machine::standalone(costs.clone(), Rc::clone(arena));
        rm.clock_mut().advance_to(at);
        let mut engine = attach_engine(scenario.version, &mut rm);
        let report = engine.recover(&mut rm);
        (report, rm.now())
    };
    let mut done = None;
    for budget in plan.recovery_crashes() {
        apply_mutation(mutation, &arena);
        let writes_before = arena.borrow().writes();
        arena.borrow_mut().inject_halt_after_writes(budget);
        let result = run_caught(|| recover_once(at, &arena));
        arena.borrow_mut().clear_halt();
        match result {
            Ok((report, t)) => {
                out.recovery_writes = arena.borrow().writes() - writes_before;
                at = t;
                done = Some(report);
                break;
            }
            Err(msg) if is_fault(&msg) => out.faults_fired += 1,
            Err(msg) => {
                out.violation = Some(Violation::UnexpectedPanic(msg));
                return out;
            }
        }
    }
    let report = match done {
        Some(report) => report,
        None => {
            apply_mutation(mutation, &arena);
            let writes_before = arena.borrow().writes();
            match run_caught(|| recover_once(at, &arena)) {
                Ok((report, _)) => {
                    out.recovery_writes = arena.borrow().writes() - writes_before;
                    report
                }
                Err(msg) => {
                    out.violation = Some(Violation::UnexpectedPanic(msg));
                    return out;
                }
            }
        }
    };
    out.recovered = report.committed_seq;
    // Local recovery loses nothing: every completed transaction was
    // durable, and at most the in-flight one may have committed after
    // the loop's count was taken.
    if out.recovered < out.committed || out.recovered > out.committed + 1 {
        out.violation = Some(Violation::SequenceDrift {
            recovered: out.recovered,
            committed: out.committed,
        });
        return out;
    }
    let seq = out.recovered;
    check_image(&mut out, reference, &arena, db, seq, false);
    out
}

/// 1-safe replication may lose the in-flight tail; more than this many
/// transactions behind the primary is a bug (matches the bound the
/// failover property tests have always enforced).
const LOSS_BOUND: u64 = 64;

fn run_passive(
    scenario: &Scenario,
    plan: &FaultPlan,
    reference: &Reference,
    mutation: Option<Mutation>,
) -> Outcome {
    let mut out = Outcome::new(scenario, plan);
    let costs = CostModel::alpha_21164a();
    let config = EngineConfig::for_db(scenario.db_len);
    let mut cluster = PassiveCluster::new(costs.clone(), scenario.version, &config);
    let db = cluster.engine().db_region();
    let mut workload = scenario.workload.build(db, scenario.seed);

    let site = plan.primary_crash();
    match site {
        Some(FaultSite::Store(n)) => cluster.machine_mut().inject_crash_after_stores(n),
        Some(FaultSite::Packet(n)) => cluster.machine_mut().inject_crash_after_packets(n),
        _ => {}
    }
    let crash_txn = match site {
        Some(FaultSite::Txn(n)) => Some(n),
        _ => None,
    };
    let stores_before = cluster.machine().stores_executed();
    let packets_before = cluster.machine().packets_emitted();
    let ok = run_txn_loop(&mut out, scenario.txns, crash_txn, || {
        cluster.run_txn(workload.as_mut());
        Ok(())
    });
    out.stores = cluster.machine().stores_executed() - stores_before;
    out.packets = cluster.machine().packets_emitted() - packets_before;
    if !ok {
        return out;
    }

    if site.is_none() {
        cluster.quiesce();
        out.recovered = out.committed;
        let backup = Rc::clone(cluster.backup_arena());
        let seq = out.recovered;
        check_image(&mut out, reference, &backup, db, seq, false);
        return out;
    }

    cluster.machine_mut().clear_fault();
    cluster.machine_mut().clear_packet_fault();
    let mut takeover = Some(cluster.begin_takeover(0));
    let crashed_at = takeover.as_ref().map(Takeover::now).unwrap();
    let mut failover: Option<Failover> = None;
    for budget in plan.recovery_crashes() {
        let t = takeover
            .take()
            .expect("the takeover survives until a failover exists");
        let arena = t.arena();
        let at = t.now();
        apply_mutation(mutation, &arena);
        let writes_before = arena.borrow().writes();
        arena.borrow_mut().inject_halt_after_writes(budget);
        let result = run_caught(move || t.recover());
        arena.borrow_mut().clear_halt();
        match result {
            Ok(f) => {
                out.recovery_writes = arena.borrow().writes() - writes_before;
                failover = Some(f);
                break;
            }
            Err(msg) if is_fault(&msg) => {
                out.faults_fired += 1;
                takeover = Some(Takeover::resume(
                    scenario.version,
                    costs.clone(),
                    Rc::clone(&arena),
                    NullTracer,
                    at,
                ));
            }
            Err(msg) => {
                out.violation = Some(Violation::UnexpectedPanic(msg));
                return out;
            }
        }
    }
    let failover = match failover {
        Some(f) => f,
        None => {
            let t = takeover
                .take()
                .expect("no failover yet, so the takeover survived");
            let arena = t.arena();
            apply_mutation(mutation, &arena);
            let writes_before = arena.borrow().writes();
            match run_caught(move || t.recover()) {
                Ok(f) => {
                    out.recovery_writes = arena.borrow().writes() - writes_before;
                    f
                }
                Err(msg) => {
                    out.violation = Some(Violation::UnexpectedPanic(msg));
                    return out;
                }
            }
        }
    };
    out.recovered = failover.report.committed_seq;
    if out.recovered > out.committed + 1 {
        out.violation = Some(Violation::SequenceDrift {
            recovered: out.recovered,
            committed: out.committed,
        });
        return out;
    }
    if out.committed.saturating_sub(out.recovered) >= LOSS_BOUND {
        out.violation = Some(Violation::ExcessiveLoss {
            recovered: out.recovered,
            committed: out.committed,
        });
        return out;
    }
    let arena = Rc::clone(failover.machine.arena());
    let seq = out.recovered;
    check_image(&mut out, reference, &arena, db, seq, true);
    if out.violation.is_none() {
        check_timeline(&mut out, plan, crashed_at, failover.recovery_time, 2);
    }
    out
}

fn run_active(
    scenario: &Scenario,
    plan: &FaultPlan,
    reference: &Reference,
    mutation: Option<Mutation>,
) -> Outcome {
    let mut out = Outcome::new(scenario, plan);
    let costs = CostModel::alpha_21164a();
    let config = EngineConfig::for_db(scenario.db_len);
    let mut cluster = ActiveCluster::new(costs.clone(), &config);
    if scenario.two_safe {
        cluster.set_durability(Durability::TwoSafe);
    }
    let db = cluster.db_region();
    let mut workload = scenario.workload.build(db, scenario.seed);

    let site = plan.primary_crash();
    match site {
        Some(FaultSite::Store(n)) => cluster.machine_mut().inject_crash_after_stores(n),
        Some(FaultSite::Packet(n)) => cluster.machine_mut().inject_crash_after_packets(n),
        _ => {}
    }
    let crash_txn = match site {
        Some(FaultSite::Txn(n)) => Some(n),
        _ => None,
    };
    let stores_before = cluster.machine().stores_executed();
    let packets_before = cluster.machine().packets_emitted();
    let ok = run_txn_loop(&mut out, scenario.txns, crash_txn, || {
        cluster.run_txn(workload.as_mut());
        Ok(())
    });
    out.stores = cluster.machine().stores_executed() - stores_before;
    out.packets = cluster.machine().packets_emitted() - packets_before;
    if !ok {
        return out;
    }

    if site.is_none() {
        cluster.settle();
        out.recovered = cluster.backup_applied_seq();
        if out.recovered != scenario.txns {
            out.violation = Some(Violation::SequenceDrift {
                recovered: out.recovered,
                committed: out.committed,
            });
            return out;
        }
        let backup = Rc::clone(cluster.backup_arena());
        let seq = out.recovered;
        check_image(&mut out, reference, &backup, db, seq, false);
        return out;
    }

    cluster.machine_mut().clear_fault();
    cluster.machine_mut().clear_packet_fault();
    let mut takeover = Some(cluster.begin_takeover());
    let crashed_at = takeover.as_ref().map(ActiveTakeover::now).unwrap();
    let mut failover: Option<Failover> = None;
    for budget in plan.recovery_crashes() {
        let t = takeover
            .take()
            .expect("the takeover survives until a failover exists");
        let arena = t.arena();
        let at = t.now();
        apply_mutation(mutation, &arena);
        let writes_before = arena.borrow().writes();
        arena.borrow_mut().inject_halt_after_writes(budget);
        let result = run_caught(move || t.recover());
        arena.borrow_mut().clear_halt();
        match result {
            Ok(Ok(f)) => {
                out.recovery_writes = arena.borrow().writes() - writes_before;
                failover = Some(f);
                break;
            }
            Ok(Err(e)) => {
                out.violation = Some(Violation::UnexpectedPanic(format!(
                    "backup layout unreadable: {e}"
                )));
                return out;
            }
            Err(msg) if is_fault(&msg) => {
                out.faults_fired += 1;
                match ActiveTakeover::resume(costs.clone(), Rc::clone(&arena), NullTracer, at) {
                    Ok(t) => takeover = Some(t),
                    Err(e) => {
                        out.violation = Some(Violation::UnexpectedPanic(format!(
                            "mid-recovery halt corrupted the layout: {e}"
                        )));
                        return out;
                    }
                }
            }
            Err(msg) => {
                out.violation = Some(Violation::UnexpectedPanic(msg));
                return out;
            }
        }
    }
    let failover = match failover {
        Some(f) => f,
        None => {
            let t = takeover
                .take()
                .expect("no failover yet, so the takeover survived");
            let arena = t.arena();
            apply_mutation(mutation, &arena);
            let writes_before = arena.borrow().writes();
            match run_caught(move || t.recover()) {
                Ok(Ok(f)) => {
                    out.recovery_writes = arena.borrow().writes() - writes_before;
                    f
                }
                Ok(Err(e)) => {
                    out.violation = Some(Violation::UnexpectedPanic(format!(
                        "backup layout unreadable: {e}"
                    )));
                    return out;
                }
                Err(msg) => {
                    out.violation = Some(Violation::UnexpectedPanic(msg));
                    return out;
                }
            }
        }
    };
    out.recovered = failover.report.committed_seq;
    if out.recovered > out.committed + 1 {
        out.violation = Some(Violation::SequenceDrift {
            recovered: out.recovered,
            committed: out.committed,
        });
        return out;
    }
    if scenario.two_safe && out.recovered < out.committed {
        out.violation = Some(Violation::ExcessiveLoss {
            recovered: out.recovered,
            committed: out.committed,
        });
        return out;
    }
    if out.committed.saturating_sub(out.recovered) >= LOSS_BOUND {
        out.violation = Some(Violation::ExcessiveLoss {
            recovered: out.recovered,
            committed: out.committed,
        });
        return out;
    }
    // The active backup applies whole publications: its recovered image
    // is byte-exact at its own boundary, never torn.
    let arena = Rc::clone(failover.machine.arena());
    let seq = out.recovered;
    check_image(&mut out, reference, &arena, db, seq, false);
    if out.violation.is_none() {
        check_timeline(&mut out, plan, crashed_at, failover.recovery_time, 2);
    }
    out
}

fn run_replica_set(
    scenario: &Scenario,
    plan: &FaultPlan,
    reference: &Reference,
    mutation: Option<Mutation>,
) -> Outcome {
    let mut out = Outcome::new(scenario, plan);
    let costs = CostModel::alpha_21164a();
    let config = EngineConfig::for_db(scenario.db_len);
    let topology = scenario
        .topology()
        .expect("chain/quorum drivers have a topology")
        .expect("check_plan validated the topology");
    let mut set = ReplicaSet::new(costs.clone(), scenario.version, &config, topology);
    for (from, to, ps) in plan.partition_delays() {
        set.partition_delay(from, to, VirtualDuration::from_picos(ps));
    }
    for (from, to, n) in plan.partition_drops() {
        set.partition_drop_after(from, to, n);
    }
    let db = set.engine().db_region();
    let mut workload = scenario.workload.build(db, scenario.seed);

    let site = plan.primary_crash();
    match site {
        Some(FaultSite::Store(n)) => set.machine_mut().inject_crash_after_stores(n),
        Some(FaultSite::Packet(n)) => set.machine_mut().inject_crash_after_packets(n),
        _ => {}
    }
    let crash_txn = match site {
        Some(FaultSite::Txn(n)) => Some(n),
        _ => None,
    };
    let stores_before = set.machine().stores_executed();
    let packets_before = set.machine().packets_emitted();
    let ok = run_txn_loop(&mut out, scenario.txns, crash_txn, || {
        set.run_txn(workload.as_mut());
        Ok(())
    });
    out.stores = set.machine().stores_executed() - stores_before;
    out.packets = set.machine().packets_emitted() - packets_before;
    if !ok {
        return out;
    }

    if site.is_none() {
        set.quiesce();
        out.degraded = set.degraded_commits();
        out.recovered = out.committed;
        // Chain and quorum heads run 2-safe toward node 1: its image is
        // exact at every graceful boundary, partitions or not.
        let node1 = Rc::clone(set.replica_arena(1));
        let seq = out.recovered;
        check_image(&mut out, reference, &node1, db, seq, false);
        // Without partitions, every further replica converges too.
        if out.violation.is_none() && plan.partition_pairs().is_empty() {
            for node in 2..scenario.rf {
                let arena = Rc::clone(set.replica_arena(node));
                check_image(&mut out, reference, &arena, db, seq, false);
                if out.violation.is_some() {
                    break;
                }
            }
        }
        return out;
    }

    set.machine_mut().clear_fault();
    set.machine_mut().clear_packet_fault();
    out.degraded = set.degraded_commits();
    let replica_takeover = set.begin_takeover();
    let crashed_at = replica_takeover.crashed_at;
    let mut takeover = Some(replica_takeover.takeover);
    let mut failover: Option<Failover> = None;
    for budget in plan.recovery_crashes() {
        let t = takeover
            .take()
            .expect("the takeover survives until a failover exists");
        let arena = t.arena();
        let at = t.now();
        apply_mutation(mutation, &arena);
        let writes_before = arena.borrow().writes();
        arena.borrow_mut().inject_halt_after_writes(budget);
        let result = run_caught(move || t.recover());
        arena.borrow_mut().clear_halt();
        match result {
            Ok(f) => {
                out.recovery_writes = arena.borrow().writes() - writes_before;
                failover = Some(f);
                break;
            }
            Err(msg) if is_fault(&msg) => {
                out.faults_fired += 1;
                takeover = Some(Takeover::resume(
                    scenario.version,
                    costs.clone(),
                    Rc::clone(&arena),
                    NullTracer,
                    at,
                ));
            }
            Err(msg) => {
                out.violation = Some(Violation::UnexpectedPanic(msg));
                return out;
            }
        }
    }
    let failover = match failover {
        Some(f) => f,
        None => {
            let t = takeover
                .take()
                .expect("no failover yet, so the takeover survived");
            let arena = t.arena();
            apply_mutation(mutation, &arena);
            let writes_before = arena.borrow().writes();
            match run_caught(move || t.recover()) {
                Ok(f) => {
                    out.recovery_writes = arena.borrow().writes() - writes_before;
                    f
                }
                Err(msg) => {
                    out.violation = Some(Violation::UnexpectedPanic(msg));
                    return out;
                }
            }
        }
    };
    out.recovered = failover.report.committed_seq;
    // Chain and quorum commits are 2-safe: nothing committed is ever
    // lost, partitions included, and at most the in-flight transaction
    // may have committed past the loop's count.
    if out.recovered < out.committed || out.recovered > out.committed + 1 {
        out.violation = Some(Violation::SequenceDrift {
            recovered: out.recovered,
            committed: out.committed,
        });
        return out;
    }
    let arena = Rc::clone(failover.machine.arena());
    let seq = out.recovered;
    check_image(&mut out, reference, &arena, db, seq, true);
    if out.violation.is_none() {
        check_timeline(
            &mut out,
            plan,
            crashed_at,
            failover.recovery_time,
            scenario.rf,
        );
    }
    out
}

//! Deterministic execution of a [`FaultPlan`] against a [`Scenario`].
//!
//! Every driver runs the same pipeline. The executor builds the
//! scenario's driver from scratch, arms the injection hooks the plan
//! names (store budgets on the primary machine, packet budgets on the SAN
//! adapter, arena write budgets on the recovering node), runs the
//! workload until a budget returns [`Halted`], and drives recovery to
//! completion — re-entering it over the surviving arena as many times as
//! the plan crashes it. A halt is a value passed up the store pipeline,
//! never a panic; a panic is a real bug, caught only to report it. The
//! outcome is checked against the shadow [`Reference`](crate::Reference)
//! and the driver's contract: which copies a fault-free run must hold
//! exactly, the sequence and loss bounds, the torn-tail allowance and the
//! takeover timeline, all set in one place. Everything is a pure function
//! of (scenario, plan): replaying the same pair is bit-deterministic.

use std::cell::RefCell;
use std::fmt;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;

use dsnrep_cluster::{
    takeover_timeline_with_faults, HeartbeatConfig, HeartbeatFaults, NodeId, TakeoverTimeline,
    Topology, ViewManager,
};
use dsnrep_core::{
    arena_len, attach_engine, build_engine, Durability, Engine, EngineConfig, Machine, TxError,
    VersionTag,
};
use dsnrep_obs::NullTracer;
use dsnrep_repl::{modeled_pairs, ReplicaSet, Scheme, Takeover};
use dsnrep_rio::{Arena, Layout, RegionId};
use dsnrep_simcore::{CostModel, Halted, Region, VirtualDuration, VirtualInstant};
use dsnrep_workloads::{TxCtx, Workload};

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
    /// A pair failover lost more than its durability allows: anything
    /// when 2-safe, more than the in-flight window when 1-safe.
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
    /// Injected faults that actually fired: every [`Halted`] a budget
    /// returned, the primary's and each crashed recovery attempt's. A
    /// budget armed past the end of the run never fires.
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

/// Why a run or recovery attempt stopped short.
enum Stop {
    /// An armed fault budget halted the node.
    Halted,
    /// A real bug: an engine error, a panic, an unreadable arena.
    Broken(String),
}

impl From<Halted> for Stop {
    fn from(_: Halted) -> Self {
        Stop::Halted
    }
}

/// Runs `f`, turning a panic into [`Stop::Broken`] with its message: the
/// safety net for real engine bugs, not the way a fault fires.
fn run_caught<R>(f: impl FnOnce() -> Result<R, Stop>) -> Result<R, Stop> {
    panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(Stop::Broken(
            payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string()),
        ))
    })
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
    Ok(run(scenario, plan, reference, mutation))
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

/// 1-safe replication may lose the in-flight tail; more than this many
/// transactions behind the primary is a bug (matches the bound the
/// failover property tests have always enforced).
const LOSS_BOUND: u64 = 64;

/// What a driver promises about a run. Every driver's contract lives in
/// [`Contract::of`]; FAULTS.md's per-driver table mirrors it.
struct Contract {
    /// Nodes whose images must match the oracle exactly after a
    /// fault-free run (node 0 is the primary).
    settled: Range<u8>,
    /// A recovered sequence this many transactions or more behind the
    /// primary is [`Violation::ExcessiveLoss`]. `None`: nothing committed
    /// may be lost, and a shortfall is [`Violation::SequenceDrift`].
    loss_bound: Option<u64>,
    /// Whether the recovered image may keep the in-flight transaction's
    /// torn undo ranges.
    torn_tail: bool,
    /// The node count of the takeover timeline to check; `None` for
    /// recovery in place.
    timeline_rf: Option<u8>,
}

impl Contract {
    fn of(scenario: &Scenario, plan: &FaultPlan) -> Self {
        // A 2-safe pair waits for the backup before a commit returns, so
        // it may lose nothing.
        let pair_loss = Some(if scenario.two_safe { 1 } else { LOSS_BOUND });
        // Chain and quorum heads commit 2-safe toward node 1, so it is
        // exact at every graceful boundary, partitions or not. Without
        // partitions, every further replica converges too.
        let replicas = if plan.partition_pairs().is_empty() {
            1..scenario.rf
        } else {
            1..2
        };
        // Local recovery and the 2-safe chain and quorum lose nothing. The
        // active backup applies whole publications, so its image is never
        // torn.
        let (settled, loss_bound, torn_tail, timeline_rf) = match scenario.driver {
            Driver::Standalone => (0..1, None, false, None),
            Driver::Passive => (1..2, pair_loss, true, Some(2)),
            Driver::Active => (1..2, pair_loss, false, Some(2)),
            Driver::Chain | Driver::Quorum => (replicas, None, true, Some(scenario.rf)),
        };
        Contract {
            settled,
            loss_bound,
            torn_tail,
            timeline_rf,
        }
    }

    /// Checks a recovered sequence against what the primary completed.
    /// At most the in-flight transaction may have committed past the
    /// count.
    fn check_sequence(&self, recovered: u64, committed: u64) -> Option<Violation> {
        let lost = committed.saturating_sub(recovered);
        if recovered > committed + 1 || (self.loss_bound.is_none() && lost > 0) {
            Some(Violation::SequenceDrift {
                recovered,
                committed,
            })
        } else if self.loss_bound.is_some_and(|bound| lost >= bound) {
            Some(Violation::ExcessiveLoss {
                recovered,
                committed,
            })
        } else {
            None
        }
    }
}

/// What a replicated scenario's head ships to node 1.
fn scheme(scenario: &Scenario) -> Scheme {
    match scenario.driver {
        Driver::Active => Scheme::Active,
        _ => Scheme::Passive(scenario.version),
    }
}

/// The system a scenario runs on, up to its primary's crash.
enum Cluster {
    /// One machine and its engine, recovering in place.
    Standalone(Box<Machine>, Box<dyn Engine>),
    /// Every replicated driver: a passive or active pair, a chain or a
    /// quorum.
    Set(Box<ReplicaSet>),
}

impl Cluster {
    /// Builds the scenario's driver with the plan's partitions and
    /// primary crash armed.
    fn build(scenario: &Scenario, plan: &FaultPlan) -> Self {
        let costs = CostModel::alpha_21164a();
        let config = EngineConfig::for_db(scenario.db_len);
        let mut cluster = match (scenario.driver, scenario.topology()) {
            (Driver::Standalone, _) => {
                let arena = dsnrep_core::shared_arena(arena_len(scenario.version, &config));
                let mut machine = Box::new(Machine::standalone(costs, arena));
                let engine = build_engine(scenario.version, &mut machine, &config);
                Cluster::Standalone(machine, engine)
            }
            (_, None) => Cluster::Set(Box::new(ReplicaSet::pair(costs, scheme(scenario), &config))),
            (_, Some(topology)) => {
                let topology = topology.expect("check_plan validated the topology");
                let mut set = ReplicaSet::new(costs, scenario.version, &config, topology);
                for (from, to, ps) in plan.partition_delays() {
                    set.partition_delay(from, to, VirtualDuration::from_picos(ps));
                }
                for (from, to, n) in plan.partition_drops() {
                    set.partition_drop_after(from, to, n);
                }
                Cluster::Set(Box::new(set))
            }
        };
        let machine = cluster.machine_mut();
        // Chain and quorum heads already commit 2-safe, and a lone
        // machine has no port to wait on.
        if scenario.two_safe {
            machine.set_durability(Durability::TwoSafe);
        }
        match plan.primary_crash() {
            Some(FaultSite::Store(n)) => machine.inject_crash_after_stores(n),
            Some(FaultSite::Packet(n)) => machine.inject_crash_after_packets(n),
            _ => {}
        }
        cluster
    }

    fn machine(&self) -> &Machine {
        match self {
            Cluster::Standalone(machine, _) => machine,
            Cluster::Set(set) => set.machine(),
        }
    }

    fn machine_mut(&mut self) -> &mut Machine {
        match self {
            Cluster::Standalone(machine, _) => machine,
            Cluster::Set(set) => set.machine_mut(),
        }
    }

    fn db_region(&self) -> Region {
        match self {
            Cluster::Standalone(_, engine) => engine.db_region(),
            Cluster::Set(set) => set.db_region(),
        }
    }

    /// Runs one transaction on the primary.
    fn run_txn(&mut self, workload: &mut dyn Workload) -> Result<(), Stop> {
        let result = match self {
            Cluster::Standalone(machine, engine) => {
                workload.run_txn(&mut TxCtx::new(machine, engine.as_mut()))
            }
            Cluster::Set(set) => set.try_run_txn(workload),
        };
        result.map_err(|e| match e {
            TxError::Halted => Stop::Halted,
            e => Stop::Broken(format!("engine error: {e:?}")),
        })
    }

    /// Ends a fault-free run and returns the sequence the settled copies
    /// hold: what an active backup applied, every commit otherwise.
    fn settle(&mut self, committed: u64) -> u64 {
        match self {
            Cluster::Standalone(machine, engine) => engine.committed_seq(machine),
            Cluster::Set(set) => {
                set.quiesce();
                set.ring_applied_seq().unwrap_or(committed)
            }
        }
    }

    fn degraded_commits(&self) -> u64 {
        match self {
            Cluster::Standalone(..) => 0,
            Cluster::Set(set) => set.degraded_commits(),
        }
    }

    /// The arena of `node`: 0 is the primary, and a pair's backup is 1.
    fn arena(&self, node: u8) -> &Rc<RefCell<Arena>> {
        match (self, node) {
            (Cluster::Standalone(machine, _), 0) => machine.arena(),
            (Cluster::Set(set), _) => set.replica_arena(node),
            _ => unreachable!("the driver has no node {node}"),
        }
    }

    /// Crashes the primary. Returns the recovery to run and the instant
    /// the takeover timeline starts from.
    fn crash(mut self, version: VersionTag) -> (Recovery, VirtualInstant) {
        let machine = self.machine_mut();
        machine.clear_fault();
        machine.clear_packet_fault();
        match self {
            Cluster::Standalone(mut machine, _) => {
                machine.crash();
                let at = machine.now();
                let arena = Rc::clone(machine.arena());
                (Recovery::in_place(version, arena, at), at)
            }
            Cluster::Set(set) => {
                let pair = set.topology() == Topology::pair();
                let replica = set.begin_takeover();
                // A pair's timeline starts once its promoted backup is up,
                // which an active backup's ring work can carry past the
                // crash; a chain's or quorum's starts at the crash.
                let at = if pair {
                    replica.takeover.now()
                } else {
                    replica.crashed_at
                };
                (Recovery::Takeover(replica.takeover), at)
            }
        }
    }
}

/// A crashed run's recovery, ready for its next attempt.
enum Recovery {
    /// A fresh machine over the crashed node's own arena, recovering its
    /// version in place.
    InPlace(Machine, VersionTag),
    /// A promoted replica of any replicated driver.
    Takeover(Takeover),
}

impl Recovery {
    fn in_place(version: VersionTag, arena: Rc<RefCell<Arena>>, at: VirtualInstant) -> Self {
        let mut machine = Machine::standalone(CostModel::alpha_21164a(), arena);
        machine.clock_mut().advance_to(at);
        Recovery::InPlace(machine, version)
    }

    /// Re-enters recovery over the arena a halted attempt left behind,
    /// the way `scenario`'s driver recovers.
    fn resume(scenario: &Scenario, arena: Rc<RefCell<Arena>>, at: VirtualInstant) -> Self {
        match scenario.driver {
            Driver::Standalone => Recovery::in_place(scenario.version, arena, at),
            _ => Recovery::Takeover(Takeover::resume(
                scheme(scenario),
                CostModel::alpha_21164a(),
                arena,
                NullTracer,
                at,
            )),
        }
    }

    fn arena(&self) -> Rc<RefCell<Arena>> {
        match self {
            Recovery::InPlace(machine, _) => Rc::clone(machine.arena()),
            Recovery::Takeover(takeover) => takeover.arena(),
        }
    }

    fn now(&self) -> VirtualInstant {
        match self {
            Recovery::InPlace(machine, _) => machine.now(),
            Recovery::Takeover(takeover) => takeover.now(),
        }
    }

    /// Runs recovery to completion. Returns the recovered sequence and
    /// the virtual time recovery took, or why it stopped short.
    fn run(self) -> Result<(u64, VirtualDuration), Stop> {
        match self {
            Recovery::InPlace(mut machine, version) => {
                let at = machine.now();
                let report = attach_engine(version, &mut machine).recover(&mut machine)?;
                Ok((report.committed_seq, machine.now().duration_since(at)))
            }
            Recovery::Takeover(takeover) => {
                let failover = takeover.try_recover()?;
                Ok((failover.report.committed_seq, failover.recovery_time))
            }
        }
    }
}

/// The executor's one pipeline: build, run, then either settle and check
/// the driver's settled copies, or crash, recover through every planned
/// halt, and check the recovered copy against the driver's contract.
fn run(
    scenario: &Scenario,
    plan: &FaultPlan,
    reference: &Reference,
    mutation: Option<Mutation>,
) -> Outcome {
    let mut out = Outcome::new(scenario, plan);
    let contract = Contract::of(scenario, plan);
    let mut cluster = Cluster::build(scenario, plan);
    let db = cluster.db_region();
    let mut workload = scenario.workload.build(db, scenario.seed);

    let site = plan.primary_crash();
    let crash_txn = match site {
        Some(FaultSite::Txn(n)) => Some(n),
        _ => None,
    };
    let stores_before = cluster.machine().stores_executed();
    let packets_before = cluster.machine().packets_emitted();
    // Run until the plan's transaction boundary or an injected fault.
    while out.committed < scenario.txns && crash_txn != Some(out.committed) {
        match run_caught(|| cluster.run_txn(workload.as_mut())) {
            Ok(()) => out.committed += 1,
            Err(Stop::Halted) => {
                out.faults_fired += 1;
                break;
            }
            Err(Stop::Broken(msg)) => {
                out.violation = Some(Violation::UnexpectedPanic(msg));
                break;
            }
        }
    }
    out.stores = cluster.machine().stores_executed() - stores_before;
    out.packets = cluster.machine().packets_emitted() - packets_before;
    if out.violation.is_some() {
        return out;
    }

    if site.is_none() {
        out.recovered = cluster.settle(out.committed);
        out.degraded = cluster.degraded_commits();
        if out.recovered != out.committed {
            out.violation = Some(Violation::SequenceDrift {
                recovered: out.recovered,
                committed: out.committed,
            });
            return out;
        }
        let seq = out.recovered;
        for node in contract.settled {
            check_image(&mut out, reference, cluster.arena(node), db, seq, false);
            if out.violation.is_some() {
                break;
            }
        }
        return out;
    }

    // The primary is gone. Recover, crashing recovery itself once per
    // planned budget and re-entering over the surviving arena; the
    // attempt after the last budget runs unarmed.
    out.degraded = cluster.degraded_commits();
    let (mut recovery, crashed_at) = cluster.crash(scenario.version);
    let mut budgets = plan.recovery_crashes().into_iter();
    let (seq, recovery_time, arena) = loop {
        let budget = budgets.next();
        let arena = recovery.arena();
        let at = recovery.now();
        apply_mutation(mutation, &arena);
        let writes_before = arena.borrow().writes();
        if let Some(budget) = budget {
            arena.borrow_mut().inject_halt_after_writes(budget);
        }
        let result = run_caught(move || recovery.run());
        arena.borrow_mut().clear_halt();
        match result {
            Ok((seq, recovery_time)) => {
                out.recovery_writes = arena.borrow().writes() - writes_before;
                break (seq, recovery_time, arena);
            }
            Err(Stop::Halted) if budget.is_some() => {
                out.faults_fired += 1;
                recovery = Recovery::resume(scenario, arena, at);
            }
            Err(Stop::Halted) => {
                out.violation = Some(Violation::UnexpectedPanic(Halted.to_string()));
                return out;
            }
            Err(Stop::Broken(msg)) => {
                out.violation = Some(Violation::UnexpectedPanic(msg));
                return out;
            }
        }
    };
    out.recovered = seq;
    if let Some(violation) = contract.check_sequence(seq, out.committed) {
        out.violation = Some(violation);
        return out;
    }
    check_image(&mut out, reference, &arena, db, seq, contract.torn_tail);
    if let (None, Some(rf)) = (&out.violation, contract.timeline_rf) {
        check_timeline(&mut out, plan, crashed_at, recovery_time, rf);
    }
    out
}

//! The one takeover: a promoted replica that has not yet recovered, and
//! the failover it becomes.
//!
//! Every driver fails over the same way. The head crashes, a replica is
//! promoted on a fresh timeline that starts at the crash instant, and
//! [`Takeover::try_recover`] runs one step before the engine's own
//! recovery:
//!
//! * **Passive shipping** — nothing beyond the version's procedure over
//!   the write-through image: undo rollback for Versions 0/3, plus a
//!   whole-mirror copy first for Versions 1/2 (paper §5.1).
//! * **Active shipping** — the backup CPU drains the redo ring it was
//!   applying, stamps the applied sequence into the roots, and comes up
//!   as a standalone Version 3 engine (paper §6).
//!
//! Both steps are idempotent, so a recovery crashed by an injected halt is
//! just another crash: [`Takeover::resume`] re-enters it over the
//! surviving arena.

use std::cell::RefCell;
use std::rc::Rc;

use dsnrep_core::{
    attach_engine, Engine, Machine, MirrorEngine, RecoveryReport, RedoReader, VersionTag,
};
use dsnrep_obs::{NullTracer, Phase, TraceEventKind, Tracer, TRACK_BACKUP};
use dsnrep_rio::{Arena, Layout, LayoutError, RegionId, RootSlot};
use dsnrep_simcore::{CostModel, Halted, StallCause, VirtualDuration, VirtualInstant};
use dsnrep_workloads::{TxCtx, Workload};

use crate::replica_set::Scheme;

/// The panic message of a driver call that cannot return a halt, when an
/// armed fault budget halts it anyway.
pub(crate) const UNARMED: &str = "an infallible driver call ran into an armed fault budget";

/// The outcome of a backup takeover.
#[derive(Debug)]
pub struct Failover<T: Tracer + 'static = NullTracer> {
    /// The backup node, now serving as a standalone primary.
    pub machine: Machine<T>,
    /// The recovered engine over the backup's arena.
    pub engine: Box<dyn Engine<T>>,
    /// What recovery found.
    pub report: RecoveryReport,
    /// Virtual time the takeover's recovery work cost on the backup:
    /// rollback for the logging versions, the whole-mirror copy for the
    /// mirroring versions (the paper's "longer recovery time ...
    /// profitable tradeoff", §5.1).
    pub recovery_time: VirtualDuration,
}

impl<T: Tracer + 'static> Failover<T> {
    /// Runs one transaction of `workload` on the promoted backup — the
    /// "service resumes on the survivor" leg of an availability run.
    /// Availability reports measure the gap between the recovery-start
    /// event and the first commit this produces.
    ///
    /// # Panics
    ///
    /// Panics on engine errors (sizing bugs).
    pub fn run_txn(&mut self, workload: &mut dyn Workload<T>) {
        let mut ctx = TxCtx::new(&mut self.machine, self.engine.as_mut());
        workload
            .run_txn(&mut ctx)
            .expect("post-failover transaction failed");
    }
}

/// What a takeover does before the engine's own recovery.
#[derive(Debug)]
enum Step {
    /// Passive shipping: the version's procedure over the write-through
    /// image.
    Recover(VersionTag),
    /// Active shipping: drain the redo ring and stamp the roots. `None`
    /// reads a fresh reader off the arena's layout (a resumed attempt).
    DrainRing(Option<RedoReader>),
}

/// A promoted replica that has not yet run recovery: the state between
/// "the primary is gone" and "the replica is serving".
///
/// The split exists for fault injection: a campaign can arm a write
/// budget on the replica's arena ([`Takeover::arena`]), take the
/// [`Halted`] that [`Takeover::try_recover`] returns, and re-enter
/// recovery over the surviving arena with [`Takeover::resume`].
#[derive(Debug)]
pub struct Takeover<T: Tracer + 'static = NullTracer> {
    machine: Machine<T>,
    step: Step,
}

impl<T: Tracer + 'static> Takeover<T> {
    fn new(mut machine: Machine<T>, at: VirtualInstant, step: Step) -> Self {
        // The replica was up the whole run receiving SAN packets; its
        // promoted timeline starts at `at`, which keeps the merged
        // flight-recorder trace causal across tracks.
        machine.stall_until(StallCause::Other, at);
        Takeover { machine, step }
    }

    /// Promotes the active backup's own (warm) machine, which drains
    /// `reader`'s ring.
    pub(crate) fn drain(machine: Machine<T>, at: VirtualInstant, reader: RedoReader) -> Self {
        Self::new(machine, at, Step::DrainRing(Some(reader)))
    }

    /// A takeover over a replica arena: a fresh (cold-cache, portless)
    /// machine at virtual time `at` over the replica's recoverable
    /// memory, recovering the way `scheme` ships. This promotes a passive
    /// replica, and re-enters any recovery after a mid-recovery halt.
    pub fn resume(
        scheme: Scheme,
        costs: CostModel,
        arena: Rc<RefCell<Arena>>,
        tracer: T,
        at: VirtualInstant,
    ) -> Self {
        let step = match scheme {
            Scheme::Passive(version) => Step::Recover(version),
            Scheme::Active => Step::DrainRing(None),
        };
        let machine = Machine::standalone_traced(costs, arena, tracer, TRACK_BACKUP);
        Self::new(machine, at, step)
    }

    /// The promoted replica's arena handle (hold a clone across
    /// [`Takeover::try_recover`] to survive an injected mid-recovery halt).
    pub fn arena(&self) -> Rc<RefCell<Arena>> {
        Rc::clone(self.machine.arena())
    }

    /// The promoted replica's current virtual time.
    pub fn now(&self) -> VirtualInstant {
        self.machine.now()
    }

    /// Runs the takeover's step and the engine's recovery, completing the
    /// failover.
    ///
    /// # Panics
    ///
    /// Panics if an armed write budget halts recovery; the fault executor
    /// calls [`Takeover::try_recover`].
    pub fn recover(self) -> Failover<T> {
        self.try_recover().expect(UNARMED)
    }

    /// Runs the takeover's step and the engine's recovery, completing the
    /// failover.
    ///
    /// # Errors
    ///
    /// [`Halted`] when an armed write budget on the replica's arena halts
    /// recovery; the caller may [`Takeover::resume`] over the arena.
    ///
    /// # Panics
    ///
    /// Panics if the arena does not carry the engine's layout (cannot
    /// happen in a correctly wired cluster).
    pub fn try_recover(self) -> Result<Failover<T>, Halted> {
        let Takeover { mut machine, step } = self;
        let (version, applied) = match step {
            Step::Recover(version) => (version, 0),
            Step::DrainRing(reader) => (VersionTag::ImprovedLog, drain_ring(&mut machine, reader)?),
        };
        let start = machine.now();
        machine.trace_event(TraceEventKind::RecoveryStart, applied);
        let costs = machine.costs();
        let (line, miss, copy) = (costs.cache_line, costs.cache_miss, costs.copy_per_byte);
        if matches!(version, VersionTag::MirrorCopy | VersionTag::MirrorDiff) {
            // Paper §5.1: the backup copies the entire database from the
            // mirror (the set-range array was never replicated). Charge the
            // copy: a cache-model read and write per chunk.
            let bytes = MirrorEngine::backup_restore(&mut machine.arena().borrow_mut())?
                .expect("backup arena carries the replicated layout");
            // Both source and destination stream through the cache: model
            // as two misses per line plus the copy loop.
            machine.charge(miss * (2 * bytes.div_ceil(line)));
            machine.charge(VirtualDuration::from_picos(copy.as_picos() * bytes));
        }
        let mut engine = attach_engine(version, &mut machine);
        let report = engine.recover(&mut machine)?;
        // Recovery restores are unaccounted inside the engine (failure
        // path); charge them here at copy speed.
        machine.charge(VirtualDuration::from_picos(
            copy.as_picos() * report.bytes_restored,
        ));
        let recovery_time = machine.now().duration_since(start);
        machine.trace_event(TraceEventKind::FailoverComplete, report.committed_seq);
        Ok(Failover {
            machine,
            engine,
            report,
            recovery_time,
        })
    }
}

/// The active step: applies everything delivered before the crash,
/// stamps the applied sequence into the roots so the Version 3 engine
/// reports it, and cold-starts the node. Returns the stamped sequence.
///
/// The step is idempotent: redo records are absolute writes, so a fresh
/// poll re-applies them byte-identically, and the sequence root is kept
/// monotone — a takeover re-entered after a mid-recovery halt may find
/// the roots already stamped and the ring already reset, and its fresh
/// poll then applies nothing.
fn drain_ring<T: Tracer>(
    machine: &mut Machine<T>,
    reader: Option<RedoReader>,
) -> Result<u64, Halted> {
    let mut reader = reader.unwrap_or_else(|| {
        let layout =
            Layout::read(&machine.arena().borrow()).expect("the backup arena carries its layout");
        RedoReader::new(
            layout.expect_region(RegionId::RedoRing),
            layout.expect_region(RegionId::Database),
        )
    });
    let drain_start = machine.now();
    reader.poll(machine)?;
    machine.trace_phase(Phase::Apply, drain_start);
    let applied = {
        let mut arena = machine.arena().borrow_mut();
        let stamped = arena.read_u64(Layout::root_addr(RootSlot::LogPtr)) >> 32;
        let applied = reader.applied_seq().max(stamped);
        arena.try_write_u64(Layout::root_addr(RootSlot::LogPtr), applied << 32)?;
        arena.try_write_u64(Layout::root_addr(RootSlot::RingProducer), 0)?;
        arena.try_write_u64(Layout::root_addr(RootSlot::RingConsumer), 0)?;
        applied
    };
    // Cold cache; drop the reverse port's in-flight cursor write-backs.
    machine.crash();
    machine.clear_replication();
    Ok(applied)
}

/// The active backup's takeover, as [`ActiveCluster::begin_takeover`]
/// returns it: the one [`Takeover`], with the redo-ring step.
///
/// [`ActiveCluster::begin_takeover`]: crate::ActiveCluster::begin_takeover
#[derive(Debug)]
pub struct ActiveTakeover<T: Tracer + 'static = NullTracer>(pub(crate) Takeover<T>);

impl<T: Tracer + 'static> ActiveTakeover<T> {
    /// Drains the redo ring, stamps the sequence roots, and brings the
    /// backup up as a standalone Version 3 engine: [`Takeover::recover`].
    ///
    /// # Errors
    ///
    /// Never returns one: the [`LayoutError`] stays in the signature for
    /// callers that match on it. A backup arena without its layout
    /// panics, as under every other scheme.
    ///
    /// # Panics
    ///
    /// Panics if an armed write budget halts recovery.
    pub fn recover(self) -> Result<Failover<T>, LayoutError> {
        Ok(self.0.recover())
    }
}

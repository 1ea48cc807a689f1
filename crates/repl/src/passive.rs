//! Primary-backup with a passive backup (paper §3 and §5).
//!
//! The backup's CPU is idle: every byte travels by write doubling on the
//! primary. Which regions are doubled depends on the engine version
//! ([`Engine::replicated_regions`]): Version 0 maps *everything* (the
//! straightforward transparent port of §3); Versions 1–3 map the per-version
//! minimum (§5.1).
//!
//! On a primary crash the backup takes over: it re-attaches the engine to
//! its (write-through maintained) arena and runs the version's recovery
//! procedure — undo rollback for Versions 0/3, a whole-mirror copy for
//! Versions 1/2.

use std::cell::RefCell;
use std::rc::Rc;

use dsnrep_core::{
    arena_len, attach_engine, build_engine, Durability, Engine, EngineConfig, Machine,
    MirrorEngine, RecoveryReport, TxError, VersionTag,
};
use dsnrep_mcsim::{Link, Traffic, TxPort};
use dsnrep_obs::{NullTracer, TraceEventKind, Tracer, TRACK_BACKUP, TRACK_PRIMARY};
use dsnrep_rio::Arena;
use dsnrep_simcore::{
    CostModel, Halted, StallCause, TrafficClass, VirtualDuration, VirtualInstant,
};
use dsnrep_workloads::{ThroughputReport, TxCtx, Workload};

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

/// A two-node cluster with a passive backup.
///
/// # Examples
///
/// ```
/// use dsnrep_core::{EngineConfig, VersionTag};
/// use dsnrep_repl::PassiveCluster;
/// use dsnrep_simcore::CostModel;
/// use dsnrep_workloads::{DebitCredit, Workload};
///
/// let config = EngineConfig::for_db(1 << 20);
/// let mut cluster = PassiveCluster::new(
///     CostModel::alpha_21164a(), VersionTag::ImprovedLog, &config);
/// let mut workload = DebitCredit::new(cluster.engine().db_region(), 1);
/// let report = cluster.run(&mut workload, 100);
/// assert_eq!(report.txns, 100);
/// assert!(cluster.traffic().total_bytes() > 0);
/// ```
#[derive(Debug)]
pub struct PassiveCluster<T: Tracer + 'static = NullTracer> {
    version: VersionTag,
    costs: CostModel,
    tracer: T,
    machine: Machine<T>,
    engine: Box<dyn Engine<T>>,
    backups: Vec<Rc<RefCell<Arena>>>,
    link: Rc<RefCell<Link>>,
}

impl PassiveCluster {
    /// Builds a primary with a formatted arena, a write-through link, and a
    /// backup arena initially identical to the primary's.
    pub fn new(costs: CostModel, version: VersionTag, config: &EngineConfig) -> Self {
        Self::with_link(
            costs.clone(),
            version,
            config,
            Rc::new(RefCell::new(Link::new(&costs))),
        )
    }

    /// As [`PassiveCluster::new`], but sharing an existing SAN link (the
    /// SMP experiments run several primaries over one link).
    pub fn with_link(
        costs: CostModel,
        version: VersionTag,
        config: &EngineConfig,
        link: Rc<RefCell<Link>>,
    ) -> Self {
        Self::with_link_and_backups(costs, version, config, link, 1)
    }

    /// As [`PassiveCluster::with_link`], with `backup_count` backups: the
    /// Memory Channel hub multicasts natively, so every backup receives the
    /// same packets at no extra link cost.
    ///
    /// # Panics
    ///
    /// Panics if `backup_count` is zero.
    pub fn with_link_and_backups(
        costs: CostModel,
        version: VersionTag,
        config: &EngineConfig,
        link: Rc<RefCell<Link>>,
        backup_count: usize,
    ) -> Self {
        Self::with_link_and_backups_traced(costs, version, config, link, backup_count, NullTracer)
    }
}

impl<T: Tracer + 'static> PassiveCluster<T> {
    /// As [`PassiveCluster::new`], reporting spans, events and packets to
    /// `tracer` (primary = [`TRACK_PRIMARY`], backup = [`TRACK_BACKUP`]).
    pub fn new_traced(
        costs: CostModel,
        version: VersionTag,
        config: &EngineConfig,
        tracer: T,
    ) -> Self {
        let link = Rc::new(RefCell::new(Link::new(&costs)));
        Self::with_link_and_backups_traced(costs, version, config, link, 1, tracer)
    }

    /// The traced twin of [`PassiveCluster::with_link_and_backups`].
    ///
    /// # Panics
    ///
    /// Panics if `backup_count` is zero.
    pub fn with_link_and_backups_traced(
        costs: CostModel,
        version: VersionTag,
        config: &EngineConfig,
        link: Rc<RefCell<Link>>,
        backup_count: usize,
        tracer: T,
    ) -> Self {
        assert!(backup_count > 0, "a primary-backup cluster needs a backup");
        let arena = Rc::new(RefCell::new(Arena::new(arena_len(version, config))));
        let mut machine = Machine::standalone_traced(
            costs.clone(),
            Rc::clone(&arena),
            tracer.clone(),
            TRACK_PRIMARY,
        );
        let engine = build_engine(version, &mut machine, config);
        // Initial synchronization: every backup starts as an identical copy.
        let backups: Vec<Rc<RefCell<Arena>>> = (0..backup_count)
            .map(|_| Rc::new(RefCell::new(arena.borrow().clone())))
            .collect();
        let mut port = TxPort::new_traced(
            &costs,
            Rc::clone(&link),
            Rc::clone(&backups[0]),
            tracer.clone(),
            TRACK_PRIMARY,
        );
        // With multiple backups the apply instant is the same on all of
        // them; attribute it to the canonical backup track.
        port.set_peer_track(TRACK_BACKUP);
        for backup in &backups[1..] {
            port.add_peer(Rc::clone(backup));
        }
        machine.attach_port(port);
        for region in engine.replicated_regions() {
            machine.replicate(region);
        }
        PassiveCluster {
            version,
            costs,
            tracer,
            machine,
            engine,
            backups,
            link,
        }
    }

    /// The engine version this cluster runs.
    pub fn version(&self) -> VersionTag {
        self.version
    }

    /// The primary's engine.
    pub fn engine(&self) -> &dyn Engine<T> {
        self.engine.as_ref()
    }

    /// The primary machine.
    pub fn machine(&self) -> &Machine<T> {
        &self.machine
    }

    /// Mutable access to the primary machine (initial load pokes).
    pub fn machine_mut(&mut self) -> &mut Machine<T> {
        &mut self.machine
    }

    /// Selects 1-safe (default) or 2-safe commits.
    pub fn set_durability(&mut self, durability: Durability) {
        self.machine.set_durability(durability);
    }

    /// Re-synchronizes the backup **through the SAN**, charging full cost:
    /// every replicated region is streamed in sequential chunks (full-size
    /// packets). This is what bringing a rebooted node back up to date
    /// costs; returns the virtual time it took and the bytes shipped.
    ///
    /// Contrast with [`PassiveCluster::resync_backup`], which models an
    /// out-of-band initial copy at zero cost.
    ///
    /// # Panics
    ///
    /// Panics if an armed fault budget halts the primary.
    pub fn accounted_resync(&mut self) -> (VirtualDuration, u64) {
        let start = self.machine.now();
        let regions = self.engine.replicated_regions();
        let mut shipped = 0u64;
        let mut chunk = vec![0u8; 4096];
        for region in regions {
            let mut off = 0u64;
            while off < region.len() {
                let n = (region.len() - off).min(chunk.len() as u64) as usize;
                self.machine.read(region.start() + off, &mut chunk[..n]);
                self.machine
                    .write(region.start() + off, &chunk[..n], TrafficClass::Undo)
                    .expect(UNARMED);
                shipped += n as u64;
                off += n as u64;
            }
        }
        self.machine.quiesce().expect(UNARMED);
        (self.machine.now().duration_since(start), shipped)
    }

    /// The first backup arena (for oracles and assertions).
    pub fn backup_arena(&self) -> &Rc<RefCell<Arena>> {
        &self.backups[0]
    }

    /// All backup arenas.
    pub fn backup_arenas(&self) -> &[Rc<RefCell<Arena>>] {
        &self.backups
    }

    /// Runs one transaction of `workload` on the primary.
    ///
    /// # Panics
    ///
    /// Panics on engine errors (sizing bugs), a halt included; the fault
    /// executor calls [`PassiveCluster::try_run_txn`].
    pub fn run_txn(&mut self, workload: &mut dyn Workload<T>) {
        self.try_run_txn(workload)
            .expect("workload transaction failed");
    }

    /// Runs one transaction of `workload` on the primary.
    ///
    /// # Errors
    ///
    /// [`TxError::Halted`] when an armed fault budget halts the primary;
    /// any other error is an engine sizing bug.
    pub fn try_run_txn(&mut self, workload: &mut dyn Workload<T>) -> Result<(), TxError> {
        workload.run_txn(&mut TxCtx::new(&mut self.machine, self.engine.as_mut()))
    }

    /// Runs `txns` transactions and reports primary throughput.
    pub fn run(&mut self, workload: &mut dyn Workload<T>, txns: u64) -> ThroughputReport {
        let start = self.machine.now();
        for _ in 0..txns {
            self.run_txn(workload);
        }
        ThroughputReport {
            txns,
            elapsed: self.machine.now().duration_since(start),
        }
    }

    /// After the initial load (pokes to the primary arena), re-synchronizes
    /// every backup arena. Call before the measured run.
    pub fn resync_backup(&mut self) {
        for backup in &self.backups {
            *backup.borrow_mut() = self.machine.arena().borrow().clone();
        }
    }

    /// Traffic shipped to the backup so far.
    pub fn traffic(&self) -> Traffic {
        self.link.borrow().traffic().clone()
    }

    /// Crashes the primary *now* (in-flight packets past the crash instant
    /// are lost) and fails over to the backup, running the version's
    /// takeover procedure.
    pub fn crash_primary(self) -> Failover<T> {
        self.crash_primary_to(0)
    }

    /// As [`PassiveCluster::crash_primary`], promoting the backup at
    /// `index` (any replica can take over — they all received the same
    /// multicast packets).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn crash_primary_to(self, index: usize) -> Failover<T> {
        self.begin_takeover(index).recover()
    }

    /// Crashes the primary and hands back the promoted-but-unrecovered
    /// backup as a [`Takeover`]. Fault campaigns use the split to arm
    /// mid-recovery faults on the backup before calling
    /// [`Takeover::recover`]; [`PassiveCluster::crash_primary_to`] is the
    /// one-shot composition.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn begin_takeover(mut self, index: usize) -> Takeover<T> {
        let crashed_at = self.machine.now();
        self.machine
            .trace_event(TraceEventKind::PrimaryCrash, index as u64);
        self.machine.crash();
        let backup = Rc::clone(&self.backups[index]);
        let mut backup_machine = Machine::standalone_traced(
            self.costs.clone(),
            backup,
            self.tracer.clone(),
            TRACK_BACKUP,
        );
        // The backup was up the whole run receiving SAN packets; its
        // promoted timeline starts at the crash instant, which keeps the
        // merged flight-recorder trace causal across tracks.
        backup_machine.stall_until(StallCause::Other, crashed_at);
        Takeover {
            version: self.version,
            costs: self.costs,
            machine: backup_machine,
        }
    }

    /// Gracefully quiesces the SAN (end of a failure-free run): flushes
    /// write buffers and delivers everything in flight to the backup.
    ///
    /// # Panics
    ///
    /// Panics if an armed packet budget halts the primary mid-flush.
    pub fn quiesce(&mut self) {
        self.machine.quiesce().expect(UNARMED);
    }
}

/// The panic message of a driver call that cannot return a halt, when an
/// armed fault budget halts it anyway.
pub(crate) const UNARMED: &str = "an infallible driver call ran into an armed fault budget";

/// A promoted backup that has not yet run recovery: the state between
/// "the primary is gone" and "the backup is serving".
///
/// The split exists for fault injection: a campaign can arm a write
/// budget on the backup's arena ([`Takeover::arena`]), take the
/// [`Halted`] that [`Takeover::try_recover`] returns, and re-enter
/// recovery over the surviving arena with [`Takeover::resume`] — the
/// paper's recovery procedures are idempotent, so a crashed recovery is
/// just another crash to recover from.
#[derive(Debug)]
pub struct Takeover<T: Tracer + 'static = NullTracer> {
    version: VersionTag,
    costs: CostModel,
    machine: Machine<T>,
}

impl<T: Tracer + 'static> Takeover<T> {
    /// Rebuilds a takeover over a surviving backup arena, e.g. after a
    /// mid-recovery halt: a fresh (cold-cache) machine at virtual time
    /// `at` over the same recoverable memory.
    pub fn resume(
        version: VersionTag,
        costs: CostModel,
        arena: Rc<RefCell<Arena>>,
        tracer: T,
        at: VirtualInstant,
    ) -> Self {
        let mut machine = Machine::standalone_traced(costs.clone(), arena, tracer, TRACK_BACKUP);
        machine.stall_until(StallCause::Other, at);
        Takeover {
            version,
            costs,
            machine,
        }
    }

    /// The promoted backup's arena handle (hold a clone across
    /// [`Takeover::try_recover`] to survive an injected mid-recovery halt).
    pub fn arena(&self) -> Rc<RefCell<Arena>> {
        Rc::clone(self.machine.arena())
    }

    /// The promoted backup's current virtual time.
    pub fn now(&self) -> VirtualInstant {
        self.machine.now()
    }

    /// Runs the version's recovery procedure and completes the failover.
    ///
    /// # Panics
    ///
    /// Panics if an armed write budget halts recovery; the fault executor
    /// calls [`Takeover::try_recover`].
    pub fn recover(self) -> Failover<T> {
        self.try_recover().expect(UNARMED)
    }

    /// Runs the version's recovery procedure and completes the failover.
    ///
    /// # Errors
    ///
    /// [`Halted`] when an armed write budget on the backup's arena halts
    /// recovery; the caller may [`Takeover::resume`] over the arena.
    pub fn try_recover(mut self) -> Result<Failover<T>, Halted> {
        let start = self.machine.now();
        self.machine.trace_event(TraceEventKind::RecoveryStart, 0);
        if matches!(
            self.version,
            VersionTag::MirrorCopy | VersionTag::MirrorDiff
        ) {
            // Paper §5.1: the backup copies the entire database from the
            // mirror (the set-range array was never replicated). Charge the
            // copy: a cache-model read and write per chunk.
            let bytes = MirrorEngine::backup_restore(&mut self.machine.arena().borrow_mut())?
                .expect("backup arena carries the replicated layout");
            let chunk_lines = bytes.div_ceil(self.costs.cache_line);
            // Both source and destination stream through the cache: model
            // as two misses per line plus the copy loop.
            self.machine
                .charge(self.costs.cache_miss * (2 * chunk_lines));
            self.machine.charge(VirtualDuration::from_picos(
                self.costs.copy_per_byte.as_picos() * bytes,
            ));
        }
        let mut engine = attach_engine(self.version, &mut self.machine);
        let report = engine.recover(&mut self.machine)?;
        // Recovery restores are unaccounted inside the engine (failure
        // path); charge them here at copy speed.
        self.machine.charge(VirtualDuration::from_picos(
            self.costs.copy_per_byte.as_picos() * report.bytes_restored,
        ));
        let recovery_time = self.machine.now().duration_since(start);
        self.machine
            .trace_event(TraceEventKind::FailoverComplete, report.committed_seq);
        Ok(Failover {
            machine: self.machine,
            engine,
            report,
            recovery_time,
        })
    }
}

//! Primary-backup with an active backup (paper §6).
//!
//! The primary runs the best local scheme (Version 3) for its own
//! recoverability, but writes **nothing** of it through. Instead, commit
//! ships a redo log — only the actually modified bytes plus per-record
//! headers — into a circular buffer mapped on the backup; the backup CPU
//! busy-polls the ring, applies the records to its database copy, and
//! writes its consumer cursor back through a reverse mapping. If the ring
//! fills, the primary blocks until the backup catches up (flow control).
//!
//! ## Timing model
//!
//! The backup is a real simulated processor with its own clock and cache.
//! After each commit publication the backup is run forward: its clock is
//! first clamped to the publication's delivery instant (it cannot observe
//! records before they arrive), then it pays the full cost of reading and
//! applying each record. Consumer-cursor write-backs travel through the
//! same SAN model. One approximation is documented in `DESIGN.md`: cursor
//! write-backs become visible to the primary when the primary next looks,
//! which can be up to one link latency (3.3 µs) optimistic — negligible
//! against ring capacity.

use std::cell::RefCell;
use std::rc::Rc;

use dsnrep_core::{
    Applied, Engine, EngineConfig, ImprovedLogEngine, Machine, RecoveryReport, RedoReader,
    RedoWriter, TxError, VersionTag,
};
use dsnrep_mcsim::{Link, Traffic, TxPort};
use dsnrep_obs::{NullTracer, Phase, TraceEventKind, Tracer, TRACK_BACKUP, TRACK_PRIMARY};
use dsnrep_rio::{Arena, Layout, LayoutError, RegionId, RootSlot};
use dsnrep_simcore::{CostModel, Halted, Region, StallCause, VirtualInstant};
use dsnrep_workloads::{ThroughputReport, TxCtx, Workload};

use crate::passive::{Failover, UNARMED};

/// The backup node: a polling CPU applying the redo ring.
#[derive(Debug)]
pub struct BackupNode<T: Tracer = NullTracer> {
    machine: Machine<T>,
    reader: RedoReader,
}

impl<T: Tracer> BackupNode<T> {
    /// Applies every record visible by `visible_at`, pushing the consumer
    /// cursor back through the reverse mapping. Returns what was applied.
    ///
    /// # Errors
    ///
    /// [`Halted`] when an armed fault budget halts the backup.
    pub fn catch_up(&mut self, visible_at: VirtualInstant) -> Result<Applied, Halted> {
        // The busy-wait loop cannot observe a record before it arrives:
        // that wait is data-visibility stall time on the backup.
        self.machine
            .stall_until(StallCause::DataVisibility, visible_at);
        let start = self.machine.now();
        let applied = self.reader.poll(&mut self.machine)?;
        if applied.txns > 0 {
            self.machine.trace_phase(Phase::Apply, start);
        }
        Ok(applied)
    }

    /// The instant the most recent consumer write-back becomes visible on
    /// the primary.
    pub fn consumer_visible_at(&mut self) -> VirtualInstant {
        self.machine
            .port_mut()
            .map(|p| p.last_delivered())
            .unwrap_or(VirtualInstant::EPOCH)
    }

    /// Forces delivery of consumer write-backs up to `t` (applies them to
    /// the primary's arena).
    pub fn deliver_up_to(&mut self, t: VirtualInstant) {
        if let Some(p) = self.machine.port_mut() {
            p.deliver_up_to(t);
        }
    }

    /// Committed transactions the backup has fully applied.
    pub fn applied_seq(&self) -> u64 {
        self.reader.applied_seq()
    }

    /// The backup's machine (clock, arena).
    pub fn machine(&self) -> &Machine<T> {
        &self.machine
    }
}

/// The primary-side engine for the active scheme: Version 3 locally, plus
/// redo shipping and ring flow control at commit.
#[derive(Debug)]
pub struct ActivePrimaryEngine<T: Tracer = NullTracer> {
    inner: ImprovedLogEngine,
    writer: RedoWriter,
    ring: Region,
    backup: Rc<RefCell<BackupNode<T>>>,
}

impl<T: Tracer> Engine<T> for ActivePrimaryEngine<T> {
    fn version(&self) -> VersionTag {
        VersionTag::ImprovedLog
    }

    fn db_region(&self) -> Region {
        self.inner.db_region()
    }

    fn replicated_regions(&self) -> Vec<Region> {
        // Only the ring and its producer cursor travel to the backup.
        vec![self.ring_region(), RedoWriter::producer_root()]
    }

    fn begin(&mut self, m: &mut Machine<T>) -> Result<(), TxError> {
        self.inner.begin(m)
    }

    fn set_range(
        &mut self,
        m: &mut Machine<T>,
        base: dsnrep_simcore::Addr,
        len: u64,
    ) -> Result<(), TxError> {
        self.inner.set_range(m, base, len)
    }

    fn write(
        &mut self,
        m: &mut Machine<T>,
        base: dsnrep_simcore::Addr,
        bytes: &[u8],
    ) -> Result<(), TxError> {
        self.inner.write(m, base, bytes)?;
        self.writer.record_write(base, bytes);
        Ok(())
    }

    fn read(&mut self, m: &mut Machine<T>, base: dsnrep_simcore::Addr, buf: &mut [u8]) {
        self.inner.read(m, base, buf);
    }

    fn commit(&mut self, m: &mut Machine<T>) -> Result<(), TxError> {
        // Flow control: block until the ring has room.
        let needed = self.writer.bytes_needed();
        let mut stalls = 0u32;
        while self.writer.free_space(m) < needed {
            let visible = m
                .port_mut()
                .map(|p| p.last_delivered())
                .unwrap_or(VirtualInstant::EPOCH);
            // Everything flushed so far is deliverable to the backup.
            if let Some(p) = m.port_mut() {
                p.deliver_up_to(visible);
            }
            let mut backup = self.backup.borrow_mut();
            let applied = backup.catch_up(visible)?;
            let consumer_at = backup.consumer_visible_at();
            backup.deliver_up_to(consumer_at);
            drop(backup);
            // The primary is blocked on ring space, not on the SAN itself.
            m.stall_until(StallCause::RingFull, consumer_at);
            if applied.txns == 0 {
                stalls += 1;
                assert!(
                    stalls < 4,
                    "redo ring deadlock: {needed} bytes needed, backup cannot free space"
                );
            }
        }
        // Commit locally first (1-safe: the commit is durable on the
        // primary before the backup hears about it), then publish the redo.
        self.inner.commit(m)?;
        let seq = self.inner.committed_seq(m);
        self.writer.publish_commit(m, seq)?;
        if m.durability() == dsnrep_core::Durability::TwoSafe {
            m.wait_delivered()?;
        }
        // The backup CPU polls continuously; run it forward to the
        // publication it can now see.
        let visible = m
            .port_mut()
            .map(|p| p.last_delivered())
            .unwrap_or(VirtualInstant::EPOCH);
        if let Some(p) = m.port_mut() {
            p.deliver_up_to(visible);
        }
        let mut backup = self.backup.borrow_mut();
        backup.catch_up(visible)?;
        let consumer_at = backup.consumer_visible_at();
        backup.deliver_up_to(consumer_at);
        Ok(())
    }

    fn abort(&mut self, m: &mut Machine<T>) -> Result<(), TxError> {
        self.writer.discard();
        self.inner.abort(m)
    }

    fn recover(&mut self, m: &mut Machine<T>) -> Result<RecoveryReport, Halted> {
        self.writer.discard();
        self.inner.recover(m)
    }

    fn committed_seq(&self, m: &mut Machine<T>) -> u64 {
        self.inner.committed_seq(m)
    }
}

impl<T: Tracer> ActivePrimaryEngine<T> {
    fn ring_region(&self) -> Region {
        self.ring
    }
}

/// A two-node cluster with an active backup.
///
/// # Examples
///
/// ```
/// use dsnrep_core::EngineConfig;
/// use dsnrep_repl::ActiveCluster;
/// use dsnrep_simcore::CostModel;
/// use dsnrep_workloads::DebitCredit;
///
/// let config = EngineConfig::for_db(1 << 20);
/// let mut cluster = ActiveCluster::new(CostModel::alpha_21164a(), &config);
/// let mut workload = DebitCredit::new(cluster.db_region(), 1);
/// cluster.run(&mut workload, 200);
/// cluster.settle();
/// assert_eq!(cluster.backup_applied_seq(), 200);
/// ```
#[derive(Debug)]
pub struct ActiveCluster<T: Tracer + 'static = NullTracer> {
    machine: Machine<T>,
    engine: ActivePrimaryEngine<T>,
    backup: Rc<RefCell<BackupNode<T>>>,
    backup_arena: Rc<RefCell<Arena>>,
    link: Rc<RefCell<Link>>,
}

impl ActiveCluster {
    /// Builds an active-backup cluster: primary with a Version 3 engine
    /// and redo writer, backup with a polling reader, one SAN link.
    pub fn new(costs: CostModel, config: &EngineConfig) -> Self {
        Self::with_link(
            costs.clone(),
            config,
            Rc::new(RefCell::new(Link::new(&costs))),
        )
    }

    /// As [`ActiveCluster::new`], but sharing an existing forward SAN link
    /// (primary to backup). A private reverse link is created for the
    /// consumer write-backs — the Memory Channel is full duplex, so reverse
    /// cursor traffic does not consume forward bandwidth.
    pub fn with_link(costs: CostModel, config: &EngineConfig, link: Rc<RefCell<Link>>) -> Self {
        let reverse = Rc::new(RefCell::new(Link::new(&costs)));
        Self::with_links(costs, config, link, reverse)
    }

    /// As [`ActiveCluster::with_link`], with an explicit shared reverse
    /// link (the SMP experiments share one backup adapter too).
    pub fn with_links(
        costs: CostModel,
        config: &EngineConfig,
        link: Rc<RefCell<Link>>,
        reverse_link: Rc<RefCell<Link>>,
    ) -> Self {
        Self::with_links_traced(costs, config, link, reverse_link, NullTracer)
    }
}

impl<T: Tracer + 'static> ActiveCluster<T> {
    /// As [`ActiveCluster::new`], reporting spans, events and packets to
    /// `tracer` (primary = [`TRACK_PRIMARY`], backup = [`TRACK_BACKUP`]).
    pub fn new_traced(costs: CostModel, config: &EngineConfig, tracer: T) -> Self {
        let link = Rc::new(RefCell::new(Link::new(&costs)));
        let reverse = Rc::new(RefCell::new(Link::new(&costs)));
        Self::with_links_traced(costs, config, link, reverse, tracer)
    }

    /// The traced twin of [`ActiveCluster::with_links`].
    pub fn with_links_traced(
        costs: CostModel,
        config: &EngineConfig,
        link: Rc<RefCell<Link>>,
        reverse_link: Rc<RefCell<Link>>,
        tracer: T,
    ) -> Self {
        let arena = Rc::new(RefCell::new(Arena::new(ImprovedLogEngine::arena_len(
            config,
        ))));
        let mut machine = Machine::standalone_traced(
            costs.clone(),
            Rc::clone(&arena),
            tracer.clone(),
            TRACK_PRIMARY,
        );
        let inner = ImprovedLogEngine::format(&mut machine, config);
        let layout = Layout::read(&arena.borrow()).expect("just formatted");
        let ring = layout.expect_region(RegionId::RedoRing);
        let db = layout.expect_region(RegionId::Database);

        // Initial synchronization.
        let backup_arena = Rc::new(RefCell::new(arena.borrow().clone()));

        // Primary -> backup port: ring + producer cursor only.
        let port = TxPort::new_traced(
            &costs,
            Rc::clone(&link),
            Rc::clone(&backup_arena),
            tracer.clone(),
            TRACK_PRIMARY,
        );
        machine.attach_port(port);
        machine.replicate(ring);
        machine.replicate(RedoWriter::producer_root());

        // Backup -> primary port: consumer cursor only. Its packets land
        // in the primary's arena, so apply records belong to that track.
        let mut reverse = TxPort::new_traced(
            &costs,
            reverse_link,
            Rc::clone(&arena),
            tracer.clone(),
            TRACK_BACKUP,
        );
        reverse.set_peer_track(TRACK_PRIMARY);
        let mut backup_machine = Machine::with_port_traced(
            costs.clone(),
            Rc::clone(&backup_arena),
            reverse,
            tracer,
            TRACK_BACKUP,
        );
        backup_machine.replicate(RedoWriter::consumer_root());
        let backup = Rc::new(RefCell::new(BackupNode {
            machine: backup_machine,
            reader: RedoReader::new(ring, db),
        }));

        let engine = ActivePrimaryEngine {
            inner,
            writer: RedoWriter::new(ring, db),
            ring,
            backup: Rc::clone(&backup),
        };
        ActiveCluster {
            machine,
            engine,
            backup,
            backup_arena,
            link,
        }
    }

    /// The database region transactions operate on.
    pub fn db_region(&self) -> Region {
        self.engine.db_region()
    }

    /// The primary machine.
    pub fn machine(&self) -> &Machine<T> {
        &self.machine
    }

    /// Mutable access to the primary machine (initial load pokes).
    pub fn machine_mut(&mut self) -> &mut Machine<T> {
        &mut self.machine
    }

    /// The backup arena (for oracles and assertions).
    pub fn backup_arena(&self) -> &Rc<RefCell<Arena>> {
        &self.backup_arena
    }

    /// After the initial load, re-synchronizes the backup arena.
    pub fn resync_backup(&mut self) {
        *self.backup_arena.borrow_mut() = self.machine.arena().borrow().clone();
    }

    /// Selects 1-safe (default) or 2-safe commits.
    pub fn set_durability(&mut self, durability: dsnrep_core::Durability) {
        self.machine.set_durability(durability);
    }

    /// Runs one transaction of `workload` on the primary.
    ///
    /// # Panics
    ///
    /// Panics on engine errors (sizing bugs), a halt included; the fault
    /// executor calls [`ActiveCluster::try_run_txn`].
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
        workload.run_txn(&mut TxCtx::new(&mut self.machine, &mut self.engine))
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

    /// Delivers everything in flight and lets the backup apply all of it
    /// (graceful end-of-run).
    ///
    /// # Panics
    ///
    /// Panics if an armed fault budget halts either node.
    pub fn settle(&mut self) {
        self.machine.quiesce().expect(UNARMED);
        let visible = self
            .machine
            .port_mut()
            .map(|p| p.last_delivered())
            .unwrap_or(VirtualInstant::EPOCH);
        let mut backup = self.backup.borrow_mut();
        backup.catch_up(visible).expect(UNARMED);
        let consumer_at = backup.consumer_visible_at();
        backup.deliver_up_to(consumer_at);
    }

    /// Committed transactions the backup has fully applied.
    pub fn backup_applied_seq(&self) -> u64 {
        self.backup.borrow().applied_seq()
    }

    /// Execution counters of the backup machine (clock, stall attribution,
    /// cache) — the backup-side half of the stall breakdown.
    pub fn backup_stats(&self) -> dsnrep_core::MachineStats {
        self.backup.borrow().machine.stats()
    }

    /// Reads from the **backup's** database copy: a consistent snapshot at
    /// [`ActiveCluster::backup_applied_seq`] transaction boundaries. This is
    /// the "use the backup to execute transactions itself" direction the
    /// paper's introduction sketches — here limited to stale reads, which
    /// need no concurrency control.
    pub fn backup_read(&self, base: dsnrep_simcore::Addr, buf: &mut [u8]) {
        self.backup_arena.borrow().read_into(base, buf);
    }

    /// Traffic on the SAN so far (redo records + cursor write-backs).
    pub fn traffic(&self) -> Traffic {
        self.link.borrow().traffic().clone()
    }

    /// Crashes the primary *now* and fails over to the backup: the backup
    /// applies whatever complete publications were delivered before the
    /// crash, stamps its sequence roots, and comes up as a standalone
    /// Version 3 engine.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if the backup arena is unreadable (cannot
    /// happen in a correctly wired cluster).
    pub fn crash_primary(self) -> Result<Failover<T>, LayoutError> {
        self.begin_takeover().recover()
    }

    /// Crashes the primary and hands back the promoted-but-unrecovered
    /// backup as an [`ActiveTakeover`]. Fault campaigns use the split to
    /// arm mid-recovery faults before calling [`ActiveTakeover::recover`];
    /// [`ActiveCluster::crash_primary`] is the one-shot composition.
    pub fn begin_takeover(mut self) -> ActiveTakeover<T> {
        self.machine.trace_event(TraceEventKind::PrimaryCrash, 0);
        let crash_at = self.machine.crash();
        // Drop the engine first so its Rc handle to the backup goes away.
        drop(self.engine);
        let backup = Rc::try_unwrap(self.backup)
            .expect("the engine held the only other handle and was just dropped")
            .into_inner();
        let BackupNode {
            mut machine,
            reader,
        } = backup;
        machine.stall_until(StallCause::Other, crash_at);
        ActiveTakeover { machine, reader }
    }
}

/// A promoted active backup that has not yet run its takeover procedure:
/// the redo ring has not been drained, the sequence roots are unstamped.
///
/// Mirrors [`Takeover`](crate::Takeover) for the active scheme: a fault
/// campaign arms a write budget on the backup's arena
/// ([`ActiveTakeover::arena`]), takes the halt
/// [`ActiveTakeover::try_recover`] returns, and re-enters over the
/// surviving arena via [`ActiveTakeover::resume`]. The procedure is
/// idempotent: redo records are absolute writes, so a fresh poll
/// re-applies them byte-identically, and the sequence root is kept
/// monotone.
#[derive(Debug)]
pub struct ActiveTakeover<T: Tracer + 'static = NullTracer> {
    machine: Machine<T>,
    reader: RedoReader,
}

impl<T: Tracer + 'static> ActiveTakeover<T> {
    /// Rebuilds a takeover over a surviving backup arena after a
    /// mid-recovery halt: a fresh (cold-cache, portless) machine at
    /// virtual time `at` and a fresh reader over the same ring.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if the arena does not carry a formatted
    /// layout.
    pub fn resume(
        costs: CostModel,
        arena: Rc<RefCell<Arena>>,
        tracer: T,
        at: VirtualInstant,
    ) -> Result<Self, LayoutError> {
        let layout = Layout::read(&arena.borrow())?;
        let ring = layout.expect_region(RegionId::RedoRing);
        let db = layout.expect_region(RegionId::Database);
        let mut machine = Machine::standalone_traced(costs, arena, tracer, TRACK_BACKUP);
        machine.stall_until(StallCause::Other, at);
        Ok(ActiveTakeover {
            machine,
            reader: RedoReader::new(ring, db),
        })
    }

    /// The promoted backup's arena handle (hold a clone across
    /// [`ActiveTakeover::try_recover`] to survive an injected halt).
    pub fn arena(&self) -> Rc<RefCell<Arena>> {
        Rc::clone(self.machine.arena())
    }

    /// The promoted backup's current virtual time.
    pub fn now(&self) -> VirtualInstant {
        self.machine.now()
    }

    /// Drains the redo ring, stamps the sequence roots, and brings the
    /// backup up as a standalone Version 3 engine.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if the backup arena is unreadable (cannot
    /// happen in a correctly wired cluster).
    ///
    /// # Panics
    ///
    /// Panics if an armed write budget halts recovery; the fault executor
    /// calls [`ActiveTakeover::try_recover`].
    pub fn recover(self) -> Result<Failover<T>, LayoutError> {
        self.try_recover().expect(UNARMED)
    }

    /// Drains the redo ring, stamps the sequence roots, and brings the
    /// backup up as a standalone Version 3 engine. The inner result is
    /// [`ActiveTakeover::recover`]'s.
    ///
    /// # Errors
    ///
    /// [`Halted`] when an armed write budget on the backup's arena halts
    /// recovery; the caller may [`ActiveTakeover::resume`] over the arena.
    pub fn try_recover(mut self) -> Result<Result<Failover<T>, LayoutError>, Halted> {
        // Apply everything that was delivered before the crash.
        let drain_start = self.machine.now();
        self.reader.poll(&mut self.machine)?;
        self.machine.trace_phase(Phase::Apply, drain_start);
        let applied = self.reader.applied_seq();
        // Stamp the recovered sequence into the arena roots so the engine
        // reports the right committed count. The sequence root is monotone:
        // a takeover re-entered after a mid-recovery halt may find the
        // roots already stamped and the ring already reset — a fresh poll
        // then applies nothing, so keep the larger count.
        let applied = {
            let mut arena = self.machine.arena().borrow_mut();
            let stamped = arena.read_u64(Layout::root_addr(RootSlot::LogPtr)) >> 32;
            let applied = applied.max(stamped);
            arena.try_write_u64(Layout::root_addr(RootSlot::LogPtr), applied << 32)?;
            arena.try_write_u64(Layout::root_addr(RootSlot::RingProducer), 0)?;
            arena.try_write_u64(Layout::root_addr(RootSlot::RingConsumer), 0)?;
            applied
        };
        let mut machine = self.machine;
        machine.crash(); // cold cache; drop the reverse port's in-flight
        machine.clear_replication();
        let start = machine.now();
        machine.trace_event(TraceEventKind::RecoveryStart, applied);
        let mut engine = match ImprovedLogEngine::attach(&mut machine) {
            Ok(engine) => engine,
            Err(e) => return Ok(Err(e)),
        };
        let report = engine.recover(&mut machine)?;
        let recovery_time = machine.now().duration_since(start);
        machine.trace_event(TraceEventKind::FailoverComplete, report.committed_seq);
        Ok(Ok(Failover {
            machine,
            engine: Box::new(engine),
            report,
            recovery_time,
        }))
    }
}

//! Active shipping (paper §6): the redo ring and the backup CPU that
//! applies it.
//!
//! The primary runs the best local scheme (Version 3) for its own
//! recoverability, but writes **nothing** of it through. Instead, commit
//! ships a redo log — only the actually modified bytes plus per-record
//! headers — into a circular buffer mapped on the backup; the backup CPU
//! busy-polls the ring, applies the records to its database copy, and
//! writes its consumer cursor back through a reverse mapping. If the ring
//! fills, the primary blocks until the backup catches up (flow control).
//! A [`ReplicaSet`](crate::ReplicaSet) built for
//! [`Scheme::Active`](crate::Scheme::Active) runs its head on an
//! [`ActivePrimaryEngine`] and node 1 on a [`BackupNode`].
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
    Applied, Durability, Engine, ImprovedLogEngine, Machine, RecoveryReport, RedoReader,
    RedoWriter, TxError, VersionTag,
};
use dsnrep_mcsim::{Link, TxPort};
use dsnrep_obs::{Phase, Tracer, TRACK_BACKUP, TRACK_PRIMARY};
use dsnrep_rio::{Arena, Layout, RegionId};
use dsnrep_simcore::{Addr, CostModel, Halted, Region, StallCause, VirtualInstant};

/// The backup node: a polling CPU applying the redo ring.
#[derive(Debug)]
pub(crate) struct BackupNode<T: Tracer> {
    pub(crate) machine: Machine<T>,
    pub(crate) reader: RedoReader,
}

impl<T: Tracer> BackupNode<T> {
    /// Runs the backup CPU forward to everything `head`'s port has
    /// delivered: applies it and pushes the consumer cursor back. Returns
    /// what was applied and when the cursor write-back reaches the head.
    pub(crate) fn sync(
        &mut self,
        head: &mut Machine<T>,
    ) -> Result<(Applied, VirtualInstant), Halted> {
        let visible = head
            .port_mut()
            .map_or(VirtualInstant::EPOCH, |p| p.last_delivered());
        // Everything flushed so far is deliverable to the backup.
        if let Some(p) = head.port_mut() {
            p.deliver_up_to(visible);
        }
        // The busy-wait loop cannot observe a record before it arrives:
        // that wait is data-visibility stall time on the backup.
        self.machine
            .stall_until(StallCause::DataVisibility, visible);
        let start = self.machine.now();
        let applied = self.reader.poll(&mut self.machine)?;
        if applied.txns > 0 {
            self.machine.trace_phase(Phase::Apply, start);
        }
        let consumer_at = self
            .machine
            .port_mut()
            .map_or(VirtualInstant::EPOCH, |p| p.last_delivered());
        if let Some(p) = self.machine.port_mut() {
            p.deliver_up_to(consumer_at);
        }
        Ok((applied, consumer_at))
    }
}

/// The primary-side engine for the active scheme: Version 3 locally, plus
/// redo shipping and ring flow control at commit.
#[derive(Debug)]
pub(crate) struct ActivePrimaryEngine<T: Tracer> {
    inner: ImprovedLogEngine,
    writer: RedoWriter,
    ring: Region,
    backup: Rc<RefCell<BackupNode<T>>>,
}

impl<T: Tracer> ActivePrimaryEngine<T> {
    /// Wires a freshly formatted Version 3 head for active shipping: the
    /// redo writer over the head's ring, and node 1's CPU over `backup`
    /// (an identical copy of `primary`) with its reverse port back to the
    /// head on `reverse_link`.
    pub(crate) fn wire(
        inner: ImprovedLogEngine,
        costs: &CostModel,
        primary: &Rc<RefCell<Arena>>,
        backup: &Rc<RefCell<Arena>>,
        reverse_link: Rc<RefCell<Link>>,
        tracer: T,
    ) -> (Self, Rc<RefCell<BackupNode<T>>>) {
        let layout = Layout::read(&primary.borrow()).expect("just formatted");
        let ring = layout.expect_region(RegionId::RedoRing);
        let db = layout.expect_region(RegionId::Database);
        // Backup -> primary port: consumer cursor only. Its packets land
        // in the primary's arena, so apply records belong to that track.
        let mut reverse = TxPort::new_traced(
            costs,
            reverse_link,
            Rc::clone(primary),
            tracer.clone(),
            TRACK_BACKUP,
        );
        reverse.set_peer_track(TRACK_PRIMARY);
        let mut machine = Machine::with_port_traced(
            costs.clone(),
            Rc::clone(backup),
            reverse,
            tracer,
            TRACK_BACKUP,
        );
        machine.replicate(RedoWriter::consumer_root());
        let node = Rc::new(RefCell::new(BackupNode {
            machine,
            reader: RedoReader::new(ring, db),
        }));
        let engine = ActivePrimaryEngine {
            inner,
            writer: RedoWriter::new(ring, db),
            ring,
            backup: Rc::clone(&node),
        };
        (engine, node)
    }
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
        vec![self.ring, RedoWriter::producer_root()]
    }

    fn begin(&mut self, m: &mut Machine<T>) -> Result<(), TxError> {
        self.inner.begin(m)
    }

    fn set_range(&mut self, m: &mut Machine<T>, base: Addr, len: u64) -> Result<(), TxError> {
        self.inner.set_range(m, base, len)
    }

    fn write(&mut self, m: &mut Machine<T>, base: Addr, bytes: &[u8]) -> Result<(), TxError> {
        self.inner.write(m, base, bytes)?;
        self.writer.record_write(base, bytes);
        Ok(())
    }

    fn read(&mut self, m: &mut Machine<T>, base: Addr, buf: &mut [u8]) {
        self.inner.read(m, base, buf);
    }

    fn commit(&mut self, m: &mut Machine<T>) -> Result<(), TxError> {
        // Flow control: block until the ring has room.
        let needed = self.writer.bytes_needed();
        let mut stalls = 0u32;
        while self.writer.free_space(m) < needed {
            let (applied, consumer_at) = self.backup.borrow_mut().sync(m)?;
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
        if m.durability() == Durability::TwoSafe {
            m.wait_delivered()?;
        }
        // The backup CPU polls continuously; run it forward to the
        // publication it can now see.
        self.backup.borrow_mut().sync(m)?;
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

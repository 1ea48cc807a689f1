//! Version 0: the unmodified Vista library.
//!
//! `set_range` allocates an undo record *and* a data area from a heap that
//! lives in recoverable memory, copies the current contents into the data
//! area, and links the record into a list; commit sets the flag (the
//! transaction sequence word) and frees everything. All of that allocator
//! and list manipulation is metadata written to recoverable memory — which
//! is why the straightforward primary-backup port of this version ships
//! 6.7 GB of metadata for 140 MB of modified data (paper Table 2).
//!
//! ## Commit atomicity
//!
//! Undo records carry the sequence number of the transaction that created
//! them; the single 8-byte store of the new sequence number is the commit
//! flag. Recovery rolls back exactly the records whose sequence exceeds the
//! committed sequence, so a crash anywhere — mid-transaction, mid-commit,
//! mid-free — recovers to a transaction boundary. A write-buffer barrier
//! before each publish point extends the same guarantee to the backup's
//! copy (modulo the 1-safe loss window).

use dsnrep_obs::{Phase, Tracer};
use dsnrep_rio::{
    Arena, FreeListHeap, Layout, LayoutBuilder, LayoutError, RawMem, RegionId, RootSlot,
};
use dsnrep_simcore::{Addr, Halted, Region, TrafficClass, VirtualDuration};

use crate::config::EngineConfig;
use crate::engine::{Engine, RecoveryReport, VersionTag};
use crate::error::TxError;
use crate::machine::Machine;
use crate::ranges::TxRanges;

/// Undo record layout: {next, seq, base, len, data_ptr}, 40 bytes.
const REC_NEXT: u64 = 0;
const REC_SEQ: u64 = 8;
const REC_BASE: u64 = 16;
const REC_LEN: u64 = 24;
const REC_DATA: u64 = 32;
const REC_SIZE: u64 = 40;

/// The Version 0 engine (see the module docs).
///
/// # Examples
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use dsnrep_core::{Engine, EngineConfig, Machine, VistaEngine};
/// use dsnrep_rio::Arena;
/// use dsnrep_simcore::{Addr, CostModel};
///
/// let config = EngineConfig::for_db(1 << 16);
/// let arena = Rc::new(RefCell::new(Arena::new(VistaEngine::arena_len(&config))));
/// let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
/// let mut engine = VistaEngine::format(&mut m, &config);
///
/// let db = engine.db_region().start();
/// engine.begin(&mut m)?;
/// engine.set_range(&mut m, db, 8)?;
/// engine.write(&mut m, db, &42u64.to_le_bytes())?;
/// engine.commit(&mut m)?;
/// assert_eq!(engine.committed_seq(&mut m), 1);
/// # Ok::<(), dsnrep_core::TxError>(())
/// ```
#[derive(Debug)]
pub struct VistaEngine {
    db: Region,
    header: Region,
    heap_region: Region,
    heap: FreeListHeap,
    ranges: TxRanges,
    /// Reused buffer for the undo bcopy of `set_range` and `abort`.
    scratch: Vec<u8>,
}

impl VistaEngine {
    /// The arena layout this engine formats.
    pub fn layout(config: &EngineConfig) -> Layout {
        LayoutBuilder::new()
            .region(RegionId::Heap, config.undo_capacity)
            .region(RegionId::Database, config.db_len)
            .build()
    }

    /// Arena bytes needed for `config`.
    pub fn arena_len(config: &EngineConfig) -> u64 {
        Self::layout(config).arena_len()
    }

    /// Formats the machine's arena for this engine (setup path, unaccounted).
    ///
    /// # Panics
    ///
    /// Panics if the arena is smaller than [`VistaEngine::arena_len`].
    pub fn format<T: Tracer>(m: &mut Machine<T>, config: &EngineConfig) -> Self {
        let layout = Self::layout(config);
        let mut arena = m.arena().borrow_mut();
        layout.format(&mut arena);
        let heap_region = layout.expect_region(RegionId::Heap);
        let heap = {
            let mut raw = RawMem::new(&mut arena);
            FreeListHeap::format(&mut raw, heap_region)
                .expect("a freshly formatted arena has no write budget armed")
        };
        VistaEngine {
            db: layout.expect_region(RegionId::Database),
            header: layout.expect_region(RegionId::Header),
            heap_region,
            heap,
            ranges: TxRanges::default(),
            scratch: Vec::new(),
        }
    }

    /// Re-attaches to a formatted arena (after a crash or on the backup).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if the arena was not formatted by
    /// [`VistaEngine::format`].
    pub fn attach<T: Tracer>(m: &mut Machine<T>) -> Result<Self, LayoutError> {
        let arena = m.arena().borrow();
        let layout = Layout::read(&arena)?;
        drop(arena);
        let heap_region = layout.expect_region(RegionId::Heap);
        Ok(VistaEngine {
            db: layout.expect_region(RegionId::Database),
            header: layout.expect_region(RegionId::Header),
            heap_region,
            heap: FreeListHeap::attach(heap_region),
            ranges: TxRanges::default(),
            scratch: Vec::new(),
        })
    }

    /// The database region transactions operate on.
    pub fn db_region(&self) -> Region {
        self.db
    }

    /// The regions a passive backup maps write-through: everything — the
    /// straightforward transparent port of the paper's Section 3.
    pub fn replicated_regions(&self) -> Vec<Region> {
        vec![self.header, self.heap_region, self.db]
    }

    fn seq_addr(&self) -> Addr {
        Layout::root_addr(RootSlot::TxnSeq)
    }

    fn head_addr(&self) -> Addr {
        Layout::root_addr(RootSlot::UndoHead)
    }

    fn restore_walk(
        arena: &mut Arena,
        head_addr: Addr,
        seq_addr: Addr,
        db: Region,
        heap: Region,
    ) -> Result<(u64, u64), Halted> {
        let committed = arena.read_u64(seq_addr);
        let mut restored = 0u64;
        let mut undone = 0u64;
        let mut node = arena.read_u64(head_addr);
        while node != 0 {
            let rec = Addr::new(node);
            if !heap.contains_range(rec, REC_SIZE) {
                break; // torn pointer: stop at the first invalid record
            }
            let seq = arena.read_u64(rec + REC_SEQ);
            let base = Addr::new(arena.read_u64(rec + REC_BASE));
            let len = arena.read_u64(rec + REC_LEN);
            let data = Addr::new(arena.read_u64(rec + REC_DATA));
            if seq > committed && db.contains_range(base, len) && heap.contains_range(data, len) {
                let bytes = arena.read_vec(data, len as usize);
                arena.try_write(base, &bytes)?;
                restored += len;
                undone = 1;
            }
            node = arena.read_u64(rec + REC_NEXT);
        }
        Ok((restored, undone))
    }
}

impl<T: Tracer> Engine<T> for VistaEngine {
    fn version(&self) -> VersionTag {
        VersionTag::Vista
    }

    fn db_region(&self) -> Region {
        self.db
    }

    fn replicated_regions(&self) -> Vec<Region> {
        Self::replicated_regions(self)
    }

    fn begin(&mut self, m: &mut Machine<T>) -> Result<(), TxError> {
        self.ranges.begin()?;
        m.trace_tx_begin();
        let t0 = m.now();
        m.charge(m.costs().txn_begin);
        m.trace_phase(Phase::Begin, t0);
        Ok(())
    }

    fn set_range(&mut self, m: &mut Machine<T>, base: Addr, len: u64) -> Result<(), TxError> {
        self.ranges.add(self.db, base, len)?;
        let t0 = m.now();
        m.charge(m.costs().set_range);
        // Allocate the record and the data area from the recoverable heap.
        // A halt passes straight through: the free-on-failure cleanup is
        // for an exhausted heap, never for a halted node.
        m.charge(m.costs().heap_alloc * 2);
        let alloc_result = {
            let mut mem = m.meta_mem();
            match self.heap.alloc(&mut mem, REC_SIZE)? {
                Err(e) => Err(e),
                Ok(node) => match self.heap.alloc(&mut mem, len.max(8))? {
                    Ok(area) => Ok((node, area)),
                    Err(e) => {
                        self.heap.free(&mut mem, node)?;
                        Err(e)
                    }
                },
            }
        };
        let (node, area) = match alloc_result {
            Ok(pair) => pair,
            Err(e) => {
                self.ranges.pop_last();
                return Err(e.into());
            }
        };
        // bcopy the current contents into the data area.
        self.scratch.resize(len as usize, 0);
        m.read(base, &mut self.scratch);
        m.charge(VirtualDuration::from_picos(
            m.costs().copy_per_byte.as_picos() * len,
        ));
        m.write(area, &self.scratch, TrafficClass::Undo)?;
        // Fill in the record, then publish it with a single head store.
        let seq = m.read_u64(self.seq_addr());
        let old_head = m.read_u64(self.head_addr());
        m.write_u64(node + REC_SEQ, seq + 1, TrafficClass::Meta)?;
        m.write_u64(node + REC_BASE, base.as_u64(), TrafficClass::Meta)?;
        m.write_u64(node + REC_LEN, len, TrafficClass::Meta)?;
        m.write_u64(node + REC_DATA, area.as_u64(), TrafficClass::Meta)?;
        m.write_u64(node + REC_NEXT, old_head, TrafficClass::Meta)?;
        m.write_u64(self.head_addr(), node.as_u64(), TrafficClass::Meta)?;
        m.trace_phase(Phase::UndoWrite, t0);
        Ok(())
    }

    fn write(&mut self, m: &mut Machine<T>, base: Addr, bytes: &[u8]) -> Result<(), TxError> {
        self.ranges.check_covered(base, bytes.len() as u64)?;
        let t0 = m.now();
        m.charge(m.costs().write_call);
        m.write(base, bytes, TrafficClass::Modified)?;
        m.trace_phase(Phase::DbWrite, t0);
        Ok(())
    }

    fn read(&mut self, m: &mut Machine<T>, base: Addr, buf: &mut [u8]) {
        m.read(base, buf);
    }

    fn commit(&mut self, m: &mut Machine<T>) -> Result<(), TxError> {
        self.ranges.require_active()?;
        let t0 = m.now();
        m.charge(m.costs().txn_commit);
        let seq = m.read_u64(self.seq_addr());
        m.barrier()?; // everything the transaction wrote precedes the flag
        m.write_u64(self.seq_addr(), seq + 1, TrafficClass::Meta)?; // commit
        let mut node = m.read_u64(self.head_addr());
        m.write_u64(self.head_addr(), 0, TrafficClass::Meta)?;
        // The flag and head-clear go out before the frees can recycle the
        // records they describe.
        m.barrier()?;
        if m.durability() == crate::Durability::TwoSafe {
            m.wait_delivered()?;
        }
        // Unlink and free the whole undo list.
        while node != 0 {
            let rec = Addr::new(node);
            let next = m.read_u64(rec + REC_NEXT);
            let data = Addr::new(m.read_u64(rec + REC_DATA));
            m.charge(m.costs().heap_free * 2);
            let mut mem = m.meta_mem();
            self.heap.free(&mut mem, data)?;
            self.heap.free(&mut mem, rec)?;
            node = next;
        }
        self.ranges.end();
        m.trace_phase(Phase::Commit, t0);
        m.trace_tx_end();
        Ok(())
    }

    fn abort(&mut self, m: &mut Machine<T>) -> Result<(), TxError> {
        self.ranges.require_active()?;
        let t0 = m.now();
        m.charge(m.costs().txn_abort);
        // Walk the list, restoring newest-first so that the oldest copy of
        // overlapping ranges wins, then free everything.
        let mut node = m.read_u64(self.head_addr());
        m.write_u64(self.head_addr(), 0, TrafficClass::Meta)?;
        while node != 0 {
            let rec = Addr::new(node);
            let next = m.read_u64(rec + REC_NEXT);
            let base = Addr::new(m.read_u64(rec + REC_BASE));
            let len = m.read_u64(rec + REC_LEN);
            let data = Addr::new(m.read_u64(rec + REC_DATA));
            self.scratch.resize(len as usize, 0);
            m.read(data, &mut self.scratch);
            m.charge(VirtualDuration::from_picos(
                m.costs().copy_per_byte.as_picos() * len,
            ));
            m.write(base, &self.scratch, TrafficClass::Modified)?;
            m.charge(m.costs().heap_free * 2);
            let mut mem = m.meta_mem();
            self.heap.free(&mut mem, data)?;
            self.heap.free(&mut mem, rec)?;
            node = next;
        }
        self.ranges.end();
        m.trace_phase(Phase::Abort, t0);
        m.trace_tx_end();
        Ok(())
    }

    fn recover(&mut self, m: &mut Machine<T>) -> Result<RecoveryReport, Halted> {
        // Recovery is the failure path: it runs against the raw arena,
        // unaccounted.
        let t0 = m.now();
        let mut arena = m.arena().borrow_mut();
        let (restored, undone) = Self::restore_walk(
            &mut arena,
            self.head_addr(),
            self.seq_addr(),
            self.db,
            self.heap_region,
        )?;
        arena.try_write_u64(self.head_addr(), 0)?;
        // The heap may hold unreachable (leaked or torn) blocks; after the
        // undo list is gone nothing in it is live, so reformat it.
        {
            let mut raw = RawMem::new(&mut arena);
            self.heap = FreeListHeap::format(&mut raw, self.heap_region)?;
        }
        let committed_seq = arena.read_u64(self.seq_addr());
        drop(arena);
        self.ranges = TxRanges::default();
        m.trace_phase(Phase::Recovery, t0);
        Ok(RecoveryReport {
            rolled_back: undone != 0,
            rolled_forward: false,
            bytes_restored: restored,
            committed_seq,
        })
    }

    fn committed_seq(&self, m: &mut Machine<T>) -> u64 {
        m.arena()
            .borrow()
            .read_u64(Layout::root_addr(RootSlot::TxnSeq))
    }
}

//! Version 3: the improved, locality-optimized undo log.
//!
//! Instead of heap-allocated records pointing at separately allocated data
//! areas, the undo log is one contiguous region: `set_range` appends a
//! record `{header, data...}` by advancing a pointer, commit retracts the
//! pointer. Accesses are strictly localized to the database and this compact
//! log — the paper's Table 3 shows that locality alone buys 70% standalone
//! throughput over Vista, and Table 4 shows the sequential log writes
//! coalescing into full-size SAN packets buy a further 2x primary-backup
//! advantage over mirroring *despite shipping more bytes*.
//!
//! ## Log format and commit atomicity
//!
//! Records are self-validating: every header carries the sequence number of
//! the transaction that wrote it and its index within that transaction.
//! The only other persistent word is the root `{seq, 0}`, stored once at
//! commit — one atomic 8-byte store is the commit flag, exactly as the
//! paper describes ("the undo log records are de-allocated by moving the
//! log pointer back").
//!
//! Recovery *scans* the log from its base: records belong to the
//! interrupted transaction iff their sequence is `committed + 1` and their
//! indices count up from zero; the first mismatch ends the chain (and abort
//! explicitly invalidates its records' headers so they can never rechain).
//!
//! Because nothing is published per range, the log is one pure sequential
//! store stream: on the SAN it coalesces into full 32-byte packets, which
//! is the entire performance story of the paper's §5.

use dsnrep_obs::{Phase, Tracer};
use dsnrep_rio::{Layout, LayoutBuilder, LayoutError, RegionId, RootSlot};
use dsnrep_simcore::{Addr, Halted, Region, TrafficClass, VirtualDuration};

use crate::config::EngineConfig;
use crate::engine::{Engine, RecoveryReport, VersionTag};
use crate::error::TxError;
use crate::machine::Machine;
use crate::ranges::TxRanges;

/// Record header: {base_off: u32, len: u16, seq_low: u8, index: u8}
/// followed by `len` data bytes, padded to 8 bytes. Ranges longer than
/// 64 KB are split into multiple records transparently.
const HDR: u64 = 8;
const MAX_CHUNK: u64 = u16::MAX as u64 & !7; // 65528, 8-byte aligned

fn rec_size(len: u64) -> u64 {
    HDR + len.div_ceil(8) * 8
}

fn pack_seq(seq: u64) -> u64 {
    seq << 32
}

fn unpack_seq(word: u64) -> u64 {
    word >> 32
}

/// The Version 3 engine (see the module docs).
///
/// # Examples
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use dsnrep_core::{Engine, EngineConfig, ImprovedLogEngine, Machine};
/// use dsnrep_rio::Arena;
/// use dsnrep_simcore::CostModel;
///
/// let config = EngineConfig::for_db(1 << 16);
/// let arena = Rc::new(RefCell::new(Arena::new(ImprovedLogEngine::arena_len(&config))));
/// let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
/// let mut engine = ImprovedLogEngine::format(&mut m, &config);
///
/// let db = engine.db_region().start();
/// engine.begin(&mut m)?;
/// engine.set_range(&mut m, db, 32)?;
/// engine.write(&mut m, db, &[7u8; 32])?;
/// engine.abort(&mut m)?; // restored from the inline log
/// let mut buf = [1u8; 32];
/// engine.read(&mut m, db, &mut buf);
/// assert_eq!(buf, [0u8; 32]);
/// # Ok::<(), dsnrep_core::TxError>(())
/// ```
#[derive(Debug)]
pub struct ImprovedLogEngine {
    db: Region,
    log: Region,
    header: Region,
    tail: u64,
    ranges: TxRanges,
    /// Volatile offsets of the current transaction's records (abort path).
    rec_offsets: Vec<u64>,
    /// Reused staging buffer for record data (`set_range` copies the old
    /// bytes through it on every declared range — allocating here would put
    /// a malloc/free pair on the per-transaction hot path).
    scratch: Vec<u8>,
}

impl ImprovedLogEngine {
    /// The arena layout this engine formats. A redo-ring region is always
    /// included so the same layout serves both passive and active
    /// primary-backup configurations (it is simply unused when passive).
    pub fn layout(config: &EngineConfig) -> Layout {
        LayoutBuilder::new()
            .region(RegionId::UndoLog, config.undo_capacity)
            .region(RegionId::RedoRing, config.ring_capacity)
            .region(RegionId::Database, config.db_len)
            .build()
    }

    /// Arena bytes needed for `config`.
    pub fn arena_len(config: &EngineConfig) -> u64 {
        Self::layout(config).arena_len()
    }

    /// Formats the machine's arena for this engine (setup path,
    /// unaccounted).
    pub fn format<T: Tracer>(m: &mut Machine<T>, config: &EngineConfig) -> Self {
        let layout = Self::layout(config);
        layout.format(&mut m.arena().borrow_mut());
        Self::from_layout(&layout)
    }

    /// Re-attaches to a formatted arena (after a crash or on the backup).
    /// Call [`Engine::recover`] before starting transactions.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if the arena was not formatted by
    /// [`ImprovedLogEngine::format`].
    pub fn attach<T: Tracer>(m: &mut Machine<T>) -> Result<Self, LayoutError> {
        let layout = Layout::read(&m.arena().borrow())?;
        Ok(Self::from_layout(&layout))
    }

    fn from_layout(layout: &Layout) -> Self {
        ImprovedLogEngine {
            db: layout.expect_region(RegionId::Database),
            log: layout.expect_region(RegionId::UndoLog),
            header: layout.expect_region(RegionId::Header),
            tail: 0,
            ranges: TxRanges::default(),
            rec_offsets: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Reads `len` bytes at `addr` (accounted) into the reused scratch
    /// buffer, growing it on first use.
    fn read_scratch<T: Tracer>(scratch: &mut Vec<u8>, m: &mut Machine<T>, addr: Addr, len: usize) {
        if scratch.len() < len {
            scratch.resize(len, 0);
        }
        m.read(addr, &mut scratch[..len]);
    }

    /// The database region transactions operate on.
    pub fn db_region(&self) -> Region {
        self.db
    }

    /// The regions a passive backup maps write-through: header, undo log
    /// and database.
    pub fn replicated_regions(&self) -> Vec<Region> {
        vec![self.header, self.log, self.db]
    }

    fn state_addr(&self) -> Addr {
        Layout::root_addr(RootSlot::LogPtr)
    }

    /// Scans the log for the record chain of transaction `committed + 1`:
    /// the low sequence byte must match and indices must count up from
    /// zero (wrapping at 256). Returns `(db_addr, len, data_addr)` triples
    /// in log order.
    fn scan_records<T: Tracer>(&self, m: &Machine<T>, committed: u64) -> Vec<(Addr, u64, Addr)> {
        let arena = m.arena().borrow();
        let expect_seq = (committed + 1) as u8;
        let mut out = Vec::new();
        let mut off = 0u64;
        let mut index = 0u8;
        while off + HDR <= self.log.len() {
            let at = self.log.start() + off;
            let word = arena.read_u64(at);
            let base_off = word & 0xFFFF_FFFF;
            let len = (word >> 32) & 0xFFFF;
            let seq = ((word >> 48) & 0xFF) as u8;
            let idx = ((word >> 56) & 0xFF) as u8;
            if seq != expect_seq || idx != index || len == 0 {
                break;
            }
            let size = rec_size(len);
            if off + size > self.log.len() {
                break;
            }
            let base = self.db.start() + base_off;
            if !self.db.contains_range(base, len) {
                break;
            }
            out.push((base, len, at + HDR));
            off += size;
            index = index.wrapping_add(1);
        }
        out
    }

    fn header_word(&self, base: Addr, len: u64, seq: u64, index: usize) -> u64 {
        let base_off = base - self.db.start();
        debug_assert!(base_off <= u64::from(u32::MAX) && len <= 0xFFFF);
        base_off | (len << 32) | (((seq + 1) & 0xFF) << 48) | (((index & 0xFF) as u64) << 56)
    }
}

impl<T: Tracer> Engine<T> for ImprovedLogEngine {
    fn version(&self) -> VersionTag {
        VersionTag::ImprovedLog
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
        self.rec_offsets.clear();
        self.tail = 0;
        m.trace_phase(Phase::Begin, t0);
        Ok(())
    }

    fn set_range(&mut self, m: &mut Machine<T>, base: Addr, len: u64) -> Result<(), TxError> {
        self.ranges.add(self.db, base, len)?;
        let t0 = m.now();
        m.charge(m.costs().set_range);
        // Ranges longer than a header's 16-bit length field are split into
        // multiple records.
        let total: u64 = (0..len)
            .step_by(MAX_CHUNK as usize)
            .map(|o| rec_size((len - o).min(MAX_CHUNK)))
            .sum();
        if self.tail + total > self.log.len() {
            self.ranges.pop_last();
            return Err(TxError::UndoLogFull {
                needed: total,
                available: self.log.len() - self.tail,
            });
        }
        let seq = unpack_seq(m.read_u64(self.state_addr()));
        let mut chunk_base = base;
        let mut remaining = len;
        while remaining > 0 {
            let chunk = remaining.min(MAX_CHUNK);
            let rec = self.log.start() + self.tail;
            // In-line data first: the header is the publish point, so a
            // crash between the two leaves an unpublished (invisible)
            // record rather than a published record with stale data.
            Self::read_scratch(&mut self.scratch, m, chunk_base, chunk as usize);
            m.charge(VirtualDuration::from_picos(
                m.costs().copy_per_byte.as_picos() * chunk,
            ));
            m.write(
                rec + HDR,
                &self.scratch[..chunk as usize],
                TrafficClass::Undo,
            )?;
            let word = self.header_word(chunk_base, chunk, seq, self.rec_offsets.len());
            m.write(rec, &word.to_le_bytes(), TrafficClass::Meta)?;
            self.rec_offsets.push(self.tail);
            self.tail += rec_size(chunk);
            chunk_base = chunk_base + chunk;
            remaining -= chunk;
        }
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
        let seq = unpack_seq(m.read_u64(self.state_addr()));
        m.barrier()?; // transaction writes precede the commit word
                      // One atomic word: bump the sequence (and so invalidate the log).
        m.write_u64(self.state_addr(), pack_seq(seq + 1), TrafficClass::Meta)?;
        // Push the flag out before the next transaction's data can be
        // flushed ahead of it (write buffers are not FIFO across blocks).
        m.barrier()?;
        if m.durability() == crate::Durability::TwoSafe {
            m.wait_delivered()?;
        }
        self.tail = 0;
        self.rec_offsets.clear();
        self.ranges.end();
        m.trace_phase(Phase::Commit, t0);
        m.trace_tx_end();
        Ok(())
    }

    fn abort(&mut self, m: &mut Machine<T>) -> Result<(), TxError> {
        self.ranges.require_active()?;
        let t0 = m.now();
        m.charge(m.costs().txn_abort);
        // Restore newest-first.
        let recs: Vec<(u64, u64, u64)> = {
            let arena = m.arena().borrow();
            self.rec_offsets
                .iter()
                .map(|&off| {
                    let word = arena.read_u64(self.log.start() + off);
                    (off, word & 0xFFFF_FFFF, (word >> 32) & 0xFFFF)
                })
                .collect()
        };
        for &(off, base_off, len) in recs.iter().rev() {
            Self::read_scratch(
                &mut self.scratch,
                m,
                self.log.start() + off + HDR,
                len as usize,
            );
            m.charge(VirtualDuration::from_picos(
                m.costs().copy_per_byte.as_picos() * len,
            ));
            m.write(
                self.db.start() + base_off,
                &self.scratch[..len as usize],
                TrafficClass::Modified,
            )?;
        }
        // Invalidate the aborted records so the sequence (unchanged by an
        // abort) can never rechain them during a later recovery scan.
        for &(off, _, _) in &recs {
            m.write_u64(self.log.start() + off, 0, TrafficClass::Meta)?;
        }
        self.tail = 0;
        self.rec_offsets.clear();
        self.ranges.end();
        m.trace_phase(Phase::Abort, t0);
        m.trace_tx_end();
        Ok(())
    }

    fn recover(&mut self, m: &mut Machine<T>) -> Result<RecoveryReport, Halted> {
        let t0 = m.now();
        let committed = unpack_seq(m.arena().borrow().read_u64(self.state_addr()));
        let records = self.scan_records(m, committed);
        let mut report = RecoveryReport::default();
        {
            let mut arena = m.arena().borrow_mut();
            for &(base, len, data) in records.iter().rev() {
                let bytes = arena.read_vec(data, len as usize);
                arena.try_write(base, &bytes)?;
                report.bytes_restored += len;
            }
            // Invalidate the chain so recovery is idempotent.
            if !records.is_empty() {
                arena.try_write_u64(self.log.start(), 0)?;
            }
        }
        report.rolled_back = !records.is_empty();
        report.committed_seq = committed;
        self.tail = 0;
        self.rec_offsets.clear();
        self.ranges = TxRanges::default();
        m.trace_phase(Phase::Recovery, t0);
        Ok(report)
    }

    fn committed_seq(&self, m: &mut Machine<T>) -> u64 {
        unpack_seq(m.arena().borrow().read_u64(self.state_addr()))
    }
}

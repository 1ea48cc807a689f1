//! The redo ring used by the active-backup scheme (paper §6).
//!
//! With an active backup, the primary does **not** write its undo log or
//! mirror through; at commit it ships only the actually modified data, as
//! redo records, into a circular buffer that is write-through mapped onto
//! the backup. The backup CPU polls the ring, applies the records to its
//! copy of the database, and writes its consumer cursor back through a
//! reverse mapping (flow control).
//!
//! Cursors are monotone byte counters; `counter & (capacity - 1)` is the
//! ring offset. The producer cursor is published with a single 8-byte store
//! *after* a write-buffer barrier, so the backup only ever observes whole
//! committed transactions (and a crash can lose at most the in-flight
//! tail — the 1-safe window).
//!
//! Record wire format (8-byte aligned):
//!
//! | header `{len: u32, base_off: u32}` | meaning |
//! |---|---|
//! | `len == 0xFFFF_FFFF` | padding: skip to the next ring wrap |
//! | `len == 0` | commit marker; `base_off` = low bits of the sequence |
//! | otherwise | `len` payload bytes for database offset `base_off` |

use dsnrep_obs::Tracer;
use dsnrep_rio::{Layout, RootSlot};
use dsnrep_simcore::{Addr, Halted, Region, TrafficClass};

use crate::error::TxError;
use crate::machine::Machine;

const HDR: u64 = 8;
const PAD: u32 = 0xFFFF_FFFF;

fn rec_size(len: u64) -> u64 {
    HDR + len.div_ceil(8) * 8
}

/// The primary's side of the redo ring.
///
/// Writes staged during a transaction are coalesced (adjacent appends merge)
/// and shipped at commit by [`RedoWriter::publish_commit`].
#[derive(Debug)]
pub struct RedoWriter {
    ring: Region,
    db: Region,
    cap: u64,
    prod: u64,
    /// The staged records' payloads, back to back in staging order.
    staged_bytes: Vec<u8>,
    /// The staged records: `(database offset, start in staged_bytes,
    /// length)`.
    staged: Vec<(u64, usize, usize)>,
}

impl RedoWriter {
    /// Creates a writer over `ring` for database region `db`.
    ///
    /// # Panics
    ///
    /// Panics if the ring length is not a power of two.
    pub fn new(ring: Region, db: Region) -> Self {
        assert!(
            ring.len().is_power_of_two(),
            "ring capacity must be a power of two"
        );
        RedoWriter {
            ring,
            db,
            cap: ring.len(),
            prod: 0,
            staged_bytes: Vec::new(),
            staged: Vec::new(),
        }
    }

    /// Re-reads the producer cursor from the arena (crash recovery).
    pub fn attach<T: Tracer>(ring: Region, db: Region, m: &mut Machine<T>) -> Self {
        let mut w = Self::new(ring, db);
        w.prod = m
            .arena()
            .borrow()
            .read_u64(Layout::root_addr(RootSlot::RingProducer));
        w
    }

    /// The address of the producer cursor root (replicate this 8-byte region
    /// so the backup sees publications).
    pub fn producer_root() -> Region {
        Region::new(Layout::root_addr(RootSlot::RingProducer), 8)
    }

    /// The address of the consumer cursor root (the backup replicates this
    /// back to the primary).
    pub fn consumer_root() -> Region {
        Region::new(Layout::root_addr(RootSlot::RingConsumer), 8)
    }

    /// Stages one in-place database write for shipment at commit, merging
    /// it with the previous one when exactly adjacent. An empty write
    /// stages nothing: a zero-length record would read as a commit marker.
    pub fn record_write(&mut self, base: Addr, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let off = base - self.db.start();
        let start = self.staged_bytes.len();
        self.staged_bytes.extend_from_slice(bytes);
        if let Some((last_off, _, last_len)) = self.staged.last_mut() {
            if *last_off + *last_len as u64 == off {
                *last_len += bytes.len();
                return;
            }
        }
        self.staged.push((off, start, bytes.len()));
    }

    /// Discards the staged writes (abort).
    pub fn discard(&mut self) {
        self.staged_bytes.clear();
        self.staged.clear();
    }

    /// Number of staged records.
    pub fn staged_records(&self) -> usize {
        self.staged.len()
    }

    /// Exact ring bytes the staged transaction needs (records + commit
    /// marker + any wrap padding), given the current producer position.
    pub fn bytes_needed(&self) -> u64 {
        let mut pos = self.prod;
        for &(_, _, len) in &self.staged {
            let size = rec_size(len as u64);
            let contig = self.cap - (pos & (self.cap - 1));
            if size > contig {
                pos += contig; // pad
            }
            pos += size;
        }
        let contig = self.cap - (pos & (self.cap - 1));
        if HDR > contig {
            pos += contig;
        }
        pos += HDR; // commit marker
        pos - self.prod
    }

    /// Free ring space as seen by the primary (reads the consumer cursor
    /// the backup wrote back).
    pub fn free_space<T: Tracer>(&self, m: &mut Machine<T>) -> u64 {
        let cons = m.read_u64(Layout::root_addr(RootSlot::RingConsumer));
        self.cap - (self.prod - cons)
    }

    /// Ships the staged transaction: records, commit marker, barrier,
    /// producer-cursor publication.
    ///
    /// The caller must have established space (see
    /// [`RedoWriter::bytes_needed`] / [`RedoWriter::free_space`]); the
    /// replication driver stalls the primary until the backup catches up.
    ///
    /// # Errors
    ///
    /// [`TxError::RedoRecordTooLarge`] if a single staged record cannot fit
    /// in the ring at all (nothing is shipped; the staging is preserved),
    /// or [`TxError::Halted`] if the node halts mid-publication.
    pub fn publish_commit<T: Tracer>(
        &mut self,
        m: &mut Machine<T>,
        seq: u64,
    ) -> Result<(), TxError> {
        for &(_, _, len) in &self.staged {
            let size = rec_size(len as u64);
            if size + HDR > self.cap {
                return Err(TxError::RedoRecordTooLarge {
                    needed: size,
                    capacity: self.cap,
                });
            }
        }
        for i in 0..self.staged.len() {
            let (off, start, len) = self.staged[i];
            let size = rec_size(len as u64);
            let contig = self.cap - (self.prod & (self.cap - 1));
            if size > contig {
                self.write_pad(m, contig)?;
            }
            let at = self.ring.start() + (self.prod & (self.cap - 1));
            let mut hdr = [0u8; 8];
            hdr[..4].copy_from_slice(
                &u32::try_from(len as u64)
                    .expect("record < 4 GB")
                    .to_le_bytes(),
            );
            hdr[4..].copy_from_slice(&u32::try_from(off).expect("db < 4 GB").to_le_bytes());
            m.write(at, &hdr, TrafficClass::Meta)?;
            m.write(
                at + HDR,
                &self.staged_bytes[start..start + len],
                TrafficClass::Modified,
            )?;
            self.prod += size;
        }
        self.discard();
        let contig = self.cap - (self.prod & (self.cap - 1));
        if HDR > contig {
            self.write_pad(m, contig)?;
        }
        let at = self.ring.start() + (self.prod & (self.cap - 1));
        let mut marker = [0u8; 8];
        marker[4..].copy_from_slice(&(seq as u32).to_le_bytes());
        m.write(at, &marker, TrafficClass::Meta)?;
        self.prod += HDR;
        // Publish: every record precedes the cursor on the wire.
        m.barrier()?;
        m.write_u64(
            Layout::root_addr(RootSlot::RingProducer),
            self.prod,
            TrafficClass::Meta,
        )?;
        Ok(())
    }

    fn write_pad<T: Tracer>(&mut self, m: &mut Machine<T>, contig: u64) -> Result<(), Halted> {
        let at = self.ring.start() + (self.prod & (self.cap - 1));
        let mut hdr = [0u8; 8];
        hdr[..4].copy_from_slice(&PAD.to_le_bytes());
        m.write(at, &hdr, TrafficClass::Meta)?;
        self.prod += contig;
        Ok(())
    }
}

/// What one [`RedoReader::poll`] applied.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Applied {
    /// Commit markers consumed (whole transactions applied).
    pub txns: u64,
    /// Payload bytes applied to the database.
    pub bytes: u64,
}

/// The backup's side of the redo ring.
#[derive(Debug)]
pub struct RedoReader {
    ring: Region,
    db: Region,
    cap: u64,
    cons: u64,
    seq: u64,
    /// Reused record buffer: `poll` applies one record per iteration and
    /// must not allocate per record.
    scratch: Vec<u8>,
}

impl RedoReader {
    /// Creates a reader over the backup's copy of the ring.
    ///
    /// # Panics
    ///
    /// Panics if the ring length is not a power of two.
    pub fn new(ring: Region, db: Region) -> Self {
        assert!(
            ring.len().is_power_of_two(),
            "ring capacity must be a power of two"
        );
        RedoReader {
            ring,
            db,
            cap: ring.len(),
            cons: 0,
            seq: 0,
            scratch: Vec::new(),
        }
    }

    /// Committed transactions applied so far.
    pub fn applied_seq(&self) -> u64 {
        self.seq
    }

    /// Consumes every published record: applies payloads to the backup's
    /// database, advances the consumer cursor, and writes the cursor back
    /// (write-through) once per commit marker — all charged to the backup
    /// machine's clock.
    ///
    /// # Errors
    ///
    /// [`Halted`] when a fault budget halts the backup mid-apply (a
    /// takeover's drain of the ring is recovery, and may be crashed).
    pub fn poll<T: Tracer>(&mut self, m: &mut Machine<T>) -> Result<Applied, Halted> {
        let prod = m.read_u64(Layout::root_addr(RootSlot::RingProducer));
        let mut applied = Applied::default();
        while self.cons < prod {
            let at = self.ring.start() + (self.cons & (self.cap - 1));
            let len = m.read_u32(at);
            let base_off = m.read_u32(at + 4);
            if len == PAD {
                self.cons += self.cap - (self.cons & (self.cap - 1));
                continue;
            }
            if len == 0 {
                // Commit marker: the applied state is now a transaction
                // boundary; write the cursor back to the primary.
                self.cons += HDR;
                self.seq += 1;
                applied.txns += 1;
                m.write_u64(
                    Layout::root_addr(RootSlot::RingConsumer),
                    self.cons,
                    TrafficClass::Meta,
                )?;
                m.barrier()?;
                continue;
            }
            self.scratch.resize(len as usize, 0);
            m.read(at + HDR, &mut self.scratch[..]);
            m.charge(dsnrep_simcore::VirtualDuration::from_picos(
                m.costs().copy_per_byte.as_picos() * u64::from(len),
            ));
            m.write(
                self.db.start() + u64::from(base_off),
                &self.scratch,
                TrafficClass::Modified,
            )?;
            applied.bytes += u64::from(len);
            self.cons += rec_size(u64::from(len));
        }
        Ok(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsnrep_simcore::{CostModel, Region, TrafficClass, VirtualInstant};

    /// A standalone machine pair sharing one arena: the writer and reader
    /// operate on the same memory (no SAN in between), which isolates the
    /// ring protocol itself.
    fn setup(ring_len: u64) -> (Machine, RedoWriter, RedoReader, Region) {
        let arena = crate::shared_arena(1 << 16);
        let m = Machine::standalone(CostModel::alpha_21164a(), arena);
        let ring = Region::new(Addr::new(4096), ring_len);
        let db = Region::new(Addr::new(4096 + ring_len), 8192);
        let writer = RedoWriter::new(ring, db);
        let reader = RedoReader::new(ring, db);
        (m, writer, reader, db)
    }

    #[test]
    fn publish_then_poll_applies_payloads() -> Result<(), TxError> {
        let (mut m, mut writer, mut reader, db) = setup(1024);
        writer.record_write(db.start() + 16, &[1, 2, 3, 4]);
        writer.record_write(db.start() + 100, &[9; 12]);
        writer.publish_commit(&mut m, 1)?;
        let applied = reader.poll(&mut m)?;
        assert_eq!(applied.txns, 1);
        assert_eq!(applied.bytes, 16);
        assert_eq!(m.peek_vec(db.start() + 16, 4), vec![1, 2, 3, 4]);
        assert_eq!(m.peek_vec(db.start() + 100, 12), vec![9; 12]);
        assert_eq!(reader.applied_seq(), 1);
        Ok(())
    }

    #[test]
    fn adjacent_writes_coalesce_into_one_record() {
        let (_, mut writer, _, db) = setup(1024);
        writer.record_write(db.start(), &[1; 8]);
        writer.record_write(db.start() + 8, &[2; 8]);
        assert_eq!(writer.staged_records(), 1, "adjacent appends merge");
        writer.record_write(db.start() + 100, &[3; 8]);
        assert_eq!(writer.staged_records(), 2);
        writer.record_write(db.start() + 200, &[]);
        assert_eq!(writer.staged_records(), 2, "an empty write stages nothing");
    }

    #[test]
    fn discard_drops_the_staging() -> Result<(), TxError> {
        let (mut m, mut writer, mut reader, db) = setup(1024);
        writer.record_write(db.start(), &[5; 8]);
        writer.discard();
        writer.publish_commit(&mut m, 1)?;
        let applied = reader.poll(&mut m)?;
        assert_eq!(applied.bytes, 0);
        assert_eq!(applied.txns, 1, "the commit marker still travels");
        Ok(())
    }

    #[test]
    fn ring_wraps_with_padding() -> Result<(), TxError> {
        let (mut m, mut writer, mut reader, db) = setup(256);
        // Fill the ring several times over; the reader keeps pace.
        for seq in 1..=40u64 {
            writer.record_write(db.start() + (seq % 7) * 24, &[seq as u8; 20]);
            let needed = writer.bytes_needed();
            assert!(writer.free_space(&mut m) >= needed, "reader keeps pace");
            writer.publish_commit(&mut m, seq)?;
            reader.poll(&mut m)?;
        }
        assert_eq!(reader.applied_seq(), 40);
        Ok(())
    }

    #[test]
    fn bytes_needed_accounts_for_wrap_padding() -> Result<(), TxError> {
        let (mut m, mut writer, mut reader, db) = setup(256);
        // Advance the cursors to just before the wrap point.
        for seq in 1..=3u64 {
            writer.record_write(db.start(), &[0; 48]);
            writer.publish_commit(&mut m, seq)?;
            reader.poll(&mut m)?;
        }
        // A record that cannot fit in the remaining contiguous space must
        // include the pad in its size estimate.
        writer.record_write(db.start(), &[7; 100]);
        let needed = writer.bytes_needed();
        assert!(
            needed >= 8 + 104,
            "needs header + padded payload, got {needed}"
        );
        writer.publish_commit(&mut m, 4)?;
        let applied = reader.poll(&mut m)?;
        assert_eq!(applied.bytes, 100);
        assert_eq!(m.peek_vec(db.start(), 100), vec![7; 100]);
        Ok(())
    }

    #[test]
    fn oversized_record_is_rejected_not_corrupted() {
        let (mut m, mut writer, _, db) = setup(64);
        writer.record_write(db.start(), &[1; 200]);
        let err = writer.publish_commit(&mut m, 1).unwrap_err();
        assert!(matches!(err, TxError::RedoRecordTooLarge { .. }), "{err}");
    }

    #[test]
    fn reader_only_sees_published_records() -> Result<(), TxError> {
        let (mut m, mut writer, mut reader, db) = setup(1024);
        writer.record_write(db.start(), &[1; 8]);
        // Not yet published: the reader must see nothing.
        let applied = reader.poll(&mut m)?;
        assert_eq!(applied.txns + applied.bytes, 0);
        writer.publish_commit(&mut m, 1)?;
        assert_eq!(reader.poll(&mut m)?.txns, 1);
        Ok(())
    }

    #[test]
    fn cursor_roots_are_exposed_for_replication() {
        assert_eq!(RedoWriter::producer_root().len(), 8);
        assert_eq!(RedoWriter::consumer_root().len(), 8);
        assert!(!RedoWriter::producer_root().overlaps(RedoWriter::consumer_root()));
        let _ = VirtualInstant::EPOCH;
        let _ = TrafficClass::Meta;
    }
}

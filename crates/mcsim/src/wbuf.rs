//! The processor write-buffer model.
//!
//! The Alpha 21164A merges contiguous stores in six 32-byte write buffers;
//! a buffer is flushed to the PCI bus as **one** transaction, which the
//! Memory Channel interface converts into **one** packet of the same size.
//! The interface never aggregates across PCI transactions, so 32 bytes is
//! the maximum packet payload (paper §2.3).
//!
//! This is the mechanism behind the paper's central result: a log written
//! sequentially fills buffers completely (32-byte packets, 80 MB/s), while
//! scattered in-place database writes evict buffers holding only 4–8 dirty
//! bytes (small packets, ~14 MB/s effective bandwidth).

use dsnrep_simcore::{copy_small, Addr, Halted, TrafficClass};

/// The payload block size of one write buffer (and one packet).
pub const BLOCK: u64 = 32;

/// A flushed write buffer: one Memory Channel packet.
///
/// A packet may carry bytes of several [`TrafficClass`]es (e.g. a log
/// record header followed by its in-line data); `class_bytes` records the
/// per-class payload for the accounting tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushedBuffer {
    /// The 32-byte-aligned base address of the block.
    pub base: Addr,
    /// Bitmask of dirty bytes within the block (bit i = byte `base + i`).
    pub mask: u32,
    /// The block contents; only dirty bytes are meaningful.
    pub data: [u8; BLOCK as usize],
    /// Dirty bytes per traffic class (indexed by `TrafficClass::index`);
    /// sums to `payload()`.
    pub class_bytes: [u64; 3],
}

impl FlushedBuffer {
    /// Number of dirty (payload) bytes: the sum of `class_bytes`, which
    /// counts each dirty bit of `mask` once.
    pub fn payload(&self) -> u64 {
        self.class_bytes.iter().sum()
    }

    /// Iterates over the `(addr, bytes)` runs of contiguous dirty bytes.
    pub fn dirty_runs(&self) -> DirtyRuns<'_> {
        DirtyRuns { buf: self, pos: 0 }
    }
}

/// Iterator over contiguous dirty-byte runs of a [`FlushedBuffer`].
#[derive(Debug)]
pub struct DirtyRuns<'a> {
    buf: &'a FlushedBuffer,
    pos: u32,
}

impl<'a> Iterator for DirtyRuns<'a> {
    type Item = (Addr, &'a [u8]);

    fn next(&mut self) -> Option<(Addr, &'a [u8])> {
        // Bit-scan instead of per-bit loops: for the common full-mask
        // packet this yields the single 32-byte run in O(1).
        if self.pos >= 32 {
            return None;
        }
        let shifted = self.buf.mask >> self.pos;
        if shifted == 0 {
            self.pos = 32;
            return None;
        }
        let start = self.pos + shifted.trailing_zeros();
        let len = (self.buf.mask >> start).trailing_ones().min(32 - start);
        self.pos = start + len;
        Some((
            self.buf.base + u64::from(start),
            &self.buf.data[start as usize..(start + len) as usize],
        ))
    }
}

/// The block index of a clean buffer: never `addr / 32` of an address.
const EMPTY: u64 = u64::MAX;

/// The dirty-byte mask of an `n`-byte store at offset `in_block`
/// (`n` ≤ 32, `in_block + n` ≤ 32).
#[inline]
pub(crate) fn span_mask(in_block: usize, n: usize) -> u32 {
    debug_assert!(n >= 1 && in_block + n <= BLOCK as usize);
    if n >= 32 {
        u32::MAX
    } else {
        ((1u32 << n) - 1) << in_block
    }
}

/// A set of N write buffers with merge-on-same-block and LRU eviction.
///
/// The buffers are laid out flat: one array of block indices, scanned on
/// every store, with a sentinel block for a clean buffer, and one array of
/// the buffers' contents. Each buffer keeps one dirty mask per
/// traffic class: a byte belongs to the class of the store that first
/// dirtied it, so a store costs two mask operations and a packet's class
/// bytes are counted once, when it flushes.
///
/// Flushing can fail: the `flush` callback returns [`Halted`] when the
/// node halts before the packet leaves, and the operation stops there
/// and passes it on. The halted packet's buffer is already clean: like
/// the crash the halt stands for, it loses the packet.
///
/// # Examples
///
/// Sequential stores coalesce into one full packet:
///
/// ```
/// use dsnrep_mcsim::{WriteBufferSet, BLOCK};
/// use dsnrep_simcore::{Addr, TrafficClass};
///
/// let mut bufs = WriteBufferSet::new(6);
/// let mut packets = Vec::new();
/// for i in 0..4 {
///     bufs.store(Addr::new(i * 8), &[0u8; 8], TrafficClass::Undo,
///                &mut |f| Ok(packets.push(f)))?;
/// }
/// assert_eq!(packets.len(), 1, "full buffer flushed eagerly");
/// assert_eq!(packets[0].payload(), BLOCK);
/// # Ok::<(), dsnrep_simcore::Halted>(())
/// ```
#[derive(Clone, Debug)]
pub struct WriteBufferSet {
    /// Block index (`addr / 32`) per buffer, [`EMPTY`] when clean.
    blocks: Vec<u64>,
    /// Contents per buffer, meaningful while its block is not [`EMPTY`].
    bufs: Vec<Buffer>,
    next_stamp: u64,
    /// Buffer index of the most recent store. Only a hint: it may be stale
    /// (buffer since flushed or reused for another block), so users must
    /// re-check the block tag. Because at most one buffer ever holds a
    /// given block, a verified hit is exactly what the linear scan would
    /// find.
    mru: usize,
}

/// One write buffer's contents.
#[derive(Clone, Copy, Debug, Default)]
struct Buffer {
    /// Union of `class_masks`.
    mask: u32,
    /// Dirty-byte masks, indexed by `TrafficClass::index`.
    class_masks: [u32; 3],
    /// Stamp of the latest store, for LRU order.
    stamp: u64,
    /// Block contents; bytes outside `mask` are zero.
    data: [u8; BLOCK as usize],
}

impl WriteBufferSet {
    /// Creates a set of `count` empty buffers.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(count: usize) -> Self {
        assert!(count > 0, "need at least one write buffer");
        WriteBufferSet {
            blocks: vec![EMPTY; count],
            bufs: vec![Buffer::default(); count],
            next_stamp: 0,
            mru: 0,
        }
    }

    /// Number of buffers currently holding dirty bytes.
    pub fn dirty_buffers(&self) -> usize {
        self.blocks.iter().filter(|&&b| b != EMPTY).count()
    }

    /// Applies a store, merging into an existing buffer when the block
    /// matches. Buffers displaced by LRU eviction, class changes, or
    /// becoming full are handed to `flush` (each flushed buffer is one
    /// packet).
    ///
    /// # Errors
    ///
    /// [`Halted`] from `flush`; the rest of the store is not applied.
    pub fn store(
        &mut self,
        addr: Addr,
        bytes: &[u8],
        class: TrafficClass,
        flush: &mut impl FnMut(FlushedBuffer) -> Result<(), Halted>,
    ) -> Result<(), Halted> {
        let mut off = 0usize;
        while off < bytes.len() {
            let a = addr + off as u64;
            let block = a.as_u64() / BLOCK;
            let in_block = a.offset_in(BLOCK) as usize;
            let n = (BLOCK as usize - in_block).min(bytes.len() - off);
            self.store_in_block(block, in_block, &bytes[off..off + n], class, flush)?;
            off += n;
        }
        Ok(())
    }

    fn store_in_block(
        &mut self,
        block: u64,
        in_block: usize,
        bytes: &[u8],
        class: TrafficClass,
        flush: &mut impl FnMut(FlushedBuffer) -> Result<(), Halted>,
    ) -> Result<(), Halted> {
        self.next_stamp += 1;
        // Find a matching buffer. MRU fast path first: sequential log
        // appends hit the same block as the previous store, so most
        // lookups resolve without scanning the block array.
        let matched = if self.blocks[self.mru] == block {
            Some(self.mru)
        } else {
            self.blocks.iter().position(|&b| b == block)
        };
        let idx = match matched {
            Some(idx) => idx,
            None => {
                let idx = self.claim(flush)?;
                self.blocks[idx] = block;
                self.bufs[idx] = Buffer::default();
                idx
            }
        };
        let buf = &mut self.bufs[idx];
        buf.stamp = self.next_stamp;
        let add = span_mask(in_block, bytes.len());
        buf.class_masks[class.index()] |= add & !buf.mask;
        buf.mask |= add;
        copy_small(&mut buf.data[in_block..in_block + bytes.len()], bytes);
        if buf.mask == u32::MAX {
            flush(self.take(idx))?;
        }
        self.mru = idx;
        Ok(())
    }

    /// A clean buffer for a new block: the first clean one, else the
    /// least recently used one, flushed.
    fn claim(
        &mut self,
        flush: &mut impl FnMut(FlushedBuffer) -> Result<(), Halted>,
    ) -> Result<usize, Halted> {
        if let Some(idx) = self.blocks.iter().position(|&b| b == EMPTY) {
            return Ok(idx);
        }
        let (idx, _) = self
            .bufs
            .iter()
            .enumerate()
            .min_by_key(|&(_, buf)| buf.stamp)
            .expect("the set is non-empty");
        flush(self.take(idx))?;
        Ok(idx)
    }

    /// Cleans buffer `idx` and returns its packet.
    fn take(&mut self, idx: usize) -> FlushedBuffer {
        let block = std::mem::replace(&mut self.blocks[idx], EMPTY);
        let buf = &self.bufs[idx];
        FlushedBuffer {
            base: Addr::new(block * BLOCK),
            mask: buf.mask,
            data: buf.data,
            class_bytes: buf.class_masks.map(|m| u64::from(m.count_ones())),
        }
    }

    /// Flushes the buffer holding `block` (an index, i.e. `addr / 32`), if
    /// any. Used by the unmerged-store path to preserve same-block store
    /// ordering.
    ///
    /// # Errors
    ///
    /// [`Halted`] from `flush`.
    pub fn flush_block(
        &mut self,
        block: u64,
        flush: &mut impl FnMut(FlushedBuffer) -> Result<(), Halted>,
    ) -> Result<(), Halted> {
        match self.blocks.iter().position(|&b| b == block) {
            Some(idx) => flush(self.take(idx)),
            None => Ok(()),
        }
    }

    /// Flushes every dirty buffer (a write memory barrier), oldest first.
    ///
    /// Allocation-free: repeatedly selects the minimum-stamp dirty buffer.
    /// Quadratic in the buffer count, but the set holds at most a handful
    /// of buffers (six on the Alpha 21164A) and barriers run on every
    /// commit.
    ///
    /// # Errors
    ///
    /// [`Halted`] from `flush`: the buffers older than the halted one are
    /// out, and the younger ones stay dirty.
    pub fn flush_all(
        &mut self,
        flush: &mut impl FnMut(FlushedBuffer) -> Result<(), Halted>,
    ) -> Result<(), Halted> {
        while let Some((_, idx)) = (self.blocks.iter().zip(&self.bufs).enumerate())
            .filter(|&(_, (&block, _))| block != EMPTY)
            .map(|(i, (_, buf))| (buf.stamp, i))
            .min()
        {
            flush(self.take(idx))?;
        }
        Ok(())
    }

    /// Discards every dirty buffer without flushing (a crash: buffered
    /// stores that never reached the PCI bus are lost).
    pub fn discard_all(&mut self) {
        self.blocks.fill(EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(
        events: &mut Vec<FlushedBuffer>,
    ) -> impl FnMut(FlushedBuffer) -> Result<(), Halted> + '_ {
        |f| {
            events.push(f);
            Ok(())
        }
    }

    #[test]
    fn sequential_words_fill_one_buffer() -> Result<(), Halted> {
        let mut bufs = WriteBufferSet::new(6);
        let mut out = Vec::new();
        for i in 0..4u64 {
            bufs.store(
                Addr::new(i * 8),
                &[i as u8; 8],
                TrafficClass::Undo,
                &mut collect(&mut out),
            )?;
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload(), 32);
        assert_eq!(out[0].base, Addr::new(0));
        assert_eq!(bufs.dirty_buffers(), 0);
        Ok(())
    }

    #[test]
    fn strided_words_produce_partial_packets() -> Result<(), Halted> {
        // Stride-2 in 4-byte words: 16 dirty bytes per 32-byte block.
        let mut bufs = WriteBufferSet::new(1);
        let mut out = Vec::new();
        for block in 0..8u64 {
            for word in [0u64, 2, 4, 6] {
                bufs.store(
                    Addr::new(block * 32 + word * 4),
                    &[1u8; 4],
                    TrafficClass::Modified,
                    &mut collect(&mut out),
                )?;
            }
        }
        bufs.flush_all(&mut collect(&mut out))?;
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|f| f.payload() == 16));
        Ok(())
    }

    #[test]
    fn lru_eviction_picks_oldest() -> Result<(), Halted> {
        let mut bufs = WriteBufferSet::new(2);
        let mut out = Vec::new();
        bufs.store(
            Addr::new(0),
            &[1],
            TrafficClass::Meta,
            &mut collect(&mut out),
        )?;
        bufs.store(
            Addr::new(32),
            &[2],
            TrafficClass::Meta,
            &mut collect(&mut out),
        )?;
        // Touch block 0 again so block 1 becomes LRU.
        bufs.store(
            Addr::new(1),
            &[3],
            TrafficClass::Meta,
            &mut collect(&mut out),
        )?;
        bufs.store(
            Addr::new(64),
            &[4],
            TrafficClass::Meta,
            &mut collect(&mut out),
        )?;
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].base, Addr::new(32));
        Ok(())
    }

    #[test]
    fn mixed_classes_share_one_packet() -> Result<(), Halted> {
        let mut bufs = WriteBufferSet::new(6);
        let mut out = Vec::new();
        bufs.store(
            Addr::new(0),
            &[1; 4],
            TrafficClass::Modified,
            &mut collect(&mut out),
        )?;
        bufs.store(
            Addr::new(4),
            &[2; 4],
            TrafficClass::Meta,
            &mut collect(&mut out),
        )?;
        bufs.flush_all(&mut collect(&mut out))?;
        assert_eq!(out.len(), 1, "classes merge into one packet");
        assert_eq!(out[0].payload(), 8);
        assert_eq!(out[0].class_bytes[TrafficClass::Modified.index()], 4);
        assert_eq!(out[0].class_bytes[TrafficClass::Meta.index()], 4);
        Ok(())
    }

    #[test]
    fn cross_block_store_splits() -> Result<(), Halted> {
        let mut bufs = WriteBufferSet::new(6);
        let mut out = Vec::new();
        bufs.store(
            Addr::new(28),
            &[9; 8],
            TrafficClass::Undo,
            &mut collect(&mut out),
        )?;
        bufs.flush_all(&mut collect(&mut out))?;
        assert_eq!(out.len(), 2);
        let payloads: Vec<u64> = out.iter().map(FlushedBuffer::payload).collect();
        assert_eq!(payloads, vec![4, 4]);
        Ok(())
    }

    #[test]
    fn overwrite_same_bytes_does_not_grow_payload() -> Result<(), Halted> {
        let mut bufs = WriteBufferSet::new(6);
        let mut out = Vec::new();
        bufs.store(
            Addr::new(0),
            &[1; 8],
            TrafficClass::Undo,
            &mut collect(&mut out),
        )?;
        bufs.store(
            Addr::new(0),
            &[2; 8],
            TrafficClass::Undo,
            &mut collect(&mut out),
        )?;
        bufs.flush_all(&mut collect(&mut out))?;
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload(), 8);
        assert_eq!(out[0].class_bytes[TrafficClass::Undo.index()], 8);
        assert_eq!(&out[0].data[..8], &[2; 8]);
        Ok(())
    }

    #[test]
    fn dirty_runs_iterate_contiguous_spans() {
        let f = FlushedBuffer {
            base: Addr::new(64),
            mask: 0b0000_0000_0000_0000_1111_0000_0000_1111,
            data: {
                let mut d = [0u8; 32];
                for (i, item) in d.iter_mut().enumerate() {
                    *item = i as u8;
                }
                d
            },
            class_bytes: [8, 0, 0],
        };
        let runs: Vec<(Addr, Vec<u8>)> = f.dirty_runs().map(|(a, b)| (a, b.to_vec())).collect();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0], (Addr::new(64), vec![0, 1, 2, 3]));
        assert_eq!(runs[1], (Addr::new(76), vec![12, 13, 14, 15]));
    }

    /// The bit-scan `DirtyRuns` yields exactly the runs of the per-bit
    /// loop it replaced, for every mask (exhaustive over run shapes).
    #[test]
    fn dirty_runs_match_bit_loop_reference() {
        let mut data = [0u8; BLOCK as usize];
        for (i, item) in data.iter_mut().enumerate() {
            *item = (i as u8) ^ 0x5A;
        }
        // Every mask of the form (runs at arbitrary offsets); a few
        // thousand structured cases plus edge masks covers all shapes.
        let mut masks: Vec<u32> = vec![0, 1, u32::MAX, u32::MAX - 1, 1 << 31, 0x8000_0001];
        for start in 0..32u32 {
            for len in 1..=(32 - start) {
                let run = ((1u64 << len) - 1) as u32;
                masks.push(run << start);
                masks.push((run << start) | 1 | (1 << 31));
                masks.push((run << start) ^ 0x4924_9249);
            }
        }
        for mask in masks {
            let f = FlushedBuffer {
                base: Addr::new(96),
                mask,
                data,
                class_bytes: [0; 3],
            };
            let got: Vec<(Addr, Vec<u8>)> = f.dirty_runs().map(|(a, b)| (a, b.to_vec())).collect();
            let mut want = Vec::new();
            let mut i = 0u32;
            while i < 32 {
                if mask & (1 << i) == 0 {
                    i += 1;
                    continue;
                }
                let start = i;
                while i < 32 && mask & (1 << i) != 0 {
                    i += 1;
                }
                want.push((
                    f.base + u64::from(start),
                    f.data[start as usize..i as usize].to_vec(),
                ));
            }
            assert_eq!(got, want, "mask {mask:#034b}");
        }
    }

    #[test]
    fn discard_drops_everything() -> Result<(), Halted> {
        let mut bufs = WriteBufferSet::new(6);
        let mut out = Vec::new();
        bufs.store(
            Addr::new(0),
            &[1; 4],
            TrafficClass::Undo,
            &mut collect(&mut out),
        )?;
        bufs.discard_all();
        bufs.flush_all(&mut collect(&mut out))?;
        assert!(out.is_empty());
        Ok(())
    }

    /// The pre-optimization write-buffer model: per-byte mask/copy loops,
    /// linear slot scans, and an allocating sort-based `flush_all`. Kept
    /// verbatim as the oracle for the equivalence properties below — the
    /// fast paths must produce byte-identical flush sequences.
    mod reference {
        use super::*;

        #[derive(Clone, Copy, Debug)]
        pub struct RefSlot {
            pub block: u64,
            pub mask: u32,
            pub data: [u8; BLOCK as usize],
            pub class_bytes: [u64; 3],
            pub stamp: u64,
        }

        #[derive(Clone, Debug)]
        pub struct RefWriteBufferSet {
            slots: Vec<Option<RefSlot>>,
            next_stamp: u64,
        }

        impl RefWriteBufferSet {
            pub fn new(count: usize) -> Self {
                RefWriteBufferSet {
                    slots: vec![None; count],
                    next_stamp: 0,
                }
            }

            pub fn store(
                &mut self,
                addr: Addr,
                bytes: &[u8],
                class: TrafficClass,
                flush: &mut impl FnMut(FlushedBuffer),
            ) {
                let mut off = 0usize;
                while off < bytes.len() {
                    let a = addr + off as u64;
                    let block = a.as_u64() / BLOCK;
                    let in_block = a.offset_in(BLOCK) as usize;
                    let n = (BLOCK as usize - in_block).min(bytes.len() - off);
                    self.store_in_block(block, in_block, &bytes[off..off + n], class, flush);
                    off += n;
                }
            }

            fn store_in_block(
                &mut self,
                block: u64,
                in_block: usize,
                bytes: &[u8],
                class: TrafficClass,
                flush: &mut impl FnMut(FlushedBuffer),
            ) {
                self.next_stamp += 1;
                let stamp = self.next_stamp;
                if let Some(idx) = self
                    .slots
                    .iter()
                    .position(|s| s.as_ref().is_some_and(|s| s.block == block))
                {
                    let slot = self.slots[idx].as_mut().expect("position() found it");
                    slot.stamp = stamp;
                    for (i, &b) in bytes.iter().enumerate() {
                        slot.data[in_block + i] = b;
                        if slot.mask & (1 << (in_block + i)) == 0 {
                            slot.class_bytes[class.index()] += 1;
                        }
                        slot.mask |= 1 << (in_block + i);
                    }
                    if slot.mask == u32::MAX {
                        let full = self.slots[idx].take().expect("just matched");
                        flush(Self::to_flushed(full));
                    }
                    return;
                }
                self.place(block, in_block, bytes, class, stamp, flush);
            }

            fn place(
                &mut self,
                block: u64,
                in_block: usize,
                bytes: &[u8],
                class: TrafficClass,
                stamp: u64,
                flush: &mut impl FnMut(FlushedBuffer),
            ) {
                let idx = match self.slots.iter().position(Option::is_none) {
                    Some(i) => i,
                    None => {
                        let (i, _) = self
                            .slots
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, s)| s.as_ref().map_or(u64::MAX, |s| s.stamp))
                            .expect("slots is non-empty");
                        let victim = self.slots[i].take().expect("all slots were full");
                        flush(Self::to_flushed(victim));
                        i
                    }
                };
                let mut slot = RefSlot {
                    block,
                    mask: 0,
                    data: [0; BLOCK as usize],
                    class_bytes: [0; 3],
                    stamp,
                };
                for (i, &b) in bytes.iter().enumerate() {
                    slot.data[in_block + i] = b;
                    slot.mask |= 1 << (in_block + i);
                }
                slot.class_bytes[class.index()] = u64::from(slot.mask.count_ones());
                if slot.mask == u32::MAX {
                    flush(Self::to_flushed(slot));
                } else {
                    self.slots[idx] = Some(slot);
                }
            }

            pub fn flush_block(&mut self, block: u64, flush: &mut impl FnMut(FlushedBuffer)) {
                if let Some(idx) = self
                    .slots
                    .iter()
                    .position(|s| s.as_ref().is_some_and(|s| s.block == block))
                {
                    let slot = self.slots[idx].take().expect("position() found it");
                    flush(Self::to_flushed(slot));
                }
            }

            pub fn flush_all(&mut self, flush: &mut impl FnMut(FlushedBuffer)) {
                let mut dirty: Vec<RefSlot> =
                    self.slots.iter_mut().filter_map(Option::take).collect();
                dirty.sort_by_key(|s| s.stamp);
                for slot in dirty {
                    flush(Self::to_flushed(slot));
                }
            }

            pub fn discard_all(&mut self) {
                for s in &mut self.slots {
                    *s = None;
                }
            }

            fn to_flushed(slot: RefSlot) -> FlushedBuffer {
                FlushedBuffer {
                    base: Addr::new(slot.block * BLOCK),
                    mask: slot.mask,
                    data: slot.data,
                    class_bytes: slot.class_bytes,
                }
            }
        }
    }

    mod equivalence {
        use super::reference::RefWriteBufferSet;
        use super::*;
        use proptest::prelude::*;

        #[derive(Clone, Debug)]
        enum Op {
            Store { addr: u64, len: usize, class: u8 },
            FlushBlock { block: u64 },
            FlushAll,
            DiscardAll,
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                12 => (0u64..512, 1usize..=40, 0u8..3)
                    .prop_map(|(addr, len, class)| Op::Store { addr, len, class }),
                2 => (0u64..16).prop_map(|block| Op::FlushBlock { block }),
                1 => Just(Op::FlushAll),
                1 => Just(Op::DiscardAll),
            ]
        }

        fn class_of(tag: u8) -> TrafficClass {
            match tag {
                0 => TrafficClass::Modified,
                1 => TrafficClass::Undo,
                _ => TrafficClass::Meta,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The mask/MRU fast paths and the allocation-free barrier
            /// produce the exact flush sequence of the byte-loop model.
            #[test]
            fn fast_paths_match_reference(
                slots in 1usize..=12,
                ops in prop::collection::vec(op_strategy(), 1..120),
            ) {
                let mut fast = WriteBufferSet::new(slots);
                let mut oracle = RefWriteBufferSet::new(slots);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for op in &ops {
                    match *op {
                        Op::Store { addr, len, class } => {
                            let data: Vec<u8> =
                                (0..len).map(|i| (addr as u8).wrapping_add(i as u8)).collect();
                            fast.store(Addr::new(addr), &data, class_of(class), &mut collect(&mut got))
                                .unwrap();
                            oracle.store(Addr::new(addr), &data, class_of(class), &mut |f| want.push(f));
                        }
                        Op::FlushBlock { block } => {
                            fast.flush_block(block, &mut collect(&mut got)).unwrap();
                            oracle.flush_block(block, &mut |f| want.push(f));
                        }
                        Op::FlushAll => {
                            fast.flush_all(&mut collect(&mut got)).unwrap();
                            oracle.flush_all(&mut |f| want.push(f));
                        }
                        Op::DiscardAll => {
                            fast.discard_all();
                            oracle.discard_all();
                        }
                    }
                    prop_assert_eq!(&got, &want, "divergence after {:?}", op);
                }
                fast.flush_all(&mut collect(&mut got)).unwrap();
                oracle.flush_all(&mut |f| want.push(f));
                prop_assert_eq!(&got, &want, "final barrier state diverged");
            }
        }
    }

    #[test]
    fn flush_all_is_oldest_first() -> Result<(), Halted> {
        let mut bufs = WriteBufferSet::new(6);
        let mut out = Vec::new();
        bufs.store(
            Addr::new(96),
            &[1],
            TrafficClass::Meta,
            &mut collect(&mut out),
        )?;
        bufs.store(
            Addr::new(0),
            &[1],
            TrafficClass::Meta,
            &mut collect(&mut out),
        )?;
        bufs.flush_all(&mut collect(&mut out))?;
        assert_eq!(out[0].base, Addr::new(96));
        assert_eq!(out[1].base, Addr::new(0));
        Ok(())
    }
}

//! An accounted free-list heap inside recoverable memory.
//!
//! Version 0 (the unmodified Vista library) allocates its undo records and
//! their data areas from a heap that itself lives in recoverable memory.
//! The paper's Table 2 shows why that matters: in the straightforward
//! primary-backup port, *heap and list metadata* account for 6708 of the
//! 7172 MB written through for Debit-Credit. To reproduce that, this heap is
//! a real boundary-tag allocator whose every metadata word is written through
//! an [`AllocMem`], so the layers above can charge cache costs and double the
//! writes to the backup.
//!
//! Design: classic first-fit with boundary tags. Every block has a 16-byte
//! header `{size|flags, prev_size}`; free blocks additionally carry
//! `{next, prev}` free-list links in their payload. Freeing coalesces with
//! both neighbours.

use core::fmt;
use std::error::Error;

use dsnrep_simcore::{Addr, Halted, Region};

/// Memory accessed by the allocator. Implementations charge cache costs and
/// (in primary-backup mode) double the writes to the backup as metadata
/// traffic.
pub trait AllocMem {
    /// Reads a little-endian `u64`.
    fn read_u64(&mut self, addr: Addr) -> u64;
    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`Halted`] when an armed fault budget stops the node at this write;
    /// the heap operation stops there too.
    fn write_u64(&mut self, addr: Addr, value: u64) -> Result<(), Halted>;
}

/// The allocation failure error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfMemory {
    /// The payload size that could not be satisfied.
    pub requested: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recoverable heap cannot satisfy a {}-byte allocation",
            self.requested
        )
    }
}

impl Error for OutOfMemory {}

/// A heap-consistency violation found by [`FreeListHeap::check_consistency`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeapCorruption(String);

impl fmt::Display for HeapCorruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "heap corruption: {}", self.0)
    }
}

impl Error for HeapCorruption {}

/// Aggregate heap statistics, read back from the persistent root words.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Number of live allocations.
    pub live_allocs: u64,
    /// Payload bytes currently allocated.
    pub bytes_in_use: u64,
    /// Total blocks walked (allocated + free).
    pub blocks: u64,
    /// Free blocks on the list.
    pub free_blocks: u64,
}

const ROOT_WORDS: u64 = 6;
const IN_USE: u64 = 1;
const SIZE_MASK: u64 = !7;
const HDR: u64 = 16;
const MIN_BLOCK: u64 = 32;

/// A first-fit boundary-tag allocator over a heap [`Region`].
///
/// The struct itself is a cheap handle: all allocator state (free-list head,
/// statistics) lives in the region, so it survives crashes and is visible to
/// the backup. Every operation that writes returns [`Halted`] as soon as a
/// write of its memory halts, leaving the heap as that crash point left it.
///
/// # Examples
///
/// ```
/// use dsnrep_rio::{Arena, FreeListHeap, RawMem};
/// use dsnrep_simcore::{Addr, Region};
///
/// let mut arena = Arena::new(1 << 16);
/// let mut mem = RawMem::new(&mut arena);
/// let heap = FreeListHeap::format(&mut mem, Region::new(Addr::new(0), 1 << 16))?;
/// // The outer result is a halt, the inner one the allocation itself.
/// let a = heap.alloc(&mut mem, 100)?.expect("fits");
/// let b = heap.alloc(&mut mem, 200)?.expect("fits");
/// assert_ne!(a, b);
/// heap.free(&mut mem, a)?;
/// heap.free(&mut mem, b)?;
/// assert_eq!(heap.stats(&mut mem).live_allocs, 0);
/// # Ok::<(), dsnrep_simcore::Halted>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FreeListHeap {
    region: Region,
}

impl FreeListHeap {
    /// Formats `region` as an empty heap and returns a handle.
    ///
    /// # Errors
    ///
    /// [`Halted`] when a write of `mem` halts mid-format.
    ///
    /// # Panics
    ///
    /// Panics if the region is too small to hold the roots and one minimum
    /// block.
    pub fn format<M: AllocMem>(mem: &mut M, region: Region) -> Result<Self, Halted> {
        assert!(
            region.len() >= ROOT_WORDS * 8 + MIN_BLOCK,
            "heap region too small: {} bytes",
            region.len()
        );
        let heap = FreeListHeap { region };
        let first = heap.first_block();
        let cap = (heap.end().as_u64() - first.as_u64()) & SIZE_MASK;
        // Roots: [magic][free_head][live_allocs][frees][bytes_in_use][cap]
        mem.write_u64(region.start(), 0x4845_4150)?; // "HEAP"
        mem.write_u64(heap.head_addr(), first.as_u64())?;
        mem.write_u64(heap.live_addr(), 0)?;
        mem.write_u64(heap.frees_addr(), 0)?;
        mem.write_u64(heap.in_use_addr(), 0)?;
        mem.write_u64(region.start() + 40, cap)?;
        // One big free block.
        mem.write_u64(first, cap)?;
        mem.write_u64(first + 8, 0)?; // prev_size: none
        mem.write_u64(first + 16, 0)?; // next
        mem.write_u64(first + 24, 0)?; // prev
        Ok(heap)
    }

    /// Re-attaches to a previously formatted heap (e.g. after a crash).
    pub fn attach(region: Region) -> Self {
        FreeListHeap { region }
    }

    /// The heap region.
    pub fn region(&self) -> Region {
        self.region
    }

    fn head_addr(&self) -> Addr {
        self.region.start() + 8
    }
    fn live_addr(&self) -> Addr {
        self.region.start() + 16
    }
    fn frees_addr(&self) -> Addr {
        self.region.start() + 24
    }
    fn in_use_addr(&self) -> Addr {
        self.region.start() + 32
    }
    fn first_block(&self) -> Addr {
        (self.region.start() + ROOT_WORDS * 8).align_up(8)
    }
    fn end(&self) -> Addr {
        self.region.end()
    }

    fn unlink<M: AllocMem>(&self, mem: &mut M, block: Addr) -> Result<(), Halted> {
        let next = mem.read_u64(block + 16);
        let prev = mem.read_u64(block + 24);
        if prev == 0 {
            mem.write_u64(self.head_addr(), next)?;
        } else {
            mem.write_u64(Addr::new(prev) + 16, next)?;
        }
        if next != 0 {
            mem.write_u64(Addr::new(next) + 24, prev)?;
        }
        Ok(())
    }

    fn push<M: AllocMem>(&self, mem: &mut M, block: Addr) -> Result<(), Halted> {
        let old = mem.read_u64(self.head_addr());
        mem.write_u64(block + 16, old)?;
        mem.write_u64(block + 24, 0)?;
        if old != 0 {
            mem.write_u64(Addr::new(old) + 24, block.as_u64())?;
        }
        mem.write_u64(self.head_addr(), block.as_u64())
    }

    /// Allocates `size` payload bytes. The inner result is the
    /// allocation: the payload address, or [`OutOfMemory`] if no free
    /// block can satisfy the request.
    ///
    /// # Errors
    ///
    /// [`Halted`] when a write of `mem` halts mid-allocation.
    pub fn alloc<M: AllocMem>(
        &self,
        mem: &mut M,
        size: u64,
    ) -> Result<Result<Addr, OutOfMemory>, Halted> {
        let need = (HDR + size.max(16) + 7) & SIZE_MASK;
        // First fit.
        let mut cursor = mem.read_u64(self.head_addr());
        let block = loop {
            if cursor == 0 {
                return Ok(Err(OutOfMemory { requested: size }));
            }
            let b = Addr::new(cursor);
            let bsize = mem.read_u64(b) & SIZE_MASK;
            if bsize >= need {
                break b;
            }
            cursor = mem.read_u64(b + 16);
        };
        let bsize = mem.read_u64(block) & SIZE_MASK;
        self.unlink(mem, block)?;
        let mut taken = bsize;
        if bsize - need >= MIN_BLOCK {
            // Split: the tail becomes a new free block.
            taken = need;
            let rem = block + need;
            let rem_size = bsize - need;
            mem.write_u64(rem, rem_size)?;
            mem.write_u64(rem + 8, need)?;
            self.push(mem, rem)?;
            let after = rem + rem_size;
            if after < self.end() {
                mem.write_u64(after + 8, rem_size)?;
            }
        }
        mem.write_u64(block, taken | IN_USE)?;
        // Heap statistics (Vista keeps equivalents; they are metadata writes).
        let live = mem.read_u64(self.live_addr());
        mem.write_u64(self.live_addr(), live + 1)?;
        let used = mem.read_u64(self.in_use_addr());
        mem.write_u64(self.in_use_addr(), used + taken)?;
        Ok(Ok(block + HDR))
    }

    /// Frees the allocation whose payload starts at `payload`, coalescing
    /// with free neighbours.
    ///
    /// # Errors
    ///
    /// [`Halted`] when a write of `mem` halts mid-free.
    ///
    /// # Panics
    ///
    /// Panics if `payload` does not point at a live allocation from this
    /// heap.
    pub fn free<M: AllocMem>(&self, mem: &mut M, payload: Addr) -> Result<(), Halted> {
        let mut block = payload - HDR;
        assert!(
            block >= self.first_block() && block < self.end(),
            "free of foreign pointer {payload}"
        );
        let sf = mem.read_u64(block);
        assert!(sf & IN_USE != 0, "double free at {payload}");
        let mut size = sf & SIZE_MASK;

        let taken = size;

        // Coalesce with the following block.
        let next = block + size;
        if next < self.end() {
            let nsf = mem.read_u64(next);
            if nsf & IN_USE == 0 {
                self.unlink(mem, next)?;
                size += nsf & SIZE_MASK;
            }
        }
        // Coalesce with the preceding block.
        let prev_size = mem.read_u64(block + 8);
        if prev_size != 0 {
            let prev = block - prev_size;
            let psf = mem.read_u64(prev);
            if psf & IN_USE == 0 {
                self.unlink(mem, prev)?;
                block = prev;
                size += psf & SIZE_MASK;
            }
        }
        mem.write_u64(block, size)?;
        let after = block + size;
        if after < self.end() {
            mem.write_u64(after + 8, size)?;
        }
        self.push(mem, block)?;
        let live = mem.read_u64(self.live_addr());
        mem.write_u64(self.live_addr(), live - 1)?;
        let frees = mem.read_u64(self.frees_addr());
        mem.write_u64(self.frees_addr(), frees + 1)?;
        let used = mem.read_u64(self.in_use_addr());
        mem.write_u64(self.in_use_addr(), used - taken)
    }

    /// Reads back the persistent statistics plus a block-walk census.
    pub fn stats<M: AllocMem>(&self, mem: &mut M) -> HeapStats {
        let mut blocks = 0;
        let mut free_blocks = 0;
        let mut b = self.first_block();
        while b < self.end() {
            let sf = mem.read_u64(b);
            blocks += 1;
            if sf & IN_USE == 0 {
                free_blocks += 1;
            }
            let size = sf & SIZE_MASK;
            if size == 0 {
                break;
            }
            b = b + size;
        }
        HeapStats {
            live_allocs: mem.read_u64(self.live_addr()),
            bytes_in_use: mem.read_u64(self.in_use_addr()),
            blocks,
            free_blocks,
        }
    }

    /// Walks the whole heap and verifies the boundary-tag and free-list
    /// invariants.
    ///
    /// # Errors
    ///
    /// Returns [`HeapCorruption`] describing the first violation found.
    pub fn check_consistency<M: AllocMem>(&self, mem: &mut M) -> Result<HeapStats, HeapCorruption> {
        let mut prev_size = 0u64;
        let mut free_walk = 0u64;
        let mut b = self.first_block();
        let mut blocks = 0u64;
        while b < self.end() {
            let sf = mem.read_u64(b);
            let size = sf & SIZE_MASK;
            if size < MIN_BLOCK {
                return Err(HeapCorruption(format!("block at {b} has size {size}")));
            }
            let recorded_prev = mem.read_u64(b + 8);
            if recorded_prev != prev_size {
                return Err(HeapCorruption(format!(
                    "block at {b}: prev_size {recorded_prev}, expected {prev_size}"
                )));
            }
            if sf & IN_USE == 0 {
                free_walk += 1;
            }
            prev_size = size;
            b = b + size;
            blocks += 1;
        }
        if b != self.end().align_down(8) && b != self.end() {
            return Err(HeapCorruption(format!(
                "walk ended at {b}, heap ends at {}",
                self.end()
            )));
        }
        // Count the free list and cross-check.
        let mut list = 0u64;
        let mut cursor = mem.read_u64(self.head_addr());
        let mut hops = 0;
        while cursor != 0 {
            let c = Addr::new(cursor);
            if mem.read_u64(c) & IN_USE != 0 {
                return Err(HeapCorruption(format!("allocated block {c} on free list")));
            }
            list += 1;
            cursor = mem.read_u64(c + 16);
            hops += 1;
            if hops > blocks + 1 {
                return Err(HeapCorruption("free list cycle".to_string()));
            }
        }
        if list != free_walk {
            return Err(HeapCorruption(format!(
                "free list has {list} blocks, walk found {free_walk}"
            )));
        }
        Ok(HeapStats {
            live_allocs: mem.read_u64(self.live_addr()),
            bytes_in_use: mem.read_u64(self.in_use_addr()),
            blocks,
            free_blocks: free_walk,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Arena;
    use crate::RawMem;

    fn heap(cap: u64) -> (Arena, FreeListHeap) {
        let mut arena = Arena::new(cap);
        let region = Region::new(Addr::new(0), cap);
        let h = {
            let mut mem = RawMem::new(&mut arena);
            FreeListHeap::format(&mut mem, region).expect("unarmed")
        };
        (arena, h)
    }

    #[test]
    fn alloc_free_round_trip() -> Result<(), Halted> {
        let (mut arena, h) = heap(1 << 14);
        let mut mem = RawMem::new(&mut arena);
        let a = h.alloc(&mut mem, 64)?.unwrap();
        let b = h.alloc(&mut mem, 64)?.unwrap();
        assert!(b.as_u64() >= a.as_u64() + 64);
        h.free(&mut mem, a)?;
        h.free(&mut mem, b)?;
        let stats = h.check_consistency(&mut mem).unwrap();
        assert_eq!(stats.live_allocs, 0);
        assert_eq!(stats.free_blocks, 1, "full coalescing back to one block");
        Ok(())
    }

    #[test]
    fn coalescing_in_both_directions() -> Result<(), Halted> {
        let (mut arena, h) = heap(1 << 14);
        let mut mem = RawMem::new(&mut arena);
        let blocks: Vec<Addr> = (0..4)
            .map(|_| h.alloc(&mut mem, 48).map(Result::unwrap))
            .collect::<Result<_, _>>()?;
        // Free middle two in both orders: prev and next coalescing paths.
        h.free(&mut mem, blocks[1])?;
        h.free(&mut mem, blocks[2])?;
        h.free(&mut mem, blocks[0])?;
        h.free(&mut mem, blocks[3])?;
        let stats = h.check_consistency(&mut mem).unwrap();
        assert_eq!(stats.free_blocks, 1);
        Ok(())
    }

    #[test]
    fn out_of_memory_is_reported() -> Result<(), Halted> {
        let (mut arena, h) = heap(256);
        let mut mem = RawMem::new(&mut arena);
        let err = h.alloc(&mut mem, 10_000)?.unwrap_err();
        assert_eq!(err.requested, 10_000);
        assert!(err.to_string().contains("10000-byte"));
        Ok(())
    }

    #[test]
    fn exhaustion_then_reuse() -> Result<(), Halted> {
        let (mut arena, h) = heap(4096);
        let mut mem = RawMem::new(&mut arena);
        let mut held = Vec::new();
        while let Ok(p) = h.alloc(&mut mem, 100)? {
            held.push(p);
        }
        assert!(held.len() >= 20);
        for p in held.drain(..) {
            h.free(&mut mem, p)?;
        }
        // Everything is reusable again.
        assert!(h.alloc(&mut mem, 2000)?.is_ok());
        h.check_consistency(&mut mem).unwrap();
        Ok(())
    }

    #[test]
    fn payloads_do_not_overlap() -> Result<(), Halted> {
        let (mut arena, h) = heap(1 << 14);
        let mut mem = RawMem::new(&mut arena);
        let sizes = [8u64, 100, 17, 250, 32, 64];
        let mut spans: Vec<Region> = Vec::new();
        for &s in &sizes {
            let p = h.alloc(&mut mem, s)?.unwrap();
            let r = Region::new(p, s);
            for other in &spans {
                assert!(!r.overlaps(*other));
            }
            spans.push(r);
        }
        Ok(())
    }

    #[test]
    #[should_panic]
    fn double_free_panics() {
        let (mut arena, h) = heap(1 << 12);
        let mut mem = RawMem::new(&mut arena);
        let p = h.alloc(&mut mem, 32).unwrap().unwrap();
        h.free(&mut mem, p).unwrap();
        h.free(&mut mem, p).unwrap();
    }

    #[test]
    fn stats_track_bytes() -> Result<(), Halted> {
        let (mut arena, h) = heap(1 << 13);
        let mut mem = RawMem::new(&mut arena);
        let p = h.alloc(&mut mem, 100)?.unwrap();
        let s = h.stats(&mut mem);
        assert_eq!(s.live_allocs, 1);
        assert!(s.bytes_in_use >= 100);
        h.free(&mut mem, p)?;
        let s = h.stats(&mut mem);
        assert_eq!(s.live_allocs, 0);
        assert_eq!(s.bytes_in_use, 0);
        Ok(())
    }

    #[test]
    fn attach_sees_existing_heap() -> Result<(), Halted> {
        let (mut arena, h) = heap(1 << 13);
        let p = {
            let mut mem = RawMem::new(&mut arena);
            h.alloc(&mut mem, 64)?.unwrap()
        };
        // Simulate reboot: a new handle over the same region.
        let h2 = FreeListHeap::attach(Region::new(Addr::new(0), 1 << 13));
        let mut mem = RawMem::new(&mut arena);
        assert_eq!(h2.stats(&mut mem).live_allocs, 1);
        h2.free(&mut mem, p)?;
        h2.check_consistency(&mut mem).unwrap();
        Ok(())
    }
}

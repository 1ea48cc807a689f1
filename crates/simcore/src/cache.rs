//! A direct-mapped processor cache model.
//!
//! The paper's AlphaServer 4100 processors front memory with an 8 MB
//! direct-mapped, 64-byte-line board cache, and the standalone ranking of the
//! engine versions (Table 3) is a locality story told by that cache: the
//! mirroring versions sweep a database-sized mirror through it, while the
//! improved log touches only a compact, reused log region.
//!
//! This model tracks one tag per line and reports hit/miss counts per access;
//! the caller converts those to virtual time using a
//! [`CostModel`](crate::CostModel).

use std::cell::RefCell;

use crate::addr::Addr;
use crate::listed::{KeptMaps, ListedMap};

/// Hit/miss counts returned by a cache access.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Number of lines that hit.
    pub hits: u64,
    /// Number of lines that missed.
    pub misses: u64,
}

impl CacheOutcome {
    /// Combines two outcomes.
    #[inline]
    pub fn merge(self, other: CacheOutcome) -> CacheOutcome {
        CacheOutcome {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }
}

/// A direct-mapped cache with configurable capacity and line size.
///
/// # Examples
///
/// ```
/// use dsnrep_simcore::{Addr, DirectMappedCache};
///
/// // A tiny 4-line cache with 64-byte lines.
/// let mut cache = DirectMappedCache::new(256, 64);
/// let cold = cache.touch(Addr::new(0), 64);
/// assert_eq!((cold.hits, cold.misses), (0, 1));
/// let warm = cache.touch(Addr::new(0), 64);
/// assert_eq!((warm.hits, warm.misses), (1, 0));
/// // 256 bytes further on maps to the same line and evicts it.
/// cache.touch(Addr::new(256), 64);
/// let evicted = cache.touch(Addr::new(0), 64);
/// assert_eq!(evicted.misses, 1);
/// ```
#[derive(Debug)]
pub struct DirectMappedCache {
    /// Tag per line, in chunks of [`CHUNK_LINES`] lines created on first
    /// touch: a missing chunk holds only invalid lines, so building the
    /// 8 MB board cache allocates no tags and a flush hands the chunks
    /// back to the thread's free list instead of resetting them. A cache
    /// of fewer lines is one chunk whose tail is never indexed. A tag is the full line number; `u32::MAX` marks
    /// an invalid line. 32-bit tags halve the host footprint of the tag
    /// arrays — which a many-node cell multiplies by machine count — and
    /// suffice for any line number below `u32::MAX`, i.e. 256 GB of
    /// simulated address space ([`touch`](DirectMappedCache::touch)
    /// asserts the bound). The map lists the chunks it holds, which is
    /// what a flush and a drop walk, and comes from a free list too.
    chunks: ListedMap<Box<Chunk>>,
    line_shift: u32,
    index_mask: u64,
    total: CacheOutcome,
    /// Number of lines holding a valid tag. A direct-mapped fill either
    /// replaces a valid line (occupancy unchanged) or claims an invalid
    /// one (occupancy +1), so a counter maintained on the miss path is
    /// exact without ever rescanning the tag array.
    occupied: u64,
}

const INVALID: u32 = u32::MAX;

/// Lines per tag chunk: 4 KiB of tags.
const CHUNK_LINES: usize = 1024;
const CHUNK_SHIFT: u32 = CHUNK_LINES.trailing_zeros();

type Chunk = [u32; CHUNK_LINES];

/// Tag chunks a thread's free list keeps at most: 1 MiB of tags.
const KEPT_CHUNKS: usize = 256;
/// Chunk maps a thread's free list keeps at most.
const KEPT_MAPS: usize = 8;
/// Longest chunk map the free list keeps: a 64 MiB cache of 64-byte
/// lines, 8 KiB of slots.
const KEPT_MAP_LEN: usize = 1024;

thread_local! {
    /// Tag chunks this thread's caches flushed or dropped, each handed
    /// to the next chunk a cache creates, refilled with [`INVALID`]
    /// first, and the chunk maps of dropped caches, emptied, for the next
    /// cache built. A fault campaign builds, flushes and drops machines
    /// plan after plan; this keeps it from taking their tags from the
    /// heap again.
    static KEPT: RefCell<KeptMaps<Box<Chunk>>> = const {
        RefCell::new(KeptMaps::new(KEPT_MAPS, KEPT_MAP_LEN, KEPT_CHUNKS, |_| Some(0)))
    };
}

/// The tag chunk holding line index `idx`, created all-invalid on first
/// touch. A free function so callers can update other fields while they
/// hold the chunk.
#[inline]
fn chunk(chunks: &mut ListedMap<Box<Chunk>>, idx: u64) -> &mut Chunk {
    chunks.get_or_insert_with((idx >> CHUNK_SHIFT) as usize, invalid_chunk)
}

#[cold]
fn invalid_chunk() -> Box<Chunk> {
    let kept = KEPT
        .try_with(|kept| kept.borrow_mut().take_value(Some(0)))
        .ok()
        .flatten();
    match kept {
        Some(mut chunk) => {
            chunk.fill(INVALID);
            chunk
        }
        None => Box::new([INVALID; CHUNK_LINES]),
    }
}

impl DirectMappedCache {
    /// Creates a cache of `capacity` bytes with `line_size`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if either argument is not a power of two, or if `capacity`
    /// is smaller than `line_size`.
    pub fn new(capacity: u64, line_size: u64) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "cache capacity must be a power of two"
        );
        assert!(
            line_size.is_power_of_two(),
            "cache line size must be a power of two"
        );
        assert!(capacity >= line_size, "cache must hold at least one line");
        let lines = capacity / line_size;
        let chunks = usize::try_from(lines.div_ceil(CHUNK_LINES as u64)).expect("cache too large");
        let chunks = KEPT
            .try_with(|kept| kept.borrow_mut().take_empty(chunks))
            .unwrap_or_else(|_| ListedMap::new(chunks));
        DirectMappedCache {
            chunks,
            line_shift: line_size.trailing_zeros(),
            index_mask: lines - 1,
            total: CacheOutcome::default(),
            occupied: 0,
        }
    }

    /// Tag chunks this thread's caches have taken from the heap so far:
    /// the chunks they created that the thread's free list of flushed and
    /// dropped chunks could not supply.
    pub fn heap_chunks() -> u64 {
        KEPT.try_with(|kept| kept.borrow().heap_values())
            .unwrap_or(0)
    }

    /// Chunk maps this thread's caches have taken from the heap so far:
    /// the caches built for which the thread's free list held no dropped
    /// cache's map long enough to reuse.
    pub fn heap_maps() -> u64 {
        KEPT.try_with(|kept| kept.borrow().heap_maps()).unwrap_or(0)
    }

    /// Creates the paper's board cache: 8 MB, direct-mapped, 64-byte lines.
    pub fn alpha_board_cache() -> Self {
        DirectMappedCache::new(8 * 1024 * 1024, 64)
    }

    /// The line size in bytes.
    #[inline]
    pub fn line_size(&self) -> u64 {
        1 << self.line_shift
    }

    /// The capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> u64 {
        (self.index_mask + 1) << self.line_shift
    }

    /// Accesses the `len` bytes at `addr` (read or write: the model is
    /// write-allocate and does not distinguish), returning per-line hit and
    /// miss counts.
    ///
    /// A zero-length access touches nothing. The line range is walked as
    /// index-contiguous tag-array chunks, so a large sequential access (a
    /// mirror copy, a log append) costs one bounds check and one stats
    /// merge per wrap of the index space instead of per line. The hit/miss
    /// outcome is identical to touching each line in order.
    ///
    /// A single-line hit — most word-sized accesses — is decided inline
    /// by the line's tag. Misses and multi-line walks take the
    /// out-of-line path.
    #[inline]
    pub fn touch(&mut self, addr: Addr, len: u64) -> CacheOutcome {
        if len != 0 {
            let first = addr.as_u64() >> self.line_shift;
            let last = (addr.as_u64() + len - 1) >> self.line_shift;
            assert!(
                last < u64::from(u32::MAX),
                "simulated address space exceeds the 32-bit line-tag range"
            );
            if first == last && self.holds(first) {
                self.total.hits += 1;
                return CacheOutcome { hits: 1, misses: 0 };
            }
        }
        self.walk(addr, len)
    }

    /// Whether `line`'s tag is resident (no chunk: an invalid line).
    #[inline]
    fn holds(&self, line: u64) -> bool {
        let idx = line & self.index_mask;
        self.chunks
            .get((idx >> CHUNK_SHIFT) as usize)
            .is_some_and(|tags| tags[(idx & (CHUNK_LINES as u64 - 1)) as usize] == line as u32)
    }

    /// The general touch: fills missing lines and walks multi-line ranges.
    #[inline(never)]
    fn walk(&mut self, addr: Addr, len: u64) -> CacheOutcome {
        if len == 0 {
            return CacheOutcome::default();
        }
        let first = addr.as_u64() >> self.line_shift;
        let last = (addr.as_u64() + len - 1) >> self.line_shift;
        let chunk_mask = CHUNK_LINES as u64 - 1;
        let mut out = CacheOutcome::default();
        let mut line = first;
        while line <= last {
            let idx = line & self.index_mask;
            // Lines map to consecutive indices until the chunk ends or
            // the index space wraps.
            let start = (idx & chunk_mask) as usize;
            let room = (self.index_mask - idx + 1).min(chunk_mask + 1 - start as u64);
            let n = room.min(last - line + 1) as usize;
            let tags = chunk(&mut self.chunks, idx);
            for (expect, tag) in (line as u32..).zip(&mut tags[start..start + n]) {
                if *tag == expect {
                    out.hits += 1;
                } else {
                    out.misses += 1;
                    self.occupied += u64::from(*tag == INVALID);
                    *tag = expect;
                }
            }
            line += n as u64;
        }
        self.total = self.total.merge(out);
        out
    }

    /// Cumulative hit/miss counts since construction or the last
    /// [`flush`](DirectMappedCache::flush).
    #[inline]
    pub fn stats(&self) -> CacheOutcome {
        self.total
    }

    /// Number of lines currently holding valid data, for occupancy gauges.
    #[inline]
    pub fn occupied_lines(&self) -> u64 {
        self.occupied
    }

    /// Invalidates every line (e.g. the cold cache after a reboot) and
    /// clears the cumulative statistics.
    pub fn flush(&mut self) {
        // Drained outside the closure: if the thread's locals are being
        // torn down, the drain still frees every chunk.
        let chunks = self.chunks.drain();
        let _ = KEPT.try_with(|kept| kept.borrow_mut().keep_values(chunks));
        self.total = CacheOutcome::default();
        self.occupied = 0;
    }
}

impl Drop for DirectMappedCache {
    /// Hands the chunks back, then the emptied map.
    fn drop(&mut self) {
        let map = std::mem::take(&mut self.chunks);
        let _ = KEPT.try_with(|kept| kept.borrow_mut().give_back(map));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_fill_misses_once_per_line() {
        let mut c = DirectMappedCache::new(1024, 64);
        let out = c.touch(Addr::new(0), 1024);
        assert_eq!(out.misses, 16);
        assert_eq!(out.hits, 0);
        let out = c.touch(Addr::new(0), 1024);
        assert_eq!(out.hits, 16);
        assert_eq!(out.misses, 0);
    }

    #[test]
    fn access_spanning_two_lines() {
        let mut c = DirectMappedCache::new(1024, 64);
        let out = c.touch(Addr::new(60), 8);
        assert_eq!(out.misses, 2);
    }

    #[test]
    fn conflict_eviction() {
        let mut c = DirectMappedCache::new(128, 64); // two lines
        c.touch(Addr::new(0), 1);
        c.touch(Addr::new(128), 1); // same index as 0
        let out = c.touch(Addr::new(0), 1);
        assert_eq!(out.misses, 1);
    }

    #[test]
    fn distinct_indices_coexist() {
        let mut c = DirectMappedCache::new(128, 64);
        c.touch(Addr::new(0), 1);
        c.touch(Addr::new(64), 1);
        let a = c.touch(Addr::new(0), 1);
        let b = c.touch(Addr::new(64), 1);
        assert_eq!(a.hits + b.hits, 2);
    }

    #[test]
    fn zero_length_touch_is_free() {
        let mut c = DirectMappedCache::new(128, 64);
        let out = c.touch(Addr::new(0), 0);
        assert_eq!(out, CacheOutcome::default());
        assert_eq!(c.stats(), CacheOutcome::default());
    }

    #[test]
    fn flush_invalidates_and_resets_stats() {
        let mut c = DirectMappedCache::new(128, 64);
        c.touch(Addr::new(0), 64);
        assert_eq!(c.occupied_lines(), 1);
        c.flush();
        assert_eq!(c.stats(), CacheOutcome::default());
        assert_eq!(c.occupied_lines(), 0);
        let out = c.touch(Addr::new(0), 64);
        assert_eq!(out.misses, 1);
    }

    /// Occupancy counts valid lines: fills raise it, conflict evictions
    /// and re-hits leave it unchanged, and it saturates at the line count.
    #[test]
    fn occupancy_tracks_valid_lines() {
        let mut c = DirectMappedCache::new(256, 64); // four lines
        assert_eq!(c.occupied_lines(), 0);
        c.touch(Addr::new(0), 128); // fills two lines
        assert_eq!(c.occupied_lines(), 2);
        c.touch(Addr::new(0), 64); // hit: no change
        assert_eq!(c.occupied_lines(), 2);
        c.touch(Addr::new(256), 64); // conflict-evicts line 0: no change
        assert_eq!(c.occupied_lines(), 2);
        c.touch(Addr::new(0), 4096); // sweep far larger than the cache
        assert_eq!(c.occupied_lines(), 4);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = DirectMappedCache::new(256, 64);
        c.touch(Addr::new(0), 256);
        c.touch(Addr::new(0), 256);
        let s = c.stats();
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits, 4);
    }

    #[test]
    fn alpha_preset_dimensions() {
        let c = DirectMappedCache::alpha_board_cache();
        assert_eq!(c.capacity(), 8 * 1024 * 1024);
        assert_eq!(c.line_size(), 64);
    }

    #[test]
    #[should_panic]
    fn rejects_non_power_of_two() {
        let _ = DirectMappedCache::new(100, 64);
    }

    /// The flat tag array the chunked one replaced, driven by the
    /// pre-optimization per-line loop: the oracle for the `touch`
    /// equivalence property.
    struct FlatCache {
        tags: Vec<u32>,
        line_shift: u32,
        total: CacheOutcome,
    }

    impl FlatCache {
        fn new(capacity: u64, line_size: u64) -> Self {
            FlatCache {
                tags: vec![INVALID; (capacity / line_size) as usize],
                line_shift: line_size.trailing_zeros(),
                total: CacheOutcome::default(),
            }
        }

        fn touch(&mut self, addr: Addr, len: u64) -> CacheOutcome {
            if len == 0 {
                return CacheOutcome::default();
            }
            let first = addr.as_u64() >> self.line_shift;
            let last = (addr.as_u64() + len - 1) >> self.line_shift;
            let mut out = CacheOutcome::default();
            for line in first..=last {
                let idx = (line % self.tags.len() as u64) as usize;
                if self.tags[idx] == line as u32 {
                    out.hits += 1;
                } else {
                    out.misses += 1;
                    self.tags[idx] = line as u32;
                }
            }
            self.total = self.total.merge(out);
            out
        }

        fn flush(&mut self) {
            self.tags.fill(INVALID);
            self.total = CacheOutcome::default();
        }

        /// Valid lines, recounted from the tags.
        fn occupied(&self) -> u64 {
            self.tags.iter().filter(|&&t| t != INVALID).count() as u64
        }
    }

    impl DirectMappedCache {
        /// The tags as one flat array, a missing chunk as invalid lines.
        fn flat_tags(&self) -> Vec<u32> {
            let invalid = [INVALID; CHUNK_LINES];
            let tags = self
                .chunks
                .slots()
                .iter()
                .flat_map(|c| c.as_deref().unwrap_or(&invalid));
            tags.take((self.index_mask + 1) as usize).copied().collect()
        }
    }

    #[test]
    fn construction_and_flush_touch_only_touched_chunks() {
        let mut c = DirectMappedCache::alpha_board_cache();
        assert!(
            c.chunks.slots().iter().all(Option::is_none),
            "no tags before a touch"
        );
        c.touch(Addr::new(0), 64);
        c.touch(Addr::new(3 << 20), 8);
        assert_eq!(c.chunks.slots().iter().flatten().count(), 2);
        c.flush();
        assert!(
            c.chunks.slots().iter().all(Option::is_none),
            "a flush frees every chunk"
        );
        assert_eq!(c.occupied_lines(), 0);
        assert!(c.flat_tags().iter().all(|&t| t == INVALID));
    }

    /// A flushed cache's chunks go to the next cache on the thread,
    /// refilled with invalid tags, and a dropped cache's map with them.
    #[test]
    fn a_rebuilt_cache_takes_no_chunk_from_the_heap() {
        std::thread::spawn(|| {
            let touch = |c: &mut DirectMappedCache| {
                for k in 0..4u64 {
                    assert_eq!(c.touch(Addr::new(k << 20), 8).misses, 1);
                }
            };
            let taken = || {
                (
                    DirectMappedCache::heap_chunks(),
                    DirectMappedCache::heap_maps(),
                )
            };
            let mut c = DirectMappedCache::alpha_board_cache();
            touch(&mut c);
            assert_eq!(taken(), (4, 1));
            c.flush();
            touch(&mut c);
            drop(c);
            let mut fresh = DirectMappedCache::alpha_board_cache();
            touch(&mut fresh);
            assert_eq!(taken(), (4, 1), "the rebuilt cache reused chunks and map");
            assert_eq!(fresh.occupied_lines(), 4);
        })
        .join()
        .expect("the caches ran");
    }

    thread_local! {
        static HELD: RefCell<Option<DirectMappedCache>> = const { RefCell::new(None) };
    }

    /// A cache dropped while its thread's locals are torn down, the chunk
    /// list's among them, frees its chunks instead of panicking.
    #[test]
    fn a_cache_dropped_at_thread_exit_does_not_panic() {
        for first in [false, true] {
            std::thread::spawn(move || {
                if first {
                    // The free list is in use before the cache is stored.
                    DirectMappedCache::new(1 << 16, 64).touch(Addr::new(0), 8);
                }
                let mut c = DirectMappedCache::new(1 << 16, 64);
                c.touch(Addr::new(0), 8);
                HELD.with(|held| *held.borrow_mut() = Some(c));
            })
            .join()
            .expect("thread-local teardown dropped the cache quietly");
        }
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        #[derive(Clone, Copy, Debug)]
        enum Op {
            Flush,
            /// Drop the cache and build a fresh one of the same size,
            /// which takes the chunks and the chunk map the dropped one
            /// handed back.
            Rebuild,
            Touch(u64, u64),
            /// Touch 8 bytes of the last non-empty touch's first (`false`)
            /// or last (`true`) line again, after a single-line touch, a
            /// multi-line one or a flush: the inline hit, or a miss where
            /// a wrapping walk or a flush evicted the line. Random touches
            /// alone rarely repeat a line.
            Again(bool),
        }

        /// Long touches wrap even the largest cache tested.
        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                1 => Just(Op::Flush),
                1 => Just(Op::Rebuild),
                12 => (0u64..1 << 20, 0u64..2048).prop_map(|(a, l)| Op::Touch(a, l)),
                3 => (0u64..1 << 20, 0u64..1 << 19).prop_map(|(a, l)| Op::Touch(a, l)),
                6 => any::<bool>().prop_map(Op::Again),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// `touch` over chunked tags matches the per-line loop
            /// over a flat array in outcome, stats, occupancy and tag
            /// state after every step, with flushes, rebuilds and
            /// repeated lines interleaved, on caches smaller than, equal
            /// to and larger than one chunk. Every case runs on this
            /// test's thread, so chunks that earlier flushes, rebuilds
            /// and cases handed back are reused, and so are the chunk
            /// maps of dropped caches, of the same size or resized.
            #[test]
            fn touch_matches_per_line_reference(
                small_log2 in 1u32..10,
                large_log2 in 11u32..13,
                ops in prop::collection::vec(op(), 1..40),
            ) {
                let line = 64u64;
                for lines_log2 in [small_log2, CHUNK_LINES.trailing_zeros(), large_log2] {
                    let capacity = line << lines_log2;
                    let mut fast = DirectMappedCache::new(capacity, line);
                    let mut oracle = FlatCache::new(capacity, line);
                    // First and last line of the last non-empty touch.
                    let mut lines = (0u64, 0u64);
                    for &op in &ops {
                        let touch = match op {
                            Op::Flush => {
                                fast.flush();
                                oracle.flush();
                                None
                            }
                            Op::Rebuild => {
                                drop(fast);
                                fast = DirectMappedCache::new(capacity, line);
                                oracle = FlatCache::new(capacity, line);
                                None
                            }
                            Op::Touch(addr, len) => Some((addr, len)),
                            Op::Again(last) => Some(((if last { lines.1 } else { lines.0 }) * line, 8)),
                        };
                        if let Some((addr, len)) = touch {
                            let got = fast.touch(Addr::new(addr), len);
                            let want = oracle.touch(Addr::new(addr), len);
                            prop_assert_eq!(got, want, "outcome diverged at addr {} len {}", addr, len);
                            if len > 0 {
                                lines = (addr / line, (addr + len - 1) / line);
                            }
                        }
                        prop_assert_eq!(fast.stats(), oracle.total);
                        prop_assert_eq!(fast.occupied_lines(), oracle.occupied());
                        prop_assert_eq!(&fast.flat_tags(), &oracle.tags, "tag state diverged");
                    }
                }
            }
        }
    }
}

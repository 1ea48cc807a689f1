//! The recoverable-memory arena.
//!
//! An [`Arena`] stands in for Rio reliable memory: a flat byte space whose
//! contents survive a simulated crash. Pages are allocated lazily, so a
//! "1 GB database" experiment only materializes the pages it actually
//! touches (the paper's Table 8 sweeps database sizes up to 1 GB). A
//! page's length follows the arena's ([`Arena::page_len`]), so a small
//! arena materializes, clones and compares small pages.
//!
//! The arena is deliberately *dumb*: it stores bytes. All cost accounting
//! (cache model, write doubling) happens in the layers above, which is what
//! lets recovery code and test oracles read arenas for free.

use core::fmt;

use dsnrep_simcore::listed::Slot;
use dsnrep_simcore::{copy_small, Addr, Halted, Region};

use crate::frames::{self, PageMap};

/// Shortest page of any arena.
pub(crate) const MIN_PAGE_LEN: u64 = 4 * 1024;
/// Longest page of any arena.
const MAX_PAGE_LEN: u64 = 64 * 1024;

/// One piece of an arena byte run, as [`Arena::pieces`] lends it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Piece<'a> {
    /// Bytes of one materialized page.
    Bytes(&'a [u8]),
    /// This many bytes of unmaterialized pages, which read as zeros.
    Zeros(usize),
}

impl Piece<'_> {
    /// Bytes in the piece.
    pub fn len(&self) -> usize {
        match self {
            Piece::Bytes(bytes) => bytes.len(),
            Piece::Zeros(n) => *n,
        }
    }

    /// Whether the piece holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether every byte of the piece is zero.
    fn is_zero(&self) -> bool {
        match self {
            Piece::Bytes(bytes) => first_nonzero(bytes).is_none(),
            Piece::Zeros(_) => true,
        }
    }
}

/// Stores `piece` at `page_off` of the page in `slot`, a page of
/// `page_len` bytes. An unmaterialized page already reads as zeros, so it
/// is materialized only for a piece holding a nonzero byte.
fn put(slot: Slot<'_, Box<[u8]>>, page_len: usize, page_off: usize, piece: Piece<'_>) {
    if !slot.is_filled() && piece.is_zero() {
        return;
    }
    let page = slot.get_or_insert_with(|| frames::zeroed(page_len));
    let dst = &mut page[page_off..page_off + piece.len()];
    match piece {
        Piece::Bytes(bytes) => dst.copy_from_slice(bytes),
        Piece::Zeros(_) => dst.fill(0),
    }
}

/// A flat, lazily paged, crash-surviving byte space.
///
/// Untouched bytes read as zero, mirroring freshly mapped recoverable
/// memory. Page frames and the page map come from, and go back to, a
/// per-thread free list, so a thread that builds and drops arenas over
/// and over (a fault campaign) stops taking either from the heap once it
/// is warm.
///
/// # Examples
///
/// ```
/// use dsnrep_rio::Arena;
/// use dsnrep_simcore::Addr;
///
/// let mut arena = Arena::new(1 << 20);
/// arena.write(Addr::new(4096), b"hello");
/// let mut buf = [0u8; 5];
/// arena.read_into(Addr::new(4096), &mut buf);
/// assert_eq!(&buf, b"hello");
/// assert_eq!(arena.read_u64(Addr::new(0)), 0); // untouched bytes are zero
/// ```
pub struct Arena {
    /// A slot per page, holding its frame once materialized. The map
    /// lists its materialized pages: what
    /// [`pages_touched`](Arena::pages_touched) counts and what `Clone`
    /// and `Drop` walk, so neither pays for the whole address space.
    pages: PageMap,
    /// Log2 of [`page_len`](Arena::page_len): an offset's page is
    /// `off >> page_shift`.
    page_shift: u32,
    len: u64,
    /// Monotone count of [`Arena::try_write`] and [`Arena::try_copy`]
    /// calls that went through, the only mutations. Each call consumes one
    /// unit of an armed write budget before it mutates anything, so this
    /// counter enumerates the halt points the fault-injection layer can
    /// crash at — including recovery-procedure writes that bypass the
    /// machine's store accounting.
    writes: u64,
    /// Armed fault: remaining writes before a simulated halt.
    write_budget: Option<u64>,
}

impl Clone for Arena {
    fn clone(&self) -> Self {
        let mut pages = frames::empty_map(self.pages.len());
        pages.copy_from(&self.pages, |page| frames::copy_of(page));
        Arena { pages, ..*self }
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        frames::recycle_map(core::mem::take(&mut self.pages));
    }
}

impl fmt::Debug for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arena")
            .field("len", &self.len)
            .field("pages_touched", &self.pages_touched())
            .finish()
    }
}

impl Arena {
    /// Creates an arena of `len` addressable bytes, paged as
    /// [`Arena::page_len`] says.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(len: u64) -> Self {
        assert!(len > 0, "arena must not be empty");
        let page_len = len
            .div_ceil(1024)
            .clamp(MIN_PAGE_LEN, MAX_PAGE_LEN)
            .next_power_of_two();
        let pages = len.div_ceil(page_len);
        Arena {
            pages: frames::empty_map(usize::try_from(pages).expect("arena too large")),
            page_shift: page_len.trailing_zeros(),
            len,
            writes: 0,
            write_budget: None,
        }
    }

    /// Page frames this thread's arenas have taken from the heap so far:
    /// the pages they materialized or cloned that the thread's free list
    /// of dropped frames could not supply. An allocation gate counts them
    /// apart, as the simulated memory itself.
    pub fn heap_frames() -> u64 {
        frames::heap_frames()
    }

    /// Page maps this thread's arenas have taken from the heap so far:
    /// the arenas built or cloned for which the thread's free list held
    /// no dropped arena's map long enough to reuse.
    pub fn heap_maps() -> u64 {
        frames::heap_maps()
    }

    /// Monotone count of writes and copies since construction (clones
    /// inherit the count). Recovery procedures mutate the arena directly,
    /// so deltas of this counter enumerate mid-recovery crash points.
    #[inline]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Arms a fault: after `budget` more writes (a copy counts as one),
    /// the arena halts. The write that finds the budget at zero returns
    /// [`Halted`] and mutates nothing — no byte, no write count — and so
    /// does every later write until [`Arena::clear_halt`]. `0` halts the
    /// very next write. Fault campaigns arm it on a recovering node's
    /// arena to crash recovery mid-flight.
    pub fn inject_halt_after_writes(&mut self, budget: u64) {
        self.write_budget = Some(budget);
    }

    /// Disarms any pending (or tripped) write-budget fault, e.g. before
    /// resuming recovery over a surviving arena.
    pub fn clear_halt(&mut self) {
        self.write_budget = None;
    }

    /// Consumes one unit of the armed write budget, halting at zero.
    #[inline]
    fn consume_write_budget(&mut self) -> Result<(), Halted> {
        match &mut self.write_budget {
            None => Ok(()),
            Some(0) => Err(Halted),
            Some(budget) => {
                *budget -= 1;
                Ok(())
            }
        }
    }

    /// Total addressable bytes.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` if the arena has zero length (never: construction
    /// forbids it), present for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes in one lazily allocated page: a 1024th of the arena's
    /// length, rounded up to a power of two and clamped to 4–64 KiB. The
    /// page table so holds at most 1024 entries up to 64 MiB, and every
    /// arena over 32 MiB has 64 KiB pages.
    #[inline]
    pub fn page_len(&self) -> usize {
        1 << self.page_shift
    }

    /// Splits `off` into its page index and its offset in that page.
    #[inline(always)]
    fn page_of(&self, off: usize) -> (usize, usize) {
        (off >> self.page_shift, off & (self.page_len() - 1))
    }

    /// Number of pages that have been materialized by writes.
    #[inline]
    pub fn pages_touched(&self) -> usize {
        self.pages.filled().len()
    }

    #[inline]
    fn check(&self, addr: Addr, len: usize) {
        let end = addr
            .as_u64()
            .checked_add(len as u64)
            .expect("address overflow");
        assert!(
            end <= self.len,
            "arena access out of bounds: {} + {} bytes > arena length {}",
            addr,
            len,
            self.len
        );
    }

    /// Writes `bytes` at `addr`, for callers that never run under an armed
    /// write budget (set-up, oracles, SAN delivery to a live peer).
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside the arena, or if an armed write
    /// budget halts the write: code that may run under one calls
    /// [`Arena::try_write`].
    #[inline(always)]
    pub fn write(&mut self, addr: Addr, bytes: &[u8]) {
        self.try_write(addr, bytes)
            .expect("an infallible arena write ran under an armed write budget");
    }

    /// Writes `bytes` at `addr`. All-zero bytes leave an unmaterialized
    /// page unmaterialized: it already reads as zeros.
    ///
    /// Inlined across crates, so a word written through it keeps its
    /// length a compile-time constant and `copy_small`'s length dispatch
    /// folds away.
    ///
    /// # Errors
    ///
    /// [`Halted`] when an armed write budget is spent; nothing is written
    /// (see [`Arena::inject_halt_after_writes`]).
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside the arena.
    #[inline(always)]
    pub fn try_write(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), Halted> {
        self.consume_write_budget()?;
        self.writes += 1;
        self.check(addr, bytes.len());
        let off = addr.as_usize();
        let (page_idx, page_off) = self.page_of(off);
        // Fast path: the write stays inside one materialized page
        // (virtually all simulated stores are word-sized); `copy_small`
        // keeps these copies inline instead of calling libc.
        if bytes.len() <= self.page_len() - page_off {
            if let Some(page) = self.pages.get_mut(page_idx) {
                copy_small(&mut page[page_off..page_off + bytes.len()], bytes);
                return Ok(());
            }
        }
        self.store_pieces(off, bytes);
        Ok(())
    }

    /// The general write, page piece by page piece: materializes pages
    /// for nonzero bytes and crosses page edges.
    #[inline(never)]
    fn store_pieces(&mut self, mut off: usize, mut src: &[u8]) {
        let page_len = self.page_len();
        while !src.is_empty() {
            let (page_idx, page_off) = self.page_of(off);
            let n = (page_len - page_off).min(src.len());
            put(
                self.pages.slot(page_idx),
                page_len,
                page_off,
                Piece::Bytes(&src[..n]),
            );
            src = &src[n..];
            off += n;
        }
    }

    /// Reads `buf.len()` bytes starting at `addr` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside the arena.
    #[inline(always)]
    pub fn read_into(&self, addr: Addr, buf: &mut [u8]) {
        self.check(addr, buf.len());
        let off = addr.as_usize();
        let (page_idx, page_off) = self.page_of(off);
        // Fast path mirroring `write`: single-page reads stay inline.
        if buf.len() <= self.page_len() - page_off {
            match self.pages.get(page_idx) {
                Some(page) => copy_small(buf, &page[page_off..page_off + buf.len()]),
                None => buf.fill(0),
            }
            return;
        }
        self.load_pieces(off, buf);
    }

    /// The general read across page edges; unmaterialized pages read as
    /// zeros.
    #[inline(never)]
    fn load_pieces(&self, mut off: usize, mut dst: &mut [u8]) {
        while !dst.is_empty() {
            let (page_idx, page_off) = self.page_of(off);
            let n = (self.page_len() - page_off).min(dst.len());
            match self.pages.get(page_idx) {
                Some(page) => dst[..n].copy_from_slice(&page[page_off..page_off + n]),
                None => dst[..n].fill(0),
            }
            let rest = core::mem::take(&mut dst);
            dst = &mut rest[n..];
            off += n;
        }
    }

    /// Borrows the `len` bytes at `addr` piece by piece, in address order
    /// and without copying. A [`Piece::Bytes`] lies inside one
    /// materialized page; a [`Piece::Zeros`] is a maximal run of
    /// unmaterialized pages, so two never follow each other.
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside the arena.
    ///
    /// # Examples
    ///
    /// ```
    /// use dsnrep_rio::{Arena, Piece};
    /// use dsnrep_simcore::Addr;
    ///
    /// let mut arena = Arena::new(5 * 4096);
    /// let page = arena.page_len() as u64;
    /// assert_eq!(page, 4096);
    /// arena.write(Addr::new(page - 1), &[7, 8]);
    /// let pieces: Vec<Piece> = arena.pieces(Addr::new(page - 1), 4).collect();
    /// assert_eq!(pieces, [Piece::Bytes(&[7]), Piece::Bytes(&[8, 0, 0])]);
    /// // Pages 2, 3 and 4 were never written: one run of zeros.
    /// let far: Vec<Piece> = arena.pieces(Addr::new(2 * page), 3 * 4096).collect();
    /// assert_eq!(far, [Piece::Zeros(3 * 4096)]);
    /// ```
    pub fn pieces(&self, addr: Addr, len: usize) -> impl Iterator<Item = Piece<'_>> + '_ {
        self.check(addr, len);
        let (mut off, end) = (addr.as_usize(), addr.as_usize() + len);
        core::iter::from_fn(move || {
            if off == end {
                return None;
            }
            let (page_idx, page_off) = self.page_of(off);
            let piece = match self.pages.get(page_idx) {
                Some(page) => {
                    let n = (self.page_len() - page_off).min(end - off);
                    Piece::Bytes(&page[page_off..page_off + n])
                }
                None => {
                    // The run ends at the next materialized page, or at `end`.
                    let last = (end - 1) >> self.page_shift;
                    let rest = &self.pages.slots()[page_idx + 1..=last];
                    let run_end = rest
                        .iter()
                        .position(Option::is_some)
                        .map_or(end, |k| (page_idx + 1 + k) << self.page_shift);
                    Piece::Zeros(run_end - off)
                }
            };
            off += piece.len();
            Some(piece)
        })
    }

    /// Reads `len` bytes at `addr` into a fresh vector.
    pub fn read_vec(&self, addr: Addr, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read_into(addr, &mut v);
        v
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read_into(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Panics
    ///
    /// As [`Arena::write`].
    pub fn write_u64(&mut self, addr: Addr, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian `u64` at `addr`, under any write budget.
    ///
    /// # Errors
    ///
    /// As [`Arena::try_write`].
    pub fn try_write_u64(&mut self, addr: Addr, value: u64) -> Result<(), Halted> {
        self.try_write(addr, &value.to_le_bytes())
    }

    /// Reads a little-endian `u32` at `addr`.
    pub fn read_u32(&self, addr: Addr) -> u32 {
        let mut b = [0u8; 4];
        self.read_into(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `i64` at `addr`.
    pub fn read_i64(&self, addr: Addr) -> i64 {
        self.read_u64(addr) as i64
    }

    /// Writes a little-endian `i64` at `addr`.
    pub fn write_i64(&mut self, addr: Addr, value: i64) {
        self.write_u64(addr, value as u64)
    }

    /// Copies `len` bytes from `src` to `dst` within the arena, as one
    /// [`try_write`](Arena::try_write) of what `src` reads as. Ranges may
    /// not overlap. Works page piece by page piece without a buffer; a
    /// piece whose source and destination pages are both unmaterialized is
    /// skipped.
    ///
    /// # Errors
    ///
    /// [`Halted`] when an armed write budget is spent; nothing is copied.
    ///
    /// # Panics
    ///
    /// Panics if either range is out of bounds or if they overlap.
    pub fn try_copy(&mut self, src: Addr, dst: Addr, len: usize) -> Result<(), Halted> {
        assert!(
            !Region::new(src, len as u64).overlaps(Region::new(dst, len as u64)),
            "arena copy ranges overlap"
        );
        self.check(src, len);
        self.consume_write_budget()?;
        self.writes += 1;
        self.check(dst, len);
        let page_len = self.page_len();
        let (mut s, mut d, end) = (src.as_usize(), dst.as_usize(), src.as_usize() + len);
        while s < end {
            let (sp, so) = self.page_of(s);
            let (dp, dof) = self.page_of(d);
            let n = (page_len - so).min(page_len - dof).min(end - s);
            if sp == dp {
                // Disjoint runs of one page; an unmaterialized page reads
                // as zeros on both sides.
                if let Some(page) = self.pages.get_mut(sp) {
                    page.copy_within(so..so + n, dof);
                }
            } else {
                let (from, to) = self.pages.pair(sp, dp);
                let piece = match from {
                    Some(page) => Piece::Bytes(&page[so..so + n]),
                    None => Piece::Zeros(n),
                };
                put(to, page_len, dof, piece);
            }
            s += n;
            d += n;
        }
        Ok(())
    }

    /// Returns the whole region's bytes; intended for test oracles on small
    /// regions.
    pub fn region_vec(&self, region: Region) -> Vec<u8> {
        self.read_vec(
            region.start(),
            usize::try_from(region.len()).expect("region too large"),
        )
    }
}

/// The expected side of [`first_difference`]: a byte image that finds
/// where it differs from actual bytes, and where its nonzero bytes are,
/// which is where a [`Piece::Zeros`] differs from it. An image need not
/// keep its zeros: only these two questions are asked.
pub trait Image {
    /// Bytes in the image.
    fn len(&self) -> usize;

    /// Whether the image holds no bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Offset of the first byte in `from..from + actual.len()` where the
    /// image differs from `actual`, which lies at `from`, if any.
    fn first_unequal(&self, from: usize, actual: &[u8]) -> Option<usize>;

    /// Offset of the first nonzero byte in `from..to`, if any.
    fn first_nonzero(&self, from: usize, to: usize) -> Option<usize>;
}

/// A flat image compares a cache line at a time (a memcmp per line).
impl Image for [u8] {
    fn len(&self) -> usize {
        <[u8]>::len(self)
    }

    fn first_unequal(&self, from: usize, actual: &[u8]) -> Option<usize> {
        first_unequal(&self[from..from + actual.len()], actual).map(|d| from + d)
    }

    fn first_nonzero(&self, from: usize, to: usize) -> Option<usize> {
        first_nonzero(&self[from..to]).map(|d| from + d)
    }
}

/// Offset of the first byte where `actual` — consecutive pieces of one
/// byte run, such as [`Arena::pieces`] or a single [`Piece::Bytes`] —
/// differs from `image` and `explain` does not account for it.
///
/// A [`Piece::Bytes`] differs where [`Image::first_unequal`] says, a
/// [`Piece::Zeros`] where [`Image::first_nonzero`] finds a nonzero byte,
/// so its zeros are never compared. `explain` is asked only about bytes
/// that actually differ. It returns the end (exclusive) of the explained
/// run holding that offset, and the comparison resumes there, or `None`
/// when the difference is unexplained. `|_| None` makes this a plain
/// first-mismatch search.
///
/// # Panics
///
/// Panics if the pieces hold more bytes than `image`.
///
/// # Examples
///
/// ```
/// use dsnrep_rio::{first_difference, Piece};
///
/// let image: [u8; 5] = [1, 2, 3, 4, 5];
/// let actual = [Piece::Bytes(&[1, 9, 3, 9, 5])];
/// assert_eq!(first_difference(&image[..], actual, |_| None), Some(1));
/// // Bytes 0..3 may differ: the comparison resumes at 3.
/// assert_eq!(first_difference(&image[..], actual, |at| (at < 3).then_some(3)), Some(3));
/// // An unmaterialized piece differs where the image is nonzero.
/// let sparse: [u8; 4] = [0, 0, 7, 0];
/// assert_eq!(first_difference(&sparse[..], [Piece::Zeros(4)], |_| None), Some(2));
/// ```
pub fn first_difference<'a>(
    image: &(impl Image + ?Sized),
    actual: impl IntoIterator<Item = Piece<'a>>,
    mut explain: impl FnMut(usize) -> Option<usize>,
) -> Option<usize> {
    let mut off = 0;
    // Differences before `resume` are already explained.
    let mut resume = 0usize;
    for piece in actual {
        let end = off + piece.len();
        assert!(end <= image.len(), "more actual bytes than image bytes");
        // The first difference at or after `at`.
        let next = |at: usize| match piece {
            Piece::Bytes(p) => image.first_unequal(at, &p[at - off..]),
            Piece::Zeros(_) => image.first_nonzero(at, end),
        };
        let mut at = resume.max(off);
        while at < end {
            let Some(d) = next(at) else {
                break;
            };
            match explain(d) {
                Some(e) => resume = e.max(d + 1),
                None => return Some(d),
            }
            at = resume;
        }
        off = end;
    }
    None
}

/// Bytes compared or scanned at once: one cache line.
const LINE: usize = 64;

/// Index of the first unequal byte, compared a cache line at a time.
fn first_unequal(a: &[u8], b: &[u8]) -> Option<usize> {
    let lines = a.chunks(LINE).zip(b.chunks(LINE));
    for (k, (la, lb)) in lines.enumerate() {
        if la != lb {
            return la
                .iter()
                .zip(lb)
                .position(|(x, y)| x != y)
                .map(|j| k * LINE + j);
        }
    }
    None
}

/// Index of the first nonzero byte, found a cache line at a time (the
/// OR of a line vectorizes; a byte search would not).
fn first_nonzero(bytes: &[u8]) -> Option<usize> {
    for (k, line) in bytes.chunks(LINE).enumerate() {
        if line.iter().fold(0, |acc, &b| acc | b) != 0 {
            return line.iter().position(|&b| b != 0).map(|j| k * LINE + j);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_length_follows_the_arena_length() {
        const KIB: u64 = 1 << 10;
        const MIB: u64 = 1 << 20;
        for (len, page) in [
            (1, 4 * KIB),
            (64 * KIB, 4 * KIB),
            (4 * MIB, 4 * KIB),
            (4 * MIB + 1, 8 * KIB),
            (6 * MIB, 8 * KIB),
            (12 * MIB, 16 * KIB),
            (32 * MIB, 32 * KIB),
            (32 * MIB + 1, 64 * KIB),
            (54 * MIB, 64 * KIB),
            (64 * MIB, 64 * KIB),
            (1 << 30, 64 * KIB),
        ] {
            let a = Arena::new(len);
            assert_eq!(a.page_len() as u64, page, "an arena of {len} bytes");
            let entries = a.pages.len() as u64;
            assert_eq!(entries, len.div_ceil(page));
            assert!(len > 64 * MIB || entries <= 1024, "{entries} pages");
        }
    }

    #[test]
    fn zero_filled_by_default() {
        let a = Arena::new(3 << 16);
        assert_eq!(a.read_vec(Addr::new(12345), 16), vec![0u8; 16]);
        assert_eq!(a.pages_touched(), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut a = Arena::new(1 << 16);
        a.write(Addr::new(100), &[1, 2, 3, 4]);
        assert_eq!(a.read_vec(Addr::new(99), 6), vec![0, 1, 2, 3, 4, 0]);
    }

    #[test]
    fn cross_page_write_and_read() {
        let mut a = Arena::new(2 << 20);
        let addr = Addr::new(a.page_len() as u64 - 3);
        a.write(addr, b"abcdef");
        assert_eq!(a.read_vec(addr, 6), b"abcdef");
        assert_eq!(a.pages_touched(), 2);
    }

    #[test]
    fn typed_accessors() {
        let mut a = Arena::new(1 << 12);
        a.write_u64(Addr::new(8), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(a.read_u64(Addr::new(8)), 0xDEAD_BEEF_CAFE_F00D);
        a.write_i64(Addr::new(16), -42);
        assert_eq!(a.read_i64(Addr::new(16)), -42);
    }

    #[test]
    fn copy_non_overlapping() -> Result<(), Halted> {
        let mut a = Arena::new(1 << 12);
        a.write(Addr::new(0), b"xyz");
        a.try_copy(Addr::new(0), Addr::new(100), 3)?;
        assert_eq!(a.read_vec(Addr::new(100), 3), b"xyz");
        Ok(())
    }

    #[test]
    #[should_panic]
    fn copy_overlapping_panics() {
        let mut a = Arena::new(1 << 12);
        a.try_copy(Addr::new(0), Addr::new(4), 8).unwrap();
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_write_panics() {
        let mut a = Arena::new(64);
        a.write(Addr::new(60), &[0u8; 8]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let a = Arena::new(64);
        let mut buf = [0u8; 8];
        a.read_into(Addr::new(60), &mut buf);
    }

    #[test]
    fn lazily_pages() {
        let mut a = Arena::new(1 << 30); // 1 GB address space
        a.write(Addr::new(1 << 29), &[9]);
        assert_eq!(a.pages_touched(), 1);
        assert_eq!(a.read_vec(Addr::new(1 << 29), 1), vec![9]);
    }

    #[test]
    fn pages_touched_counter_is_stable() {
        let mut a = Arena::new(6 << 20);
        let page = a.page_len() as u64;
        a.write(Addr::new(0), &[1]);
        a.write(Addr::new(page - 1), &[2]); // same page: not a new materialization
        assert_eq!(a.pages_touched(), 1);
        a.write(Addr::new(page * 3), &[3]);
        assert_eq!(a.pages_touched(), 2);
        assert_eq!(a.clone().pages_touched(), 2);
    }

    #[test]
    fn write_counter_is_monotone_and_cloned() -> Result<(), Halted> {
        let mut a = Arena::new(1 << 12);
        assert_eq!(a.writes(), 0);
        a.write(Addr::new(0), &[1]);
        a.write_u64(Addr::new(8), 7);
        a.try_copy(Addr::new(0), Addr::new(64), 1)?; // one write
        assert_eq!(a.writes(), 3);
        assert_eq!(a.clone().writes(), 3);
        Ok(())
    }

    #[test]
    fn write_budget_halts_at_the_exact_write() {
        let mut a = Arena::new(1 << 12);
        a.inject_halt_after_writes(2);
        // Spending the last unit is not a halt.
        assert_eq!(a.try_write(Addr::new(0), &[1]), Ok(()));
        assert_eq!(a.try_write(Addr::new(1), &[2]), Ok(()));
        assert_eq!(a.try_write(Addr::new(2), &[3]), Err(Halted));
        // The halting write mutated nothing and did not count, and every
        // later write halts too.
        assert_eq!(a.read_vec(Addr::new(2), 1), vec![0]);
        assert_eq!(a.writes(), 2);
        assert_eq!(a.try_copy(Addr::new(0), Addr::new(8), 2), Err(Halted));
        assert_eq!(a.try_write_u64(Addr::new(8), 9), Err(Halted));
        assert_eq!(a.read_vec(Addr::new(8), 8), vec![0; 8]);
        assert_eq!(a.writes(), 2);
        a.clear_halt();
        a.write(Addr::new(2), &[3]);
        assert_eq!(a.read_vec(Addr::new(0), 3), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "armed write budget")]
    fn an_infallible_write_under_a_spent_budget_panics() {
        let mut a = Arena::new(1 << 12);
        a.inject_halt_after_writes(0);
        a.write(Addr::new(0), &[1]);
    }

    /// A `Bytes` piece stays inside one page; a `Zeros` piece is a
    /// maximal run of unmaterialized pages, however it meets the range.
    #[test]
    fn pieces_follow_pages_and_read_unwritten_pages_as_zeros() {
        let mut a = Arena::new(12 << 20);
        let page = a.page_len();
        let start = page as u64 - 2;
        a.write(Addr::new(start), &[1, 2]);
        a.write(Addr::new(3 * page as u64), &[3]);
        let len = 2 * page + 4;
        let pieces: Vec<Piece> = a.pieces(Addr::new(start), len).collect();
        assert_eq!(
            pieces.iter().map(Piece::len).collect::<Vec<_>>(),
            [2, 2 * page, 2]
        );
        assert_eq!(pieces[0], Piece::Bytes(&[1, 2]));
        assert_eq!(
            pieces[1],
            Piece::Zeros(2 * page),
            "pages 1 and 2 were never written"
        );
        let mut want = vec![0u8; len];
        want[..2].copy_from_slice(&[1, 2]);
        want[2 + 2 * page] = 3;
        let bytes: Vec<u8> = pieces
            .iter()
            .flat_map(|p| match *p {
                Piece::Bytes(b) => b.to_vec(),
                Piece::Zeros(n) => vec![0; n],
            })
            .collect();
        assert_eq!(bytes, want);
        assert_eq!(a.read_vec(Addr::new(start), len), want);
        assert_eq!(a.pages_touched(), 2, "walking materializes nothing");
        assert_eq!(a.pieces(Addr::new(0), 0).count(), 0);
        // A run that starts mid-page and ends with the range, and one
        // that ends mid-page.
        let tail: Vec<Piece> = a.pieces(Addr::new(4 * page as u64 + 5), 3 * page).collect();
        assert_eq!(tail, [Piece::Zeros(3 * page)]);
        let mid: Vec<Piece> = a.pieces(Addr::new(page as u64 + 7), page).collect();
        assert_eq!(mid, [Piece::Zeros(page)]);
    }

    #[test]
    fn zero_writes_and_copies_leave_pages_unmaterialized() -> Result<(), Halted> {
        let mut a = Arena::new(40 << 20);
        let page = a.page_len() as u64;
        a.write(Addr::new(page - 8), &[0; 16]);
        a.try_copy(Addr::new(2 * page), Addr::new(10), page as usize)?;
        assert_eq!(a.pages_touched(), 0);
        assert_eq!(a.writes(), 2, "skipped writes still count");
        // A materialized source page of zeros does not materialize the
        // destination; a nonzero byte does.
        a.write(Addr::new(2 * page), &[0, 5]);
        assert_eq!(a.pages_touched(), 1);
        a.try_copy(Addr::new(2 * page), Addr::new(3 * page), 1)?;
        assert_eq!(a.pages_touched(), 1);
        a.try_copy(Addr::new(2 * page), Addr::new(3 * page), 2)?;
        assert_eq!(a.pages_touched(), 2);
        assert_eq!(a.read_vec(Addr::new(3 * page), 2), [0, 5]);
        // Zeros still overwrite a materialized page.
        a.try_copy(Addr::new(0), Addr::new(3 * page), 2)?;
        assert_eq!(a.read_vec(Addr::new(3 * page), 2), [0, 0]);
        Ok(())
    }

    #[test]
    fn first_difference_resumes_past_explained_runs_across_pieces() {
        let image = &[0u8; 8][..];
        let actual = [[0, 0, 1, 1], [1, 0, 0, 1]];
        let pieces = || actual.iter().map(|p| Piece::Bytes(p));
        assert_eq!(first_difference(image, pieces(), |_| None), Some(2));
        // Bytes 2..5 are explained, straddling the piece edge; byte 7 is not.
        let mut asked = Vec::new();
        let explain = |at: usize| {
            asked.push(at);
            (at < 5).then_some(5)
        };
        assert_eq!(first_difference(image, pieces(), explain), Some(7));
        assert_eq!(asked, [2, 7], "explain sees only the first byte of a run");
        assert_eq!(first_difference(image, pieces(), |_| Some(8)), None);
        // The same, with the image as actual and zero pieces as image.
        let zeros = [Piece::Zeros(4), Piece::Zeros(4)];
        let flat = actual.concat();
        let explain = |at: usize| (at < 5).then_some(5);
        assert_eq!(first_difference(&flat[..], zeros, explain), Some(7));
        assert_eq!(first_difference(image, zeros, |_| None), None);
    }

    /// One step of the sparse-path equivalence property.
    #[derive(Clone, Debug)]
    enum Op {
        /// Write `len` bytes at `addr`: zeros, or a nonzero-led pattern.
        Write { addr: u64, len: usize, zero: bool },
        /// Copy `len` bytes from `src` to `dst` (skipped if they overlap).
        Copy { src: u64, dst: u64, len: usize },
        /// Arm a write budget.
        Arm(u64),
    }

    mod sparse_equivalence {
        use super::*;
        use proptest::prelude::*;

        /// Bytes the ops address: three pages and a bit of a fourth.
        fn window(page: usize) -> u64 {
            3 * page as u64 + 1234
        }

        /// Short runs inside a page, or runs across page edges.
        fn len(page: usize) -> impl Strategy<Value = usize> {
            prop_oneof![0usize..256, 0usize..2 * page]
        }

        /// Ops inside the [`window`] of an arena of `page`-byte pages.
        fn ops(page: usize) -> impl Strategy<Value = Vec<Op>> {
            let window = window(page);
            let op = prop_oneof![
                4 => (0..window, len(page), any::<bool>())
                    .prop_map(|(addr, len, zero)| Op::Write { addr, len, zero }),
                4 => (0..window, 0..window, len(page))
                    .prop_map(|(src, dst, len)| Op::Copy { src, dst, len }),
                1 => (0u64..3).prop_map(Op::Arm),
            ];
            prop::collection::vec(op, 1..40)
        }

        /// A state to compare: the window's contents, write count, pages
        /// touched.
        fn state(a: &Arena, window: u64) -> (Vec<u8>, u64, usize) {
            (
                a.read_vec(Addr::new(0), window as usize),
                a.writes(),
                a.pages_touched(),
            )
        }

        /// `try_copy` behaves as `read_vec` + `try_write` on an arena of
        /// `arena_len` bytes and `page`-byte pages: the same contents
        /// and write count, the same halts under a budget with nothing
        /// mutated by the halting call, and never more pages touched.
        /// Zero writes and copies leave the bytes of a flat model, and
        /// neither path touches more pages than writes that materialize
        /// every page they cover would.
        fn sparse_paths_match(
            arena_len: u64,
            page: usize,
            ops: Vec<Op>,
        ) -> Result<(), TestCaseError> {
            let window = window(page);
            let mut fast = Arena::new(arena_len);
            let mut slow = Arena::new(arena_len);
            prop_assert_eq!(fast.page_len(), page);
            let mut pages = std::collections::BTreeSet::new();
            let mut model = vec![0u8; window as usize];
            for op in ops {
                let before = state(&fast, window);
                let (result, slow_result) = match op {
                    Op::Arm(budget) => {
                        fast.inject_halt_after_writes(budget);
                        slow.inject_halt_after_writes(budget);
                        (Ok(()), Ok(()))
                    }
                    Op::Write { addr, len, zero } => {
                        let len = len.min((window - addr) as usize);
                        let bytes: Vec<u8> = (0..len)
                            .map(|i| if zero { 0 } else { (i % 251) as u8 + 1 })
                            .collect();
                        let (a, n) = (Addr::new(addr), bytes.len());
                        let slow_result = slow.try_write(a, &bytes);
                        if slow_result.is_ok() && n > 0 {
                            let last = (addr as usize + n - 1) / page;
                            pages.extend(addr as usize / page..=last);
                        }
                        let result = fast.try_write(a, &bytes);
                        if result.is_ok() {
                            model[addr as usize..addr as usize + n].copy_from_slice(&bytes);
                        }
                        (result, slow_result)
                    }
                    Op::Copy { src, dst, len } => {
                        let len = len.min((window - src.max(dst)) as usize);
                        let (s, d) = (Addr::new(src), Addr::new(dst));
                        if Region::new(s, len as u64).overlaps(Region::new(d, len as u64)) {
                            continue;
                        }
                        let data = slow.read_vec(s, len);
                        let slow_result = slow.try_write(d, &data);
                        if slow_result.is_ok() && len > 0 {
                            let last = (dst as usize + len - 1) / page;
                            pages.extend(dst as usize / page..=last);
                        }
                        let result = fast.try_copy(s, d, len);
                        if result.is_ok() {
                            let src = src as usize;
                            model.copy_within(src..src + len, dst as usize);
                        }
                        (result, slow_result)
                    }
                };
                prop_assert_eq!(result, slow_result);
                if result.is_err() {
                    prop_assert!(
                        state(&fast, window) == before,
                        "a halting call mutated the arena"
                    );
                    fast.clear_halt();
                    slow.clear_halt();
                }
                let (bytes, writes, touched) = state(&fast, window);
                let (slow_bytes, slow_writes, slow_touched) = state(&slow, window);
                prop_assert!(bytes == model, "contents diverged from the flat model");
                prop_assert!(bytes == slow_bytes, "contents diverged");
                prop_assert_eq!(writes, slow_writes);
                prop_assert!(touched <= slow_touched);
                prop_assert!(slow_touched <= pages.len());
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// On an arena of 4 KiB pages that ends at the window's end.
            #[test]
            fn sparse_paths_match_read_then_write(ops in ops(4 << 10)) {
                sparse_paths_match(window(4 << 10), 4 << 10, ops)?;
            }

            /// On a 40 MiB arena, whose pages are 64 KiB.
            #[test]
            fn sparse_paths_match_read_then_write_on_64_kib_pages(ops in ops(64 << 10)) {
                sparse_paths_match(40 << 20, 64 << 10, ops)?;
            }
        }
    }

    #[test]
    fn clone_is_deep() {
        let mut a = Arena::new(1 << 12);
        a.write(Addr::new(0), &[5]);
        let b = a.clone();
        a.write(Addr::new(0), &[6]);
        assert_eq!(b.read_vec(Addr::new(0), 1), vec![5]);
    }
}

//! The shadow oracle a faulted run is checked against.
//!
//! One fault-free Version 3 run with a [`ShadowDb`] mirror produces, for
//! a given (workload, seed, db size, length), the committed database
//! image after every transaction boundary plus the write spans of each
//! transaction. Because [`ShadowDb`] records everything **region
//! relative**, the same reference serves every engine version and every
//! driver: each faulted run is compared against the reference at its own
//! recovered sequence number, reading its own database region.

use dsnrep_core::{build_engine, shared_arena, Machine, ShadowDb, VersionTag};
use dsnrep_rio::{first_difference, Arena, Image, Piece};
use dsnrep_simcore::{CostModel, Region};
use dsnrep_workloads::TxCtx;

use crate::scenario::Scenario;

/// How many transactions past a crash boundary can be torn (1-safe
/// passive replication loses at most the in-flight SAN tail; 8 covers it
/// with margin at these run lengths).
pub(crate) const TAIL_WINDOW: u64 = 8;

/// The precomputed fault-free truth for one scenario shape.
#[derive(Clone, Debug)]
pub struct Reference {
    /// Bytes in the database region.
    db_len: usize,
    /// Sorted, disjoint region-relative runs that cover every nonzero
    /// byte of every image: the union of the spans the reference run
    /// committed, since the shadow starts zeroed.
    nonzero: Vec<Run>,
    /// `images[s]` is the committed database image after `s`
    /// transactions, kept as its bytes inside `nonzero`, run after run;
    /// every other byte of it is zero.
    images: Vec<Vec<u8>>,
    /// `txn_spans[i]` holds the region-relative torn window (declared
    /// undo ranges plus written spans) of the (1-based) transaction
    /// `i + 1`; extends `TAIL_WINDOW` past `txns`.
    txn_spans: Vec<Vec<(u64, u64)>>,
}

/// A region-relative run of bytes, `start..end`, whose bytes start at
/// `packed` in a packed image.
#[derive(Clone, Copy, Debug)]
struct Run {
    start: usize,
    end: usize,
    packed: usize,
}

impl Run {
    /// The bytes of `start..end`, a part of this run, in `image`.
    fn stored<'a>(&self, image: &'a [u8], start: usize, end: usize) -> &'a [u8] {
        &image[self.packed + (start - self.start)..self.packed + (end - self.start)]
    }
}

impl Reference {
    /// Runs the fault-free reference for `scenario` (always Version 3
    /// standalone — the shadow equivalence tests pin all versions to the
    /// same logical history).
    pub fn build(scenario: &Scenario) -> Self {
        let config = dsnrep_core::EngineConfig::for_db(scenario.db_len);
        let arena = shared_arena(dsnrep_core::arena_len(VersionTag::ImprovedLog, &config));
        let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
        let mut engine = build_engine(VersionTag::ImprovedLog, &mut m, &config);
        let db = engine.db_region();
        let mut shadow = ShadowDb::new(db);
        let mut workload = scenario.workload.build(db, scenario.seed);

        let mut commits = Vec::with_capacity(scenario.txns as usize);
        let mut txn_spans = Vec::with_capacity((scenario.txns + TAIL_WINDOW) as usize);
        for i in 0..scenario.txns + TAIL_WINDOW {
            let mut ctx = TxCtx::new(&mut m, engine.as_mut()).with_shadow(&mut shadow);
            workload
                .run_txn(&mut ctx)
                .expect("the fault-free reference run cannot fail");
            // The torn window of a transaction is its declared undo
            // ranges, not just its written spans: a 1-safe backup's
            // rollback restores whole declared ranges, possibly from a
            // torn undo image (the record header publishes atomically
            // over the SAN, its data blocks may still be in write
            // buffers). That holds for the ranges of an attempt the
            // transaction aborted before it committed as well. Keep the
            // written spans too — ranges cover them by construction, but
            // the union is cheap insurance.
            let mut window = shadow.last_txn_ranges().to_vec();
            window.extend_from_slice(shadow.last_txn_aborted_ranges());
            window.extend_from_slice(shadow.last_txn_spans());
            txn_spans.push(window);
            if i < scenario.txns {
                let committed = shadow.committed();
                let spans = shadow.last_txn_spans().iter();
                let commit = spans.map(|&(off, len)| {
                    let at = usize::try_from(off).expect("span offset");
                    (off, committed[at..at + len as usize].to_vec())
                });
                commits.push(commit.collect());
            }
        }
        // The shadow is the truth the images came from; the engine that
        // produced them must agree with it at the final boundary.
        debug_assert!(
            shadow.matches(&m.arena().borrow()),
            "the reference engine diverged from its own shadow"
        );
        Reference::from_commits(shadow.committed().len(), &commits, txn_spans)
    }

    /// The reference of a database of `db_len` bytes that starts zeroed,
    /// where `commits[s - 1]` holds the region-relative `(offset, bytes)`
    /// spans transaction `s` wrote, with the bytes it committed there,
    /// and `txn_spans` the torn windows. Image `s` is image `s - 1` with
    /// commit `s` applied; each is kept only inside the merged spans.
    fn from_commits(
        db_len: usize,
        commits: &[Vec<(u64, Vec<u8>)>],
        txn_spans: Vec<Vec<(u64, u64)>>,
    ) -> Self {
        let spans = commits
            .iter()
            .flatten()
            .filter(|(_, bytes)| !bytes.is_empty());
        let runs = merged_runs(
            spans
                .map(|(off, bytes)| (*off, bytes.len() as u64))
                .collect(),
        );
        let mut packed = 0;
        let nonzero: Vec<Run> = runs
            .into_iter()
            .map(|(start, end)| {
                let (start, end) = (start as usize, end as usize);
                let run = Run { start, end, packed };
                packed += end - start;
                run
            })
            .collect();
        assert!(
            nonzero.last().is_none_or(|run| run.end <= db_len),
            "a commit wrote past the database"
        );
        let mut image = vec![0u8; packed];
        let mut images = Vec::with_capacity(commits.len() + 1);
        images.push(image.clone());
        for commit in commits {
            for (off, bytes) in commit.iter().filter(|(_, bytes)| !bytes.is_empty()) {
                let off = *off as usize;
                // The run whose merge took in this span holds all of it.
                let run = nonzero[nonzero.partition_point(|run| run.end <= off)];
                let at = run.packed + (off - run.start);
                image[at..at + bytes.len()].copy_from_slice(bytes);
            }
            images.push(image.clone());
        }
        Reference {
            db_len,
            nonzero,
            images,
            txn_spans,
        }
    }

    /// Transactions the reference covers (a recovered sequence must not
    /// exceed this).
    pub fn txns(&self) -> u64 {
        self.images.len() as u64 - 1
    }

    /// Region-relative spans a 1-safe backup at boundary `seq` may
    /// expose torn bytes in: the declared undo ranges and written spans
    /// of transactions `seq + 1` through `seq + TAIL_WINDOW` (partially
    /// applied in-flight writes, or rollback over a torn undo image).
    pub fn tail_spans(&self, seq: u64) -> Vec<(u64, u64)> {
        let from = seq as usize;
        let to = ((seq + TAIL_WINDOW) as usize).min(self.txn_spans.len());
        self.txn_spans[from..to].iter().flatten().copied().collect()
    }

    /// Compares `actual` (a database region read, region-relative) against
    /// the committed image at `seq`. With `allow_torn_tail`, bytes inside
    /// [`Reference::tail_spans`] may differ (partially applied in-flight
    /// writes); everything else must match exactly. Returns the
    /// region-relative offset of the first unexplained mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `seq` exceeds [`Reference::txns`] (callers check the
    /// sequence invariant first) or `actual` is not the database's size.
    pub fn first_unexplained_mismatch(
        &self,
        seq: u64,
        actual: &[u8],
        allow_torn_tail: bool,
    ) -> Option<u64> {
        self.first_unexplained(seq, [Piece::Bytes(actual)], actual.len(), allow_torn_tail)
    }

    /// As [`Reference::first_unexplained_mismatch`], reading the recovered
    /// database region `db` in place from `arena` instead of from a copy.
    pub(crate) fn first_unexplained_mismatch_in(
        &self,
        seq: u64,
        arena: &Arena,
        db: Region,
        allow_torn_tail: bool,
    ) -> Option<u64> {
        let len = usize::try_from(db.len()).expect("region too large");
        self.first_unexplained(seq, arena.pieces(db.start(), len), len, allow_torn_tail)
    }

    /// The one comparison behind both entry points: the committed image
    /// against each piece, and the torn tail consulted only at bytes
    /// that differ.
    fn first_unexplained<'a>(
        &self,
        seq: u64,
        actual: impl IntoIterator<Item = Piece<'a>>,
        actual_len: usize,
        allow_torn_tail: bool,
    ) -> Option<u64> {
        let expect = Committed {
            len: self.db_len,
            runs: &self.nonzero,
            image: &self.images[seq as usize],
        };
        assert_eq!(
            expect.len, actual_len,
            "oracle and run disagree on the database size"
        );
        let mut torn: Option<Vec<(u64, u64)>> = None;
        first_difference(&expect, actual, |at| {
            if !allow_torn_tail {
                return None;
            }
            let runs = torn.get_or_insert_with(|| merged_runs(self.tail_spans(seq)));
            let at = at as u64;
            let i = runs.partition_point(|&(start, _)| start <= at);
            let &(_, end) = runs[..i].last()?;
            (at < end).then_some(end as usize)
        })
        .map(|off| off as u64)
    }
}

/// A committed image: zeros outside `runs`, the packed `image` inside.
struct Committed<'a> {
    len: usize,
    runs: &'a [Run],
    image: &'a [u8],
}

impl Committed<'_> {
    /// The runs that meet `from..to`.
    fn runs_meeting(&self, from: usize, to: usize) -> impl Iterator<Item = &Run> {
        let first = self.runs.partition_point(|run| run.end <= from);
        self.runs[first..]
            .iter()
            .take_while(move |run| run.start < to)
    }
}

impl Image for Committed<'_> {
    fn len(&self) -> usize {
        self.len
    }

    /// `actual` must be zero between the runs and equal the stored bytes
    /// inside them; both are checked through the flat `[u8]` image.
    fn first_unequal(&self, from: usize, actual: &[u8]) -> Option<usize> {
        let to = from + actual.len();
        let mut at = from;
        for run in self.runs_meeting(from, to) {
            let (start, end) = (run.start.max(at), run.end.min(to));
            let gap = actual.first_nonzero(at - from, start - from);
            let stored = run.stored(self.image, start, end);
            let differs = gap.or_else(|| {
                stored
                    .first_unequal(0, &actual[start - from..end - from])
                    .map(|d| start - from + d)
            });
            if let Some(d) = differs {
                return Some(from + d);
            }
            at = end;
        }
        actual.first_nonzero(at - from, to - from).map(|d| from + d)
    }

    /// Scans only the stored bytes of the runs that meet `from..to`.
    fn first_nonzero(&self, from: usize, to: usize) -> Option<usize> {
        self.runs_meeting(from, to).find_map(|run| {
            let (start, end) = (run.start.max(from), run.end.min(to));
            let stored = run.stored(self.image, start, end);
            stored.first_nonzero(0, stored.len()).map(|d| start + d)
        })
    }
}

/// `(offset, len)` spans, in any order and possibly overlapping, as
/// sorted disjoint `(start, end)` runs.
fn merged_runs(mut spans: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    spans.sort_unstable();
    let mut runs: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
    for (off, len) in spans {
        match runs.last_mut() {
            Some(last) if off <= last.1 => last.1 = last.1.max(off + len),
            _ => runs.push((off, off + len)),
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsnrep_simcore::{Addr, SplitMix64};
    use dsnrep_workloads::WorkloadKind;
    use proptest::prelude::*;

    /// The whole committed image after `seq` transactions.
    fn unpacked(r: &Reference, seq: u64) -> Vec<u8> {
        let mut image = vec![0u8; r.db_len];
        for run in &r.nonzero {
            let stored = run.stored(&r.images[seq as usize], run.start, run.end);
            image[run.start..run.end].copy_from_slice(stored);
        }
        image
    }

    /// The byte-mask check the in-place one replaced, kept as its
    /// reference: mark every torn byte, then scan byte by byte.
    fn naive_first_unexplained_mismatch(
        r: &Reference,
        seq: u64,
        actual: &[u8],
        allow_torn_tail: bool,
    ) -> Option<u64> {
        let expect = unpacked(r, seq);
        assert_eq!(expect.len(), actual.len());
        let mut torn = vec![false; expect.len()];
        if allow_torn_tail {
            for (off, len) in r.tail_spans(seq) {
                for b in off..off + len {
                    torn[b as usize] = true;
                }
            }
        }
        (0..expect.len())
            .find(|&i| expect[i] != actual[i] && !torn[i])
            .map(|i| i as u64)
    }

    /// A recovered image to check, both as bytes and in place in an arena.
    struct Recovered {
        reference: Reference,
        seq: u64,
        actual: Vec<u8>,
        arena: Arena,
        db: Region,
    }

    fn flip(rng: &mut SplitMix64, byte: &mut u8) {
        *byte ^= 1 + rng.next_below(255) as u8;
    }

    /// `(offset, len)` spans as a commit: each with the bytes `image`
    /// holds there.
    fn commit(spans: &[(u64, u64)], image: &[u8]) -> Vec<(u64, Vec<u8>)> {
        let bytes = |&(off, len): &(u64, u64)| image[off as usize..(off + len) as usize].to_vec();
        spans.iter().map(|span| (span.0, bytes(span))).collect()
    }

    /// A random reference over a 2-7 page database at an unaligned offset
    /// of an arena with 4, 16 or 64 KiB pages, plus a recovered image
    /// that differs from it at random bytes, inside random torn spans, on
    /// page edges and across whole pages; all-zero pages of the image
    /// stay unmaterialized. Some reference bytes lie in pages the
    /// recovery never wrote, whose arena pages then stay unmaterialized
    /// too. Most databases of three pages or more hold such a run of
    /// three or more pages, which the arena lends as one zero piece, with
    /// reference bytes in its middle page, on its last byte or just past
    /// it. The reference has three boundaries: zeros, a first commit of
    /// random spans and a second of flipped bytes.
    fn recovered(seed: u64) -> Recovered {
        let mut rng = SplitMix64::new(seed);
        let mut arena = Arena::new([10 << 12, 12 << 20, 40 << 20][rng.next_below(3) as usize]);
        let page = arena.page_len() as u64;
        let base = rng.next_below(page);
        let db_len = 2 * page + rng.next_below(5 * page);
        let db = Region::new(Addr::new(base), db_len);
        // Only some arena pages hold data.
        let mut populated: Vec<bool> = (0..(base + db_len).div_ceil(page))
            .map(|_| rng.next_below(2) == 0)
            .collect();
        // Arena pages `first..first + k`, region-relative `start..end`.
        let pages = populated.len() as u64;
        let zero_run = (pages >= 3 && rng.next_below(4) != 0).then(|| {
            let k = 3 + rng.next_below(pages - 2);
            let first = rng.next_below(pages - k + 1);
            populated[first as usize..(first + k) as usize].fill(false);
            let start = (first * page).saturating_sub(base);
            (first, start, ((first + k) * page - base).min(db_len))
        });
        let mut image = vec![0u8; db_len as usize];
        let mut first = Vec::new();
        for _ in 0..2 + rng.next_below(30) {
            let off = rng.next_below(db_len);
            if populated[((base + off) / page) as usize] {
                let end = (off + 1 + rng.next_below(512)).min(db_len);
                for b in &mut image[off as usize..end as usize] {
                    *b = rng.next_u64() as u8;
                }
                first.push((off, end - off));
            }
        }
        // Committed bytes anywhere, unpopulated pages included.
        for _ in 0..rng.next_below(4) {
            let off = rng.next_below(db_len);
            flip(&mut rng, &mut image[off as usize]);
            first.push((off, 1));
        }
        // Committed bytes in the zero run's middle page, on its last byte
        // and on the byte past it, each or not.
        if let Some((run_first, _, end)) = zero_run {
            let middle = (run_first + 1) * page - base + rng.next_below(page);
            for off in [middle, end - 1, end] {
                if off < db_len && rng.next_below(2) == 0 {
                    image[off as usize] = 1 + rng.next_below(255) as u8;
                    first.push((off, 1));
                }
            }
        }
        let mut next = image.clone();
        let mut second = Vec::new();
        for _ in 0..rng.next_below(8) {
            let off = rng.next_below(db_len);
            flip(&mut rng, &mut next[off as usize]);
            second.push((off, 1));
        }
        // Unsorted, overlapping torn spans, some short, some long.
        let txn_spans: Vec<Vec<(u64, u64)>> = (0..2 + TAIL_WINDOW)
            .map(|_| {
                (0..rng.next_below(5))
                    .map(|_| {
                        let off = rng.next_below(db_len);
                        let len = if rng.next_below(4) == 0 { 2048 } else { 64 };
                        (off, rng.next_below(len).min(db_len - off))
                    })
                    .collect()
            })
            .collect();
        // The runs cover both commits, so each image has zeros inside
        // them (image 0 nothing else).
        let commits = [commit(&first, &image), commit(&second, &next)];
        let reference = Reference::from_commits(db_len as usize, &commits, txn_spans);
        let seq = rng.next_below(3);

        let mut actual = unpacked(&reference, seq);
        for _ in 0..rng.next_below(4) {
            let off = rng.next_below(db_len) as usize;
            flip(&mut rng, &mut actual[off]);
        }
        // Inside torn spans, and just past either end of one.
        let spans = reference.tail_spans(seq);
        for _ in 0..rng.next_below(8) {
            if let Some(&(off, len)) = spans.get(rng.next_below(8) as usize) {
                let b = match rng.next_below(4) {
                    0 => off + len,
                    1 => off.wrapping_sub(1),
                    _ => off + rng.next_below(len.max(1)),
                };
                if b < db_len {
                    flip(&mut rng, &mut actual[b as usize]);
                }
            }
        }
        // The last byte of a page and the first of the next (`base` lies
        // inside the first page, so every edge is past it).
        let edge = page * (1 + rng.next_below(3));
        for addr in [edge - 1, edge] {
            if rng.next_below(3) == 0 && addr < base + db_len {
                flip(&mut rng, &mut actual[(addr - base) as usize]);
            }
        }
        // A page the recovery never wrote reads as zeros, whatever the
        // reference holds there.
        if rng.next_below(4) == 0 {
            let start = (edge - base).min(db_len) as usize;
            let end = (edge + page - base).min(db_len) as usize;
            actual[start..end].fill(0);
        }
        for (p, _) in populated.iter().enumerate().filter(|&(_, &pop)| !pop) {
            if rng.next_below(2) == 0 {
                let start = (p as u64 * page).saturating_sub(base).min(db_len) as usize;
                let end = ((p as u64 + 1) * page - base).min(db_len) as usize;
                actual[start..end].fill(0);
            }
        }
        if let Some((_, start, end)) = zero_run {
            actual[start as usize..end as usize].fill(0);
        }

        let mut off = 0usize;
        while off < actual.len() {
            let n = (page as usize - (base as usize + off) % page as usize).min(actual.len() - off);
            let piece = &actual[off..off + n];
            if piece.iter().any(|&b| b != 0) || rng.next_below(4) == 0 {
                arena.write(Addr::new(base + off as u64), piece);
            }
            off += n;
        }
        Recovered {
            reference,
            seq,
            actual,
            arena,
            db,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn the_in_place_check_agrees_with_the_byte_mask(seed in any::<u64>()) {
            let Recovered { reference, seq, actual, arena, db } = recovered(seed);
            prop_assert_eq!(arena.region_vec(db), actual.clone());
            for torn in [false, true] {
                let want = naive_first_unexplained_mismatch(&reference, seq, &actual, torn);
                prop_assert_eq!(
                    reference.first_unexplained_mismatch(seq, &actual, torn),
                    want
                );
                prop_assert_eq!(
                    reference.first_unexplained_mismatch_in(seq, &arena, db, torn),
                    want
                );
            }
        }
    }

    #[test]
    fn torn_spans_merge_into_sorted_disjoint_runs() {
        let runs = merged_runs(vec![(40, 10), (0, 5), (3, 4), (7, 0), (45, 20), (7, 1)]);
        assert_eq!(runs, [(0, 8), (40, 65)]);
    }

    /// The shadow's whole committed image at every boundary of the
    /// reference run, as `Reference::build` runs it.
    fn shadow_images(scenario: &Scenario) -> Vec<Vec<u8>> {
        let config = dsnrep_core::EngineConfig::for_db(scenario.db_len);
        let arena = shared_arena(dsnrep_core::arena_len(VersionTag::ImprovedLog, &config));
        let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
        let mut engine = build_engine(VersionTag::ImprovedLog, &mut m, &config);
        let mut shadow = ShadowDb::new(engine.db_region());
        let mut workload = scenario.workload.build(engine.db_region(), scenario.seed);
        let mut images = vec![shadow.committed().to_vec()];
        for _ in 0..scenario.txns {
            let mut ctx = TxCtx::new(&mut m, engine.as_mut()).with_shadow(&mut shadow);
            workload.run_txn(&mut ctx).expect("the reference run");
            images.push(shadow.committed().to_vec());
        }
        images
    }

    #[test]
    fn the_reference_is_deterministic_and_sized() {
        for workload in [WorkloadKind::DebitCredit, WorkloadKind::OrderEntry] {
            let scenario = Scenario::standalone(VersionTag::ImprovedLog, workload);
            let a = Reference::build(&scenario);
            let b = Reference::build(&scenario);
            assert_eq!(a.txns(), scenario.txns);
            assert_eq!(a.images, b.images);
            let shadow = shadow_images(&scenario);
            for (s, image) in shadow.iter().enumerate() {
                let s = s as u64;
                assert!(unpacked(&a, s) == *image, "{workload:?} image {s} differs");
                assert_eq!(a.first_unexplained_mismatch(s, image, false), None);
            }
            // Transactions write something, so consecutive images differ.
            assert_ne!(a.images[0], a.images[1]);
        }
    }

    #[test]
    fn the_order_entry_reference_keeps_only_its_runs_bytes() {
        let scenario = Scenario::standalone(VersionTag::ImprovedLog, WorkloadKind::OrderEntry);
        let r = Reference::build(&scenario);
        let run_bytes: usize = r.nonzero.iter().map(|run| run.end - run.start).sum();
        assert_eq!(r.db_len, 1 << 20);
        assert!(run_bytes < 1024, "{run_bytes} bytes per boundary");
        for image in &r.images {
            assert_eq!(image.len(), run_bytes);
        }
    }

    #[test]
    fn mismatches_inside_the_tail_are_explained_outside_are_not() {
        let scenario = Scenario::standalone(VersionTag::ImprovedLog, WorkloadKind::DebitCredit);
        let r = Reference::build(&scenario);
        // A backup that stopped at boundary 2 but partially applied txn 3:
        // corrupt one byte inside txn 3's first span.
        let mut actual = unpacked(&r, 2);
        let spans = r.tail_spans(2);
        let (off, _) = spans[0];
        actual[off as usize] ^= 0xFF;
        assert_eq!(r.first_unexplained_mismatch(2, &actual, true), None);
        assert_eq!(r.first_unexplained_mismatch(2, &actual, false), Some(off));
        // A byte outside every tail span is never explained.
        let torn: std::collections::HashSet<u64> = r
            .tail_spans(2)
            .iter()
            .flat_map(|(o, l)| *o..*o + *l)
            .collect();
        let outside = (0..actual.len() as u64)
            .find(|b| !torn.contains(b))
            .expect("the tail does not cover the whole database");
        let mut actual = unpacked(&r, 2);
        actual[outside as usize] ^= 0xFF;
        assert_eq!(
            r.first_unexplained_mismatch(2, &actual, true),
            Some(outside)
        );
    }
}

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
pub const TAIL_WINDOW: u64 = 8;

/// The precomputed fault-free truth for one scenario shape.
#[derive(Clone, Debug)]
pub struct Reference {
    /// `images[s]` is the committed database image after `s` transactions.
    images: Vec<Vec<u8>>,
    /// Sorted, disjoint region-relative `(start, end)` runs that cover
    /// every nonzero byte of every image, so the check can skip the zeros
    /// of an unmaterialized arena page.
    nonzero: Vec<(u64, u64)>,
    /// `txn_spans[i]` holds the region-relative torn window (declared
    /// undo ranges plus written spans) of the (1-based) transaction
    /// `i + 1`; extends `TAIL_WINDOW` past `txns`.
    txn_spans: Vec<Vec<(u64, u64)>>,
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

        let mut images = Vec::with_capacity(scenario.txns as usize + 1);
        images.push(shadow.committed().to_vec());
        let mut written = Vec::new();
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
                images.push(shadow.committed().to_vec());
                written.extend_from_slice(shadow.last_txn_spans());
            }
        }
        // The shadow starts zeroed, so every image is nonzero only in
        // spans its committed transactions wrote.
        let nonzero = merged_runs(written);
        // The shadow is the truth the images came from; the engine that
        // produced them must agree with it at the final boundary.
        debug_assert!(
            shadow.matches(&m.arena().borrow()),
            "the reference engine diverged from its own shadow"
        );
        Reference {
            images,
            nonzero,
            txn_spans,
        }
    }

    /// Transactions the reference covers (a recovered sequence must not
    /// exceed this).
    pub fn txns(&self) -> u64 {
        self.images.len() as u64 - 1
    }

    /// The committed image after `seq` transactions.
    ///
    /// # Panics
    ///
    /// Panics if `seq` exceeds [`Reference::txns`] (callers check the
    /// sequence invariant first).
    pub fn image(&self, seq: u64) -> &[u8] {
        &self.images[seq as usize]
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
    pub fn first_unexplained_mismatch_in(
        &self,
        seq: u64,
        arena: &Arena,
        db: Region,
        allow_torn_tail: bool,
    ) -> Option<u64> {
        let len = usize::try_from(db.len()).expect("region too large");
        self.first_unexplained(seq, arena.pieces(db.start(), len), len, allow_torn_tail)
    }

    /// The one comparison behind both entry points: slice equality piece
    /// by piece, the image's nonzero runs against an unmaterialized
    /// piece, and the torn tail consulted only at bytes that differ.
    fn first_unexplained<'a>(
        &self,
        seq: u64,
        actual: impl IntoIterator<Item = Piece<'a>>,
        actual_len: usize,
        allow_torn_tail: bool,
    ) -> Option<u64> {
        let expect = Committed {
            bytes: self.image(seq),
            nonzero: &self.nonzero,
        };
        assert_eq!(
            expect.bytes.len(),
            actual_len,
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

/// A committed image with the runs that cover its nonzero bytes.
struct Committed<'a> {
    bytes: &'a [u8],
    nonzero: &'a [(u64, u64)],
}

impl Image for Committed<'_> {
    fn bytes(&self) -> &[u8] {
        self.bytes
    }

    /// Scans only the covering runs that meet `from..to`.
    fn first_nonzero(&self, from: usize, to: usize) -> Option<usize> {
        let (from, to) = (from as u64, to as u64);
        let i = self.nonzero.partition_point(|&(_, end)| end <= from);
        self.nonzero[i..]
            .iter()
            .take_while(|&&(start, _)| start < to)
            .find_map(|&(start, end)| {
                let (start, end) = (start.max(from) as usize, end.min(to) as usize);
                let run = &self.bytes[start..end];
                run.iter().position(|&b| b != 0).map(|p| start + p)
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
    use dsnrep_rio::PAGE_SIZE;
    use dsnrep_simcore::{Addr, SplitMix64};
    use dsnrep_workloads::WorkloadKind;
    use proptest::prelude::*;

    /// The byte-mask check the in-place one replaced, kept as its
    /// reference: mark every torn byte, then scan byte by byte.
    fn naive_first_unexplained_mismatch(
        r: &Reference,
        seq: u64,
        actual: &[u8],
        allow_torn_tail: bool,
    ) -> Option<u64> {
        let expect = r.image(seq);
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

    /// The maximal runs of nonzero bytes, found by a byte scan.
    fn scanned_runs(image: &[u8]) -> Vec<(u64, u64)> {
        let nonzero = image.iter().enumerate().filter(|&(_, &b)| b != 0);
        merged_runs(nonzero.map(|(i, _)| (i as u64, 1)).collect())
    }

    /// A random reference over a 2-4 page database at an unaligned arena
    /// offset, plus a recovered image that differs from it at random
    /// bytes, inside random torn spans, on page edges and across whole
    /// pages; all-zero pages of the image stay unmaterialized. Some
    /// reference bytes lie in pages the recovery never wrote, whose arena
    /// pages then stay unmaterialized too.
    fn recovered(seed: u64) -> Recovered {
        let mut rng = SplitMix64::new(seed);
        let page = PAGE_SIZE as u64;
        let base = rng.next_below(page);
        let db_len = 2 * page + rng.next_below(2 * page);
        let db = Region::new(Addr::new(base), db_len);
        // Only some arena pages hold data.
        let populated: Vec<bool> = (0..(base + db_len).div_ceil(page))
            .map(|_| rng.next_below(2) == 0)
            .collect();
        let mut image = vec![0u8; db_len as usize];
        for _ in 0..2 + rng.next_below(30) {
            let off = rng.next_below(db_len);
            if populated[((base + off) / page) as usize] {
                let end = (off + 1 + rng.next_below(512)).min(db_len);
                for b in &mut image[off as usize..end as usize] {
                    *b = rng.next_u64() as u8;
                }
            }
        }
        // Committed bytes anywhere, unpopulated pages included.
        for _ in 0..rng.next_below(4) {
            let off = rng.next_below(db_len) as usize;
            flip(&mut rng, &mut image[off]);
        }
        let mut next = image.clone();
        for _ in 0..rng.next_below(8) {
            let off = rng.next_below(db_len) as usize;
            flip(&mut rng, &mut next[off]);
        }
        // Unsorted, overlapping torn spans, some short, some long.
        let txn_spans: Vec<Vec<(u64, u64)>> = (0..1 + TAIL_WINDOW)
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
        // Runs shared by both images, so each has zeros inside them.
        let either: Vec<u8> = image.iter().zip(&next).map(|(a, b)| a | b).collect();
        let reference = Reference {
            nonzero: scanned_runs(&either),
            images: vec![image, next],
            txn_spans,
        };
        let seq = rng.next_below(2);

        let mut actual = reference.image(seq).to_vec();
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

        let mut arena = Arena::new(base + db_len);
        let mut off = 0usize;
        while off < actual.len() {
            let n = (PAGE_SIZE - (base as usize + off) % PAGE_SIZE).min(actual.len() - off);
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

    #[test]
    fn the_reference_is_deterministic_and_sized() {
        let scenario = Scenario::standalone(VersionTag::ImprovedLog, WorkloadKind::DebitCredit);
        let a = Reference::build(&scenario);
        let b = Reference::build(&scenario);
        assert_eq!(a.txns(), scenario.txns);
        for s in 0..=scenario.txns {
            assert_eq!(a.image(s), b.image(s), "image {s} differs");
        }
        // The nonzero runs cover every nonzero byte, on both benchmarks.
        let oe = Reference::build(&Scenario::standalone(
            VersionTag::ImprovedLog,
            WorkloadKind::OrderEntry,
        ));
        for r in [&a, &oe] {
            let runs = &r.nonzero;
            for s in 0..=r.txns() {
                for (start, end) in scanned_runs(r.image(s)) {
                    let i = runs.partition_point(|&(_, e)| e <= start);
                    let covered = runs.get(i).is_some_and(|&(a, b)| a <= start && end <= b);
                    assert!(covered, "image {s}: nonzero {start}..{end} uncovered");
                }
            }
        }
        // Transactions write something, so consecutive images differ.
        assert_ne!(a.image(0), a.image(1));
    }

    #[test]
    fn mismatches_inside_the_tail_are_explained_outside_are_not() {
        let scenario = Scenario::standalone(VersionTag::ImprovedLog, WorkloadKind::DebitCredit);
        let r = Reference::build(&scenario);
        // A backup that stopped at boundary 2 but partially applied txn 3:
        // corrupt one byte inside txn 3's first span.
        let mut actual = r.image(2).to_vec();
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
        let mut actual = r.image(2).to_vec();
        actual[outside as usize] ^= 0xFF;
        assert_eq!(
            r.first_unexplained_mismatch(2, &actual, true),
            Some(outside)
        );
    }
}

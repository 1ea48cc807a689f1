//! The correctness oracle: a shadow copy of the database.
//!
//! A [`ShadowDb`] replays the same logical writes the engine under test
//! receives, but with trivially correct semantics (pending writes apply at
//! commit, vanish at abort). Recovery tests compare the recovered arena
//! against the shadow:
//!
//! * a standalone crash must recover to exactly the shadow's committed
//!   state;
//! * a failover must recover to the committed state or — 1-safe — the state
//!   one commit earlier ([`ShadowDb::prev_bytes`]);
//! * the mirroring versions' torn-tail window is checkable byte-wise via
//!   [`ShadowDb::last_txn_spans`].

use dsnrep_rio::{first_difference, Arena};
use dsnrep_simcore::{Addr, Region};

/// A trivially correct reference database.
///
/// # Examples
///
/// ```
/// use dsnrep_core::ShadowDb;
/// use dsnrep_simcore::{Addr, Region};
///
/// let mut shadow = ShadowDb::new(Region::new(Addr::new(100), 16));
/// shadow.begin();
/// shadow.write(Addr::new(104), &[1, 2]);
/// shadow.abort();
/// assert_eq!(shadow.committed(), &[0u8; 16]);
/// shadow.begin();
/// shadow.write(Addr::new(104), &[1, 2]);
/// shadow.commit();
/// assert_eq!(&shadow.committed()[4..6], &[1, 2]);
/// assert_eq!(shadow.seq(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct ShadowDb {
    region: Region,
    committed: Vec<u8>,
    pending: Vec<(u64, Vec<u8>)>,
    /// Ranges declared (`set_range`) by the active transaction.
    pending_ranges: Vec<(u64, u64)>,
    /// Undo for the most recent commit: (offset, old bytes).
    last_undo: Vec<(u64, Vec<u8>)>,
    /// Spans written by the most recent commit.
    last_spans: Vec<(u64, u64)>,
    /// Ranges declared by the most recent commit.
    last_ranges: Vec<(u64, u64)>,
    /// Ranges declared by attempts aborted since the most recent commit.
    aborted_ranges: Vec<(u64, u64)>,
    /// Ranges declared by attempts aborted between the previous commit
    /// and the most recent one.
    last_aborted_ranges: Vec<(u64, u64)>,
    active: bool,
    seq: u64,
}

impl ShadowDb {
    /// Creates a zero-filled shadow of `region`.
    pub fn new(region: Region) -> Self {
        ShadowDb {
            region,
            committed: vec![0; usize::try_from(region.len()).expect("shadow too large")],
            pending: Vec::new(),
            pending_ranges: Vec::new(),
            last_undo: Vec::new(),
            last_spans: Vec::new(),
            last_ranges: Vec::new(),
            aborted_ranges: Vec::new(),
            last_aborted_ranges: Vec::new(),
            active: false,
            seq: 0,
        }
    }

    /// Seeds the initial (pre-measurement) state, outside any transaction.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is active or the range is out of bounds.
    pub fn load(&mut self, addr: Addr, bytes: &[u8]) {
        assert!(!self.active, "load during a transaction");
        let off = (addr - self.region.start()) as usize;
        self.committed[off..off + bytes.len()].copy_from_slice(bytes);
    }

    /// Starts a transaction.
    ///
    /// # Panics
    ///
    /// Panics if one is already active.
    pub fn begin(&mut self) {
        assert!(!self.active, "shadow transaction already active");
        self.active = true;
        self.pending.clear();
        self.pending_ranges.clear();
    }

    /// Records an undo range declared (`set_range`) by the active
    /// transaction. A crashed transaction's rollback touches exactly its
    /// declared ranges — on a 1-safe backup possibly with a torn undo
    /// image — so declared ranges, not just written spans, bound where a
    /// failover may observe torn bytes.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active or the range is out of bounds.
    pub fn declare(&mut self, addr: Addr, len: u64) {
        assert!(self.active, "shadow declare outside a transaction");
        assert!(
            self.region.contains_range(addr, len),
            "shadow declare out of bounds"
        );
        self.pending_ranges.push((addr - self.region.start(), len));
    }

    /// Records a write of the active transaction.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active or the range is out of bounds.
    pub fn write(&mut self, addr: Addr, bytes: &[u8]) {
        assert!(self.active, "shadow write outside a transaction");
        assert!(
            self.region.contains_range(addr, bytes.len() as u64),
            "shadow write out of bounds"
        );
        self.pending
            .push((addr - self.region.start(), bytes.to_vec()));
    }

    /// Commits: pending writes become visible.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn commit(&mut self) {
        assert!(self.active, "shadow commit outside a transaction");
        self.last_undo.clear();
        self.last_spans.clear();
        self.last_ranges.clear();
        self.last_ranges.append(&mut self.pending_ranges);
        self.last_aborted_ranges.clear();
        self.last_aborted_ranges.append(&mut self.aborted_ranges);
        for (off, bytes) in self.pending.drain(..) {
            let off_usize = off as usize;
            self.last_undo.push((
                off,
                self.committed[off_usize..off_usize + bytes.len()].to_vec(),
            ));
            self.last_spans.push((off, bytes.len() as u64));
            self.committed[off_usize..off_usize + bytes.len()].copy_from_slice(&bytes);
        }
        self.active = false;
        self.seq += 1;
    }

    /// Aborts: pending writes vanish.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn abort(&mut self) {
        assert!(self.active, "shadow abort outside a transaction");
        self.pending.clear();
        self.aborted_ranges.append(&mut self.pending_ranges);
        self.active = false;
    }

    /// Committed transaction count.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The committed database image.
    pub fn committed(&self) -> &[u8] {
        &self.committed
    }

    /// The committed image as it was *before the most recent commit* —
    /// the state a 1-safe backup is allowed to recover to when the final
    /// commit's publication was still in flight.
    pub fn prev_bytes(&self) -> Vec<u8> {
        let mut prev = self.committed.clone();
        // Undo entries were recorded in commit order; apply in reverse.
        for (off, old) in self.last_undo.iter().rev() {
            let off = *off as usize;
            prev[off..off + old.len()].copy_from_slice(old);
        }
        prev
    }

    /// `(offset, len)` spans written by the most recent commit (for
    /// torn-tail containment checks).
    pub fn last_txn_spans(&self) -> &[(u64, u64)] {
        &self.last_spans
    }

    /// `(offset, len)` undo ranges declared by the most recent commit
    /// (see [`ShadowDb::declare`]). A superset of the written spans
    /// whenever the workload declares whole records but writes fields.
    pub fn last_txn_ranges(&self) -> &[(u64, u64)] {
        &self.last_ranges
    }

    /// `(offset, len)` undo ranges declared by attempts that aborted after
    /// the previous commit and before the most recent one, such as a
    /// transaction that aborts and retries as another type. An aborted
    /// attempt's undo record can reach a 1-safe backup torn, so a crash
    /// before the retry commits may roll these ranges back to stale bytes.
    pub fn last_txn_aborted_ranges(&self) -> &[(u64, u64)] {
        &self.last_aborted_ranges
    }

    /// Compares the committed image to the arena's database region, read
    /// in place, returning the first mismatching offset.
    pub fn first_mismatch(&self, arena: &Arena) -> Option<u64> {
        let actual = arena.pieces(self.region.start(), self.committed.len());
        first_difference(self.committed.as_slice(), actual, |_| None).map(|p| p as u64)
    }

    /// `true` if the arena's database region equals the committed image.
    pub fn matches(&self, arena: &Arena) -> bool {
        self.first_mismatch(arena).is_none()
    }

    /// The shadowed region.
    pub fn region(&self) -> Region {
        self.region
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> Region {
        Region::new(Addr::new(64), 32)
    }

    #[test]
    fn commit_applies_pending() {
        let mut s = ShadowDb::new(region());
        s.begin();
        s.write(Addr::new(64), &[9; 4]);
        assert_eq!(s.committed()[0], 0, "pending is invisible");
        s.commit();
        assert_eq!(&s.committed()[..4], &[9; 4]);
    }

    #[test]
    fn abort_discards_pending() {
        let mut s = ShadowDb::new(region());
        s.begin();
        s.write(Addr::new(70), &[1]);
        s.abort();
        assert_eq!(s.committed(), &[0; 32]);
        assert_eq!(s.seq(), 0);
    }

    #[test]
    fn prev_bytes_is_one_commit_back() {
        let mut s = ShadowDb::new(region());
        s.begin();
        s.write(Addr::new(64), &[1; 8]);
        s.commit();
        s.begin();
        s.write(Addr::new(68), &[2; 8]);
        s.commit();
        let prev = s.prev_bytes();
        assert_eq!(&prev[..8], &[1; 8]);
        assert_eq!(&prev[8..16], &[0; 8]);
        assert_eq!(&s.committed()[4..12], &[2; 8]);
    }

    #[test]
    fn overlapping_writes_last_wins() {
        let mut s = ShadowDb::new(region());
        s.begin();
        s.write(Addr::new(64), &[1; 8]);
        s.write(Addr::new(68), &[2; 2]);
        s.commit();
        assert_eq!(&s.committed()[..8], &[1, 1, 1, 1, 2, 2, 1, 1]);
    }

    #[test]
    fn last_txn_spans_reported() {
        let mut s = ShadowDb::new(region());
        s.begin();
        s.write(Addr::new(66), &[5; 4]);
        s.commit();
        assert_eq!(s.last_txn_spans(), &[(2, 4)]);
    }

    #[test]
    fn declared_ranges_tracked_per_commit() {
        let mut s = ShadowDb::new(region());
        s.begin();
        s.declare(Addr::new(64), 16);
        s.write(Addr::new(66), &[5; 4]);
        s.commit();
        assert_eq!(s.last_txn_ranges(), &[(0, 16)]);
        // An abort discards its declarations; the last commit's survive.
        s.begin();
        s.declare(Addr::new(80), 8);
        s.abort();
        assert_eq!(s.last_txn_ranges(), &[(0, 16)]);
        s.begin();
        s.declare(Addr::new(72), 8);
        s.commit();
        assert_eq!(s.last_txn_ranges(), &[(8, 8)]);
    }

    #[test]
    fn aborted_attempts_ranges_belong_to_the_next_commit() {
        let mut s = ShadowDb::new(region());
        s.begin();
        s.declare(Addr::new(80), 8);
        s.abort();
        assert_eq!(s.last_txn_aborted_ranges(), &[] as &[(u64, u64)]);
        s.begin();
        s.declare(Addr::new(88), 4);
        s.abort();
        s.begin();
        s.declare(Addr::new(64), 16);
        s.commit();
        assert_eq!(s.last_txn_aborted_ranges(), &[(16, 8), (24, 4)]);
        assert_eq!(s.last_txn_ranges(), &[(0, 16)]);
        // A commit with no aborted attempt before it clears them.
        s.begin();
        s.declare(Addr::new(72), 8);
        s.commit();
        assert_eq!(s.last_txn_aborted_ranges(), &[] as &[(u64, u64)]);
    }

    #[test]
    fn matches_against_arena() {
        let mut s = ShadowDb::new(region());
        s.begin();
        s.write(Addr::new(64), &[7]);
        s.commit();
        let mut arena = Arena::new(128);
        arena.write(Addr::new(64), &[7]);
        assert!(s.matches(&arena));
        arena.write(Addr::new(65), &[1]);
        assert_eq!(s.first_mismatch(&arena), Some(1));
    }

    #[test]
    #[should_panic]
    fn write_outside_txn_panics() {
        let mut s = ShadowDb::new(region());
        s.write(Addr::new(64), &[1]);
    }
}

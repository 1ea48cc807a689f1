//! The transaction API shared by all four engine versions.
//!
//! The API is RVM's (and Vista's): `begin_transaction`, `set_range`,
//! `commit_transaction`, `abort_transaction`, with writes done in place
//! after `set_range` declares the region they may touch. Concurrency control
//! is a separate layer (the paper assumes a single transaction stream per
//! engine), so an engine holds at most one active transaction.
//!
//! Unlike Vista — where the application stores directly into mapped memory —
//! writes go through [`Engine::write`] so the simulation can charge cache
//! and SAN costs; the engine also *validates* that each write is covered by
//! a `set_range`, turning the classic silent-corruption bug into a
//! [`TxError::UnprotectedWrite`].

use core::fmt;

use dsnrep_obs::{NullTracer, Tracer};
use dsnrep_simcore::{Addr, Halted, Region};

use crate::error::TxError;
use crate::machine::Machine;

/// Which of the paper's designs an engine implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VersionTag {
    /// Version 0: the unmodified Vista library (heap-allocated undo list).
    Vista,
    /// Version 1: mirroring by copying.
    MirrorCopy,
    /// Version 2: mirroring by diffing.
    MirrorDiff,
    /// Version 3: the improved contiguous undo log.
    ImprovedLog,
}

impl VersionTag {
    /// All versions, in the paper's order.
    pub const ALL: [VersionTag; 4] = [
        VersionTag::Vista,
        VersionTag::MirrorCopy,
        VersionTag::MirrorDiff,
        VersionTag::ImprovedLog,
    ];

    /// The paper's short label ("Version 0 (Vista)" etc.).
    pub fn paper_label(self) -> &'static str {
        match self {
            VersionTag::Vista => "Version 0 (Vista)",
            VersionTag::MirrorCopy => "Version 1 (Mirror by Copy)",
            VersionTag::MirrorDiff => "Version 2 (Mirror by Diff)",
            VersionTag::ImprovedLog => "Version 3 (Improved Log)",
        }
    }
}

impl fmt::Display for VersionTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_label())
    }
}

/// What a recovery pass found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `true` if an interrupted transaction was rolled back.
    pub rolled_back: bool,
    /// `true` if an interrupted commit was rolled forward
    /// (mirroring versions only).
    pub rolled_forward: bool,
    /// Bytes of database state restored from undo/mirror data.
    pub bytes_restored: u64,
    /// The committed-transaction sequence number after recovery.
    pub committed_seq: u64,
}

/// A Vista-style transactional engine over a [`Machine`].
///
/// All four of the paper's versions implement this trait, which lets the
/// replication drivers, the workloads and the benchmarks treat them
/// uniformly (`Box<dyn Engine>` is used throughout). The `T` parameter is
/// the tracer threaded through the machine; it defaults to [`NullTracer`],
/// so `dyn Engine` means the untraced engine and existing code compiles
/// unchanged.
///
/// Every procedure that stores can meet an armed fault budget. It then
/// returns [`TxError::Halted`] (or [`Halted`] from
/// [`recover`](Engine::recover)) from the halting store at once: no
/// cleanup, abort or free runs on a halted node.
pub trait Engine<T: Tracer = NullTracer>: core::fmt::Debug {
    /// Which design this engine implements.
    fn version(&self) -> VersionTag;

    /// The database region transactions operate on.
    fn db_region(&self) -> Region;

    /// The regions a passive backup maps write-through for this version:
    /// everything for Version 0 (the transparent port of §3), header +
    /// database + mirror for Versions 1/2 (the §5.1 optimization keeps the
    /// set-range array local), header + log + database for Version 3.
    fn replicated_regions(&self) -> Vec<Region>;

    /// Starts a transaction.
    ///
    /// # Errors
    ///
    /// [`TxError::TransactionActive`] if one is already running, or
    /// [`TxError::Halted`].
    fn begin(&mut self, m: &mut Machine<T>) -> Result<(), TxError>;

    /// Declares that the current transaction may modify `len` bytes at
    /// `base` (which must lie inside the database region).
    ///
    /// # Errors
    ///
    /// [`TxError::NoActiveTransaction`], [`TxError::RangeOutOfDatabase`],
    /// a version-specific capacity error, or [`TxError::Halted`].
    fn set_range(&mut self, m: &mut Machine<T>, base: Addr, len: u64) -> Result<(), TxError>;

    /// Writes `bytes` at `base`, in place, within a declared range.
    ///
    /// # Errors
    ///
    /// [`TxError::NoActiveTransaction`], [`TxError::UnprotectedWrite`] or
    /// [`TxError::Halted`].
    fn write(&mut self, m: &mut Machine<T>, base: Addr, bytes: &[u8]) -> Result<(), TxError>;

    /// Reads `buf.len()` bytes at `base` (allowed inside or outside a
    /// transaction; reads need no `set_range`).
    fn read(&mut self, m: &mut Machine<T>, base: Addr, buf: &mut [u8]);

    /// Commits the current transaction (1-safe: returns as soon as the
    /// commit is durable locally).
    ///
    /// # Errors
    ///
    /// [`TxError::NoActiveTransaction`] or [`TxError::Halted`].
    fn commit(&mut self, m: &mut Machine<T>) -> Result<(), TxError>;

    /// Aborts the current transaction, restoring every declared range.
    ///
    /// # Errors
    ///
    /// [`TxError::NoActiveTransaction`] or [`TxError::Halted`].
    fn abort(&mut self, m: &mut Machine<T>) -> Result<(), TxError>;

    /// Runs crash recovery against the (surviving) arena: rolls back an
    /// interrupted transaction, or — for the mirroring versions — rolls an
    /// interrupted commit forward. Idempotent.
    ///
    /// # Errors
    ///
    /// [`Halted`] when the arena's write budget halts recovery mid-flight;
    /// being idempotent, recovery simply runs again over the arena it left.
    fn recover(&mut self, m: &mut Machine<T>) -> Result<RecoveryReport, Halted>;

    /// Number of committed transactions (the persistent sequence number).
    fn committed_seq(&self, m: &mut Machine<T>) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_labels_match_paper() {
        assert_eq!(VersionTag::Vista.paper_label(), "Version 0 (Vista)");
        assert_eq!(
            VersionTag::ImprovedLog.to_string(),
            "Version 3 (Improved Log)"
        );
        assert_eq!(VersionTag::ALL.len(), 4);
    }
}

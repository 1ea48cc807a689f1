//! Transaction-layer errors.

use core::fmt;
use std::error::Error;

use dsnrep_rio::OutOfMemory;
use dsnrep_simcore::{Addr, Halted};

/// Errors returned by the transaction API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxError {
    /// `set_range`, `write`, `commit` or `abort` was called with no
    /// transaction active.
    NoActiveTransaction,
    /// `begin` was called while a transaction was already active
    /// (concurrency control is a layer above this API, as in the paper).
    TransactionActive,
    /// A write was not covered by any `set_range` of the current
    /// transaction: the system could not undo it, so it is rejected.
    UnprotectedWrite {
        /// Start of the offending write.
        addr: Addr,
        /// Length of the offending write.
        len: u64,
    },
    /// A `set_range` fell (partly) outside the database region.
    RangeOutOfDatabase {
        /// Start of the offending range.
        addr: Addr,
        /// Length of the offending range.
        len: u64,
    },
    /// The set-range record array is full (Versions 1 and 2).
    TooManyRanges {
        /// The configured capacity.
        capacity: usize,
    },
    /// The inline undo log is full (Version 3).
    UndoLogFull {
        /// Bytes requested.
        needed: u64,
        /// Bytes remaining.
        available: u64,
    },
    /// The recoverable heap could not satisfy an undo allocation
    /// (Version 0).
    UndoAllocFailed(OutOfMemory),
    /// A redo record does not fit in the ring at all (larger than the whole
    /// ring capacity).
    RedoRecordTooLarge {
        /// Bytes the record needs.
        needed: u64,
        /// The ring's total capacity.
        capacity: u64,
    },
    /// An armed fault budget halted the node mid-operation (fault
    /// injection): the engine stopped at the halting store and ran
    /// nothing after it, not even an abort.
    Halted,
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::NoActiveTransaction => f.write_str("no transaction is active"),
            TxError::TransactionActive => f.write_str("a transaction is already active"),
            TxError::UnprotectedWrite { addr, len } => {
                write!(
                    f,
                    "write of {len} bytes at {addr} is not covered by any set_range"
                )
            }
            TxError::RangeOutOfDatabase { addr, len } => {
                write!(
                    f,
                    "set_range of {len} bytes at {addr} falls outside the database"
                )
            }
            TxError::TooManyRanges { capacity } => {
                write!(f, "set-range array is full ({capacity} records)")
            }
            TxError::UndoLogFull { needed, available } => {
                write!(
                    f,
                    "undo log full: need {needed} bytes, {available} available"
                )
            }
            TxError::UndoAllocFailed(e) => write!(f, "undo allocation failed: {e}"),
            TxError::RedoRecordTooLarge { needed, capacity } => {
                write!(
                    f,
                    "redo record of {needed} bytes exceeds ring capacity {capacity}"
                )
            }
            TxError::Halted => fmt::Display::fmt(&Halted, f),
        }
    }
}

impl Error for TxError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TxError::UndoAllocFailed(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<OutOfMemory> for TxError {
    fn from(e: OutOfMemory) -> Self {
        TxError::UndoAllocFailed(e)
    }
}

/// A halt passes through the transaction API unchanged.
impl From<Halted> for TxError {
    fn from(_: Halted) -> Self {
        TxError::Halted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = TxError::UnprotectedWrite {
            addr: Addr::new(64),
            len: 8,
        };
        assert_eq!(
            e.to_string(),
            "write of 8 bytes at @0x40 is not covered by any set_range"
        );
        assert!(TxError::NoActiveTransaction
            .to_string()
            .starts_with("no transaction"));
    }

    #[test]
    fn a_halt_converts_and_displays_as_the_halt() {
        assert_eq!(TxError::from(Halted), TxError::Halted);
        assert_eq!(TxError::Halted.to_string(), Halted.to_string());
    }

    #[test]
    fn source_chains_alloc_failure() {
        let e = TxError::from(OutOfMemory { requested: 9 });
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TxError>();
    }
}

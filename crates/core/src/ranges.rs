//! Volatile per-transaction range tracking shared by all engine versions.
//!
//! Each engine also persists ranges in its own version-specific form (heap
//! records, the range array, the inline log); this tracker is the cheap
//! volatile copy used to validate writes and drive commit processing.

use dsnrep_simcore::{Addr, Region};

use crate::error::TxError;

#[derive(Clone, Debug, Default)]
pub(crate) struct TxRanges {
    active: bool,
    ranges: Vec<Region>,
}

impl TxRanges {
    pub(crate) fn begin(&mut self) -> Result<(), TxError> {
        if self.active {
            return Err(TxError::TransactionActive);
        }
        self.active = true;
        self.ranges.clear();
        Ok(())
    }

    pub(crate) fn require_active(&self) -> Result<(), TxError> {
        if self.active {
            Ok(())
        } else {
            Err(TxError::NoActiveTransaction)
        }
    }

    pub(crate) fn end(&mut self) {
        self.active = false;
        self.ranges.clear();
    }

    pub(crate) fn is_active(&self) -> bool {
        self.active
    }

    pub(crate) fn add(&mut self, db: Region, base: Addr, len: u64) -> Result<(), TxError> {
        self.require_active()?;
        if !db.contains_range(base, len) || len == 0 {
            return Err(TxError::RangeOutOfDatabase { addr: base, len });
        }
        self.ranges.push(Region::new(base, len));
        Ok(())
    }

    pub(crate) fn check_covered(&self, base: Addr, len: u64) -> Result<(), TxError> {
        self.require_active()?;
        if self.ranges.iter().any(|r| r.contains_range(base, len)) {
            Ok(())
        } else {
            Err(TxError::UnprotectedWrite { addr: base, len })
        }
    }

    pub(crate) fn pop_last(&mut self) {
        self.ranges.pop();
    }

    /// The `i`-th range declared, in declaration order.
    pub(crate) fn get(&self, i: usize) -> Region {
        self.ranges[i]
    }

    pub(crate) fn len(&self) -> usize {
        self.ranges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let db = Region::new(Addr::new(0), 100);
        let mut t = TxRanges::default();
        assert_eq!(t.require_active(), Err(TxError::NoActiveTransaction));
        t.begin().unwrap();
        assert_eq!(t.begin(), Err(TxError::TransactionActive));
        t.add(db, Addr::new(10), 20).unwrap();
        t.check_covered(Addr::new(10), 20).unwrap();
        t.check_covered(Addr::new(15), 5).unwrap();
        assert!(matches!(
            t.check_covered(Addr::new(25), 10),
            Err(TxError::UnprotectedWrite { .. })
        ));
        t.end();
        assert!(!t.is_active());
    }

    #[test]
    fn rejects_out_of_db_and_empty_ranges() {
        let db = Region::new(Addr::new(50), 100);
        let mut t = TxRanges::default();
        t.begin().unwrap();
        assert!(matches!(
            t.add(db, Addr::new(140), 20),
            Err(TxError::RangeOutOfDatabase { .. })
        ));
        assert!(matches!(
            t.add(db, Addr::new(60), 0),
            Err(TxError::RangeOutOfDatabase { .. })
        ));
        t.add(db, Addr::new(50), 100).unwrap();
        assert_eq!(t.len(), 1);
    }
}

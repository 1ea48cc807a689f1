//! The value every fault budget returns when it halts a simulated node.

use core::fmt;
use std::error::Error;

/// A simulated node halted at an injected fault boundary: a store, SAN
/// packet or recovery-write budget ran out.
///
/// Each budget (`Machine`'s stores, `TxPort`'s packets, `Arena`'s writes)
/// returns it from the call that found the budget at zero. That call
/// mutates nothing the budget guards, and every layer above passes the
/// value up with `?` without running anything further on the node: the
/// crash point is exactly the boundary the budget counted to.
///
/// # Examples
///
/// ```
/// use dsnrep_simcore::Halted;
///
/// fn store(budget: &mut u64) -> Result<(), Halted> {
///     *budget = budget.checked_sub(1).ok_or(Halted)?;
///     Ok(())
/// }
/// let mut budget = 1;
/// assert_eq!(store(&mut budget), Ok(()));
/// assert_eq!(store(&mut budget), Err(Halted));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Halted;

impl fmt::Display for Halted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("simulated node halted at an injected fault boundary")
    }
}

impl Error for Halted {}

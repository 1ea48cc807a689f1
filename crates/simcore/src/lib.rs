//! Deterministic simulation core for the DSN-2000 replication reproduction.
//!
//! This crate holds the pieces every other crate in the workspace builds on:
//!
//! * [`VirtualInstant`] / [`VirtualDuration`] — picosecond-resolution virtual
//!   time, and [`Clock`] — the per-processor virtual clock.
//! * [`Addr`] / [`Region`] — arena-offset addressing shared by primary and
//!   backup (the Memory Channel double-mapping property).
//! * [`DirectMappedCache`] — the 8 MB board-cache model behind the paper's
//!   locality results.
//! * [`listed`] — dense slot maps that list the slots they fill, and a
//!   free list of emptied ones: the cache's chunk map and an arena's
//!   page map.
//! * [`CostModel`] — every calibrated constant, with its derivation.
//! * [`Halted`] — what every fault budget returns when it stops a node.
//! * [`SplitMix64`] — a small deterministic RNG.
//!
//! # Examples
//!
//! Charging memory-access costs against a virtual clock:
//!
//! ```
//! use dsnrep_simcore::{Addr, Clock, CostModel, DirectMappedCache};
//!
//! let costs = CostModel::alpha_21164a();
//! let mut cache = DirectMappedCache::new(costs.cache_capacity, costs.cache_line);
//! let mut clock = Clock::new();
//!
//! let out = cache.touch(Addr::new(4096), 64);
//! clock.advance(costs.cache_hit * out.hits + costs.cache_miss * out.misses);
//! assert_eq!(clock.now().as_picos(), costs.cache_miss.as_picos());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod bytes;
mod cache;
mod clock;
mod costs;
mod halt;
pub mod listed;
mod rng;
mod time;

pub use addr::{Addr, Region, TrafficClass};
pub use bytes::copy_small;
pub use cache::{CacheOutcome, DirectMappedCache};
pub use clock::{BusyCause, Clock, StallCause};
pub use costs::CostModel;
pub use halt::Halted;
pub use rng::SplitMix64;
pub use time::{VirtualDuration, VirtualInstant};

/// One mebibyte, the unit the paper reports traffic in.
pub const MIB: u64 = 1024 * 1024;

/// Converts a byte count to the paper's "MB" (mebibytes).
///
/// # Examples
///
/// ```
/// assert_eq!(dsnrep_simcore::bytes_to_mib(3 * 1024 * 1024), 3.0);
/// ```
pub fn bytes_to_mib(bytes: u64) -> f64 {
    bytes as f64 / MIB as f64
}

//! Recoverable memory for the DSN-2000 replication reproduction.
//!
//! This crate substitutes for the **Rio reliable memory** system (Chen et
//! al., ASPLOS '96) that Vista builds on: main memory whose contents survive
//! power failures and operating-system crashes. The paper relies on two
//! properties only — stores to recoverable memory are durable at store
//! granularity, and recovery code can walk the surviving bytes — and this
//! crate provides exactly those:
//!
//! * [`Arena`] — a lazily paged, crash-surviving byte space addressed by
//!   `Addr` offsets (from `dsnrep-simcore`).
//! * [`Layout`] / [`LayoutBuilder`] — the named-region map and persistent
//!   root slots through which recovery re-attaches after a crash.
//! * [`FreeListHeap`] — a boundary-tag heap *inside* the arena whose
//!   metadata writes are observable (they are most of the paper's Table 2
//!   traffic).
//!
//! Crash simulation is intentionally trivial: a crash is the act of dropping
//! every volatile structure and keeping the [`Arena`]. The `dsnrep-core`
//! crate's `Machine` models the volatile side (caches, clocks).
//!
//! # Examples
//!
//! ```
//! use dsnrep_rio::{Arena, Layout, LayoutBuilder, RegionId};
//!
//! let layout = LayoutBuilder::new()
//!     .region(RegionId::Database, 64 * 1024)
//!     .region(RegionId::UndoLog, 16 * 1024)
//!     .build();
//! let mut arena = Arena::new(layout.arena_len());
//! layout.format(&mut arena);
//!
//! // ... a crash is: keep `arena`, drop everything else ...
//! let recovered = Layout::read(&arena)?;
//! assert_eq!(recovered, layout);
//! # Ok::<(), dsnrep_rio::LayoutError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alloc;
mod arena;
mod frames;
mod layout;

pub use alloc::{AllocMem, FreeListHeap, HeapCorruption, HeapStats, OutOfMemory};
pub use arena::{first_difference, Arena, Image, Piece};
pub use layout::{Layout, LayoutBuilder, LayoutError, RegionId, RootSlot, HEADER_LEN};

use dsnrep_simcore::{Addr, Halted};

/// An [`AllocMem`] over a bare arena that charges no costs.
///
/// Used by recovery code (which runs on the failure path, not the measured
/// path), by test oracles, and by this crate's own tests. Its writes
/// consume the arena's write budget, so a recovery that rebuilds a heap
/// halts where the budget says.
///
/// # Examples
///
/// ```
/// use dsnrep_rio::{Arena, RawMem, AllocMem};
/// use dsnrep_simcore::Addr;
///
/// let mut arena = Arena::new(4096);
/// let mut mem = RawMem::new(&mut arena);
/// mem.write_u64(Addr::new(16), 99)?;
/// assert_eq!(mem.read_u64(Addr::new(16)), 99);
/// # Ok::<(), dsnrep_simcore::Halted>(())
/// ```
#[derive(Debug)]
pub struct RawMem<'a> {
    arena: &'a mut Arena,
}

impl<'a> RawMem<'a> {
    /// Wraps an arena.
    pub fn new(arena: &'a mut Arena) -> Self {
        RawMem { arena }
    }

    /// The underlying arena.
    pub fn arena(&mut self) -> &mut Arena {
        self.arena
    }
}

impl AllocMem for RawMem<'_> {
    fn read_u64(&mut self, addr: Addr) -> u64 {
        self.arena.read_u64(addr)
    }

    fn write_u64(&mut self, addr: Addr, value: u64) -> Result<(), Halted> {
        self.arena.try_write_u64(addr, value)
    }
}

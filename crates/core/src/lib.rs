//! The paper's transaction engines: Vista and its three restructurings.
//!
//! This crate is the primary contribution of the reproduction: a
//! Vista-style recoverable-memory transaction library (`begin` /
//! `set_range` / `write` / `commit` / `abort` / `recover`) implemented four
//! ways, exactly as compared in *Data Replication Strategies for Fault
//! Tolerance and Availability on Commodity Clusters* (Amza, Cox,
//! Zwaenepoel — DSN 2000):
//!
//! | engine | paper | undo representation |
//! |---|---|---|
//! | [`VistaEngine`]       | Version 0 | heap-allocated record list |
//! | [`MirrorEngine`] ([`MirrorStrategy::Copy`]) | Version 1 | database mirror, copied at commit |
//! | [`MirrorEngine`] ([`MirrorStrategy::Diff`]) | Version 2 | database mirror, diffed at commit |
//! | [`ImprovedLogEngine`] | Version 3 | contiguous inline log |
//!
//! plus the redo ring ([`RedoWriter`] / [`RedoReader`]) that powers the
//! active-backup scheme of §6, the [`Machine`] that charges every memory
//! access to the virtual-time cost model, and the [`ShadowDb`] oracle the
//! test suites verify recovery against.
//!
//! # Examples
//!
//! A complete standalone transaction with crash recovery:
//!
//! ```
//! use std::cell::RefCell;
//! use std::rc::Rc;
//! use dsnrep_core::{Engine, EngineConfig, ImprovedLogEngine, Machine};
//! use dsnrep_rio::Arena;
//! use dsnrep_simcore::CostModel;
//!
//! let config = EngineConfig::for_db(64 * 1024);
//! let arena = Rc::new(RefCell::new(Arena::new(ImprovedLogEngine::arena_len(&config))));
//! let mut m = Machine::standalone(CostModel::alpha_21164a(), Rc::clone(&arena));
//! let mut engine = ImprovedLogEngine::format(&mut m, &config);
//! let db = engine.db_region().start();
//!
//! // A committed transaction...
//! engine.begin(&mut m)?;
//! engine.set_range(&mut m, db, 8)?;
//! engine.write(&mut m, db, &1u64.to_le_bytes())?;
//! engine.commit(&mut m)?;
//!
//! // ...then a crash in the middle of a second one.
//! engine.begin(&mut m)?;
//! engine.set_range(&mut m, db, 8)?;
//! engine.write(&mut m, db, &2u64.to_le_bytes())?;
//! m.crash();
//!
//! // Reboot: re-attach and recover. The interrupted transaction is gone.
//! let mut engine = ImprovedLogEngine::attach(&mut m).expect("formatted arena");
//! let report = engine.recover(&mut m).expect("no fault armed");
//! assert!(report.rolled_back);
//! assert_eq!(arena.borrow().read_u64(db), 1);
//! # Ok::<(), dsnrep_core::TxError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod audit;
mod config;
mod engine;
mod error;
mod machine;
mod mirror;
mod ranges;
mod redo;
mod shadow;
mod v0;
mod v3;

pub use audit::{audit, AuditReport, AuditViolation};
pub use config::EngineConfig;
pub use engine::{Engine, RecoveryReport, VersionTag};
pub use error::TxError;
pub use machine::{Durability, Machine, MachineStats, MetaMem};
pub use mirror::{MirrorEngine, MirrorStrategy};
pub use redo::{Applied, RedoReader, RedoWriter};
pub use shadow::ShadowDb;
pub use v0::VistaEngine;
pub use v3::ImprovedLogEngine;

use std::cell::RefCell;
use std::rc::Rc;

use dsnrep_rio::Arena;

/// Builds an engine of the given version over `m`'s arena, formatting it.
///
/// The active-backup scheme uses [`ImprovedLogEngine`] locally (the paper
/// uses "the best local scheme, i.e., Version 3" — §6.1), so it is not a
/// separate variant here.
///
/// # Examples
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use dsnrep_core::{build_engine, EngineConfig, Machine, VersionTag};
/// use dsnrep_rio::Arena;
/// use dsnrep_simcore::CostModel;
///
/// let config = EngineConfig::for_db(1 << 16);
/// let arena = Rc::new(RefCell::new(Arena::new(dsnrep_core::arena_len(
///     VersionTag::MirrorDiff, &config))));
/// let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
/// let engine = build_engine(VersionTag::MirrorDiff, &mut m, &config);
/// assert_eq!(engine.version(), VersionTag::MirrorDiff);
/// ```
pub fn build_engine<T: dsnrep_obs::Tracer + 'static>(
    version: VersionTag,
    m: &mut Machine<T>,
    config: &EngineConfig,
) -> Box<dyn Engine<T>> {
    match version {
        VersionTag::Vista => Box::new(VistaEngine::format(m, config)),
        VersionTag::MirrorCopy => Box::new(MirrorEngine::format(m, config, MirrorStrategy::Copy)),
        VersionTag::MirrorDiff => Box::new(MirrorEngine::format(m, config, MirrorStrategy::Diff)),
        VersionTag::ImprovedLog => Box::new(ImprovedLogEngine::format(m, config)),
    }
}

/// Re-attaches an engine of the given version to a formatted arena (crash
/// recovery / failover path).
///
/// # Panics
///
/// Panics if the arena was not formatted for `version`'s layout.
pub fn attach_engine<T: dsnrep_obs::Tracer + 'static>(
    version: VersionTag,
    m: &mut Machine<T>,
) -> Box<dyn Engine<T>> {
    match version {
        VersionTag::Vista => {
            Box::new(VistaEngine::attach(m).expect("arena formatted for Version 0"))
        }
        VersionTag::MirrorCopy => Box::new(
            MirrorEngine::attach(m, MirrorStrategy::Copy).expect("arena formatted for mirroring"),
        ),
        VersionTag::MirrorDiff => Box::new(
            MirrorEngine::attach(m, MirrorStrategy::Diff).expect("arena formatted for mirroring"),
        ),
        VersionTag::ImprovedLog => {
            Box::new(ImprovedLogEngine::attach(m).expect("arena formatted for Version 3"))
        }
    }
}

/// Arena bytes `version` needs under `config`.
pub fn arena_len(version: VersionTag, config: &EngineConfig) -> u64 {
    match version {
        VersionTag::Vista => VistaEngine::arena_len(config),
        VersionTag::MirrorCopy | VersionTag::MirrorDiff => MirrorEngine::arena_len(config),
        VersionTag::ImprovedLog => ImprovedLogEngine::arena_len(config),
    }
}

/// Creates a shared arena handle of `len` bytes (convenience for wiring a
/// [`Machine`] to `dsnrep-mcsim` ports).
///
/// # Examples
///
/// ```
/// let arena = dsnrep_core::shared_arena(4096);
/// assert_eq!(arena.borrow().len(), 4096);
/// ```
pub fn shared_arena(len: u64) -> Rc<RefCell<Arena>> {
    Rc::new(RefCell::new(Arena::new(len)))
}

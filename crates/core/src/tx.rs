//! An RAII transaction guard.
//!
//! Vista's C API leaves abort-on-error to the caller; in Rust the borrow
//! checker lets us do better. A [`Tx`] borrows the engine and machine for
//! the duration of one transaction and **aborts on drop** unless committed,
//! so early returns and `?` propagation can never leak a half-finished
//! transaction into the next one. The one exception is a halted node: after
//! [`TxError::Halted`] the guard runs nothing more, abort included.

use dsnrep_obs::{NullTracer, Tracer};
use dsnrep_simcore::Addr;

use crate::engine::Engine;
use crate::error::TxError;
use crate::machine::Machine;

/// A live transaction; aborts on drop unless [`Tx::commit`] is called.
///
/// # Examples
///
/// ```
/// use dsnrep_core::{EngineConfig, ImprovedLogEngine, Machine, Tx, Engine};
/// use dsnrep_simcore::CostModel;
///
/// let config = EngineConfig::for_db(1 << 16);
/// let arena = dsnrep_core::shared_arena(ImprovedLogEngine::arena_len(&config));
/// let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
/// let mut engine = ImprovedLogEngine::format(&mut m, &config);
/// let db = engine.db_region().start();
///
/// // Commit path.
/// let mut tx = Tx::begin(&mut engine, &mut m)?;
/// tx.update(db, &7u64.to_le_bytes())?;
/// tx.commit()?;
///
/// // Early-return path: the guard aborts automatically.
/// {
///     let mut tx = Tx::begin(&mut engine, &mut m)?;
///     tx.update(db, &9u64.to_le_bytes())?;
///     // dropped here without commit
/// }
/// let mut buf = [0u8; 8];
/// engine.read(&mut m, db, &mut buf);
/// assert_eq!(u64::from_le_bytes(buf), 7);
/// # Ok::<(), dsnrep_core::TxError>(())
/// ```
#[derive(Debug)]
pub struct Tx<'a, T: Tracer = NullTracer> {
    engine: &'a mut dyn Engine<T>,
    machine: &'a mut Machine<T>,
    finished: bool,
}

impl<'a, T: Tracer> Tx<'a, T> {
    /// Starts a transaction.
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::begin`] errors.
    pub fn begin(
        engine: &'a mut dyn Engine<T>,
        machine: &'a mut Machine<T>,
    ) -> Result<Self, TxError> {
        engine.begin(machine)?;
        Ok(Tx {
            engine,
            machine,
            finished: false,
        })
    }

    /// Declares a writable range.
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::set_range`] errors.
    pub fn set_range(&mut self, base: Addr, len: u64) -> Result<(), TxError> {
        let result = self.engine.set_range(self.machine, base, len);
        self.unless_halted(result)
    }

    /// Writes in place within a declared range.
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::write`] errors.
    pub fn write(&mut self, base: Addr, bytes: &[u8]) -> Result<(), TxError> {
        let result = self.engine.write(self.machine, base, bytes);
        self.unless_halted(result)
    }

    /// Passes `result` on; a halt finishes the guard, so its drop runs no
    /// abort on the halted node.
    fn unless_halted(&mut self, result: Result<(), TxError>) -> Result<(), TxError> {
        if result == Err(TxError::Halted) {
            self.finished = true;
        }
        result
    }

    /// Convenience: `set_range` + `write` of the same bytes.
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::set_range`] and [`Engine::write`] errors.
    pub fn update(&mut self, base: Addr, bytes: &[u8]) -> Result<(), TxError> {
        self.set_range(base, bytes.len() as u64)?;
        self.write(base, bytes)
    }

    /// Reads current bytes.
    pub fn read(&mut self, base: Addr, buf: &mut [u8]) {
        self.engine.read(self.machine, base, buf);
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self, base: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read(base, &mut b);
        u64::from_le_bytes(b)
    }

    /// Commits, consuming the guard.
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::commit`] errors; on error the transaction is
    /// still aborted by the drop, unless the node halted.
    pub fn commit(mut self) -> Result<(), TxError> {
        let result = self.engine.commit(self.machine);
        self.unless_halted(result)?;
        self.finished = true;
        Ok(())
    }

    /// Aborts explicitly, consuming the guard.
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::abort`] errors.
    pub fn abort(mut self) -> Result<(), TxError> {
        self.finished = true;
        self.engine.abort(self.machine)
    }
}

impl<T: Tracer> Drop for Tx<'_, T> {
    fn drop(&mut self) {
        if !self.finished {
            // Destructors never fail (C-DTOR-FAIL): a double-finish error
            // here would mean the engine already left the transaction.
            let _ = self.engine.abort(self.machine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_engine, EngineConfig, VersionTag};
    use dsnrep_simcore::CostModel;

    fn setup(version: VersionTag) -> (Machine, Box<dyn Engine>) {
        let config = EngineConfig::for_db(1 << 16);
        let arena = crate::shared_arena(crate::arena_len(version, &config));
        let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
        let engine = build_engine(version, &mut m, &config);
        (m, engine)
    }

    #[test]
    fn drop_aborts_for_every_version() {
        for version in VersionTag::ALL {
            let (mut m, mut engine) = setup(version);
            let db = engine.db_region().start();
            {
                let mut tx = Tx::begin(engine.as_mut(), &mut m).expect("idle");
                tx.update(db, &[0xEE; 16]).expect("in range");
            } // dropped, aborted
            let mut buf = [9u8; 16];
            engine.read(&mut m, db, &mut buf);
            assert_eq!(buf, [0; 16], "{version}");
            assert_eq!(engine.committed_seq(&mut m), 0, "{version}");
            // The engine is reusable.
            let tx = Tx::begin(engine.as_mut(), &mut m).expect("idle again");
            tx.commit().expect("empty commit");
        }
    }

    #[test]
    fn commit_keeps_writes() {
        let (mut m, mut engine) = setup(VersionTag::MirrorCopy);
        let db = engine.db_region().start();
        let mut tx = Tx::begin(engine.as_mut(), &mut m).expect("idle");
        tx.update(db + 8, &0xABCD_u64.to_le_bytes())
            .expect("in range");
        assert_eq!(tx.read_u64(db + 8), 0xABCD);
        tx.commit().expect("commit");
        assert_eq!(engine.committed_seq(&mut m), 1);
    }

    #[test]
    fn explicit_abort_consumes_guard() {
        let (mut m, mut engine) = setup(VersionTag::Vista);
        let db = engine.db_region().start();
        let mut tx = Tx::begin(engine.as_mut(), &mut m).expect("idle");
        tx.update(db, &[1; 8]).expect("in range");
        tx.abort().expect("abort");
        let mut buf = [9u8; 8];
        engine.read(&mut m, db, &mut buf);
        assert_eq!(buf, [0; 8]);
    }

    #[test]
    fn a_halt_skips_the_drop_abort() {
        for version in VersionTag::ALL {
            let (mut guarded, mut engine) = setup(version);
            let (mut bare, mut twin) = setup(version);
            let db = engine.db_region().start();
            guarded.inject_crash_after_stores(1);
            bare.inject_crash_after_stores(1);
            {
                let mut tx = Tx::begin(engine.as_mut(), &mut guarded).expect("idle");
                assert_eq!(
                    tx.update(db, &[0xEE; 16]),
                    Err(TxError::Halted),
                    "{version}"
                );
            } // dropped on a halted node: no abort runs
            twin.begin(&mut bare).expect("idle");
            assert_eq!(
                twin.set_range(&mut bare, db, 16),
                Err(TxError::Halted),
                "{version}"
            );
            assert_eq!(guarded.stats(), bare.stats(), "{version}");
            assert_eq!(
                guarded.stores_executed(),
                bare.stores_executed(),
                "{version}"
            );
        }
    }

    #[test]
    fn error_then_drop_leaves_engine_clean() {
        let (mut m, mut engine) = setup(VersionTag::ImprovedLog);
        let db = engine.db_region();
        {
            let mut tx = Tx::begin(engine.as_mut(), &mut m).expect("idle");
            // Out-of-database set_range fails; the guard still aborts fine.
            assert!(tx.set_range(db.end(), 8).is_err());
        }
        assert!(engine.begin(&mut m).is_ok());
        assert!(engine.abort(&mut m).is_ok());
    }
}

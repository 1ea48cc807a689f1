//! The transaction context: engine + machine + optional shadow oracle.
//!
//! Workloads issue their operations through a [`TxCtx`] so that correctness
//! tests can attach a [`ShadowDb`] that observes exactly the same logical
//! writes. (The active-backup driver stages its redo records in its own
//! engine's `write`, not here.)

use dsnrep_core::{Engine, Machine, ShadowDb, TxError};
use dsnrep_obs::{NullTracer, Tracer};
use dsnrep_simcore::{Addr, VirtualDuration};

/// A handle through which a workload runs one transaction.
///
/// Forwards every operation to the engine and mirrors it into the optional
/// shadow.
pub struct TxCtx<'a, T: Tracer = NullTracer> {
    machine: &'a mut Machine<T>,
    engine: &'a mut dyn Engine<T>,
    shadow: Option<&'a mut ShadowDb>,
}

impl<T: Tracer> std::fmt::Debug for TxCtx<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxCtx")
            .field("engine", &self.engine.version())
            .field("has_shadow", &self.shadow.is_some())
            .finish()
    }
}

impl<'a, T: Tracer> TxCtx<'a, T> {
    /// Creates a context without a shadow.
    pub fn new(machine: &'a mut Machine<T>, engine: &'a mut dyn Engine<T>) -> Self {
        TxCtx {
            machine,
            engine,
            shadow: None,
        }
    }

    /// Attaches a shadow oracle.
    pub fn with_shadow(mut self, shadow: &'a mut ShadowDb) -> Self {
        self.shadow = Some(shadow);
        self
    }

    /// Charges application-level CPU work (request parsing, item lookups,
    /// formatting) that is part of the benchmark but not of the engine.
    pub fn charge(&mut self, d: VirtualDuration) {
        self.machine.charge(d);
    }

    /// Begins a transaction.
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::begin`] errors.
    pub fn begin(&mut self) -> Result<(), TxError> {
        self.engine.begin(self.machine)?;
        if let Some(s) = self.shadow.as_deref_mut() {
            s.begin();
        }
        Ok(())
    }

    /// Declares a writable range.
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::set_range`] errors.
    pub fn set_range(&mut self, base: Addr, len: u64) -> Result<(), TxError> {
        self.engine.set_range(self.machine, base, len)?;
        if let Some(s) = self.shadow.as_deref_mut() {
            s.declare(base, len);
        }
        Ok(())
    }

    /// Writes in place (within a declared range).
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::write`] errors.
    pub fn write(&mut self, base: Addr, bytes: &[u8]) -> Result<(), TxError> {
        self.engine.write(self.machine, base, bytes)?;
        if let Some(s) = self.shadow.as_deref_mut() {
            s.write(base, bytes);
        }
        Ok(())
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

    /// Reads a little-endian `i64`.
    pub fn read_i64(&mut self, base: Addr) -> i64 {
        self.read_u64(base) as i64
    }

    /// Writes a little-endian `u64` (within a declared range).
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::write`] errors.
    pub fn write_u64(&mut self, base: Addr, value: u64) -> Result<(), TxError> {
        self.write(base, &value.to_le_bytes())
    }

    /// Writes a little-endian `i64` (within a declared range).
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::write`] errors.
    pub fn write_i64(&mut self, base: Addr, value: i64) -> Result<(), TxError> {
        self.write(base, &value.to_le_bytes())
    }

    /// Commits.
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::commit`] errors.
    pub fn commit(&mut self) -> Result<(), TxError> {
        self.engine.commit(self.machine)?;
        if let Some(s) = self.shadow.as_deref_mut() {
            s.commit();
        }
        Ok(())
    }

    /// Aborts.
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::abort`] errors.
    pub fn abort(&mut self) -> Result<(), TxError> {
        self.engine.abort(self.machine)?;
        if let Some(s) = self.shadow.as_deref_mut() {
            s.abort();
        }
        Ok(())
    }
}

//! The store-sink abstraction connecting memory models to the SAN model.
//!
//! A [`StoreSink`] receives every store that must be written through to a
//! peer (write doubling), charges its virtual-time costs against the caller's
//! [`Clock`], and forwards the bytes to whatever models the interconnect
//! (`dsnrep-mcsim` implements this trait with write buffers, packets and a
//! shared link).

use crate::addr::{Addr, TrafficClass};
use crate::clock::Clock;
use crate::halt::Halted;

/// A consumer of doubled (write-through) stores.
///
/// Implementations may stall the caller by advancing `clock` (flow control on
/// the posted-write window), and are responsible for delivering the bytes to
/// the peer memory with the modelled latency.
pub trait StoreSink {
    /// Accepts a store of `bytes` at `addr` that was already applied to the
    /// local memory and must be written through.
    ///
    /// `class` is the accounting category of the traffic (Tables 2/5/7 of
    /// the paper).
    ///
    /// # Errors
    ///
    /// [`Halted`] when an armed fault budget stops the node before the
    /// store has gone out.
    fn store(
        &mut self,
        clock: &mut Clock,
        addr: Addr,
        bytes: &[u8],
        class: TrafficClass,
    ) -> Result<(), Halted>;

    /// A write-memory-barrier: flushes any partially filled write buffers to
    /// the link. Used before commit flags and ring-pointer updates so their
    /// ordering guarantees hold.
    ///
    /// # Errors
    ///
    /// [`Halted`] when an armed fault budget stops the node mid-flush.
    fn barrier(&mut self, clock: &mut Clock) -> Result<(), Halted>;
}

/// A sink that drops every store. Useful for tests that want the cost-free
/// path, and as the explicit representation of "no backup configured".
///
/// # Examples
///
/// ```
/// use dsnrep_simcore::{Addr, Clock, NullSink, StoreSink, TrafficClass};
///
/// let mut sink = NullSink::new();
/// let mut clock = Clock::new();
/// sink.store(&mut clock, Addr::new(0), &[1, 2, 3], TrafficClass::Modified)?;
/// assert_eq!(sink.stores(), 1);
/// assert!(clock.now().as_picos() == 0); // free
/// # Ok::<(), dsnrep_simcore::Halted>(())
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink {
    stores: u64,
    bytes: u64,
    barriers: u64,
}

impl NullSink {
    /// Creates a sink that discards everything.
    pub fn new() -> Self {
        NullSink::default()
    }

    /// Number of stores received.
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Number of bytes received.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of barriers received. Lets tests assert store ordering around
    /// commit flags (a barrier must separate the data from the flag).
    pub fn barriers(&self) -> u64 {
        self.barriers
    }
}

impl StoreSink for NullSink {
    fn store(
        &mut self,
        _clock: &mut Clock,
        _addr: Addr,
        bytes: &[u8],
        _class: TrafficClass,
    ) -> Result<(), Halted> {
        self.stores += 1;
        self.bytes += bytes.len() as u64;
        Ok(())
    }

    fn barrier(&mut self, _clock: &mut Clock) -> Result<(), Halted> {
        self.barriers += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_counts() -> Result<(), Halted> {
        let mut s = NullSink::new();
        let mut c = Clock::new();
        s.store(&mut c, Addr::new(8), &[0; 16], TrafficClass::Meta)?;
        s.store(&mut c, Addr::new(32), &[0; 4], TrafficClass::Undo)?;
        s.barrier(&mut c)?;
        assert_eq!(s.stores(), 2);
        assert_eq!(s.bytes(), 20);
        assert_eq!(s.barriers(), 1);
        assert!(c.stalled().is_zero());
        Ok(())
    }
}

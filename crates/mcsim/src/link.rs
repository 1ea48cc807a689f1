//! The shared Memory Channel link.
//!
//! One [`Link`] models the hub + cable between the primary's and the
//! backup's Memory Channel adapters. Packets are served FIFO: the cost of a
//! packet is an affine function of its payload (`CostModel::packet_time`),
//! the link is busy for that span, and the payload becomes visible at the
//! remote node one [`latency`](dsnrep_simcore::CostModel::link_latency)
//! later.
//!
//! Several transmit ports (one per SMP processor, plus the backup's
//! pointer write-back path) may share a link; that sharing is exactly the
//! bottleneck the paper's Figures 2 and 3 expose.

use dsnrep_obs::PacketLife;
use dsnrep_simcore::{CostModel, TrafficClass, VirtualDuration, VirtualInstant};

use crate::traffic::Traffic;

/// The service timing of one packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketTiming {
    /// When the packet was submitted to the link (the issue instant).
    pub ready: VirtualInstant,
    /// When the link started serving the packet (>= `ready`; the gap is
    /// this packet's share of the FIFO queue wait).
    pub start: VirtualInstant,
    /// When the link finished serializing the packet (sender-side resource
    /// release: the posted-write window frees at this instant).
    pub done: VirtualInstant,
    /// When the payload is visible in the remote node's memory.
    pub delivered: VirtualInstant,
}

impl PacketTiming {
    /// This packet's FIFO wait behind earlier packets on the link — the
    /// per-packet slice of [`Link::queue_wait`].
    pub fn queue_wait(&self) -> VirtualDuration {
        self.start.duration_since(self.ready)
    }

    /// Sender-side link occupancy for this packet: overhead plus wire
    /// serialization time.
    pub fn service(&self) -> VirtualDuration {
        self.done.duration_since(self.start)
    }

    /// The lifecycle record of packet `id`, issued by transaction `txn`
    /// (or [`NO_TXN`](dsnrep_obs::NO_TXN)), carrying `class_bytes`, served
    /// with this timing.
    pub(crate) fn life(&self, id: u64, txn: u64, class_bytes: [u64; 3]) -> PacketLife {
        PacketLife {
            id,
            txn,
            ready: self.ready,
            start: self.start,
            done: self.done,
            delivered: self.delivered,
            class_bytes,
        }
    }
}

/// A FIFO link with affine per-packet service time and fixed delivery
/// latency.
///
/// # Examples
///
/// ```
/// use dsnrep_mcsim::Link;
/// use dsnrep_simcore::{CostModel, TrafficClass, VirtualInstant};
///
/// let mut link = Link::new(&CostModel::alpha_21164a());
/// let a = link.send(VirtualInstant::EPOCH, 32, TrafficClass::Modified);
/// let b = link.send(VirtualInstant::EPOCH, 32, TrafficClass::Modified);
/// assert_eq!(b.start, a.done); // FIFO: second packet waits
/// assert!(a.delivered > a.done);
/// ```
#[derive(Clone, Debug)]
pub struct Link {
    overhead: VirtualDuration,
    per_byte_picos: u64,
    latency: VirtualDuration,
    busy_until: VirtualInstant,
    traffic: Traffic,
    queue_wait: VirtualDuration,
}

impl Link {
    /// Creates an idle link with `costs`' packet parameters.
    pub fn new(costs: &CostModel) -> Self {
        Link {
            overhead: costs.link_packet_overhead,
            per_byte_picos: costs.link_per_byte.as_picos(),
            latency: costs.link_latency,
            busy_until: VirtualInstant::EPOCH,
            traffic: Traffic::new(),
            queue_wait: VirtualDuration::ZERO,
        }
    }

    /// Submits a packet at time `ready`; returns its service timing.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds 32 bytes (enforced by [`Traffic`]).
    pub fn send(
        &mut self,
        ready: VirtualInstant,
        payload: u64,
        class: TrafficClass,
    ) -> PacketTiming {
        let mut class_bytes = [0u64; 3];
        class_bytes[class.index()] = payload;
        self.send_mixed(ready, class_bytes)
    }

    /// Submits a packet whose payload mixes traffic classes.
    ///
    /// # Panics
    ///
    /// Panics if the total payload exceeds 32 bytes (enforced by
    /// [`Traffic`]).
    pub fn send_mixed(&mut self, ready: VirtualInstant, class_bytes: [u64; 3]) -> PacketTiming {
        let payload: u64 = class_bytes.iter().sum();
        let start = ready.max(self.busy_until);
        self.queue_wait += start.duration_since(ready);
        let service = self.overhead + VirtualDuration::from_picos(self.per_byte_picos * payload);
        let done = start + service;
        self.busy_until = done;
        self.traffic.record_mixed_packet(class_bytes);
        PacketTiming {
            ready,
            start,
            done,
            delivered: done + self.latency,
        }
    }

    /// The instant the link becomes idle.
    pub fn busy_until(&self) -> VirtualInstant {
        self.busy_until
    }

    /// Cumulative link-arbitration wait: the sum over all packets of the
    /// time between submission (`ready`) and the FIFO starting service
    /// (`start`). Posted writes do not stall the sending processor on this
    /// wait — it is queueing delay inside the interconnect — so it is
    /// reported separately from the clock's stall breakdown.
    pub fn queue_wait(&self) -> VirtualDuration {
        self.queue_wait
    }

    /// Cumulative traffic statistics.
    pub fn traffic(&self) -> &Traffic {
        &self.traffic
    }

    /// Link utilization over `elapsed`: busy time / elapsed time, where busy
    /// time is approximated from the traffic counters.
    pub fn utilization(&self, elapsed: VirtualDuration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        let busy = self.overhead.as_picos() * self.traffic.total_packets()
            + self.per_byte_picos * self.traffic.total_bytes();
        busy as f64 / elapsed.as_picos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> Link {
        Link::new(&CostModel::alpha_21164a())
    }

    #[test]
    fn fifo_serialization() {
        let mut l = link();
        let a = l.send(VirtualInstant::EPOCH, 32, TrafficClass::Modified);
        let b = l.send(VirtualInstant::EPOCH, 4, TrafficClass::Meta);
        assert_eq!(a.start, VirtualInstant::EPOCH);
        assert_eq!(b.start, a.done);
        assert!(b.done > b.start);
    }

    #[test]
    fn idle_link_starts_immediately() {
        let mut l = link();
        let late = VirtualInstant::from_picos(10_000_000);
        let t = l.send(late, 8, TrafficClass::Undo);
        assert_eq!(t.start, late);
    }

    #[test]
    fn delivery_adds_latency() {
        let costs = CostModel::alpha_21164a();
        let mut l = Link::new(&costs);
        let t = l.send(VirtualInstant::EPOCH, 4, TrafficClass::Meta);
        assert_eq!(t.delivered, t.done + costs.link_latency);
    }

    #[test]
    fn bandwidth_matches_cost_model() {
        let costs = CostModel::alpha_21164a();
        let mut l = Link::new(&costs);
        let n = 10_000u64;
        let mut last = VirtualInstant::EPOCH;
        for _ in 0..n {
            last = l.send(last, 32, TrafficClass::Modified).done;
        }
        let secs = last.duration_since(VirtualInstant::EPOCH).as_secs_f64();
        let mb_per_s = (n * 32) as f64 / (1024.0 * 1024.0) / secs;
        assert!((74.0..82.0).contains(&mb_per_s), "{mb_per_s} MB/s");
    }

    #[test]
    fn queue_wait_accumulates_fifo_delay() {
        let mut l = link();
        let a = l.send(VirtualInstant::EPOCH, 32, TrafficClass::Modified);
        assert!(l.queue_wait().is_zero(), "idle link serves immediately");
        let b = l.send(VirtualInstant::EPOCH, 4, TrafficClass::Meta);
        // The second packet waited for the first to finish serializing,
        // and the per-packet timing exposes exactly that slice.
        assert_eq!(l.queue_wait(), a.done.duration_since(VirtualInstant::EPOCH));
        assert_eq!(b.start, a.done);
        assert!(a.queue_wait().is_zero());
        assert_eq!(b.queue_wait(), l.queue_wait());
        assert_eq!(a.queue_wait() + b.queue_wait(), l.queue_wait());
        assert_eq!(b.service(), b.done.duration_since(b.start));
        assert_eq!(b.ready, VirtualInstant::EPOCH);
    }

    #[test]
    fn traffic_is_recorded() {
        let mut l = link();
        l.send(VirtualInstant::EPOCH, 32, TrafficClass::Modified);
        l.send(VirtualInstant::EPOCH, 4, TrafficClass::Meta);
        assert_eq!(l.traffic().total_bytes(), 36);
    }

    #[test]
    fn utilization_saturates_at_one() {
        let mut l = link();
        let mut last = VirtualInstant::EPOCH;
        for _ in 0..100 {
            last = l.send(last, 32, TrafficClass::Modified).done;
        }
        let u = l.utilization(last.duration_since(VirtualInstant::EPOCH));
        assert!((0.99..=1.01).contains(&u), "{u}");
    }
}

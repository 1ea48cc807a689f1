//! A multi-link fabric for N-node clusters.
//!
//! The paper's cluster is two nodes on one Memory Channel; an N-node
//! group needs a link per *directed* node pair so per-hop traffic, FIFO
//! queueing, and stalls can be attributed per link (the Tracer/MetricsHub
//! machinery keys on tracks, and each hop gets its own [`Link`]).
//!
//! A [`Fabric`] creates links lazily, keyed by `(from, to)`, and layers
//! the partition faults that `faultsim` injects: an asymmetric extra
//! delivery delay, or dropping every packet after the first `n`, on any
//! single directed pair. Faults shift or swallow *deliveries* only — the
//! sender's service timing (and so its posted-write accounting) is
//! unchanged, exactly like a real switch that delays or discards frames
//! after the adapter has already completed the DMA.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dsnrep_obs::Tracer;
use dsnrep_simcore::{CostModel, VirtualDuration, VirtualInstant};

use crate::link::{Link, PacketTiming};
use crate::port::fabric_packet_id;

/// A directed node pair (sender, receiver) identifying one fabric link.
pub type PairKey = (u8, u8);

/// An injected fault on one directed link.
#[derive(Clone, Copy, Debug, Default)]
struct LinkFault {
    /// Extra delivery latency added to every packet (asymmetric: only
    /// this direction).
    extra_delay: VirtualDuration,
    /// Drop every packet after the first `n` sent on this pair.
    drop_after: Option<u64>,
    /// Packets submitted on this pair since the fault view began.
    sent: u64,
}

/// Per-directed-pair links with lazily-created [`Link`]s and partition
/// fault injection.
///
/// # Examples
///
/// ```
/// use dsnrep_mcsim::Fabric;
/// use dsnrep_simcore::{CostModel, TrafficClass, VirtualDuration, VirtualInstant};
///
/// let mut fabric = Fabric::new(&CostModel::alpha_21164a());
/// let mut bytes = [0u64; 3];
/// bytes[TrafficClass::Modified.index()] = 32;
/// let t = fabric.send(1, 2, VirtualInstant::EPOCH, bytes).unwrap();
/// assert!(t.delivered > t.done);
///
/// // An asymmetric partition: 1→2 slowed, 2→1 untouched.
/// fabric.partition_delay(1, 2, VirtualDuration::from_micros(40));
/// let slow = fabric.send(1, 2, t.done, bytes).unwrap();
/// let back = fabric.send(2, 1, t.done, bytes).unwrap();
/// assert!(slow.delivered.duration_since(slow.done) > back.delivered.duration_since(back.done));
/// ```
#[derive(Debug)]
pub struct Fabric {
    costs: CostModel,
    links: BTreeMap<PairKey, Rc<RefCell<Link>>>,
    faults: BTreeMap<PairKey, LinkFault>,
    /// Packets reported to a tracer so far: the fabric's id sequence (see
    /// [`Fabric::trace_packet`]).
    traced: u64,
}

impl Fabric {
    /// Creates an empty fabric; links appear on first use with `costs`'
    /// packet parameters.
    pub fn new(costs: &CostModel) -> Self {
        Fabric {
            costs: costs.clone(),
            links: BTreeMap::new(),
            faults: BTreeMap::new(),
            traced: 0,
        }
    }

    /// The link serving the directed pair `from → to`, created idle on
    /// first use.
    pub fn link(&mut self, from: u8, to: u8) -> Rc<RefCell<Link>> {
        let costs = &self.costs;
        Rc::clone(
            self.links
                .entry((from, to))
                .or_insert_with(|| Rc::new(RefCell::new(Link::new(costs)))),
        )
    }

    /// Submits a packet on the `from → to` link at `ready`.
    ///
    /// Returns `None` if a partition fault dropped the packet (the link
    /// still serialized it — the sender cannot tell), otherwise the
    /// timing with any partition delay folded into `delivered`.
    pub fn send(
        &mut self,
        from: u8,
        to: u8,
        ready: VirtualInstant,
        class_bytes: [u64; 3],
    ) -> Option<PacketTiming> {
        let link = self.link(from, to);
        let mut timing = link.borrow_mut().send_mixed(ready, class_bytes);
        let fault = self.faults.entry((from, to)).or_default();
        fault.sent += 1;
        if fault.drop_after.is_some_and(|n| fault.sent > n) {
            return None;
        }
        timing.delivered += fault.extra_delay;
        Some(timing)
    }

    /// Reports one packet this fabric sent for `track` with `timing` to
    /// `tracer`: its lifecycle, issued by transaction `txn` (or
    /// [`NO_TXN`](dsnrep_obs::NO_TXN)) and carrying `class_bytes`, under
    /// the next id of the fabric's own sequence. Fabric ids never equal a
    /// [`TxPort`](crate::TxPort)'s. A disabled tracer takes no id, so an
    /// untraced run does nothing here.
    pub fn trace_packet<T: Tracer>(
        &mut self,
        tracer: &T,
        track: u32,
        timing: PacketTiming,
        txn: u64,
        class_bytes: [u64; 3],
    ) {
        if tracer.is_enabled() {
            let id = fabric_packet_id(self.traced);
            self.traced += 1;
            tracer.packet_life(track, timing.life(id, txn, class_bytes));
        }
    }

    /// Models one replica-read round trip: a control-metadata request on
    /// the `from → to` link at `ready`, answered by a response on the
    /// reverse link the instant the request is delivered. Payloads larger
    /// than the Memory Channel packet maximum are split into a serialized
    /// packet train, like every other transfer on the fabric.
    ///
    /// Returns the instant the last response packet lands back at `from`,
    /// or `None` if a partition fault swallowed any packet of either leg
    /// — the reader times out instead of hearing back, exactly as a real
    /// client would. Swallowed packets still serialize on their links, so
    /// a timed-out read costs the fabric what a served one does.
    pub fn read_round_trip(
        &mut self,
        from: u8,
        to: u8,
        ready: VirtualInstant,
        request_bytes: u64,
        response_bytes: u64,
    ) -> Option<VirtualInstant> {
        let delivered = self.send_meta_train(from, to, ready, request_bytes)?;
        self.send_meta_train(to, from, delivered, response_bytes)
    }

    /// Sends `bytes` of control metadata as a train of maximum-sized
    /// packets (at least one); returns the delivery instant of the last
    /// packet, or `None` if any packet was dropped.
    fn send_meta_train(
        &mut self,
        from: u8,
        to: u8,
        ready: VirtualInstant,
        bytes: u64,
    ) -> Option<VirtualInstant> {
        let max = self.costs.max_packet.max(1);
        let mut remaining = bytes;
        loop {
            let chunk = remaining.min(max);
            let timing = self.send(from, to, ready, [0, 0, chunk])?;
            remaining -= chunk;
            if remaining == 0 {
                return Some(timing.delivered);
            }
        }
    }

    /// Injects an asymmetric partition delay: every `from → to` delivery
    /// from now on arrives `extra` later. Cumulative with earlier delays
    /// on the same pair.
    pub fn partition_delay(&mut self, from: u8, to: u8, extra: VirtualDuration) {
        let fault = self.faults.entry((from, to)).or_default();
        fault.extra_delay += extra;
    }

    /// Injects an asymmetric drop fault: after `n` more packets, every
    /// `from → to` packet is swallowed. `n = 0` drops from the next
    /// packet on.
    pub fn partition_drop_after(&mut self, from: u8, to: u8, n: u64) {
        let fault = self.faults.entry((from, to)).or_default();
        let remaining = fault.sent + n;
        fault.drop_after = Some(match fault.drop_after {
            Some(existing) => existing.min(remaining),
            None => remaining,
        });
    }

    /// Heals every injected partition fault (links and their traffic
    /// counters are kept).
    pub fn heal_partitions(&mut self) {
        self.faults.clear();
    }

    /// Whether the directed pair currently drops packets.
    pub fn is_dropping(&self, from: u8, to: u8) -> bool {
        self.faults
            .get(&(from, to))
            .is_some_and(|f| f.drop_after.is_some_and(|n| f.sent >= n))
    }

    /// Every materialized link, in deterministic `(from, to)` order.
    pub fn pairs(&self) -> impl Iterator<Item = (PairKey, &Rc<RefCell<Link>>)> {
        self.links.iter().map(|(&k, link)| (k, link))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsnrep_simcore::TrafficClass;

    fn modified(bytes: u64) -> [u64; 3] {
        let mut b = [0u64; 3];
        b[TrafficClass::Modified.index()] = bytes;
        b
    }

    #[test]
    fn links_are_per_directed_pair() {
        let mut f = Fabric::new(&CostModel::alpha_21164a());
        let a = f.send(0, 1, VirtualInstant::EPOCH, modified(32)).unwrap();
        // The reverse direction is a different link: no FIFO interference.
        let b = f.send(1, 0, VirtualInstant::EPOCH, modified(32)).unwrap();
        assert_eq!(a.start, VirtualInstant::EPOCH);
        assert_eq!(b.start, VirtualInstant::EPOCH);
        // Same direction queues FIFO behind the first packet.
        let c = f.send(0, 1, VirtualInstant::EPOCH, modified(32)).unwrap();
        assert_eq!(c.start, a.done);
        assert_eq!(f.pairs().count(), 2);
    }

    #[test]
    fn partition_delay_is_asymmetric_and_cumulative() {
        let costs = CostModel::alpha_21164a();
        let mut f = Fabric::new(&costs);
        f.partition_delay(0, 1, VirtualDuration::from_micros(10));
        let slow = f.send(0, 1, VirtualInstant::EPOCH, modified(32)).unwrap();
        let back = f.send(1, 0, VirtualInstant::EPOCH, modified(32)).unwrap();
        assert_eq!(
            slow.delivered,
            slow.done + costs.link_latency + VirtualDuration::from_micros(10)
        );
        assert_eq!(back.delivered, back.done + costs.link_latency);
        f.partition_delay(0, 1, VirtualDuration::from_micros(5));
        let slower = f.send(0, 1, slow.done, modified(32)).unwrap();
        assert_eq!(
            slower.delivered,
            slower.done + costs.link_latency + VirtualDuration::from_micros(15)
        );
    }

    #[test]
    fn drop_after_swallows_the_tail() {
        let mut f = Fabric::new(&CostModel::alpha_21164a());
        f.partition_drop_after(0, 1, 2);
        assert!(!f.is_dropping(0, 1));
        let mut t = VirtualInstant::EPOCH;
        for i in 0..4 {
            let sent = f.send(0, 1, t, modified(32));
            assert_eq!(sent.is_some(), i < 2, "packet {i}");
            if let Some(timing) = sent {
                t = timing.done;
            }
        }
        assert!(f.is_dropping(0, 1));
        // The other direction is unaffected.
        assert!(f.send(1, 0, t, modified(32)).is_some());
        // The link still accounted the dropped packets' service time.
        let (_, link) = f.pairs().next().unwrap();
        assert_eq!(link.borrow().traffic().total_packets(), 4);
    }

    #[test]
    fn drop_after_zero_drops_immediately() {
        let mut f = Fabric::new(&CostModel::alpha_21164a());
        f.partition_drop_after(2, 0, 0);
        assert!(f.send(2, 0, VirtualInstant::EPOCH, modified(4)).is_none());
    }

    #[test]
    fn read_round_trip_costs_both_legs_and_respects_partitions() {
        let costs = CostModel::alpha_21164a();
        let mut f = Fabric::new(&costs);
        let done = f
            .read_round_trip(0, 2, VirtualInstant::EPOCH, 16, 64)
            .unwrap();
        // Two serialized legs: the response can only leave after the
        // request is delivered, so the round trip spans both latencies.
        assert!(done >= VirtualInstant::EPOCH + costs.link_latency + costs.link_latency);
        assert_eq!(f.pairs().count(), 2);
        // A partition on either leg swallows the whole read.
        f.partition_drop_after(2, 0, 0);
        assert!(f.read_round_trip(0, 2, done, 16, 64).is_none());
        f.heal_partitions();
        f.partition_drop_after(0, 2, 0);
        assert!(f.read_round_trip(0, 2, done, 16, 64).is_none());
    }

    #[test]
    fn traced_packets_take_fresh_fabric_ids_and_keep_their_timing() {
        let mut f = Fabric::new(&CostModel::alpha_21164a());
        let t = f.send(0, 1, VirtualInstant::EPOCH, modified(32)).unwrap();
        // An untraced report takes no id.
        f.trace_packet(&dsnrep_obs::NullTracer, 0, t, 7, modified(32));
        let rec = dsnrep_obs::FlightRecorder::new();
        f.trace_packet(&rec, 0, t, 7, modified(32));
        f.trace_packet(&rec, 1, t, dsnrep_obs::NO_TXN, [0, 0, 8]);
        let lives = rec.packet_lives();
        assert_eq!(lives.len(), 2);
        let (track, life) = lives[0];
        assert_eq!(track, 0);
        assert_eq!(life.id, fabric_packet_id(0));
        assert_eq!(lives[1].1.id, fabric_packet_id(1));
        assert_eq!(
            (life.txn, life.ready, life.start, life.done, life.delivered),
            (7, t.ready, t.start, t.done, t.delivered)
        );
        assert_eq!(life.class_bytes, modified(32));
    }

    #[test]
    fn heal_restores_delivery() {
        let mut f = Fabric::new(&CostModel::alpha_21164a());
        f.partition_drop_after(0, 1, 0);
        assert!(f.send(0, 1, VirtualInstant::EPOCH, modified(4)).is_none());
        f.heal_partitions();
        assert!(f
            .send(0, 1, VirtualInstant::from_picos(1), modified(4))
            .is_some());
    }
}

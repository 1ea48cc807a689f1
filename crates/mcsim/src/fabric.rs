//! A multi-link fabric for N-node clusters.
//!
//! The paper's cluster is two nodes on one Memory Channel; an N-node
//! group needs a link per *directed* node pair so per-hop traffic, FIFO
//! queueing, and stalls can be attributed per link (the Tracer/MetricsHub
//! machinery keys on tracks, and each hop gets its own [`Link`]).
//!
//! A [`Fabric`] keeps one table of directed hops, sorted by `(from, to)`:
//! each hop's [`Link`], created on its first packet, beside the partition
//! fault that `faultsim` injects on it: an asymmetric extra
//! delivery delay, or dropping every packet after the first `n`, on any
//! single directed pair. Faults shift or swallow *deliveries* only — the
//! sender's service timing (and so its posted-write accounting) is
//! unchanged, exactly like a real switch that delays or discards frames
//! after the adapter has already completed the DMA.

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

/// One directed pair's link and fault.
#[derive(Debug)]
struct Hop {
    pair: PairKey,
    /// Created on the first packet: a hop only a fault named carried none.
    link: Option<Link>,
    fault: LinkFault,
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
    /// Every hop a packet or a fault named, sorted by pair.
    hops: Vec<Hop>,
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
            hops: Vec::new(),
            traced: 0,
        }
    }

    /// Index of the hop `from → to`, added with no link and no fault on
    /// first use.
    fn hop_at(&mut self, from: u8, to: u8) -> usize {
        let pair = (from, to);
        self.hops
            .binary_search_by_key(&pair, |hop| hop.pair)
            .unwrap_or_else(|at| {
                let fault = LinkFault::default();
                self.hops.insert(
                    at,
                    Hop {
                        pair,
                        link: None,
                        fault,
                    },
                );
                at
            })
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
        let at = self.hop_at(from, to);
        let hop = &mut self.hops[at];
        let link = hop.link.get_or_insert_with(|| Link::new(&self.costs));
        let mut timing = link.send_mixed(ready, class_bytes);
        let fault = &mut hop.fault;
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
        let at = self.hop_at(from, to);
        self.hops[at].fault.extra_delay += extra;
    }

    /// Injects an asymmetric drop fault: after `n` more packets, every
    /// `from → to` packet is swallowed. `n = 0` drops from the next
    /// packet on.
    pub fn partition_drop_after(&mut self, from: u8, to: u8, n: u64) {
        let at = self.hop_at(from, to);
        let fault = &mut self.hops[at].fault;
        let remaining = fault.sent + n;
        fault.drop_after = Some(match fault.drop_after {
            Some(existing) => existing.min(remaining),
            None => remaining,
        });
    }

    /// Heals every injected partition fault and restarts each hop's
    /// packet count (links and their traffic counters are kept).
    pub fn heal_partitions(&mut self) {
        for hop in &mut self.hops {
            hop.fault = LinkFault::default();
        }
    }

    /// Every link that carried a packet, in deterministic `(from, to)`
    /// order.
    pub fn pairs(&self) -> impl Iterator<Item = (PairKey, &Link)> {
        let links = self.hops.iter();
        links.filter_map(|hop| Some((hop.pair, hop.link.as_ref()?)))
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
        let mut t = VirtualInstant::EPOCH;
        for i in 0..4 {
            let sent = f.send(0, 1, t, modified(32));
            assert_eq!(sent.is_some(), i < 2, "packet {i}");
            if let Some(timing) = sent {
                t = timing.done;
            }
        }
        // The other direction is unaffected.
        assert!(f.send(1, 0, t, modified(32)).is_some());
        // The link still accounted the dropped packets' service time.
        let (_, link) = f.pairs().next().unwrap();
        assert_eq!(link.traffic().total_packets(), 4);
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

    /// A fault names a hop before any packet does; until one does, the
    /// hop lists no link. Healing keeps links and their traffic, and
    /// restarts each hop's drop count.
    #[test]
    fn a_fault_on_an_unused_pair_lists_no_link() {
        let mut f = Fabric::new(&CostModel::alpha_21164a());
        f.partition_delay(2, 0, VirtualDuration::from_micros(10));
        f.partition_drop_after(1, 2, 1);
        assert_eq!(f.pairs().count(), 0);
        let keys = |f: &Fabric| f.pairs().map(|(pair, _)| pair).collect::<Vec<_>>();
        let t = f.send(2, 0, VirtualInstant::EPOCH, modified(4)).unwrap();
        f.send(0, 1, VirtualInstant::EPOCH, modified(4)).unwrap();
        assert_eq!(keys(&f), [(0, 1), (2, 0)]);
        assert!(f.send(1, 2, t.done, modified(4)).is_some());
        assert!(f.send(1, 2, t.done, modified(4)).is_none());
        assert_eq!(keys(&f), [(0, 1), (1, 2), (2, 0)]);
        f.heal_partitions();
        assert_eq!(keys(&f), [(0, 1), (1, 2), (2, 0)]);
        let (_, hop) = f.pairs().nth(1).unwrap();
        assert_eq!(hop.traffic().total_packets(), 2);
        f.partition_drop_after(1, 2, 1);
        assert!(
            f.send(1, 2, t.done, modified(4)).is_some(),
            "the count restarted"
        );
        assert!(f.send(1, 2, t.done, modified(4)).is_none());
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

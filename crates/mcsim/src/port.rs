//! The transmit port: write doubling into the SAN.
//!
//! A [`TxPort`] is one node's sending side of a write-through mapping. It
//! owns a [`WriteBufferSet`], shares a [`Link`] with every other port on the
//! same SAN, enforces the posted-write window (the processor stalls when too
//! many bytes are in flight), and applies delivered packets into the peer's
//! recoverable arena.
//!
//! Delivery is *cut-aware*: a packet is only applied to the peer once
//! simulated time passes its delivery instant, so a crash can truncate the
//! in-flight tail — this is exactly the paper's 1-safe vulnerability window
//! of "a few microseconds".

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use dsnrep_obs::{Metric, NullTracer, Tracer, NO_TXN, TRACK_BACKUP};
use dsnrep_rio::Arena;
use dsnrep_simcore::{
    Addr, BusyCause, Clock, CostModel, Halted, StallCause, TrafficClass, VirtualInstant,
};

use crate::link::{Link, PacketTiming};
use crate::wbuf::{span_mask, FlushedBuffer, WriteBufferSet, BLOCK};

#[derive(Clone, Copy, Debug)]
struct Delivery {
    at: VirtualInstant,
    base: Addr,
    mask: u32,
    data: [u8; BLOCK as usize],
    /// Stable packet id assigned at issue time (see [`packet_id`]).
    id: u64,
    /// The transaction whose store issued the packet, or [`NO_TXN`].
    txn: u64,
}

/// The id bit that marks a fabric packet: set in every
/// [`fabric_packet_id`], clear in every [`packet_id`].
const FABRIC_ID: u64 = 1 << 63;

/// Packs a stable per-run packet id from the sending track and the port's
/// monotone emission sequence. Txn ids use the same packing (in `Machine`)
/// but live in a separate id space — flow ids are packet ids only.
const fn packet_id(track: u32, seq: u64) -> u64 {
    (((track as u64) << 40) | (seq & ((1 << 40) - 1))) & !FABRIC_ID
}

/// The stable id of the `seq`-th packet a [`Fabric`](crate::Fabric)
/// reports. It never equals a [`packet_id`], whatever the track.
pub(crate) const fn fabric_packet_id(seq: u64) -> u64 {
    FABRIC_ID | seq
}

/// One packet recorded by a [`TxPort`] tap: the full first-hop timing plus
/// everything a downstream replication stage (chain forwarding, quorum
/// fan-out) needs to re-send the same payload over further links. Taps are
/// pure observers — installing one changes no timing and no delivery.
#[derive(Clone, Copy, Debug)]
pub struct TappedPacket {
    /// The packet's service timing on the port's own link.
    pub timing: PacketTiming,
    /// Base address of the 32-byte block the packet carries.
    pub base: Addr,
    /// Dirty-byte mask within the block.
    pub mask: u32,
    /// The block payload (only masked bytes are meaningful).
    pub data: [u8; BLOCK as usize],
    /// Payload bytes per traffic class.
    pub class_bytes: [u64; 3],
    /// The transaction whose store issued the packet, or [`NO_TXN`].
    pub txn: u64,
}

/// The shared recording target of a [`TxPort`] tap.
pub type PacketTap = Rc<RefCell<Vec<TappedPacket>>>;

/// The packet-emission half of a [`TxPort`]: link access, posted-write
/// flow control, and the in-flight delivery queue. Split from the write
/// buffers so flush callbacks can borrow it as one unit while
/// [`WriteBufferSet`] is borrowed alongside.
struct Emitter<T: Tracer> {
    link: Rc<RefCell<Link>>,
    window_cap: u64,
    window_packets: usize,
    outstanding: VecDeque<(VirtualInstant, u64)>,
    outstanding_bytes: u64,
    inflight: VecDeque<Delivery>,
    last_delivered: VirtualInstant,
    tracer: T,
    track: u32,
    /// How a flow-control stall during the *current* operation should be
    /// attributed: [`StallCause::PostedWindow`] on the store path,
    /// [`StallCause::WbufFlush`] while a barrier drains partial buffers.
    stall_cause: StallCause,
    /// SAN packets emitted so far (monotone; counts attempts that reached
    /// the link, not packets swallowed by a fault).
    emitted: u64,
    /// Armed fault: remaining packets before a simulated halt. At zero the
    /// next emission returns [`Halted`] *before* the packet reaches the
    /// link.
    packet_budget: Option<u64>,
    /// The transaction tag stamped onto packets issued right now
    /// ([`NO_TXN`] outside any transaction).
    current_txn: u64,
    /// The track whose arena receives this port's packets (apply records
    /// land there).
    peer_track: u32,
    /// Optional pure-observer tap: every emitted packet is copied here
    /// (payload + first-hop timing) for multi-hop replication stages.
    tap: Option<PacketTap>,
}

impl<T: Tracer> Emitter<T> {
    /// Sends one flushed buffer as a packet, or halts before it leaves
    /// the adapter.
    fn emit(&mut self, clock: &mut Clock, flushed: FlushedBuffer) -> Result<(), Halted> {
        let payload = flushed.payload();
        if payload == 0 {
            return Ok(());
        }
        match &mut self.packet_budget {
            None => {}
            Some(0) => {
                self.tracer.instant(
                    self.track,
                    dsnrep_obs::TraceEventKind::FaultInjected,
                    clock.now(),
                    self.emitted,
                );
                return Err(Halted);
            }
            Some(budget) => *budget -= 1,
        }
        let id = packet_id(self.track, self.emitted);
        self.emitted += 1;
        // Release completed packets.
        while let Some(&(done, bytes)) = self.outstanding.front() {
            if done <= clock.now() {
                self.outstanding.pop_front();
                self.outstanding_bytes -= bytes;
            } else {
                break;
            }
        }
        // Posted-write flow control: stall until the window has room
        // (bounded both in bytes and in queue entries).
        while self.outstanding_bytes + payload > self.window_cap
            || self.outstanding.len() >= self.window_packets
        {
            let (done, bytes) = self
                .outstanding
                .pop_front()
                .expect("window exceeded with no outstanding packets");
            let now = clock.now();
            if done > now {
                self.tracer.counter_add(
                    self.track,
                    Metric::stall(self.stall_cause),
                    done,
                    done.duration_since(now).as_picos(),
                );
            }
            clock.advance_to_for(self.stall_cause, done);
            self.outstanding_bytes -= bytes;
        }
        let timing = self
            .link
            .borrow_mut()
            .send_mixed(clock.now(), flushed.class_bytes);
        if let Some(tap) = &self.tap {
            tap.borrow_mut().push(TappedPacket {
                timing,
                base: flushed.base,
                mask: flushed.mask,
                data: flushed.data,
                class_bytes: flushed.class_bytes,
                txn: self.current_txn,
            });
        }
        self.outstanding.push_back((timing.done, payload));
        self.outstanding_bytes += payload;
        self.inflight.push_back(Delivery {
            at: timing.delivered,
            base: flushed.base,
            mask: flushed.mask,
            data: flushed.data,
            id,
            txn: self.current_txn,
        });
        if self.tracer.is_enabled() {
            self.tracer.packet_life(
                self.track,
                timing.life(id, self.current_txn, flushed.class_bytes),
            );
            self.tracer.counter_add(
                self.track,
                Metric::LinkQueueWaitPicos,
                timing.start,
                timing.queue_wait().as_picos(),
            );
            self.tracer.counter_add(
                self.track,
                Metric::LinkBusyPicos,
                timing.start,
                timing.service().as_picos(),
            );
            self.tracer.gauge_set(
                self.track,
                Metric::LinkQueueDepth,
                timing.start,
                self.inflight.len() as u64,
            );
        }
        self.last_delivered = timing.delivered;
        Ok(())
    }
}

/// One node's transmitting half of a write-through mapping.
///
/// # Examples
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use dsnrep_mcsim::{Link, TxPort};
/// use dsnrep_rio::Arena;
/// use dsnrep_simcore::{Addr, Clock, CostModel, TrafficClass};
///
/// let costs = CostModel::alpha_21164a();
/// let link = Rc::new(RefCell::new(Link::new(&costs)));
/// let backup = Rc::new(RefCell::new(Arena::new(4096)));
/// let mut port = TxPort::new(&costs, link, Rc::clone(&backup));
/// let mut clock = Clock::new();
///
/// port.store(&mut clock, Addr::new(64), b"replicate", TrafficClass::Modified)?;
/// port.quiesce(&mut clock)?;
/// assert_eq!(backup.borrow().read_vec(Addr::new(64), 9), b"replicate");
/// # Ok::<(), dsnrep_simcore::Halted>(())
/// ```
pub struct TxPort<T: Tracer = NullTracer> {
    peers: Vec<Rc<RefCell<Arena>>>,
    bufs: WriteBufferSet,
    costs: CostModel,
    tx: Emitter<T>,
}

impl<T: Tracer> fmt::Debug for TxPort<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxPort")
            .field("peers", &self.peers.len())
            .field("dirty_buffers", &self.bufs.dirty_buffers())
            .field("outstanding_bytes", &self.tx.outstanding_bytes)
            .field("inflight_packets", &self.tx.inflight.len())
            .field("last_delivered", &self.tx.last_delivered)
            .finish()
    }
}

impl TxPort {
    /// Creates a port that applies delivered bytes to `peer`.
    pub fn new(costs: &CostModel, link: Rc<RefCell<Link>>, peer: Rc<RefCell<Arena>>) -> Self {
        Self::build(costs, link, vec![peer], NullTracer, 0)
    }

    /// Creates a port with no peer arena: packets are timed and accounted
    /// but their payloads vanish. Used by the bandwidth micro-benchmarks.
    pub fn sink_only(costs: &CostModel, link: Rc<RefCell<Link>>) -> Self {
        Self::build(costs, link, Vec::new(), NullTracer, 0)
    }
}

impl<T: Tracer> TxPort<T> {
    /// Creates a traced port that applies delivered bytes to `peer`,
    /// reporting packets and stall attribution as `track` to `tracer`.
    pub fn new_traced(
        costs: &CostModel,
        link: Rc<RefCell<Link>>,
        peer: Rc<RefCell<Arena>>,
        tracer: T,
        track: u32,
    ) -> Self {
        Self::build(costs, link, vec![peer], tracer, track)
    }

    /// Adds another receiver: the Memory Channel hub multicasts natively,
    /// so one packet reaches every mapped peer at no extra link cost.
    pub fn add_peer(&mut self, peer: Rc<RefCell<Arena>>) {
        self.peers.push(peer);
    }

    fn build(
        costs: &CostModel,
        link: Rc<RefCell<Link>>,
        peers: Vec<Rc<RefCell<Arena>>>,
        tracer: T,
        track: u32,
    ) -> Self {
        assert!(
            costs.max_packet == BLOCK,
            "the write-buffer model is fixed at {BLOCK}-byte blocks"
        );
        TxPort {
            peers,
            bufs: WriteBufferSet::new(costs.write_buffers),
            costs: costs.clone(),
            tx: Emitter {
                link,
                window_cap: costs.posted_window,
                window_packets: costs.posted_window_packets.max(1),
                outstanding: VecDeque::new(),
                outstanding_bytes: 0,
                inflight: VecDeque::new(),
                last_delivered: VirtualInstant::EPOCH,
                tracer,
                track,
                stall_cause: StallCause::PostedWindow,
                emitted: 0,
                packet_budget: None,
                current_txn: NO_TXN,
                peer_track: TRACK_BACKUP,
                tap: None,
            },
        }
    }

    /// Applies one delivered packet to one peer arena: one `Arena::write`
    /// per contiguous dirty run, in ascending-address order — exactly the
    /// runs [`FlushedBuffer::dirty_runs`] yields (the equivalence proptest
    /// below holds the two together), so the arena's write counter (a
    /// fault-injection halt-point enumeration) is unchanged by the fast
    /// paths here.
    fn apply_one(arena: &mut Arena, d: &Delivery) {
        if d.mask == u32::MAX {
            // Full packet — the overwhelmingly common case for log-heavy
            // engines: a single 32-byte run.
            arena.write(d.base, &d.data);
            return;
        }
        let mut pos = 0u32;
        while pos < 32 {
            let shifted = d.mask >> pos;
            if shifted == 0 {
                break;
            }
            let start = pos + shifted.trailing_zeros();
            let len = (d.mask >> start).trailing_ones().min(32 - start);
            arena.write(
                d.base + u64::from(start),
                &d.data[start as usize..(start + len) as usize],
            );
            pos = start + len;
        }
    }

    fn apply(peers: &[Rc<RefCell<Arena>>], d: &Delivery) {
        for peer in peers {
            Self::apply_one(&mut peer.borrow_mut(), d);
        }
    }

    /// A store whose words do **not** merge in the write buffers: the
    /// 21164's buffers only merge back-to-back stores, and a word-at-a-time
    /// copy loop (load, store, load, store...) defeats merging, so every
    /// 8-byte word becomes its own PCI transaction and SAN packet. This is
    /// the paper's observation that mirroring "does not benefit at all from
    /// data aggregation" (§8).
    ///
    /// # Errors
    ///
    /// [`Halted`] when the packet budget halts the node; see
    /// [`TxPort::inject_crash_after_packets`].
    pub fn store_unmerged(
        &mut self,
        clock: &mut Clock,
        addr: Addr,
        bytes: &[u8],
        class: TrafficClass,
    ) -> Result<(), Halted> {
        if bytes.is_empty() {
            return Ok(());
        }
        clock.advance_for(
            BusyCause::san(class),
            self.costs.io_issue_time(bytes.len() as u64),
        );
        // Emit one packet per 8-byte-aligned word run, bypassing the
        // write buffers — but first flush any buffer holding the same
        // block, so same-address stores stay ordered on the wire.
        //
        // Words advance monotonically through the range, so each block is
        // entered exactly once; flushing on block entry is equivalent to
        // the word-at-a-time flush (this path never refills the buffers).
        let TxPort { bufs, tx, .. } = self;
        tx.stall_cause = StallCause::PostedWindow;
        let mut off = 0usize;
        let mut entered_block = u64::MAX;
        while off < bytes.len() {
            let a = addr + off as u64;
            let word_end = ((a.as_u64() | 7) + 1).min(addr.as_u64() + bytes.len() as u64);
            let n = (word_end - a.as_u64()) as usize;
            let block_base = a.align_down(BLOCK);
            let in_block = a.offset_in(BLOCK) as usize;
            let block = block_base.as_u64() / BLOCK;
            if block != entered_block {
                bufs.flush_block(block, &mut |flushed| tx.emit(clock, flushed))?;
                entered_block = block;
            }
            // A word never spans a 32-byte block (8-byte words, 32-byte
            // blocks), so this fits.
            let mut data = [0u8; BLOCK as usize];
            dsnrep_simcore::copy_small(&mut data[in_block..in_block + n], &bytes[off..off + n]);
            let mask = span_mask(in_block, n);
            let mut class_bytes = [0u64; 3];
            class_bytes[class.index()] = n as u64;
            tx.emit(
                clock,
                FlushedBuffer {
                    base: block_base,
                    mask,
                    data,
                    class_bytes,
                },
            )?;
            off += n;
        }
        if tx.tracer.is_enabled() {
            tx.tracer.gauge_set(
                tx.track,
                Metric::WbufDirtyLines,
                clock.now(),
                bufs.dirty_buffers() as u64,
            );
        }
        self.deliver_up_to(clock.now());
        Ok(())
    }

    /// Applies every packet whose delivery instant is at or before `t`.
    #[inline]
    pub fn deliver_up_to(&mut self, t: VirtualInstant) {
        if self.tx.inflight.front().is_some_and(|d| d.at <= t) {
            self.drain_up_to(t);
        }
    }

    /// [`deliver_up_to`](TxPort::deliver_up_to) once something is due.
    #[inline(never)]
    fn drain_up_to(&mut self, t: VirtualInstant) {
        let traced = self.tx.tracer.is_enabled();
        let mut last_applied_at = None;
        // Something is due. Borrow the peer arena once for the whole drain
        // instead of once per packet: a peer is never the sending node's
        // own arena, so the borrow cannot alias anything the drain touches.
        if let [peer] = self.peers.as_slice() {
            let mut arena = peer.borrow_mut();
            while let Some(front) = self.tx.inflight.front() {
                if front.at <= t {
                    let d = self.tx.inflight.pop_front().expect("front() checked");
                    Self::apply_one(&mut arena, &d);
                    if traced {
                        self.tx
                            .tracer
                            .packet_applied(self.tx.peer_track, d.id, d.txn, d.at);
                        last_applied_at = Some(d.at);
                    }
                } else {
                    break;
                }
            }
        } else {
            while let Some(front) = self.tx.inflight.front() {
                if front.at <= t {
                    let d = self.tx.inflight.pop_front().expect("front() checked");
                    Self::apply(&self.peers, &d);
                    if traced {
                        self.tx
                            .tracer
                            .packet_applied(self.tx.peer_track, d.id, d.txn, d.at);
                        last_applied_at = Some(d.at);
                    }
                } else {
                    break;
                }
            }
        }
        // The sender's in-flight queue drained down to its new depth at
        // the last delivery instant (never at `t`, which may be a
        // quiesce-time sentinel no metrics window should materialize to).
        if let Some(at) = last_applied_at {
            self.tx.tracer.gauge_set(
                self.tx.track,
                Metric::LinkQueueDepth,
                at,
                self.tx.inflight.len() as u64,
            );
        }
    }

    /// Flushes all write buffers and applies every packet: the graceful
    /// end-of-run (or controlled-switchover) path.
    ///
    /// # Errors
    ///
    /// [`Halted`] when the packet budget halts the node mid-flush; nothing
    /// is delivered then.
    pub fn quiesce(&mut self, clock: &mut Clock) -> Result<(), Halted> {
        self.barrier(clock)?;
        self.deliver_up_to(VirtualInstant::from_picos(u64::MAX));
        Ok(())
    }

    /// Simulates a crash of the sending node at instant `at`: packets
    /// delivered by `at` are applied, everything else — including dirty
    /// write buffers that never reached the PCI bus — is lost.
    pub fn crash_cut(&mut self, at: VirtualInstant) {
        self.deliver_up_to(at);
        if self.tx.tracer.is_enabled() && !self.tx.inflight.is_empty() {
            // The undelivered tail vanishes with the crashed sender.
            self.tx
                .tracer
                .gauge_set(self.tx.track, Metric::LinkQueueDepth, at, 0);
        }
        self.tx.inflight.clear();
        self.bufs.discard_all();
        self.tx.outstanding.clear();
        self.tx.outstanding_bytes = 0;
    }

    /// Delivery instant of the most recently flushed packet.
    pub fn last_delivered(&self) -> VirtualInstant {
        self.tx.last_delivered
    }

    /// Packets flushed to the link but not yet applied to the peer.
    pub fn inflight_packets(&self) -> usize {
        self.tx.inflight.len()
    }

    /// SAN packets this port has emitted so far (monotone).
    pub fn packets_emitted(&self) -> u64 {
        self.tx.emitted
    }

    /// Tags packets issued from now on with the originating transaction id
    /// (pass [`NO_TXN`] at transaction end), so causal tracing can stitch
    /// a commit's flow from its primary-side span through the SAN to the
    /// backup-side apply.
    pub fn set_current_txn(&mut self, txn: u64) {
        self.tx.current_txn = txn;
    }

    /// Names the track whose arena receives this port's packets; apply
    /// records are attributed there. Defaults to
    /// [`TRACK_BACKUP`]; the active scheme's reverse (cursor write-back)
    /// port points it at the primary.
    pub fn set_peer_track(&mut self, track: u32) {
        self.tx.peer_track = track;
    }

    /// Arms a fault: the node halts when it tries to emit the
    /// `(budget + 1)`-th packet from now; `0` halts on the very next
    /// emission. The store, barrier or quiesce that would emit it returns
    /// [`Halted`]: the packet neither reaches the link nor counts as
    /// emitted (it is lost, as in a crash), and every later emission halts
    /// too until [`TxPort::clear_packet_fault`].
    pub fn inject_crash_after_packets(&mut self, budget: u64) {
        self.tx.packet_budget = Some(budget);
    }

    /// Disarms any pending (or tripped) packet-budget fault.
    pub fn clear_packet_fault(&mut self) {
        self.tx.packet_budget = None;
    }

    /// Installs a pure-observer tap: from now on every emitted packet is
    /// also copied (payload + first-hop timing) into `tap`. Multi-hop
    /// replication drivers (chain forwarding, quorum fan-out) read the tap
    /// to re-send the same payloads over further fabric links. A tap never
    /// changes timing, accounting, or delivery on this port.
    pub fn set_tap(&mut self, tap: PacketTap) {
        self.tx.tap = Some(tap);
    }

    /// Accepts a store of `bytes` at `addr` that was already applied to
    /// the local memory and must be written through: charges its issue
    /// time to `clock`, merges it into the write buffers, emits whatever
    /// packets that flushes (stalling `clock` when the posted-write window
    /// is full), and applies every packet due by the new instant to the
    /// peers. `class` is the accounting category of the traffic (Tables
    /// 2/5/7 of the paper).
    ///
    /// # Errors
    ///
    /// [`Halted`] when the packet budget halts the node; see
    /// [`TxPort::inject_crash_after_packets`].
    pub fn store(
        &mut self,
        clock: &mut Clock,
        addr: Addr,
        bytes: &[u8],
        class: TrafficClass,
    ) -> Result<(), Halted> {
        if !bytes.is_empty() {
            clock.advance_for(
                BusyCause::san(class),
                self.costs.io_issue_time(bytes.len() as u64),
            );
            let TxPort { bufs, tx, .. } = self;
            tx.stall_cause = StallCause::PostedWindow;
            bufs.store(addr, bytes, class, &mut |flushed| tx.emit(clock, flushed))?;
            if tx.tracer.is_enabled() {
                tx.tracer.gauge_set(
                    tx.track,
                    Metric::WbufDirtyLines,
                    clock.now(),
                    bufs.dirty_buffers() as u64,
                );
            }
        }
        self.deliver_up_to(clock.now());
        Ok(())
    }

    /// A write memory barrier: flushes any partially filled write buffers
    /// to the link. Used before commit flags and ring-pointer updates so
    /// their ordering guarantees hold.
    ///
    /// # Errors
    ///
    /// [`Halted`] when the packet budget halts the node mid-flush.
    pub fn barrier(&mut self, clock: &mut Clock) -> Result<(), Halted> {
        let TxPort { bufs, tx, .. } = self;
        tx.stall_cause = StallCause::WbufFlush;
        bufs.flush_all(&mut |flushed| tx.emit(clock, flushed))?;
        if tx.tracer.is_enabled() {
            tx.tracer
                .gauge_set(tx.track, Metric::WbufDirtyLines, clock.now(), 0);
        }
        self.deliver_up_to(clock.now());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsnrep_simcore::VirtualDuration;

    fn setup() -> (
        CostModel,
        Rc<RefCell<Link>>,
        Rc<RefCell<Arena>>,
        TxPort,
        Clock,
    ) {
        let costs = CostModel::alpha_21164a();
        let link = Rc::new(RefCell::new(Link::new(&costs)));
        let peer = Rc::new(RefCell::new(Arena::new(1 << 20)));
        let port = TxPort::new(&costs, Rc::clone(&link), Rc::clone(&peer));
        (costs, link, peer, port, Clock::new())
    }

    #[test]
    fn bytes_arrive_at_peer_after_quiesce() -> Result<(), Halted> {
        let (_, _, peer, mut port, mut clock) = setup();
        port.store(
            &mut clock,
            Addr::new(100),
            &[1, 2, 3, 4],
            TrafficClass::Modified,
        )?;
        // Not yet flushed: buffer still dirty, peer still zero.
        assert_eq!(peer.borrow().read_vec(Addr::new(100), 4), vec![0; 4]);
        port.quiesce(&mut clock)?;
        assert_eq!(peer.borrow().read_vec(Addr::new(100), 4), vec![1, 2, 3, 4]);
        Ok(())
    }

    #[test]
    fn store_charges_issue_cost() -> Result<(), Halted> {
        let (costs, _, _, mut port, mut clock) = setup();
        port.store(&mut clock, Addr::new(0), &[0; 16], TrafficClass::Undo)?;
        assert_eq!(clock.now().as_picos(), costs.io_issue_time(16).as_picos());
        Ok(())
    }

    #[test]
    fn window_stalls_a_flood_of_small_packets() -> Result<(), Halted> {
        let (costs, _, _, mut port, mut clock) = setup();
        // Scatter single-byte stores to distinct blocks: every store
        // eventually evicts a one-byte packet. The link (~270 ns/packet)
        // is far slower than issue cost (15 ns), so the window must stall.
        for i in 0..10_000u64 {
            port.store(&mut clock, Addr::new(i * 64), &[1], TrafficClass::Meta)?;
        }
        assert!(
            clock.stalled() > VirtualDuration::ZERO,
            "expected posted-window stalls, clock={clock:?}"
        );
        // Steady state: time ~ packets * packet_time(1).
        let expect = costs.packet_time(1).as_picos() * 10_000;
        let actual = clock.now().as_picos();
        assert!(
            (actual as f64) > 0.9 * expect as f64 && (actual as f64) < 1.1 * expect as f64,
            "expected ~{expect} ps, got {actual} ps"
        );
        Ok(())
    }

    #[test]
    fn sequential_stream_is_link_limited_at_full_packets() -> Result<(), Halted> {
        let (_costs, link, _, mut port, mut clock) = setup();
        let total: u64 = 1 << 20;
        let mut addr = 0u64;
        while addr < total {
            port.store(&mut clock, Addr::new(addr), &[7; 32], TrafficClass::Undo)?;
            addr += 32;
        }
        port.quiesce(&mut clock)?;
        let t = link.borrow();
        assert_eq!(t.traffic().total_bytes(), total);
        assert!(t.traffic().full_packet_fraction() > 0.99);
        Ok(())
    }

    #[test]
    fn crash_cut_drops_undelivered_tail() -> Result<(), Halted> {
        let (_, _, peer, mut port, mut clock) = setup();
        port.store(
            &mut clock,
            Addr::new(0),
            &[0xAA; 32],
            TrafficClass::Modified,
        )?;
        // The packet flushed (buffer full) but delivery is ~3.3 us away.
        let crash_at = clock.now(); // long before delivery
        port.crash_cut(crash_at);
        assert_eq!(peer.borrow().read_vec(Addr::new(0), 32), vec![0; 32]);
        assert_eq!(port.inflight_packets(), 0);
        Ok(())
    }

    #[test]
    fn crash_cut_keeps_delivered_prefix() -> Result<(), Halted> {
        let (costs, _, peer, mut port, mut clock) = setup();
        port.store(
            &mut clock,
            Addr::new(0),
            &[0xAA; 32],
            TrafficClass::Modified,
        )?;
        let delivered_by = port.last_delivered();
        // Much later, write more that will NOT be delivered.
        clock.advance(costs.link_latency * 10);
        port.store(
            &mut clock,
            Addr::new(64),
            &[0xBB; 32],
            TrafficClass::Modified,
        )?;
        port.crash_cut(delivered_by + VirtualDuration::from_nanos(1));
        assert_eq!(peer.borrow().read_vec(Addr::new(0), 32), vec![0xAA; 32]);
        assert_eq!(peer.borrow().read_vec(Addr::new(64), 32), vec![0; 32]);
        Ok(())
    }

    #[test]
    fn barrier_flushes_partial_buffers() -> Result<(), Halted> {
        let (_, link, peer, mut port, mut clock) = setup();
        port.store(&mut clock, Addr::new(0), &[5; 4], TrafficClass::Meta)?;
        assert_eq!(link.borrow().traffic().total_packets(), 0);
        port.barrier(&mut clock)?;
        assert_eq!(link.borrow().traffic().total_packets(), 1);
        port.deliver_up_to(VirtualInstant::from_picos(u64::MAX));
        assert_eq!(peer.borrow().read_vec(Addr::new(0), 4), vec![5; 4]);
        Ok(())
    }

    #[test]
    fn two_ports_share_one_link_fifo() -> Result<(), Halted> {
        let costs = CostModel::alpha_21164a();
        let link = Rc::new(RefCell::new(Link::new(&costs)));
        let peer_a = Rc::new(RefCell::new(Arena::new(4096)));
        let peer_b = Rc::new(RefCell::new(Arena::new(4096)));
        let mut a = TxPort::new(&costs, Rc::clone(&link), peer_a);
        let mut b = TxPort::new(&costs, Rc::clone(&link), peer_b);
        let mut ca = Clock::new();
        let mut cb = Clock::new();
        a.store(&mut ca, Addr::new(0), &[1; 32], TrafficClass::Modified)?;
        b.store(&mut cb, Addr::new(0), &[2; 32], TrafficClass::Modified)?;
        // Both packets went through the same link; it was busy twice.
        assert_eq!(link.borrow().traffic().total_packets(), 2);
        let busy = link.borrow().busy_until();
        assert!(busy.as_picos() >= 2 * costs.packet_time(32).as_picos());
        Ok(())
    }

    #[test]
    fn traced_port_mirrors_link_counters_and_attributes_stalls() -> Result<(), Halted> {
        let costs = CostModel::alpha_21164a();
        let link = Rc::new(RefCell::new(Link::new(&costs)));
        let peer = Rc::new(RefCell::new(Arena::new(1 << 20)));
        let rec = dsnrep_obs::FlightRecorder::new();
        let mut port = TxPort::new_traced(&costs, Rc::clone(&link), peer, rec.clone(), 0);
        let mut clock = Clock::new();
        // Scattered small stores saturate the posted-write window.
        for i in 0..10_000u64 {
            port.store(&mut clock, Addr::new(i * 64), &[1], TrafficClass::Meta)?;
        }
        // Leave one buffer partial so the barrier has something to drain.
        port.store(&mut clock, Addr::new(640_064), &[2; 4], TrafficClass::Undo)?;
        port.barrier(&mut clock)?;
        let t = link.borrow();
        let row = &rec.summary().tracks[0];
        assert_eq!(row.packets, t.traffic().total_packets());
        for class in TrafficClass::ALL {
            assert_eq!(row.bytes_by_class[class.index()], t.traffic().bytes(class));
        }
        assert!(clock.stalled_by(StallCause::PostedWindow) > VirtualDuration::ZERO);
        // Every stall this port caused is attributed to one of its two
        // causes; nothing leaks into Other.
        let attributed =
            clock.stalled_by(StallCause::PostedWindow) + clock.stalled_by(StallCause::WbufFlush);
        assert_eq!(attributed, clock.stalled());
        Ok(())
    }

    #[test]
    fn traced_port_records_packet_lives_and_mirrors_queue_wait() -> Result<(), Halted> {
        let costs = CostModel::alpha_21164a();
        let link = Rc::new(RefCell::new(Link::new(&costs)));
        let peer = Rc::new(RefCell::new(Arena::new(1 << 20)));
        let rec = dsnrep_obs::FlightRecorder::new();
        let mut port = TxPort::new_traced(&costs, Rc::clone(&link), peer, rec.clone(), 0);
        let mut clock = Clock::new();
        port.set_current_txn(0x7001);
        for i in 0..64u64 {
            port.store(
                &mut clock,
                Addr::new(i * 64),
                &[3; 32],
                TrafficClass::Modified,
            )?;
        }
        port.set_current_txn(NO_TXN);
        port.store(&mut clock, Addr::new(64 * 64), &[4; 4], TrafficClass::Meta)?;
        port.barrier(&mut clock)?;
        port.quiesce(&mut clock)?;

        let lives = rec.packet_lives();
        assert_eq!(lives.len() as u64, link.borrow().traffic().total_packets());
        // Ids are the dense emission sequence, packed with the track.
        for (i, (track, life)) in lives.iter().enumerate() {
            assert_eq!(*track, 0);
            assert_eq!(life.id, packet_id(0, i as u64));
        }
        assert_eq!(lives[0].1.txn, 0x7001);
        assert_eq!(lives.last().unwrap().1.txn, NO_TXN);
        // The per-packet queue waits sum to the link's cumulative wait, and
        // the mirrored counter agrees with both.
        let per_packet: u64 = lives.iter().map(|(_, l)| l.queue_wait().as_picos()).sum();
        assert_eq!(per_packet, link.borrow().queue_wait().as_picos());
        let ts = rec.timeseries();
        assert_eq!(ts.counter_total(Metric::LinkQueueWaitPicos), per_packet);
        assert!(ts.counter_total(Metric::LinkBusyPicos) > 0);
        // Every packet was applied on the peer track, in delivery order.
        let applies = rec.applies();
        assert_eq!(applies.len(), lives.len());
        for (apply, (_, life)) in applies.iter().zip(lives.iter()) {
            assert_eq!(apply.track, TRACK_BACKUP);
            assert_eq!(apply.id, life.id);
            assert_eq!(apply.txn, life.txn);
            assert_eq!(apply.at, life.delivered);
        }
        Ok(())
    }

    #[test]
    fn fabric_ids_never_equal_port_ids() {
        for track in [0, 1, 7, 1 << 23, u32::MAX] {
            for seq in [0, 1, (1 << 40) - 1, 1 << 40, u64::MAX] {
                let port = packet_id(track, seq);
                for fabric_seq in [0, 1, seq, port, u64::MAX] {
                    assert_ne!(port, fabric_packet_id(fabric_seq));
                }
            }
        }
    }

    #[test]
    fn packet_budget_halts_before_the_packet_reaches_the_link() -> Result<(), Halted> {
        let (_, link, peer, mut port, mut clock) = setup();
        port.store(&mut clock, Addr::new(0), &[1; 32], TrafficClass::Modified)?;
        assert_eq!(port.packets_emitted(), 1);
        port.inject_crash_after_packets(1);
        // Spending the last unit is not a halt.
        port.store(&mut clock, Addr::new(64), &[2; 32], TrafficClass::Modified)?;
        assert_eq!(port.packets_emitted(), 2);
        let halted = port.store(&mut clock, Addr::new(128), &[3; 32], TrafficClass::Modified);
        assert_eq!(halted, Err(Halted));
        // The third packet never reached the link, and every later
        // emission halts too.
        assert_eq!(link.borrow().traffic().total_packets(), 2);
        assert_eq!(port.packets_emitted(), 2);
        let halted = port.store(&mut clock, Addr::new(192), &[4; 32], TrafficClass::Modified);
        assert_eq!(halted, Err(Halted));
        assert_eq!(link.borrow().traffic().total_packets(), 2);
        port.clear_packet_fault();
        port.quiesce(&mut clock)?;
        assert_eq!(peer.borrow().read_vec(Addr::new(64), 32), vec![2; 32]);
        // The halted packets are lost, as in a crash.
        assert_eq!(peer.borrow().read_vec(Addr::new(128), 32), vec![0; 32]);
        assert_eq!(peer.borrow().read_vec(Addr::new(192), 32), vec![0; 32]);
        Ok(())
    }

    #[test]
    fn ordering_of_overlapping_stores_is_preserved() -> Result<(), Halted> {
        let (_, _, peer, mut port, mut clock) = setup();
        port.store(&mut clock, Addr::new(0), &[1; 32], TrafficClass::Modified)?;
        port.store(&mut clock, Addr::new(0), &[2; 32], TrafficClass::Modified)?;
        port.quiesce(&mut clock)?;
        assert_eq!(peer.borrow().read_vec(Addr::new(0), 32), vec![2; 32]);
        Ok(())
    }

    mod apply_equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// `apply_one` (full-mask fast path + bit-scan runs) mutates a
            /// peer arena exactly like the `dirty_runs`-driven loop it
            /// replaced — including the arena write counter, which fault
            /// campaigns enumerate as halt points.
            #[test]
            fn apply_one_matches_dirty_runs_reference(
                mask in prop_oneof![4 => Just(u32::MAX), 8 => any::<u32>()],
                base_block in 0u64..4,
                seed in any::<u8>(),
            ) {
                let clock = Clock::new();
                let mut data = [0u8; BLOCK as usize];
                for (i, item) in data.iter_mut().enumerate() {
                    *item = (i as u8).wrapping_add(seed);
                }
                let d = Delivery {
                    at: clock.now(),
                    base: Addr::new(base_block * BLOCK),
                    mask,
                    data,
                    id: 0,
                    txn: NO_TXN,
                };

                let mut fast = Arena::new(256);
                TxPort::<NullTracer>::apply_one(&mut fast, &d);

                let mut oracle = Arena::new(256);
                let buf = FlushedBuffer {
                    base: d.base,
                    mask: d.mask,
                    data: d.data,
                    class_bytes: [0; 3],
                };
                for (addr, run) in buf.dirty_runs() {
                    oracle.write(addr, run);
                }

                prop_assert_eq!(fast.read_vec(Addr::new(0), 256), oracle.read_vec(Addr::new(0), 256));
                prop_assert_eq!(fast.writes(), oracle.writes());
            }
        }
    }
}

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
//!
//! Every emitted packet is held once, in one ring indexed by emission
//! sequence, until each of its consumers is past it: the posted-write
//! window (released at `done`), the peers' delivery (applied at
//! `delivered`) and, on a chain or quorum head, forwarding (see
//! [`TxPort::enable_forwarding`]).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use dsnrep_obs::{Metric, NullTracer, Tracer, NO_TXN, TRACK_BACKUP};
use dsnrep_rio::Arena;
use dsnrep_simcore::{
    Addr, BusyCause, Clock, CostModel, Halted, StallCause, TrafficClass, VirtualInstant,
};

use crate::link::Link;
use crate::wbuf::{span_mask, FlushedBuffer, WriteBufferSet, BLOCK};

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

/// One packet a [`TxPort`] emitted, as its in-flight ring holds it: the
/// 32-byte block it carries, its first-hop timing and the transaction
/// that issued it. Only the port builds one.
#[derive(Clone, Copy, Debug)]
pub struct Packet {
    /// Base address of the 32-byte block the packet carries.
    pub base: Addr,
    /// When the port's adapter finished serializing the packet.
    pub done: VirtualInstant,
    /// When the packet's first hop delivered it to the port's peers.
    pub delivered: VirtualInstant,
    /// The transaction whose store issued the packet, or [`NO_TXN`].
    pub txn: u64,
    /// The block; only the bytes under `mask` are meaningful.
    pub data: [u8; BLOCK as usize],
    /// Dirty-byte mask within the block (bit i = byte `base + i`).
    pub mask: u32,
    /// Payload bytes per traffic class; each is at most [`BLOCK`].
    class_bytes: [u8; 3],
}

impl Packet {
    /// A free ring slot.
    const FREE: Packet = Packet {
        base: Addr::new(0),
        done: VirtualInstant::EPOCH,
        delivered: VirtualInstant::EPOCH,
        txn: NO_TXN,
        data: [0; BLOCK as usize],
        mask: 0,
        class_bytes: [0; 3],
    };

    /// Payload bytes per traffic class (indexed by `TrafficClass::index`).
    #[inline]
    pub fn class_bytes(&self) -> [u64; 3] {
        self.class_bytes.map(u64::from)
    }

    /// Payload bytes: the dirty bytes of the block.
    #[inline]
    fn payload(&self) -> u64 {
        self.class_bytes.iter().map(|&b| u64::from(b)).sum()
    }

    /// Writes the packet's dirty bytes to `arena`: one `Arena::write` per
    /// contiguous dirty run, in ascending-address order — exactly the runs
    /// [`FlushedBuffer::dirty_runs`](crate::FlushedBuffer::dirty_runs)
    /// yields (`apply_one_matches_dirty_runs_reference` holds the two
    /// together), so the arena's write counter (a fault-injection
    /// halt-point enumeration) is unchanged by the fast paths here. Every
    /// node a packet reaches, node 1 or further down a chain or quorum,
    /// applies it this way.
    pub fn apply_to(&self, arena: &mut Arena) {
        if self.mask == u32::MAX {
            // Full packet — the overwhelmingly common case for log-heavy
            // engines: a single 32-byte run.
            arena.write(self.base, &self.data);
            return;
        }
        let mut pos = 0u32;
        while pos < 32 {
            let shifted = self.mask >> pos;
            if shifted == 0 {
                break;
            }
            let start = pos + shifted.trailing_zeros();
            let len = (self.mask >> start).trailing_ones().min(32 - start);
            arena.write(
                self.base + u64::from(start),
                &self.data[start as usize..(start + len) as usize],
            );
            pos = start + len;
        }
    }
}

/// When a forwarding port hands a packet on (see
/// [`TxPort::enable_forwarding`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForwardDue {
    /// Once its first hop delivered it: a chain's node 1 relays only
    /// what it holds.
    Delivered,
    /// Once the adapter finished serializing it: the switch then owns it
    /// and fans a quorum head's packets out store-and-forward.
    Done,
}

/// Slots of a ring's first allocation: a handful of packets, so a port
/// that emits little (one of a fault campaign's many) allocates little.
const FIRST_SLOTS: usize = 16;

/// A port's in-flight packets, each held once, in slots indexed by
/// emission sequence modulo the (power-of-two) slot count. A packet is
/// live from its emission until every consumer's cursor is past it.
#[derive(Default)]
struct Ring {
    slots: Vec<Packet>,
    /// Sequence of the next packet to emit: the packets emitted so far.
    end: u64,
    /// The oldest packet still in the posted-write window.
    window: u64,
    /// The oldest packet not yet applied to the peers.
    delivery: u64,
    /// The oldest packet not yet handed on; consulted only when
    /// `forwarding` is on.
    forward: u64,
    forwarding: Option<ForwardDue>,
}

impl Ring {
    #[inline]
    fn slot(&self, seq: u64) -> &Packet {
        &self.slots[seq as usize & (self.slots.len() - 1)]
    }

    /// The oldest live packet (`end` when none is).
    #[inline]
    fn oldest(&self) -> u64 {
        let held = self.window.min(self.delivery);
        match self.forwarding {
            Some(_) => held.min(self.forward),
            None => held,
        }
    }

    /// Claims the slot of the next emission sequence; returns its index.
    #[inline]
    fn claim(&mut self) -> usize {
        if self.end - self.oldest() == self.slots.len() as u64 {
            self.grow();
        }
        let idx = self.end as usize & (self.slots.len() - 1);
        self.end += 1;
        idx
    }

    /// Doubles the slot count (the first call allocates [`FIRST_SLOTS`]),
    /// moving every live packet to its new slot.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(FIRST_SLOTS);
        let mut slots = vec![Packet::FREE; len];
        for seq in self.oldest()..self.end {
            slots[seq as usize & (len - 1)] = *self.slot(seq);
        }
        self.slots = slots;
    }

    /// The first sequence at or after `from` whose packet is not due by
    /// `t`, given each packet's due instant.
    fn due_end(
        &self,
        from: u64,
        t: VirtualInstant,
        due: impl Fn(&Packet) -> VirtualInstant,
    ) -> u64 {
        let mut seq = from;
        while seq < self.end && due(self.slot(seq)) <= t {
            seq += 1;
        }
        seq
    }
}

/// The packet-emission half of a [`TxPort`]: link access, posted-write
/// flow control, and the in-flight ring. Split from the write buffers so
/// flush callbacks can borrow it as one unit while [`WriteBufferSet`] is
/// borrowed alongside.
struct Emitter<T: Tracer> {
    link: Rc<RefCell<Link>>,
    window_cap: u64,
    window_packets: u64,
    /// Payload bytes of the packets in the posted-write window.
    outstanding_bytes: u64,
    ring: Ring,
    last_delivered: VirtualInstant,
    tracer: T,
    track: u32,
    /// How a flow-control stall during the *current* operation should be
    /// attributed: [`StallCause::PostedWindow`] on the store path,
    /// [`StallCause::WbufFlush`] while a barrier drains partial buffers.
    stall_cause: StallCause,
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
}

impl<T: Tracer> Emitter<T> {
    /// Sends one packet of `mask`'s bytes at `base` to the link, or halts
    /// before it leaves the adapter. Returns the block of its ring slot,
    /// which the caller fills: the packet is built where it is held.
    fn emit(
        &mut self,
        clock: &mut Clock,
        base: Addr,
        mask: u32,
        class_bytes: [u64; 3],
    ) -> Result<&mut [u8; BLOCK as usize], Halted> {
        let payload: u64 = class_bytes.iter().sum();
        match &mut self.packet_budget {
            None => {}
            Some(0) => {
                self.tracer.instant(
                    self.track,
                    dsnrep_obs::TraceEventKind::FaultInjected,
                    clock.now(),
                    self.ring.end,
                );
                return Err(Halted);
            }
            Some(budget) => *budget -= 1,
        }
        let ring = &mut self.ring;
        // Release completed packets.
        while ring.window < ring.end {
            let p = ring.slot(ring.window);
            if p.done > clock.now() {
                break;
            }
            self.outstanding_bytes -= p.payload();
            ring.window += 1;
        }
        // Posted-write flow control: stall until the window has room
        // (bounded both in bytes and in packets).
        while self.outstanding_bytes + payload > self.window_cap
            || ring.end - ring.window >= self.window_packets
        {
            assert!(
                ring.window < ring.end,
                "window exceeded with no outstanding packets"
            );
            let p = ring.slot(ring.window);
            let (done, bytes) = (p.done, p.payload());
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
            ring.window += 1;
        }
        let timing = self.link.borrow_mut().send_mixed(clock.now(), class_bytes);
        self.outstanding_bytes += payload;
        let id = packet_id(self.track, ring.end);
        let idx = ring.claim();
        let slot = &mut ring.slots[idx];
        slot.base = base;
        slot.mask = mask;
        slot.class_bytes = class_bytes.map(|b| b as u8);
        slot.done = timing.done;
        slot.delivered = timing.delivered;
        slot.txn = self.current_txn;
        if self.tracer.is_enabled() {
            self.tracer
                .packet_life(self.track, timing.life(id, self.current_txn, class_bytes));
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
                self.ring.end - self.ring.delivery,
            );
        }
        self.last_delivered = timing.delivered;
        Ok(&mut self.ring.slots[idx].data)
    }

    /// Sends one flushed write buffer as a packet, or halts before it
    /// leaves the adapter.
    fn emit_flushed(&mut self, clock: &mut Clock, flushed: FlushedBuffer) -> Result<(), Halted> {
        if flushed.payload() == 0 {
            return Ok(());
        }
        *self.emit(clock, flushed.base, flushed.mask, flushed.class_bytes)? = flushed.data;
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
            .field("inflight_packets", &self.inflight_packets())
            .field("forwarding", &self.tx.ring.forwarding)
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
                window_packets: costs.posted_window_packets.max(1) as u64,
                outstanding_bytes: 0,
                ring: Ring::default(),
                last_delivered: VirtualInstant::EPOCH,
                tracer,
                track,
                stall_cause: StallCause::PostedWindow,
                packet_budget: None,
                current_txn: NO_TXN,
                peer_track: TRACK_BACKUP,
            },
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
                bufs.flush_block(block, &mut |flushed| tx.emit_flushed(clock, flushed))?;
                entered_block = block;
            }
            // A word never spans a 32-byte block (8-byte words, 32-byte
            // blocks), so this fits. The word goes straight into its ring
            // slot; the slot's other bytes lie outside the mask.
            let mut class_bytes = [0u64; 3];
            class_bytes[class.index()] = n as u64;
            let data = tx.emit(clock, block_base, span_mask(in_block, n), class_bytes)?;
            dsnrep_simcore::copy_small(&mut data[in_block..in_block + n], &bytes[off..off + n]);
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
        let ring = &self.tx.ring;
        if ring.delivery < ring.end && ring.slot(ring.delivery).delivered <= t {
            self.drain_up_to(t);
        }
    }

    /// [`deliver_up_to`](TxPort::deliver_up_to) once something is due.
    #[inline(never)]
    fn drain_up_to(&mut self, t: VirtualInstant) {
        let ring = &self.tx.ring;
        let from = ring.delivery;
        let to = ring.due_end(from, t, |p| p.delivered);
        // Borrow each peer arena once for the whole drain instead of once
        // per packet: a peer is never the sending node's own arena, so the
        // borrow cannot alias anything the drain touches.
        for peer in &self.peers {
            let mut arena = peer.borrow_mut();
            for seq in from..to {
                ring.slot(seq).apply_to(&mut arena);
            }
        }
        if self.tx.tracer.is_enabled() {
            for seq in from..to {
                let p = ring.slot(seq);
                self.tx.tracer.packet_applied(
                    self.tx.peer_track,
                    packet_id(self.tx.track, seq),
                    p.txn,
                    p.delivered,
                );
            }
            // The sender's in-flight queue drained down to its new depth
            // at the last delivery instant (never at `t`, which may be a
            // quiesce-time sentinel no metrics window should materialize
            // to).
            self.tx.tracer.gauge_set(
                self.tx.track,
                Metric::LinkQueueDepth,
                ring.slot(to - 1).delivered,
                ring.end - to,
            );
        }
        self.tx.ring.delivery = to;
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
    /// write buffers that never reached the PCI bus, and packets a
    /// forwarding port has not handed on — is lost.
    pub fn crash_cut(&mut self, at: VirtualInstant) {
        self.deliver_up_to(at);
        let ring = &mut self.tx.ring;
        if self.tx.tracer.is_enabled() && ring.delivery < ring.end {
            // The undelivered tail vanishes with the crashed sender.
            self.tx
                .tracer
                .gauge_set(self.tx.track, Metric::LinkQueueDepth, at, 0);
        }
        ring.window = ring.end;
        ring.delivery = ring.end;
        ring.forward = ring.end;
        self.bufs.discard_all();
        self.tx.outstanding_bytes = 0;
    }

    /// Delivery instant of the most recently flushed packet.
    pub fn last_delivered(&self) -> VirtualInstant {
        self.tx.last_delivered
    }

    /// Packets flushed to the link but not yet applied to the peer.
    pub fn inflight_packets(&self) -> usize {
        (self.tx.ring.end - self.tx.ring.delivery) as usize
    }

    /// SAN packets this port has emitted so far (monotone).
    pub fn packets_emitted(&self) -> u64 {
        self.tx.ring.end
    }

    /// Turns forwarding on: from now on every emitted packet also stays
    /// in the port until [`TxPort::forward_up_to`] hands it on, once it is
    /// due per `due`, however long ago its peers applied it. A chain or
    /// quorum head forwards its packets to the nodes past node 1.
    pub fn enable_forwarding(&mut self, due: ForwardDue) {
        let ring = &mut self.tx.ring;
        ring.forwarding = Some(due);
        ring.forward = ring.end;
    }

    /// Hands every packet due by `cut` and not handed on yet to `hand_on`,
    /// once each, in emission order. Does nothing unless forwarding is on.
    pub fn forward_up_to(&mut self, cut: VirtualInstant, mut hand_on: impl FnMut(&Packet)) {
        let ring = &mut self.tx.ring;
        let to = match ring.forwarding {
            None => return,
            Some(ForwardDue::Delivered) => ring.due_end(ring.forward, cut, |p| p.delivered),
            Some(ForwardDue::Done) => ring.due_end(ring.forward, cut, |p| p.done),
        };
        for seq in ring.forward..to {
            hand_on(ring.slot(seq));
        }
        ring.forward = to;
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
            bufs.store(addr, bytes, class, &mut |flushed| {
                tx.emit_flushed(clock, flushed)
            })?;
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
        bufs.flush_all(&mut |flushed| tx.emit_flushed(clock, flushed))?;
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

    const END_OF_TIME: VirtualInstant = VirtualInstant::from_picos(u64::MAX);

    /// Stores `n` full packets, packet `i` filled with `i + 1` at block
    /// `2 * i`.
    fn store_packets(port: &mut TxPort, clock: &mut Clock, n: u64) -> Result<(), Halted> {
        for i in 0..n {
            port.store(
                clock,
                Addr::new(i * 64),
                &[i as u8 + 1; 32],
                TrafficClass::Modified,
            )?;
        }
        Ok(())
    }

    /// Packets the port's ring still holds.
    fn held(port: &TxPort) -> u64 {
        port.tx.ring.end - port.tx.ring.oldest()
    }

    #[test]
    fn forwarding_hands_each_packet_on_once_in_emission_order() -> Result<(), Halted> {
        let (_, _, _, mut port, mut clock) = setup();
        port.enable_forwarding(ForwardDue::Delivered);
        // More packets than the ring's first allocation: it grows while
        // holding every one of them.
        store_packets(&mut port, &mut clock, 40)?;
        let record = |p: &Packet| (p.base, p.data[0], p.delivered);
        let mut handed = Vec::new();
        port.forward_up_to(clock.now(), |p| handed.push(record(p)));
        let first = handed.len();
        assert!(first > 0 && first < 40, "{first} due mid-stream");
        port.quiesce(&mut clock)?;
        for _ in 0..2 {
            port.forward_up_to(END_OF_TIME, |p| handed.push(record(p)));
        }
        assert_eq!(handed.len(), 40);
        for (i, &(base, byte, _)) in handed.iter().enumerate() {
            assert_eq!(base, Addr::new(i as u64 * 64));
            assert_eq!(byte, i as u8 + 1);
        }
        assert!(handed.windows(2).all(|w| w[0].2 <= w[1].2));
        Ok(())
    }

    #[test]
    fn forwarding_is_due_at_delivery_for_a_chain_and_done_for_a_quorum() -> Result<(), Halted> {
        for due in [ForwardDue::Delivered, ForwardDue::Done] {
            let (costs, _, _, mut port, mut clock) = setup();
            port.enable_forwarding(due);
            port.store(&mut clock, Addr::new(0), &[1; 32], TrafficClass::Modified)?;
            let delivered = port.last_delivered();
            let done = delivered - costs.link_latency;
            let tick = VirtualDuration::from_picos(1);
            let mut handed = 0;
            port.forward_up_to(done - tick, |_| handed += 1);
            assert_eq!(handed, 0, "{due:?}: nothing is serialized yet");
            port.forward_up_to(done, |p| {
                assert_eq!(p.done, done);
                handed += 1;
            });
            let at_done = handed;
            port.forward_up_to(delivered - tick, |_| handed += 1);
            assert_eq!(handed, at_done, "{due:?}: nothing more before delivery");
            port.forward_up_to(delivered, |_| handed += 1);
            assert_eq!(handed, 1, "{due:?}");
            let expected = match due {
                ForwardDue::Delivered => 0,
                ForwardDue::Done => 1,
            };
            assert_eq!(at_done, expected, "{due:?}");
        }
        Ok(())
    }

    #[test]
    fn an_applied_packet_stays_until_it_is_forwarded() -> Result<(), Halted> {
        let (_, _, peer, mut port, mut clock) = setup();
        port.enable_forwarding(ForwardDue::Done);
        store_packets(&mut port, &mut clock, 20)?;
        port.quiesce(&mut clock)?;
        assert_eq!(port.inflight_packets(), 0);
        assert_eq!(peer.borrow().read_vec(Addr::new(19 * 64), 32), vec![20; 32]);
        assert_eq!(held(&port), 20);
        let mut bytes = Vec::new();
        port.forward_up_to(END_OF_TIME, |p| bytes.push(p.data[31]));
        assert_eq!(bytes, (1..=20).collect::<Vec<u8>>());
        assert!(held(&port) <= port.tx.window_packets);
        Ok(())
    }

    #[test]
    fn crash_cut_drops_packets_not_yet_forwarded() -> Result<(), Halted> {
        let (_, _, peer, mut port, mut clock) = setup();
        port.enable_forwarding(ForwardDue::Delivered);
        store_packets(&mut port, &mut clock, 20)?;
        let mut handed = 0;
        port.forward_up_to(clock.now(), |_| handed += 1);
        port.crash_cut(clock.now());
        assert_eq!(held(&port), 0);
        port.forward_up_to(END_OF_TIME, |_| handed += 1);
        // Only what node 1 held by the crash went on, and exactly that
        // prefix reached node 1.
        assert!(handed > 0 && handed < 20, "{handed} forwarded");
        let last = (handed - 1) as u64;
        assert_eq!(
            peer.borrow().read_vec(Addr::new(last * 64), 32),
            vec![handed as u8; 32]
        );
        assert_eq!(
            peer.borrow().read_vec(Addr::new((last + 1) * 64), 32),
            vec![0; 32]
        );
        Ok(())
    }

    #[test]
    fn a_port_that_does_not_forward_holds_only_its_window() -> Result<(), Halted> {
        let (_, _, _, mut port, mut clock) = setup();
        store_packets(&mut port, &mut clock, 200)?;
        port.quiesce(&mut clock)?;
        let mut handed = 0;
        port.forward_up_to(END_OF_TIME, |_| handed += 1);
        assert_eq!(handed, 0);
        // Every packet is delivered; only the posted window's last few
        // are still counted, and the ring never outgrew its first slots.
        assert!(held(&port) <= port.tx.window_packets);
        assert_eq!(port.tx.ring.slots.len(), FIRST_SLOTS);
        Ok(())
    }

    mod apply_equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// `Packet::apply_to` (full-mask fast path + bit-scan runs)
            /// mutates an arena exactly like the `dirty_runs`-driven loop
            /// it replaced — including the arena write counter, which
            /// fault campaigns enumerate as halt points.
            #[test]
            fn apply_one_matches_dirty_runs_reference(
                mask in prop_oneof![4 => Just(u32::MAX), 8 => any::<u32>()],
                base_block in 0u64..4,
                seed in any::<u8>(),
            ) {
                let mut data = [0u8; BLOCK as usize];
                for (i, item) in data.iter_mut().enumerate() {
                    *item = (i as u8).wrapping_add(seed);
                }
                let d = Packet {
                    base: Addr::new(base_block * BLOCK),
                    mask,
                    data,
                    ..Packet::FREE
                };

                let mut fast = Arena::new(256);
                d.apply_to(&mut fast);

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

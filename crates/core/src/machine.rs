//! The simulated node: arena + cache + clock + optional write doubling.
//!
//! Every accounted memory access an engine makes goes through a [`Machine`]:
//!
//! 1. the bytes are applied to the local [`Arena`],
//! 2. the [`DirectMappedCache`] model charges hit/miss time to the node's
//!    [`Clock`], and
//! 3. if the address falls in a *replicated* region and a backup port is
//!    attached, the store is doubled into the SAN model (which charges issue
//!    costs and stalls, and delivers the bytes to the backup arena).
//!
//! This is the write-doubling discipline of the paper's §2.3: loopback is
//! disabled, so shared data is written twice — once to the ordinary mapping
//! and once to I/O space.
//!
//! Every store can halt the node: an armed fault budget (the machine's
//! stores, its port's packets, its arena's writes) returns [`Halted`]
//! from the store that meets it, and the store returns it to the engine.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use dsnrep_mcsim::TxPort;
use dsnrep_obs::{Metric, NullTracer, Phase, TraceEventKind, Tracer, NO_TXN};
use dsnrep_rio::{AllocMem, Arena};
use dsnrep_simcore::{
    Addr, BusyCause, Clock, CostModel, DirectMappedCache, Halted, Region, StallCause, TrafficClass,
    VirtualDuration, VirtualInstant,
};

/// When a commit may return (Gray & Reuter's taxonomy, paper §2.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Durability {
    /// 1-safe: return as soon as the commit is durable locally. A crash in
    /// the short window before delivery can lose committed transactions
    /// (the paper's design).
    #[default]
    OneSafe,
    /// 2-safe: additionally wait until the commit record is delivered to
    /// the backup. No committed transaction can be lost, at the price of
    /// one SAN latency per commit.
    TwoSafe,
}

/// A snapshot of a machine's execution counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Current virtual time.
    pub now: VirtualInstant,
    /// Virtual time elapsed since the clock's origin. Always equals the
    /// sum of `busy_breakdown` plus the sum of `stall_breakdown`.
    pub elapsed: VirtualDuration,
    /// Time spent stalled on shared resources (posted-write window, redo
    /// ring, 2-safe waits). Always equals the sum of `stall_breakdown`.
    pub stalled: VirtualDuration,
    /// Stall time attributed per [`StallCause`], indexed by
    /// [`StallCause::index`].
    pub stall_breakdown: [VirtualDuration; StallCause::COUNT],
    /// Busy time attributed per [`BusyCause`], indexed by
    /// [`BusyCause::index`].
    pub busy_breakdown: [VirtualDuration; BusyCause::COUNT],
    /// Cumulative cache hits.
    pub cache_hits: u64,
    /// Cumulative cache misses.
    pub cache_misses: u64,
}

impl MachineStats {
    /// Cache hit rate in [0, 1]; 0 when no accesses happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// A simulated processor + recoverable memory + (optionally) a SAN port.
///
/// # Examples
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use dsnrep_core::Machine;
/// use dsnrep_rio::Arena;
/// use dsnrep_simcore::{Addr, CostModel, TrafficClass};
///
/// let arena = Rc::new(RefCell::new(Arena::new(1 << 16)));
/// let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
/// m.write(Addr::new(64), &[1, 2, 3], TrafficClass::Modified)?;
/// let mut buf = [0u8; 3];
/// m.read(Addr::new(64), &mut buf);
/// assert_eq!(buf, [1, 2, 3]);
/// assert!(m.now().as_picos() > 0); // accesses cost virtual time
/// # Ok::<(), dsnrep_simcore::Halted>(())
/// ```
pub struct Machine<T: Tracer = NullTracer> {
    costs: CostModel,
    cache: DirectMappedCache,
    clock: Clock,
    arena: Rc<RefCell<Arena>>,
    port: Option<TxPort<T>>,
    replicated: Vec<Region>,
    durability: Durability,
    /// Fault injection: remaining accounted stores before the simulated
    /// processor halts (None = healthy). The store that finds it at zero
    /// returns [`Halted`] before touching anything — exactly what a crash
    /// at that store boundary looks like to recoverable memory.
    store_budget: Option<u64>,
    /// Whether a fault budget halted this node: set by every call that
    /// returned [`Halted`], cleared when the faults are disarmed. Debug
    /// builds assert that no accounted access or charge runs while it is
    /// set.
    halted: bool,
    /// Monotone count of accounted stores, so fault campaigns can
    /// enumerate every store boundary of a probe run.
    stores_executed: u64,
    tracer: T,
    track: u32,
    /// The transaction currently being traced (set by
    /// [`Machine::trace_tx_begin`], consumed by [`Machine::trace_tx_end`]).
    tx_open: Option<OpenTxn>,
    /// Monotone transaction counter; combined with the track it forms the
    /// stable txn id that tags SAN packets for causal flow stitching.
    txn_seq: u64,
}

/// Everything captured at `trace_tx_begin` that `trace_tx_end` needs to
/// close the span and decompose the commit latency into a critical path.
struct OpenTxn {
    start: VirtualInstant,
    id: u64,
    busy0: [VirtualDuration; BusyCause::COUNT],
    stall0: [VirtualDuration; StallCause::COUNT],
}

/// A stable transaction id: the trace track in the high bits, the per-node
/// sequence number in the low 40 (same packing as SAN packet ids, but the
/// two id spaces never meet).
const fn txn_id(track: u32, seq: u64) -> u64 {
    ((track as u64) << 40) | (seq & ((1 << 40) - 1))
}

/// Passes `result` on, noting in `halted` whether it is a halt. A free
/// function, so a caller can pass a machine's flag while holding its port.
#[inline(always)]
fn noting_halt(halted: &mut bool, result: Result<(), Halted>) -> Result<(), Halted> {
    if result.is_err() {
        *halted = true;
    }
    result
}

impl<T: Tracer> fmt::Debug for Machine<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.clock.now())
            .field("replicated_regions", &self.replicated.len())
            .field("has_port", &self.port.is_some())
            .finish()
    }
}

impl Machine {
    /// Creates a standalone machine (no backup).
    pub fn standalone(costs: CostModel, arena: Rc<RefCell<Arena>>) -> Self {
        Machine::standalone_traced(costs, arena, NullTracer, 0)
    }
}

impl<T: Tracer> Machine<T> {
    /// Creates a standalone machine (no backup) that reports phase spans
    /// and point events to `tracer` as `track`.
    pub fn standalone_traced(
        costs: CostModel,
        arena: Rc<RefCell<Arena>>,
        tracer: T,
        track: u32,
    ) -> Self {
        let cache = DirectMappedCache::new(costs.cache_capacity, costs.cache_line);
        Machine {
            costs,
            cache,
            clock: Clock::new(),
            arena,
            port: None,
            replicated: Vec::new(),
            durability: Durability::OneSafe,
            store_budget: None,
            halted: false,
            stores_executed: 0,
            tracer,
            track,
            tx_open: None,
            txn_seq: 0,
        }
    }

    /// Creates a traced machine whose replicated regions are doubled
    /// through `port`.
    pub fn with_port_traced(
        costs: CostModel,
        arena: Rc<RefCell<Arena>>,
        port: TxPort<T>,
        tracer: T,
        track: u32,
    ) -> Self {
        let mut m = Machine::standalone_traced(costs, arena, tracer, track);
        m.port = Some(port);
        m
    }

    /// Attaches a SAN port after construction (e.g. once the backup arena
    /// has been cloned from the loaded primary).
    pub fn attach_port(&mut self, port: TxPort<T>) {
        self.port = Some(port);
    }

    /// The tracer this machine reports to (a cheap handle).
    pub fn tracer(&self) -> &T {
        &self.tracer
    }

    /// The trace track (simulated-node id) this machine reports as.
    pub fn track(&self) -> u32 {
        self.track
    }

    /// Records a phase span from `start` to the current virtual time.
    /// Free when the tracer is a no-op.
    #[inline]
    pub fn trace_phase(&self, phase: Phase, start: VirtualInstant) {
        self.tracer.span(self.track, phase, start, self.clock.now());
    }

    /// Records a point event at the current virtual time.
    #[inline]
    pub fn trace_event(&self, kind: TraceEventKind, arg: u64) {
        self.tracer.instant(self.track, kind, self.clock.now(), arg);
    }

    /// Marks the start of a transaction span (engines call this in
    /// `begin`). A no-op when tracing is disabled.
    ///
    /// Assigns the transaction a stable id, tags every SAN packet issued
    /// until [`Machine::trace_tx_end`] with it, and snapshots the clock's
    /// busy/stall breakdowns so the end hook can decompose the commit
    /// latency into a critical path by pure subtraction.
    #[inline]
    pub fn trace_tx_begin(&mut self) {
        if self.tracer.is_enabled() {
            let now = self.clock.now();
            let id = txn_id(self.track, self.txn_seq);
            self.txn_seq += 1;
            self.tx_open = Some(OpenTxn {
                start: now,
                id,
                busy0: self.clock.busy_breakdown(),
                stall0: self.clock.stall_breakdown(),
            });
            if let Some(port) = self.port.as_mut() {
                port.set_current_txn(id);
            }
            self.tracer
                .gauge_set(self.track, Metric::InflightTxns, now, 1);
        }
    }

    /// Closes the open transaction span, if any (engines call this at the
    /// end of `commit` and `abort`), and reports the transaction's
    /// critical path: the clock-delta decomposition of the commit latency
    /// over every busy and stall cause. Because the clock self-attributes
    /// each picosecond to exactly one cause, the reported segments sum to
    /// the latency by construction.
    #[inline]
    pub fn trace_tx_end(&mut self) {
        if let Some(open) = self.tx_open.take() {
            let now = self.clock.now();
            self.tracer.span(self.track, Phase::Txn, open.start, now);
            let busy1 = self.clock.busy_breakdown();
            let stall1 = self.clock.stall_breakdown();
            let mut busy = [0u64; BusyCause::COUNT];
            for (slot, (b1, b0)) in busy.iter_mut().zip(busy1.iter().zip(open.busy0.iter())) {
                *slot = b1.as_picos() - b0.as_picos();
            }
            let mut stall = [0u64; StallCause::COUNT];
            for (slot, (s1, s0)) in stall.iter_mut().zip(stall1.iter().zip(open.stall0.iter())) {
                *slot = s1.as_picos() - s0.as_picos();
            }
            self.tracer
                .txn_path(self.track, open.id, open.start, now, busy, stall);
            if let Some(port) = self.port.as_mut() {
                port.set_current_txn(NO_TXN);
            }
            self.tracer
                .gauge_set(self.track, Metric::InflightTxns, now, 0);
        }
    }

    /// Marks `region` as write-through mapped: stores to it are doubled to
    /// the backup (if a port is attached).
    pub fn replicate(&mut self, region: Region) {
        self.replicated.push(region);
    }

    /// Removes every write-through mapping.
    pub fn clear_replication(&mut self) {
        self.replicated.clear();
    }

    /// The cost model in effect.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualInstant {
        self.clock.now()
    }

    /// The node's clock (mutable access is used by drivers that stall the
    /// node on external resources, e.g. a full redo ring).
    pub fn clock_mut(&mut self) -> &mut Clock {
        &mut self.clock
    }

    /// The node's arena handle.
    pub fn arena(&self) -> &Rc<RefCell<Arena>> {
        &self.arena
    }

    /// The SAN port, if any.
    pub fn port_mut(&mut self) -> Option<&mut TxPort<T>> {
        self.port.as_mut()
    }

    /// Charges `d` of CPU work.
    #[inline]
    pub fn charge(&mut self, d: VirtualDuration) {
        self.assert_running();
        self.clock.advance(d);
    }

    #[inline]
    fn charge_cache(&mut self, addr: Addr, len: u64) {
        self.assert_running();
        let out = self.cache.touch(addr, len);
        self.clock.advance_for(
            BusyCause::Cache,
            self.costs.cache_hit * out.hits + self.costs.cache_miss * out.misses,
        );
        if self.tracer.is_enabled() {
            self.tracer.gauge_set(
                self.track,
                Metric::CacheOccupancyLines,
                self.clock.now(),
                self.cache.occupied_lines(),
            );
        }
    }

    #[inline]
    fn is_replicated(&self, addr: Addr) -> bool {
        self.replicated.iter().any(|r| r.contains(addr))
    }

    /// Arms fault injection: when `stores` more accounted stores have
    /// executed, the simulated processor halts at the next store boundary
    /// (including mid-commit), just like a real crash. The store that
    /// meets the spent budget returns [`Halted`] and mutates nothing — no
    /// cache charge, no arena byte, no doubled packet, no store count —
    /// and every later store halts too until [`Machine::clear_fault`].
    /// The engine passes the halt up unchanged; the fault executor then
    /// calls [`Machine::crash`] and runs recovery.
    pub fn inject_crash_after_stores(&mut self, stores: u64) {
        self.store_budget = Some(stores);
    }

    /// Disarms the store budget; the node runs again.
    pub fn clear_fault(&mut self) {
        self.store_budget = None;
        self.halted = false;
    }

    #[inline]
    fn consume_store_budget(&mut self) -> Result<(), Halted> {
        match &mut self.store_budget {
            None => {}
            Some(0) => {
                self.tracer.instant(
                    self.track,
                    TraceEventKind::FaultInjected,
                    self.clock.now(),
                    self.stores_executed,
                );
                self.halted = true;
                return Err(Halted);
            }
            Some(n) => *n -= 1,
        }
        self.stores_executed += 1;
        Ok(())
    }

    /// Debug builds: nothing accounted may run on a halted node.
    #[inline(always)]
    fn assert_running(&self) {
        debug_assert!(!self.halted, "an accounted access ran on a halted node");
    }

    /// Accounted stores executed so far (monotone).
    pub fn stores_executed(&self) -> u64 {
        self.stores_executed
    }

    /// SAN packets emitted by this node's port so far (0 without a port).
    pub fn packets_emitted(&self) -> u64 {
        self.port.as_ref().map_or(0, |p| p.packets_emitted())
    }

    /// Arms a packet-boundary fault on the SAN port: the node halts
    /// before the `(packets + 1)`-th packet from now reaches the link.
    /// The store, barrier or 2-safe wait that would emit it returns
    /// [`Halted`] (see `TxPort::inject_crash_after_packets`), and so does
    /// every later emission until [`Machine::clear_packet_fault`]. No-op
    /// without a port.
    pub fn inject_crash_after_packets(&mut self, packets: u64) {
        if let Some(port) = self.port.as_mut() {
            port.inject_crash_after_packets(packets);
        }
    }

    /// Disarms any packet-boundary fault on the port; the node runs again.
    pub fn clear_packet_fault(&mut self) {
        if let Some(port) = self.port.as_mut() {
            port.clear_packet_fault();
        }
        self.halted = false;
    }

    /// An accounted store: local write + cache charge + doubling.
    ///
    /// # Errors
    ///
    /// [`Halted`] when a fault budget halts the node at this store; see
    /// [`Machine::inject_crash_after_stores`].
    pub fn write(&mut self, addr: Addr, bytes: &[u8], class: TrafficClass) -> Result<(), Halted> {
        self.store(addr, bytes, class, true)
    }

    /// An accounted store whose doubled words do not merge in the write
    /// buffers: use for word-at-a-time copy loops (mirror propagation),
    /// whose interleaved loads defeat the 21164's store merging. Locally it
    /// behaves exactly like [`Machine::write`].
    ///
    /// # Errors
    ///
    /// As [`Machine::write`].
    pub fn write_scattered(
        &mut self,
        addr: Addr,
        bytes: &[u8],
        class: TrafficClass,
    ) -> Result<(), Halted> {
        self.store(addr, bytes, class, false)
    }

    /// The body of every accounted store: budget tick, cache charge,
    /// arena write, port issue (merged or not). It and
    /// `Arena::try_write` are inlined, so a word's length stays a
    /// compile-time constant down to the arena page.
    #[inline(always)]
    fn store(
        &mut self,
        addr: Addr,
        bytes: &[u8],
        class: TrafficClass,
        merged: bool,
    ) -> Result<(), Halted> {
        self.consume_store_budget()?;
        self.charge_cache(addr, bytes.len() as u64);
        let written = self.arena.borrow_mut().try_write(addr, bytes);
        noting_halt(&mut self.halted, written)?;
        if self.is_replicated(addr) {
            if let Some(port) = self.port.as_mut() {
                let doubled = if merged {
                    port.store(&mut self.clock, addr, bytes, class)
                } else {
                    port.store_unmerged(&mut self.clock, addr, bytes, class)
                };
                return noting_halt(&mut self.halted, doubled);
            }
        }
        Ok(())
    }

    /// The body of every accounted load: cache charge, arena read,
    /// inlined like [`store`](Machine::store).
    #[inline(always)]
    fn load(&mut self, addr: Addr, buf: &mut [u8]) {
        self.charge_cache(addr, buf.len() as u64);
        self.arena.borrow().read_into(addr, buf);
    }

    /// An accounted load.
    pub fn read(&mut self, addr: Addr, buf: &mut [u8]) {
        self.load(addr, buf);
    }

    /// Accounted `u64` store.
    ///
    /// # Errors
    ///
    /// As [`Machine::write`].
    pub fn write_u64(&mut self, addr: Addr, value: u64, class: TrafficClass) -> Result<(), Halted> {
        self.store(addr, &value.to_le_bytes(), class, true)
    }

    /// Accounted `u64` load.
    pub fn read_u64(&mut self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.load(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Accounted `u32` load.
    pub fn read_u32(&mut self, addr: Addr) -> u32 {
        let mut b = [0u8; 4];
        self.load(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// A write memory barrier: flushes the SAN write buffers so everything
    /// stored so far is ordered before everything stored later.
    ///
    /// # Errors
    ///
    /// [`Halted`] when the packet budget halts the node mid-flush.
    pub fn barrier(&mut self) -> Result<(), Halted> {
        self.assert_running();
        if let Some(port) = self.port.as_mut() {
            let t0 = self.clock.now();
            noting_halt(&mut self.halted, port.barrier(&mut self.clock))?;
            self.tracer
                .span(self.track, Phase::Barrier, t0, self.clock.now());
        }
        Ok(())
    }

    /// The configured commit durability.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Selects 1-safe (the default, the paper's design) or 2-safe commits.
    pub fn set_durability(&mut self, durability: Durability) {
        self.durability = durability;
    }

    /// The 2-safe wait: flushes the write buffers and stalls until every
    /// packet sent so far — including the commit record — has been
    /// delivered to the backup. Engines call this at the end of commit when
    /// [`Durability::TwoSafe`] is configured; it is a no-op without a port.
    ///
    /// # Errors
    ///
    /// [`Halted`] when the packet budget halts the node mid-flush.
    pub fn wait_delivered(&mut self) -> Result<(), Halted> {
        self.assert_running();
        if let Some(port) = self.port.as_mut() {
            noting_halt(&mut self.halted, port.barrier(&mut self.clock))?;
            let delivered = port.last_delivered();
            let now = self.clock.now();
            if delivered > now {
                self.tracer.counter_add(
                    self.track,
                    Metric::stall(StallCause::TwoSafe),
                    delivered,
                    delivered.duration_since(now).as_picos(),
                );
            }
            self.clock.advance_to_for(StallCause::TwoSafe, delivered);
            port.deliver_up_to(delivered);
        }
        Ok(())
    }

    /// Stalls this node until `t` (no-op if `t` has passed), charging the
    /// wait to `cause` on the clock **and** publishing the same
    /// picoseconds to the windowed stall counter, so per-window stall
    /// deltas re-aggregate to the clock's breakdown exactly. Drivers that
    /// stall a machine on external resources (redo-ring flow control,
    /// delivery visibility, failover clamps) must prefer this over raw
    /// `clock_mut().advance_to_for` when the machine is traced.
    pub fn stall_until(&mut self, cause: StallCause, t: VirtualInstant) {
        self.assert_running();
        let now = self.clock.now();
        if t > now {
            self.tracer.counter_add(
                self.track,
                Metric::stall(cause),
                t,
                t.duration_since(now).as_picos(),
            );
        }
        self.clock.advance_to_for(cause, t);
    }

    /// Execution counters.
    pub fn stats(&self) -> MachineStats {
        let cache = self.cache.stats();
        MachineStats {
            now: self.clock.now(),
            elapsed: self.clock.elapsed(),
            stalled: self.clock.stalled(),
            stall_breakdown: self.clock.stall_breakdown(),
            busy_breakdown: self.clock.busy_breakdown(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
        }
    }

    /// An unaccounted load (oracles, assertions).
    pub fn peek_vec(&self, addr: Addr, len: usize) -> Vec<u8> {
        self.arena.borrow().read_vec(addr, len)
    }

    /// Simulates a crash at the current instant: SAN packets not yet
    /// delivered are lost, dirty write buffers are dropped, and the cache is
    /// forgotten. The arena (recoverable memory) survives. Returns the crash
    /// instant.
    ///
    /// After `crash`, the machine models the *rebooted* node: the clock
    /// keeps running (reboot time is not modelled) and the cache is cold.
    pub fn crash(&mut self) -> VirtualInstant {
        let at = self.clock.now();
        if let Some(port) = self.port.as_mut() {
            port.crash_cut(at);
        }
        self.cache.flush();
        at
    }

    /// Flushes and delivers everything in flight (graceful quiesce).
    ///
    /// # Errors
    ///
    /// [`Halted`] when the packet budget halts the node mid-flush.
    pub fn quiesce(&mut self) -> Result<(), Halted> {
        match self.port.as_mut() {
            Some(port) => noting_halt(&mut self.halted, port.quiesce(&mut self.clock)),
            None => Ok(()),
        }
    }

    /// A view of this machine that implements [`AllocMem`], charging every
    /// allocator access as metadata traffic.
    pub fn meta_mem(&mut self) -> MetaMem<'_, T> {
        MetaMem { machine: self }
    }
}

/// Adapter: the recoverable heap's memory accesses, accounted as metadata.
#[derive(Debug)]
pub struct MetaMem<'a, T: Tracer = NullTracer> {
    machine: &'a mut Machine<T>,
}

impl<T: Tracer> AllocMem for MetaMem<'_, T> {
    fn read_u64(&mut self, addr: Addr) -> u64 {
        self.machine.read_u64(addr)
    }

    fn write_u64(&mut self, addr: Addr, value: u64) -> Result<(), Halted> {
        self.machine.write_u64(addr, value, TrafficClass::Meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsnrep_mcsim::Link;

    fn standalone() -> Machine {
        let arena = Rc::new(RefCell::new(Arena::new(1 << 20)));
        Machine::standalone(CostModel::alpha_21164a(), arena)
    }

    #[test]
    fn write_then_read_round_trips() -> Result<(), Halted> {
        let mut m = standalone();
        m.write(Addr::new(128), b"abc", TrafficClass::Modified)?;
        let mut buf = [0u8; 3];
        m.read(Addr::new(128), &mut buf);
        assert_eq!(&buf, b"abc");
        Ok(())
    }

    #[test]
    fn cache_makes_second_access_cheaper() {
        let mut m = standalone();
        let mut buf = [0u8; 64];
        let t0 = m.now();
        m.read(Addr::new(0), &mut buf);
        let cold = m.now().duration_since(t0);
        let t1 = m.now();
        m.read(Addr::new(0), &mut buf);
        let warm = m.now().duration_since(t1);
        assert!(cold > warm, "cold {cold} vs warm {warm}");
    }

    #[test]
    fn peek_is_free() {
        let m = standalone();
        m.arena().borrow_mut().write(Addr::new(0), &[9; 100]);
        assert_eq!(m.peek_vec(Addr::new(0), 100), vec![9; 100]);
        assert_eq!(m.now(), VirtualInstant::EPOCH);
    }

    fn with_backup() -> (Machine, Rc<RefCell<Arena>>) {
        let costs = CostModel::alpha_21164a();
        let arena = Rc::new(RefCell::new(Arena::new(1 << 20)));
        let backup = Rc::new(RefCell::new(Arena::new(1 << 20)));
        let link = Rc::new(RefCell::new(Link::new(&costs)));
        let port = TxPort::new(&costs, link, Rc::clone(&backup));
        let mut m = Machine::standalone(costs, arena);
        m.attach_port(port);
        (m, backup)
    }

    #[test]
    fn replicated_region_is_doubled() -> Result<(), Halted> {
        let (mut m, backup) = with_backup();
        m.replicate(Region::new(Addr::new(0), 1024));
        m.write(Addr::new(100), &[7; 8], TrafficClass::Undo)?;
        m.quiesce()?;
        assert_eq!(backup.borrow().read_vec(Addr::new(100), 8), vec![7; 8]);
        Ok(())
    }

    #[test]
    fn unreplicated_region_stays_local() -> Result<(), Halted> {
        let (mut m, backup) = with_backup();
        m.replicate(Region::new(Addr::new(0), 64));
        m.write(Addr::new(4096), &[7; 8], TrafficClass::Undo)?;
        m.quiesce()?;
        assert_eq!(backup.borrow().read_vec(Addr::new(4096), 8), vec![0; 8]);
        Ok(())
    }

    #[test]
    fn doubling_costs_more_than_local_write() -> Result<(), Halted> {
        let (mut m, _) = with_backup();
        m.replicate(Region::new(Addr::new(0), 4096));
        let mut local = standalone();
        m.write(Addr::new(0), &[1; 64], TrafficClass::Modified)?;
        local.write(Addr::new(0), &[1; 64], TrafficClass::Modified)?;
        assert!(m.now() > local.now());
        Ok(())
    }

    #[test]
    fn crash_loses_inflight_doubled_bytes() -> Result<(), Halted> {
        let (mut m, backup) = with_backup();
        m.replicate(Region::new(Addr::new(0), 4096));
        m.write(Addr::new(0), &[3; 32], TrafficClass::Modified)?;
        // Packet flushed (full buffer) but latency has not elapsed.
        m.crash();
        assert_eq!(backup.borrow().read_vec(Addr::new(0), 32), vec![0; 32]);
        // Local arena survived.
        assert_eq!(m.peek_vec(Addr::new(0), 32), vec![3; 32]);
        Ok(())
    }

    #[test]
    fn meta_mem_routes_alloc_traffic() -> Result<(), Halted> {
        let (mut m, backup) = with_backup();
        m.replicate(Region::new(Addr::new(0), 4096));
        {
            let mut mm = m.meta_mem();
            mm.write_u64(Addr::new(8), 0x1122_3344_5566_7788)?;
            assert_eq!(mm.read_u64(Addr::new(8)), 0x1122_3344_5566_7788);
        }
        m.quiesce()?;
        assert_eq!(
            backup.borrow().read_u64(Addr::new(8)),
            0x1122_3344_5566_7788
        );
        Ok(())
    }

    #[test]
    fn barrier_without_port_is_a_no_op() -> Result<(), Halted> {
        let mut m = standalone();
        m.barrier()?;
        assert_eq!(m.now(), VirtualInstant::EPOCH);
        Ok(())
    }
}

//! The replication driver: a head node and RF − 1 replicas.
//!
//! Every cluster this crate models is one [`ReplicaSet`]: a single-leader
//! replication log whose head ships to node 1 over the paper's accounted
//! SAN path. Sets differ in two things. The [`Scheme`] fixes what the head
//! ships to node 1:
//!
//! * [`Scheme::Passive`] — write-through doubling of the engine's
//!   replicated regions; the backup CPU idles (paper §3 for Version 0,
//!   §5 for Versions 1–3).
//! * [`Scheme::Active`] — a redo ring that node 1's CPU applies, with
//!   producer/consumer flow control (paper §6; see [`crate::active`]).
//!   Active shipping runs on the two-node pair only.
//!
//! The [`Topology`]'s strategy fixes how the rest of the set follows and
//! when a commit waits:
//!
//! * **Primary-backup fan-out** ([`ReplicationStrategy::PrimaryBackup`])
//!   — the Memory Channel hub multicasts natively, so one write-doubled
//!   packet reaches every backup at no extra link cost. At RF=2 this is
//!   the paper's pair, which [`PassiveCluster`](crate::PassiveCluster)
//!   and [`ActiveCluster`](crate::ActiveCluster) wrap.
//! * **Chain** ([`ReplicationStrategy::Chain`]) — the head write-doubles
//!   to node 1; each node then store-and-forwards the same packets down
//!   per-pair [`Fabric`] links (`1→2`, …, `rf−2→rf−1`). The tail
//!   acknowledges over a direct return link, and the head stalls each
//!   commit on that acknowledgement.
//! * **Quorum** ([`ReplicationStrategy::Quorum`]) — the head fans each
//!   packet out to nodes `2..rf` over `0→j` fabric links the moment its
//!   own adapter finishes serializing it; each replica acknowledges a
//!   transaction once it holds all of its packets, and the head stalls
//!   the commit until W replicas (itself included) hold it.
//!
//! Chain and quorum both run the head at [`Durability::TwoSafe`] toward
//! node 1 — the tail/quorum acknowledgement is *on top of* the paper's
//! 2-safe wait, so a committed transaction is always on node 1 and
//! `recovered ≥ committed` holds for every takeover regardless of
//! partitions. Fabric-level partition faults (asymmetric delay, or
//! dropping after `n` packets on one directed pair) starve the
//! acknowledgement instead: the head counts a *degraded commit* and
//! proceeds after the acknowledgements that did arrive, exactly like a
//! coordinator timing out a dead peer.
//!
//! The forwarding model is store-and-forward: once the sending adapter
//! finished serializing a packet (`done`), the switch owns it and will
//! deliver it even if the sender dies before `delivered` — so a crash can
//! leave a fan-out replica marginally *ahead* of node 1 for the in-flight
//! tail, and quorum takeover promotes whichever replica holds the most
//! packets (ties to the most senior node).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use dsnrep_cluster::{NodeId, ReplicationStrategy, Topology};
use dsnrep_core::{
    arena_len, build_engine, Durability, Engine, EngineConfig, ImprovedLogEngine, Machine,
    MachineStats, TxError, VersionTag,
};
use dsnrep_mcsim::{Fabric, ForwardDue, Link, Packet, Traffic, TxPort};
use dsnrep_obs::{Metric, NullTracer, Phase, TraceEventKind, Tracer, NO_TXN, TRACK_PRIMARY};
use dsnrep_rio::Arena;
use dsnrep_simcore::{
    CostModel, Region, StallCause, TrafficClass, VirtualDuration, VirtualInstant,
};
use dsnrep_workloads::{ThroughputReport, TxCtx, Workload};

use crate::active::{ActivePrimaryEngine, BackupNode};
use crate::takeover::{Takeover, UNARMED};

/// What a set's head ships to node 1: the paper's passive or active
/// backup.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Passive backup with the given engine version: the head doubles
    /// every store to the engine's replicated regions.
    Passive(VersionTag),
    /// Active backup: the head runs Version 3 and ships a redo ring that
    /// node 1's CPU applies.
    Active,
}

impl Scheme {
    /// The engine version the head runs.
    pub fn version(self) -> VersionTag {
        match self {
            Scheme::Passive(version) => version,
            Scheme::Active => VersionTag::ImprovedLog,
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scheme::Passive(v) => write!(f, "Passive {v}"),
            Scheme::Active => f.write_str("Active"),
        }
    }
}

/// An acknowledgement packet: 8 bytes of meta-data (a sequence number).
const ACK_BYTES: u64 = 8;

/// A read request: a key plus a sequence floor, 8 bytes of metadata.
const READ_REQUEST_BYTES: u64 = 8;

/// A read response: one 32-byte record image.
const READ_RESPONSE_BYTES: u64 = 32;

fn ack_payload() -> [u64; 3] {
    let mut class_bytes = [0u64; 3];
    class_bytes[TrafficClass::Meta.index()] = ACK_BYTES;
    class_bytes
}

/// A packet delivered to one downstream node at `at`, parked there until
/// the node applies it.
#[derive(Clone, Copy, Debug)]
struct PendingApply {
    at: VirtualInstant,
    packet: Packet,
}

/// One downstream node's receive state (nodes `2..rf` of a chain or
/// quorum; node 1 is fed by the head's accounted `TxPort`).
#[derive(Debug, Default)]
struct DownstreamNode {
    pending: VecDeque<PendingApply>,
    /// Packets delivered to this node so far (applied or pending).
    received: u64,
    /// Delivery instant of the newest received packet.
    last_delivery: VirtualInstant,
    /// A partition drop swallowed a data packet on the way here: the copy
    /// has a hole and the node stops acknowledging.
    data_lost: bool,
}

impl DownstreamNode {
    fn receive(&mut self, at: VirtualInstant, packet: &Packet) {
        self.pending.push_back(PendingApply {
            at,
            packet: *packet,
        });
        self.received += 1;
        self.last_delivery = self.last_delivery.max(at);
    }

    /// Applies every pending packet delivered at or before `t` to the
    /// node's `arena`.
    fn apply_up_to(&mut self, arena: &RefCell<Arena>, t: VirtualInstant) {
        if self.pending.front().is_none_or(|p| p.at > t) {
            return;
        }
        let mut arena = arena.borrow_mut();
        while let Some(front) = self.pending.front() {
            if front.at > t {
                break;
            }
            let p = self.pending.pop_front().expect("front() checked");
            p.packet.apply_to(&mut arena);
        }
    }
}

/// What the read path consults: one entry per transaction run in every
/// vector.
#[derive(Debug)]
struct ReadHistory {
    /// Commit instant of every transaction run so far, in order (the
    /// coordinator's committed-prefix clock for staleness accounting).
    commit_instants: Vec<VirtualInstant>,
    /// Replica read frontiers, one column per replica: the `k`-th entry of
    /// column `i` is when node `i + 1` held all of transactions `1..=k`
    /// ([`NEVER`] from a partition hole on: that copy stays incomplete).
    /// Every column stays aligned with `commit_instants`. Primary-backup
    /// keeps no column: its primary serves every read.
    visibility: Vec<Vec<VirtualInstant>>,
}

/// The visibility of a transaction a partition hole keeps from a copy for
/// good. No read sees it: a read's instant plus its service time fits in
/// a `u64` of picoseconds, so the instant itself is below this one.
const NEVER: VirtualInstant = VirtualInstant::from_picos(u64::MAX);

/// One served replica read: who answered, what committed prefix it
/// observed, and how stale that prefix was against the coordinator.
///
/// `seq` is a *prefix*: the largest `p` such that the serving copy held
/// every transaction `1..=p` when the read was issued — a read never
/// observes transaction `k + 1` without `k`, so the value it returns is
/// always some committed image, never a torn one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadSample {
    /// When the read was issued.
    pub at: VirtualInstant,
    /// When the response was available to the client (issue + service
    /// cost, plus the fabric round trips for quorum reads).
    pub completed: VirtualInstant,
    /// The node whose copy answered (the freshest responder for quorum).
    pub node: NodeId,
    /// The committed prefix the read observed.
    pub seq: u64,
    /// Transactions committed at issue time but absent from the observed
    /// prefix: `committed(at) - seq`.
    pub staleness: u64,
}

/// The completed takeover of a [`ReplicaSet`]: which node was promoted,
/// and the [`Takeover`] ready to run its recovery.
#[derive(Debug)]
pub struct ReplicaTakeover<T: Tracer + 'static = NullTracer> {
    /// The node promoted to primary (the most senior live backup for
    /// primary-backup and chain; the most up-to-date replica for quorum).
    pub successor: NodeId,
    /// When the head crashed.
    pub crashed_at: VirtualInstant,
    /// The promoted node, positioned at the crash instant, ready to
    /// recover.
    pub takeover: Takeover<T>,
}

/// An N-node cluster: a head shipping per its [`Scheme`] under one of
/// the three replication strategies.
///
/// # Examples
///
/// ```
/// use dsnrep_cluster::{ReplicationStrategy, Topology};
/// use dsnrep_core::{EngineConfig, VersionTag};
/// use dsnrep_repl::ReplicaSet;
/// use dsnrep_simcore::CostModel;
/// use dsnrep_workloads::DebitCredit;
///
/// let topology = Topology::new(3, ReplicationStrategy::Chain)?;
/// let config = EngineConfig::for_db(1 << 20);
/// let mut set = ReplicaSet::new(
///     CostModel::alpha_21164a(), VersionTag::ImprovedLog, &config, topology);
/// let mut workload = DebitCredit::new(set.engine().db_region(), 1);
/// set.run(&mut workload, 50);
/// set.quiesce();
/// // Every node holds every committed byte after a graceful quiesce.
/// assert_eq!(set.received_by(2), set.received_by(1));
/// # Ok::<(), dsnrep_cluster::TopologyError>(())
/// ```
#[derive(Debug)]
pub struct ReplicaSet<T: Tracer + 'static = NullTracer> {
    topology: Topology,
    scheme: Scheme,
    tracer: T,
    /// The head (node 0).
    machine: Machine<T>,
    engine: Box<dyn Engine<T>>,
    /// The head's accounted SAN link to node 1 (and to every further
    /// primary-backup multicast target).
    link: Rc<RefCell<Link>>,
    /// Replica arenas, nodes `1..rf` in order.
    replicas: Vec<Rc<RefCell<Arena>>>,
    /// Node 1's CPU, when it applies a redo ring ([`Scheme::Active`]).
    backup: Option<Rc<RefCell<BackupNode<T>>>>,
    fabric: Fabric,
    /// Nodes `2..rf` of a chain or quorum, indexed by `node_id - 2`.
    downstream: Vec<DownstreamNode>,
    /// Packets confirmed delivered to node 1.
    node1_received: u64,
    /// Commits that could not assemble their acknowledgement set (tail
    /// unreachable, or fewer than W−1 replica acks) and proceeded after a
    /// coordinator timeout.
    degraded_commits: u64,
    /// The read path's per-transaction history; `None` for the pair
    /// facades, which serve no reads and may run millions of
    /// transactions.
    history: Option<ReadHistory>,
    /// Quorum acknowledgement arrivals of the transaction being settled,
    /// reused across transactions.
    acks: Vec<VirtualInstant>,
    /// Quorum read-set rotation cursor.
    read_rotation: u64,
}

impl ReplicaSet {
    /// Builds an RF-node cluster of passive `version` engines per
    /// `topology`. All replicas start as identical copies of the freshly
    /// formatted primary arena.
    pub fn new(
        costs: CostModel,
        version: VersionTag,
        config: &EngineConfig,
        topology: Topology,
    ) -> Self {
        Self::new_traced(costs, version, config, topology, NullTracer)
    }

    /// The paper's two-node pair shipping per `scheme`, keeping no read
    /// history: the set [`PassiveCluster`](crate::PassiveCluster) and
    /// [`ActiveCluster`](crate::ActiveCluster) wrap.
    pub fn pair(costs: CostModel, scheme: Scheme, config: &EngineConfig) -> Self {
        Self::pair_traced(costs, scheme, config, NullTracer)
    }
}

impl<T: Tracer + 'static> ReplicaSet<T> {
    /// As [`ReplicaSet::pair`], reporting to `tracer` (primary =
    /// `TRACK_PRIMARY`, backup = `TRACK_BACKUP`).
    pub fn pair_traced(costs: CostModel, scheme: Scheme, config: &EngineConfig, tracer: T) -> Self {
        let link = Rc::new(RefCell::new(Link::new(&costs)));
        Self::build(costs, scheme, config, Topology::pair(), link, None, tracer).without_history()
    }

    /// As [`ReplicaSet::new`], reporting per-node spans and every SAN
    /// packet to `tracer` (node *i* reports as track *i*): the head port's
    /// packets, and each fabric hop and acknowledgement as a lifecycle of
    /// its own.
    pub fn new_traced(
        costs: CostModel,
        version: VersionTag,
        config: &EngineConfig,
        topology: Topology,
        tracer: T,
    ) -> Self {
        let link = Rc::new(RefCell::new(Link::new(&costs)));
        Self::build(
            costs,
            Scheme::Passive(version),
            config,
            topology,
            link,
            None,
            tracer,
        )
    }

    /// Builds a set whose head ships per `scheme` over `link`. An active
    /// set's backup CPU writes its consumer cursor back over
    /// `reverse_link` (a private link when `None`: the Memory Channel is
    /// full duplex, so cursor traffic does not consume forward bandwidth).
    ///
    /// # Panics
    ///
    /// Panics if `scheme` is active and `topology` is not the two-node
    /// pair.
    pub(crate) fn build(
        costs: CostModel,
        scheme: Scheme,
        config: &EngineConfig,
        topology: Topology,
        link: Rc<RefCell<Link>>,
        reverse_link: Option<Rc<RefCell<Link>>>,
        tracer: T,
    ) -> Self {
        assert!(
            scheme != Scheme::Active || topology == Topology::pair(),
            "active shipping runs on the two-node pair, not {topology}"
        );
        let rf = topology.rf();
        let fanout = matches!(topology.strategy(), ReplicationStrategy::PrimaryBackup);
        let version = scheme.version();
        let arena = Rc::new(RefCell::new(Arena::new(arena_len(version, config))));
        let mut machine = Machine::standalone_traced(
            costs.clone(),
            Rc::clone(&arena),
            tracer.clone(),
            TRACK_PRIMARY,
        );
        // Initial synchronization: every replica starts as an identical
        // copy of the formatted head.
        let copies = |arena: &Rc<RefCell<Arena>>| -> Vec<Rc<RefCell<Arena>>> {
            (1..rf)
                .map(|_| Rc::new(RefCell::new(arena.borrow().clone())))
                .collect()
        };
        let (engine, replicas, backup): (Box<dyn Engine<T>>, _, _) = match scheme {
            Scheme::Passive(version) => {
                let engine = build_engine(version, &mut machine, config);
                (engine, copies(&arena), None)
            }
            Scheme::Active => {
                let inner = ImprovedLogEngine::format(&mut machine, config);
                let replicas = copies(&arena);
                let reverse_link =
                    reverse_link.unwrap_or_else(|| Rc::new(RefCell::new(Link::new(&costs))));
                let (engine, backup) = ActivePrimaryEngine::wire(
                    inner,
                    &costs,
                    &arena,
                    &replicas[0],
                    reverse_link,
                    tracer.clone(),
                );
                (Box::new(engine), replicas, Some(backup))
            }
        };
        // Primary-backup rides the hub's native multicast: ONE TxPort with
        // every replica as a peer. Chain and quorum feed node 1 alone and
        // move packets on over the fabric.
        let mut port = TxPort::new_traced(
            &costs,
            Rc::clone(&link),
            Rc::clone(&replicas[0]),
            tracer.clone(),
            TRACK_PRIMARY,
        );
        if fanout {
            for replica in &replicas[1..] {
                port.add_peer(Rc::clone(replica));
            }
        }
        if !fanout {
            // The head keeps each packet until it is forwarded: a chain's
            // node 1 relays what it holds, and a quorum head's hub fans
            // out what its adapter has serialized.
            let chain = matches!(topology.strategy(), ReplicationStrategy::Chain);
            port.enable_forwarding(if chain {
                ForwardDue::Delivered
            } else {
                ForwardDue::Done
            });
            // The acknowledgement waits ride the 2-safe path: every commit
            // is on node 1 before the chain/quorum ack wait even starts.
            machine.set_durability(Durability::TwoSafe);
        }
        machine.attach_port(port);
        for region in engine.replicated_regions() {
            machine.replicate(region);
        }
        let downstream = if fanout {
            Vec::new()
        } else {
            (2..rf).map(|_| DownstreamNode::default()).collect()
        };
        ReplicaSet {
            topology,
            scheme,
            fabric: Fabric::new(&costs),
            tracer,
            machine,
            engine,
            link,
            replicas,
            backup,
            downstream,
            node1_received: 0,
            degraded_commits: 0,
            history: Some(ReadHistory {
                commit_instants: Vec::new(),
                visibility: vec![Vec::new(); if fanout { 0 } else { usize::from(rf) - 1 }],
            }),
            acks: Vec::new(),
            read_rotation: 0,
        }
    }

    /// Drops the read path's per-transaction history: a set that serves
    /// no reads then keeps no per-transaction state.
    pub(crate) fn without_history(mut self) -> Self {
        self.history = None;
        self
    }

    /// The cluster shape.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The head (primary) engine.
    pub fn engine(&self) -> &dyn Engine<T> {
        self.engine.as_ref()
    }

    /// The database region transactions operate on.
    pub fn db_region(&self) -> Region {
        self.engine.db_region()
    }

    /// The head machine.
    pub fn machine(&self) -> &Machine<T> {
        &self.machine
    }

    /// Mutable access to the head machine (initial load pokes, fault
    /// budgets).
    pub fn machine_mut(&mut self) -> &mut Machine<T> {
        &mut self.machine
    }

    /// Selects 1-safe or 2-safe commits toward node 1. Pairs start
    /// 1-safe, like the paper's measurements; chain and quorum heads start
    /// 2-safe, which their acknowledgement waits build on.
    pub fn set_durability(&mut self, durability: Durability) {
        self.machine.set_durability(durability);
    }

    /// The arena of replica `node` (1-based; node 0 is the head).
    ///
    /// # Panics
    ///
    /// Panics if `node` is 0 or ≥ RF.
    pub fn replica_arena(&self, node: u8) -> &Rc<RefCell<Arena>> {
        assert!(node >= 1 && node < self.topology.rf(), "replica {node}");
        &self.replicas[usize::from(node) - 1]
    }

    /// Node 1's arena: the pair's backup (for oracles and assertions).
    pub fn backup_arena(&self) -> &Rc<RefCell<Arena>> {
        &self.replicas[0]
    }

    /// Every replica's arena, nodes `1..rf` in order.
    pub fn backup_arenas(&self) -> &[Rc<RefCell<Arena>>] {
        &self.replicas
    }

    /// After the initial load (pokes to the primary arena), re-synchronizes
    /// every replica arena. Call before the measured run.
    pub fn resync_backup(&mut self) {
        for replica in &self.replicas {
            *replica.borrow_mut() = self.machine.arena().borrow().clone();
        }
    }

    /// Re-synchronizes the backup **through the SAN**, charging full cost:
    /// every replicated region is streamed in sequential chunks (full-size
    /// packets). This is what bringing a rebooted node back up to date
    /// costs; returns the virtual time it took and the bytes shipped.
    ///
    /// Contrast with [`ReplicaSet::resync_backup`], which models an
    /// out-of-band initial copy at zero cost.
    ///
    /// # Panics
    ///
    /// Panics if an armed fault budget halts the primary.
    pub fn accounted_resync(&mut self) -> (VirtualDuration, u64) {
        let start = self.machine.now();
        let mut shipped = 0u64;
        let mut chunk = vec![0u8; 4096];
        for region in self.engine.replicated_regions() {
            let mut off = 0u64;
            while off < region.len() {
                let n = (region.len() - off).min(chunk.len() as u64) as usize;
                self.machine.read(region.start() + off, &mut chunk[..n]);
                self.machine
                    .write(region.start() + off, &chunk[..n], TrafficClass::Undo)
                    .expect(UNARMED);
                shipped += n as u64;
                off += n as u64;
            }
        }
        self.machine.quiesce().expect(UNARMED);
        (self.machine.now().duration_since(start), shipped)
    }

    /// Committed transactions node 1's CPU has applied from the redo
    /// ring; `None` for passive shipping, whose backup CPU idles.
    pub fn ring_applied_seq(&self) -> Option<u64> {
        self.backup
            .as_ref()
            .map(|backup| backup.borrow().reader.applied_seq())
    }

    /// Execution counters of node 1's CPU (clock, stall attribution,
    /// cache) — the backup-side half of the stall breakdown; `None` for
    /// passive shipping, whose backup CPU idles.
    pub fn backup_stats(&self) -> Option<MachineStats> {
        self.backup
            .as_ref()
            .map(|backup| backup.borrow().machine.stats())
    }

    /// Packets delivered to replica `node` so far. For primary-backup
    /// every backup receives the identical multicast, so this is the
    /// head's emission count for any node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is 0 or ≥ RF.
    pub fn received_by(&self, node: u8) -> u64 {
        assert!(node >= 1 && node < self.topology.rf(), "replica {node}");
        match self.topology.strategy() {
            ReplicationStrategy::PrimaryBackup => self.machine.packets_emitted(),
            _ if node == 1 => self.node1_received,
            _ => self.downstream[usize::from(node) - 2].received,
        }
    }

    /// Commits whose acknowledgement quorum (or tail ack) never arrived;
    /// the head proceeded after a timeout. Nonzero only under partition
    /// faults.
    pub fn degraded_commits(&self) -> u64 {
        self.degraded_commits
    }

    /// Injects an asymmetric partition delay on the directed fabric pair
    /// `from → to`: deliveries arrive `extra` later from now on.
    pub fn partition_delay(&mut self, from: u8, to: u8, extra: VirtualDuration) {
        self.fabric.partition_delay(from, to, extra);
    }

    /// Injects an asymmetric drop fault on the directed fabric pair
    /// `from → to`: after `n` more packets, everything is swallowed.
    pub fn partition_drop_after(&mut self, from: u8, to: u8, n: u64) {
        self.fabric.partition_drop_after(from, to, n);
    }

    /// Aggregate SAN traffic: the head's shipping link plus every
    /// materialized fabric link (forward hops, fan-out, acks).
    pub fn traffic(&self) -> Traffic {
        let mut total = self.head_traffic();
        for (_, link) in self.fabric.pairs() {
            total.merge(link.traffic());
        }
        total
    }

    /// Per-pair traffic on the fabric links, in deterministic pair order.
    /// The head's `0→1` shipping leg is reported by
    /// [`ReplicaSet::head_traffic`], not here.
    pub fn fabric_traffic(&self) -> Vec<((u8, u8), Traffic)> {
        self.fabric
            .pairs()
            .map(|(pair, link)| (pair, link.traffic().clone()))
            .collect()
    }

    /// Traffic on the head's accounted shipping link alone.
    pub fn head_traffic(&self) -> Traffic {
        self.link.borrow().traffic().clone()
    }

    /// Runs one transaction on the head, then settles the strategy's
    /// replication: forwards freshly emitted packets down the chain or
    /// out to the fan-out replicas, and stalls the head on the tail /
    /// quorum acknowledgement.
    ///
    /// # Panics
    ///
    /// Panics on engine errors (sizing bugs), a halt included; the fault
    /// executor calls [`ReplicaSet::try_run_txn`].
    pub fn run_txn(&mut self, workload: &mut dyn Workload<T>) {
        self.try_run_txn(workload)
            .expect("workload transaction failed");
    }

    /// As [`ReplicaSet::run_txn`], passing engine errors up.
    ///
    /// # Errors
    ///
    /// [`TxError::Halted`] when an armed fault budget halts the head; its
    /// replication is not settled then. Any other error is an engine
    /// sizing bug.
    pub fn try_run_txn(&mut self, workload: &mut dyn Workload<T>) -> Result<(), TxError> {
        workload.run_txn(&mut TxCtx::new(&mut self.machine, self.engine.as_mut()))?;
        self.settle_txn();
        if let Some(history) = &mut self.history {
            history.commit_instants.push(self.machine.now());
        }
        Ok(())
    }

    /// Runs `txns` transactions and reports head throughput (inclusive of
    /// acknowledgement stalls).
    pub fn run(&mut self, workload: &mut dyn Workload<T>, txns: u64) -> ThroughputReport {
        let start = self.machine.now();
        for _ in 0..txns {
            self.run_txn(workload);
        }
        ThroughputReport {
            txns,
            elapsed: self.machine.now().duration_since(start),
        }
    }

    /// Post-transaction replication settlement (no-op for primary-backup:
    /// the multicast already delivered inside the accounted path). Records
    /// when each replica held the whole transaction, for the read path's
    /// staleness accounting (nothing for primary-backup, whose reads are
    /// always served by the primary).
    fn settle_txn(&mut self) {
        match self.topology.strategy() {
            ReplicationStrategy::PrimaryBackup => {}
            ReplicationStrategy::Chain => self.settle_chain_txn(),
            ReplicationStrategy::Quorum { write, .. } => self.settle_quorum_txn(write),
        }
    }

    /// Applies every downstream packet delivered by `t`.
    fn apply_downstream(&mut self, t: VirtualInstant) {
        for (node, arena) in self.downstream.iter_mut().zip(&self.replicas[1..]) {
            node.apply_up_to(arena, t);
        }
    }

    /// Forwards every packet of the head's port due by `cut`: down the
    /// chain once node 1 holds it (2-safe commits mean the whole
    /// transaction, mid-transaction crashes mean the delivered prefix), or
    /// out to the quorum once the head's adapter has serialized it.
    /// Returns the per-call forwarding summary.
    fn forward_up_to(&mut self, cut: VirtualInstant) -> ForwardSummary {
        let mut summary = ForwardSummary::default();
        let ReplicaSet {
            topology,
            tracer,
            machine,
            fabric,
            downstream,
            node1_received,
            ..
        } = self;
        let Some(port) = machine.port_mut() else {
            return summary;
        };
        let rf = topology.rf();
        match topology.strategy() {
            ReplicationStrategy::PrimaryBackup => {}
            ReplicationStrategy::Chain => port.forward_up_to(cut, |p| {
                // Node 1 relays: a packet is due once node 1 holds it
                // (its first-hop delivery instant).
                *node1_received += 1;
                summary.packets += 1;
                let class_bytes = p.class_bytes();
                let mut ready = p.delivered;
                let mut alive = true;
                for j in 2..rf {
                    if !alive {
                        break;
                    }
                    match fabric.send(j - 1, j, ready, class_bytes) {
                        Some(t) => {
                            fabric.trace_packet(tracer, u32::from(j - 1), t, p.txn, class_bytes);
                            downstream[usize::from(j) - 2].receive(t.delivered, p);
                            ready = t.delivered;
                        }
                        None => {
                            downstream[usize::from(j) - 2].data_lost = true;
                            alive = false;
                        }
                    }
                }
                summary.tail_reached += u64::from(alive);
            }),
            ReplicationStrategy::Quorum { .. } => port.forward_up_to(cut, |p| {
                // Quorum fan-out leaves the head hub as soon as the
                // adapter finished serializing (store-and-forward): the
                // fan-out copy of an in-flight packet can outlive the
                // sender even when node 1's DMA does not.
                summary.packets += 1;
                if p.delivered <= cut {
                    *node1_received += 1;
                    summary.node1_last = summary.node1_last.max(p.delivered);
                } else {
                    summary.node1_missed += 1;
                }
                let class_bytes = p.class_bytes();
                for (j, node) in (2..rf).zip(downstream.iter_mut()) {
                    match fabric.send(0, j, p.done, class_bytes) {
                        Some(t) => {
                            fabric.trace_packet(tracer, 0, t, p.txn, class_bytes);
                            node.receive(t.delivered, p);
                        }
                        None => node.data_lost = true,
                    }
                }
            }),
        }
        summary
    }

    /// Advances the read history's frontiers past the settled transaction:
    /// node 1 holds it at `node1`; a downstream node holds it at its newest
    /// delivery, unless a drop left its copy permanently holed ([`NEVER`]).
    fn record_visibility(&mut self, node1: VirtualInstant) {
        let Some(history) = &mut self.history else {
            return;
        };
        let (first, rest) = history
            .visibility
            .split_first_mut()
            .expect("a chain or quorum history keeps a column per replica");
        push_frontier(first, node1);
        for (column, node) in rest.iter_mut().zip(&self.downstream) {
            let visible = if node.data_lost {
                NEVER
            } else {
                node.last_delivery
            };
            push_frontier(column, visible);
        }
    }

    fn settle_chain_txn(&mut self) {
        let now = self.machine.now();
        // 2-safe commits mean every packet of the transaction has been
        // delivered to node 1 by now; forward the lot down the chain.
        let summary = self.forward_up_to(now);
        self.apply_downstream(now);
        self.record_visibility(now);
        if summary.packets == 0 {
            return;
        }
        let rf = self.topology.rf();
        if rf == 2 {
            // A two-node chain is the pair: node 1 *is* the tail and the
            // 2-safe wait already covered its acknowledgement.
            return;
        }
        if summary.tail_reached < summary.packets {
            // A hop dropped part of the transaction: the tail will never
            // hold all of it, so its acknowledgement never comes. The
            // head times out and proceeds on node 1's 2-safe copy.
            self.degraded_commits += 1;
            return;
        }
        let tail = rf - 1;
        let tail_has_all = self.downstream[usize::from(tail) - 2].last_delivery;
        match self.fabric.send(tail, 0, tail_has_all, ack_payload()) {
            Some(t) => {
                self.fabric
                    .trace_packet(&self.tracer, u32::from(tail), t, NO_TXN, ack_payload());
                self.machine.stall_until(StallCause::TwoSafe, t.delivered);
            }
            None => self.degraded_commits += 1,
        }
    }

    fn settle_quorum_txn(&mut self, write: u8) {
        let now = self.machine.now();
        let summary = self.forward_up_to(now);
        self.apply_downstream(now);
        // In settlement (as opposed to a crash cut) the 2-safe wait means
        // every packet's node-1 DMA has landed; a transaction with no
        // packets is trivially everywhere.
        let node1 = if summary.node1_missed > 0 {
            NEVER
        } else if summary.packets == 0 {
            now
        } else {
            summary.node1_last
        };
        self.record_visibility(node1);
        if summary.packets == 0 {
            return;
        }
        let rf = self.topology.rf();
        // Collect the acknowledgement arrivals: each replica holding the
        // whole transaction acks from its last delivery instant.
        self.acks.clear();
        if summary.node1_missed == 0 {
            if let Some(t) = self.fabric.send(1, 0, summary.node1_last, ack_payload()) {
                self.fabric
                    .trace_packet(&self.tracer, 1, t, NO_TXN, ack_payload());
                self.acks.push(t.delivered);
            }
        }
        for j in 2..rf {
            let node = &self.downstream[usize::from(j) - 2];
            if node.data_lost {
                continue;
            }
            let ready = node.last_delivery;
            if let Some(t) = self.fabric.send(j, 0, ready, ack_payload()) {
                self.fabric
                    .trace_packet(&self.tracer, u32::from(j), t, NO_TXN, ack_payload());
                self.acks.push(t.delivered);
            }
        }
        self.acks.sort_unstable();
        // The head's own copy is the W-th member of the write quorum.
        let needed = usize::from(write) - 1;
        let wait_to = if self.acks.len() >= needed {
            if needed == 0 {
                return;
            }
            self.acks[needed - 1]
        } else {
            // Quorum unreachable: a coordinator timeout, modeled as
            // exhausting every acknowledgement that did arrive.
            self.degraded_commits += 1;
            match self.acks.last() {
                Some(&last) => last,
                None => return,
            }
        };
        self.machine.stall_until(StallCause::TwoSafe, wait_to);
    }

    fn history(&self) -> &ReadHistory {
        self.history.as_ref().expect(
            "a pair set keeps no read history; build one with ReplicaSet::new to serve reads",
        )
    }

    /// Transactions committed at or before `at` — the coordinator's view,
    /// the yardstick read staleness is measured against.
    ///
    /// # Panics
    ///
    /// Panics on a set that keeps no read history: [`ReplicaSet::pair`]
    /// and the pair facades.
    pub fn committed_at(&self, at: VirtualInstant) -> u64 {
        prefix_at(&self.history().commit_instants, at)
    }

    /// The committed prefix replica `node` (1-based) held at `at`: the
    /// largest `p` such that every transaction `1..=p` was fully delivered
    /// to that copy by `at`. One binary search of the node's frontier
    /// ([`NEVER`] is past every read); it answers any `at`, in any order.
    fn visible_prefix(&self, node: u8, at: VirtualInstant) -> u64 {
        prefix_at(&self.history().visibility[usize::from(node) - 1], at)
    }

    /// Serves one read issued at `at` through the strategy's read path:
    ///
    /// * **Primary-backup** — the primary answers from its own copy; zero
    ///   staleness by construction.
    /// * **Chain** — the tail answers from its local copy. The tail's
    ///   prefix trails the head by the propagation delay down the chain,
    ///   which is exactly the staleness this sample reports.
    /// * **Quorum** — the coordinator consults a rotating read quorum of
    ///   R of the RF nodes over the fabric (request out, record image
    ///   back) and returns the freshest responding prefix; `R + W > RF`
    ///   makes that prefix current whenever all R respond. Partitioned
    ///   members time out silently; if every remote member times out the
    ///   coordinator falls back to its own copy.
    ///
    /// The sample's `staleness` compares the observed prefix against the
    /// coordinator's committed count at `at`. The serving node's
    /// [`Phase::Read`] span and staleness counters go to the tracer.
    ///
    /// # Panics
    ///
    /// Panics on a set that keeps no read history: [`ReplicaSet::pair`]
    /// and the pair facades.
    pub fn serve_read(&mut self, at: VirtualInstant) -> ReadSample {
        let rf = self.topology.rf();
        let service = self.machine.costs().cache_miss;
        let sample = match self.topology.strategy() {
            ReplicationStrategy::PrimaryBackup => {
                let seq = self.committed_at(at);
                ReadSample {
                    at,
                    completed: at + service,
                    node: NodeId::new(0),
                    seq,
                    staleness: 0,
                }
            }
            ReplicationStrategy::Chain => {
                let tail = rf - 1;
                let seq = self.visible_prefix(tail, at);
                ReadSample {
                    at,
                    completed: at + service,
                    node: NodeId::new(tail),
                    seq,
                    staleness: self.committed_at(at).saturating_sub(seq),
                }
            }
            ReplicationStrategy::Quorum { read, .. } => {
                let committed = self.committed_at(at);
                // Rotate the read set over all RF nodes so replica copies
                // actually serve (a head-always set would never observe
                // staleness and never offload the coordinator).
                let rotation = self.read_rotation;
                self.read_rotation = (rotation + 1) % u64::from(rf);
                let mut best: Option<(u64, u8)> = None;
                let mut completed = at;
                for k in 0..u64::from(read) {
                    let m = ((rotation + k) % u64::from(rf)) as u8;
                    let (response_at, prefix) = if m == 0 {
                        (at + service, committed)
                    } else {
                        match self.fabric.read_round_trip(
                            0,
                            m,
                            at,
                            READ_REQUEST_BYTES,
                            READ_RESPONSE_BYTES,
                        ) {
                            // The remote record fetch happens between the
                            // legs; folding it in after keeps the total.
                            Some(t) => (t + service, self.visible_prefix(m, at)),
                            // Partitioned member: no response.
                            None => continue,
                        }
                    };
                    completed = completed.max(response_at);
                    if best.is_none_or(|(p, _)| prefix > p) {
                        best = Some((prefix, m));
                    }
                }
                // Every remote member timed out: the coordinator serves
                // from its own copy after the timeout.
                let (seq, node) = best.unwrap_or((committed, 0));
                if best.is_none() {
                    completed = completed.max(at + service);
                }
                ReadSample {
                    at,
                    completed,
                    node: NodeId::new(node),
                    seq,
                    staleness: committed.saturating_sub(seq),
                }
            }
        };
        if self.tracer.is_enabled() {
            let track = u32::from(sample.node.as_u8());
            self.tracer
                .span(track, Phase::Read, sample.at, sample.completed);
            if sample.staleness > 0 {
                self.tracer
                    .counter_add(track, Metric::StaleReads, sample.completed, 1);
                self.tracer.counter_add(
                    track,
                    Metric::ReadStalenessTxns,
                    sample.completed,
                    sample.staleness,
                );
            }
        }
        sample
    }

    /// Gracefully quiesces the whole set: flushes and delivers the head's
    /// SAN traffic, lets an active backup apply all of it, then drains
    /// every chain hop and fan-out link so all RF−1 replicas converge on
    /// the committed image.
    ///
    /// # Panics
    ///
    /// Panics if an armed fault budget halts the head or the backup.
    pub fn quiesce(&mut self) {
        self.machine.quiesce().expect(UNARMED);
        if let Some(backup) = &self.backup {
            backup.borrow_mut().sync(&mut self.machine).expect(UNARMED);
        }
        self.forward_up_to(VirtualInstant::from_picos(u64::MAX));
        self.apply_downstream(VirtualInstant::from_picos(u64::MAX));
    }

    /// Crashes the head *now* and promotes a successor per the strategy:
    /// the most senior backup (node 1) for primary-backup and chain, the
    /// most up-to-date replica (ties to the most senior) for quorum.
    ///
    /// Packets the head's adapter had fully serialized before the crash
    /// are still delivered (the switch owns them); node 1 additionally
    /// loses in-flight DMAs, exactly like the two-node pair.
    pub fn begin_takeover(self) -> ReplicaTakeover<T> {
        self.take_over(None)
    }

    /// As [`ReplicaSet::begin_takeover`], promoting replica `successor`
    /// (1-based) whatever the strategy would pick: under primary-backup
    /// every backup received the same multicast, so any can take over.
    ///
    /// # Panics
    ///
    /// Panics if `successor` is 0 or ≥ RF.
    pub fn begin_takeover_to(self, successor: u8) -> ReplicaTakeover<T> {
        assert!(
            successor >= 1 && successor < self.topology.rf(),
            "replica {successor}"
        );
        self.take_over(Some(successor))
    }

    fn take_over(mut self, successor: Option<u8>) -> ReplicaTakeover<T> {
        let crashed_at = self.machine.now();
        // Settle the fabric at the crash instant. Survivor hops keep
        // draining after the head is gone: whatever node 1 held
        // propagates on. The crash cut below drops what is not forwarded.
        self.forward_up_to(crashed_at);
        self.apply_downstream(VirtualInstant::from_picos(u64::MAX));
        let successor = successor.unwrap_or_else(|| self.default_successor());
        let index = usize::from(successor) - 1;
        // A primary-backup crash names the multicast target promoted; the
        // head of a chain or quorum feeds node 1 alone.
        let fanout = matches!(self.topology.strategy(), ReplicationStrategy::PrimaryBackup);
        self.machine.trace_event(
            TraceEventKind::PrimaryCrash,
            if fanout { index as u64 } else { 0 },
        );
        self.machine.crash();
        let takeover = match self.backup {
            Some(backup) => {
                // The redo engine holds the only other handle to node 1's
                // CPU; drop it first.
                drop(self.engine);
                let BackupNode { machine, reader } = Rc::try_unwrap(backup)
                    .expect("the engine held the only other handle and was just dropped")
                    .into_inner();
                Takeover::drain(machine, crashed_at, reader)
            }
            None => {
                // A downstream successor first receives what the switch
                // still had in flight to it.
                let at = index
                    .checked_sub(1)
                    .and_then(|d| self.downstream.get(d))
                    .map_or(crashed_at, |node| crashed_at.max(node.last_delivery));
                Takeover::resume(
                    self.scheme,
                    self.machine.costs().clone(),
                    Rc::clone(&self.replicas[index]),
                    self.tracer.clone(),
                    at,
                )
            }
        };
        ReplicaTakeover {
            successor: NodeId::new(successor),
            crashed_at,
            takeover,
        }
    }

    /// The strategy's successor: node 1, or for quorum the replica holding
    /// the most packets (node 1 wins ties, in seniority order).
    fn default_successor(&self) -> u8 {
        let mut best = 1;
        if let ReplicationStrategy::Quorum { .. } = self.topology.strategy() {
            let mut best_count = self.node1_received;
            for (j, node) in (2..).zip(&self.downstream) {
                if node.received > best_count {
                    best = j;
                    best_count = node.received;
                }
            }
        }
        best
    }
}

/// The directed node pairs `topology` moves packets over (and so the
/// pairs a partition fault can meaningfully target): none for
/// primary-backup (the hub multicast has no per-pair legs), the forward
/// hops plus the tail→head ack link for chain, and the head→replica
/// fan-out plus every replica→head ack link for quorum.
pub fn modeled_pairs(topology: Topology) -> Vec<(u8, u8)> {
    let rf = topology.rf();
    match topology.strategy() {
        ReplicationStrategy::PrimaryBackup => Vec::new(),
        ReplicationStrategy::Chain => {
            let mut pairs: Vec<(u8, u8)> = (2..rf).map(|j| (j - 1, j)).collect();
            pairs.push((rf - 1, 0));
            pairs
        }
        ReplicationStrategy::Quorum { .. } => {
            let mut pairs: Vec<(u8, u8)> = (2..rf).map(|j| (0, j)).collect();
            pairs.extend((1..rf).map(|j| (j, 0)));
            pairs
        }
    }
}

/// Appends the next transaction to a read frontier: the later of when the
/// copy held it whole and the previous entry, so a column never falls and
/// [`NEVER`] holds from a partition hole on.
fn push_frontier(column: &mut Vec<VirtualInstant>, visible: VirtualInstant) {
    column.push(column.last().map_or(visible, |&last| last.max(visible)));
}

/// How many entries of a nondecreasing column are at or before `at`.
fn prefix_at(column: &[VirtualInstant], at: VirtualInstant) -> u64 {
    column.partition_point(|&t| t <= at) as u64
}

/// What one [`ReplicaSet::forward_up_to`] call moved.
#[derive(Clone, Copy, Debug, Default)]
struct ForwardSummary {
    /// Packets forwarded (chain) or fanned out (quorum) by this call.
    packets: u64,
    /// Chain: packets that made it all the way to the tail.
    tail_reached: u64,
    /// Quorum: newest node-1 delivery instant among this call's packets.
    node1_last: VirtualInstant,
    /// Quorum: packets whose node-1 DMA was past the cut (crash case).
    node1_missed: u64,
}

#[cfg(test)]
mod tests {
    use dsnrep_simcore::SplitMix64;
    use proptest::prelude::*;

    use super::*;

    /// How many leading transactions a copy held by `at`, given when it
    /// held each one whole: one compare per transaction.
    fn naive_prefix(visible: &[VirtualInstant], at: VirtualInstant) -> u64 {
        visible.iter().take_while(|&&t| t <= at).count() as u64
    }

    /// Instants from a narrow range, so a sequence repeats and falls, and
    /// the partition-hole sentinel anywhere.
    fn visibility() -> impl Strategy<Value = VirtualInstant> {
        prop_oneof![
            6 => (0u64..40).prop_map(VirtualInstant::from_picos),
            1 => Just(NEVER),
        ]
    }

    proptest! {
        #[test]
        fn the_read_frontier_agrees_with_the_naive_scan(
            visible in prop::collection::vec(visibility(), 0..48),
            seed in any::<u64>(),
        ) {
            let mut column = Vec::new();
            for &t in &visible {
                push_frontier(&mut column, t);
            }
            prop_assert_eq!(column.len(), visible.len());
            let mut queries = vec![
                VirtualInstant::EPOCH,
                VirtualInstant::from_picos(u64::MAX) - VirtualDuration::from_millis(1),
            ];
            for t in visible.iter().map(|t| t.as_picos()) {
                let around = [t.checked_sub(1), Some(t), t.checked_add(1)];
                queries.extend(around.into_iter().flatten().map(VirtualInstant::from_picos));
            }
            // A read answers any instant in any order.
            let mut rng = SplitMix64::new(seed);
            for i in (1..queries.len()).rev() {
                queries.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            for at in queries {
                prop_assert_eq!(prefix_at(&column, at), naive_prefix(&visible, at), "at {}", at);
            }
        }
    }
}

//! The paper's two-node clusters, as facades over a pair [`ReplicaSet`].
//!
//! [`PassiveCluster`] and [`ActiveCluster`] are the RF=2 primary-backup
//! set under [`Scheme::Passive`] and [`Scheme::Active`]; they dereference
//! to it, so every set method (`run`, `run_txn`, `engine`, `machine`,
//! `traffic`, `quiesce`, ...) runs the one driver. They keep no read
//! history, so a pair's host memory does not grow with its transaction
//! count, and they add only the calls whose names or signatures differ
//! from the set's.

use std::ops::{Deref, DerefMut};

use dsnrep_core::{EngineConfig, VersionTag};
use dsnrep_obs::{NullTracer, Tracer};
use dsnrep_simcore::{Addr, CostModel};

use crate::replica_set::{ReplicaSet, Scheme};
use crate::takeover::{ActiveTakeover, Failover, Takeover};

macro_rules! pair_facade {
    ($name:ident) => {
        impl<T: Tracer + 'static> Deref for $name<T> {
            type Target = ReplicaSet<T>;

            fn deref(&self) -> &ReplicaSet<T> {
                &self.set
            }
        }

        impl<T: Tracer + 'static> DerefMut for $name<T> {
            fn deref_mut(&mut self) -> &mut ReplicaSet<T> {
                &mut self.set
            }
        }
    };
}

/// A two-node cluster with a passive backup (paper §3 and §5): the
/// backup's CPU is idle, and every byte travels by write doubling on the
/// primary. Which regions are doubled depends on the engine version
/// ([`Engine::replicated_regions`](dsnrep_core::Engine::replicated_regions)):
/// Version 0 maps *everything* (the straightforward transparent port of
/// §3); Versions 1–3 map the per-version minimum (§5.1). On a primary
/// crash the backup takes over and runs the version's recovery
/// procedure.
///
/// # Examples
///
/// ```
/// use dsnrep_core::{EngineConfig, VersionTag};
/// use dsnrep_repl::PassiveCluster;
/// use dsnrep_simcore::CostModel;
/// use dsnrep_workloads::{DebitCredit, Workload};
///
/// let config = EngineConfig::for_db(1 << 20);
/// let mut cluster = PassiveCluster::new(
///     CostModel::alpha_21164a(), VersionTag::ImprovedLog, &config);
/// let mut workload = DebitCredit::new(cluster.engine().db_region(), 1);
/// let report = cluster.run(&mut workload, 100);
/// assert_eq!(report.txns, 100);
/// assert!(cluster.traffic().total_bytes() > 0);
/// ```
#[derive(Debug)]
pub struct PassiveCluster<T: Tracer + 'static = NullTracer> {
    set: ReplicaSet<T>,
}

pair_facade!(PassiveCluster);

impl PassiveCluster {
    /// Builds a primary with a formatted arena, a write-through link, and a
    /// backup arena initially identical to the primary's.
    pub fn new(costs: CostModel, version: VersionTag, config: &EngineConfig) -> Self {
        Self::new_traced(costs, version, config, NullTracer)
    }
}

impl<T: Tracer + 'static> PassiveCluster<T> {
    /// As [`PassiveCluster::new`], reporting spans, events and packets to
    /// `tracer` (primary = `TRACK_PRIMARY`, backup = `TRACK_BACKUP`).
    pub fn new_traced(
        costs: CostModel,
        version: VersionTag,
        config: &EngineConfig,
        tracer: T,
    ) -> Self {
        PassiveCluster {
            set: ReplicaSet::pair_traced(costs, Scheme::Passive(version), config, tracer),
        }
    }

    /// Crashes the primary *now* (in-flight packets past the crash instant
    /// are lost) and fails over to the backup, running the version's
    /// takeover procedure.
    pub fn crash_primary(self) -> Failover<T> {
        self.begin_takeover(0).recover()
    }

    /// Crashes the primary and hands back the promoted-but-unrecovered
    /// backup at `index` (0: the pair's one backup) as a [`Takeover`].
    /// Fault campaigns use the split to arm mid-recovery faults on the
    /// backup before calling [`Takeover::recover`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn begin_takeover(self, index: usize) -> Takeover<T> {
        let node = u8::try_from(index + 1).expect("backup index out of range");
        self.set.begin_takeover_to(node).takeover
    }
}

/// A two-node cluster with an active backup (paper §6): the primary ships
/// a redo ring that the backup's CPU applies (see
/// [`Scheme::Active`]).
///
/// # Examples
///
/// ```
/// use dsnrep_core::EngineConfig;
/// use dsnrep_repl::ActiveCluster;
/// use dsnrep_simcore::CostModel;
/// use dsnrep_workloads::DebitCredit;
///
/// let config = EngineConfig::for_db(1 << 20);
/// let mut cluster = ActiveCluster::new(CostModel::alpha_21164a(), &config);
/// let mut workload = DebitCredit::new(cluster.db_region(), 1);
/// cluster.run(&mut workload, 200);
/// cluster.quiesce();
/// assert_eq!(cluster.backup_applied_seq(), 200);
/// ```
#[derive(Debug)]
pub struct ActiveCluster<T: Tracer + 'static = NullTracer> {
    set: ReplicaSet<T>,
}

pair_facade!(ActiveCluster);

impl ActiveCluster {
    /// Builds an active-backup cluster: primary with a Version 3 engine
    /// and redo writer, backup with a polling reader, one SAN link each
    /// way.
    pub fn new(costs: CostModel, config: &EngineConfig) -> Self {
        Self::new_traced(costs, config, NullTracer)
    }
}

impl<T: Tracer + 'static> ActiveCluster<T> {
    /// As [`ActiveCluster::new`], reporting spans, events and packets to
    /// `tracer` (primary = `TRACK_PRIMARY`, backup = `TRACK_BACKUP`).
    pub fn new_traced(costs: CostModel, config: &EngineConfig, tracer: T) -> Self {
        ActiveCluster {
            set: ReplicaSet::pair_traced(costs, Scheme::Active, config, tracer),
        }
    }

    /// Committed transactions the backup has fully applied.
    pub fn backup_applied_seq(&self) -> u64 {
        self.set
            .ring_applied_seq()
            .expect("an active pair applies a redo ring")
    }

    /// Reads from the **backup's** database copy: a consistent snapshot at
    /// [`ActiveCluster::backup_applied_seq`] transaction boundaries. This is
    /// the "use the backup to execute transactions itself" direction the
    /// paper's introduction sketches — here limited to stale reads, which
    /// need no concurrency control.
    pub fn backup_read(&self, base: Addr, buf: &mut [u8]) {
        self.set.backup_arena().borrow().read_into(base, buf);
    }

    /// Crashes the primary *now* and fails over to the backup: the backup
    /// applies whatever complete publications were delivered before the
    /// crash, stamps its sequence roots, and comes up as a standalone
    /// Version 3 engine.
    ///
    /// # Errors
    ///
    /// See [`ActiveTakeover::recover`].
    pub fn crash_primary(self) -> Result<Failover<T>, dsnrep_rio::LayoutError> {
        self.begin_takeover().recover()
    }

    /// Crashes the primary and hands back the promoted-but-unrecovered
    /// backup as an [`ActiveTakeover`]. Fault campaigns use the split to
    /// arm mid-recovery faults before calling [`ActiveTakeover::recover`].
    pub fn begin_takeover(self) -> ActiveTakeover<T> {
        ActiveTakeover(self.set.begin_takeover().takeover)
    }
}

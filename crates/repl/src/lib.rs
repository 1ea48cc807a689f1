//! Primary-backup replication: one driver, and the paper's pairs as facades.
//!
//! This crate wires the engine versions of `dsnrep-core` to the Memory
//! Channel model of `dsnrep-mcsim` through one driver, [`ReplicaSet`]: a
//! head node shipping to RF − 1 replicas. Its [`Scheme`] picks what the
//! head ships to node 1 — write-through doubling with an idle backup CPU
//! (the passive backup, paper §3 and §5) or a redo ring that the backup
//! CPU applies (the active backup, §6) — and its `Topology` picks the
//! strategy that carries the rest: primary-backup fan-out, chain, or R/W
//! quorum (see `dsnrep-cluster`). Every driver crashes into the one
//! [`Takeover`], whose step is the version's recovery procedure or the
//! ring drain.
//!
//! * [`PassiveCluster`] and [`ActiveCluster`] — the paper's two-node
//!   pairs, as facades over a pair set that keeps no read history.
//! * [`SmpExperiment`] — N independent pair sets on one SMP sharing one
//!   SAN link (paper §8, Figures 2 and 3).
//!
//! # Examples
//!
//! Failing over a passive cluster mid-stream:
//!
//! ```
//! use dsnrep_core::{EngineConfig, VersionTag};
//! use dsnrep_repl::PassiveCluster;
//! use dsnrep_simcore::CostModel;
//! use dsnrep_workloads::DebitCredit;
//!
//! let config = EngineConfig::for_db(1 << 20);
//! let mut cluster = PassiveCluster::new(
//!     CostModel::alpha_21164a(), VersionTag::ImprovedLog, &config);
//! let mut workload = DebitCredit::new(cluster.engine().db_region(), 1);
//! cluster.run(&mut workload, 50);
//!
//! let failover = cluster.crash_primary();
//! // 1-safe: the backup has every commit except the in-flight tail (the
//! // link latency plus the posted-write backlog, ~10 us of transactions).
//! let recovered = failover.report.committed_seq;
//! assert!(recovered >= 40 && recovered <= 50, "recovered {recovered}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod active;
mod pair;
mod replica_set;
mod smp;
mod takeover;

pub use pair::{ActiveCluster, PassiveCluster};
pub use replica_set::{modeled_pairs, ReadSample, ReplicaSet, ReplicaTakeover, Scheme};
pub use smp::{SmpExperiment, SmpReport};
pub use takeover::{ActiveTakeover, Failover, Takeover};

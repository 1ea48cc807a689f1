//! What a fault plan runs against: driver x version x workload x length.

use std::fmt;

use dsnrep_cluster::{ReplicationStrategy, Topology, TopologyError};
use dsnrep_core::VersionTag;
use dsnrep_workloads::WorkloadKind;

/// Which replication driver hosts the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Driver {
    /// A single node, no replication: crash and recover in place.
    Standalone,
    /// The paper's pair with a passive backup
    /// ([`Scheme::Passive`](dsnrep_repl::Scheme::Passive)): write
    /// doubling, idle backup CPU.
    Passive,
    /// The pair with an active backup
    /// ([`Scheme::Active`](dsnrep_repl::Scheme::Active)): redo shipping,
    /// polling backup CPU (always Version 3 on the primary).
    Active,
    /// [`ReplicaSet`](dsnrep_repl::ReplicaSet) running chain replication
    /// at the scenario's RF.
    Chain,
    /// [`ReplicaSet`](dsnrep_repl::ReplicaSet) running R/W quorum
    /// replication at the scenario's RF.
    Quorum,
}

impl Driver {
    /// Short lowercase name used in campaign labels.
    pub fn label(self) -> &'static str {
        match self {
            Driver::Standalone => "standalone",
            Driver::Passive => "passive",
            Driver::Active => "active",
            Driver::Chain => "chain",
            Driver::Quorum => "quorum",
        }
    }
}

impl fmt::Display for Driver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One concrete configuration a [`FaultPlan`](crate::FaultPlan) executes
/// against. Every field participates in determinism: the same scenario
/// plus the same plan replays bit-identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// Replication driver.
    pub driver: Driver,
    /// Engine version (ignored by [`Driver::Active`], which is always
    /// Version 3 on the primary).
    pub version: VersionTag,
    /// Benchmark transaction stream.
    pub workload: WorkloadKind,
    /// Transactions the primary attempts.
    pub txns: u64,
    /// Database region length in bytes.
    pub db_len: u64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Run commits 2-safe: every commit waits until the backup holds it,
    /// so a passive or active failover may lose nothing. Off by default,
    /// like the paper's measurements. Chain and quorum heads always
    /// commit 2-safe toward node 1, and the standalone driver has no
    /// backup, so the flag changes nothing for them.
    pub two_safe: bool,
    /// Replication factor (node count). 2 for the classic pair drivers;
    /// ≥ 2 for [`Driver::Chain`] and [`Driver::Quorum`].
    pub rf: u8,
    /// Read-quorum size ([`Driver::Quorum`] only, 0 otherwise).
    pub quorum_read: u8,
    /// Write-quorum size ([`Driver::Quorum`] only, 0 otherwise).
    pub quorum_write: u8,
}

impl Scenario {
    /// A small standalone scenario (the exhaustive-sweep default). The
    /// database is the smallest each benchmark accepts: 64 KiB for
    /// Debit-Credit, one warehouse (1 MiB) for Order-Entry.
    pub fn standalone(version: VersionTag, workload: WorkloadKind) -> Self {
        let db_len = match workload {
            WorkloadKind::DebitCredit => 64 << 10,
            WorkloadKind::OrderEntry => 1 << 20,
        };
        Scenario {
            driver: Driver::Standalone,
            version,
            workload,
            txns: 4,
            db_len,
            seed: 0xD5,
            two_safe: false,
            rf: 2,
            quorum_read: 0,
            quorum_write: 0,
        }
    }

    /// A small passive-cluster scenario.
    pub fn passive(version: VersionTag, workload: WorkloadKind) -> Self {
        Scenario {
            driver: Driver::Passive,
            ..Scenario::standalone(version, workload)
        }
    }

    /// A small active-cluster scenario (primary is always Version 3).
    pub fn active(workload: WorkloadKind) -> Self {
        Scenario {
            driver: Driver::Active,
            ..Scenario::standalone(VersionTag::ImprovedLog, workload)
        }
    }

    /// A small chain-replication scenario at replication factor `rf`.
    pub fn chain(version: VersionTag, workload: WorkloadKind, rf: u8) -> Self {
        Scenario {
            driver: Driver::Chain,
            rf,
            ..Scenario::standalone(version, workload)
        }
    }

    /// A small R/W-quorum scenario at replication factor `rf`.
    pub fn quorum(
        version: VersionTag,
        workload: WorkloadKind,
        rf: u8,
        read: u8,
        write: u8,
    ) -> Self {
        Scenario {
            driver: Driver::Quorum,
            rf,
            quorum_read: read,
            quorum_write: write,
            ..Scenario::standalone(version, workload)
        }
    }

    /// The `simfault` campaign matrix, Debit-Credit scenarios running
    /// `txns` transactions: passive Versions 0-3 on both workloads, the
    /// active driver 1-safe and 2-safe on both, and at RF = 3 the chain
    /// on both, a majority quorum (R = W = 2) and a write-all quorum
    /// (W = 3), whose commits degrade visibly whenever a replica link is
    /// severed. Order-Entry transactions touch an order of magnitude more
    /// records than Debit-Credit's four fixed fields, so its scenarios
    /// run half as many, which keeps an exhaustive sweep (quadratic in
    /// run length) affordable.
    pub fn matrix(txns: u64) -> Vec<Scenario> {
        let oe_txns = (txns / 2).max(1);
        let (dc, oe) = (WorkloadKind::DebitCredit, WorkloadKind::OrderEntry);
        let mut scenarios = Vec::new();
        for version in VersionTag::ALL {
            scenarios.push(Scenario::passive(version, dc).with_txns(txns));
            scenarios.push(Scenario::passive(version, oe).with_txns(oe_txns));
        }
        for (workload, t) in [(dc, txns), (oe, oe_txns)] {
            scenarios.push(Scenario::active(workload).with_txns(t));
            scenarios.push(Scenario::active(workload).with_txns(t).two_safe());
        }
        let v3 = VersionTag::ImprovedLog;
        scenarios.push(Scenario::chain(v3, dc, 3).with_txns(txns));
        scenarios.push(Scenario::chain(v3, oe, 3).with_txns(oe_txns));
        scenarios.push(Scenario::quorum(v3, dc, 3, 2, 2).with_txns(txns));
        scenarios.push(Scenario::quorum(v3, dc, 3, 1, 3).with_txns(txns));
        scenarios
    }

    /// The N-node [`Topology`] this scenario runs, when its driver is a
    /// [`ReplicaSet`](dsnrep_repl::ReplicaSet) one.
    ///
    /// # Errors
    ///
    /// Returns the [`TopologyError`] for an invalid RF or quorum sizes.
    pub fn topology(&self) -> Option<Result<Topology, TopologyError>> {
        match self.driver {
            Driver::Chain => Some(Topology::new(self.rf, ReplicationStrategy::Chain)),
            Driver::Quorum => Some(Topology::new(
                self.rf,
                ReplicationStrategy::Quorum {
                    read: self.quorum_read,
                    write: self.quorum_write,
                },
            )),
            _ => None,
        }
    }

    /// Overrides the transaction count.
    pub fn with_txns(mut self, txns: u64) -> Self {
        self.txns = txns;
        self
    }

    /// Overrides the workload seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Commits 2-safe (meaningful for the passive and active drivers;
    /// see [`Scenario::two_safe`](Scenario#structfield.two_safe)).
    pub fn two_safe(mut self) -> Self {
        self.two_safe = true;
        self
    }

    /// The version index (0-3) used in labels.
    fn version_index(&self) -> usize {
        VersionTag::ALL
            .iter()
            .position(|v| *v == self.version)
            .expect("VersionTag::ALL is exhaustive")
    }

    /// A stable, filesystem- and `simdiff`-safe label:
    /// `passive-v1-debit-credit`, `chain-v3-debit-credit-rf3`,
    /// `quorum-v3-debit-credit-rf3-r2w2`. No dots (the flattened metric
    /// paths in `faultcov.json` use dots as separators), and the classic
    /// pair drivers keep their pre-RF labels byte-identical.
    pub fn label(&self) -> String {
        let workload = match self.workload {
            WorkloadKind::DebitCredit => "debit-credit",
            WorkloadKind::OrderEntry => "order-entry",
        };
        let safety = if self.two_safe { "-2safe" } else { "" };
        let shape = match self.driver {
            Driver::Chain => format!("-rf{}", self.rf),
            Driver::Quorum => format!("-rf{}-r{}w{}", self.rf, self.quorum_read, self.quorum_write),
            _ => String::new(),
        };
        format!(
            "{}-v{}-{}{}{}",
            self.driver.label(),
            self.version_index(),
            workload,
            safety,
            shape
        )
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} txns, {} KiB db, seed {})",
            self.label(),
            self.txns,
            self.db_len >> 10,
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_dot_free() {
        let s = Scenario::passive(VersionTag::MirrorCopy, WorkloadKind::DebitCredit);
        assert_eq!(s.label(), "passive-v1-debit-credit");
        let a = Scenario::active(WorkloadKind::OrderEntry);
        assert_eq!(a.label(), "active-v3-order-entry");
        assert!(!a.label().contains('.'));
        let mut two = a;
        two.two_safe = true;
        assert_eq!(two.label(), "active-v3-order-entry-2safe");
    }

    #[test]
    fn n_node_labels_carry_the_shape() {
        let c = Scenario::chain(VersionTag::ImprovedLog, WorkloadKind::DebitCredit, 3);
        assert_eq!(c.label(), "chain-v3-debit-credit-rf3");
        let q = Scenario::quorum(VersionTag::ImprovedLog, WorkloadKind::DebitCredit, 3, 2, 2);
        assert_eq!(q.label(), "quorum-v3-debit-credit-rf3-r2w2");
        assert!(c.topology().unwrap().is_ok());
        assert!(q.topology().unwrap().is_ok());
        // Non-intersecting quorums are rejected by the topology layer.
        let bad = Scenario::quorum(VersionTag::ImprovedLog, WorkloadKind::DebitCredit, 3, 1, 1);
        assert!(bad.topology().unwrap().is_err());
    }
}

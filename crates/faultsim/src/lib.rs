//! Deterministic fault-injection campaigns over the simulated cluster.
//!
//! The paper's availability argument rests on recovery being correct at
//! *every* crash point, not just the handful a hand-written test picks.
//! This crate turns the injection hooks threaded through the stack —
//! store budgets on the simulated processor ([`Machine`]), packet
//! budgets on the SAN adapter (`TxPort`), arena write budgets on
//! recoverable memory ([`Arena`]), heartbeat distortion in the failure
//! detector — into a small language and an explorer:
//!
//! * [`FaultPlan`] — an ordered crash schedule with a stable text form
//!   (`"crash primary @ packet=7; crash backup @ recovery-write=3"`).
//! * [`execute`] — replays a plan against a [`Scenario`] (driver x
//!   engine version x workload), bit-deterministically, and checks the
//!   outcome against the shadow oracle ([`Reference`]) and the recovery
//!   invariants.
//! * [`exhaustive_single_fault`] / [`random_campaign`] — sweep every
//!   single-fault point of a small run, or explore seeded random
//!   multi-fault schedules of a large one.
//!   Every counterexample a campaign finds is shrunk to a minimal plan
//!   and printed as a copy-pasteable regression test.
//!
//! # Examples
//!
//! Replaying one plan:
//!
//! ```
//! use dsnrep_core::VersionTag;
//! use dsnrep_faultsim::{execute, FaultPlan, Scenario};
//! use dsnrep_workloads::WorkloadKind;
//!
//! let scenario = Scenario::passive(VersionTag::ImprovedLog, WorkloadKind::DebitCredit);
//! let plan: FaultPlan = "crash primary @ txn=2".parse().unwrap();
//! let outcome = execute(&scenario, &plan).unwrap();
//! assert!(outcome.violation.is_none());
//! assert!(outcome.recovered <= 3);
//! ```
//!
//! Sweeping every single-fault point:
//!
//! ```no_run
//! use dsnrep_core::VersionTag;
//! use dsnrep_faultsim::{exhaustive_single_fault, Scenario};
//! use dsnrep_workloads::WorkloadKind;
//!
//! let scenario = Scenario::passive(VersionTag::MirrorDiff, WorkloadKind::DebitCredit);
//! let campaign = exhaustive_single_fault(&scenario, None).unwrap();
//! assert!(campaign.clean(), "{:#?}", campaign.counterexamples);
//! ```
//!
//! [`Machine`]: dsnrep_core::Machine
//! [`Arena`]: dsnrep_rio::Arena

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod exec;
mod explore;
mod oracle;
mod plan;
mod scenario;
mod shrink;

pub use exec::{execute, execute_against, Mutation, Outcome, Violation};
pub use explore::{
    exhaustive_single_fault, partition_campaign, probe, random_campaign, Campaign, Counterexample,
    Probe,
};
pub use oracle::Reference;
pub use plan::{FaultEvent, FaultPlan, FaultSite, PlanError};
pub use scenario::{Driver, Scenario};

//! The FaultPlan description language.
//!
//! A [`FaultPlan`] is an ordered list of [`FaultEvent`]s with a stable,
//! copy-pasteable text form. The grammar is line-oriented prose, one
//! event per `;`-separated clause:
//!
//! ```text
//! crash primary @ store=120
//! crash primary @ packet=7
//! crash primary @ txn=3
//! crash backup @ recovery-write=12
//! delay heartbeats=40000000ps
//! drop heartbeats after=10
//! partition 1->2 delay=40000ps
//! partition 1->2 drop after=3
//! ```
//!
//! `FromStr` and `Display` round-trip exactly: a plan printed by the
//! shrinker parses back to the same plan, which is what makes a shrunk
//! counterexample a one-line regression test.

use std::fmt;
use std::str::FromStr;

/// Where the primary halts, counted from the start of the workload run.
///
/// All sites are *boundary counters*: `Store(n)` means the primary has
/// executed exactly `n` accounted stores when it halts (the `n`-th store
/// never reaches recoverable memory), `Packet(n)` means exactly `n` SAN
/// packets left the adapter, `Txn(n)` means the crash lands on the quiet
/// boundary after the `n`-th committed transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// Halt before the (n+1)-th accounted store executes.
    Store(u64),
    /// Halt before the (n+1)-th SAN packet reaches the link.
    Packet(u64),
    /// Halt on the boundary after `n` committed transactions.
    Txn(u64),
}

/// One injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultEvent {
    /// Crash the primary at a site.
    CrashPrimary(FaultSite),
    /// Crash the promoted backup after `n` arena writes of its recovery
    /// procedure (a double fault: the takeover itself dies mid-flight).
    /// Multiple events stack: the k-th one arms the k-th recovery attempt.
    CrashBackupRecoveryWrite(u64),
    /// Delay every heartbeat by this many picoseconds (congested SAN).
    DelayHeartbeats(u64),
    /// Drop every heartbeat after the first `n` emissions (a wedged
    /// primary that stops beating before it stops serving).
    DropHeartbeatsAfter(u64),
    /// Delay every delivery on one directed fabric pair by this many
    /// picoseconds (an asymmetric, congested inter-node path). Only
    /// meaningful for N-node drivers whose strategy moves packets over
    /// that pair.
    PartitionDelay {
        /// Sending node.
        from: u8,
        /// Receiving node.
        to: u8,
        /// Extra delivery delay, picoseconds.
        ps: u64,
    },
    /// Swallow every packet on one directed fabric pair after the first
    /// `n` (a link that silently dies mid-run; the sender cannot tell).
    PartitionDropAfter {
        /// Sending node.
        from: u8,
        /// Receiving node.
        to: u8,
        /// Packets allowed through before the drop starts.
        n: u64,
    },
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEvent::CrashPrimary(FaultSite::Store(n)) => {
                write!(f, "crash primary @ store={n}")
            }
            FaultEvent::CrashPrimary(FaultSite::Packet(n)) => {
                write!(f, "crash primary @ packet={n}")
            }
            FaultEvent::CrashPrimary(FaultSite::Txn(n)) => write!(f, "crash primary @ txn={n}"),
            FaultEvent::CrashBackupRecoveryWrite(n) => {
                write!(f, "crash backup @ recovery-write={n}")
            }
            FaultEvent::DelayHeartbeats(ps) => write!(f, "delay heartbeats={ps}ps"),
            FaultEvent::DropHeartbeatsAfter(n) => write!(f, "drop heartbeats after={n}"),
            FaultEvent::PartitionDelay { from, to, ps } => {
                write!(f, "partition {from}->{to} delay={ps}ps")
            }
            FaultEvent::PartitionDropAfter { from, to, n } => {
                write!(f, "partition {from}->{to} drop after={n}")
            }
        }
    }
}

/// A parse or validation failure, with the offending clause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanError(String);

impl PlanError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        PlanError(msg.into())
    }

    /// The human-readable reason.
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for PlanError {}

fn parse_u64(clause: &str, field: &str, text: &str) -> Result<u64, PlanError> {
    text.trim().parse::<u64>().map_err(|_| {
        PlanError::new(format!(
            "fault plan clause `{clause}`: bad {field} `{text}`"
        ))
    })
}

impl FromStr for FaultEvent {
    type Err = PlanError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let clause = s.trim();
        if let Some(rest) = clause.strip_prefix("crash primary @") {
            let rest = rest.trim();
            let (key, value) = rest.split_once('=').ok_or_else(|| {
                PlanError::new(format!("fault plan clause `{clause}`: expected site=<n>"))
            })?;
            let n = parse_u64(clause, "counter", value)?;
            return match key.trim() {
                "store" => Ok(FaultEvent::CrashPrimary(FaultSite::Store(n))),
                "packet" => Ok(FaultEvent::CrashPrimary(FaultSite::Packet(n))),
                "txn" => Ok(FaultEvent::CrashPrimary(FaultSite::Txn(n))),
                other => Err(PlanError::new(format!(
                    "fault plan clause `{clause}`: unknown crash site `{other}`"
                ))),
            };
        }
        if let Some(rest) = clause.strip_prefix("crash backup @") {
            let rest = rest.trim();
            let value = rest.strip_prefix("recovery-write=").ok_or_else(|| {
                PlanError::new(format!(
                    "fault plan clause `{clause}`: expected recovery-write=<n>"
                ))
            })?;
            return Ok(FaultEvent::CrashBackupRecoveryWrite(parse_u64(
                clause, "counter", value,
            )?));
        }
        if let Some(rest) = clause.strip_prefix("delay heartbeats=") {
            let value = rest.trim().strip_suffix("ps").ok_or_else(|| {
                PlanError::new(format!(
                    "fault plan clause `{clause}`: delay needs a `ps` suffix"
                ))
            })?;
            return Ok(FaultEvent::DelayHeartbeats(parse_u64(
                clause, "duration", value,
            )?));
        }
        if let Some(rest) = clause.strip_prefix("drop heartbeats after=") {
            return Ok(FaultEvent::DropHeartbeatsAfter(parse_u64(
                clause, "counter", rest,
            )?));
        }
        if let Some(rest) = clause.strip_prefix("partition ") {
            let (pair, effect) = rest.trim().split_once(' ').ok_or_else(|| {
                PlanError::new(format!(
                    "fault plan clause `{clause}`: expected `partition <from>-><to> <effect>`"
                ))
            })?;
            let (from, to) = pair.split_once("->").ok_or_else(|| {
                PlanError::new(format!(
                    "fault plan clause `{clause}`: pair must be `<from>-><to>`"
                ))
            })?;
            let from = u8::try_from(parse_u64(clause, "node", from)?).map_err(|_| {
                PlanError::new(format!("fault plan clause `{clause}`: node out of range"))
            })?;
            let to = u8::try_from(parse_u64(clause, "node", to)?).map_err(|_| {
                PlanError::new(format!("fault plan clause `{clause}`: node out of range"))
            })?;
            let effect = effect.trim();
            if let Some(value) = effect.strip_prefix("delay=") {
                let value = value.trim().strip_suffix("ps").ok_or_else(|| {
                    PlanError::new(format!(
                        "fault plan clause `{clause}`: delay needs a `ps` suffix"
                    ))
                })?;
                let ps = parse_u64(clause, "duration", value)?;
                return Ok(FaultEvent::PartitionDelay { from, to, ps });
            }
            if let Some(value) = effect.strip_prefix("drop after=") {
                let n = parse_u64(clause, "counter", value)?;
                return Ok(FaultEvent::PartitionDropAfter { from, to, n });
            }
            return Err(PlanError::new(format!(
                "fault plan clause `{clause}`: unknown partition effect `{effect}`"
            )));
        }
        Err(PlanError::new(format!(
            "fault plan clause `{clause}`: unrecognized event"
        )))
    }
}

/// An ordered fault schedule with a stable text form.
///
/// # Examples
///
/// ```
/// use dsnrep_faultsim::FaultPlan;
///
/// let plan: FaultPlan = "crash primary @ packet=7; crash backup @ recovery-write=3"
///     .parse()
///     .unwrap();
/// assert_eq!(plan.events().len(), 2);
/// assert_eq!(plan.to_string().parse::<FaultPlan>().unwrap(), plan);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan (a fault-free run).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan from an event list (order is preserved and meaningful for
    /// stacked recovery-write crashes).
    pub fn new(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events }
    }

    /// The scheduled events, in order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The primary-crash site, if any.
    pub fn primary_crash(&self) -> Option<FaultSite> {
        self.events.iter().find_map(|e| match e {
            FaultEvent::CrashPrimary(site) => Some(*site),
            _ => None,
        })
    }

    /// The recovery-write budgets for successive recovery attempts, in
    /// schedule order.
    pub fn recovery_crashes(&self) -> Vec<u64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::CrashBackupRecoveryWrite(n) => Some(*n),
                _ => None,
            })
            .collect()
    }

    /// Total heartbeat delay, in picoseconds.
    pub(crate) fn heartbeat_delay_ps(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                FaultEvent::DelayHeartbeats(ps) => *ps,
                _ => 0,
            })
            .sum()
    }

    /// The drop-after threshold, if any (smallest wins if repeated).
    pub(crate) fn heartbeat_drop_after(&self) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::DropHeartbeatsAfter(n) => Some(*n),
                _ => None,
            })
            .min()
    }

    /// The partition delays, in schedule order, as `(from, to, ps)`.
    /// Repeats on one pair accumulate.
    pub(crate) fn partition_delays(&self) -> Vec<(u8, u8, u64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::PartitionDelay { from, to, ps } => Some((*from, *to, *ps)),
                _ => None,
            })
            .collect()
    }

    /// The partition drop thresholds, in schedule order, as
    /// `(from, to, n)`. The smallest threshold on a pair wins.
    pub(crate) fn partition_drops(&self) -> Vec<(u8, u8, u64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::PartitionDropAfter { from, to, n } => Some((*from, *to, *n)),
                _ => None,
            })
            .collect()
    }

    /// The directed pairs any partition event targets, in schedule order
    /// (duplicates preserved).
    pub fn partition_pairs(&self) -> Vec<(u8, u8)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::PartitionDelay { from, to, .. }
                | FaultEvent::PartitionDropAfter { from, to, .. } => Some((*from, *to)),
                _ => None,
            })
            .collect()
    }

    /// Checks internal consistency: at most one primary crash; backup
    /// recovery crashes and heartbeat faults only make sense when a
    /// primary crash triggers a takeover. Partition events are allowed
    /// without a crash (they degrade graceful runs too); whether the
    /// targeted pair exists is driver-dependent and checked at run time.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] naming the first inconsistency.
    pub fn validate(&self) -> Result<(), PlanError> {
        let crashes = self
            .events
            .iter()
            .filter(|e| matches!(e, FaultEvent::CrashPrimary(_)))
            .count();
        if crashes > 1 {
            return Err(PlanError::new("a plan may crash the primary at most once"));
        }
        if crashes == 0 {
            let dependent = self.events.iter().find(|e| {
                matches!(
                    e,
                    FaultEvent::CrashBackupRecoveryWrite(_)
                        | FaultEvent::DelayHeartbeats(_)
                        | FaultEvent::DropHeartbeatsAfter(_)
                )
            });
            if let Some(e) = dependent {
                return Err(PlanError::new(format!(
                    "`{e}` requires a primary crash earlier in the plan"
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.events.is_empty() {
            return f.write_str("(no faults)");
        }
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

impl FromStr for FaultPlan {
    type Err = PlanError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim();
        if trimmed.is_empty() || trimmed == "(no faults)" {
            return Ok(FaultPlan::none());
        }
        let events = trimmed
            .split(';')
            .map(|clause| clause.parse::<FaultEvent>())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FaultPlan { events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_kind_round_trips_through_text() {
        let plan = FaultPlan::new(vec![
            FaultEvent::CrashPrimary(FaultSite::Store(120)),
            FaultEvent::CrashBackupRecoveryWrite(12),
            FaultEvent::CrashBackupRecoveryWrite(0),
            FaultEvent::DelayHeartbeats(40_000_000),
            FaultEvent::DropHeartbeatsAfter(10),
            FaultEvent::PartitionDelay {
                from: 1,
                to: 2,
                ps: 40_000,
            },
            FaultEvent::PartitionDropAfter {
                from: 2,
                to: 0,
                n: 3,
            },
        ]);
        let text = plan.to_string();
        assert_eq!(text.parse::<FaultPlan>().unwrap(), plan);

        for site in ["store", "packet", "txn"] {
            let one: FaultPlan = format!("crash primary @ {site}=3").parse().unwrap();
            assert_eq!(one.to_string().parse::<FaultPlan>().unwrap(), one);
        }
    }

    #[test]
    fn the_empty_plan_round_trips() {
        let none = FaultPlan::none();
        assert_eq!(none.to_string(), "(no faults)");
        assert_eq!("(no faults)".parse::<FaultPlan>().unwrap(), none);
        assert_eq!("".parse::<FaultPlan>().unwrap(), none);
    }

    #[test]
    fn bad_clauses_are_rejected_with_context() {
        for bad in [
            "crash primary @ disk=1",
            "crash primary @ store=abc",
            "crash backup @ store=1",
            "delay heartbeats=40",
            "reboot the rack",
            "partition 1->2 sever",
            "partition 1=>2 delay=40ps",
            "partition 999->2 delay=40ps",
            "partition 1->2 delay=40",
        ] {
            let err = bad.parse::<FaultPlan>().unwrap_err();
            assert!(err.message().contains("fault plan clause"), "{bad}: {err}");
        }
    }

    #[test]
    fn validation_catches_inconsistent_plans() {
        let two_crashes: FaultPlan = "crash primary @ txn=1; crash primary @ txn=2"
            .parse()
            .unwrap();
        assert!(two_crashes.validate().is_err());

        let orphan_recovery: FaultPlan = "crash backup @ recovery-write=3".parse().unwrap();
        assert!(orphan_recovery.validate().is_err());

        let ok: FaultPlan = "crash primary @ txn=2; crash backup @ recovery-write=3; \
                             delay heartbeats=1000ps"
            .parse()
            .unwrap();
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn accessors_partition_the_schedule() {
        let plan: FaultPlan = "crash primary @ packet=9; crash backup @ recovery-write=4; \
                               crash backup @ recovery-write=1; delay heartbeats=500ps; \
                               drop heartbeats after=7"
            .parse()
            .unwrap();
        assert_eq!(plan.primary_crash(), Some(FaultSite::Packet(9)));
        assert_eq!(plan.recovery_crashes(), vec![4, 1]);
        assert_eq!(plan.heartbeat_delay_ps(), 500);
        assert_eq!(plan.heartbeat_drop_after(), Some(7));
    }

    #[test]
    fn partitions_are_valid_without_a_crash_and_partition_the_schedule() {
        let plan: FaultPlan = "partition 0->2 delay=40000ps; partition 2->0 drop after=5"
            .parse()
            .unwrap();
        assert!(plan.validate().is_ok(), "partitions degrade graceful runs");
        assert_eq!(plan.partition_delays(), vec![(0, 2, 40_000)]);
        assert_eq!(plan.partition_drops(), vec![(2, 0, 5)]);
        assert_eq!(plan.partition_pairs(), vec![(0, 2), (2, 0)]);
        assert_eq!(plan.to_string().parse::<FaultPlan>().unwrap(), plan);
    }
}

//! Warn-once parsing of the trace layer's environment knobs.
//!
//! Every knob follows the same contract: **unset means the default**; a set
//! value must parse, and a set-but-unusable value is a misconfiguration,
//! not a request for the default — it falls back *and* warns once on
//! stderr, keyed by variable name, no matter how many recorders or tools
//! consult it. The parsers are pure (input in, `(value, warning)` out) so
//! the fallback rules are unit-testable without touching the process
//! environment.

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

use crate::recorder::FlightRecorder;
use crate::timeseries::DEFAULT_WINDOW_PICOS;

/// Interprets `DSNREP_TRACE_CAP` (flight-recorder ring capacity, records):
/// `None` (unset) means the default capacity; a set value must parse as a
/// positive record count, and anything else yields the default **plus a
/// warning message** — a set variable the recorder cannot honor should
/// never be silent.
pub fn parse_trace_cap(raw: Option<&str>) -> (usize, Option<String>) {
    match raw {
        None => (FlightRecorder::DEFAULT_CAPACITY, None),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(cap) if cap > 0 => (cap, None),
            _ => (
                FlightRecorder::DEFAULT_CAPACITY,
                Some(format!(
                    "DSNREP_TRACE_CAP={v:?} is not a positive record count; \
                     using the default of {} records",
                    FlightRecorder::DEFAULT_CAPACITY
                )),
            ),
        },
    }
}

/// Interprets `DSNREP_TS_WINDOW_US` (virtual microseconds per metrics
/// window) with the same contract as [`parse_trace_cap`]: unset means the
/// default, unusable (zero, non-numeric, or too large to convert to
/// picoseconds) means the default plus a warning.
pub fn parse_window_us(raw: Option<&str>) -> (u64, Option<String>) {
    match raw {
        None => (DEFAULT_WINDOW_PICOS, None),
        Some(v) => match v.trim().parse::<u64>() {
            Ok(us) if us > 0 && us <= u64::MAX / 1_000_000 => (us * 1_000_000, None),
            _ => (
                DEFAULT_WINDOW_PICOS,
                Some(format!(
                    "DSNREP_TS_WINDOW_US={v:?} is not a usable window width; \
                     using the default of {} virtual us",
                    DEFAULT_WINDOW_PICOS / 1_000_000
                )),
            ),
        },
    }
}

/// Default seed for the open-system arrival generator (`DSNREP_ARRIVAL_SEED`).
pub const DEFAULT_ARRIVAL_SEED: u64 = 0xA221;

/// Default commit-latency SLO in virtual microseconds (`DSNREP_SLO_US`).
pub const DEFAULT_SLO_US: u64 = 2_000;

/// Interprets `DSNREP_ARRIVAL_SEED` (open-system arrival-process seed):
/// unset means [`DEFAULT_ARRIVAL_SEED`]; a set value must parse as a `u64`
/// (any value, zero included, is a usable seed), and anything else yields
/// the default plus a warning.
pub fn parse_arrival_seed(raw: Option<&str>) -> (u64, Option<String>) {
    match raw {
        None => (DEFAULT_ARRIVAL_SEED, None),
        Some(v) => match v.trim().parse::<u64>() {
            Ok(seed) => (seed, None),
            _ => (
                DEFAULT_ARRIVAL_SEED,
                Some(format!(
                    "DSNREP_ARRIVAL_SEED={v:?} is not a u64 seed; \
                     using the default of {DEFAULT_ARRIVAL_SEED}"
                )),
            ),
        },
    }
}

/// Interprets `DSNREP_SLO_US` (per-request latency SLO, virtual
/// microseconds): unset means [`DEFAULT_SLO_US`]; a set value must parse as
/// a positive microsecond count convertible to picoseconds, and anything
/// else yields the default plus a warning.
pub fn parse_slo_us(raw: Option<&str>) -> (u64, Option<String>) {
    match raw {
        None => (DEFAULT_SLO_US, None),
        Some(v) => match v.trim().parse::<u64>() {
            Ok(us) if us > 0 && us <= u64::MAX / 1_000_000 => (us, None),
            _ => (
                DEFAULT_SLO_US,
                Some(format!(
                    "DSNREP_SLO_US={v:?} is not a usable SLO in virtual us; \
                     using the default of {DEFAULT_SLO_US} virtual us"
                )),
            ),
        },
    }
}

/// Emits `warning: {message}` to stderr at most once per `key` for the
/// lifetime of the process (the key is conventionally the variable name).
pub fn warn_once(key: &str, message: &str) {
    static WARNED: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    let warned = WARNED.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut warned = warned.lock().expect("warn-once registry poisoned");
    if warned.insert(key.to_string()) {
        eprintln!("warning: {message}");
    }
}

/// Reads `name` from the process environment through `parse`, warning once
/// (keyed by `name`) if the set value was unusable.
pub fn from_env_with<T>(name: &str, parse: impl FnOnce(Option<&str>) -> (T, Option<String>)) -> T {
    let (value, warning) = parse(std::env::var(name).ok().as_deref());
    if let Some(message) = warning {
        warn_once(name, &message);
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_cap_unset_is_default_without_warning() {
        assert_eq!(
            parse_trace_cap(None),
            (FlightRecorder::DEFAULT_CAPACITY, None)
        );
        let (cap, warning) = parse_trace_cap(Some("4096"));
        assert_eq!(cap, 4096);
        assert!(warning.is_none());
    }

    #[test]
    fn unusable_trace_cap_warns_and_falls_back() {
        for bad in ["", "0", "-3", "lots", "1.5"] {
            let (cap, warning) = parse_trace_cap(Some(bad));
            assert_eq!(cap, FlightRecorder::DEFAULT_CAPACITY, "input {bad:?}");
            let message = warning.unwrap_or_else(|| panic!("no warning for {bad:?}"));
            assert!(message.contains("DSNREP_TRACE_CAP"), "{message}");
            assert!(message.contains(&format!("{bad:?}")), "{message}");
        }
    }

    #[test]
    fn unusable_window_warns_and_falls_back() {
        assert_eq!(parse_window_us(None), (DEFAULT_WINDOW_PICOS, None));
        assert_eq!(parse_window_us(Some("250")), (250_000_000, None));
        for bad in ["0", "zero", "", "99999999999999999999"] {
            let (picos, warning) = parse_window_us(Some(bad));
            assert_eq!(picos, DEFAULT_WINDOW_PICOS, "input {bad:?}");
            assert!(
                warning.is_some_and(|m| m.contains("DSNREP_TS_WINDOW_US")),
                "input {bad:?}"
            );
        }
    }

    #[test]
    fn arrival_seed_accepts_any_u64_and_warns_on_noise() {
        assert_eq!(parse_arrival_seed(None), (DEFAULT_ARRIVAL_SEED, None));
        assert_eq!(parse_arrival_seed(Some("0")), (0, None));
        assert_eq!(parse_arrival_seed(Some(" 42 ")), (42, None));
        assert_eq!(
            parse_arrival_seed(Some("18446744073709551615")),
            (u64::MAX, None)
        );
        for bad in ["", "-1", "seed", "1.5", "99999999999999999999999"] {
            let (seed, warning) = parse_arrival_seed(Some(bad));
            assert_eq!(seed, DEFAULT_ARRIVAL_SEED, "input {bad:?}");
            let message = warning.unwrap_or_else(|| panic!("no warning for {bad:?}"));
            assert!(message.contains("DSNREP_ARRIVAL_SEED"), "{message}");
            assert!(message.contains(&format!("{bad:?}")), "{message}");
        }
    }

    #[test]
    fn slo_us_requires_positive_microseconds() {
        assert_eq!(parse_slo_us(None), (DEFAULT_SLO_US, None));
        assert_eq!(parse_slo_us(Some("500")), (500, None));
        for bad in ["0", "", "fast", "-2", "99999999999999999999"] {
            let (us, warning) = parse_slo_us(Some(bad));
            assert_eq!(us, DEFAULT_SLO_US, "input {bad:?}");
            let message = warning.unwrap_or_else(|| panic!("no warning for {bad:?}"));
            assert!(message.contains("DSNREP_SLO_US"), "{message}");
            assert!(message.contains(&format!("{bad:?}")), "{message}");
        }
    }
}

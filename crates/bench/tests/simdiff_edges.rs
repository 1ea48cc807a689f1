//! Edge-of-contract tests for the `simdiff` gate and the `faultcov`
//! artifact: malformed numbers must be rejected at parse time (never
//! silently compared), missing baselines must exit 2 (not pass), and a
//! `faultcov.json` schema bump must refuse the comparison outright. The
//! report binaries reject bad usage the same way: exit 2, no panic.
//!
//! The settings contract: a run depends on its flags and on the two
//! variables `DSNREP_TXNS` and `DSNREP_SIMPERF_TXNS`, each checked
//! strictly at its binary's start, and on nothing else in the
//! environment.

use std::path::PathBuf;
use std::process::{Command, Output};

use dsnrep_bench::faultcov;
use dsnrep_bench::json::parse;

/// A scratch directory unique to one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simdiff-edges-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn simdiff(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simdiff"))
        .args(args)
        .output()
        .expect("spawn simdiff")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("simdiff exited via a signal")
}

#[test]
fn parser_rejects_nan_and_infinity() {
    // JSON has no NaN/Inf literals; a float that formats as `NaN` would
    // otherwise compare equal to anything under f64 semantics, hiding a
    // regression. The parser must refuse, so simdiff exits 2 instead.
    for bad in [
        "NaN",
        "Infinity",
        "-Infinity",
        r#"{"schema_version": 1, "tps": NaN}"#,
        r#"{"schema_version": 1, "tps": inf}"#,
        r#"{"schema_version": 1, "tps": -inf}"#,
    ] {
        assert!(parse(bad).is_err(), "parser accepted {bad:?}");
    }

    let dir = scratch("nan");
    let good = dir.join("good.json");
    let nan = dir.join("nan.json");
    std::fs::write(&good, r#"{"schema_version": 1, "tps": 1.5}"#).unwrap();
    std::fs::write(&nan, r#"{"schema_version": 1, "tps": NaN}"#).unwrap();
    let out = simdiff(&[good.to_str().unwrap(), nan.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 2, "NaN input must exit 2, not compare");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("not valid JSON"),
        "stderr should blame the parse: {stderr}"
    );
}

#[test]
fn missing_baseline_exits_two_not_zero() {
    // An empty baselines directory (a fresh checkout, a bad artifact
    // path) must fail the gate loudly: exit 2, never a silent pass.
    let dir = scratch("empty-baselines");
    let baseline = dir.join("baselines").join("faultcov.json");
    std::fs::create_dir_all(dir.join("baselines")).unwrap();
    let current = dir.join("current.json");
    std::fs::write(&current, r#"{"schema_version": 1, "x": 1}"#).unwrap();
    let out = simdiff(&[baseline.to_str().unwrap(), current.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot read"),
        "stderr should name the missing file: {stderr}"
    );
}

#[test]
fn faultcov_schema_bump_refuses_the_comparison() {
    // A real faultcov document (current schema) against a fixture claiming
    // the next schema version: simdiff must refuse (exit 2), not report a
    // sea of per-metric regressions against a shape it cannot interpret.
    let dir = scratch("faultcov-schema");
    let doc = faultcov::render("exhaustive", 7, &[]);
    let current = dir.join("faultcov.json");
    std::fs::write(&current, &doc).unwrap();
    let bumped = doc.replace(
        &format!("\"schema_version\": {}", faultcov::SCHEMA_VERSION),
        &format!("\"schema_version\": {}", faultcov::SCHEMA_VERSION + 1),
    );
    assert_ne!(doc, bumped, "fixture failed to bump the schema version");
    let baseline = dir.join("faultcov-next.json");
    std::fs::write(&baseline, &bumped).unwrap();

    let out = simdiff(&[baseline.to_str().unwrap(), current.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 2, "schema mismatch must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("schema_version mismatch"),
        "stderr should explain the refusal: {stderr}"
    );

    // Same schema, same document: the gate passes.
    let out = simdiff(&[current.to_str().unwrap(), current.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0);
}

#[test]
fn simfault_rejects_bad_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_simfault"))
        .arg("--mode")
        .arg("chaotic")
        .output()
        .expect("spawn simfault");
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(env!("CARGO_BIN_EXE_simfault"))
        .arg("--bogus")
        .output()
        .expect("spawn simfault");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn simtrace_rejects_an_empty_or_overflowing_database() {
    let simtrace = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_simtrace"))
            .args(args)
            .output()
            .expect("spawn simtrace")
    };
    // 2^44 MiB is 2^64 bytes, one past `u64::MAX`.
    for mib in ["0", "17592186044416"] {
        let out = simtrace(&["--db-mib", mib]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--db-mib {mib}: {stderr}");
        assert!(
            stderr.starts_with("usage: simtrace"),
            "--db-mib {mib}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "--db-mib {mib}: {stderr}");
    }
    // The smallest database still runs both workloads.
    for workload in ["debit-credit", "order-entry"] {
        let out = simtrace(&["--db-mib", "1", "--workload", workload, "--txns", "50"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{workload}: {stderr}");
    }
}

#[test]
fn simtrace_rejects_a_flag_its_run_cannot_honor() {
    // The active scheme always runs Version 3, and only a crashed run has
    // a promoted backup to run post-recovery transactions on.
    for args in [
        ["--scheme", "active", "--version", "v0", "--txns", "20"],
        ["--post-txns", "50", "--txns", "20", "--db-mib", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_simtrace"))
            .args(args)
            .output()
            .expect("spawn simtrace");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage: simtrace"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn simtrace_reports_an_unwritable_out_directory() {
    let dir = scratch("simtrace-out");
    let file = dir.join("plain-file");
    std::fs::write(&file, "not a directory").unwrap();
    let out_dir = file.join("trace");
    let out = Command::new(env!("CARGO_BIN_EXE_simtrace"))
        .args(["--txns", "20", "--out", out_dir.to_str().unwrap()])
        .output()
        .expect("spawn simtrace");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(out_dir.to_str().unwrap()), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn simtrace_artifacts_ignore_the_environment() {
    const ARTIFACTS: [&str; 7] = [
        "summary.json",
        "attribution.json",
        "timeseries.json",
        "critical_path.json",
        "trace.json",
        "events.jsonl",
        "availability.json",
    ];
    // A shell may still export these; no run may read them.
    const EXPORTED: [(&str, &str); 2] = [("DSNREP_TS_WINDOW_US", "5"), ("DSNREP_TRACE_CAP", "100")];
    let dir = scratch("simtrace-env");
    let run = |name: &str, set: bool| {
        let out_dir = dir.join(name);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_simtrace"));
        cmd.args(["--txns", "200", "--out", out_dir.to_str().unwrap()]);
        for (var, value) in EXPORTED {
            if set {
                cmd.env(var, value);
            } else {
                cmd.env_remove(var);
            }
        }
        let out = cmd.output().expect("spawn simtrace");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{name}: {stderr}");
        out_dir
    };
    let bare = run("bare", false);
    let exported = run("exported", true);
    for artifact in ARTIFACTS {
        let a = std::fs::read(bare.join(artifact)).expect("artifact written");
        let b = std::fs::read(exported.join(artifact)).expect("artifact written");
        assert!(a == b, "{artifact} depends on the environment");
    }
}

#[test]
fn reproduce_ignores_the_trace_variable() {
    let run = |trace: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_reproduce"));
        cmd.env("DSNREP_TXNS", "300");
        match trace {
            Some(value) => cmd.env("DSNREP_TRACE", value),
            None => cmd.env_remove("DSNREP_TRACE"),
        };
        let out = cmd.output().expect("spawn reproduce");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{trace:?}: {stderr}");
        out.stdout
    };
    let bare = run(None);
    for value in ["1", "yes"] {
        assert!(
            run(Some(value)) == bare,
            "DSNREP_TRACE={value} changed the report"
        );
    }
}

#[test]
fn ablations_reject_a_count_they_cannot_honor() {
    for bad in ["0", "abc"] {
        let out = Command::new(env!("CARGO_BIN_EXE_ablations"))
            .env("DSNREP_TXNS", bad)
            .output()
            .expect("spawn ablations");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad}: {stderr}");
        assert!(stderr.contains("DSNREP_TXNS"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(
            out.stdout.is_empty(),
            "no section may print before the check"
        );
    }
}

#[test]
fn simlat_ignores_the_environment() {
    let out = Command::new(env!("CARGO_BIN_EXE_simlat"))
        .args(["--requests", "20"])
        .env("DSNREP_ARRIVAL_SEED", "7")
        .env("DSNREP_SLO_US", "500")
        .output()
        .expect("spawn simlat");
    assert_eq!(out.status.code(), Some(0));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"arrival_seed\": 41505,"), "{json}");
    assert!(json.contains("\"slo_us\": 2000,"), "{json}");
}

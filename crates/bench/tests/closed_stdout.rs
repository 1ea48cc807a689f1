//! A reader that stops early (`reproduce | head -1`) is not a crash: the
//! report binaries end quietly with status 0 once their stdout closes.

use std::io::Read;
use std::process::{Command, Stdio};

/// Runs `bin`, reads its first output line, closes the pipe, and checks
/// that the process exited 0 without writing to stderr.
fn first_line_then_close(bin: &str, envs: &[(&str, &str)]) {
    let mut child = Command::new(bin)
        .envs(envs.iter().copied())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary starts");
    let mut stdout = child.stdout.take().expect("stdout is piped");
    // Byte by byte, so nothing past the first line is read before the
    // pipe closes.
    let mut first = Vec::new();
    let mut byte = [0u8; 1];
    while stdout.read(&mut byte).expect("stdout reads") == 1 {
        first.push(byte[0]);
        if byte[0] == b'\n' {
            break;
        }
    }
    drop(stdout);
    let out = child.wait_with_output().expect("the binary ends");
    assert!(first.ends_with(b"\n"), "{bin}: no first line");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{bin}: {stderr}");
    assert!(stderr.is_empty(), "{bin} wrote to stderr: {stderr}");
}

#[test]
fn reproduce_stops_quietly_when_stdout_closes() {
    first_line_then_close(env!("CARGO_BIN_EXE_reproduce"), &[("DSNREP_TXNS", "300")]);
}

#[test]
fn ablations_stops_quietly_when_stdout_closes() {
    first_line_then_close(env!("CARGO_BIN_EXE_ablations"), &[("DSNREP_TXNS", "300")]);
}

#[test]
fn simstrat_stops_quietly_when_stdout_closes() {
    first_line_then_close(env!("CARGO_BIN_EXE_simstrat"), &[]);
}

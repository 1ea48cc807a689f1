//! The benchmark harness: regenerates every table and figure of the paper.
//!
//! * [`experiments`] — the runs behind every paper artifact, returning
//!   structured results: one [`experiments::Grid`] of 50 MB runs for
//!   Tables 1–7, and Figure 1, Table 8 and the SMP figures.
//! * [`paper`] — the published numbers, transcribed.
//! * [`Comparison`] — paper-vs-measured table rendering.
//!
//! Run the whole evaluation with
//! `cargo run --release -p dsnrep-bench --bin reproduce`: one pass prints
//! every table and figure and simulates each configuration once. The
//! `ablations` binary prints the ablations beyond the paper in one run.
//! `DSNREP_TXNS` scales the run lengths of both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chart;
pub mod diff;
pub mod experiments;
pub mod faultcov;
pub mod json;
pub mod openlat;
pub mod paper;
mod report;
pub mod trace;

pub use chart::ascii_chart;
pub use report::Comparison;

/// Writes `args` to standard output: the one way the report binaries
/// print. A reader that closed the pipe early (`reproduce | head -1`)
/// ends the process with status 0, since it asked for no more output.
/// Any other write error panics, as `print!` does.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

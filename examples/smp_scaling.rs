//! SMP scaling (the paper's §8): run 1-4 transaction streams on a
//! multiprocessor primary, all sharing one SAN link, and watch which
//! replication schemes scale.
//!
//! ```text
//! cargo run --release --example smp_scaling [txns_per_stream]
//! ```

use dsnrep::core::{EngineConfig, VersionTag};
use dsnrep::repl::{Scheme, SmpExperiment};
use dsnrep::simcore::{CostModel, MIB};
use dsnrep::workloads::WorkloadKind;

fn main() {
    let txns: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(5_000);
    let schemes = [
        Scheme::Active,
        Scheme::Passive(VersionTag::ImprovedLog),
        Scheme::Passive(VersionTag::MirrorDiff),
        Scheme::Passive(VersionTag::MirrorCopy),
    ];
    for kind in WorkloadKind::ALL {
        println!("== {kind}: aggregate TPS by processor count ==");
        println!(
            "{:34} {:>9} {:>9} {:>9} {:>9}  scaling",
            "scheme", "1", "2", "3", "4"
        );
        for scheme in schemes {
            let mut tps = [0.0f64; 4];
            for procs in 1..=4usize {
                // 10 MB database per stream, as in the paper.
                let config = EngineConfig::for_db(10 * MIB);
                let exp =
                    SmpExperiment::new(CostModel::alpha_21164a(), scheme, kind, &config, procs);
                tps[procs - 1] = exp.run(txns).aggregate_tps();
            }
            println!(
                "{:34} {:>9.0} {:>9.0} {:>9.0} {:>9.0}  {:.2}x",
                scheme.to_string(),
                tps[0],
                tps[1],
                tps[2],
                tps[3],
                tps[3] / tps[0]
            );
        }
        println!();
    }
    println!(
        "Only the bandwidth-frugal, well-coalescing schemes scale: the shared \
         link saturates first for the small-packet mirroring protocols \
         (paper Figures 2 and 3)."
    );
}

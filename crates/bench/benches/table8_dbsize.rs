//! Regenerates Table 8: active-backup throughput by database size.
use dsnrep_bench::experiments::{kind_index, table8, RunScale};
use dsnrep_bench::{paper, Comparison};
use dsnrep_workloads::WorkloadKind;

fn main() {
    let result = table8(RunScale::from_env().unwrap_or_else(|e| panic!("{e}")));
    let mut t = Comparison::new(
        "Table 8: active-backup throughput by database size (TPS)",
        &["configuration", "paper", "measured"],
    );
    let sizes = ["10 MB", "100 MB", "1 GB"];
    for kind in WorkloadKind::ALL {
        let k = kind_index(kind);
        for (i, size) in sizes.iter().enumerate() {
            t.row(
                &format!("{kind}: {size}"),
                paper::TABLE8[k][i],
                result[k][i],
            );
        }
    }
    t.print();
}

//! Regenerates Table 3: standalone throughput of Versions 0-3.
use dsnrep_bench::experiments::{kind_index, table3, RunScale};
use dsnrep_bench::{paper, Comparison};
use dsnrep_workloads::WorkloadKind;

fn main() {
    let result = table3(RunScale::from_env().unwrap_or_else(|e| panic!("{e}")));
    let mut t = Comparison::new(
        "Table 3: standalone throughput (TPS)",
        &["configuration", "paper", "measured"],
    );
    for kind in WorkloadKind::ALL {
        let k = kind_index(kind);
        for (v, label) in paper::VERSION_LABELS.iter().enumerate() {
            t.row(
                &format!("{kind}: {label}"),
                paper::TABLE3[k][v],
                result[k][v],
            );
        }
    }
    t.print();
}

//! Regenerates Table 1: single machine vs straightforward primary-backup.
use dsnrep_bench::experiments::{kind_index, table1, RunScale};
use dsnrep_bench::{paper, Comparison};
use dsnrep_workloads::WorkloadKind;

fn main() {
    let result = table1(RunScale::from_env().unwrap_or_else(|e| panic!("{e}")));
    let mut t = Comparison::new(
        "Table 1: straightforward implementation (TPS)",
        &["configuration", "paper", "measured"],
    );
    for kind in WorkloadKind::ALL {
        let k = kind_index(kind);
        t.row(
            &format!("{kind}: single machine"),
            paper::TABLE1[k][0],
            result[k][0],
        );
        t.row(
            &format!("{kind}: primary-backup"),
            paper::TABLE1[k][1],
            result[k][1],
        );
    }
    t.print();
}

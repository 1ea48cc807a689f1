//! Regenerates Table 2: traffic of the straightforward implementation.
use dsnrep_bench::experiments::{kind_index, table2, RunScale};
use dsnrep_bench::{paper, Comparison};
use dsnrep_workloads::WorkloadKind;

fn main() {
    let result = table2(RunScale::from_env().unwrap_or_else(|e| panic!("{e}")));
    let mut t = Comparison::new(
        "Table 2: data communicated by the straightforward implementation (MB)",
        &["category", "paper", "measured"],
    );
    for kind in WorkloadKind::ALL {
        let k = kind_index(kind);
        let m = result[k];
        t.row(
            &format!("{kind}: modified data"),
            paper::TABLE2[k][0],
            m.modified,
        );
        t.row(&format!("{kind}: undo log"), paper::TABLE2[k][1], m.undo);
        t.row(&format!("{kind}: meta-data"), paper::TABLE2[k][2], m.meta);
        t.row(&format!("{kind}: total"), paper::TABLE2[k][3], m.total());
    }
    t.print();
}

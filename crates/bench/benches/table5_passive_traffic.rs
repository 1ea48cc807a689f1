//! Regenerates Table 5: data transferred to the passive backup.
use dsnrep_bench::experiments::{kind_index, table4_and_5, RunScale};
use dsnrep_bench::{paper, Comparison};
use dsnrep_workloads::WorkloadKind;

fn main() {
    let result = table4_and_5(RunScale::from_env().unwrap_or_else(|e| panic!("{e}")));
    let mut t = Comparison::new(
        "Table 5: data transferred to the passive backup (MB)",
        &["configuration", "paper", "measured"],
    );
    for kind in WorkloadKind::ALL {
        let k = kind_index(kind);
        for (v, label) in paper::VERSION_LABELS.iter().enumerate() {
            let m = result[k][v].1;
            t.row(
                &format!("{kind}: {label}: modified"),
                paper::TABLE5[k][v][0],
                m.modified,
            );
            t.row(
                &format!("{kind}: {label}: undo"),
                paper::TABLE5[k][v][1],
                m.undo,
            );
            t.row(
                &format!("{kind}: {label}: meta"),
                paper::TABLE5[k][v][2],
                m.meta,
            );
            t.row(
                &format!("{kind}: {label}: total"),
                paper::TABLE5[k][v][3],
                m.total(),
            );
        }
    }
    t.print();
}

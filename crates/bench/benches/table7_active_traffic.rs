//! Regenerates Table 7: data transferred, active vs passive backup.
use dsnrep_bench::experiments::{kind_index, table6_and_7, RunScale};
use dsnrep_bench::{paper, Comparison};
use dsnrep_workloads::WorkloadKind;

fn main() {
    let result = table6_and_7(RunScale::from_env().unwrap_or_else(|e| panic!("{e}")));
    let mut t = Comparison::new(
        "Table 7: data transferred, active vs passive backup (MB)",
        &["configuration", "paper", "measured"],
    );
    let schemes = ["best passive (V3)", "active"];
    for kind in WorkloadKind::ALL {
        let k = kind_index(kind);
        for (s, scheme) in schemes.iter().enumerate() {
            let m = result[k][s].1;
            t.row(
                &format!("{kind}: {scheme}: modified"),
                paper::TABLE7[k][s][0],
                m.modified,
            );
            t.row(
                &format!("{kind}: {scheme}: undo"),
                paper::TABLE7[k][s][1],
                m.undo,
            );
            t.row(
                &format!("{kind}: {scheme}: meta"),
                paper::TABLE7[k][s][2],
                m.meta,
            );
            t.row(
                &format!("{kind}: {scheme}: total"),
                paper::TABLE7[k][s][3],
                m.total(),
            );
        }
    }
    t.print();
}

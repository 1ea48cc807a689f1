//! Regenerates Table 6: best passive (Version 3) vs active throughput.
use dsnrep_bench::experiments::{kind_index, table6_and_7, RunScale};
use dsnrep_bench::{paper, Comparison};
use dsnrep_workloads::WorkloadKind;

fn main() {
    let result = table6_and_7(RunScale::from_env().unwrap_or_else(|e| panic!("{e}")));
    let mut t = Comparison::new(
        "Table 6: passive vs active throughput (TPS)",
        &["configuration", "paper", "measured"],
    );
    for kind in WorkloadKind::ALL {
        let k = kind_index(kind);
        t.row(
            &format!("{kind}: best passive (V3)"),
            paper::TABLE6[k][0],
            result[k][0].0,
        );
        t.row(
            &format!("{kind}: active"),
            paper::TABLE6[k][1],
            result[k][1].0,
        );
    }
    t.print();
}

//! Regenerates Figure 2: SMP primary scaling, Debit-Credit.
use dsnrep_bench::experiments::{smp_figure, RunScale, FIGURE_SCHEMES};
use dsnrep_bench::{paper, Comparison};
use dsnrep_workloads::WorkloadKind;

fn main() {
    let measured = smp_figure(
        WorkloadKind::DebitCredit,
        RunScale::from_env().unwrap_or_else(|e| panic!("{e}")),
    );
    let mut t = Comparison::new(
        "Figure 2: SMP aggregate throughput, Debit-Credit (TPS; paper values read from the plot)",
        &["configuration", "paper~", "measured"],
    );
    for (s, scheme) in FIGURE_SCHEMES.iter().enumerate() {
        for procs in 1..=4usize {
            t.row(
                &format!("{scheme} x{procs}"),
                paper::FIGURE2[s][procs - 1],
                measured[s][procs - 1],
            );
        }
    }
    t.print();
}

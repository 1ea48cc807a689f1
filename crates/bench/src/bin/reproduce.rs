//! Regenerates the paper's complete evaluation in one pass and prints a
//! Markdown report (paper vs measured for every table and figure).
//!
//! ```text
//! cargo run --release -p dsnrep-bench --bin reproduce | tee EXPERIMENTS-run.md
//! DSNREP_TXNS=100000 cargo run --release -p dsnrep-bench --bin reproduce
//! ```

use dsnrep_bench::experiments::{self, RunScale, FIGURE_SCHEMES};
use dsnrep_bench::trace::{traced_run, traced_run_with};
use dsnrep_bench::{ascii_chart, out, outln, paper, Comparison};
use dsnrep_core::VersionTag;
use dsnrep_repl::Scheme;
use dsnrep_simcore::MIB;
use dsnrep_workloads::WorkloadKind;

fn main() {
    let scale = RunScale::from_env().unwrap_or_else(|e| {
        eprintln!("reproduce: {e}");
        std::process::exit(2)
    });
    outln!("# DSN 2000 reproduction — full evaluation\n");
    outln!(
        "Run scale: {} Debit-Credit / {} Order-Entry transactions per \
         configuration, {} per SMP stream (set DSNREP_TXNS to change).\n",
        scale.debit_credit,
        scale.order_entry,
        scale.smp_per_stream
    );

    // Compute every report section concurrently (each section fans its
    // cells out further via `par_cells`); printing below stays strictly in
    // report order. Cells are fully independent simulations, so this
    // changes wall-clock time only, never a simulated result.
    let (mut fig1, mut table1, mut table2, mut instr) = (None, None, None, None);
    let (mut table3, mut t45, mut t67, mut table8) = (None, None, None, None);
    let (mut fig2, mut fig3) = (None, None);
    std::thread::scope(|s| {
        s.spawn(|| fig1 = Some(experiments::figure1()));
        s.spawn(|| table1 = Some(experiments::table1(scale)));
        s.spawn(|| table2 = Some(experiments::table2(scale)));
        s.spawn(|| {
            instr = Some(experiments::standalone_instrumentation(
                WorkloadKind::DebitCredit,
                scale.debit_credit,
            ))
        });
        s.spawn(|| table3 = Some(experiments::table3(scale)));
        s.spawn(|| t45 = Some(experiments::table4_and_5(scale)));
        s.spawn(|| t67 = Some(experiments::table6_and_7(scale)));
        s.spawn(|| table8 = Some(experiments::table8(scale)));
        s.spawn(|| fig2 = Some(experiments::smp_figure(WorkloadKind::DebitCredit, scale)));
        s.spawn(|| fig3 = Some(experiments::smp_figure(WorkloadKind::OrderEntry, scale)));
    });
    let (fig1, table1, table2, instr) = (
        fig1.unwrap(),
        table1.unwrap(),
        table2.unwrap(),
        instr.unwrap(),
    );
    let (table3, t45, t67, table8) = (table3.unwrap(), t45.unwrap(), t67.unwrap(), table8.unwrap());
    let figures = [fig2.unwrap(), fig3.unwrap()];

    // ---- Figure 1 ----
    let mut t = Comparison::new(
        "Figure 1: effective bandwidth by packet size (MB/s)",
        &["packet size", "paper", "measured"],
    );
    for (point, (size, paper_bw)) in fig1.iter().zip(paper::FIGURE1) {
        assert_eq!(point.packet_bytes, size);
        t.row(&format!("{size} bytes"), paper_bw, point.mib_per_sec);
    }
    t.print();

    // ---- Table 1 ----
    let mut t = Comparison::new(
        "Table 1: straightforward implementation (TPS)",
        &["configuration", "paper", "measured"],
    );
    for kind in WorkloadKind::ALL {
        let k = experiments::kind_index(kind);
        t.row(
            &format!("{kind}: single machine"),
            paper::TABLE1[k][0],
            table1[k][0],
        );
        t.row(
            &format!("{kind}: primary-backup"),
            paper::TABLE1[k][1],
            table1[k][1],
        );
    }
    t.print();

    // ---- Table 2 ----
    let mut t = Comparison::new(
        "Table 2: data communicated by the straightforward implementation (MB)",
        &["category", "paper", "measured"],
    );
    for kind in WorkloadKind::ALL {
        let k = experiments::kind_index(kind);
        let m = table2[k];
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

    // ---- Instrumentation: the locality story behind Table 3 ----
    outln!("### Instrumentation: standalone cache behaviour (Debit-Credit)\n");
    outln!("| version | TPS | cache hit rate | misses/txn |");
    outln!("|---------|-----|----------------|------------|");
    for (version, tps, stats) in &instr {
        outln!(
            "| {version} | {tps:.0} | {:.1}% | {:.1} |",
            stats.hit_rate() * 100.0,
            stats.cache_misses as f64 / scale.debit_credit as f64
        );
    }
    outln!(
        "\nThe mirroring versions drag a database-sized mirror through the 8 MB\n\
         board cache; the improved log touches only a compact, reused region —\n\
         this hit-rate gap *is* the paper's standalone result.\n"
    );

    // ---- Table 3 ----
    let mut t = Comparison::new(
        "Table 3: standalone throughput of the re-structured versions (TPS)",
        &["configuration", "paper", "measured"],
    );
    for kind in WorkloadKind::ALL {
        let k = experiments::kind_index(kind);
        for (v, label) in paper::VERSION_LABELS.iter().enumerate() {
            t.row(
                &format!("{kind}: {label}"),
                paper::TABLE3[k][v],
                table3[k][v],
            );
        }
    }
    t.print();

    // ---- Tables 4 and 5 ----
    let mut t = Comparison::new(
        "Table 4: passive primary-backup throughput (TPS)",
        &["configuration", "paper", "measured"],
    );
    for kind in WorkloadKind::ALL {
        let k = experiments::kind_index(kind);
        for (v, label) in paper::VERSION_LABELS.iter().enumerate() {
            t.row(
                &format!("{kind}: {label}"),
                paper::TABLE4[k][v],
                t45[k][v].0,
            );
        }
    }
    t.print();

    let mut t = Comparison::new(
        "Table 5: data transferred to the passive backup (MB)",
        &["configuration", "paper", "measured"],
    );
    for kind in WorkloadKind::ALL {
        let k = experiments::kind_index(kind);
        for (v, label) in paper::VERSION_LABELS.iter().enumerate() {
            let m = t45[k][v].1;
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

    // ---- Tables 6 and 7 ----
    let mut t = Comparison::new(
        "Table 6: passive vs active throughput (TPS)",
        &["configuration", "paper", "measured"],
    );
    for kind in WorkloadKind::ALL {
        let k = experiments::kind_index(kind);
        t.row(
            &format!("{kind}: best passive (V3)"),
            paper::TABLE6[k][0],
            t67[k][0].0,
        );
        t.row(&format!("{kind}: active"), paper::TABLE6[k][1], t67[k][1].0);
    }
    t.print();

    let mut t = Comparison::new(
        "Table 7: data transferred, active vs passive backup (MB)",
        &["configuration", "paper", "measured"],
    );
    let schemes = ["best passive (V3)", "active"];
    for kind in WorkloadKind::ALL {
        let k = experiments::kind_index(kind);
        for (s, scheme) in schemes.iter().enumerate() {
            let m = t67[k][s].1;
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

    // ---- Table 8 ----
    let mut t = Comparison::new(
        "Table 8: active-backup throughput by database size (TPS)",
        &["configuration", "paper", "measured"],
    );
    let sizes = ["10 MB", "100 MB", "1 GB"];
    for kind in WorkloadKind::ALL {
        let k = experiments::kind_index(kind);
        for (i, size) in sizes.iter().enumerate() {
            t.row(
                &format!("{kind}: {size}"),
                paper::TABLE8[k][i],
                table8[k][i],
            );
        }
    }
    t.print();

    // ---- Figures 2 and 3 ----
    for (measured, (kind, paper_fig, name)) in figures.iter().zip([
        (WorkloadKind::DebitCredit, &paper::FIGURE2, "Figure 2"),
        (WorkloadKind::OrderEntry, &paper::FIGURE3, "Figure 3"),
    ]) {
        let mut t = Comparison::new(
            &format!("{name}: SMP primary aggregate throughput, {kind} (TPS; paper values read from the plot)"),
            &["configuration", "paper~", "measured"],
        );
        for (s, scheme) in FIGURE_SCHEMES.iter().enumerate() {
            for procs in 1..=4usize {
                t.row(
                    &format!("{scheme} x{procs}"),
                    paper_fig[s][procs - 1],
                    measured[s][procs - 1],
                );
            }
        }
        t.print();

        let labels: Vec<String> = FIGURE_SCHEMES.iter().map(|s| s.to_string()).collect();
        let series: Vec<(&str, Vec<f64>)> = labels
            .iter()
            .zip(measured.iter())
            .map(|(name, ys)| (name.as_str(), ys.to_vec()))
            .collect();
        outln!("```");
        out!(
            "{}",
            ascii_chart(
                &format!("{name} (measured aggregate TPS)"),
                &["1", "2", "3", "4"],
                &series,
                48,
            )
        );
        outln!(
            "```
"
        );
    }

    // ---- Flight-recorder summary (opt-in) ----
    if std::env::var("DSNREP_TRACE").as_deref() == Ok("1") {
        let txns = scale.debit_credit.min(2_000);
        outln!("## Trace summary (DSNREP_TRACE=1)\n");
        outln!(
            "Commit-latency histogram (virtual time), stall attribution and\n\
             traffic-class matrix from a {txns}-transaction Debit-Credit run\n\
             per scheme. Use the `simtrace` binary for the full Perfetto\n\
             trace (see OBSERVABILITY.md).\n"
        );
        for (label, scheme) in [
            ("passive-v3", Scheme::Passive(VersionTag::ImprovedLog)),
            ("active", Scheme::Active),
        ] {
            let run = traced_run(scheme, WorkloadKind::DebitCredit, txns, 10 * MIB, false);
            assert!(run.passed(), "trace run failed its audit");
            outln!("### {label}\n\n```json\n{}\n```\n", run.summary.to_json());
            outln!(
                "Where the virtual time went (leaves sum to each node's\n\
                 elapsed time — checked):\n\n```\n{}```\n",
                run.attribution.render_text()
            );
            outln!(
                "Per-transaction critical path (segments provably sum to\n\
                 each commit latency; in-txn + outside totals equal each\n\
                 node's elapsed time — checked):\n\n```json\n{}```\n",
                run.critpath.to_json()
            );
        }

        // A failover scenario, for the availability view: the goodput
        // curve dips through the takeover and recovers when the promoted
        // backup commits again.
        outln!("### Availability under failover (active scheme)\n");
        let run = traced_run_with(
            Scheme::Active,
            WorkloadKind::DebitCredit,
            txns,
            10 * MIB,
            true,
            (txns / 10).max(1),
        );
        assert!(run.passed(), "failover trace run failed its audit");
        outln!(
            "Goodput per {} virtual-µs window, SLO-violation windows and\n\
             time-to-first-commit after recovery start:\n\n```json\n{}```\n",
            run.availability.window_picos / 1_000_000,
            run.availability.to_json()
        );
    }
}

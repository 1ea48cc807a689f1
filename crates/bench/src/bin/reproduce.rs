//! Regenerates the paper's complete evaluation in one pass and prints a
//! Markdown report (paper vs measured for every table and figure).
//!
//! ```text
//! cargo run --release -p dsnrep-bench --bin reproduce | tee EXPERIMENTS-run.md
//! DSNREP_TXNS=100000 cargo run --release -p dsnrep-bench --bin reproduce
//! ```
//!
//! `DSNREP_TXNS` sets the run scale (a positive integer). It is checked
//! before any cell runs: any other value exits 2 with a message naming
//! the variable. The flight-recorder view of a run is `simtrace`'s
//! (OBSERVABILITY.md).

use dsnrep_bench::experiments::{self, Grid, RunScale, TrafficMib, FIGURE_SCHEMES};
use dsnrep_bench::{ascii_chart, out, outln, paper, Comparison};
use dsnrep_core::VersionTag;
use dsnrep_workloads::WorkloadKind;

// Version 0's and Version 3's index in the grid's standalone and pair rows.
const V0: usize = 0;
const V3: usize = 3;

/// The row names of Tables 5 and 7, in the paper's column order.
const PARTS: [&str; 4] = ["modified", "undo", "meta", "total"];

/// Appends one traffic breakdown's four rows, named `{prefix}{name}` after
/// `names`, beside the paper's modified/undo/meta/total values.
fn traffic_rows(
    t: &mut Comparison,
    prefix: &str,
    names: [&str; 4],
    paper: [f64; 4],
    measured: TrafficMib,
) {
    let measured = [
        measured.modified,
        measured.undo,
        measured.meta,
        measured.total(),
    ];
    for ((name, paper), measured) in names.into_iter().zip(paper).zip(measured) {
        t.row(&format!("{prefix}{name}"), paper, measured);
    }
}

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

    // Compute the five sections concurrently (the grid, Table 8 and the SMP
    // figures fan their cells out further via `par_cells`); printing below
    // stays strictly in report order. Cells are fully independent
    // simulations, so this changes wall-clock time only, never a simulated
    // result.
    let (fig1, grid, table8, figures) = std::thread::scope(|s| {
        let fig1 = s.spawn(experiments::figure1);
        let grid = s.spawn(|| Grid::run(scale));
        let table8 = s.spawn(|| experiments::table8(scale));
        let figures =
            WorkloadKind::ALL.map(|kind| s.spawn(move || experiments::smp_figure(kind, scale)));
        let panicked = "a report section panicked";
        (
            fig1.join().expect(panicked),
            grid.join().expect(panicked),
            table8.join().expect(panicked),
            figures.map(|f| f.join().expect(panicked)),
        )
    });

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

    // ---- Table 1: Version 0 of Tables 3 and 4 ----
    let mut t = Comparison::new(
        "Table 1: straightforward implementation (TPS)",
        &["configuration", "paper", "measured"],
    );
    for kind in WorkloadKind::ALL {
        let k = experiments::kind_index(kind);
        t.row(
            &format!("{kind}: single machine"),
            paper::TABLE1[k][0],
            grid.standalone[k][V0].0,
        );
        t.row(
            &format!("{kind}: primary-backup"),
            paper::TABLE1[k][1],
            grid.pair[k][V0].0,
        );
    }
    t.print();

    // ---- Table 2: Table 5's Version 0 ----
    let mut t = Comparison::new(
        "Table 2: data communicated by the straightforward implementation (MB)",
        &["category", "paper", "measured"],
    );
    for kind in WorkloadKind::ALL {
        let k = experiments::kind_index(kind);
        traffic_rows(
            &mut t,
            &format!("{kind}: "),
            ["modified data", "undo log", "meta-data", "total"],
            paper::TABLE2[k],
            grid.pair[k][V0].1,
        );
    }
    t.print();

    // ---- Instrumentation: the locality story behind Table 3 ----
    outln!("### Instrumentation: standalone cache behaviour (Debit-Credit)\n");
    outln!("| version | TPS | cache hit rate | misses/txn |");
    outln!("|---------|-----|----------------|------------|");
    let debit_credit = experiments::kind_index(WorkloadKind::DebitCredit);
    for (version, (tps, stats)) in VersionTag::ALL.iter().zip(&grid.standalone[debit_credit]) {
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
                grid.standalone[k][v].0,
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
                grid.pair[k][v].0,
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
            traffic_rows(
                &mut t,
                &format!("{kind}: {label}: "),
                PARTS,
                paper::TABLE5[k][v],
                grid.pair[k][v].1,
            );
        }
    }
    t.print();

    // ---- Tables 6 and 7: Version 3 of Tables 4 and 5 beside the active backup ----
    let schemes = [("best passive (V3)", V3), ("active", experiments::ACTIVE)];
    let mut t = Comparison::new(
        "Table 6: passive vs active throughput (TPS)",
        &["configuration", "paper", "measured"],
    );
    for kind in WorkloadKind::ALL {
        let k = experiments::kind_index(kind);
        for (s, (scheme, j)) in schemes.into_iter().enumerate() {
            t.row(
                &format!("{kind}: {scheme}"),
                paper::TABLE6[k][s],
                grid.pair[k][j].0,
            );
        }
    }
    t.print();

    let mut t = Comparison::new(
        "Table 7: data transferred, active vs passive backup (MB)",
        &["configuration", "paper", "measured"],
    );
    for kind in WorkloadKind::ALL {
        let k = experiments::kind_index(kind);
        for (s, (scheme, j)) in schemes.into_iter().enumerate() {
            traffic_rows(
                &mut t,
                &format!("{kind}: {scheme}: "),
                PARTS,
                paper::TABLE7[k][s],
                grid.pair[k][j].1,
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
}

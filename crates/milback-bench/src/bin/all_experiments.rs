//! Runs every experiment binary in sequence — the one-shot full
//! reproduction that rewrites every CSV anchor and both metrics documents
//! under `results/`. Equivalent to invoking each figure, table, ablation,
//! extension and network-sweep binary yourself; see DESIGN.md's
//! experiment index.
//!
//! Each child inherits the environment, so `MILBACK_THREADS` (worker
//! budget) and `MILBACK_TRACE` (`mac_compare`'s trace directory) apply to
//! every experiment. Each child also gets a private `MILBACK_SPAN_FILE`
//! to export its profiling spans into, so the timing table at the end
//! breaks every experiment into setup / trials / io wall-clock stages
//! instead of one lump sum.
//!
//! Run with: `cargo run --release -p milback-bench --bin all_experiments`

use milback_bench::log_warn;
use milback_bench::spans::{parse_span_file, SpanStat};
use std::process::Command;
use std::time::Instant;

/// One experiment's timing row: stage totals from its span file, with the
/// parent's own wall measurement as the fallback total.
struct Row {
    bin: &'static str,
    parent_total_s: f64,
    stages: Option<Vec<SpanStat>>,
}

fn stage_s(stages: &[SpanStat], name: &str) -> f64 {
    stages
        .iter()
        .find(|s| s.name == name)
        .map(|s| s.total_ns as f64 / 1e9)
        .unwrap_or(0.0)
}

fn main() {
    let binaries = [
        "fig10_fsa_pattern",
        "fig11_oaqfm_micro",
        "fig12a_ranging",
        "fig12b_angle_cdf",
        "fig13a_orientation_node",
        "fig13b_orientation_ap",
        "fig14_downlink",
        "fig15_uplink",
        "table1_comparison",
        "power_table",
        "ablations",
        "extensions_study",
        "net_scale",
        "mac_compare",
        "net_load",
        "net_relay",
        "net_audit",
        "net_scale_city",
    ];
    // Resolve sibling binaries next to this one (same target directory).
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("target dir");
    let span_dir = std::env::temp_dir();
    let mut failures = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    let total = Instant::now();
    for bin in binaries {
        println!("\n================ {bin} ================\n");
        let path = dir.join(bin);
        let span_file = span_dir.join(format!("milback_spans_{bin}.tsv"));
        let _ = std::fs::remove_file(&span_file);
        let t = Instant::now();
        let status = Command::new(&path)
            .env("MILBACK_SPAN_FILE", &span_file)
            .status();
        let secs = t.elapsed().as_secs_f64();
        match status {
            Ok(s) if s.success() => {
                let stages = std::fs::read_to_string(&span_file)
                    .ok()
                    .map(|text| parse_span_file(&text));
                rows.push(Row {
                    bin,
                    parent_total_s: secs,
                    stages,
                });
            }
            Ok(s) => {
                log_warn!("{bin} exited with {s}");
                failures.push(bin);
            }
            Err(e) => {
                log_warn!(
                    "could not run {bin} ({e}); build it first: cargo build --release -p milback-bench"
                );
                failures.push(bin);
            }
        }
        let _ = std::fs::remove_file(&span_file);
    }
    println!("\nwall time per experiment (s; stages from each child's profiling spans):");
    println!(
        "  {:<26} {:>8} {:>8} {:>8} {:>8}",
        "binary", "setup", "trials", "io", "total"
    );
    for row in &rows {
        match &row.stages {
            Some(stages) if !stages.is_empty() => {
                // `main` spans the whole child run; `run_trials` is the
                // runner's own span; `io` wraps report/CSV emission. What
                // is left of `main` is setup (grids, scenes, planning).
                let main_s = stage_s(stages, "main");
                let total_s = if main_s > 0.0 {
                    main_s
                } else {
                    row.parent_total_s
                };
                let trials_s = stage_s(stages, "run_trials");
                let io_s = stage_s(stages, "io");
                let setup_s = (total_s - trials_s - io_s).max(0.0);
                println!(
                    "  {:<26} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
                    row.bin, setup_s, trials_s, io_s, total_s
                );
            }
            _ => {
                // No span file (e.g. the child exited before exporting):
                // only the parent's lump measurement exists.
                println!(
                    "  {:<26} {:>8} {:>8} {:>8} {:>8.2}",
                    row.bin, "-", "-", "-", row.parent_total_s
                );
            }
        }
    }
    println!(
        "  {:<26} {:>8} {:>8} {:>8} {:>8.2}",
        "total",
        "",
        "",
        "",
        total.elapsed().as_secs_f64()
    );
    if failures.is_empty() {
        println!(
            "\nall {} experiments completed; CSVs in results/",
            binaries.len()
        );
    } else {
        log_warn!("failed: {failures:?}");
        std::process::exit(1);
    }
}

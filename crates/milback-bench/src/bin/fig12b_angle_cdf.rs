//! Figure 12b — Angle (AoA) accuracy CDF.
//!
//! The node is placed at several azimuths and distances; each trial runs
//! the full five-chirp localization and compares the estimated angle with
//! the protractor ground truth. The paper reports median 1.1° and 90th
//! percentile 2.5°.
//!
//! Historically this binary threaded ONE shared RNG through the nested
//! placement loops, so adding or reordering a placement silently reshuffled
//! every later trial's noise. Trials now run through the deterministic
//! trial-parallel runner: trial `i`'s stream depends only on `(0xF12B, i)`,
//! making each placement's statistics independent of the rest of the grid
//! and of the thread count.

use milback_bench::experiments::fig12b_angle_errors;
use milback_bench::runner::RunnerConfig;
use milback_bench::{Report, Series};
use mmwave_sigproc::stats::{empirical_cdf, median, percentile};

fn main() {
    milback_bench::report_main(|cfg| vec![report(cfg)]);
}

/// The figure's report, whose CSV is the `results/figure_12b.csv` anchor.
pub(crate) fn report(cfg: &RunnerConfig) -> Report {
    // Sweep azimuths and distances like the paper's placements.
    let azimuths = [-20.0, -10.0, 0.0, 8.0, 15.0];
    let dists = [2.0, 4.0, 6.0];
    let trials = 8;
    let placements: Vec<(f64, f64)> = azimuths
        .iter()
        .flat_map(|&az| dists.iter().map(move |&d| (az, d)))
        .collect();

    let results = fig12b_angle_errors(&placements, trials, 0xF12B, cfg);
    let errors_deg: Vec<f64> = results
        .iter()
        .flat_map(|r| r.errors_deg.iter().copied())
        .collect();
    let failed: usize = results.iter().map(|r| r.failed).sum();

    let cdf = empirical_cdf(&errors_deg);
    let mut report = Report::new(
        "Figure 12b",
        "CDF of angle estimation error (two-antenna phase comparison)",
        "angle error (deg)",
        "CDF",
    );
    let mut s = Series::new("empirical CDF");
    for (v, f) in &cdf {
        s.push(*v, *f);
    }
    report.add_series(s);
    let med = median(&errors_deg);
    let p90 = percentile(&errors_deg, 90.0);
    report.note(format!(
        "median {med:.2}° (paper: 1.1°), 90th percentile {p90:.2}° (paper: 2.5°), {} trials",
        errors_deg.len()
    ));
    report.note(format!(
        "{} ok / {failed} failed ({} trials); {} worker threads, deterministic per-trial streams",
        errors_deg.len(),
        placements.len() * trials,
        cfg.threads
    ));
    report
}

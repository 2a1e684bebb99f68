//! Figure 13a — Orientation estimation at the node.
//!
//! The node sits 2 m from the AP; the AP transmits Field-1 triangular
//! chirps while both node ports absorb; the MCU samples both detectors at
//! 1 MS/s, measures the peak separation per port and averages the two
//! estimates. 25 trials per orientation, each with its own deterministic
//! RNG stream via the trial-parallel runner (root seed 0xF13A).
//!
//! Paper anchor: mean error < 3° at every orientation.

use milback_bench::experiments::{fig13_orientation, OrientSide};
use milback_bench::runner::RunnerConfig;
use milback_bench::{Report, Series};
use mmwave_sigproc::stats::ErrorSummary;

fn main() {
    let main_span = milback_bench::spans::span("main");
    let orientations = [-20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0];
    let trials = 25;
    let cfg = RunnerConfig::from_env();

    let results = fig13_orientation(&orientations, trials, 0xF13A, &cfg, OrientSide::Node);

    let mut mean_series = Series::new("mean error (deg)");
    let mut std_series = Series::new("std dev (deg)");
    let mut worst = 0.0f64;
    let mut failed = 0;
    for r in &results {
        let s = ErrorSummary::from_abs_errors(&r.abs_errors_deg);
        mean_series.push(r.orientation_deg, s.mean);
        std_series.push(r.orientation_deg, s.std_dev);
        worst = worst.max(s.mean);
        failed += r.failed;
    }
    let total = orientations.len() * trials;

    let mut report = Report::new(
        "Figure 13a",
        "Node-side orientation error vs true orientation (25 trials, 2 m, 1 MS/s MCU)",
        "orientation (deg)",
        "error (deg)",
    );
    report.add_series(mean_series);
    report.add_series(std_series);
    report.note(format!(
        "worst mean error {worst:.2}° (paper: always < 3°, comparable to smartphone IMUs [25])"
    ));
    report.note(format!(
        "{} ok / {failed} failed ({total} trials); {} worker threads, deterministic per-trial streams",
        total - failed,
        cfg.threads
    ));
    {
        let _io = milback_bench::spans::span("io");
        report.emit();
    }
    drop(main_span);
    milback_bench::spans::export_if_requested();
}

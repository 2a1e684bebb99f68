//! Figure 12a — Ranging accuracy.
//!
//! The node sits at 1–8 m from the AP in the cluttered indoor scene; for
//! each distance the AP runs the five-chirp FMCW localization 20 times and
//! we report the mean and 90th-percentile absolute range error against the
//! laser-measured ground truth.
//!
//! Trials run through the deterministic trial-parallel runner: each trial
//! has its own RNG stream derived from `(0xF12A, trial index)`, so the
//! numbers are identical at any thread count (`MILBACK_THREADS` to pin).
//!
//! Paper anchors: mean error < 5 cm at 5 m and < 12 cm at 8 m, growing
//! with distance as echo SNR decays.

use milback_bench::experiments::fig12a_ranging;
use milback_bench::runner::RunnerConfig;
use milback_bench::{linspace, Report, Series};
use mmwave_sigproc::stats::ErrorSummary;

fn main() {
    let main_span = milback_bench::spans::span("main");
    let distances = linspace(1.0, 8.0, 8);
    let trials = 20;
    let cfg = RunnerConfig::from_env();

    let results = fig12a_ranging(&distances, trials, 0xF12A, &cfg);

    let mut mean_series = Series::new("mean error (cm)");
    let mut p90_series = Series::new("90th pct (cm)");
    let mut failed = 0;
    for r in &results {
        let summary = ErrorSummary::from_abs_errors(&r.abs_errors_m);
        mean_series.push(r.distance_m, summary.mean * 100.0);
        p90_series.push(r.distance_m, summary.p90 * 100.0);
        failed += r.failed;
    }
    let total = distances.len() * trials;

    let mut report = Report::new(
        "Figure 12a",
        "Ranging accuracy vs distance (20 trials/point, indoor clutter)",
        "distance (m)",
        "range error (cm)",
    );
    let mean_at = |s: &Series, x: f64| {
        s.points
            .iter()
            .find(|p| (p.0 - x).abs() < 1e-9)
            .and_then(|p| p.1)
            .unwrap_or(f64::NAN)
    };
    let m5 = mean_at(&mean_series, 5.0);
    let m8 = mean_at(&mean_series, 8.0);
    report.add_series(mean_series);
    report.add_series(p90_series);
    report.note(format!(
        "paper: mean < 5 cm at 5 m → measured {m5:.1} cm; mean < 12 cm at 8 m → measured {m8:.1} cm"
    ));
    report.note(
        "error grows with distance as the modulated echo SNR decays (same trend as the paper)",
    );
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

//! Figure 13b — Orientation estimation at the AP.
//!
//! The node sits 2 m away; port A toggles while port B absorbs; the AP
//! measures which part of the Field-2 sweep reflects strongest after
//! background subtraction. 25 trials per orientation, each with its own
//! deterministic RNG stream via the trial-parallel runner (root 0xF13B).
//!
//! Paper anchors: mean error < 1.5° generally, rising toward ~3° between
//! −6° and −2° where the FSA ground plane's switching-correlated mirror
//! reflection collides with the modulated backscatter.

use milback_bench::experiments::{fig13_orientation, OrientSide};
use milback_bench::runner::RunnerConfig;
use milback_bench::{Report, Series};
use mmwave_sigproc::stats::ErrorSummary;

fn main() {
    let main_span = milback_bench::spans::span("main");
    let orientations = [
        -24.0, -18.0, -12.0, -8.0, -6.0, -4.0, -2.0, 0.0, 4.0, 8.0, 12.0, 18.0, 24.0,
    ];
    let trials = 25;
    let cfg = RunnerConfig::from_env();

    let results = fig13_orientation(&orientations, trials, 0xF13B, &cfg, OrientSide::Ap);

    let mut mean_series = Series::new("mean error (deg)");
    let mut std_series = Series::new("std dev (deg)");
    let mut near_normal = Vec::new();
    let mut elsewhere = Vec::new();
    let mut failed = 0;
    for r in &results {
        let s = ErrorSummary::from_abs_errors(&r.abs_errors_deg);
        mean_series.push(r.orientation_deg, s.mean);
        std_series.push(r.orientation_deg, s.std_dev);
        if (-4.0..=4.0).contains(&r.orientation_deg) {
            near_normal.push(s.mean);
        } else {
            elsewhere.push(s.mean);
        }
        failed += r.failed;
    }
    let total = orientations.len() * trials;

    let mut report = Report::new(
        "Figure 13b",
        "AP-side orientation error vs orientation (25 trials, 2 m, port A toggling)",
        "orientation (deg)",
        "error (deg)",
    );
    report.add_series(mean_series);
    report.add_series(std_series);
    report.note(format!(
        "mean error in the mirror-collision band (±4° of normal): {:.2}°; elsewhere: {:.2}° (paper: error elevated near normal, ≤3° everywhere)",
        mmwave_sigproc::stats::mean(&near_normal),
        mmwave_sigproc::stats::mean(&elsewhere)
    ));
    report.note("cause: the switching-correlated fraction of the FSA ground-plane mirror reflection survives background subtraction (§9.3)");
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

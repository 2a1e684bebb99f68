//! Figure 10 — Dual-port FSA beam pattern.
//!
//! Gain vs azimuth for seven sample frequencies (26.5–29.5 GHz in 0.5 GHz
//! steps) on both ports — the HFSS plot of the paper, regenerated from the
//! series-fed array-factor model. Each (port, frequency) curve is one
//! trial of the trial-parallel runner (the sweep is deterministic, so the
//! per-trial RNG goes unused), computed through the hoisted
//! [`FsaGainEval`] evaluator — bit-exact with the direct per-call path.
//!
//! Paper anchors: every beam peaks above 10 dBi; beam direction sweeps
//! ≈60° across the band; the two ports' frequency→angle maps are mirrored.

use milback_bench::runner::{run_trials, RunnerConfig};
use milback_bench::{linspace, Report, Series};
use mmwave_rf::antenna::fsa::{FsaDesign, FsaGainEval, FsaPort};

fn main() {
    milback_bench::report_main(reports);
}

/// One report per port, whose CSVs are the
/// `results/figure_10_port_{a,b}.csv` anchors.
pub(crate) fn reports(cfg: &RunnerConfig) -> Vec<Report> {
    let fsa = FsaDesign::milback_default();
    let eval = FsaGainEval::new(&fsa);
    let angles = linspace(-45.0, 45.0, 91);
    let freqs: Vec<f64> = (0..7).map(|i| 26.5e9 + 0.5e9 * i as f64).collect();

    // One runner trial per (port, frequency) curve.
    let grid: Vec<(FsaPort, f64)> = [FsaPort::A, FsaPort::B]
        .iter()
        .flat_map(|&p| freqs.iter().map(move |&f| (p, f)))
        .collect();
    let angles_rad: Vec<f64> = angles.iter().map(|d| d.to_radians()).collect();
    let curves: Vec<Series> = run_trials(grid.len(), 0xF10, cfg, |i, _rng| {
        let (port, f) = grid[i];
        let fe = eval.at_freq(port, f);
        let mut gains = vec![0.0; angles_rad.len()];
        fe.gain_dbi_batch(&angles_rad, &mut gains);
        let mut s = Series::new(format!("{:.1} GHz", f / 1e9));
        for (&deg, &g) in angles.iter().zip(&gains) {
            s.push(deg, g);
        }
        s
    });

    let mirror = format!(
        "mirror check: port A @27.5 GHz → {:+.2}°, port B @27.5 GHz → {:+.2}°",
        fsa.beam_angle_rad(FsaPort::A, 27.5e9).unwrap().to_degrees(),
        fsa.beam_angle_rad(FsaPort::B, 27.5e9).unwrap().to_degrees()
    );
    let mut reports = Vec::new();
    for (pi, port) in [FsaPort::A, FsaPort::B].into_iter().enumerate() {
        let mut report = Report::new(
            format!("Figure 10 port {port:?}"),
            format!("FSA beam pattern, port {port:?} (gain vs azimuth per frequency)"),
            "azimuth (deg)",
            "gain (dBi)",
        );
        for s in &curves[pi * freqs.len()..(pi + 1) * freqs.len()] {
            report.add_series(s.clone());
        }
        // Summary anchors.
        let mut peaks = Vec::new();
        for &f in &freqs {
            let fe = eval.at_freq(port, f);
            let beam = fe.beam_angle_rad().unwrap();
            peaks.push((f, beam.to_degrees(), fe.gain_dbi(beam)));
        }
        let coverage = (peaks.last().unwrap().1 - peaks[0].1).abs();
        let min_peak = peaks.iter().map(|p| p.2).fold(f64::MAX, f64::min);
        report.note(format!(
            "scan coverage across 3 GHz: {coverage:.1}° (paper: >60°); weakest beam peak: {min_peak:.1} dBi (paper: >10 dBi)"
        ));
        for (f, deg, g) in &peaks {
            report.note(format!("{:.1} GHz → {deg:+.1}° at {g:.1} dBi", f / 1e9));
        }
        report.note(&mirror);
        reports.push(report);
    }
    reports
}

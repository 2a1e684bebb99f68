//! Figure 14 — Downlink performance.
//!
//! SINR at the node's MCU input vs AP–node distance for the OAQFM downlink
//! (two tones ~1 GHz apart, selected from the node's 12° orientation), and
//! the analytic BER the SINR implies. The Monte-Carlo spot checks run
//! through the trial-parallel runner (root seed 0xF14, one deterministic
//! stream per distance); failed transfers are reported, not swallowed.
//!
//! Paper anchors: SINR > 12 dB at 10 m (enough for BER < 1e-8); the curve
//! saturates near 23 dB at short range where cross-port tone leakage — not
//! noise — limits it (which is why the paper reports SINR, not SNR).

use milback_bench::experiments::fig14_spot_checks;
use milback_bench::runner::RunnerConfig;
use milback_bench::{linspace, Report, Series};
use milback_core::{LinkSimulator, Scene, SystemConfig};

fn main() {
    milback_bench::report_main(|cfg| vec![report(cfg)]);
}

/// The figure's report, whose CSV is the `results/figure_14.csv` anchor.
pub(crate) fn report(cfg: &RunnerConfig) -> Report {
    let distances = linspace(0.5, 12.0, 24);
    let orientation = 12f64.to_radians();

    let mut sinr_series = Series::new("SINR (dB)");
    let mut snr_series = Series::new("SNR-only (dB)");
    let mut ber_series = Series::new("log10 BER");

    for &d in &distances {
        let sim = LinkSimulator::new(
            SystemConfig::milback_default(),
            Scene::single_node(d, orientation),
        )
        .unwrap();
        let carriers = sim.plan_carriers(None).unwrap();
        let (f_a, f_b) = match carriers {
            milback_ap::waveform::CarrierSet::TwoTone { f_a, f_b } => (f_a, f_b),
            milback_ap::waveform::CarrierSet::SingleToneOok { f } => (f, f),
        };
        let psi = sim.scene.ground_truth(0).incidence_rad;
        let (ra, rb) = sim.downlink_sinr_breakdown(f_a, f_b, psi);
        let sinr = ra.sinr_db().min(rb.sinr_db());
        let snr = ra.snr_db().min(rb.snr_db());
        sinr_series.push(d, sinr);
        snr_series.push(d, snr);
        ber_series.push(
            d,
            LinkSimulator::downlink_ber_from_sinr(sinr)
                .max(1e-300)
                .log10(),
        );
    }

    // Monte-Carlo spot checks: deliver an actual payload at 2, 6 and 10 m.
    let spot_distances = [2.0, 6.0, 10.0];
    let payload_bytes = 256;
    let spots = fig14_spot_checks(&spot_distances, payload_bytes, 0xF14, cfg);

    let mut report = Report::new(
        "Figure 14",
        "Downlink SINR vs distance (OAQFM, carriers from 12° orientation, 36 Mbps)",
        "distance (m)",
        "SINR (dB) / log10 BER",
    );
    let at = |s: &Series, x: f64| {
        s.points
            .iter()
            .min_by(|a, b| (a.0 - x).abs().partial_cmp(&(b.0 - x).abs()).unwrap())
            .and_then(|p| p.1)
            .unwrap()
    };
    let s10 = at(&sinr_series, 10.0);
    let s2 = at(&sinr_series, 2.0);
    report.add_series(sinr_series);
    report.add_series(snr_series);
    report.add_series(ber_series);
    report.note(format!(
        "SINR at 10 m: {s10:.1} dB (paper: >12 dB → BER < 1e-8); SINR at 2 m: {s2:.1} dB (paper: ~23 dB, interference-limited)"
    ));
    report.note("short-range saturation = cross-port sidelobe leakage; SNR-only curve keeps climbing, which is why the paper reports SINR");
    for s in spots.oks() {
        report.note(format!(
            "waveform-level transfer at {} m: measured BER {:.1e}, SINR (analytic) {:.1} dB",
            s.distance_m, s.ber, s.sinr_db
        ));
    }
    for (i, e) in spots.failures() {
        report.note(format!("spot check at {} m FAILED: {e}", spot_distances[i]));
    }
    report.note(format!(
        "spot checks: {}; {} worker threads, deterministic per-trial streams",
        spots.summary(),
        cfg.threads
    ));
    report
}

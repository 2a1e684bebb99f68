//! Figure 15 — Uplink performance.
//!
//! SNR of the node's backscatter at the AP vs distance, for 10 Mbps
//! (Fig 15a) and 40 Mbps (Fig 15b), with the BER each SNR implies and
//! Monte-Carlo verification at selected distances. The Monte-Carlo cases
//! run through the trial-parallel runner (root seed 0xF15, one
//! deterministic stream per case); failed transfers are reported.
//!
//! Paper anchors: very low BER at 8 m for 10 Mbps (≈2e-4 annotation) and
//! at 6 m for 40 Mbps (≈8e-4); 40 Mbps costs 6 dB of SNR (4× bandwidth);
//! uplink SNR falls at 12 dB per distance doubling (two-way path loss).

use milback_bench::experiments::fig15_spot_checks;
use milback_bench::runner::RunnerConfig;
use milback_bench::{linspace, Report, Series};
use milback_core::{LinkSimulator, Scene, SystemConfig};

fn run_rate(label: &str, bit_rate: f64, distances: &[f64]) -> (Series, Series) {
    let mut snr = Series::new(format!("SNR {label} (dB)"));
    let mut ber = Series::new(format!("log10 BER {label}"));
    for &d in distances {
        let mut config = SystemConfig::milback_default();
        config.uplink_symbol_rate_hz = bit_rate / 2.0;
        let sim = LinkSimulator::new(config, Scene::single_node(d, 12f64.to_radians())).unwrap();
        let s = sim.uplink_analytic_snr_db().unwrap();
        snr.push(d, s);
        ber.push(d, LinkSimulator::uplink_ber_from_snr(s).max(1e-300).log10());
    }
    (snr, ber)
}

fn main() {
    milback_bench::report_main(|cfg| vec![report(cfg)]);
}

/// The figure's report, whose CSV is the `results/figure_15.csv` anchor.
pub(crate) fn report(cfg: &RunnerConfig) -> Report {
    let distances = linspace(0.5, 10.0, 20);
    let (snr10, ber10) = run_rate("10 Mbps", 10e6, &distances);
    let (snr40, ber40) = run_rate("40 Mbps", 40e6, &distances);

    // Monte-Carlo verification with real payloads.
    let cases = [(10e6, 8.0), (40e6, 6.0), (40e6, 8.0)];
    let payload_bytes = 50_000;
    let spots = fig15_spot_checks(&cases, payload_bytes, 0xF15, cfg);

    let at = |s: &Series, x: f64| {
        s.points
            .iter()
            .min_by(|a, b| (a.0 - x).abs().partial_cmp(&(b.0 - x).abs()).unwrap())
            .and_then(|p| p.1)
            .unwrap()
    };
    let a8 = at(&snr10, 8.0);
    let a6 = at(&snr40, 6.0);
    let gap = at(&snr10, 5.0) - at(&snr40, 5.0);

    let mut report = Report::new(
        "Figure 15",
        "Uplink SNR and BER vs distance, 10 Mbps (a) and 40 Mbps (b)",
        "distance (m)",
        "SNR (dB) / log10 BER",
    );
    report.add_series(snr10);
    report.add_series(ber10);
    report.add_series(snr40);
    report.add_series(ber40);
    report.note(format!(
        "10 Mbps at 8 m: {a8:.1} dB → BER {:.1e} (paper annotation ≈2e-4)",
        LinkSimulator::uplink_ber_from_snr(a8)
    ));
    report.note(format!(
        "40 Mbps at 6 m: {a6:.1} dB → BER {:.1e} (paper annotation ≈8e-4)",
        LinkSimulator::uplink_ber_from_snr(a6)
    ));
    report.note(format!(
        "rate penalty 10→40 Mbps: {gap:.1} dB (theory: 6.0 dB — 4× noise bandwidth, §9.5)"
    ));
    report.note("uplink SNR falls ~12 dB per distance doubling (signal attenuates through the channel twice, §9.5)");
    for s in spots.oks() {
        report.note(format!(
            "{} Mbps at {} m: measured SNR {:.1} dB, measured BER {:.1e} (analytic {:.1e})",
            s.bit_rate_bps / 1e6,
            s.distance_m,
            s.snr_db,
            s.ber,
            LinkSimulator::uplink_ber_from_snr(s.analytic_snr_db)
        ));
    }
    for (i, e) in spots.failures() {
        report.note(format!("spot check case {i} FAILED: {e}"));
    }
    report.note(format!(
        "spot checks: {}; {} worker threads, deterministic per-trial streams",
        spots.summary(),
        cfg.threads
    ));
    report
}

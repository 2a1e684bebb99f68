//! Ablation studies over the design choices DESIGN.md calls out: each
//! isolates one knob of the system and quantifies what it buys.
//!
//! The Monte-Carlo ablations (A1, A3, A6) run through the trial-parallel
//! runner with deterministic per-trial RNG streams; A2/A4/A5 are
//! deterministic component sweeps with no randomness to schedule.
//!
//! Run with: `cargo run --release -p milback-bench --bin ablations`

use milback_bench::experiments::ablation_impairments;
use milback_bench::runner::{run_fallible, RunnerConfig};
use milback_bench::{Report, Series};
use milback_core::localization::Impairments;
use milback_core::{LinkSimulator, LocalizationPipeline, Scene, SystemConfig};
use mmwave_rf::antenna::fsa::{FrequencyScanningAntenna, FsaDesign, FsaPort};
use mmwave_rf::antenna::Antenna;
use mmwave_rf::components::{EnvelopeDetector, SpdtSwitch};
use mmwave_sigproc::window::Window;

fn main() {
    let main_span = milback_bench::spans::span("main");
    ablate_subtraction_chirps();
    ablate_fsa_elements();
    ablate_window_choice();
    ablate_detector_speed();
    ablate_switch_speed();
    ablate_impairments();
    drop(main_span);
    milback_bench::spans::export_if_requested();
}

/// How many chirps does background subtraction need? The protocol uses 5
/// (§5.1); fewer lose detection margin, more buy diminishing returns.
fn ablate_subtraction_chirps() {
    let mut report = Report::new(
        "Ablation A1",
        "chirp count in background subtraction vs ranging (6 m, indoor)",
        "chirps",
        "mean error (cm) / confidence (dB)",
    );
    let mut err_series = Series::new("mean range error (cm)");
    let mut conf_series = Series::new("peak-to-floor (dB)");
    let chirp_counts = [2usize, 3, 5, 9];
    let trials = 10;
    let cfg = RunnerConfig::from_env();
    let pipeline = LocalizationPipeline::new(
        SystemConfig::milback_default(),
        Scene::indoor(6.0, 12f64.to_radians()),
    )
    .unwrap()
    .with_beat_threads(1);
    let batch = run_fallible(chirp_counts.len() * trials, 0xAB1, &cfg, |i, rng| {
        let n = chirp_counts[i / trials];
        let (rx1, _) = pipeline.capture(
            n,
            milback_core::localization::ToggleSelection { a: true, b: true },
            rng,
        );
        pipeline
            .processor
            .detect_node(&rx1)
            .map(|det| ((det.range_m - 6.0).abs() * 100.0, det.peak_to_floor_db))
            .map_err(|e| e.to_string())
    });
    for (k, chunk) in batch.results.chunks(trials).enumerate() {
        let errs: Vec<f64> = chunk
            .iter()
            .filter_map(|r| r.as_ref().ok().map(|v| v.0))
            .collect();
        let confs: Vec<f64> = chunk
            .iter()
            .filter_map(|r| r.as_ref().ok().map(|v| v.1))
            .collect();
        err_series.push(chirp_counts[k] as f64, mmwave_sigproc::stats::mean(&errs));
        conf_series.push(chirp_counts[k] as f64, mmwave_sigproc::stats::mean(&confs));
    }
    report.add_series(err_series);
    report.add_series(conf_series);
    report.note("5 chirps (the paper's choice) already saturates detection confidence");
    report.note(format!(
        "{}; {} worker threads",
        batch.summary(),
        cfg.threads
    ));
    {
        let _io = milback_bench::spans::span("io");
        report.emit();
    }
    println!();
}

/// FSA element count: gain and beamwidth vs the communication range the
/// extra gain buys (§11: "range can be increased by designing a larger FSA").
fn ablate_fsa_elements() {
    let mut report = Report::new(
        "Ablation A2",
        "FSA element count vs gain, beamwidth, and uplink SNR at 8 m",
        "elements",
        "dBi / deg / dB",
    );
    let mut gain_series = Series::new("peak gain (dBi)");
    let mut bw_series = Series::new("beamwidth (deg)");
    let mut snr_series = Series::new("uplink SNR@8m (dB)");
    for &n in &[4usize, 8, 16, 32] {
        let mut design = FsaDesign::for_band(26.5e9, 29.5e9, 30f64.to_radians(), 5, n);
        // Gain grows with aperture: +3 dB per doubling over the 8-element
        // calibration baseline.
        design.peak_gain_dbi = 13.0 + 10.0 * (n as f64 / 8.0).log10();
        let view = FrequencyScanningAntenna {
            design,
            port: FsaPort::A,
        };
        gain_series.push(n as f64, view.peak_gain_dbi(28e9));
        bw_series.push(n as f64, view.beamwidth_rad(28e9).to_degrees());

        let mut config = SystemConfig::milback_default();
        config.node.fsa.design = design;
        config.uplink_symbol_rate_hz = 5e6;
        let sim = LinkSimulator::new(config, Scene::single_node(8.0, 12f64.to_radians())).unwrap();
        snr_series.push(n as f64, sim.uplink_analytic_snr_db().unwrap());
    }
    report.add_series(gain_series);
    report.add_series(bw_series);
    report.add_series(snr_series);
    report.note("doubling the array adds ~3 dB of gain → ~6 dB of two-way uplink SNR, at the cost of halving the beamwidth (tighter orientation tolerance)");
    {
        let _io = milback_bench::spans::span("io");
        report.emit();
    }
    println!();
}

/// Range-FFT window: main-lobe width vs sidelobe leakage near strong
/// clutter.
fn ablate_window_choice() {
    let mut report = Report::new(
        "Ablation A3",
        "range-FFT window vs ranging error next to strong clutter (4 m node, 3.5 m shelf)",
        "window id (0=rect 1=hann 2=hamming 3=blackman)",
        "mean error (cm)",
    );
    let mut series = Series::new("mean range error (cm)");
    let windows = [
        Window::Rectangular,
        Window::Hann,
        Window::Hamming,
        Window::Blackman,
    ];
    let trials = 12;
    let cfg = RunnerConfig::from_env();
    let pipelines: Vec<LocalizationPipeline> = windows
        .iter()
        .map(|&w| {
            let mut p = LocalizationPipeline::new(
                SystemConfig::milback_default(),
                Scene::indoor(4.0, 12f64.to_radians()),
            )
            .unwrap()
            .with_beat_threads(1);
            p.processor.window = w;
            p
        })
        .collect();
    let batch = run_fallible(windows.len() * trials, 0xAB3, &cfg, |i, rng| {
        pipelines[i / trials]
            .localize(rng)
            .map(|f| (f.range_m - 4.0).abs() * 100.0)
            .map_err(|e| e.to_string())
    });
    for (k, chunk) in batch.results.chunks(trials).enumerate() {
        let errs: Vec<f64> = chunk
            .iter()
            .filter_map(|r| r.as_ref().ok().copied())
            .collect();
        series.push(k as f64, mmwave_sigproc::stats::mean(&errs));
    }
    report.add_series(series);
    report.note("Hann (the default) balances clutter-sidelobe rejection against main-lobe width");
    report.note(format!(
        "{}; {} worker threads",
        batch.summary(),
        cfg.threads
    ));
    {
        let _io = milback_bench::spans::span("io");
        report.emit();
    }
    println!();
}

/// Detector rise time caps the downlink symbol rate (§9.4: 36 Mbps with
/// the ADL6010; a faster detector raises it).
fn ablate_detector_speed() {
    let mut report = Report::new(
        "Ablation A4",
        "envelope-detector rise time vs max downlink rate",
        "rise time (ns)",
        "max bit rate (Mbps)",
    );
    let mut series = Series::new("max downlink (Mbps)");
    for &rise_ns in &[6.0, 12.0, 25.0, 50.0] {
        let mut det = EnvelopeDetector::adl6010();
        det.rise_time_s = rise_ns * 1e-9;
        series.push(rise_ns, det.max_symbol_rate_hz() * 2.0 / 1e6);
    }
    report.add_series(series);
    report.note("the paper's 36 Mbps sits at the ADL6010's ~12 ns class; §9.4: \"one can increase the data-rate further by using faster envelope detector\"");
    {
        let _io = milback_bench::spans::span("io");
        report.emit();
    }
    println!();
}

/// Switch toggle rate caps the uplink (§9.5: 160 Mbps with the ADRF5020).
fn ablate_switch_speed() {
    let mut report = Report::new(
        "Ablation A5",
        "switch toggle limit vs max uplink rate and node power",
        "switch limit (MHz)",
        "Mbps / mW",
    );
    let mut rate_series = Series::new("max uplink (Mbps)");
    let mut power_series = Series::new("uplink power (mW)");
    for &mhz in &[40.0, 80.0, 160.0, 320.0] {
        let mut sw = SpdtSwitch::adrf5020();
        sw.max_toggle_hz = mhz * 1e6;
        rate_series.push(mhz, sw.max_toggle_hz * 2.0 / 1e6);
        power_series.push(mhz, sw.power_at_rate_w(sw.max_toggle_hz) * 2.0 * 1e3 + 3.2);
    }
    report.add_series(rate_series);
    report.add_series(power_series);
    report.note("faster switches buy rate linearly but spend linearly more dynamic power — the 0.8 nJ/bit figure is rate-independent");
    {
        let _io = milback_bench::spans::span("io");
        report.emit();
    }
    println!();
}

/// Impairment ablation: which systematics cost how much ranging accuracy.
fn ablate_impairments() {
    let mut report = Report::new(
        "Ablation A6",
        "impairment contributions to ranging error at 8 m (10 trials each)",
        "case id (0=none 1=+bounce 2=+flicker/stitch 3=full)",
        "mean error (cm)",
    );
    let mut series = Series::new("mean range error (cm)");
    let cases: Vec<(f64, Impairments)> = vec![
        (0.0, Impairments::none()),
        (1.0, {
            let mut imp = Impairments::none();
            let full = Impairments::milback_default();
            imp.bounce_height_m = full.bounce_height_m;
            imp.bounce_height_jitter_m = full.bounce_height_jitter_m;
            imp.bounce_theta0_rad = full.bounce_theta0_rad;
            imp
        }),
        (2.0, {
            let mut imp = Impairments::none();
            let full = Impairments::milback_default();
            imp.clutter_flicker = full.clutter_flicker;
            imp.stitch_phase_rad = full.stitch_phase_rad;
            imp
        }),
        (3.0, Impairments::milback_default()),
    ];
    let trials = 10;
    let cfg = RunnerConfig::from_env();
    let results = ablation_impairments(&cases, 8.0, trials, 0xAB6, &cfg);
    let mut failed = 0;
    for r in &results {
        series.push(r.case_id, mmwave_sigproc::stats::mean(&r.abs_errors_cm));
        failed += r.failed;
    }
    report.add_series(series);
    report.note("the unresolved ground bounce dominates long-range error; flicker/stitch are second-order; placement error adds a ~1 cm floor everywhere");
    report.note(format!(
        "{} ok / {failed} failed ({} trials); {} worker threads",
        cases.len() * trials - failed,
        cases.len() * trials,
        cfg.threads
    ));
    {
        let _io = milback_bench::spans::span("io");
        report.emit();
    }
}

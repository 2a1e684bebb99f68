//! Figure 11 — OAQFM microbenchmark.
//!
//! The node sits 2 m from the AP; the AP picks 27.5/28.5 GHz-class carriers
//! from the node's orientation and sends the four symbols 00, 01, 10, 11
//! back-to-back at 1 µs per symbol. We print the envelope-detector output
//! voltage at both FSA ports over time — the waveform the paper's scope
//! shot shows: each port responds only to its own tone.
//!
//! The per-symbol port powers run as runner trials through the memoized
//! [`FsaGainEval`] port-coupling path; the detector-noise stream is trial
//! stream 0 of root seed 0xF11 (identical to the historical
//! `GaussianSource::new(0xF11)` stream, since trial 0's seed is the root).

use milback_bench::runner::{run_trials, trial_rng, RunnerConfig};
use milback_bench::{Report, Series};
use milback_core::{LinkSimulator, Scene, SystemConfig};
use milback_node::node::port_powers_for_tones_eval;
use mmwave_rf::antenna::fsa::FsaGainEval;
use mmwave_sigproc::waveform::OaqfmSymbol;

fn main() {
    milback_bench::report_main(|cfg| vec![report(cfg)]);
}

/// The figure's report, whose CSV is the `results/figure_11.csv` anchor.
pub(crate) fn report(cfg: &RunnerConfig) -> Report {
    let mut config = SystemConfig::milback_default();
    // 1 µs symbols as in the microbenchmark (§9.1).
    config.downlink_symbol_rate_hz = 1e6;
    let scene = Scene::single_node(2.0, 12f64.to_radians());
    let sim = LinkSimulator::new(config.clone(), scene.clone()).unwrap();

    let carriers = sim.plan_carriers(None).unwrap();
    let (f_a, f_b) = match carriers {
        milback_ap::waveform::CarrierSet::TwoTone { f_a, f_b } => (f_a, f_b),
        milback_ap::waveform::CarrierSet::SingleToneOok { f } => (f, f),
    };

    // Build the 4-symbol power traces through the channel and detectors.
    let gt = scene.ground_truth(0);
    let symbols: Vec<OaqfmSymbol> = (0..4).map(OaqfmSymbol::from_bits).collect();
    let trace_rate = 200e6;
    let sps = (trace_rate / config.downlink_symbol_rate_hz) as usize;
    let eval = FsaGainEval::for_dual(&config.node.fsa);
    let powers: Vec<(f64, f64)> = run_trials(symbols.len(), 0xF11, cfg, |i, _rng| {
        let s = &symbols[i];
        let mut tones = Vec::new();
        if s.tone_a {
            tones.push((f_a, incident(&sim, f_a)));
        }
        if s.tone_b {
            tones.push((f_b, incident(&sim, f_b)));
        }
        let p = port_powers_for_tones_eval(&eval, gt.incidence_rad, &tones);
        (p.a_w, p.b_w)
    });
    let mut pa = Vec::new();
    let mut pb = Vec::new();
    for &(a_w, b_w) in &powers {
        pa.extend(std::iter::repeat_n(a_w, sps));
        pb.extend(std::iter::repeat_n(b_w, sps));
    }
    let mut rng = trial_rng(0xF11, 0);
    let (va, vb) = config.node.detector_traces(&pa, &pb, trace_rate, &mut rng);

    // Report decimated traces (100 points per symbol period).
    let mut report = Report::new(
        "Figure 11",
        "OAQFM microbenchmark: detector voltage at both ports, symbols 00|01|10|11 @1 µs",
        "time (µs)",
        "detector output (mV)",
    );
    let step = sps / 12;
    let mut sa = Series::new("port A (mV)");
    let mut sb = Series::new("port B (mV)");
    for i in (0..va.len()).step_by(step) {
        let t_us = i as f64 / trace_rate * 1e6;
        sa.push(t_us, va[i] * 1e3);
        sb.push(t_us, vb[i] * 1e3);
    }
    report.add_series(sa);
    report.add_series(sb);
    report.note(format!(
        "AP selected carriers from orientation: f_A = {:.2} GHz, f_B = {:.2} GHz",
        f_a / 1e9,
        f_b / 1e9
    ));

    // Per-symbol means — the decision statistics.
    let mut quiet = (0.0, 0.0);
    for (i, s) in symbols.iter().enumerate() {
        let seg_a = &va[i * sps + sps / 2..(i + 1) * sps];
        let seg_b = &vb[i * sps + sps / 2..(i + 1) * sps];
        let ma = mmwave_sigproc::stats::mean(seg_a) * 1e3;
        let mb = mmwave_sigproc::stats::mean(seg_b) * 1e3;
        if i == 0 {
            quiet = (ma, mb);
        }
        report.note(format!(
            "symbol {:02b}: port A = {ma:.2} mV, port B = {mb:.2} mV",
            s.to_bits()
        ));
    }
    report.note(format!(
        "off-level (symbol 00): A {:.3} mV, B {:.3} mV — tones separate cleanly at the two ports as in the paper's scope capture",
        quiet.0, quiet.1
    ));
    report
}

fn incident(sim: &LinkSimulator, f: f64) -> f64 {
    use mmwave_rf::antenna::Antenna;
    let gt = sim.scene.ground_truth(0);
    let tx_w = mmwave_sigproc::units::dbm_to_watts(sim.config.ap.tx.port_power_dbm());
    let horn = mmwave_rf::antenna::Horn::miwave_20dbi();
    let g = mmwave_sigproc::units::db_to_lin(horn.gain_dbi(f, gt.azimuth_rad));
    mmwave_rf::channel::received_power_w(tx_w, g, 1.0, f, gt.range_m)
}

//! The paper's claims as bounds: each figure and table quantity the paper
//! states in prose, recomputed from the library and held to the paper's
//! number. These tests read no CSV; `tests/anchors.rs` pins the committed
//! anchors byte for byte, while these say whether the numbers still tell
//! the paper's story.

use milback::ap::waveform::CarrierSet;
use milback::baselines::{
    capability_table, BackscatterSystem, MilBackSystem, Millimetro, MmTag, OmniScatter,
};
use milback::core::{LinkSimulator, Scene, SystemConfig};
use milback::node::{NodeActivity, NodePowerModel};
use milback::rf::antenna::fsa::{FsaDesign, FsaPort};
use milback::rf::antenna::Antenna;

fn sim_at(d: f64, rate_sym_hz: f64) -> LinkSimulator {
    let mut config = SystemConfig::milback_default();
    config.uplink_symbol_rate_hz = rate_sym_hz;
    LinkSimulator::new(config, Scene::single_node(d, 12f64.to_radians())).unwrap()
}

/// Fig 10: >10 dBi beams, ≥60° scan from 3 GHz, mirrored ports.
#[test]
fn fig10_fsa_anchors() {
    let fsa = FsaDesign::milback_default();
    assert!(fsa.scan_coverage_rad().to_degrees() >= 59.9);
    for i in 0..7 {
        let f = 26.5e9 + 0.5e9 * i as f64;
        let view = milback::rf::antenna::fsa::FrequencyScanningAntenna {
            design: fsa,
            port: FsaPort::A,
        };
        assert!(view.peak_gain_dbi(f) > 10.0, "beam at {f:.2e} below 10 dBi");
        let a = fsa.beam_angle_rad(FsaPort::A, f).unwrap();
        let b = fsa.beam_angle_rad(FsaPort::B, f).unwrap();
        assert!((a + b).abs() < 1e-9, "ports not mirrored at {f:.2e}");
    }
}

/// Fig 11: at 2 m the four OAQFM symbols are separable at the detectors
/// with >10 dB on/off contrast per port.
#[test]
fn fig11_symbol_contrast() {
    let sim = sim_at(2.0, 20e6);
    let carriers = sim.plan_carriers(None).unwrap();
    let (f_a, f_b) = match carriers {
        CarrierSet::TwoTone { f_a, f_b } => (f_a, f_b),
        other => panic!("expected two tones at 12°, got {other:?}"),
    };
    let psi = sim.scene.ground_truth(0).incidence_rad;
    let (ra, rb) = sim.downlink_sinr_breakdown(f_a, f_b, psi);
    assert!(ra.sinr_db() > 10.0 && rb.sinr_db() > 10.0);
}

/// Fig 14 anchors: SINR ≥ ~12 dB at 10 m; saturates near ~23 dB close in;
/// BER mapping puts 12 dB at ≈1e-8.
#[test]
fn fig14_downlink_anchors() {
    let eval = |d: f64| {
        let sim = sim_at(d, 20e6);
        let carriers = sim.plan_carriers(None).unwrap();
        let (f_a, f_b) = match carriers {
            CarrierSet::TwoTone { f_a, f_b } => (f_a, f_b),
            CarrierSet::SingleToneOok { f } => (f, f),
        };
        let psi = sim.scene.ground_truth(0).incidence_rad;
        let (ra, rb) = sim.downlink_sinr_breakdown(f_a, f_b, psi);
        ra.sinr_db().min(rb.sinr_db())
    };
    let s10 = eval(10.0);
    let s1 = eval(1.0);
    assert!((11.0..16.0).contains(&s10), "SINR@10m {s10:.1}");
    assert!((19.0..27.0).contains(&s1), "SINR@1m {s1:.1}");
    let ber = LinkSimulator::downlink_ber_from_sinr(12.0);
    assert!(ber < 5e-8 && ber > 1e-9, "BER at 12 dB: {ber:.1e}");
}

/// Fig 15 anchors: ≈11 dB at 8 m / 10 Mbps (BER ~2e-4), ≈10 dB at 6 m /
/// 40 Mbps (BER ~8e-4), 6 dB rate penalty, −12 dB per distance doubling.
#[test]
fn fig15_uplink_anchors() {
    let s10_8 = sim_at(8.0, 5e6).uplink_analytic_snr_db().unwrap();
    assert!((9.0..13.5).contains(&s10_8), "10M@8m {s10_8:.1}");
    let ber = LinkSimulator::uplink_ber_from_snr(s10_8);
    assert!((1e-5..2e-3).contains(&ber), "BER at 8 m {ber:.1e}");

    let s40_6 = sim_at(6.0, 20e6).uplink_analytic_snr_db().unwrap();
    assert!((8.5..12.5).contains(&s40_6), "40M@6m {s40_6:.1}");

    let penalty = sim_at(5.0, 5e6).uplink_analytic_snr_db().unwrap()
        - sim_at(5.0, 20e6).uplink_analytic_snr_db().unwrap();
    assert!((penalty - 6.02).abs() < 0.1, "rate penalty {penalty:.2}");

    let slope = sim_at(4.0, 5e6).uplink_analytic_snr_db().unwrap()
        - sim_at(8.0, 5e6).uplink_analytic_snr_db().unwrap();
    assert!((slope - 12.04).abs() < 0.2, "distance slope {slope:.2}");
}

/// §9.6 anchors: 18 mW / 32 mW node power; 0.5 / 0.8 nJ per bit; 3× better
/// than mmTag's 2.4 nJ/bit.
#[test]
fn power_anchors() {
    let m = NodePowerModel::milback_default();
    let dl = m.power_w(NodeActivity::Downlink);
    let ul = m.power_w(NodeActivity::Uplink);
    assert!((dl - 18e-3).abs() < 0.5e-3);
    assert!((ul - 32e-3).abs() < 0.5e-3);
    assert!((m.energy_per_bit_j(NodeActivity::Downlink, 36e6) - 0.5e-9).abs() < 0.05e-9);
    assert!((m.energy_per_bit_j(NodeActivity::Uplink, 40e6) - 0.8e-9).abs() < 0.05e-9);
    let mmtag = MmTag::published().uplink_energy_per_bit_j().unwrap();
    assert!((mmtag / m.energy_per_bit_j(NodeActivity::Uplink, 40e6) - 3.0).abs() < 0.1);
}

/// Table 1: the generated capability matrix matches the paper row-for-row.
#[test]
fn table1_matrix() {
    let mmtag = MmTag::published();
    let millimetro = Millimetro::published();
    let omni = OmniScatter::published();
    let milback = MilBackSystem::published();
    let rows = capability_table(&[&mmtag, &millimetro, &omni, &milback]);
    let expect = [
        // (uplink, localization, downlink, orientation)
        (true, false, false, false), // mmTag
        (false, true, false, false), // Millimetro
        (true, true, false, false),  // OmniScatter
        (true, true, true, true),    // MilBack
    ];
    for (row, &(u, l, d, o)) in rows.iter().zip(&expect) {
        assert_eq!(
            (row.uplink, row.localization, row.downlink, row.orientation),
            (u, l, d, o),
            "capability mismatch for {}",
            row.system
        );
    }
}

/// Rate ceilings stated in §9.4/§9.5: downlink ≤36 Mbps (detector-limited),
/// uplink ≤160 Mbps (switch-limited).
#[test]
fn rate_ceiling_anchors() {
    let config = SystemConfig::milback_default();
    // Paper operating points validate…
    assert!(config.validate().is_ok());
    // …the detector allows 36 Mbps (18 Msym/s) but not 100 Mbps.
    let mut too_fast = config.clone();
    too_fast.downlink_symbol_rate_hz = 50e6;
    too_fast.trace_rate_hz = 400e6;
    assert!(too_fast.validate().is_err());
    // …the switch allows 160 Mbps (80 Msym/s) but not 200 Msym/s.
    let mut ul_max = config.clone();
    ul_max.uplink_symbol_rate_hz = 80e6;
    assert!(ul_max.validate().is_ok());
    let mut ul_over = config;
    ul_over.uplink_symbol_rate_hz = 200e6;
    assert!(ul_over.validate().is_err());
}

/// Fig 12a envelope: the full pipeline keeps mean ranging error under the
/// paper's stated bounds (<5 cm at 5 m, <12 cm at 8 m).
#[test]
fn fig12a_envelope() {
    use milback::core::LocalizationPipeline;
    use milback::sigproc::random::GaussianSource;
    let mut rng = GaussianSource::new(0xA12);
    for &(d, bound) in &[(5.0, 0.05), (8.0, 0.12)] {
        let p = LocalizationPipeline::new(
            SystemConfig::milback_default(),
            Scene::indoor(d, 12f64.to_radians()),
        )
        .unwrap();
        let errs: Vec<f64> = (0..12)
            .filter_map(|_| p.localize(&mut rng).ok())
            .map(|f| (f.range_m - d).abs())
            .collect();
        let mean = milback::sigproc::stats::mean(&errs);
        assert!(mean < bound, "{d} m: mean {mean:.3} m > {bound}");
    }
}

/// The horn the AP uses really is a 20 dBi Mi-Wave-class horn.
#[test]
fn implementation_anchors() {
    let horn = milback::rf::antenna::Horn::miwave_20dbi();
    assert_eq!(horn.gain_dbi(28e9, 0.0), 20.0);
    let config = SystemConfig::milback_default();
    assert!((config.ap.tx.port_power_dbm() - 27.0).abs() < 0.3);
    assert_eq!(config.fmcw.field1_chirp_s, 45e-6);
    assert_eq!(config.fmcw.field2_chirp_s, 18e-6);
    assert_eq!(config.fmcw.bandwidth_hz, 3e9);
    assert_eq!(config.node.adc.sample_rate_hz, 1e6);
    assert_eq!(config.localization_toggle_hz, 10e3);
}

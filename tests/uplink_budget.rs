//! The split symbol-level uplink — a per-node `UplinkBudget` plus the
//! per-packet `UplinkBudget::run` kernel.
//!
//! Parity: against the per-packet composition it replaced (a fresh
//! `LinkSimulator` per packet, carriers planned, both channels
//! synthesized, then `UplinkReceiver::decide`, `measure_channel_snr_db`
//! and `symbol_ber`), every `UplinkOutcome` field is compared by
//! `to_bits`, errors by their debug rendering, and the RNG position
//! afterwards by its next draw, so a changed draw count or draw order
//! fails too.
//!
//! Cache guard: a campaign builds each served node's budget once, not
//! once per packet.

use milback::ap::uplink_rx::{measure_channel_snr_db, symbol_ber, UplinkReceiver};
use milback::ap::waveform::CarrierSet;
use milback::core::link::{UplinkOutcome, UplinkScratch};
use milback::core::protocol::{Packet, SlotPlan};
use milback::core::{
    CampaignProbe, CampaignSpec, LinkSimulator, MilbackError, Network, Scene, SdmAwareAssignment,
    SlottedRunReport, SystemConfig,
};
use milback::node::mode::PortMode;
use milback::node::uplink::UplinkModulator;
use milback::rf::antenna::fsa::FsaPort;
use milback::sigproc::random::GaussianSource;
use milback::sigproc::stats::mean;
use milback::sigproc::units::db_to_lin;
use milback::sigproc::waveform::{bytes_to_symbols, symbols_to_bytes};

type Outcome = Result<UplinkOutcome, MilbackError>;

/// The per-packet uplink as it ran before the budget/kernel split.
fn reference_uplink(
    config: &SystemConfig,
    scene: &Scene,
    payload: &[u8],
    rng: &mut GaussianSource,
) -> Outcome {
    let sim = LinkSimulator::new(config.clone(), scene.clone())?;
    let carriers = sim.plan_carriers(None)?;
    if payload.is_empty() {
        let snr = sim.uplink_analytic_snr_db()?;
        return Ok(UplinkOutcome {
            decoded: Vec::new(),
            ber: 0.0,
            snr_db: snr,
            analytic_snr_db: snr,
        });
    }
    let (f_a, f_b) = match carriers {
        CarrierSet::TwoTone { f_a, f_b } => (f_a, f_b),
        CarrierSet::SingleToneOok { f } => (f, f),
    };
    let modulator =
        UplinkModulator::new(sim.config.uplink_symbol_rate_hz, &sim.config.node.switch_a)
            .map_err(MilbackError::UplinkTx)?;
    let symbols = bytes_to_symbols(payload);
    let schedule = modulator.schedule_for_symbols(&symbols);
    let snr_a = db_to_lin(sim.uplink_channel_snr_db(f_a, FsaPort::A));
    let snr_b = db_to_lin(sim.uplink_channel_snr_db(f_b, FsaPort::B));
    let node = &sim.config.node;
    let mk_channel = |port: FsaPort, snr_lin: f64, rng: &mut GaussianSource| -> Vec<f64> {
        let hi = node.reflection_amplitude(port, PortMode::Reflective);
        let lo = node.reflection_amplitude(port, PortMode::Absorptive);
        let swing_half = (hi - lo) / 2.0;
        let sigma = swing_half / snr_lin.sqrt();
        schedule
            .iter()
            .map(|st| {
                let mode = match port {
                    FsaPort::A => st.a,
                    FsaPort::B => st.b,
                };
                let level = match mode {
                    PortMode::Reflective => hi,
                    PortMode::Absorptive => lo,
                };
                level + rng.sample(sigma)
            })
            .collect()
    };
    let stats_a = mk_channel(FsaPort::A, snr_a, rng);
    let stats_b = mk_channel(FsaPort::B, snr_b, rng);
    let decided = UplinkReceiver::new(1)
        .decide(&stats_a, &stats_b)
        .map_err(MilbackError::UplinkRx)?;
    let ber = symbol_ber(&symbols, &decided);
    let bits_a: Vec<bool> = symbols.iter().map(|s| s.tone_a).collect();
    let bits_b: Vec<bool> = symbols.iter().map(|s| s.tone_b).collect();
    let analytic_db = 10.0 * ((snr_a + snr_b) / 2.0).log10();
    let mut channel_snrs = Vec::with_capacity(2);
    for (stats, bits) in [(&stats_a, &bits_a), (&stats_b, &bits_b)] {
        if bits.iter().any(|&b| b) && bits.iter().any(|&b| !b) {
            channel_snrs.extend(measure_channel_snr_db(stats, bits));
        }
    }
    let measured = if channel_snrs.is_empty() {
        analytic_db
    } else {
        mean(&channel_snrs)
    };
    Ok(UplinkOutcome {
        decoded: symbols_to_bytes(&decided),
        ber,
        snr_db: measured,
        analytic_snr_db: analytic_db,
    })
}

fn assert_same(want: &Outcome, got: &Outcome, what: &str) {
    match (want, got) {
        (Ok(w), Ok(g)) => {
            assert_eq!(w.decoded, g.decoded, "{what}: decoded");
            assert_eq!(w.ber.to_bits(), g.ber.to_bits(), "{what}: ber");
            assert_eq!(w.snr_db.to_bits(), g.snr_db.to_bits(), "{what}: snr_db");
            assert_eq!(
                w.analytic_snr_db.to_bits(),
                g.analytic_snr_db.to_bits(),
                "{what}: analytic_snr_db"
            );
        }
        (Err(w), Err(g)) => assert_eq!(format!("{w:?}"), format!("{g:?}"), "{what}: error"),
        _ => panic!("{what}: reference {want:?} vs split {got:?}"),
    }
}

/// Runs `payloads` in sequence three ways from one seed — the reference,
/// `LinkSimulator::uplink`, and one reused budget and scratch (the
/// campaign's use) — and checks all three agree. Returns the case count.
fn check_sequence(config: &SystemConfig, view: &Scene, seed: u64, payloads: &[Vec<u8>]) -> usize {
    let mut rng_ref = GaussianSource::new(seed);
    let mut rng_sim = GaussianSource::new(seed);
    let mut rng_kernel = GaussianSource::new(seed);
    let sim = LinkSimulator::new(config.clone(), view.clone());
    let budget = sim
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|s| s.uplink_budget());
    let mut scratch = UplinkScratch::default();
    for (k, payload) in payloads.iter().enumerate() {
        let what = format!("seed {seed} packet {k} ({} B)", payload.len());
        let want = reference_uplink(config, view, payload, &mut rng_ref);
        let via_sim = sim
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|s| s.uplink(payload, &mut rng_sim));
        let via_kernel = budget.clone().and_then(|b| {
            let m = b.run(payload, &mut rng_kernel, &mut scratch)?;
            Ok(UplinkOutcome {
                decoded: scratch.decoded().to_vec(),
                ber: m.ber,
                snr_db: m.snr_db,
                analytic_snr_db: m.analytic_snr_db,
            })
        });
        assert_same(&want, &via_sim, &format!("{what}, LinkSimulator::uplink"));
        assert_same(&want, &via_kernel, &format!("{what}, reused budget"));
        let next = rng_ref.standard().to_bits();
        assert_eq!(next, rng_sim.standard().to_bits(), "{what}: rng position");
        assert_eq!(
            next,
            rng_kernel.standard().to_bits(),
            "{what}: rng position"
        );
    }
    payloads.len()
}

#[test]
fn split_uplink_matches_per_packet_reference_bitwise() {
    let config = SystemConfig::milback_default();
    let mut cases = 0;
    // 12° two-tone OAQFM, 0° normal-incidence OOK (f_a = f_b), and -20°.
    for orientation_deg in [12.0f64, 0.0, -20.0] {
        for radius_m in [2.0, 6.0, 9.5] {
            let scene = Scene::arc(
                16,
                radius_m,
                120f64.to_radians(),
                orientation_deg.to_radians(),
            );
            for node in 0..scene.nodes.len() {
                let view = scene.view_for_node_checked(node).unwrap();
                for seed in [1u64, 0xC0FFEE] {
                    let mut gen = GaussianSource::new(seed ^ node as u64);
                    let payloads = vec![
                        gen.bytes(1),
                        gen.bytes(16),
                        vec![0x00],
                        vec![0x00; 16],
                        vec![0xFF; 4],
                        vec![0x55; 16],
                        gen.bytes(16),
                    ];
                    cases += check_sequence(&config, &view, seed, &payloads);
                }
                if node % 8 == 0 {
                    let mut gen = GaussianSource::new(node as u64);
                    cases += check_sequence(&config, &view, 7, &[gen.bytes(2048)]);
                }
            }
        }
    }
    assert!(cases >= 1000, "only {cases} cases");
}

#[test]
fn split_uplink_reports_the_reference_errors() {
    let config = SystemConfig::milback_default();
    let payloads = [vec![0xA5; 16], Vec::new(), vec![0x00; 4]];
    // Carrier planning fails: the orientation is outside the FSA's scan.
    let out_of_scan = Scene::single_node(3.0, 80f64.to_radians());
    let mut rng = GaussianSource::new(3);
    assert!(matches!(
        reference_uplink(&config, &out_of_scan, &payloads[0], &mut rng),
        Err(MilbackError::Query(_))
    ));
    check_sequence(&config, &out_of_scan, 3, &payloads);

    // The switch check fails after validation passes (a NaN symbol rate):
    // a modulation error for a payload, none for an empty transfer.
    let mut nan_rate = config.clone();
    nan_rate.uplink_symbol_rate_hz = f64::NAN;
    let view = Scene::single_node(3.0, 12f64.to_radians());
    let mut rng = GaussianSource::new(4);
    assert!(matches!(
        reference_uplink(&nan_rate, &view, &payloads[0], &mut rng),
        Err(MilbackError::UplinkTx(_))
    ));
    assert!(reference_uplink(&nan_rate, &view, &payloads[1], &mut rng).is_ok());
    check_sequence(&nan_rate, &view, 4, &payloads);

    // A noiseless channel: an all-zero payload leaves no contrast to slice.
    let mut loud = config.clone();
    loud.ap.tx.feed_loss_db = f64::NEG_INFINITY;
    let mut rng = GaussianSource::new(5);
    assert!(matches!(
        reference_uplink(&loud, &view, &payloads[2], &mut rng),
        Err(MilbackError::UplinkRx(_))
    ));
    check_sequence(&loud, &view, 5, &payloads);
}

/// The 64-node ±60° sector at 4 m under collision-free SDM-aware
/// assignment, 8 slots a frame for 24 frames: every node is served about
/// fifteen times, so a per-packet budget build shows as a 15× counter.
#[test]
fn campaign_builds_each_budget_once() {
    let config = SystemConfig::milback_default();
    let net = Network::new(
        config.clone(),
        Scene::arc(64, 4.0, 120f64.to_radians(), 12f64.to_radians()),
    )
    .unwrap();
    let payload = GaussianSource::new(11).bytes(16);
    let plan = SlotPlan::for_packet(
        8,
        &Packet::uplink(payload.clone()),
        &config.fmcw,
        config.uplink_symbol_rate_hz,
        10e-6,
    )
    .unwrap();
    let mut probe = CampaignProbe::with_metrics();
    let report: SlottedRunReport = net
        .run(
            &CampaignSpec::new(24, &payload, plan),
            Box::new(SdmAwareAssignment::new()),
            &mut GaussianSource::new(12),
            &mut probe,
        )
        .unwrap();
    let metrics = probe.take_metrics().unwrap();
    let served: usize = report.nodes.iter().map(|r| r.attempts).sum();
    let served_nodes = report.nodes.iter().filter(|r| r.attempts > 0).count();
    assert_eq!(report.nodes.iter().map(|r| r.collisions).sum::<usize>(), 0);
    assert!(served >= 12 * net.node_count(), "{served} uplinks served");
    assert_eq!(
        metrics.counter("link_budgets"),
        served_nodes as u64,
        "one budget per served node, not per uplink ({served} served)"
    );
    assert!(served_nodes <= net.node_count());
}

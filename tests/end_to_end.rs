//! Cross-crate integration tests: the full MilBack session flow — sense,
//! plan, communicate — through the public umbrella API.

use milback::ap::waveform::CarrierSet;
use milback::core::network::localize_all_doppler;
use milback::core::protocol::{Packet, SlotPlan};
use milback::core::{
    ApServiceConfig, CampaignAggregate, CampaignProbe, CampaignSpec, LinkSimulator,
    LocalizationPipeline, MacPolicy, MilbackError, Network, Scene, SdmAwareAssignment,
    SlottedAloha, SlottedRunReport, SystemConfig,
};
use milback::sigproc::random::GaussianSource;

/// The canonical session: localize the node, sense its orientation, plan
/// carriers from the *estimate* (not ground truth), then move data both
/// ways. This is the paper's §7 protocol exercised end to end.
#[test]
fn full_session_from_estimates() {
    let config = SystemConfig::milback_default();
    let scene = Scene::indoor(4.0, 15f64.to_radians());
    let mut rng = GaussianSource::new(0xE2E);

    let pipeline = LocalizationPipeline::new(config.clone(), scene.clone()).unwrap();
    let gt = scene.ground_truth(0);

    // Localize.
    let fix = pipeline.localize(&mut rng).expect("localization");
    assert!(
        (fix.range_m - gt.range_m).abs() < 0.15,
        "range {:.3}",
        fix.range_m
    );
    assert!(
        (fix.angle_rad - gt.azimuth_rad).abs().to_degrees() < 5.0,
        "angle {:.2}°",
        fix.angle_rad.to_degrees()
    );

    // Orientation at the AP, then carriers planned from that estimate.
    let orientation = pipeline.orient_at_ap(&mut rng).expect("orientation");
    assert!(
        (orientation - gt.incidence_rad).abs().to_degrees() < 4.0,
        "orientation {:.2}°",
        orientation.to_degrees()
    );

    let sim = LinkSimulator::new(config, scene).unwrap();
    let carriers = sim.plan_carriers(Some(orientation)).expect("carriers");
    assert!(matches!(carriers, CarrierSet::TwoTone { .. }));

    // Downlink and uplink payloads both arrive intact at 4 m.
    let down = sim.downlink(b"cfg:rate=40M;chan=2", &mut rng).unwrap();
    assert_eq!(down.decoded, b"cfg:rate=40M;chan=2");
    assert_eq!(down.ber, 0.0);
    let up = sim.uplink(b"ack+telemetry", &mut rng).unwrap();
    assert_eq!(up.decoded, b"ack+telemetry");
    assert_eq!(up.ber, 0.0);
}

/// A 3–4° orientation-estimate error must not break communication — the
/// §9.3 claim that beam width (~10°) absorbs estimation error.
#[test]
fn communication_tolerates_orientation_error() {
    let config = SystemConfig::milback_default();
    let scene = Scene::single_node(4.0, 15f64.to_radians());
    let sim = LinkSimulator::new(config, scene).unwrap();
    let true_psi = sim.scene.ground_truth(0).incidence_rad;
    let mut rng = GaussianSource::new(0xE2F);

    // Plan with a deliberately wrong estimate, 3.5° off.
    let wrong = true_psi + 3.5f64.to_radians();
    let carriers = sim.plan_carriers(Some(wrong)).unwrap();
    let (f_a, f_b) = match carriers {
        CarrierSet::TwoTone { f_a, f_b } => (f_a, f_b),
        other => panic!("expected two tones, got {other:?}"),
    };
    let (ra, rb) = sim.downlink_sinr_breakdown(f_a, f_b, true_psi);
    let sinr = ra.sinr_db().min(rb.sinr_db());
    assert!(
        sinr > 12.0,
        "SINR with mis-planned carriers only {sinr:.1} dB"
    );

    let down = sim.downlink(b"still works", &mut rng).unwrap();
    assert_eq!(down.decoded, b"still works");
}

/// Uplink and downlink stay intact across the paper's full evaluated range.
#[test]
fn two_way_links_across_distances() {
    let mut rng = GaussianSource::new(0xD15);
    for &d in &[1.0, 2.0, 4.0, 6.0, 8.0] {
        let sim = LinkSimulator::new(
            SystemConfig::milback_default(),
            Scene::single_node(d, 12f64.to_radians()),
        )
        .unwrap();
        let payload: Vec<u8> = rng.bytes(128);
        let down = sim.downlink(&payload, &mut rng).unwrap();
        assert_eq!(down.decoded, payload, "downlink failed at {d} m");
        let up = sim.uplink(&payload, &mut rng).unwrap();
        // At 8 m / 40 Mbps percent-level BER is expected (the paper's own
        // Fig 15b annotation at that point is ~3e-3, and its 40 Mbps curve
        // stops at 8 m); below that, payloads should be clean.
        if d < 7.0 {
            assert_eq!(up.decoded, payload, "uplink failed at {d} m");
        } else {
            assert!(up.ber < 5e-2, "uplink BER {:.2e} at {d} m", up.ber);
        }
    }
}

/// The localization degrades monotonically (on average) with distance but
/// stays inside the paper's error envelope.
#[test]
fn localization_error_envelope() {
    let mut rng = GaussianSource::new(0x10C);
    for &(d, bound) in &[(2.0, 0.05), (5.0, 0.05), (8.0, 0.12)] {
        let pipeline = LocalizationPipeline::new(
            SystemConfig::milback_default(),
            Scene::indoor(d, 12f64.to_radians()),
        )
        .unwrap();
        let errs: Vec<f64> = (0..10)
            .filter_map(|_| pipeline.localize(&mut rng).ok())
            .map(|f| (f.range_m - d).abs())
            .collect();
        assert!(errs.len() >= 8, "too many failures at {d} m");
        let mean = milback::sigproc::stats::mean(&errs);
        assert!(
            mean < bound,
            "mean error {mean:.3} m at {d} m exceeds paper bound {bound}"
        );
    }
}

/// Both orientation estimators agree with each other (they measure the
/// same physical quantity through entirely different signal paths).
#[test]
fn orientation_estimators_agree() {
    let mut rng = GaussianSource::new(0x0A6);
    for &deg in &[-15.0f64, -5.0, 10.0] {
        let pipeline = LocalizationPipeline::new(
            SystemConfig::milback_default(),
            Scene::indoor(2.0, deg.to_radians()),
        )
        .unwrap();
        let ap_est = pipeline.orient_at_ap(&mut rng).unwrap();
        let node_est = pipeline.orient_at_node(&mut rng).unwrap();
        assert!(
            (ap_est - node_est).abs().to_degrees() < 4.0,
            "estimators disagree at {deg}°: AP {:.1}° vs node {:.1}°",
            ap_est.to_degrees(),
            node_est.to_degrees()
        );
    }
}

/// Protocol framing composes with link transport: serialize a packet, ship
/// its bytes over the downlink, parse at the node.
#[test]
fn framed_packet_over_downlink() {
    let sim = LinkSimulator::new(
        SystemConfig::milback_default(),
        Scene::single_node(3.0, 12f64.to_radians()),
    )
    .unwrap();
    let mut rng = GaussianSource::new(0xF4A);
    let packet = Packet::downlink(b"application payload with framing".to_vec());
    let wire = packet.to_bytes();
    let outcome = sim.downlink(&wire, &mut rng).unwrap();
    let parsed = Packet::from_bytes(outcome.decoded.into()).expect("frame survives the link");
    assert_eq!(parsed, packet);
}

/// Determinism: identical seeds give identical sessions (the property the
/// whole experiment harness rests on).
#[test]
fn sessions_are_deterministic() {
    let run = || {
        let pipeline = LocalizationPipeline::new(
            SystemConfig::milback_default(),
            Scene::indoor(5.0, 10f64.to_radians()),
        )
        .unwrap();
        let mut rng = GaussianSource::new(777);
        let fix = pipeline.localize(&mut rng).unwrap();
        let orient = pipeline.orient_at_ap(&mut rng).unwrap();
        (fix.range_m, fix.angle_rad, orient)
    };
    assert_eq!(run(), run());
}

/// The OOK fallback engages and still carries data at normal incidence.
#[test]
fn normal_incidence_ook_path() {
    let sim = LinkSimulator::new(
        SystemConfig::milback_default(),
        Scene::single_node(3.0, 0.0),
    )
    .unwrap();
    let carriers = sim.plan_carriers(None).unwrap();
    assert!(matches!(carriers, CarrierSet::SingleToneOok { .. }));
    // The downlink switches to 1-bit-per-symbol OOK on the shared carrier
    // and still delivers the payload intact (§6.2).
    let mut rng = GaussianSource::new(0x00C);
    let out = sim.downlink(b"normal-incidence payload", &mut rng).unwrap();
    assert_eq!(out.decoded, b"normal-incidence payload");
    assert!(matches!(out.carriers, CarrierSet::SingleToneOok { .. }));
}

#[test]
fn unschedulable_campaign_timelines_are_config_errors() {
    // Each spec once panicked inside the engine (a `% 0` slot hash, a
    // frame or campaign span, a jitter draw range or a stage completion
    // past `u64`); both campaign entry points now return a typed error.
    let config = SystemConfig::milback_default();
    let net = Network::new(
        config.clone(),
        Scene::arc(8, 4.0, 90f64.to_radians(), 12f64.to_radians()),
    )
    .unwrap();
    let payload = [0x3Cu8; 8];
    let plan = SlotPlan::for_packet(
        4,
        &Packet::uplink(payload.to_vec()),
        &config.fmcw,
        config.uplink_symbol_rate_hz,
        5e-6,
    )
    .unwrap();
    let jitter = ApServiceConfig {
        jitter_ps: u64::MAX,
        ..ApServiceConfig::instantaneous()
    };
    let cases = [
        (
            "no slots",
            CampaignSpec::new(
                3,
                &payload,
                SlotPlan {
                    slots_per_frame: 0,
                    ..plan
                },
            ),
        ),
        (
            "frame span past the clock",
            CampaignSpec::new(
                3,
                &payload,
                SlotPlan {
                    slot_ps: u64::MAX / 2,
                    ..plan
                },
            ),
        ),
        (
            "jitter draw range past u64",
            CampaignSpec::new(3, &payload, plan).with_service(jitter),
        ),
        (
            "campaign span past the clock",
            CampaignSpec::new(
                3,
                &payload,
                SlotPlan {
                    slot_ps: u64::MAX / 8,
                    ..plan
                },
            ),
        ),
        (
            "stage completion past the clock",
            CampaignSpec::new(3, &payload, plan).with_service(ApServiceConfig {
                capture_ps: u64::MAX / 2 + 1,
                jitter_ps: u64::MAX / 2,
                ..ApServiceConfig::instantaneous()
            }),
        ),
    ];
    for (what, spec) in cases {
        let plain = net.run::<SlottedRunReport>(
            &spec,
            Box::new(SlottedAloha::new(7)),
            &mut GaussianSource::new(7),
            &mut CampaignProbe::disabled(),
        );
        assert!(
            matches!(plain, Err(MilbackError::Config(_))),
            "{what}: run gave {plain:?}"
        );
        let sharded = net.run_sharded::<CampaignAggregate>(&spec, 2, 1, 7, |_, seed| {
            Box::new(SlottedAloha::new(seed))
        });
        assert!(
            matches!(sharded, Err(MilbackError::Config(_))),
            "{what}: run_sharded gave {sharded:?}"
        );
    }
}

#[test]
fn nan_node_poses_are_config_errors() {
    // A NaN distance or azimuth, a node on the AP or a NaN AP position
    // would reach the channel's `distance > 0` assertion, a NaN facing
    // would serve the node as a decode failure, and a NaN AP boresight
    // would run to `Ok`. `Network::new` rejects each pose, and so do the
    // campaign's up-front check on a hand-built network, under ALOHA and
    // SDM-aware assignment, plain and sharded, and the Doppler inventory.
    let config = SystemConfig::milback_default();
    let payload = [0x3Cu8; 8];
    let plan = SlotPlan::for_packet(
        4,
        &Packet::uplink(payload.to_vec()),
        &config.fmcw,
        config.uplink_symbol_rate_hz,
        5e-6,
    )
    .unwrap();
    let spec = CampaignSpec::new(3, &payload, plan);
    let arc = || Scene::arc(8, 4.0, 90f64.to_radians(), 12f64.to_radians());
    let cases = [
        ("NaN distance", arc().with_node_at(f64::NAN, 0.1, 0.2)),
        ("NaN azimuth", arc().with_node_at(4.0, f64::NAN, 0.2)),
        ("NaN facing", arc().with_node_at(4.0, 0.1, f64::NAN)),
        ("node on the AP", arc().with_node_at(0.0, 0.1, 0.2)),
        ("NaN AP position", {
            let mut s = arc();
            s.ap.position.x = f64::NAN;
            s
        }),
        ("NaN AP boresight", {
            let mut s = arc();
            s.ap.boresight_rad = f64::NAN;
            s
        }),
    ];
    let policy = |name: &str, seed: u64| -> Box<dyn MacPolicy> {
        match name {
            "aloha" => Box::new(SlottedAloha::new(seed)),
            _ => Box::new(SdmAwareAssignment::new()),
        }
    };
    for (what, scene) in cases {
        let built = Network::new(config.clone(), scene.clone());
        assert!(
            matches!(built, Err(MilbackError::Config(_))),
            "{what}: Network::new gave {:?}",
            built.map(|_| ())
        );
        let net = Network {
            config: config.clone(),
            scene,
        };
        for name in ["aloha", "sdm"] {
            let plain = net.run::<SlottedRunReport>(
                &spec,
                policy(name, 7),
                &mut GaussianSource::new(7),
                &mut CampaignProbe::disabled(),
            );
            assert!(
                matches!(plain, Err(MilbackError::Config(_))),
                "{what}, {name}: run gave {plain:?}"
            );
            let sharded =
                net.run_sharded::<CampaignAggregate>(&spec, 2, 1, 7, |_, seed| policy(name, seed));
            assert!(
                matches!(sharded, Err(MilbackError::Config(_))),
                "{what}, {name}: run_sharded gave {sharded:?}"
            );
        }
        // 64 chirps cannot resolve nine signatures either: the error must
        // be the pose check's, which runs first.
        let inventory = localize_all_doppler(&net, 64, &mut GaussianSource::new(7));
        assert!(
            matches!(&inventory, Err(MilbackError::Config(m)) if m.contains("pose")),
            "{what}: localize_all_doppler gave {inventory:?}"
        );
    }
}

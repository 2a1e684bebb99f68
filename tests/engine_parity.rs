//! Parity suite for the packet session and the slotted campaign: a packet
//! session ([`Session::run_packet`], a straight-line protocol walk) must
//! reproduce the recorded report and RNG-position digest, and sessions
//! and slotted campaigns (the campaign's event queue) must survive the
//! trial-parallel runner at every thread count, because both share the
//! per-trial RNG streams with everything else a trial does.

use milback::ap::waveform::LinkDirection;
use milback::core::{
    CampaignProbe, CampaignSpec, Network, Packet, Scene, Session, SessionReport, SlottedAloha,
    SlottedRunReport, SystemConfig,
};
use milback::sigproc::random::GaussianSource;
use milback_bench::runner::{run_trials, RunnerConfig};

fn session() -> Session {
    Session::new(
        SystemConfig::milback_default(),
        Scene::indoor(4.0, 12f64.to_radians()),
    )
    .unwrap()
}

fn network() -> Network {
    let scene = Scene::single_node(4.0, 12f64.to_radians())
        .with_node_at(4.5, 35f64.to_radians(), 12f64.to_radians())
        .with_node_at(3.5, -30f64.to_radians(), 12f64.to_radians());
    Network::new(SystemConfig::milback_default(), scene).unwrap()
}

/// The per-trial packet grid: direction and payload vary by trial index so
/// the suite covers downlink, uplink, and the empty-payload edge.
fn packet_for(trial: usize) -> Packet {
    match trial % 4 {
        0 => Packet::downlink(vec![0xA5; 12]),
        1 => Packet::uplink(vec![0x42; 16]),
        2 => Packet::downlink(Vec::new()),
        _ => Packet::uplink((0..24).collect::<Vec<u8>>()),
    }
}

/// FNV-1a fold of every report field's bits and of an RNG-position probe
/// (one Gaussian and one uniform drawn from a clone of the stream).
fn fold_report(h: &mut u64, r: &SessionReport, rng_probe: (u64, u64)) {
    let direction = match r.decoded_direction {
        LinkDirection::Uplink => 1,
        LinkDirection::Downlink => 2,
    };
    let words = [
        r.fix.range_m,
        r.fix.angle_rad,
        r.fix.position.x,
        r.fix.position.y,
        r.fix.confidence_db,
        r.orientation_at_ap,
        r.orientation_at_node,
        r.ber,
        r.airtime_s,
        r.node_energy_j,
    ]
    .into_iter()
    .map(f64::to_bits)
    .chain([
        rng_probe.0,
        rng_probe.1,
        direction,
        r.delivered.len() as u64,
    ])
    .chain(r.delivered.iter().map(|&b| u64::from(b)));
    for w in words {
        for b in w.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn rng_probe(rng: &GaussianSource) -> (u64, u64) {
    let mut probe = rng.clone();
    (
        probe.standard().to_bits(),
        probe.uniform(0.0, 1.0).to_bits(),
    )
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The packet session through the runner: reports and stream positions
/// are bit-identical at thread counts 1, 2, 4, 8 (what `MILBACK_THREADS`
/// resolves to) and match the recorded digest.
#[test]
fn session_reports_thread_count_invariant() {
    let run = |threads: usize| -> u64 {
        let trials = run_trials(8, 0xE4E4, &RunnerConfig::with_threads(threads), |i, rng| {
            let report = session().run_packet(&packet_for(i), rng).unwrap();
            (report, rng_probe(rng))
        });
        let mut h = FNV_OFFSET;
        for (report, probe) in &trials {
            fold_report(&mut h, report, *probe);
        }
        h
    };
    for threads in [1, 2, 4, 8] {
        assert_eq!(
            run(threads),
            10_538_106_612_503_399_864,
            "session digest moved at {threads} threads"
        );
    }
}

/// One session, or one bare pipeline, shared by every trial of the
/// runner: the first trials race to fill the pose-static capture tables,
/// and every trial still gets the bits a fresh session or pipeline per
/// trial gives, at 1, 2 and 4 threads.
#[test]
fn shared_capture_tables_match_fresh_ones_at_any_thread_count() {
    use milback::core::localization::Impairments;
    use milback::core::LocalizationPipeline;
    let fresh = run_trials(8, 0x7AB1, &RunnerConfig::serial(), |i, rng| {
        let report = session().run_packet(&packet_for(i), rng).unwrap();
        (report, rng_probe(rng))
    });
    let pipeline = |imp: Impairments| {
        LocalizationPipeline::new(
            SystemConfig::milback_default(),
            Scene::indoor(4.0, 12f64.to_radians()),
        )
        .unwrap()
        .with_impairments(imp)
        .with_beat_threads(1)
    };
    let estimate = |p: &LocalizationPipeline, rng: &mut GaussianSource| {
        let fix = p.localize(rng).unwrap();
        let ap = p.orient_at_ap(rng).unwrap();
        let node = p.orient_at_node(rng).unwrap();
        let bits = [fix.range_m, fix.angle_rad, ap, node].map(f64::to_bits);
        (bits, rng_probe(rng))
    };
    for imp in [Impairments::milback_default(), Impairments::none()] {
        let fresh_fixes = run_trials(8, 0x7AB2, &RunnerConfig::serial(), |_, rng| {
            estimate(&pipeline(imp), rng)
        });
        for threads in [1, 2, 4] {
            let cfg = RunnerConfig::with_threads(threads);
            let shared = pipeline(imp);
            let fixes = run_trials(8, 0x7AB2, &cfg, |_, rng| estimate(&shared, rng));
            assert_eq!(fixes, fresh_fixes, "shared pipeline at {threads} threads");
        }
    }
    for threads in [1, 2, 4] {
        let cfg = RunnerConfig::with_threads(threads);
        let shared = session();
        let reports = run_trials(8, 0x7AB1, &cfg, |i, rng| {
            let report = shared.run_packet(&packet_for(i), rng).unwrap();
            (report, rng_probe(rng))
        });
        let (mut h_shared, mut h_fresh) = (FNV_OFFSET, FNV_OFFSET);
        for ((a, pa), (b, pb)) in reports.iter().zip(&fresh) {
            fold_report(&mut h_shared, a, *pa);
            fold_report(&mut h_fresh, b, *pb);
        }
        assert_eq!(h_shared, h_fresh, "shared session at {threads} threads");
    }
}

/// The slotted campaign (it has no direct twin) is itself
/// schedule-invariant: same seed, same report, at any thread count.
#[test]
fn slotted_campaign_thread_count_invariant() {
    use milback::core::protocol::SlotPlan;
    let run = |threads: usize| {
        run_trials(4, 0x5107, &RunnerConfig::with_threads(threads), |i, rng| {
            let n = network();
            let payload = vec![0x42; 16];
            let packet = Packet::uplink(payload.clone());
            let plan = SlotPlan::for_packet(
                4,
                &packet,
                &n.config.fmcw,
                n.config.uplink_symbol_rate_hz,
                10e-6,
            )
            .unwrap();
            let spec = CampaignSpec::new(4 + i, &payload, plan);
            let policy = Box::new(SlottedAloha::new(i as u64));
            n.run::<SlottedRunReport>(&spec, policy, rng, &mut CampaignProbe::disabled())
                .unwrap()
        })
    };
    let reference = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            reference,
            run(threads),
            "slotted run changed at {threads} threads"
        );
    }
}

/// A fresh `GaussianSource` behaves exactly like a runner stream with the
/// same seed — the session never consults anything but the stream it is
/// handed.
#[test]
fn engine_uses_only_the_handed_stream() {
    let s = session();
    let packet = Packet::uplink(vec![9; 8]);
    let mut a = GaussianSource::new(0xFEED);
    let mut b = GaussianSource::new(0xFEED);
    let ra = s.run_packet(&packet, &mut a).unwrap();
    let rb = s.run_packet(&packet, &mut b).unwrap();
    assert_eq!(ra, rb);
    assert_eq!(a.sample(1.0).to_bits(), b.sample(1.0).to_bits());
}

//! Parity suite for the discrete-event engine re-layering: the engine
//! session ([`Session::run_packet`]) must stay bit-identical to the
//! retained pre-refactor implementation (`run_packet_direct`) for fixed
//! seeds — and that equality, like the slotted campaign's reports, must
//! survive the trial-parallel runner at every thread count, because the
//! engine shares the per-trial RNG streams with everything else a trial
//! does.

use milback_bench::runner::{run_trials, trial_rng, RunnerConfig};
use milback_core::{
    CampaignProbe, CampaignSpec, Network, Packet, Scene, Session, SessionReport, SlottedAloha,
    SlottedRunReport, SystemConfig,
};
use mmwave_sigproc::random::GaussianSource;

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

/// Engine sessions reproduce the direct implementation bit-for-bit on the
/// same RNG stream, trial by trial.
#[test]
fn session_engine_matches_direct_per_trial() {
    let s = session();
    for trial in 0..4 {
        let packet = packet_for(trial);
        let mut rng_e = trial_rng(0x5E55, trial);
        let mut rng_d = trial_rng(0x5E55, trial);
        let engine = s.run_packet(&packet, &mut rng_e).unwrap();
        let direct = s.run_packet_direct(&packet, &mut rng_d).unwrap();
        assert_eq!(engine, direct, "trial {trial} diverged");
        assert_eq!(
            engine.node_energy_j.to_bits(),
            direct.node_energy_j.to_bits(),
            "trial {trial} energy bits diverged"
        );
        // The streams must have advanced identically too.
        assert_eq!(rng_e.sample(1.0).to_bits(), rng_d.sample(1.0).to_bits());
    }
}

/// The engine session through the runner: reports are bit-identical at
/// thread counts 1, 2, 4, 8 (what `MILBACK_THREADS` resolves to), and each
/// equals the direct path on the same per-trial stream.
#[test]
fn session_reports_thread_count_invariant() {
    let run = |threads: usize, direct: bool| -> Vec<SessionReport> {
        run_trials(8, 0xE4E4, &RunnerConfig::with_threads(threads), |i, rng| {
            let s = session();
            let packet = packet_for(i);
            if direct {
                s.run_packet_direct(&packet, rng).unwrap()
            } else {
                s.run_packet(&packet, rng).unwrap()
            }
        })
    };
    let reference = run(1, false);
    assert_eq!(reference, run(1, true), "engine diverged from direct");
    for threads in [2, 4, 8] {
        assert_eq!(
            reference,
            run(threads, false),
            "engine path changed at {threads} threads"
        );
        assert_eq!(
            reference,
            run(threads, true),
            "direct path changed at {threads} threads"
        );
    }
}

/// The slotted campaign (engine-only — it has no direct twin) is itself
/// schedule-invariant: same seed, same report, at any thread count.
#[test]
fn slotted_campaign_thread_count_invariant() {
    use milback_core::protocol::SlotPlan;
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
/// same seed — the engine never consults anything but the stream it is
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

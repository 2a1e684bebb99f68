//! Acceptance suite for the staged AP service pipeline
//! (**Capture → Plan → Transmit**, [`milback_core::ApServiceConfig`]):
//!
//! * the zero-latency/unbounded configuration reproduces the parity
//!   `CampaignSpec` bit-for-bit for every policy, through the trial runner, at any
//!   thread count (the instantaneous-parity half of the determinism
//!   contract — the existing `mac_parity` suite covers the engine-vs-
//!   direct half, which now routes through the pipeline too);
//! * nonzero latency with unbounded queues shifts event timestamps but
//!   not physics: same FIFO order, same RNG stream, same node ledgers;
//! * each overflow policy does what it says: `Drop` sheds grants before
//!   they transmit, `Defer` admits and counts the spill, `Degrade`
//!   serves everything but collapses SDM concurrency;
//! * latency jitter draws only from the trial stream, so jittered runs
//!   are reproducible seed-for-seed.

use milback_bench::experiments::mac_policy_by_name;
use milback_bench::runner::trial_rng;
use milback_core::protocol::SlotPlan;
use milback_core::{
    ApServiceConfig, CampaignProbe, CampaignSpec, MacPolicy, Network, OverflowPolicy, Packet,
    Scene, SlottedRunReport, SystemConfig,
};
use mmwave_sigproc::random::GaussianSource;

const MAC_POLICY_NAMES: [&str; 4] = ["aloha", "backoff", "polling", "sdm"];

fn network(n: usize) -> Network {
    let mut scene = Scene::single_node(4.0, 12f64.to_radians());
    scene.nodes.clear();
    for k in 0..n {
        let az = if n == 1 {
            0.0
        } else {
            (-35.0 + 70.0 * k as f64 / (n - 1) as f64).to_radians()
        };
        scene = scene.with_node_at(4.0, az, 12f64.to_radians());
    }
    Network::new(SystemConfig::milback_default(), scene).unwrap()
}

fn plan_for(n: &Network, slots: usize, payload: &[u8]) -> SlotPlan {
    SlotPlan::for_packet(
        slots,
        &Packet::uplink(payload.to_vec()),
        &n.config.fmcw,
        n.config.uplink_symbol_rate_hz,
        10e-6,
    )
    .unwrap()
}

fn assert_bit_exact(a: &SlottedRunReport, b: &SlottedRunReport) {
    assert_eq!(a, b);
    for (na, nb) in a.nodes.iter().zip(&b.nodes) {
        assert_eq!(na.energy_j.to_bits(), nb.energy_j.to_bits());
        assert_eq!(
            na.mean_snr_db.map(f64::to_bits),
            nb.mean_snr_db.map(f64::to_bits)
        );
    }
}

/// One campaign of `spec` without a probe.
fn campaign(
    n: &Network,
    spec: &CampaignSpec<'_>,
    policy: Box<dyn MacPolicy>,
    rng: &mut GaussianSource,
) -> SlottedRunReport {
    n.run(spec, policy, rng, &mut CampaignProbe::disabled())
        .unwrap()
}

fn run_with(
    n: &Network,
    policy: &str,
    seed_trial: usize,
    service: &ApServiceConfig,
) -> SlottedRunReport {
    let payload = vec![0x42u8; 16];
    let spec = CampaignSpec::new(6, &payload, plan_for(n, 3, &payload)).with_service(*service);
    let mut rng = trial_rng(0x51A6, seed_trial);
    campaign(n, &spec, mac_policy_by_name(policy, 9).unwrap(), &mut rng)
}

/// An explicit instantaneous config is bit-exact with the parity spec for
/// every policy, and its service ledger shows every offered grant served.
#[test]
fn instantaneous_config_reproduces_the_parity_spec_for_every_policy() {
    let n = network(5);
    let payload = vec![0x42u8; 16];
    let spec = CampaignSpec::new(6, &payload, plan_for(&n, 3, &payload));
    for (k, &name) in MAC_POLICY_NAMES.iter().enumerate() {
        let mut rng_a = trial_rng(0x51A6, k);
        let mut rng_b = trial_rng(0x51A6, k);
        let plain = campaign(&n, &spec, mac_policy_by_name(name, 9).unwrap(), &mut rng_a);
        let staged = campaign(
            &n,
            &spec.with_service(ApServiceConfig::instantaneous()),
            mac_policy_by_name(name, 9).unwrap(),
            &mut rng_b,
        );
        assert_bit_exact(&plain, &staged);
        assert_eq!(rng_a.sample(1.0).to_bits(), rng_b.sample(1.0).to_bits());
        assert!(plain.service.offered > 0, "policy {name} offered nothing");
        assert_eq!(plain.service.served, plain.service.offered);
        assert_eq!(plain.service.overflowed(), 0);
    }
}

/// Nonzero stage latencies with unbounded queues serve grants late but in
/// FIFO order, so the RNG stream is consumed identically: node ledgers are
/// bit-exact with the instantaneous run for every policy. The one ledger
/// that *should* move is the lifecycle's service-residence sketch — jobs
/// genuinely sit in the pipeline now — so it is compared positively, not
/// normalized away silently.
#[test]
fn unbounded_latency_shifts_time_but_not_ledgers() {
    let n = network(5);
    let slow = ApServiceConfig::instantaneous().with_stage_latencies(1_000_000, 500_000, 250_000);
    for (k, &name) in MAC_POLICY_NAMES.iter().enumerate() {
        let instant = run_with(&n, name, k, &ApServiceConfig::instantaneous());
        let staged = run_with(&n, name, k, &slow);
        assert!(
            staged.lifecycle.service_residence_us.sum > 0.0,
            "policy {name}: a slow pipeline must show nonzero residence"
        );
        assert_eq!(
            staged.lifecycle.service_residence_us.count, staged.lifecycle.slot_wait_us.count,
            "every packet reaching the channel gets one residence observation"
        );
        let mut expected = instant.clone();
        expected.lifecycle.service_residence_us = staged.lifecycle.service_residence_us.clone();
        assert_bit_exact(&expected, &staged);
    }
}

/// `Drop` with a zero-capacity queue and a capture stage slower than the
/// slot spacing sheds grants: dropped grants never transmit, so attempts
/// (and energy) fall below the instantaneous run.
#[test]
fn drop_policy_sheds_offered_load() {
    let n = network(6);
    let payload = vec![0x42u8; 16];
    let plan = plan_for(&n, 3, &payload);
    let congested = ApServiceConfig::instantaneous()
        .with_stage_latencies(4 * plan.slot_ps, 0, 0)
        .with_queue(0, OverflowPolicy::Drop);
    let instant = run_with(&n, "aloha", 0, &ApServiceConfig::instantaneous());
    let dropped = run_with(&n, "aloha", 0, &congested);
    assert_eq!(dropped.service.offered, instant.service.offered);
    assert!(dropped.service.dropped > 0, "congestion must shed load");
    assert_eq!(
        dropped.service.served + dropped.service.dropped,
        dropped.service.offered,
        "every grant is either served or dropped"
    );
    let attempts = |r: &SlottedRunReport| r.nodes.iter().map(|x| x.attempts).sum::<usize>();
    assert!(
        attempts(&dropped) < attempts(&instant),
        "dropped grants must never reach the air"
    );
}

/// `Defer` admits past the bound: everything is served (late), the spill
/// is counted, and the ledgers still match the instantaneous run exactly
/// (FIFO order preserves the draw order).
#[test]
fn defer_policy_counts_spill_and_preserves_ledgers() {
    let n = network(6);
    let payload = vec![0x42u8; 16];
    let plan = plan_for(&n, 3, &payload);
    let congested = ApServiceConfig::instantaneous()
        .with_stage_latencies(4 * plan.slot_ps, 0, 0)
        .with_queue(0, OverflowPolicy::Defer);
    let instant = run_with(&n, "aloha", 0, &ApServiceConfig::instantaneous());
    let deferred = run_with(&n, "aloha", 0, &congested);
    assert!(deferred.service.deferred > 0, "congestion must spill");
    assert_eq!(deferred.service.served, deferred.service.offered);
    assert!(
        deferred.lifecycle.service_residence_us.sum > 0.0,
        "deferred grants must show nonzero pipeline residence"
    );
    let mut expected = instant.clone();
    expected.service = deferred.service;
    expected.lifecycle.service_residence_us = deferred.lifecycle.service_residence_us.clone();
    assert_bit_exact(&expected, &deferred);
}

/// `Degrade` serves every grant but admits overflow with a cheap plan that
/// skips SDM arbitration: degraded multi-node slots collapse to
/// collisions, so collisions can only grow versus the instantaneous run.
#[test]
fn degrade_policy_trades_concurrency_for_service() {
    let n = network(8);
    let payload = vec![0x42u8; 16];
    // Two slots over eight nodes: multi-node groups every frame, so a
    // degraded grant has concurrency to lose.
    let plan = plan_for(&n, 2, &payload);
    let congested = ApServiceConfig::instantaneous()
        .with_stage_latencies(4 * plan.slot_ps, 0, 0)
        .with_queue(0, OverflowPolicy::Degrade);
    let run = |service: &ApServiceConfig| {
        let mut rng = trial_rng(0x51A6, 0);
        let spec = CampaignSpec::new(6, &payload, plan).with_service(*service);
        campaign(&n, &spec, mac_policy_by_name("aloha", 9).unwrap(), &mut rng)
    };
    let instant = run(&ApServiceConfig::instantaneous());
    let degraded = run(&congested);
    assert!(degraded.service.degraded > 0, "congestion must degrade");
    assert_eq!(degraded.service.served, degraded.service.offered);
    assert_eq!(degraded.service.dropped, 0);
    let collisions = |r: &SlottedRunReport| r.nodes.iter().map(|x| x.collisions).sum::<usize>();
    assert!(
        collisions(&degraded) >= collisions(&instant),
        "skipping SDM arbitration cannot reduce collisions"
    );
}

/// Latency jitter draws exactly one seed from the trial stream, so
/// jittered campaigns reproduce seed-for-seed.
#[test]
fn jittered_campaigns_are_reproducible() {
    let n = network(5);
    let jittered = ApServiceConfig::instantaneous()
        .with_stage_latencies(100_000, 100_000, 100_000)
        .with_jitter(50_000);
    let a = run_with(&n, "aloha", 3, &jittered);
    let b = run_with(&n, "aloha", 3, &jittered);
    assert_bit_exact(&a, &b);
    assert!(a.service.offered > 0);
}

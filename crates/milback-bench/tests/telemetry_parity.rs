//! Non-perturbation suite for the telemetry layer: attaching probes,
//! metrics registries, or trace sinks must never change a simulation
//! result. Every test here drives the instrumented and uninstrumented
//! paths on identical trial streams and demands bit-for-bit equality —
//! `==` plus `to_bits` on every float — through the trial-parallel runner
//! at `MILBACK_THREADS` 1/2/4/8, for all four MAC policies.
//!
//! Recording is switched per run by the probe a campaign is handed, so a
//! probed run must equal a plain ([`CampaignProbe::disabled`]) run digest
//! for digest, and the probed run must also show that it recorded
//! something.

use milback_bench::experiments::{
    extension_mac_compare, extension_mac_compare_instrumented, extension_net_audit,
    net_audit_sharded_lifecycle, MacComparePoint, MAC_POLICY_NAMES,
};
use milback_bench::runner::{trial_rng, RunnerConfig};
use milback_core::protocol::SlotPlan;
use milback_core::{
    ApServiceConfig, CampaignProbe, CampaignSpec, DropReason, LifecycleStats, Network, Packet,
    Scene, SlottedRunReport, SystemConfig,
};
use mmwave_sigproc::random::GaussianSource;
use proptest::prelude::*;

fn network() -> Network {
    let scene = Scene::single_node(4.0, 12f64.to_radians())
        .with_node_at(4.5, 35f64.to_radians(), 12f64.to_radians())
        .with_node_at(3.5, -30f64.to_radians(), 12f64.to_radians());
    Network::new(SystemConfig::milback_default(), scene).unwrap()
}

fn plan_for(n: &Network, slots: usize, payload: &[u8]) -> SlotPlan {
    let packet = Packet::uplink(payload.to_vec());
    SlotPlan::for_packet(
        slots,
        &packet,
        &n.config.fmcw,
        n.config.uplink_symbol_rate_hz,
        10e-6,
    )
    .unwrap()
}

/// One 6-frame campaign of the named MAC policy with `probe` attached.
fn campaign(
    n: &Network,
    policy: &str,
    plan: &SlotPlan,
    payload: &[u8],
    rng: &mut GaussianSource,
    probe: &mut CampaignProbe,
) -> SlottedRunReport {
    let policy = milback_bench::experiments::mac_policy_by_name(policy, 9).unwrap();
    n.run(&CampaignSpec::new(6, payload, *plan), policy, rng, probe)
        .unwrap()
}

/// Float-bit equality across two campaign reports — stricter than
/// `PartialEq`, catches -0.0/rounding drift that `==` would forgive.
fn assert_report_bit_exact(a: &SlottedRunReport, b: &SlottedRunReport) {
    assert_eq!(a, b);
    for (na, nb) in a.nodes.iter().zip(&b.nodes) {
        assert_eq!(na.energy_j.to_bits(), nb.energy_j.to_bits());
        assert_eq!(
            na.mean_snr_db.map(f64::to_bits),
            nb.mean_snr_db.map(f64::to_bits)
        );
    }
}

/// Float-bit equality across two sweep cells.
fn assert_point_bit_exact(a: &MacComparePoint, b: &MacComparePoint) {
    assert_eq!(a, b);
    assert_eq!(a.delivery_rate.to_bits(), b.delivery_rate.to_bits());
    assert_eq!(
        a.per_node_goodput_bps.to_bits(),
        b.per_node_goodput_bps.to_bits()
    );
    assert_eq!(
        a.energy_per_packet_j.map(f64::to_bits),
        b.energy_per_packet_j.map(f64::to_bits)
    );
}

/// A plain campaign vs a probed one (metrics + full trace) on shared trial
/// streams, for every MAC policy: bit-identical reports, and the RNG
/// streams advanced identically (the probe drew nothing).
#[test]
fn probed_campaign_is_bit_identical_for_every_policy() {
    let n = network();
    let payload = vec![0x42u8; 16];
    let plan = plan_for(&n, 4, &payload);
    for (k, &name) in MAC_POLICY_NAMES.iter().enumerate() {
        let mut rng_plain = trial_rng(0x7E1E, k);
        let mut rng_probed = trial_rng(0x7E1E, k);
        let plain = campaign(
            &n,
            name,
            &plan,
            &payload,
            &mut rng_plain,
            &mut CampaignProbe::disabled(),
        );
        let mut probe = CampaignProbe::with_trace(4096);
        let probed = campaign(&n, name, &plan, &payload, &mut rng_probed, &mut probe);
        assert_report_bit_exact(&plain, &probed);
        // The streams advanced identically too: the next draw matches.
        assert_eq!(
            rng_plain.sample(1.0).to_bits(),
            rng_probed.sample(1.0).to_bits(),
            "probe perturbed the RNG stream of policy {name}"
        );
        let metrics = probe.take_metrics().expect("telemetry on: metrics exist");
        assert!(
            metrics.counter("slots_fired") > 0,
            "policy {name} recorded no slots"
        );
        let trace = probe
            .trace
            .take()
            .expect("tracing was requested")
            .into_buffer();
        assert!(!trace.is_empty(), "policy {name} recorded no trace");
    }
}

/// The queue's depth histograms are lossless even when the bounded trace
/// ring overflows. The retired implementation reconstructed the histogram
/// from the ring's `Event` records, so once the ring evicted its oldest
/// records the histogram silently truncated; depths are now tallied at
/// dispatch inside the queue. A 4-record ring and an effectively
/// unbounded one must therefore report identical histograms — while the
/// small ring demonstrably dropped records.
///
/// The campaign runs behind a staged pipeline (the latencies of
/// `service_pipeline.rs`'s `unbounded_latency_shifts_time_but_not_ledgers`):
/// an instantaneous one serves relay-free frames without slot or stage
/// events, and every label must be tallied here.
#[test]
fn queue_depth_histograms_survive_trace_ring_eviction() {
    let n = network();
    let payload = vec![0x42u8; 16];
    let plan = plan_for(&n, 4, &payload);
    let frames = 6;
    let spec = CampaignSpec::new(frames, &payload, plan).with_service(
        ApServiceConfig::instantaneous().with_stage_latencies(1_000_000, 500_000, 250_000),
    );
    let run = |capacity: usize| {
        let mut rng = trial_rng(0xD0_0D, 0);
        let mut probe = CampaignProbe::with_trace(capacity);
        let policy = milback_bench::experiments::mac_policy_by_name("aloha", 9).unwrap();
        let _: SlottedRunReport = n.run(&spec, policy, &mut rng, &mut probe).unwrap();
        let metrics = probe.take_metrics().expect("telemetry on: metrics exist");
        let dropped = probe.trace.take().unwrap().into_buffer().dropped();
        (metrics, dropped)
    };
    let (small, small_dropped) = run(4);
    let (big, big_dropped) = run(1 << 20);
    assert!(small_dropped > 0, "a 4-record ring must evict");
    assert_eq!(big_dropped, 0, "the large ring must hold everything");
    for name in [
        "queue_depth",
        "queue_depth_frame_start",
        "queue_depth_slot_fire",
        "queue_depth_stage_capture",
        "queue_depth_stage_plan",
        "queue_depth_stage_transmit",
    ] {
        let h_small = small
            .histogram(name)
            .unwrap_or_else(|| panic!("histogram {name} missing from the small-ring run"));
        let h_big = big.histogram(name).expect("histogram in large-ring run");
        assert_eq!(h_small, h_big, "{name} truncated under ring eviction");
        assert!(h_small.count > 0, "{name} tallied nothing");
    }
    // The combined histogram saw more dispatches than the small ring could
    // ever hold — exactly the case the reconstruction used to truncate:
    // one frame boundary per frame plus a slot event and three stage
    // completions per grant.
    assert_eq!(
        small.histogram("queue_depth").unwrap().count,
        frames as u64 + 4 * small.counter("ap_offered")
    );
    assert!(small.histogram("queue_depth").unwrap().count > 4);
}

/// The instrumented sweep is bit-identical to the plain sweep, cell by
/// cell, for the full policy × node-count grid at 1/2/4/8 threads — and
/// the merged per-policy registries are identical at every thread count
/// (the fold runs in deterministic trial order).
#[test]
fn instrumented_sweep_matches_plain_at_every_thread_count() {
    let node_counts = [1, 3, 5];
    let (frames, payload_bytes, slots, seed) = (4, 8, 4, 0x3AC);
    let plain_ref = extension_mac_compare(
        &MAC_POLICY_NAMES,
        &node_counts,
        frames,
        payload_bytes,
        slots,
        seed,
        &RunnerConfig::serial(),
    );
    assert_eq!(
        plain_ref.ok_count(),
        MAC_POLICY_NAMES.len() * node_counts.len(),
        "every cell must simulate"
    );
    let mut merged_json: Option<Vec<String>> = None;
    for threads in [1, 2, 4, 8] {
        let inst = extension_mac_compare_instrumented(
            &MAC_POLICY_NAMES,
            &node_counts,
            frames,
            payload_bytes,
            slots,
            seed,
            &RunnerConfig::with_threads(threads),
            Some(4096),
        );
        assert_eq!(inst.batch.results.len(), plain_ref.results.len());
        for (p, q) in plain_ref.oks().zip(inst.batch.oks()) {
            assert_point_bit_exact(p, q);
        }
        // The serialized registries are schedule-invariant too.
        let jsons: Vec<String> = inst
            .policies
            .iter()
            .map(|p| milback_core::json::to_string(&p.metrics))
            .collect();
        match &merged_json {
            None => merged_json = Some(jsons),
            Some(reference) => assert_eq!(
                reference, &jsons,
                "merged metrics changed at {threads} threads"
            ),
        }
    }
}

/// Lifecycle-probed campaigns are the plain campaigns: the audit sweep —
/// which records every offer, drop, and latency observation — returns
/// bit-identical cells at 1/2/4/8 threads, every cell's ledger conserves
/// (a violation fails the cell), and attaching a full trace probe to the
/// same campaign leaves the report `==`/`to_bits` identical, lifecycle
/// ledger included.
#[test]
fn lifecycle_recording_is_non_perturbing_at_every_thread_count() {
    let mut reference = None;
    for threads in [1, 2, 4, 8] {
        let batch = extension_net_audit(
            &MAC_POLICY_NAMES,
            12,
            5,
            8,
            4,
            0x11FE,
            &RunnerConfig::with_threads(threads),
        );
        assert_eq!(
            batch.ok_count(),
            MAC_POLICY_NAMES.len() * 2,
            "a cell failed (conservation or simulation) at {threads} threads"
        );
        match &reference {
            None => reference = Some(batch.results),
            Some(r) => assert_eq!(r, &batch.results, "sweep changed at {threads} threads"),
        }
    }

    // Plain vs trace-probed single campaign: the lifecycle ledger rides in
    // the report and must be byte-identical on both sides.
    let n = network();
    let payload = vec![0x42u8; 16];
    let plan = plan_for(&n, 4, &payload);
    for (k, &name) in MAC_POLICY_NAMES.iter().enumerate() {
        let mut rng_plain = trial_rng(0x11FE, k);
        let mut rng_probed = trial_rng(0x11FE, k);
        let plain = campaign(
            &n,
            name,
            &plan,
            &payload,
            &mut rng_plain,
            &mut CampaignProbe::disabled(),
        );
        let mut probe = CampaignProbe::with_trace(4096);
        let probed = campaign(&n, name, &plan, &payload, &mut rng_probed, &mut probe);
        assert_eq!(plain.lifecycle, probed.lifecycle, "policy {name}");
        plain.lifecycle.audit().expect("plain ledger conserves");
        for (a, b) in [
            (
                &plain.lifecycle.slot_wait_us,
                &probed.lifecycle.slot_wait_us,
            ),
            (
                &plain.lifecycle.service_residence_us,
                &probed.lifecycle.service_residence_us,
            ),
            (
                &plain.lifecycle.relay_extra_us,
                &probed.lifecycle.relay_extra_us,
            ),
        ] {
            assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "policy {name}");
        }
        assert!(plain.lifecycle.offered > 0, "policy {name} offered nothing");
    }
}

/// The sharded city path's merged lifecycle ledger — counters and latency
/// sketches — is bit-identical at `MILBACK_THREADS` 1/2/4/8.
#[test]
fn sharded_lifecycle_sketches_are_thread_invariant() {
    let run = |threads| net_audit_sharded_lifecycle(24, 4, threads, 4, 8, 6, 0x11FE).unwrap();
    let reference = run(1);
    reference.audit().expect("the merged ledger conserves");
    for threads in [2, 4, 8] {
        let l = run(threads);
        assert_eq!(reference, l, "lifecycle changed at {threads} threads");
        assert_eq!(
            reference.slot_wait_us.sum.to_bits(),
            l.slot_wait_us.sum.to_bits()
        );
        assert_eq!(
            reference.service_residence_us.sum.to_bits(),
            l.service_residence_us.sum.to_bits()
        );
        assert_eq!(
            reference.relay_extra_us.sum.to_bits(),
            l.relay_extra_us.sum.to_bits()
        );
    }
}

/// Decodes one packet outcome from two bytes of entropy: deliveries
/// (direct or relayed) or one of the seven drop reasons, weighted so every
/// family appears routinely.
fn apply_outcome(stats: &mut LifecycleStats, bits: u16) -> (u64, u64) {
    use milback_core::{OverflowPolicy, StageKind};
    stats.offer(1);
    match bits % 9 {
        0 | 1 => {
            stats.deliver_direct(1);
            (1, 0)
        }
        2 => {
            stats.deliver_relayed(1);
            (1, 0)
        }
        3 => {
            stats.record_drops(DropReason::ContentionCollision, 1);
            (0, 1)
        }
        4 => {
            stats.record_drops(DropReason::SdmInseparable, 1);
            (0, 1)
        }
        5 => {
            let stage = match (bits >> 4) % 3 {
                0 => StageKind::Capture,
                1 => StageKind::Plan,
                _ => StageKind::Transmit,
            };
            stats.record_drops(
                DropReason::ServiceShed {
                    stage,
                    policy: OverflowPolicy::Drop,
                },
                1,
            );
            (0, 1)
        }
        6 => {
            stats.record_drops(DropReason::NoRelayRoute, 1);
            (0, 1)
        }
        7 => {
            stats.record_drops(DropReason::HopBudgetExhausted, 1);
            (0, 1)
        }
        _ => {
            stats.record_drops(
                if (bits >> 4) & 1 == 0 {
                    DropReason::DecodeFailure
                } else {
                    DropReason::NeverScheduled
                },
                1,
            );
            (0, 1)
        }
    }
}

proptest! {
    /// The drop reasons partition the offered packets: any sequence of
    /// per-packet outcomes — each offered packet resolving to exactly one
    /// delivery or drop — keeps the ledger conserving (`offered ==
    /// delivered + Σ drops`), the audit passing, and merges of arbitrary
    /// splits agreeing with the whole. One extra unresolved offer must
    /// break the audit (the taxonomy has no
    /// "pending" bucket to leak into).
    #[test]
    fn drop_reasons_partition_offered_packets(
        outcomes in proptest::collection::vec(any::<u16>(), 0..256),
        split in any::<u16>(),
    ) {
        let mut whole = LifecycleStats::new();
        let (mut delivered, mut dropped) = (0u64, 0u64);
        for &bits in &outcomes {
            let (d, x) = apply_outcome(&mut whole, bits);
            delivered += d;
            dropped += x;
        }
        whole.audit().expect("a fully resolved ledger conserves");
        prop_assert_eq!(whole.offered, outcomes.len() as u64);
        prop_assert_eq!(whole.delivered(), delivered);
        prop_assert_eq!(whole.dropped(), dropped);
        prop_assert_eq!(whole.offered, whole.delivered() + whole.dropped());
        prop_assert_eq!(
            whole.shed_by_stage.iter().sum::<u64>(),
            whole.drops[DropReason::ServiceShed {
                stage: milback_core::StageKind::Capture,
                policy: milback_core::OverflowPolicy::Drop,
            }.index()]
        );

        // Partition the outcome stream and merge: same ledger.
        let cut = split as usize % (outcomes.len() + 1);
        let mut left = LifecycleStats::new();
        let mut right = LifecycleStats::new();
        for &bits in &outcomes[..cut] {
            apply_outcome(&mut left, bits);
        }
        for &bits in &outcomes[cut..] {
            apply_outcome(&mut right, bits);
        }
        left.merge_from(&right);
        prop_assert_eq!(&left, &whole);
        left.audit().expect("merged ledgers conserve");

        // A leak — one offer with no terminal outcome — must be caught.
        whole.offer(1);
        prop_assert!(whole.audit().is_err(), "an unresolved offer must fail the audit");
    }
}

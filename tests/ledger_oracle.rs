//! Independent oracles for the campaign ledger: node energy from the
//! report's own counts, and collision-free polling.
//!
//! Energy: a node spends one uplink airtime of transmit power on every
//! transmission it makes — each attempt of its own and each packet it
//! forwards for another node's relay chain — and idles for the rest of
//! the campaign:
//!
//! ```text
//! E = (attempts + forwarded) · airtime · P_uplink
//!   + P_idle · (frames · frame_s − (attempts + forwarded) · airtime)
//! ```
//!
//! The test computes `E` from the report's counts, the packet airtime and
//! the node power model, never from the ledger's energy sums, and
//! requires every node of every policy to match within a relative error
//! of 1e-12. The campaigns cover collisions, SDM-served groups, shed
//! grants (which never reach the air, so cost nothing), gap nodes and
//! relay chains.
//!
//! Polling: the AP grants every slot to one node, so no slot ever holds
//! two transmitters and nothing collides, whether the cell has fewer
//! nodes than a frame has slots or more.

use milback::core::protocol::SlotPlan;
use milback::core::{
    ApServiceConfig, BackoffAloha, CampaignProbe, CampaignSpec, CoverageModel, DropReason,
    MacPolicy, Network, OverflowPolicy, Packet, RelayAwareMac, RelayConfig, RoundRobinPolling,
    Scene, SdmAwareAssignment, SlottedAloha, SlottedRunReport, SystemConfig,
};
use milback::node::power::{NodeActivity, NodePowerModel};
use milback::sigproc::random::GaussianSource;

const SEEDS: std::ops::RangeInclusive<u64> = 1..=12;
const FRAMES: usize = 24;

/// 48 nodes: 36 on a ±60° arc at 4 m inside a 6 m coverage range, 12 on
/// an 8 m ring outside it, one tag hop from the arc.
fn gapped_scene() -> Scene {
    let span = 120f64.to_radians();
    let orientation = 12f64.to_radians();
    let mut scene = Scene::arc(36, 4.0, span, orientation);
    for k in 0..12 {
        scene = scene.with_node_at(8.0, Scene::arc_azimuth_rad(k, 12, span), orientation);
    }
    scene
}

fn relay_config() -> RelayConfig {
    RelayConfig {
        coverage: CoverageModel::with_range(6.0),
        max_hops: 2,
        tag_range_m: 4.5,
        hop_snr_penalty_db: 3.0,
    }
}

fn plan(config: &SystemConfig, slots: usize, payload: &[u8]) -> SlotPlan {
    SlotPlan::for_packet(
        slots,
        &Packet::uplink(payload.to_vec()),
        &config.fmcw,
        config.uplink_symbol_rate_hz,
        10e-6,
    )
    .unwrap()
}

fn policy(name: &str, seed: u64) -> Box<dyn MacPolicy> {
    match name {
        "aloha" => Box::new(SlottedAloha::new(seed)),
        "backoff" => Box::new(BackoffAloha::new(seed, 4).unwrap()),
        "polling" => Box::new(RoundRobinPolling::new()),
        "sdm" => Box::new(SdmAwareAssignment::new()),
        "relay" => Box::new(RelayAwareMac::new(seed, relay_config())),
        other => panic!("unknown policy {other}"),
    }
}

const POLICIES: [&str; 5] = ["aloha", "backoff", "polling", "sdm", "relay"];

#[test]
fn node_energy_matches_its_transmissions_and_idle_time() {
    let config = SystemConfig::milback_default();
    let net = Network::new(config.clone(), gapped_scene()).unwrap();
    let payload = [0x42u8; 16];
    let plan = plan(&config, 8, &payload);
    let airtime_s =
        Packet::uplink(payload.to_vec()).duration_s(&config.fmcw, config.uplink_symbol_rate_hz);
    let power = NodePowerModel::milback_default();
    let (p_uplink, p_idle) = (
        power.power_w(NodeActivity::Uplink),
        power.power_w(NodeActivity::Idle),
    );
    // Two legs: the parity configuration, and a congested AP that sheds
    // grants over gapped coverage with relaying on.
    let congested = ApServiceConfig::instantaneous()
        .with_stage_latencies(2 * plan.slot_ps, 0, 0)
        .with_queue(1, OverflowPolicy::Drop);
    let legs = [
        ("parity", CampaignSpec::new(FRAMES, &payload, plan)),
        (
            "congested",
            CampaignSpec::new(FRAMES, &payload, plan)
                .with_service(congested)
                .with_relay(relay_config()),
        ),
    ];
    let (mut forwarded, mut shed, mut collisions) = (0, 0, 0);
    for (leg, spec) in legs {
        for name in POLICIES {
            for seed in SEEDS {
                let r: SlottedRunReport = net
                    .run(
                        &spec,
                        policy(name, seed),
                        &mut GaussianSource::new(seed),
                        &mut CampaignProbe::disabled(),
                    )
                    .unwrap();
                let total_s = r.frames as f64 * r.frame_s;
                for node in &r.nodes {
                    let active_s = (node.attempts + node.forwarded) as f64 * airtime_s;
                    let want = active_s * p_uplink + p_idle * (total_s - active_s);
                    let rel = ((node.energy_j - want) / want).abs();
                    assert!(
                        rel <= 1e-12,
                        "{leg} {name} seed {seed} node {}: {} J vs {want} J ({rel:.1e})",
                        node.node_idx,
                        node.energy_j
                    );
                }
                forwarded += r.nodes.iter().map(|n| n.forwarded).sum::<usize>();
                collisions += r.nodes.iter().map(|n| n.collisions).sum::<usize>();
                shed += r.service.dropped;
            }
        }
    }
    // The legs reached every energy path the oracle claims to cover.
    assert!(forwarded > 0 && shed > 0 && collisions > 0);
}

#[test]
fn polling_grants_one_transmitter_per_slot_and_never_collides() {
    let config = SystemConfig::milback_default();
    let payload = [0x42u8; 8];
    // Fewer nodes than slots (nodes polled twice a frame), equal, more.
    for nodes in [3, 8, 48] {
        let scene = Scene::arc(nodes, 4.0, 120f64.to_radians(), 12f64.to_radians());
        let net = Network::new(config.clone(), scene).unwrap();
        let spec = CampaignSpec::new(FRAMES, &payload, plan(&config, 8, &payload));
        for seed in SEEDS {
            let mut probe = CampaignProbe::with_metrics();
            let r: SlottedRunReport = net
                .run(
                    &spec,
                    Box::new(RoundRobinPolling::new()),
                    &mut GaussianSource::new(seed),
                    &mut probe,
                )
                .unwrap();
            let metrics = probe.take_metrics().unwrap();
            let what = format!("{nodes} nodes, seed {seed}");
            // Every frame grants all 8 slots, one transmitter each.
            assert_eq!(
                metrics.counter("slots_fired"),
                (8 * FRAMES) as u64,
                "{what}"
            );
            assert_eq!(metrics.counter("attempts"), (8 * FRAMES) as u64, "{what}");
            assert_eq!(metrics.counter("slot_collisions"), 0, "{what}");
            assert!(r.nodes.iter().all(|n| n.collisions == 0), "{what}");
            let ledger = &r.lifecycle;
            for reason in [DropReason::ContentionCollision, DropReason::SdmInseparable] {
                assert_eq!(
                    ledger.drops[reason.index()],
                    0,
                    "{what}: {}",
                    reason.label()
                );
            }
        }
    }
}

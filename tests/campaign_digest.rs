//! Golden digests of the campaign entry points.
//!
//! An FNV-1a digest folds the `to_bits` of every float and every integer
//! of the campaign outputs, plus a probe of the RNG position after each
//! run, so a changed value, a changed draw count or a changed draw order
//! fails here:
//!
//! * per-node reports of the 64-node ±60° sector scene for four MAC
//!   policies × relay off/on × an instantaneous and a congested `Drop` AP
//!   pipeline — every `SlottedNodeReport` field, the service ledger and
//!   the whole lifecycle ledger;
//! * sharded aggregates of the same scene at 4 cells on 1 and 4 worker
//!   threads (the two must also be equal);
//! * relay-aware reports of a ringed 6 + 6 scene whose relay chains share
//!   slot instants with direct groups that are served, so the order of a
//!   chain's noise draw against same-instant direct draws is pinned;
//! * `Session::run_packet` uplink and downlink reports for seeds 1–4, and
//!   over four per-trial runner streams;
//! * slotted-ALOHA reports of the small scenes the retired direct ALOHA
//!   coordinator was compared against: two nodes 35° apart, a three-node
//!   scene over per-trial streams and campaign lengths, and a ringed
//!   4 + 4 scene.
//!
//! The committed digests were recorded before the campaign entry points
//! were collapsed onto one spec and two runners; the slotted-ALOHA digests
//! were recorded while the direct coordinator still ran beside them. The
//! session digests were re-recorded when a packet went to one Field-2
//! capture, once `end_to_end.rs`'s public-call reference walk of that
//! packet (`session_captures_the_chirps_it_bills`) agreed with it.

use milback::ap::waveform::LinkDirection;
use milback::core::protocol::SlotPlan;
use milback::core::telemetry::{Histogram, TraceRecord};
use milback::core::{
    ApServiceConfig, ApServiceStats, BackoffAloha, CampaignAggregate, CampaignProbe, CampaignSpec,
    CoverageModel, LifecycleStats, MacPolicy, Network, OverflowPolicy, Packet, RelayAwareMac,
    RelayConfig, RoundRobinPolling, Scene, SdmAwareAssignment, Session, SlottedAloha,
    SlottedRunReport, SystemConfig,
};
use milback::sigproc::random::GaussianSource;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn usize(&mut self, x: usize) {
        self.word(x as u64);
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn opt_f64(&mut self, x: Option<f64>) {
        match x {
            Some(v) => {
                self.word(1);
                self.f64(v);
            }
            None => self.word(0),
        }
    }

    /// Folds the RNG position without advancing it: a clone draws one
    /// Gaussian (which sees any cached polar-method partner) and one
    /// uniform (which sees the raw stream).
    fn rng(&mut self, rng: &GaussianSource) {
        let mut probe = rng.clone();
        self.f64(probe.standard());
        self.f64(probe.uniform(0.0, 1.0));
    }

    fn histogram(&mut self, h: &Histogram) {
        self.usize(h.bounds.len());
        for &b in h.bounds {
            self.f64(b);
        }
        self.usize(h.counts.len());
        for &c in &h.counts {
            self.word(c);
        }
        self.word(h.count);
        self.f64(h.sum);
    }

    fn service(&mut self, s: &ApServiceStats) {
        for w in [s.offered, s.served, s.dropped, s.deferred, s.degraded] {
            self.word(w);
        }
    }

    fn lifecycle(&mut self, l: &LifecycleStats) {
        self.word(l.offered);
        self.word(l.delivered_direct);
        self.word(l.delivered_relayed);
        for &d in &l.drops {
            self.word(d);
        }
        for &d in &l.shed_by_stage {
            self.word(d);
        }
        self.histogram(&l.slot_wait_us);
        self.histogram(&l.service_residence_us);
        self.histogram(&l.relay_extra_us);
    }

    fn report(&mut self, r: &SlottedRunReport) {
        self.usize(r.frames);
        self.f64(r.frame_s);
        self.usize(r.payload_bytes);
        self.usize(r.nodes.len());
        for n in &r.nodes {
            self.usize(n.node_idx);
            self.usize(n.attempts);
            self.usize(n.delivered);
            self.usize(n.collisions);
            self.f64(n.energy_j);
            self.opt_f64(n.mean_snr_db);
            self.word(u64::from(n.gap));
            self.usize(n.relayed);
            self.usize(n.relay_hops);
            self.usize(n.forwarded);
            self.f64(n.relay_energy_j);
            self.f64(n.relay_latency_s);
        }
        self.service(&r.service);
        self.lifecycle(&r.lifecycle);
    }

    fn aggregate(&mut self, a: &CampaignAggregate) {
        for w in [
            a.cells,
            a.nodes,
            a.frames,
            a.payload_bytes,
            a.attempts,
            a.delivered,
            a.collisions,
            a.delivering_nodes,
            a.gap_nodes,
            a.gap_attempts,
            a.gap_delivered,
            a.relayed,
            a.relay_hops,
            a.forwarded,
        ] {
            self.word(w);
        }
        for x in [
            a.frame_s,
            a.energy_j,
            a.snr_sum_db,
            a.relay_energy_j,
            a.relay_latency_s,
        ] {
            self.f64(x);
        }
        self.histogram(&a.node_energy_j);
        self.histogram(&a.node_snr_db);
        self.histogram(&a.node_relay_hops);
        self.service(&a.service);
        self.lifecycle(&a.lifecycle);
    }
}

const NODES: usize = 64;
const FRAMES: usize = 6;
const PAYLOAD: [u8; 16] = [0x42; 16];

/// The 64-node ±60° sector at 4 m the network sweeps race over.
fn sector_network() -> Network {
    let scene = Scene::arc(NODES, 4.0, 120f64.to_radians(), 12f64.to_radians());
    Network::new(SystemConfig::milback_default(), scene).unwrap()
}

fn plan_for(net: &Network) -> SlotPlan {
    SlotPlan::for_packet(
        8,
        &Packet::uplink(PAYLOAD.to_vec()),
        &net.config.fmcw,
        net.config.uplink_symbol_rate_hz,
        10e-6,
    )
    .unwrap()
}

/// Edge nodes past ±45° are coverage gaps; their neighbors within half a
/// meter can bridge them in two transmissions, farther ones cannot.
fn relay_on() -> RelayConfig {
    RelayConfig {
        coverage: CoverageModel {
            ap_range_m: f64::INFINITY,
            sector_half_rad: 45f64.to_radians(),
        },
        max_hops: 2,
        tag_range_m: 0.5,
        hop_snr_penalty_db: 3.0,
    }
}

/// A Capture stage two slots deep behind a one-grant `Drop` queue.
fn congested(plan: &SlotPlan) -> ApServiceConfig {
    ApServiceConfig::instantaneous()
        .with_stage_latencies(2 * plan.slot_ps, 0, 0)
        .with_queue(1, OverflowPolicy::Drop)
}

fn policy(name: &str, seed: u64, relay: &RelayConfig) -> Box<dyn MacPolicy> {
    match name {
        "aloha" if !relay.is_disabled() => Box::new(RelayAwareMac::new(seed, *relay)),
        "aloha" => Box::new(SlottedAloha::new(seed)),
        "backoff" => Box::new(BackoffAloha::new(seed, 5).unwrap()),
        "polling" => Box::new(RoundRobinPolling::new()),
        "sdm" => Box::new(SdmAwareAssignment::new()),
        _ => unreachable!("unknown policy {name}"),
    }
}

#[test]
fn campaign_digest_reports() {
    let net = sector_network();
    let plan = plan_for(&net);
    let mut h = Fnv::new();
    let mut relayed = 0;
    for (p, name) in ["aloha", "backoff", "polling", "sdm"].iter().enumerate() {
        for relay in [RelayConfig::disabled(), relay_on()] {
            for service in [ApServiceConfig::instantaneous(), congested(&plan)] {
                let seed = 0xD16E_5700 + p as u64;
                let mut rng = GaussianSource::new(seed);
                let r = net
                    .run_mac_relay_service(
                        policy(name, seed, &relay),
                        FRAMES,
                        &PAYLOAD,
                        &plan,
                        20.0,
                        &mut rng,
                        &service,
                        &relay,
                    )
                    .unwrap();
                r.lifecycle.audit().unwrap();
                relayed += r.nodes.iter().map(|n| n.relayed).sum::<usize>();
                h.report(&r);
                h.rng(&rng);
            }
        }
    }
    assert!(relayed > 0, "the relay leg must deliver over relay routes");
    assert_eq!(
        h.0, 10_357_797_013_807_218_911,
        "per-node campaign digest moved"
    );
}

#[test]
fn campaign_digest_sharded() {
    let net = sector_network();
    let plan = plan_for(&net);
    let mut h = Fnv::new();
    for (relay, service) in [
        (RelayConfig::disabled(), ApServiceConfig::instantaneous()),
        (relay_on(), congested(&plan)),
    ] {
        let run = |threads: usize| {
            net.run_sharded_mac_relay(
                4,
                threads,
                0x5EED,
                FRAMES,
                &PAYLOAD,
                &plan,
                20.0,
                &service,
                &relay,
                |_, seed| policy("aloha", seed, &relay),
            )
            .unwrap()
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one, four, "sharded aggregate depends on the thread count");
        h.aggregate(&one);
        h.aggregate(&four);
    }
    assert_eq!(
        h.0, 2_453_619_731_934_983_145,
        "sharded campaign digest moved"
    );
}

/// Relay chains sharing slot instants with served direct groups: six
/// covered nodes on a 60° arc at 4 m, six gap nodes on the same span at
/// 8 m (coverage ends at 6 m) two transmissions from coverage, and twelve
/// slots, so most direct groups are one node and serve. Each chain draws
/// its terminal uplink's noise ahead of the same-instant direct traffic;
/// serving the direct grants first reorders the trial stream and moves
/// the digest. The trace confirms the premise: some instant ends both a
/// relayed flow and a served direct flow.
#[test]
fn campaign_digest_relay_shares_served_slots() {
    let span = 60f64.to_radians();
    let orient = 12f64.to_radians();
    let mut scene = Scene::arc(6, 4.0, span, orient);
    for k in 0..6 {
        scene = scene.with_node_at(8.0, Scene::arc_azimuth_rad(k, 6, span), orient);
    }
    let net = Network::new(SystemConfig::milback_default(), scene).unwrap();
    let payload = [0x42u8; 8];
    let plan = small_plan(&net, 12, &payload, 5e-6);
    let relay = RelayConfig {
        coverage: CoverageModel::with_range(6.0),
        max_hops: 2,
        tag_range_m: 4.5,
        hop_snr_penalty_db: 3.0,
    };
    let spec = CampaignSpec::new(8, &payload, plan).with_relay(relay);
    let mut h = Fnv::new();
    let mut shared = 0;
    for trial in 0..4 {
        let mut rng = trial_rng(0x5EA7, trial);
        let mut probe = CampaignProbe::with_trace(1 << 14);
        let r: SlottedRunReport = net
            .run(
                &spec,
                Box::new(RelayAwareMac::new(trial as u64, relay)),
                &mut rng,
                &mut probe,
            )
            .unwrap();
        r.lifecycle.audit().unwrap();
        h.report(&r);
        h.rng(&rng);
        let trace = probe.trace.take().unwrap().into_buffer();
        assert_eq!(trace.dropped(), 0);
        let ends: Vec<(u64, &str)> = trace
            .records()
            .filter_map(|r| match *r {
                TraceRecord::FlowEnd {
                    time_ps, outcome, ..
                } => Some((time_ps, outcome)),
                _ => None,
            })
            .collect();
        shared += ends
            .iter()
            .filter(|&&(t, o)| o == "relayed" && ends.contains(&(t, "served")))
            .count();
    }
    assert!(
        shared > 0,
        "no relay chain shared an instant with served traffic"
    );
    assert_eq!(
        h.0, 15_042_548_485_999_197_945,
        "relay/served slot-sharing digest moved"
    );
}

#[test]
fn campaign_digest_session() {
    let session = Session::new(
        SystemConfig::milback_default(),
        Scene::indoor(3.0, 12f64.to_radians()),
    )
    .unwrap();
    let mut h = Fnv::new();
    for seed in 1..=4u64 {
        let mut rng = GaussianSource::new(seed);
        for packet in [
            Packet::uplink(PAYLOAD.to_vec()),
            Packet::downlink(PAYLOAD.to_vec()),
        ] {
            let r = session.run_packet(&packet, &mut rng).unwrap();
            h.f64(r.fix.range_m);
            h.f64(r.fix.angle_rad);
            h.f64(r.fix.position.x);
            h.f64(r.fix.position.y);
            h.f64(r.fix.confidence_db);
            h.f64(r.orientation_at_ap);
            h.f64(r.orientation_at_node);
            h.word(match r.decoded_direction {
                LinkDirection::Uplink => 1,
                LinkDirection::Downlink => 2,
            });
            h.usize(r.delivered.len());
            for &b in &r.delivered {
                h.word(u64::from(b));
            }
            h.f64(r.ber);
            h.f64(r.airtime_s);
            h.f64(r.node_energy_j);
            h.rng(&rng);
        }
    }
    assert_eq!(h.0, 9_219_386_244_035_958_278, "session digest moved");
}

/// `Session::run_packet` on per-trial runner streams over a packet grid
/// that covers downlink, uplink and the empty payload.
#[test]
fn campaign_digest_session_per_trial() {
    let session = Session::new(
        SystemConfig::milback_default(),
        Scene::indoor(4.0, 12f64.to_radians()),
    )
    .unwrap();
    let mut h = Fnv::new();
    for trial in 0..4 {
        let packet = match trial {
            0 => Packet::downlink(vec![0xA5; 12]),
            1 => Packet::uplink(vec![0x42; 16]),
            2 => Packet::downlink(Vec::new()),
            _ => Packet::uplink((0..24).collect::<Vec<u8>>()),
        };
        let mut rng = trial_rng(0x5E55, trial);
        let r = session.run_packet(&packet, &mut rng).unwrap();
        for x in [
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
        ] {
            h.f64(x);
        }
        h.rng(&rng);
        h.word(match r.decoded_direction {
            LinkDirection::Uplink => 1,
            LinkDirection::Downlink => 2,
        });
        h.usize(r.delivered.len());
        for &b in &r.delivered {
            h.word(u64::from(b));
        }
    }
    assert_eq!(
        h.0, 6_210_756_064_831_226_774,
        "per-trial session digest moved"
    );
}

/// Slotted ALOHA over `slot_seed` through `Network::run` on the default
/// spec, folded with the RNG position it leaves.
fn fold_aloha(
    h: &mut Fnv,
    net: &Network,
    frames: usize,
    payload: &[u8],
    plan: &SlotPlan,
    slot_seed: u64,
    rng: &mut GaussianSource,
) {
    let r = net
        .run(
            &CampaignSpec::new(frames, payload, *plan),
            Box::new(SlottedAloha::new(slot_seed)),
            rng,
            &mut CampaignProbe::disabled(),
        )
        .unwrap();
    h.report(&r);
    h.rng(rng);
}

fn small_plan(net: &Network, slots: usize, payload: &[u8], guard_s: f64) -> SlotPlan {
    SlotPlan::for_packet(
        slots,
        &Packet::uplink(payload.to_vec()),
        &net.config.fmcw,
        net.config.uplink_symbol_rate_hz,
        guard_s,
    )
    .unwrap()
}

/// The stream seed of trial `idx` under `root`: the trial runner's
/// SplitMix64-increment mix (`milback_bench::runner::trial_seed`).
fn trial_rng(root: u64, idx: usize) -> GaussianSource {
    GaussianSource::new(root ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Three nodes at 4, 4.5 and 3.5 m, at 0°, 35° and −30°.
fn three_node_network() -> Network {
    let orient = 12f64.to_radians();
    let scene = Scene::single_node(4.0, orient)
        .with_node_at(4.5, 35f64.to_radians(), orient)
        .with_node_at(3.5, -30f64.to_radians(), orient);
    Network::new(SystemConfig::milback_default(), scene).unwrap()
}

#[test]
fn campaign_digest_two_node_aloha() {
    let orient = 12f64.to_radians();
    let scene = Scene::single_node(4.0, orient).with_node_at(4.0, 35f64.to_radians(), orient);
    let net = Network::new(SystemConfig::milback_default(), scene).unwrap();
    let payload = [7u8; 8];
    let plan = small_plan(&net, 4, &payload, 5e-6);
    let mut h = Fnv::new();
    let mut rng = GaussianSource::new(0xACE);
    fold_aloha(&mut h, &net, 6, &payload, &plan, 9, &mut rng);
    assert_eq!(h.0, 892_564_172_543_795_142, "two-node ALOHA digest moved");
}

#[test]
fn campaign_digest_aloha_trial_streams() {
    let net = three_node_network();
    let plan = small_plan(&net, 4, &PAYLOAD, 10e-6);
    let mut h = Fnv::new();
    for trial in 0..4 {
        let mut rng = trial_rng(0xACE5, trial);
        let slot_seed = trial as u64;
        fold_aloha(&mut h, &net, 6, &PAYLOAD, &plan, slot_seed, &mut rng);
    }
    assert_eq!(
        h.0, 12_265_982_093_642_870_885,
        "per-trial ALOHA digest moved"
    );
}

#[test]
fn campaign_digest_aloha_trial_lengths() {
    let net = three_node_network();
    let plan = small_plan(&net, 4, &PAYLOAD, 10e-6);
    let mut h = Fnv::new();
    for trial in 0..6 {
        let mut rng = trial_rng(0xA10, trial);
        let frames = 4 + trial;
        fold_aloha(
            &mut h,
            &net,
            frames,
            &PAYLOAD,
            &plan,
            trial as u64,
            &mut rng,
        );
    }
    assert_eq!(
        h.0, 15_714_585_683_413_768_115,
        "campaign-length ALOHA digest moved"
    );
}

#[test]
fn campaign_digest_ringed_aloha() {
    // Four nodes on a 60° arc at 4 m and four on the same span at 8 m.
    let span = 60f64.to_radians();
    let orient = 12f64.to_radians();
    let mut scene = Scene::arc(4, 4.0, span, orient);
    for k in 0..4 {
        scene = scene.with_node_at(8.0, Scene::arc_azimuth_rad(k, 4, span), orient);
    }
    let net = Network::new(SystemConfig::milback_default(), scene).unwrap();
    let payload = [0x42u8; 8];
    let plan = small_plan(&net, 8, &payload, 5e-6);
    let mut h = Fnv::new();
    let mut rng = GaussianSource::new(0xBEEF_CAFE);
    fold_aloha(&mut h, &net, 8, &payload, &plan, 0xFEED, &mut rng);
    assert_eq!(h.0, 15_346_254_576_734_256_091, "ringed ALOHA digest moved");
}

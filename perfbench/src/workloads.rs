//! The four workloads: their inputs (built from the seed), one timed unit
//! each, and the output checks every unit must pass.

use milback_core::network::SdmAwareAssignment;
use milback_core::protocol::SlotPlan;
use milback_core::{
    cell_seed, ApServiceConfig, CampaignAggregate, CoverageModel, MacPolicy, Network,
    OverflowPolicy, Packet, RelayAwareMac, RelayConfig, Scene, Session, SessionReport,
    SlottedAloha, SystemConfig,
};
use mmwave_sigproc::random::GaussianSource;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["city_1m", "sector_sdm", "gap_relay", "session_packet"];

/// Payload bytes of every packet in every workload.
const PAYLOAD_BYTES: usize = 16;
/// The ±60° sector every campaign scene spreads its nodes over.
const SECTOR_SPAN_DEG: f64 = 120.0;
/// Board rotation of every node, degrees.
const NODE_ORIENTATION_DEG: f64 = 12.0;
/// SDM separability threshold of every campaign, dB.
pub const SDM_THRESHOLD_DB: f64 = 20.0;
/// Slot guard of every campaign plan, seconds.
const GUARD_S: f64 = 10e-6;

/// SplitMix64 finalizer: derives independent streams from `(seed, index)`.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words: the digest of a workload's simulated outputs.
#[derive(Clone, Copy)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Which MAC policy a campaign runs (one per cell when sharded).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    Aloha,
    SdmAware,
    RelayAware,
}

/// One slotted campaign's inputs: everything the program receives.
pub struct Campaign {
    pub net: Network,
    /// Spatial cells; 1 runs the plain (unsharded) entry point.
    pub cells: usize,
    pub frames: usize,
    pub payload: Vec<u8>,
    pub plan: SlotPlan,
    pub service: ApServiceConfig,
    pub relay: RelayConfig,
    pub policy: PolicyKind,
}

/// A single-node packet session's inputs.
pub struct SessionInputs {
    pub session: Session,
    /// Packet `k` of the loop is `packets[k % len]`.
    pub packets: Vec<Packet>,
}

pub enum Inputs {
    Campaign(Campaign),
    Session(SessionInputs),
}

/// What one timed unit produced.
pub struct UnitOutcome {
    /// Packets the unit offered (fixed by the workload).
    pub offered: u64,
    pub delivered: u64,
    /// Why the unit failed its output checks, if it did.
    pub failure: Option<String>,
    /// The campaign's own aggregate (campaign workloads only).
    pub agg: Option<CampaignAggregate>,
    /// The session's own report (session workload only).
    pub session: Option<SessionReport>,
}

impl Campaign {
    /// Packets offered per unit: one per node per frame.
    pub fn offered(&self) -> u64 {
        (self.net.node_count() * self.frames) as u64
    }

    pub fn policy_for(&self, seed: u64) -> Box<dyn MacPolicy> {
        match self.policy {
            PolicyKind::Aloha => Box::new(SlottedAloha::new(seed)),
            PolicyKind::SdmAware => Box::new(SdmAwareAssignment::new()),
            PolicyKind::RelayAware => Box::new(RelayAwareMac::new(seed, self.relay)),
        }
    }

    /// Runs unit `seed` through the program's campaign entry point.
    pub fn run(&self, seed: u64) -> Result<CampaignAggregate, String> {
        let e = |e: milback_core::MilbackError| e.to_string();
        if self.cells > 1 {
            self.net
                .run_sharded_mac_relay(
                    self.cells,
                    1,
                    seed,
                    self.frames,
                    &self.payload,
                    &self.plan,
                    SDM_THRESHOLD_DB,
                    &self.service,
                    &self.relay,
                    |_, cell| self.policy_for(cell),
                )
                .map_err(e)
        } else {
            // Cell 0 of a sharded campaign draws from the campaign seed
            // itself, so the plain path uses the same seed discipline.
            let mut rng = GaussianSource::new(cell_seed(seed, 0));
            let r = self
                .net
                .run_mac_relay_service(
                    self.policy_for(seed),
                    self.frames,
                    &self.payload,
                    &self.plan,
                    SDM_THRESHOLD_DB,
                    &mut rng,
                    &self.service,
                    &self.relay,
                )
                .map_err(e)?;
            Ok(CampaignAggregate::from_report(&r))
        }
    }

    /// The output checks of one campaign unit.
    pub fn check(&self, agg: &CampaignAggregate) -> Option<String> {
        if let Err(e) = agg.lifecycle.audit() {
            return Some(format!("conservation audit failed: {e}"));
        }
        if agg.lifecycle.offered != self.offered() {
            return Some(format!(
                "ledger offered {} packets, the workload offers {}",
                agg.lifecycle.offered,
                self.offered()
            ));
        }
        if self.policy == PolicyKind::SdmAware && agg.collisions != 0 {
            return Some(format!(
                "{} collisions under collision-free SDM assignment",
                agg.collisions
            ));
        }
        None
    }

    pub fn digest(agg: &CampaignAggregate, d: &mut Digest) {
        for w in [
            agg.attempts,
            agg.delivered,
            agg.collisions,
            agg.energy_j.to_bits(),
            agg.snr_sum_db.to_bits(),
            agg.relayed,
            agg.forwarded,
            agg.service.offered,
            agg.service.served,
            agg.service.dropped,
            agg.lifecycle.offered,
        ] {
            d.word(w);
        }
        for &drops in &agg.lifecycle.drops {
            d.word(drops);
        }
    }
}

impl SessionInputs {
    pub fn packet(&self, k: u64) -> &Packet {
        &self.packets[(k % self.packets.len() as u64) as usize]
    }
}

impl Inputs {
    /// Runs unit `k` on the stream `mix(seed, k)`.
    pub fn run_unit(&self, seed: u64, k: u64, digest: Option<&mut Digest>) -> UnitOutcome {
        let unit_seed = mix(seed, k);
        match self {
            Inputs::Campaign(c) => match c.run(unit_seed) {
                Ok(agg) => {
                    if let Some(d) = digest {
                        Campaign::digest(&agg, d);
                    }
                    UnitOutcome {
                        offered: c.offered(),
                        delivered: agg.delivered,
                        failure: c.check(&agg),
                        agg: Some(agg),
                        session: None,
                    }
                }
                Err(e) => failed_unit(c.offered(), e),
            },
            Inputs::Session(s) => {
                let packet = s.packet(k);
                let mut rng = GaussianSource::new(unit_seed);
                match s.session.run_packet(packet, &mut rng) {
                    Ok(r) => {
                        if let Some(d) = digest {
                            d.word(r.ber.to_bits());
                            d.word(r.fix.range_m.to_bits());
                            d.word(r.fix.angle_rad.to_bits());
                            d.word(r.orientation_at_ap.to_bits());
                            d.word(r.orientation_at_node.to_bits());
                            d.word(r.node_energy_j.to_bits());
                            r.delivered.iter().for_each(|&b| d.word(u64::from(b)));
                        }
                        let ok = r.delivered == packet.payload && r.ber == 0.0;
                        UnitOutcome {
                            offered: 1,
                            delivered: u64::from(ok),
                            failure: (!ok)
                                .then(|| format!("payload did not decode cleanly (BER {})", r.ber)),
                            agg: None,
                            session: Some(r),
                        }
                    }
                    Err(e) => failed_unit(1, e.to_string()),
                }
            }
        }
    }
}

fn failed_unit(offered: u64, why: String) -> UnitOutcome {
    UnitOutcome {
        offered,
        delivered: 0,
        failure: Some(why),
        agg: None,
        session: None,
    }
}

fn sector_plan(config: &SystemConfig, payload: &[u8], slots: usize) -> Result<SlotPlan, String> {
    SlotPlan::for_packet(
        slots,
        &Packet::uplink(payload.to_vec()),
        &config.fmcw,
        config.uplink_symbol_rate_hz,
        GUARD_S,
    )
    .map_err(|e| e.to_string())
}

fn payload(seed: u64, k: u64) -> Vec<u8> {
    GaussianSource::new(mix(seed, k ^ 0x5041_594C_4F41_4400)).bytes(PAYLOAD_BYTES)
}

fn sector_scene(n: usize) -> Scene {
    Scene::arc(
        n,
        4.0,
        SECTOR_SPAN_DEG.to_radians(),
        NODE_ORIENTATION_DEG.to_radians(),
    )
}

/// The sector with a quarter of its nodes past AP coverage: the covered
/// nodes keep the 4 m arc, two thirds of the gap nodes sit on an 8 m ring
/// (one tag hop out) and the rest on a 12 m ring (two hops out, beyond a
/// 2-transmission budget).
fn gapped_scene(n: usize) -> Scene {
    let span = SECTOR_SPAN_DEG.to_radians();
    let orientation = NODE_ORIENTATION_DEG.to_radians();
    let n_gap = n / 4;
    let n_far = n_gap / 3;
    let n_near = n_gap - n_far;
    let mut scene = Scene::arc(n - n_gap, 4.0, span, orientation);
    for (ring_m, count) in [(8.0, n_near), (12.0, n_far)] {
        for k in 0..count {
            scene =
                scene.with_node_at(ring_m, Scene::arc_azimuth_rad(k, n_near, span), orientation);
        }
    }
    scene
}

/// Workload `name`'s scene alone, for the traced run's `scene` layer.
pub fn scene(name: &str) -> Scene {
    match name {
        "city_1m" => sector_scene(1_000_000),
        "sector_sdm" => sector_scene(64),
        "gap_relay" => gapped_scene(64),
        _ => Scene::indoor(3.0, NODE_ORIENTATION_DEG.to_radians()),
    }
}

/// Builds workload `name`'s inputs from `seed`: the set-up that `setup_s`
/// times.
pub fn build(name: &str, seed: u64) -> Result<Inputs, String> {
    let config = SystemConfig::milback_default();
    let e = |e: milback_core::MilbackError| e.to_string();
    let pay = payload(seed, 0);
    Ok(match name {
        "city_1m" => {
            let plan = sector_plan(&config, &pay, 8)?;
            Inputs::Campaign(Campaign {
                net: Network::new(config, scene(name)).map_err(e)?,
                cells: 31_250,
                frames: 4,
                payload: pay,
                plan,
                service: ApServiceConfig::instantaneous(),
                relay: RelayConfig::disabled(),
                policy: PolicyKind::Aloha,
            })
        }
        "sector_sdm" => {
            let plan = sector_plan(&config, &pay, 8)?;
            Inputs::Campaign(Campaign {
                net: Network::new(config, scene(name)).map_err(e)?,
                cells: 1,
                frames: 24,
                payload: pay,
                plan,
                service: ApServiceConfig::instantaneous(),
                relay: RelayConfig::disabled(),
                policy: PolicyKind::SdmAware,
            })
        }
        "gap_relay" => {
            let plan = sector_plan(&config, &pay, 8)?;
            // A Capture stage two slots deep behind a one-grant queue that
            // sheds on overflow: the congested AP of the lifecycle audit.
            let service = ApServiceConfig::instantaneous()
                .with_stage_latencies(2 * plan.slot_ps, 0, 0)
                .with_queue(1, OverflowPolicy::Drop);
            let relay = RelayConfig {
                coverage: CoverageModel::with_range(6.0),
                max_hops: 2,
                tag_range_m: 4.5,
                hop_snr_penalty_db: 3.0,
            };
            Inputs::Campaign(Campaign {
                net: Network::new(config, scene(name)).map_err(e)?,
                cells: 1,
                frames: 24,
                payload: pay,
                plan,
                service,
                relay,
                policy: PolicyKind::RelayAware,
            })
        }
        "session_packet" => {
            let packets = (0..64)
                .map(|k| {
                    let p = payload(seed, k);
                    if k % 2 == 0 {
                        Packet::uplink(p)
                    } else {
                        Packet::downlink(p)
                    }
                })
                .collect();
            Inputs::Session(SessionInputs {
                session: Session::new(config, scene(name)).map_err(e)?,
                packets,
            })
        }
        other => return Err(format!("unknown workload {other:?}")),
    })
}

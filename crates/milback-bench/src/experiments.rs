//! Parameterized experiment cores shared by the figure binaries and the
//! benchmark harness.
//!
//! Each figure core is a pure function of its grid, trial count, and root
//! seed: it flattens `points × trials` into one batch of independent
//! Monte-Carlo trials, runs them through [`crate::runner::run_trials`] (so
//! trial `i` always consumes the same RNG stream regardless of thread
//! count or grid shape), and regroups the per-trial outcomes by grid
//! point. The figure binaries call these at full scale to regenerate the
//! CSV anchors; `bench_smoke` calls them at reduced scale, serial vs
//! parallel, to time the runner and assert the two schedules agree
//! bit-for-bit.
//!
//! The network sweeps (`net_scale`, `mac_compare`, `net_scale_city`,
//! `net_load`, `net_relay`, `net_audit`) share one runner, [`run_sweep`]:
//! each binary describes its cells as [`SweepCell`]s over one [`Sweep`]
//! shape and reads its columns straight off the library's campaign sinks.
//!
//! Every simulator/pipeline built here uses `with_beat_threads(1)`: the
//! runner already parallelizes across trials, so the inner beat-synthesis
//! parallelism would only oversubscribe the machine.

use crate::runner::{run_fallible, trial_seed, RunnerConfig, TrialBatch};
use milback_core::coding::{bits_to_bytes, bytes_to_bits, PayloadCodec};
use milback_core::localization::{Impairments, LocationFix};
use milback_core::protocol::SlotPlan;
use milback_core::telemetry::{Metrics, TraceBuffer};
use milback_core::{
    ApServiceConfig, BackoffAloha, CampaignProbe, CampaignSink, CampaignSpec, CoverageModel,
    LinkSimulator, LocalizationPipeline, MacPolicy, Network, OverflowPolicy, Packet, RelayAwareMac,
    RelayConfig, RoundRobinPolling, Scene, SdmAwareAssignment, SlottedAloha, SlottedRunReport,
    SystemConfig,
};
use mmwave_rf::channel::{ApFrontend, NodePose, Vec2};

/// The node orientation used by the ranging/link figures (the paper's
/// 12° placement).
fn node_orientation_rad() -> f64 {
    12f64.to_radians()
}

/// Splits a flattened `points × trials` result vector back into per-point
/// `(successes, failed_count)` groups, preserving trial order.
fn group_by_point<T: Clone, E>(trials: usize, results: &[Result<T, E>]) -> Vec<(Vec<T>, usize)> {
    results
        .chunks(trials)
        .map(|chunk| {
            let oks: Vec<T> = chunk
                .iter()
                .filter_map(|r| r.as_ref().ok().cloned())
                .collect();
            let failed = chunk.len() - oks.len();
            (oks, failed)
        })
        .collect()
}

/// Per-distance ranging outcomes (Figure 12a).
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceErrors {
    /// AP–node distance, meters.
    pub distance_m: f64,
    /// Absolute range errors of the successful trials, meters.
    pub abs_errors_m: Vec<f64>,
    /// Number of trials whose localization failed.
    pub failed: usize,
}

/// Figure 12a core: five-chirp ranging at each distance in the cluttered
/// indoor scene, `trials` independent trials per distance, errors against
/// the laser-measured (noisy) ground truth.
pub fn fig12a_ranging(
    distances: &[f64],
    trials: usize,
    root_seed: u64,
    cfg: &RunnerConfig,
) -> Vec<DistanceErrors> {
    let pipelines: Vec<LocalizationPipeline> = distances
        .iter()
        .map(|&d| {
            LocalizationPipeline::new(
                SystemConfig::milback_default(),
                Scene::indoor(d, node_orientation_rad()),
            )
            .expect("valid configuration")
            .with_beat_threads(1)
        })
        .collect();
    let batch = run_fallible(distances.len() * trials, root_seed, cfg, |i, rng| {
        let pipeline = &pipelines[i / trials];
        // The experimenter measures ground truth with a laser meter;
        // the estimate is compared against that measurement.
        let measured_gt = pipeline.measured_ground_truth_range(rng);
        pipeline
            .localize(rng)
            .map(|fix| (fix.range_m - measured_gt).abs())
            .map_err(|e| e.to_string())
    });
    distances
        .iter()
        .zip(group_by_point(trials, &batch.results))
        .map(|(&d, (abs_errors_m, failed))| DistanceErrors {
            distance_m: d,
            abs_errors_m,
            failed,
        })
        .collect()
}

/// Per-placement angle-error outcomes (Figure 12b).
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementErrors {
    /// True azimuth, degrees.
    pub azimuth_deg: f64,
    /// AP–node distance, meters.
    pub distance_m: f64,
    /// Absolute angle errors of the successful trials, degrees.
    pub errors_deg: Vec<f64>,
    /// Number of trials whose localization failed.
    pub failed: usize,
}

/// Figure 12b core: full localization at each `(azimuth°, distance)`
/// placement, comparing the estimated angle with the protractor truth.
pub fn fig12b_angle_errors(
    placements: &[(f64, f64)],
    trials: usize,
    root_seed: u64,
    cfg: &RunnerConfig,
) -> Vec<PlacementErrors> {
    let pipelines: Vec<LocalizationPipeline> = placements
        .iter()
        .map(|&(az_deg, dist)| {
            let scene = Scene {
                ap: ApFrontend::milback_default(),
                nodes: vec![],
                clutter: Scene::indoor(dist, 0.0).clutter,
            }
            .with_node_at(dist, az_deg.to_radians(), node_orientation_rad());
            LocalizationPipeline::new(SystemConfig::milback_default(), scene)
                .expect("valid configuration")
                .with_beat_threads(1)
        })
        .collect();
    let batch = run_fallible(placements.len() * trials, root_seed, cfg, |i, rng| {
        let (az_deg, _) = placements[i / trials];
        pipelines[i / trials]
            .localize(rng)
            .map(|fix| (fix.angle_rad.to_degrees() - az_deg).abs())
            .map_err(|e| e.to_string())
    });
    placements
        .iter()
        .zip(group_by_point(trials, &batch.results))
        .map(|(&(az_deg, dist), (errors_deg, failed))| PlacementErrors {
            azimuth_deg: az_deg,
            distance_m: dist,
            errors_deg,
            failed,
        })
        .collect()
}

/// Which side estimates orientation in the Figure 13 experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrientSide {
    /// Node-side estimation from the two detector traces (Fig 13a).
    Node,
    /// AP-side estimation from the modulated backscatter sweep (Fig 13b).
    Ap,
}

/// Per-orientation estimation outcomes (Figures 13a/13b).
#[derive(Debug, Clone, PartialEq)]
pub struct OrientationErrors {
    /// Board orientation, degrees.
    pub orientation_deg: f64,
    /// Absolute orientation errors of the successful trials, degrees.
    pub abs_errors_deg: Vec<f64>,
    /// Number of trials whose estimation failed.
    pub failed: usize,
}

/// Figure 13 core: orientation estimation at 2 m for each board
/// orientation, on the chosen side.
pub fn fig13_orientation(
    orientations_deg: &[f64],
    trials: usize,
    root_seed: u64,
    cfg: &RunnerConfig,
    side: OrientSide,
) -> Vec<OrientationErrors> {
    // `orientation_rad` rotates the board; the sensed incidence is its
    // negative — sweep the board and compare in incidence space.
    let pipelines: Vec<LocalizationPipeline> = orientations_deg
        .iter()
        .map(|&deg| {
            LocalizationPipeline::new(
                SystemConfig::milback_default(),
                Scene::indoor(2.0, (-deg).to_radians()),
            )
            .expect("valid configuration")
            .with_beat_threads(1)
        })
        .collect();
    let truths_deg: Vec<f64> = pipelines
        .iter()
        .map(|p| p.scene.ground_truth(0).incidence_rad.to_degrees())
        .collect();
    let batch = run_fallible(orientations_deg.len() * trials, root_seed, cfg, |i, rng| {
        let k = i / trials;
        let est = match side {
            OrientSide::Node => pipelines[k].orient_at_node(rng),
            OrientSide::Ap => pipelines[k].orient_at_ap(rng),
        };
        est.map(|e| (e.to_degrees() - truths_deg[k]).abs())
            .map_err(|e| e.to_string())
    });
    orientations_deg
        .iter()
        .zip(group_by_point(trials, &batch.results))
        .map(|(&deg, (abs_errors_deg, failed))| OrientationErrors {
            orientation_deg: deg,
            abs_errors_deg,
            failed,
        })
        .collect()
}

/// One waveform-level downlink transfer (Figure 14 spot check).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotDownlink {
    /// AP–node distance, meters.
    pub distance_m: f64,
    /// Measured bit error rate of the delivered payload.
    pub ber: f64,
    /// Analytic SINR of the link, dB.
    pub sinr_db: f64,
}

/// Figure 14 core: deliver an actual payload at each distance (one trial
/// per distance, each with its own RNG stream for payload and noise).
pub fn fig14_spot_checks(
    distances: &[f64],
    payload_bytes: usize,
    root_seed: u64,
    cfg: &RunnerConfig,
) -> TrialBatch<SpotDownlink, String> {
    run_fallible(distances.len(), root_seed, cfg, |i, rng| {
        let d = distances[i];
        let sim = LinkSimulator::new(
            SystemConfig::milback_default(),
            Scene::single_node(d, node_orientation_rad()),
        )
        .map_err(|e| e.to_string())?;
        let payload: Vec<u8> = rng.bytes(payload_bytes);
        let out = sim.downlink(&payload, rng).map_err(|e| e.to_string())?;
        Ok(SpotDownlink {
            distance_m: d,
            ber: out.ber,
            sinr_db: out.sinr_db(),
        })
    })
}

/// One waveform-level uplink transfer (Figure 15 spot check).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotUplink {
    /// Uplink bit rate, bits/s.
    pub bit_rate_bps: f64,
    /// AP–node distance, meters.
    pub distance_m: f64,
    /// Measured SNR at the AP, dB.
    pub snr_db: f64,
    /// Measured bit error rate.
    pub ber: f64,
    /// The analytic SNR the link budget predicts, dB.
    pub analytic_snr_db: f64,
}

/// Figure 15 core: ship a payload over the backscatter uplink for each
/// `(bit rate, distance)` case.
pub fn fig15_spot_checks(
    cases: &[(f64, f64)],
    payload_bytes: usize,
    root_seed: u64,
    cfg: &RunnerConfig,
) -> TrialBatch<SpotUplink, String> {
    run_fallible(cases.len(), root_seed, cfg, |i, rng| {
        let (rate, d) = cases[i];
        let mut config = SystemConfig::milback_default();
        config.uplink_symbol_rate_hz = rate / 2.0;
        let sim = LinkSimulator::new(config, Scene::single_node(d, node_orientation_rad()))
            .map_err(|e| e.to_string())?;
        let payload: Vec<u8> = rng.bytes(payload_bytes);
        let out = sim.uplink(&payload, rng).map_err(|e| e.to_string())?;
        Ok(SpotUplink {
            bit_rate_bps: rate,
            distance_m: d,
            snr_db: out.snr_db,
            ber: out.ber,
            analytic_snr_db: out.analytic_snr_db,
        })
    })
}

/// Per-impairment-case ranging outcomes (Ablation A6).
#[derive(Debug, Clone, PartialEq)]
pub struct CaseErrors {
    /// Case id (the x coordinate of the ablation plot).
    pub case_id: f64,
    /// Absolute range errors of the successful trials, centimeters.
    pub abs_errors_cm: Vec<f64>,
    /// Number of trials whose localization failed.
    pub failed: usize,
}

/// Ablation A6 core: ranging at `distance_m` under each impairment case.
pub fn ablation_impairments(
    cases: &[(f64, Impairments)],
    distance_m: f64,
    trials: usize,
    root_seed: u64,
    cfg: &RunnerConfig,
) -> Vec<CaseErrors> {
    let pipelines: Vec<LocalizationPipeline> = cases
        .iter()
        .map(|&(_, imp)| {
            LocalizationPipeline::new(
                SystemConfig::milback_default(),
                Scene::indoor(distance_m, node_orientation_rad()),
            )
            .expect("valid configuration")
            .with_impairments(imp)
            .with_beat_threads(1)
        })
        .collect();
    let batch = run_fallible(cases.len() * trials, root_seed, cfg, |i, rng| {
        pipelines[i / trials]
            .localize(rng)
            .map(|fix| (fix.range_m - distance_m).abs() * 100.0)
            .map_err(|e| e.to_string())
    });
    cases
        .iter()
        .zip(group_by_point(trials, &batch.results))
        .map(|(&(case_id, _), (abs_errors_cm, failed))| CaseErrors {
            case_id,
            abs_errors_cm,
            failed,
        })
        .collect()
}

/// One coded-vs-raw uplink comparison point (Extension E2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodedUplinkPoint {
    /// AP–node distance, meters.
    pub distance_m: f64,
    /// log10 of the uncoded channel BER (floored at 1e-9).
    pub raw_log10_ber: f64,
    /// log10 of the residual BER after Hamming(7,4)+interleaving.
    pub coded_log10_ber: f64,
}

/// Extension E2 core: residual byte errors with and without FEC at each
/// distance (40 Mbps uplink).
pub fn extension_coded_uplink(
    distances: &[f64],
    payload_bytes: usize,
    root_seed: u64,
    cfg: &RunnerConfig,
) -> TrialBatch<CodedUplinkPoint, String> {
    run_fallible(distances.len(), root_seed, cfg, |i, rng| {
        let d = distances[i];
        let codec = PayloadCodec::new(7);
        let sim = LinkSimulator::new(
            SystemConfig::milback_default(),
            Scene::single_node(d, node_orientation_rad()),
        )
        .map_err(|e| e.to_string())?;
        // Raw channel BER from a long transfer.
        let payload: Vec<u8> = rng.bytes(payload_bytes);
        let out = sim.uplink(&payload, rng).map_err(|e| e.to_string())?;
        let raw_log10_ber = out.ber.max(1e-9).log10();
        // Coded: encode, ship the coded bits, decode, count residual errors.
        let coded_bits = codec.encode(&payload);
        let coded_bytes = bits_to_bytes(&coded_bits[..coded_bits.len() - coded_bits.len() % 8]);
        let coded_out = sim.uplink(&coded_bytes, rng).map_err(|e| e.to_string())?;
        let mut rx_bits = bytes_to_bits(&coded_out.decoded);
        rx_bits.resize(coded_bits.len(), false);
        let (decoded, _) = codec.decode(&rx_bits);
        let n = decoded.len().min(payload.len());
        let errors: u32 = decoded[..n]
            .iter()
            .zip(&payload[..n])
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        let residual = errors as f64 / (n * 8) as f64;
        Ok(CodedUplinkPoint {
            distance_m: d,
            raw_log10_ber,
            coded_log10_ber: residual.max(1e-9).log10(),
        })
    })
}

/// One step of the tracking extension: the truth and the (absolute-frame)
/// localization fix at that step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepFix {
    /// Time of the step, seconds.
    pub t_s: f64,
    /// True node position, AP coordinates.
    pub truth: Vec2,
    /// The localization fix, rotated into the absolute frame.
    pub fix: LocationFix,
}

/// Extension E3 core: per-step localization fixes for a node walking from
/// (3, −0.75) toward (3, +0.75) at 0.5 m/s while the AP steers its
/// boresight at the node. Each step is an independent trial; the caller
/// folds the fixes through the (inherently serial) Kalman tracker.
pub fn extension_tracking_fixes(
    steps: usize,
    dt_s: f64,
    root_seed: u64,
    cfg: &RunnerConfig,
    config: &SystemConfig,
) -> TrialBatch<StepFix, String> {
    run_fallible(steps, root_seed, cfg, |i, rng| {
        let t = i as f64 * dt_s;
        let truth = Vec2::new(3.0, -0.75 + 0.5 * t);
        let az = truth.y.atan2(truth.x);
        let mut scene = Scene::indoor(3.0, 0.0);
        scene.nodes = vec![NodePose {
            position: truth,
            facing_rad: std::f64::consts::PI + az,
        }];
        scene.ap = ApFrontend {
            boresight_rad: az,
            ..ApFrontend::milback_default()
        };
        let pipeline = LocalizationPipeline::new(config.clone(), scene)
            .map_err(|e| e.to_string())?
            .with_beat_threads(1);
        let fix = pipeline.localize(rng).map_err(|e| e.to_string())?;
        // The fix's angle is relative to the steered boresight.
        let abs_angle = fix.angle_rad + az;
        let fix_abs = LocationFix {
            position: Vec2::from_polar(fix.range_m, abs_angle),
            angle_rad: abs_angle,
            ..fix
        };
        Ok(StepFix {
            t_s: t,
            truth,
            fix: fix_abs,
        })
    })
}

/// N nodes across a ±60° sector at 4 m: evenly spaced, so density directly
/// controls the neighbour separation SDM has to work with. Shared by every
/// sector-scene sweep so their curves are comparable.
pub fn sector_scene(n: usize) -> Scene {
    Scene::arc(n, 4.0, 120f64.to_radians(), node_orientation_rad())
}

/// The sector scene with a `gap_fraction` share of its nodes pushed past
/// AP coverage: covered nodes keep the 4 m arc, and the gap nodes split
/// between an 8 m ring (two thirds — one tag hop from coverage) and a
/// 12 m ring (the rest — two tag hops, each 12 m node sharing an azimuth
/// with its 8 m forwarder so the ring spacing is exactly 4 m). The 8 m
/// majority puts the two-transmission recovery strictly above one half
/// of the gap population.
pub fn gapped_sector_scene(n: usize, gap_fraction: f64) -> Scene {
    let span = 120f64.to_radians();
    let n_gap = ((n as f64 * gap_fraction).round() as usize).min(n);
    let n_far = n_gap / 3;
    let n_near = n_gap - n_far;
    let mut scene = Scene::arc(n - n_gap, 4.0, span, node_orientation_rad());
    for k in 0..n_near {
        scene = scene.with_node_at(
            8.0,
            Scene::arc_azimuth_rad(k, n_near, span),
            node_orientation_rad(),
        );
    }
    for k in 0..n_far {
        scene = scene.with_node_at(
            12.0,
            Scene::arc_azimuth_rad(k, n_near, span),
            node_orientation_rad(),
        );
    }
    scene
}

/// The MAC policies the `mac_compare` sweep races against each other, by
/// the [`MacPolicy::name`] each reports.
pub const MAC_POLICY_NAMES: [&str; 4] = ["aloha", "backoff", "polling", "sdm"];

/// Builds a fresh policy instance by name (see [`MAC_POLICY_NAMES`]).
/// `slot_seed` feeds the hashed-slot policies so a given (policy, scene)
/// pair is reproducible. An unknown name is an error.
pub fn mac_policy_by_name(name: &str, slot_seed: u64) -> Result<Box<dyn MacPolicy>, String> {
    Ok(match name {
        "aloha" => Box::new(SlottedAloha::new(slot_seed)),
        "backoff" => Box::new(BackoffAloha::new(slot_seed, 5).map_err(|e| e.to_string())?),
        "polling" => Box::new(RoundRobinPolling::new()),
        "sdm" => Box::new(SdmAwareAssignment::new()),
        _ => return Err(format!("unknown MAC policy {name:?}")),
    })
}

/// The overflow policies the offered-load sweep races, by CSV tag.
pub const OVERFLOW_POLICY_NAMES: [&str; 3] = ["drop", "defer", "degrade"];

/// Maps an [`OVERFLOW_POLICY_NAMES`] tag to its [`OverflowPolicy`].
pub fn overflow_policy_by_name(name: &str) -> Option<OverflowPolicy> {
    match name {
        "drop" => Some(OverflowPolicy::Drop),
        "defer" => Some(OverflowPolicy::Defer),
        "degrade" => Some(OverflowPolicy::Degrade),
        _ => None,
    }
}

/// AP coverage range of the relay sweep's gapped scenes, meters: the
/// 4 m inner arc is covered, the 8 m and 12 m gap rings are not.
const RELAY_COVERAGE_RANGE_M: f64 = 6.0;
/// Tag-to-tag neighbor range of the relay sweep, meters: reaches the
/// 4 m ring-to-ring spacing of the gapped scene, nothing further.
pub const RELAY_TAG_RANGE_M: f64 = 4.5;
/// Deterministic per-tag-hop SNR penalty of the relay sweep, dB.
const RELAY_HOP_SNR_PENALTY_DB: f64 = 3.0;

/// The [`RelayConfig`] every relay sweep cell shares, at hop budget
/// `max_hops`.
pub fn relay_sweep_config(max_hops: usize) -> RelayConfig {
    RelayConfig {
        coverage: CoverageModel::with_range(RELAY_COVERAGE_RANGE_M),
        max_hops,
        tag_range_m: RELAY_TAG_RANGE_M,
        hop_snr_penalty_db: RELAY_HOP_SNR_PENALTY_DB,
    }
}

/// Fraction of the audit sweep's relay-leg nodes placed past AP coverage.
pub const NET_AUDIT_GAP_FRACTION: f64 = 0.25;

/// The campaign shape every cell of a network sweep shares: frames, a
/// `0x42`-filled payload, the slot plan sized for it, the root seed and,
/// for city-scale sweeps, the shard size.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Frames per campaign.
    pub frames: usize,
    /// The uplink payload every node reports.
    pub payload: Vec<u8>,
    /// The slot plan sized for that payload, with 10 µs guards.
    pub plan: SlotPlan,
    /// Root of the per-cell trial streams and of the slot seeds.
    pub root_seed: u64,
    /// When set, every cell is sharded into `⌈nodes / shard_nodes⌉`
    /// spatial shards through [`Network::run_sharded`]; see [`run_sweep`].
    pub shard_nodes: Option<usize>,
}

impl Sweep {
    /// An unsharded sweep of `frames`-frame campaigns over a
    /// `payload_bytes` payload in `slots`-slot frames.
    pub fn new(
        frames: usize,
        payload_bytes: usize,
        slots: usize,
        root_seed: u64,
    ) -> Result<Self, String> {
        let config = SystemConfig::milback_default();
        let payload = vec![0x42u8; payload_bytes];
        let plan = SlotPlan::for_packet(
            slots,
            &Packet::uplink(payload.clone()),
            &config.fmcw,
            config.uplink_symbol_rate_hz,
            10e-6,
        )
        .map_err(|e| e.to_string())?;
        Ok(Self {
            frames,
            payload,
            plan,
            root_seed,
            shard_nodes: None,
        })
    }

    /// The campaign spec every cell starts from; cells set its AP service
    /// and relaying.
    pub fn spec(&self) -> CampaignSpec<'_> {
        CampaignSpec::new(self.frames, &self.payload, self.plan)
    }

    /// A congested AP pipeline: a Capture stage two slot widths deep (so
    /// service capacity is half the slot rate) behind a `queue`-deep stage
    /// queue that spills under `overflow`.
    pub fn capture_service(&self, queue: usize, overflow: OverflowPolicy) -> ApServiceConfig {
        ApServiceConfig::instantaneous()
            .with_stage_latencies(2 * self.plan.slot_ps, 0, 0)
            .with_queue(queue, overflow)
    }
}

/// One cell of a network sweep: the scene, the AP service and relaying
/// its [`CampaignSpec`] runs under, the MAC policy by name, and the probe.
#[derive(Debug)]
pub struct SweepCell {
    /// The cell's scene.
    pub scene: Scene,
    /// A [`MAC_POLICY_NAMES`] entry. Under enabled relaying, `"aloha"` is
    /// the relay-aware slotted ALOHA ([`RelayAwareMac`]).
    pub policy: &'static str,
    /// The AP's service pipeline.
    pub service: ApServiceConfig,
    /// Relaying for gap nodes.
    pub relay: RelayConfig,
    /// What the campaign records; unsharded cells only.
    pub probe: CampaignProbe,
}

impl SweepCell {
    /// A cell over `scene` under the named policy, with an instantaneous
    /// AP, relaying off and a disabled probe.
    pub fn new(scene: Scene, policy: &'static str) -> Self {
        Self {
            scene,
            policy,
            service: ApServiceConfig::instantaneous(),
            relay: RelayConfig::disabled(),
            probe: CampaignProbe::disabled(),
        }
    }
}

/// What [`run_sweep`] returns per cell.
#[derive(Debug)]
pub struct CellRun<C> {
    /// What [`Network::run_sharded`] returns for the chosen sink: an
    /// unsharded cell is a campaign of one shard, so a [`SlottedRunReport`]
    /// sink gives a one-report `Vec`.
    pub sink: C,
    /// The metrics the cell's probe collected, if it collected any.
    pub metrics: Option<Metrics>,
    /// The trace the cell's probe recorded, if it traced.
    pub trace: Option<TraceBuffer>,
    /// Wall-clock seconds of the campaign run, scene build excluded.
    pub wall_s: f64,
}

impl<C: Clone> TrialBatch<CellRun<C>, String> {
    /// Each cell's sink, or its error, in trial order.
    pub fn sinks(&self) -> Vec<Result<C, String>> {
        self.results
            .iter()
            .map(|r| r.as_ref().map(|run| run.sink.clone()).map_err(Clone::clone))
            .collect()
    }
}

/// The network-sweep runner: builds cell `i` of `cells` with `cell(i)`
/// and runs its campaign into the sink `S`: a [`SlottedRunReport`] where a
/// column needs per-node values, else a
/// [`CampaignAggregate`](milback_core::CampaignAggregate).
///
/// Unsharded cells are independent trials of [`run_fallible`]: cell `i`
/// runs on trial stream `i` of the sweep's root seed, and its policy's
/// slot seed is the root seed plus the scene's node count, so the sweep is
/// bit-identical at any `cfg.threads`. A sharded sweep runs its cells one
/// after another, fanning each cell's shards out over `cfg.threads`
/// workers from campaign seed [`trial_seed`]`(root_seed, i)`; it too is
/// bit-identical at any thread count. A failed build or campaign is that
/// cell's error.
pub fn run_sweep<S: CampaignSink>(
    sweep: &Sweep,
    cells: usize,
    cfg: &RunnerConfig,
    cell: impl Fn(usize) -> Result<SweepCell, String> + Sync,
) -> TrialBatch<CellRun<S::Cells>, String>
where
    S::Cells: Send,
{
    let outer = match sweep.shard_nodes {
        Some(_) => RunnerConfig::serial(),
        None => *cfg,
    };
    run_fallible(cells, sweep.root_seed, &outer, |i, rng| {
        let SweepCell {
            scene,
            policy,
            service,
            relay,
            mut probe,
        } = cell(i)?;
        let slot_seed = sweep.root_seed.wrapping_add(scene.nodes.len() as u64);
        let net =
            Network::new(SystemConfig::milback_default(), scene).map_err(|e| e.to_string())?;
        let spec = sweep.spec().with_service(service).with_relay(relay);
        let mac = cell_policy(policy, slot_seed, &relay)?;
        let started = std::time::Instant::now();
        let sink = match sweep.shard_nodes {
            None => {
                let mut sink = S::Cells::default();
                let run = net.run::<S>(&spec, mac, rng, &mut probe);
                S::merge_cell(&mut sink, run.map_err(|e| e.to_string())?);
                sink
            }
            Some(0) => return Err("shards must hold at least one node".into()),
            Some(size) => net
                .run_sharded::<S>(
                    &spec,
                    net.node_count().div_ceil(size),
                    cfg.threads,
                    trial_seed(sweep.root_seed, i),
                    |_, seed| cell_policy(policy, seed, &relay).expect("the name resolved above"),
                )
                .map_err(|e| e.to_string())?,
        };
        let wall_s = started.elapsed().as_secs_f64();
        Ok(CellRun {
            sink,
            metrics: probe.take_metrics(),
            trace: probe.trace.take().map(|sink| sink.into_buffer()),
            wall_s,
        })
    })
}

/// Mean per-node goodput of a campaign, bits/s: the one sweep column that
/// needs the per-node report, because each node's goodput rounds on its
/// own before the mean.
pub fn mean_node_goodput_bps(r: &SlottedRunReport) -> f64 {
    let n = r.nodes.len();
    (0..n).map(|idx| r.goodput_bps(idx)).sum::<f64>() / n.max(1) as f64
}

/// [`mac_policy_by_name`], except that `"aloha"` under enabled relaying
/// is [`RelayAwareMac`], so the sweep exercises granted relay chains.
fn cell_policy(name: &str, seed: u64, relay: &RelayConfig) -> Result<Box<dyn MacPolicy>, String> {
    if name == "aloha" && !relay.is_disabled() {
        return Ok(Box::new(RelayAwareMac::new(seed, *relay)));
    }
    mac_policy_by_name(name, seed)
}

/// A `net_audit` cell over `nodes` nodes under the named policy: every
/// cell runs the congested pipeline (a one-slot queue under
/// [`OverflowPolicy::Drop`], so `service_shed` drops are on the books and
/// the residence sketch sees real queueing while shed grants stay off the
/// air), and the relay leg swaps in the [`NET_AUDIT_GAP_FRACTION`]-gapped
/// scene under a 2-hop budget, so all three loss families — channel,
/// service and coverage — appear in one sweep.
pub fn audit_cell(sweep: &Sweep, nodes: usize, policy: &'static str, relay_leg: bool) -> SweepCell {
    let (scene, relay) = if relay_leg {
        (
            gapped_sector_scene(nodes, NET_AUDIT_GAP_FRACTION),
            relay_sweep_config(2),
        )
    } else {
        (sector_scene(nodes), RelayConfig::disabled())
    };
    SweepCell {
        service: sweep.capture_service(1, OverflowPolicy::Drop),
        relay,
        ..SweepCell::new(scene, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milback_core::engine::ps_to_secs;
    use milback_core::{CampaignAggregate, LifecycleStats};

    #[test]
    fn group_by_point_splits_and_counts() {
        let results: Vec<Result<u32, ()>> = vec![Ok(1), Err(()), Ok(3), Ok(4), Ok(5), Err(())];
        let groups = group_by_point(3, &results);
        assert_eq!(groups, vec![(vec![1, 3], 1), (vec![4, 5], 1)]);
    }

    /// A sharded sweep whose shards would hold no node fails every cell.
    #[test]
    fn sharded_sweep_rejects_empty_shards() {
        let sweep = Sweep {
            shard_nodes: Some(0),
            ..Sweep::new(1, 8, 4, 1).unwrap()
        };
        let batch = run_sweep::<CampaignAggregate>(&sweep, 1, &RunnerConfig::serial(), |_| {
            Ok(SweepCell::new(sector_scene(4), "aloha"))
        });
        assert_eq!(batch.failed_count(), 1);
    }

    /// The offered-load sweep is bit-identical at any thread count, and
    /// every cell conserves grants: `served ≤ offered` always, with
    /// `served + dropped = offered` (defer/degrade spill is still served).
    #[test]
    fn net_load_sweep_conserves_grants_at_any_thread_count() {
        let counts = [1, 4, 16];
        let sweep = Sweep::new(6, 8, 4, 0x10AD).unwrap();
        let tag = |i: usize| OVERFLOW_POLICY_NAMES[i / counts.len()];
        let run = |cfg: &RunnerConfig| {
            run_sweep::<CampaignAggregate>(
                &sweep,
                OVERFLOW_POLICY_NAMES.len() * counts.len(),
                cfg,
                |i| {
                    let overflow = overflow_policy_by_name(tag(i)).unwrap();
                    Ok(SweepCell {
                        service: sweep.capture_service(1, overflow),
                        ..SweepCell::new(sector_scene(counts[i % counts.len()]), "aloha")
                    })
                },
            )
        };
        let serial = run(&RunnerConfig::serial());
        assert_eq!(
            serial.ok_count(),
            OVERFLOW_POLICY_NAMES.len() * counts.len(),
            "every cell must simulate"
        );
        let parallel = run(&RunnerConfig::with_threads(4));
        assert_eq!(serial.sinks(), parallel.sinks());
        let airtime_s = sweep.frames as f64 * ps_to_secs(sweep.plan.frame_ps());
        let mut overflowed = 0;
        for (i, p) in serial.sinks().into_iter().enumerate() {
            let s = p.unwrap().service;
            assert!(s.served <= s.offered, "{s:?}");
            assert_eq!(s.served + s.dropped, s.offered, "{s:?}");
            assert!(
                s.served as f64 / airtime_s <= s.offered as f64 / airtime_s,
                "{s:?}"
            );
            match tag(i) {
                "drop" => assert_eq!(s.deferred + s.degraded, 0, "{s:?}"),
                "defer" => assert_eq!(s.dropped + s.degraded, 0, "{s:?}"),
                "degrade" => assert_eq!(s.dropped + s.deferred, 0, "{s:?}"),
                other => panic!("unknown overflow tag {other:?}"),
            }
            overflowed += s.dropped + s.deferred + s.degraded;
        }
        assert!(overflowed > 0, "the sweep never pushed past capacity");
    }

    /// The relay recovery sweep is bit-identical at any thread count, and
    /// its geometry delivers the headline shape: gap delivery is exactly
    /// zero at hop budget 1, recovers past one half at budget ≥ 2, and
    /// the forwarding energy is on the books for every relayed packet.
    #[test]
    fn net_relay_sweep_recovers_gap_delivery_deterministically() {
        let gaps = [0.0, 0.5];
        let hops = [1, 2, 3];
        let sweep = Sweep::new(6, 8, 8, 0x9E1A).unwrap();
        let run = |cfg: &RunnerConfig| {
            run_sweep::<CampaignAggregate>(&sweep, gaps.len() * hops.len(), cfg, |i| {
                Ok(SweepCell {
                    relay: relay_sweep_config(hops[i % hops.len()]),
                    ..SweepCell::new(gapped_sector_scene(12, gaps[i / hops.len()]), "aloha")
                })
            })
        };
        let serial = run(&RunnerConfig::serial());
        assert_eq!(
            serial.ok_count(),
            gaps.len() * hops.len(),
            "every cell must simulate"
        );
        let parallel = run(&RunnerConfig::with_threads(4));
        assert_eq!(serial.sinks(), parallel.sinks());
        for (i, p) in serial.oks().enumerate() {
            let p = &p.sink;
            assert!(p.attempts > 0, "{p:?}");
            if gaps[i / hops.len()] == 0.0 {
                assert_eq!((p.gap_nodes, p.relayed), (0, 0), "{p:?}");
                assert_eq!(p.gap_delivery_rate(), None, "{p:?}");
            } else if hops[i % hops.len()] == 1 {
                assert!(p.gap_nodes > 0, "{p:?}");
                assert_eq!(p.gap_delivered, 0, "{p:?}");
                assert_eq!(p.gap_delivery_rate(), Some(0.0), "{p:?}");
            } else {
                assert!(p.gap_delivery_rate().unwrap() > 0.5, "{p:?}");
                assert!(p.relayed > 0 && p.forwarded > 0, "{p:?}");
                assert!(p.relay_energy_per_delivered_j().unwrap() > 0.0, "{p:?}");
                assert!(p.mean_relay_latency_s().unwrap() > 0.0, "{p:?}");
            }
        }
    }

    /// The lifecycle audit sweep is bit-identical at any thread count,
    /// every cell's ledger conserves (a violation would have failed the
    /// cell), and the sweep exercises all three loss families plus
    /// relayed deliveries somewhere in the grid.
    #[test]
    fn net_audit_sweep_conserves_at_any_thread_count() {
        let sweep = Sweep::new(6, 8, 4, 0xA0D1).unwrap();
        let run = |cfg: &RunnerConfig| {
            run_sweep::<CampaignAggregate>(&sweep, MAC_POLICY_NAMES.len() * 2, cfg, |i| {
                Ok(audit_cell(&sweep, 16, MAC_POLICY_NAMES[i / 2], i % 2 == 1))
            })
        };
        let serial = run(&RunnerConfig::serial());
        assert_eq!(
            serial.ok_count(),
            MAC_POLICY_NAMES.len() * 2,
            "every cell must simulate and conserve: {:?}",
            serial.failures().collect::<Vec<_>>()
        );
        let parallel = run(&RunnerConfig::with_threads(4));
        assert_eq!(serial.sinks(), parallel.sinks());
        let mut total = LifecycleStats::new();
        for (i, p) in serial.oks().enumerate() {
            let l = &p.sink.lifecycle;
            assert!(l.offered > 0, "{l:?}");
            assert_eq!(l.offered, l.delivered() + l.dropped(), "{l:?}");
            if i % 2 == 0 {
                // The uniform 4 m sector is fully covered: no
                // coverage-family drops without a gap ring.
                assert_eq!(l.drops[3] + l.drops[4], 0, "{l:?}");
            }
            total.merge_from(l);
        }
        total.audit().expect("the merged sweep ledger conserves");
        assert!(total.delivered_relayed > 0, "no relay chain delivered");
        let channel = total.drops[0] + total.drops[1] + total.drops[5];
        assert!(channel > 0, "no channel-family drops: {total:?}");
        assert!(total.drops[2] > 0, "the congested pipeline never shed");
        assert!(total.drops[3] > 0, "no routeless gap drops: {total:?}");
    }

    /// The sharded audit leg reports the same lifecycle ledger — counters
    /// `==` and sketch sums bit-equal — at 1/2/4/8 worker threads.
    #[test]
    fn sharded_lifecycle_is_thread_count_invariant() {
        let sweep = Sweep {
            shard_nodes: Some(24usize.div_ceil(4)),
            ..Sweep::new(4, 8, 6, 0xC17).unwrap()
        };
        let run = |threads| {
            let cfg = RunnerConfig::with_threads(threads);
            let mut batch = run_sweep::<CampaignAggregate>(&sweep, 1, &cfg, |_| {
                Ok(audit_cell(&sweep, 24, "aloha", true))
            });
            assert_eq!(batch.results.len(), 1);
            batch.results.remove(0).unwrap().sink.lifecycle
        };
        let reference = run(1);
        reference.audit().expect("the merged ledger conserves");
        for threads in [2, 4, 8] {
            let l = run(threads);
            assert_eq!(reference, l, "ledger changed at {threads} threads");
            for (a, b) in [
                (&reference.slot_wait_us, &l.slot_wait_us),
                (&reference.service_residence_us, &l.service_residence_us),
                (&reference.relay_extra_us, &l.relay_extra_us),
            ] {
                assert_eq!(a.sum.to_bits(), b.sum.to_bits());
            }
        }
        assert!(
            reference.offered > 0,
            "the sharded campaign offered nothing"
        );
    }

    #[test]
    fn spot_checks_are_thread_count_invariant() {
        let cases = [(10e6, 2.0)];
        let serial = fig15_spot_checks(&cases, 400, 0xF15, &RunnerConfig::serial());
        let parallel = fig15_spot_checks(&cases, 400, 0xF15, &RunnerConfig::with_threads(4));
        assert_eq!(serial, parallel);
        assert_eq!(serial.ok_count(), 1);
    }
}

//! Parameterized experiment cores shared by the figure binaries and the
//! benchmark harness.
//!
//! Each core is a pure function of its grid, trial count, and root seed:
//! it flattens `points × trials` into one batch of independent Monte-Carlo
//! trials, runs them through [`crate::runner::run_trials`] (so trial `i`
//! always consumes the same RNG stream regardless of thread count or grid
//! shape), and regroups the per-trial outcomes by grid point. The figure
//! binaries call these at full scale to regenerate the CSV anchors;
//! `bench_smoke` calls them at reduced scale, serial vs parallel, to time
//! the runner and assert the two schedules agree bit-for-bit.
//!
//! Every simulator/pipeline built here uses `with_beat_threads(1)`: the
//! runner already parallelizes across trials, so the inner beat-synthesis
//! parallelism would only oversubscribe the machine.

use crate::runner::{run_fallible, trial_seed, RunnerConfig, TrialBatch};
use milback_core::coding::{bits_to_bytes, bytes_to_bits, PayloadCodec};
use milback_core::engine::ps_to_secs;
use milback_core::localization::{Impairments, LocationFix};
use milback_core::protocol::SlotPlan;
use milback_core::telemetry::{CampaignProbe, Metrics, TraceBuffer};
use milback_core::{
    ApServiceConfig, BackoffAloha, CampaignAggregate, CampaignSpec, CoverageModel, LifecycleStats,
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
fn sector_scene(n: usize) -> Scene {
    // `Scene::arc` computes the same `-span/2 + span·k/(n-1)` azimuths
    // (with the n == 1 division guarded), so the CSV anchors built on
    // this scene are unchanged by the shared-helper refactor.
    Scene::arc(n, 4.0, 120f64.to_radians(), node_orientation_rad())
}

/// The shared setup every sector-scene MAC sweep starts from: payload,
/// slot plan, network, and the per-node-count slot seed. One builder so
/// `net_scale`, `mac_compare`, the instrumented sweep, and the city-scale
/// sharded sweep all race over exactly the same campaign and stay
/// comparable row-for-row. [`spec`](Self::spec) turns it into the
/// [`CampaignSpec`] the runners take.
#[derive(Debug)]
pub struct SectorCampaign {
    /// The uplink payload every node reports.
    pub payload: Vec<u8>,
    /// The slot plan sized for that payload.
    pub plan: SlotPlan,
    /// The network over the campaign's scene.
    pub net: Network,
    /// The slot seed shared across sweeps at this node count, so the
    /// hashed-slot policies race over the same slot draws in every sweep.
    pub slot_seed: u64,
}

impl SectorCampaign {
    /// A campaign over `scene`: default system config, a `0x42`-filled
    /// payload and a `slots`-slot plan with 10 µs guards. Errors are
    /// stringified for the fallible trial runner.
    pub fn over(
        scene: Scene,
        payload_bytes: usize,
        slots: usize,
        slot_seed: u64,
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
        let net = Network::new(config, scene).map_err(|e| e.to_string())?;
        Ok(Self {
            payload,
            plan,
            net,
            slot_seed,
        })
    }

    /// The parity campaign spec over `frames` frames of this payload and
    /// plan; sweeps adjust the AP service or relaying with its `with_*`
    /// builders.
    pub fn spec(&self, frames: usize) -> CampaignSpec<'_> {
        CampaignSpec::new(frames, &self.payload, self.plan)
    }
}

/// Builds the [`SectorCampaign`] over the uniform sector scene of `n`
/// nodes (see [`SectorCampaign::over`]), with the per-node-count slot seed.
pub fn sector_campaign(
    n: usize,
    payload_bytes: usize,
    slots: usize,
    root_seed: u64,
) -> Result<SectorCampaign, String> {
    SectorCampaign::over(
        sector_scene(n),
        payload_bytes,
        slots,
        root_seed.wrapping_add(n as u64),
    )
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

/// One (policy, node count) cell of the MAC-comparison extension.
#[derive(Debug, Clone, PartialEq)]
pub struct MacComparePoint {
    /// Which [`MacPolicy`] ran (its `name()`).
    pub policy: &'static str,
    /// Number of nodes sharing the cell.
    pub nodes: usize,
    /// Network-wide slot transmissions attempted.
    pub attempts: usize,
    /// Network-wide packets delivered.
    pub delivered: usize,
    /// Network-wide slot collisions.
    pub collisions: usize,
    /// Delivered over attempted, network-wide.
    pub delivery_rate: f64,
    /// Mean per-node goodput over the campaign, bits/second.
    pub per_node_goodput_bps: f64,
    /// Total node energy per delivered packet, joules; `None` when the
    /// campaign delivered nothing.
    pub energy_per_packet_j: Option<f64>,
}

fn mac_compare_point(policy: &'static str, r: &SlottedRunReport) -> MacComparePoint {
    let n = r.nodes.len();
    let attempts: usize = r.nodes.iter().map(|nd| nd.attempts).sum();
    let delivered: usize = r.nodes.iter().map(|nd| nd.delivered).sum();
    let collisions: usize = r.nodes.iter().map(|nd| nd.collisions).sum();
    let energy: f64 = r.nodes.iter().map(|nd| nd.energy_j).sum();
    let goodput = (0..n).map(|idx| r.goodput_bps(idx)).sum::<f64>() / n.max(1) as f64;
    MacComparePoint {
        policy,
        nodes: n,
        attempts,
        delivered,
        collisions,
        delivery_rate: delivered as f64 / attempts.max(1) as f64,
        per_node_goodput_bps: goodput,
        energy_per_packet_j: (delivered > 0).then(|| energy / delivered as f64),
    }
}

/// MAC-comparison extension core: every policy in `policies` runs the
/// [`sector_campaign`] at each node count — nodes spread over a ±60°
/// sector at 4 m, so growing density both fills slots *and* erodes SDM
/// separability. Trials flatten as `policy-major × node-count-minor`; each
/// cell is one independent trial with its own deterministic RNG stream, so
/// the sweep is bit-identical at any thread count. The network-scaling
/// extension is this core over `&["aloha"]`.
pub fn extension_mac_compare(
    policies: &[&'static str],
    node_counts: &[usize],
    frames: usize,
    payload_bytes: usize,
    slots: usize,
    root_seed: u64,
    cfg: &RunnerConfig,
) -> TrialBatch<MacComparePoint, String> {
    run_fallible(
        policies.len() * node_counts.len(),
        root_seed,
        cfg,
        |i, rng| {
            let policy_name = policies[i / node_counts.len()];
            let n = node_counts[i % node_counts.len()];
            let c = sector_campaign(n, payload_bytes, slots, root_seed)?;
            let policy = mac_policy_by_name(policy_name, c.slot_seed)?;
            let r = c
                .net
                .run(&c.spec(frames), policy, rng, &mut CampaignProbe::disabled())
                .map_err(|e| e.to_string())?;
            Ok(mac_compare_point(policy_name, &r))
        },
    )
}

/// One policy's merged campaign instrumentation from
/// [`extension_mac_compare_instrumented`]: metrics folded across the
/// policy's node-count campaigns in deterministic trial order, plus —
/// when tracing was requested — the trace of its largest-node-count
/// campaign.
#[derive(Debug, Clone)]
pub struct PolicyInstrumentation {
    /// The policy's [`MacPolicy::name`].
    pub policy: &'static str,
    /// Counters/histograms merged across the policy's campaigns.
    pub metrics: Metrics,
    /// The largest-node-count campaign's trace, when tracing.
    pub trace: Option<TraceBuffer>,
}

/// The outcome of [`extension_mac_compare_instrumented`]: the same trial
/// batch [`extension_mac_compare`] produces (bit-identical — the parity
/// suite proves it), plus per-policy instrumentation.
#[derive(Debug)]
pub struct InstrumentedMacCompare {
    /// Per-cell campaign points, exactly as the uninstrumented sweep.
    pub batch: TrialBatch<MacComparePoint, String>,
    /// Per-policy instrumentation, in the sweep's policy order.
    pub policies: Vec<PolicyInstrumentation>,
}

/// [`extension_mac_compare`] with telemetry attached: every cell runs
/// with a metrics probe, and — when `trace_capacity` is set — each
/// policy's **largest** node-count campaign also records a full trace
/// (engine dispatches, slot outcomes, policy decisions, energy draws).
///
/// The campaign numbers are bit-identical to the uninstrumented sweep:
/// probes only copy values the simulation already computed, and the trial
/// streams are untouched. Metrics merge across a policy's node counts in
/// trial order, so the merged registries are deterministic at any thread
/// count too.
#[allow(clippy::too_many_arguments)]
pub fn extension_mac_compare_instrumented(
    policies: &[&'static str],
    node_counts: &[usize],
    frames: usize,
    payload_bytes: usize,
    slots: usize,
    root_seed: u64,
    cfg: &RunnerConfig,
    trace_capacity: Option<usize>,
) -> InstrumentedMacCompare {
    let per_policy = node_counts.len();
    let traced_cell = per_policy.saturating_sub(1);
    let inner = run_fallible(
        policies.len() * per_policy,
        root_seed,
        cfg,
        |i, rng| -> Result<(MacComparePoint, Metrics, Option<TraceBuffer>), String> {
            let policy_name = policies[i / per_policy];
            let n = node_counts[i % per_policy];
            let c = sector_campaign(n, payload_bytes, slots, root_seed)?;
            let policy = mac_policy_by_name(policy_name, c.slot_seed)?;
            let mut probe = match trace_capacity {
                Some(cap) if i % per_policy == traced_cell => CampaignProbe::with_trace(cap),
                _ => CampaignProbe::with_metrics(),
            };
            let r = c
                .net
                .run(&c.spec(frames), policy, rng, &mut probe)
                .map_err(|e| e.to_string())?;
            let metrics = probe.take_metrics().unwrap_or_default();
            let trace = probe.trace.take().map(|sink| sink.into_buffer());
            Ok((mac_compare_point(policy_name, &r), metrics, trace))
        },
    );
    // Fold per-policy in trial order: trials flatten policy-major, so the
    // merge order (and the serialized registries) is deterministic.
    let mut folded: Vec<PolicyInstrumentation> = policies
        .iter()
        .map(|&p| PolicyInstrumentation {
            policy: p,
            metrics: Metrics::new(),
            trace: None,
        })
        .collect();
    for (i, result) in inner.results.iter().enumerate() {
        if let Ok((_, metrics, trace)) = result {
            // Queue-depth histograms arrive inside `metrics` already: the
            // engine tallies every dispatch losslessly (the old trace-ring
            // reconstruction silently truncated once the ring evicted).
            let slot = &mut folded[i / per_policy];
            slot.metrics.merge_from(metrics);
            if let Some(buf) = trace {
                // The ring's own eviction count rides along in the metrics
                // document, so a truncated trace is visible downstream
                // instead of silently looking complete.
                slot.metrics.inc("trace_dropped_records", buf.dropped());
                slot.trace = Some(buf.clone());
            }
        }
    }
    InstrumentedMacCompare {
        batch: TrialBatch {
            results: inner
                .results
                .into_iter()
                .map(|r| r.map(|(point, _, _)| point))
                .collect(),
        },
        policies: folded,
    }
}

/// One node-count point of the city-scale sharded sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct NetScaleCityPoint {
    /// Total nodes across the campaign.
    pub nodes: usize,
    /// Spatial cells the scene was sharded into.
    pub cells: usize,
    /// Worker threads the cells fanned out over.
    pub threads: usize,
    /// Frames per cell campaign.
    pub frames: usize,
    /// Network-wide slot transmissions attempted.
    pub attempts: u64,
    /// Network-wide packets delivered.
    pub delivered: u64,
    /// Network-wide slot collisions.
    pub collisions: u64,
    /// Slot grants offered to the AP service pipelines, summed over cells.
    pub offered: u64,
    /// Grants that completed all three pipeline stages and reached the air.
    pub served: u64,
    /// Grants that hit a full stage queue (dropped + deferred + degraded).
    pub overflow: u64,
    /// Delivered over attempted; `None` before any attempt.
    pub delivery_rate: Option<f64>,
    /// Mean node energy over the campaign, joules.
    pub energy_per_node_j: Option<f64>,
    /// Mean per-delivery SNR across delivering nodes, dB; `None` when
    /// nothing delivered.
    pub mean_snr_db: Option<f64>,
    /// Simulated nodes per wall-clock second — the sweep's throughput axis.
    pub nodes_per_sec: f64,
    /// Wall-clock time for this point, seconds.
    pub wall_s: f64,
    /// Nodes outside AP coverage (0 under the default unbounded model).
    pub gap_nodes: u64,
    /// Packets delivered over multi-hop relay routes.
    pub relayed: u64,
    /// Mean transmissions per relayed delivery; `None` when nothing
    /// relayed (the relay-disabled CSV cell is empty).
    pub mean_relay_hops: Option<f64>,
    /// Packets offered on the lifecycle ledger, summed over cells in
    /// cell-index order.
    pub offered_packets: u64,
    /// Packets dropped on the lifecycle ledger, all reasons combined.
    pub dropped_packets: u64,
    /// Slot-wait sketch median, µs; `None` when the sketch is empty.
    pub slot_wait_p50_us: Option<f64>,
    /// Slot-wait sketch 95th percentile, µs; `None` when empty.
    pub slot_wait_p95_us: Option<f64>,
    /// Slot-wait sketch 99th percentile, µs; `None` when empty.
    pub slot_wait_p99_us: Option<f64>,
}

/// City-scale network sweep core: each node count shards the sector scene
/// into `⌈nodes / cell_size⌉` spatial cells and runs one slotted-ALOHA
/// campaign per cell via [`Network::run_sharded`] — parallel across
/// cells, streaming straight into a [`milback_core::CampaignAggregate`]
/// that folds each block of finished cells in cell order, so peak report
/// memory is O(block + buckets) whatever the cell count, and a
/// 10⁵–10⁶-node campaign fits where the per-node `Vec` path would not
/// (perfbench's 10⁶-node `city_1m` peaks at ~27 MiB RSS, most of it the
/// scene). Unlike the room-scale sweeps, the
/// parallelism lives *inside* each point (the cell fan-out), so points run
/// serially here; results are bit-identical at any `cfg.threads`.
///
/// Seeding: point `i` derives its campaign seed via the runner's
/// [`trial_seed`] mix, and each cell re-mixes that with its cell index
/// ([`milback_core::cell_seed`]) — the same SplitMix64 discipline end to
/// end. Wall-clock throughput (`nodes_per_sec`) is measured, so it varies
/// run to run; every simulation field is deterministic.
///
/// `service` is each cell AP's **Capture → Plan → Transmit** pipeline
/// shape. A bounded queue with [`OverflowPolicy::Defer`] keeps every
/// ledger column bit-identical to the instantaneous campaign (Defer is
/// FIFO, so the per-cell RNG streams are consumed unchanged) while the
/// new `offered`/`served`/`overflow` columns expose the service backlog.
#[allow(clippy::too_many_arguments)]
pub fn extension_net_scale_city(
    node_counts: &[usize],
    cell_size: usize,
    frames: usize,
    payload_bytes: usize,
    slots: usize,
    root_seed: u64,
    service: &ApServiceConfig,
    relay: &RelayConfig,
    cfg: &RunnerConfig,
) -> Result<Vec<NetScaleCityPoint>, String> {
    if cell_size == 0 {
        return Err("cells must hold at least one node".into());
    }
    node_counts
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let c = sector_campaign(n, payload_bytes, slots, root_seed)?;
            let cells = n.div_ceil(cell_size);
            let campaign_seed = trial_seed(root_seed, i);
            let started = std::time::Instant::now();
            // A disabled relay keeps the plain [`SlottedAloha`] cells, so
            // the sweep's pre-relay columns stay bit-identical to the
            // pre-relay anchors; an enabled one swaps in the relay-aware
            // policy per cell.
            let agg = c
                .net
                .run_sharded::<CampaignAggregate>(
                    &c.spec(frames).with_service(*service).with_relay(*relay),
                    cells,
                    cfg.threads,
                    campaign_seed,
                    |_, seed| {
                        if relay.is_disabled() {
                            Box::new(SlottedAloha::new(seed)) as Box<dyn MacPolicy>
                        } else {
                            Box::new(RelayAwareMac::new(seed, *relay)) as Box<dyn MacPolicy>
                        }
                    },
                )
                .map_err(|e| e.to_string())?;
            let wall_s = started.elapsed().as_secs_f64();
            Ok(NetScaleCityPoint {
                nodes: n,
                cells: agg.cells as usize,
                threads: cfg.threads,
                frames,
                attempts: agg.attempts,
                delivered: agg.delivered,
                collisions: agg.collisions,
                offered: agg.service.offered,
                served: agg.service.served,
                overflow: agg.service.overflowed(),
                delivery_rate: agg.delivery_rate(),
                energy_per_node_j: agg.mean_energy_per_node_j(),
                mean_snr_db: agg.mean_snr_db(),
                nodes_per_sec: if wall_s > 0.0 { n as f64 / wall_s } else { 0.0 },
                wall_s,
                gap_nodes: agg.gap_nodes,
                relayed: agg.relayed,
                mean_relay_hops: agg.mean_relay_hops(),
                offered_packets: agg.lifecycle.offered,
                dropped_packets: agg.lifecycle.dropped(),
                slot_wait_p50_us: agg.lifecycle.slot_wait_us.quantile(0.50),
                slot_wait_p95_us: agg.lifecycle.slot_wait_us.quantile(0.95),
                slot_wait_p99_us: agg.lifecycle.slot_wait_us.quantile(0.99),
            })
        })
        .collect()
}

/// The overflow policies the offered-load sweep races, by CSV tag.
pub const OVERFLOW_POLICY_NAMES: [&str; 3] = ["drop", "defer", "degrade"];

/// Maps an [`OVERFLOW_POLICY_NAMES`] tag to its [`OverflowPolicy`].
pub(crate) fn overflow_policy_by_name(name: &str) -> Option<OverflowPolicy> {
    match name {
        "drop" => Some(OverflowPolicy::Drop),
        "defer" => Some(OverflowPolicy::Defer),
        "degrade" => Some(OverflowPolicy::Degrade),
        _ => None,
    }
}

/// One (overflow policy, node count) cell of the offered-vs-served sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct NetLoadPoint {
    /// Overflow policy tag (see [`OVERFLOW_POLICY_NAMES`]).
    pub overflow: &'static str,
    /// Nodes contending for the frame.
    pub nodes: usize,
    /// Slot grants offered to the AP pipeline over the campaign.
    pub offered: u64,
    /// Grants that completed all three stages and reached the air.
    pub served: u64,
    /// Grants shed at a full stage queue (never transmitted).
    pub dropped: u64,
    /// Grants admitted past the queue bound and served late.
    pub deferred: u64,
    /// Grants admitted with the degraded (no-SDM) plan.
    pub degraded: u64,
    /// Offered load over the nominal campaign airtime, grants/second.
    pub offered_per_s: f64,
    /// Served load over the same axis, grants/second.
    pub served_per_s: f64,
    /// Network-wide packets delivered.
    pub delivered: u64,
    /// Delivered over attempted; `None` before any attempt.
    pub delivery_rate: Option<f64>,
}

/// Offered-vs-served extension core: sweeps offered load past the AP
/// service pipeline's capacity to expose the served-load knee.
///
/// Every cell runs [`SlottedAloha`], so the offered load — the occupied
/// slots per frame, each one a grant the AP must serve — grows
/// monotonically with node count (`slots·(1−(1−1/slots)^nodes)` in
/// expectation, from ~1 at a single node to every slot at high density).
/// The pipeline's Capture stage takes **two slot widths** behind a
/// `queue_capacity`-deep stage queue, so service capacity is half the
/// slot rate: once offered load passes `slots / 2` grants per frame,
/// `Drop` saturates `served` (the knee), `Defer` piles spill into the
/// queue, and `Degrade` trades SDM concurrency for service.
///
/// Trials flatten `overflow-policy-major × node-count-minor`; each cell is
/// one independent trial on its own SplitMix64 stream, bit-identical at
/// any thread count. The load axes (`*_per_s`) are computed over the
/// nominal campaign airtime `frames × frame_ps` — simulated time, not
/// wall-clock — so they are deterministic too.
#[allow(clippy::too_many_arguments)]
pub fn extension_net_load(
    overflows: &[&'static str],
    node_counts: &[usize],
    frames: usize,
    payload_bytes: usize,
    slots: usize,
    queue_capacity: usize,
    root_seed: u64,
    cfg: &RunnerConfig,
) -> TrialBatch<NetLoadPoint, String> {
    run_fallible(
        overflows.len() * node_counts.len(),
        root_seed,
        cfg,
        |i, rng| {
            let tag = overflows[i / node_counts.len()];
            let n = node_counts[i % node_counts.len()];
            let policy = overflow_policy_by_name(tag)
                .ok_or_else(|| format!("unknown overflow policy {tag:?}"))?;
            let c = sector_campaign(n, payload_bytes, slots, root_seed)?;
            let service = ApServiceConfig::instantaneous()
                .with_stage_latencies(2 * c.plan.slot_ps, 0, 0)
                .with_queue(queue_capacity, policy);
            let r: SlottedRunReport = c
                .net
                .run(
                    &c.spec(frames).with_service(service),
                    Box::new(SlottedAloha::new(c.slot_seed)),
                    rng,
                    &mut CampaignProbe::disabled(),
                )
                .map_err(|e| e.to_string())?;
            let airtime_s = frames as f64 * ps_to_secs(c.plan.frame_ps());
            let attempts: usize = r.nodes.iter().map(|nd| nd.attempts).sum();
            let delivered: usize = r.nodes.iter().map(|nd| nd.delivered).sum();
            Ok(NetLoadPoint {
                overflow: tag,
                nodes: n,
                offered: r.service.offered,
                served: r.service.served,
                dropped: r.service.dropped,
                deferred: r.service.deferred,
                degraded: r.service.degraded,
                offered_per_s: r.service.offered as f64 / airtime_s,
                served_per_s: r.service.served as f64 / airtime_s,
                delivered: delivered as u64,
                delivery_rate: (attempts > 0).then(|| delivered as f64 / attempts as f64),
            })
        },
    )
}

/// AP coverage range of the relay sweep's gapped scenes, meters: the
/// 4 m inner arc is covered, the 8 m and 12 m gap rings are not.
pub(crate) const RELAY_COVERAGE_RANGE_M: f64 = 6.0;
/// Tag-to-tag neighbor range of the relay sweep, meters: reaches the
/// 4 m ring-to-ring spacing of the gapped scene, nothing further.
pub const RELAY_TAG_RANGE_M: f64 = 4.5;
/// Deterministic per-tag-hop SNR penalty of the relay sweep, dB.
pub(crate) const RELAY_HOP_SNR_PENALTY_DB: f64 = 3.0;

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

/// The sector scene with a `gap_fraction` share of its nodes pushed past
/// AP coverage: covered nodes keep the 4 m arc, and the gap nodes split
/// between an 8 m ring (two thirds — one tag hop from coverage) and a
/// 12 m ring (the rest — two tag hops, each 12 m node sharing an azimuth
/// with its 8 m forwarder so the ring spacing is exactly 4 m). The 8 m
/// majority puts the two-transmission recovery strictly above one half
/// of the gap population.
fn gapped_sector_scene(n: usize, gap_fraction: f64) -> Scene {
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

/// One (gap fraction, hop budget) cell of the relay recovery sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct NetRelayPoint {
    /// Share of the scene's nodes placed outside AP coverage.
    pub gap_fraction: f64,
    /// Transmission budget per packet (tag hops + terminal uplink).
    pub max_hops: usize,
    /// Total nodes in the scene.
    pub nodes: usize,
    /// Nodes the coverage model classified as gap nodes.
    pub gap_nodes: u64,
    /// Packets attempted network-wide.
    pub attempts: u64,
    /// Packets delivered network-wide (direct + relayed).
    pub delivered: u64,
    /// Delivered over attempted; `None` before any attempt.
    pub delivery_rate: Option<f64>,
    /// Packets attempted by gap nodes.
    pub gap_attempts: u64,
    /// Packets gap nodes got through (necessarily relayed).
    pub gap_delivered: u64,
    /// Gap-node delivery rate; `None` with no gap attempts.
    pub gap_delivery_rate: Option<f64>,
    /// Packets delivered over relay routes.
    pub relayed: u64,
    /// Forwarding transmissions performed for other nodes.
    pub forwarded: u64,
    /// Mean transmissions per relayed delivery; `None` when nothing
    /// relayed.
    pub mean_relay_hops: Option<f64>,
    /// Forwarding energy per relayed delivery, joules; `None` when
    /// nothing relayed — the sweep's energy-cost axis.
    pub relay_energy_per_delivered_j: Option<f64>,
    /// Mean extra latency per relayed delivery, seconds; `None` when
    /// nothing relayed.
    pub mean_relay_latency_s: Option<f64>,
}

/// Relay recovery extension core: sweeps coverage-gap fraction × hop
/// budget over the gapped sector scene and reports how much gap-node
/// delivery multi-hop relaying buys, and at what forwarding-energy and
/// latency cost.
///
/// Geometry fixes the expected shape: at `max_hops == 1` (direct only)
/// gap delivery is exactly zero; `2` recovers the 8 m ring (two thirds
/// of the gap population); `3` also recovers the 12 m ring. Each cell is
/// one independent trial on its own SplitMix64 stream — bit-identical at
/// any thread count.
#[allow(clippy::too_many_arguments)]
pub fn extension_net_relay(
    gap_fractions: &[f64],
    hop_budgets: &[usize],
    nodes: usize,
    frames: usize,
    payload_bytes: usize,
    slots: usize,
    root_seed: u64,
    cfg: &RunnerConfig,
) -> TrialBatch<NetRelayPoint, String> {
    run_fallible(
        gap_fractions.len() * hop_budgets.len(),
        root_seed,
        cfg,
        |i, rng| {
            let gap_fraction = gap_fractions[i / hop_budgets.len()];
            let max_hops = hop_budgets[i % hop_budgets.len()];
            let c = SectorCampaign::over(
                gapped_sector_scene(nodes, gap_fraction),
                payload_bytes,
                slots,
                root_seed.wrapping_add(nodes as u64),
            )?;
            let relay = relay_sweep_config(max_hops);
            let agg: CampaignAggregate = c
                .net
                .run(
                    &c.spec(frames).with_relay(relay),
                    Box::new(RelayAwareMac::new(c.slot_seed, relay)),
                    rng,
                    &mut CampaignProbe::disabled(),
                )
                .map_err(|e| e.to_string())?;
            Ok(NetRelayPoint {
                gap_fraction,
                max_hops,
                nodes,
                gap_nodes: agg.gap_nodes,
                attempts: agg.attempts,
                delivered: agg.delivered,
                delivery_rate: agg.delivery_rate(),
                gap_attempts: agg.gap_attempts,
                gap_delivered: agg.gap_delivered,
                gap_delivery_rate: agg.gap_delivery_rate(),
                relayed: agg.relayed,
                forwarded: agg.forwarded,
                mean_relay_hops: agg.mean_relay_hops(),
                relay_energy_per_delivered_j: agg.relay_energy_per_delivered_j(),
                mean_relay_latency_s: agg.mean_relay_latency_s(),
            })
        },
    )
}

/// Fraction of the audit sweep's relay-leg nodes placed past AP coverage.
pub const NET_AUDIT_GAP_FRACTION: f64 = 0.25;

/// The congested AP pipeline every `net_audit` cell runs: a Capture stage
/// two slot widths deep behind a one-slot queue under
/// [`OverflowPolicy::Drop`], so `service_shed` drops are on the books and
/// the residence sketch sees real queueing — while the Drop policy keeps
/// shed grants off the air instead of perturbing the slot schedule.
pub(crate) fn net_audit_service(plan: &SlotPlan) -> ApServiceConfig {
    ApServiceConfig::instantaneous()
        .with_stage_latencies(2 * plan.slot_ps, 0, 0)
        .with_queue(1, OverflowPolicy::Drop)
}

/// One (MAC policy, relay on/off) cell of the packet-lifecycle audit
/// sweep: the cell's full [`LifecycleStats`] ledger, conservation-checked
/// (`offered == delivered + Σ drops`) before it is returned.
#[derive(Debug, Clone, PartialEq)]
pub struct NetAuditPoint {
    /// MAC policy tag (see [`MAC_POLICY_NAMES`]).
    pub policy: &'static str,
    /// Whether this cell ran the gapped scene with 2-hop relaying.
    pub relay: bool,
    /// Nodes in the scene.
    pub nodes: usize,
    /// The audited lifecycle ledger.
    pub lifecycle: LifecycleStats,
}

/// Packet-lifecycle audit core: `policies × {direct, relay}` cells over
/// the 64-node sector scene (the relay leg swaps in the
/// [`NET_AUDIT_GAP_FRACTION`]-gapped scene and a 2-hop budget), every cell
/// under the congested `net_audit_service` pipeline so all three loss
/// families — channel (collision/SDM/decode), service (shed), and
/// coverage (routeless gap nodes) — appear in one sweep.
///
/// Every cell's ledger is audited before it is returned: a conservation
/// leak surfaces as the cell's error, not as a silently wrong row. The
/// relay leg keeps each policy's own schedule except `"aloha"`, which maps
/// to [`RelayAwareMac`] (the relay-aware slotted-ALOHA variant) so the
/// sweep exercises granted relay chains, not just routeless drops. Cells
/// are independent trials on their own SplitMix64 streams — bit-identical
/// at any thread count.
#[allow(clippy::too_many_arguments)]
pub fn extension_net_audit(
    policies: &[&'static str],
    nodes: usize,
    frames: usize,
    payload_bytes: usize,
    slots: usize,
    root_seed: u64,
    cfg: &RunnerConfig,
) -> TrialBatch<NetAuditPoint, String> {
    run_fallible(policies.len() * 2, root_seed, cfg, |i, rng| {
        let policy_name = policies[i / 2];
        let with_relay = i % 2 == 1;
        let scene = if with_relay {
            gapped_sector_scene(nodes, NET_AUDIT_GAP_FRACTION)
        } else {
            sector_scene(nodes)
        };
        let c = SectorCampaign::over(
            scene,
            payload_bytes,
            slots,
            root_seed.wrapping_add(nodes as u64),
        )?;
        let relay = if with_relay {
            relay_sweep_config(2)
        } else {
            RelayConfig::disabled()
        };
        let policy: Box<dyn MacPolicy> = if with_relay && policy_name == "aloha" {
            Box::new(RelayAwareMac::new(c.slot_seed, relay))
        } else {
            mac_policy_by_name(policy_name, c.slot_seed)?
        };
        let spec = c
            .spec(frames)
            .with_service(net_audit_service(&c.plan))
            .with_relay(relay);
        // The runner audits the ledger before it returns the report.
        let r: SlottedRunReport = c
            .net
            .run(&spec, policy, rng, &mut CampaignProbe::disabled())
            .map_err(|e| e.to_string())?;
        Ok(NetAuditPoint {
            policy: policy_name,
            relay: with_relay,
            nodes,
            lifecycle: r.lifecycle,
        })
    })
}

/// The sharded city path's merged lifecycle ledger at one worker-thread
/// count: the gapped audit scene under `net_audit_service` congestion
/// and a 2-hop relay budget, sharded into `cells` spatial cells via
/// [`Network::run_sharded`]. Callers run this across
/// `MILBACK_THREADS`-style thread counts and demand the returned sketches
/// be bit-identical — the merge happens serially in cell-index order, so
/// they are. The merged ledger is conservation-audited here on top of the
/// runner's own per-cell audit.
#[allow(clippy::too_many_arguments)]
pub fn net_audit_sharded_lifecycle(
    nodes: usize,
    cells: usize,
    threads: usize,
    frames: usize,
    payload_bytes: usize,
    slots: usize,
    root_seed: u64,
) -> Result<LifecycleStats, String> {
    let c = SectorCampaign::over(
        gapped_sector_scene(nodes, NET_AUDIT_GAP_FRACTION),
        payload_bytes,
        slots,
        root_seed.wrapping_add(nodes as u64),
    )?;
    let relay = relay_sweep_config(2);
    let spec = c
        .spec(frames)
        .with_service(net_audit_service(&c.plan))
        .with_relay(relay);
    let agg = c
        .net
        .run_sharded::<CampaignAggregate>(
            &spec,
            cells,
            threads,
            trial_seed(root_seed, 0),
            |_, seed| Box::new(RelayAwareMac::new(seed, relay)) as Box<dyn MacPolicy>,
        )
        .map_err(|e| e.to_string())?;
    agg.lifecycle.audit().map_err(|e| e.to_string())?;
    Ok(agg.lifecycle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_by_point_splits_and_counts() {
        let results: Vec<Result<u32, ()>> = vec![Ok(1), Err(()), Ok(3), Ok(4), Ok(5), Err(())];
        let groups = group_by_point(3, &results);
        assert_eq!(groups, vec![(vec![1, 3], 1), (vec![4, 5], 1)]);
    }

    #[test]
    fn city_sweep_rejects_empty_cells() {
        let (service, relay) = (ApServiceConfig::instantaneous(), RelayConfig::disabled());
        let cfg = RunnerConfig::serial();
        assert!(extension_net_scale_city(&[4], 0, 1, 8, 4, 1, &service, &relay, &cfg).is_err());
    }

    /// The offered-load sweep is bit-identical at any thread count, and
    /// every cell conserves grants: `served ≤ offered` always, with
    /// `served + dropped = offered` (defer/degrade spill is still served).
    #[test]
    fn net_load_sweep_conserves_grants_at_any_thread_count() {
        let counts = [1, 4, 16];
        let run = |cfg: &RunnerConfig| {
            extension_net_load(&OVERFLOW_POLICY_NAMES, &counts, 6, 8, 4, 1, 0x10AD, cfg)
        };
        let serial = run(&RunnerConfig::serial());
        assert_eq!(
            serial.ok_count(),
            OVERFLOW_POLICY_NAMES.len() * counts.len(),
            "every cell must simulate"
        );
        let parallel = run(&RunnerConfig::with_threads(4));
        assert_eq!(serial.results, parallel.results);
        let mut overflowed = 0;
        for p in serial.oks() {
            assert!(p.served <= p.offered, "{p:?}");
            assert_eq!(p.served + p.dropped, p.offered, "{p:?}");
            assert!(p.served_per_s <= p.offered_per_s, "{p:?}");
            match p.overflow {
                "drop" => assert_eq!(p.deferred + p.degraded, 0, "{p:?}"),
                "defer" => assert_eq!(p.dropped + p.degraded, 0, "{p:?}"),
                "degrade" => assert_eq!(p.dropped + p.deferred, 0, "{p:?}"),
                other => panic!("unknown overflow tag {other:?}"),
            }
            overflowed += p.dropped + p.deferred + p.degraded;
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
        let run = |cfg: &RunnerConfig| extension_net_relay(&gaps, &hops, 12, 6, 8, 8, 0x9E1A, cfg);
        let serial = run(&RunnerConfig::serial());
        assert_eq!(
            serial.ok_count(),
            gaps.len() * hops.len(),
            "every cell must simulate"
        );
        let parallel = run(&RunnerConfig::with_threads(4));
        assert_eq!(serial.results, parallel.results);
        for p in serial.oks() {
            assert!(p.attempts > 0, "{p:?}");
            if p.gap_fraction == 0.0 {
                assert_eq!((p.gap_nodes, p.relayed), (0, 0), "{p:?}");
                assert_eq!(p.gap_delivery_rate, None, "{p:?}");
            } else if p.max_hops == 1 {
                assert!(p.gap_nodes > 0, "{p:?}");
                assert_eq!(p.gap_delivered, 0, "{p:?}");
                assert_eq!(p.gap_delivery_rate, Some(0.0), "{p:?}");
            } else {
                assert!(p.gap_delivery_rate.unwrap() > 0.5, "{p:?}");
                assert!(p.relayed > 0 && p.forwarded > 0, "{p:?}");
                assert!(p.relay_energy_per_delivered_j.unwrap() > 0.0, "{p:?}");
                assert!(p.mean_relay_latency_s.unwrap() > 0.0, "{p:?}");
            }
        }
    }

    /// The lifecycle audit sweep is bit-identical at any thread count,
    /// every cell's ledger conserves (a violation would have failed the
    /// cell), and the sweep exercises all three loss families plus
    /// relayed deliveries somewhere in the grid.
    #[test]
    fn net_audit_sweep_conserves_at_any_thread_count() {
        let run =
            |cfg: &RunnerConfig| extension_net_audit(&MAC_POLICY_NAMES, 16, 6, 8, 4, 0xA0D1, cfg);
        let serial = run(&RunnerConfig::serial());
        assert_eq!(
            serial.ok_count(),
            MAC_POLICY_NAMES.len() * 2,
            "every cell must simulate and conserve: {:?}",
            serial
                .results
                .iter()
                .filter_map(|r| r.as_ref().err())
                .collect::<Vec<_>>()
        );
        let parallel = run(&RunnerConfig::with_threads(4));
        assert_eq!(serial.results, parallel.results);
        let mut total = LifecycleStats::new();
        for p in serial.oks() {
            assert!(p.lifecycle.offered > 0, "{p:?}");
            assert_eq!(
                p.lifecycle.offered,
                p.lifecycle.delivered() + p.lifecycle.dropped(),
                "{p:?}"
            );
            if !p.relay {
                // The uniform 4 m sector is fully covered: no
                // coverage-family drops without a gap ring.
                assert_eq!(p.lifecycle.drops[3] + p.lifecycle.drops[4], 0, "{p:?}");
            }
            total.merge_from(&p.lifecycle);
        }
        total.audit().expect("the merged sweep ledger conserves");
        assert!(total.delivered_relayed > 0, "no relay chain delivered");
        let channel = total.drops[0] + total.drops[1] + total.drops[5];
        assert!(channel > 0, "no channel-family drops: {total:?}");
        assert!(total.drops[2] > 0, "the congested pipeline never shed");
        assert!(total.drops[3] > 0, "no routeless gap drops: {total:?}");
    }

    /// The sharded city path reports the same lifecycle ledger — counters
    /// `==` and sketch sums bit-equal — at 1/2/4/8 worker threads.
    #[test]
    fn sharded_lifecycle_is_thread_count_invariant() {
        let run = |threads| net_audit_sharded_lifecycle(24, 4, threads, 4, 8, 6, 0xC17).unwrap();
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

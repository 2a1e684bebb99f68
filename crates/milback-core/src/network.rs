//! Multi-node operation via spatial division multiplexing (§7's closing
//! note): the AP creates beams toward different nodes and runs links
//! concurrently; angular separation and the horn/FSA patterns determine
//! inter-node interference.

use crate::config::SystemConfig;
use crate::engine::{ps_to_secs, EventQueue, TimePs};
use crate::error::{MilbackError, Result};
use crate::lifecycle::{DropReason, LifecycleStats, PacketId};
use crate::link::{UplinkBudget, UplinkScratch};
use crate::pipeline::{ApServiceConfig, ApServiceStats, OverflowPolicy, StageKind};
use crate::protocol::{Packet, SlotPlan};
use crate::relay::RelayConfig;
use crate::scene::{GroundTruth, Scene};
use crate::telemetry::{
    CampaignProbe, Histogram, TraceRecord, BACKOFF_BUCKETS_FRAMES, ENERGY_BUCKETS_J,
    OCCUPANCY_BUCKETS, RELAY_HOP_BUCKETS, SNR_BUCKETS_DB,
};
use milback_ap::query::QueryPlanner;
use milback_node::power::{NodeActivity, NodePowerModel};
use mmwave_rf::antenna::Antenna;
use mmwave_rf::channel::NodePose;
use mmwave_sigproc::random::GaussianSource;
use mmwave_sigproc::units::db_to_lin;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The multi-node network coordinator.
#[derive(Debug, Clone)]
pub struct Network {
    /// Shared configuration.
    pub config: SystemConfig,
    /// Scene containing every node.
    pub scene: Scene,
}

impl Network {
    /// Creates a network over a scene with at least one node, the AP and
    /// every node at a finite pose, and no node on the AP.
    pub fn new(config: SystemConfig, scene: Scene) -> Result<Self> {
        config.validate()?;
        if scene.nodes.is_empty() {
            return Err(MilbackError::Config(
                "network needs at least one node".into(),
            ));
        }
        let net = Self { config, scene };
        net.check_poses()?;
        Ok(net)
    }

    /// Rejects a non-finite AP pose, and a node whose position or facing
    /// is not finite or that sits on the AP: the link physics cannot place
    /// it, and a zero or NaN range would reach the channel's `distance > 0`
    /// assertion. The squared node–AP distance is that assertion without
    /// the `sqrt`, tested in the same single pass over the nodes.
    fn check_poses(&self) -> Result<()> {
        let ap = &self.scene.ap;
        if !(ap.position.x.is_finite() && ap.position.y.is_finite() && ap.boresight_rad.is_finite())
        {
            return Err(MilbackError::Config(format!(
                "the AP has a non-finite pose: position {:?}, boresight {} rad",
                ap.position, ap.boresight_rad
            )));
        }
        let (ax, ay) = (ap.position.x, ap.position.y);
        let placeable = |p: &NodePose| {
            let (dx, dy) = (p.position.x - ax, p.position.y - ay);
            p.position.x.is_finite()
                && p.position.y.is_finite()
                && p.facing_rad.is_finite()
                && dx * dx + dy * dy > 0.0
        };
        match self.scene.nodes.iter().position(|p| !placeable(p)) {
            Some(idx) => Err(MilbackError::Config(format!(
                "node {idx} has a non-finite pose or sits on the AP: {:?}",
                self.scene.nodes[idx]
            ))),
            None => Ok(()),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.scene.nodes.len()
    }

    /// Signal-to-interference margin (dB) for serving `idx` while `other`
    /// is simultaneously illuminated by a second beam: how much weaker the
    /// other beam's energy is toward node `idx`, through the AP horn
    /// pattern steered at each node.
    pub fn sdm_margin_db(&self, idx: usize, other: usize) -> f64 {
        assert!(idx != other, "a node does not interfere with itself");
        sdm_margin(self.azimuth(idx), self.azimuth(other))
    }

    /// Node `idx`'s azimuth from the AP boresight, radians.
    fn azimuth(&self, idx: usize) -> f64 {
        self.scene.ap.azimuth_to(self.scene.nodes[idx].position)
    }

    /// Whether two nodes are separable by SDM with at least `margin_db` of
    /// beam isolation.
    pub fn sdm_separable(&self, idx: usize, other: usize, margin_db: f64) -> bool {
        self.sdm_margin_db(idx, other) >= margin_db
    }

    /// Runs one slotted campaign on the engine and folds its per-node
    /// ledgers into the sink `S`: a per-node [`SlottedRunReport`] or a
    /// streaming [`CampaignAggregate`].
    ///
    /// `policy` decides which nodes transmit in which slot of each of the
    /// spec's frames; the engine fires the slots on the shared clock, and
    /// every granted slot walks the AP's **Capture → Plan → Transmit**
    /// pipeline ([`CampaignSpec::service`]). When several nodes share a
    /// slot the AP attempts SDM: if every pair is separable by at least
    /// [`CampaignSpec::sdm_threshold_db`] of beam isolation, all are served
    /// concurrently with cross-beam-degraded SNR; otherwise the slot is a
    /// collision. Either way every transmitter spends uplink energy for
    /// the airtime. Nodes outside [`CampaignSpec::relay`]'s coverage can
    /// only deliver over the relay chains the policy grants. Accounting is
    /// policy-independent, so reports compare across policies.
    ///
    /// All randomness comes from `rng`, in a fixed order. `probe` records
    /// counters, histograms and traces by copying values the campaign
    /// already computed: it draws nothing and reads no clock, so a
    /// disabled probe and an enabled one produce bit-identical results.
    /// The run's lifecycle ledger is audited before the sink is built: a
    /// packet that reached no terminal outcome is a
    /// [`MilbackError::Conservation`].
    pub fn run<S: CampaignSink>(
        &self,
        spec: &CampaignSpec<'_>,
        policy: Box<dyn MacPolicy>,
        rng: &mut GaussianSource,
        probe: &mut CampaignProbe,
    ) -> Result<S> {
        let airtime_s = self.campaign_airtime_s(spec)?;
        let mut scratch = CampaignScratch::default();
        self.run_cell(spec, airtime_s, policy, rng, probe, &mut scratch, None)
    }

    /// [`run`](Self::run) with relaying disabled, under positional
    /// arguments. Kept, signature untouched, because the frozen `perfbench`
    /// harness calls it.
    #[allow(clippy::too_many_arguments)]
    pub fn run_mac_service_probed(
        &self,
        policy: Box<dyn MacPolicy>,
        frames: usize,
        payload: &[u8],
        plan: &SlotPlan,
        sdm_threshold_db: f64,
        rng: &mut GaussianSource,
        service: &ApServiceConfig,
        probe: &mut CampaignProbe,
    ) -> Result<SlottedRunReport> {
        let spec = CampaignSpec::new(frames, payload, *plan)
            .with_sdm_threshold_db(sdm_threshold_db)
            .with_service(*service);
        self.run(&spec, policy, rng, probe)
    }

    /// [`run`](Self::run) without a probe, under positional arguments.
    /// Kept, signature untouched, because the frozen `perfbench` harness
    /// calls it.
    #[allow(clippy::too_many_arguments)]
    pub fn run_mac_relay_service(
        &self,
        policy: Box<dyn MacPolicy>,
        frames: usize,
        payload: &[u8],
        plan: &SlotPlan,
        sdm_threshold_db: f64,
        rng: &mut GaussianSource,
        service: &ApServiceConfig,
        relay: &RelayConfig,
    ) -> Result<SlottedRunReport> {
        let spec = CampaignSpec::new(frames, payload, *plan)
            .with_sdm_threshold_db(sdm_threshold_db)
            .with_service(*service)
            .with_relay(*relay);
        self.run(&spec, policy, rng, &mut CampaignProbe::disabled())
    }

    /// Checks what every cell of a campaign shares and returns the
    /// packet airtime, seconds: the configuration, every pose, the spec's
    /// timeline, and that one payload packet (plus guard) fits a slot of
    /// the plan. Runs once per campaign, sharded or not, so no cell
    /// repeats it: budget misses build straight from the configuration,
    /// and every pose is finite.
    pub(crate) fn campaign_airtime_s(&self, spec: &CampaignSpec<'_>) -> Result<f64> {
        self.config.validate()?;
        self.check_poses()?;
        spec.check_timeline()?;
        let packet = Packet::uplink(spec.payload.to_vec());
        let (fmcw, rate_hz) = (&self.config.fmcw, self.config.uplink_symbol_rate_hz);
        let airtime_s = packet.duration_s(fmcw, rate_hz);
        if packet.duration_ps(fmcw, rate_hz) > spec.plan.slot_ps {
            return Err(MilbackError::Config(format!(
                "a {airtime_s:.3e} s packet does not fit the plan's {:.3e} s slots",
                ps_to_secs(spec.plan.slot_ps)
            )));
        }
        Ok(airtime_s)
    }

    /// Runs one campaign checked by
    /// [`campaign_airtime_s`](Self::campaign_airtime_s) on a caller-held
    /// scratch. The sharded runner passes one scratch per worker, so the
    /// per-node ledger rows, budget memo, frame schedule, event queue and
    /// lifecycle ledger are recycled across that worker's cells, and one
    /// earlier cell's sink as `reuse`. Neither's incoming contents
    /// influence the result.
    ///
    /// Runs `policy` over the spec's frames, then totals the rows into the
    /// lifecycle ledger, audits it against the packets offered, and folds
    /// each node's finished report into the sink. Sharing this one
    /// finishing path keeps the per-node-report and streaming outputs from
    /// drifting apart.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_cell<S: CampaignSink>(
        &self,
        spec: &CampaignSpec<'_>,
        airtime_s: f64,
        mut policy: Box<dyn MacPolicy>,
        rng: &mut GaussianSource,
        probe: &mut CampaignProbe,
        scratch: &mut CampaignScratch,
        reuse: Option<S>,
    ) -> Result<S> {
        policy.begin(&MacContext::new(self, spec), rng);
        // Jitter state is seeded from the trial stream only when jitter is
        // configured — the instantaneous configuration draws nothing.
        // Drawn after `begin` so policies see the same stream position
        // either way.
        let jitter_state = (spec.service.jitter_ps > 0)
            .then(|| u64::from_le_bytes(rng.bytes(8).try_into().expect("eight bytes")));
        self.fill_rows(&mut scratch.rows, &spec.relay);
        scratch.lifecycle.reset();
        scratch.queue.reset();
        let CampaignScratch {
            rows,
            uplink,
            budgets,
            schedule,
            scheduled,
            queue,
            lifecycle,
        } = scratch;
        let mut m = SlotMedium {
            net: self,
            rng,
            payload: spec.payload,
            airtime_s,
            power: NodePowerModel::milback_default(),
            rows,
            uplink,
            budgets,
            lifecycle,
            probe: std::mem::take(probe),
            service: ApServiceStats::default(),
        };
        if let Some(sink) = m.probe.trace.clone() {
            queue.set_tracer(sink);
        }
        if m.probe.metrics.is_some() {
            queue.enable_depth_stats();
        }
        let mut coordinator = PolicyCoordinator {
            spec: *spec,
            policy,
            schedule,
            relay_schedule: Vec::new(),
            stages: Default::default(),
            jitter_state,
            scheduled,
        };
        if spec.frames > 0 {
            queue.post(0, SlotEvent::FrameStart { frame: 0 });
        }
        while let Some((now_ps, event)) = queue.pop() {
            coordinator.handle(now_ps, event, &mut m, queue)?;
        }
        *probe = std::mem::take(&mut m.probe);
        if let Some(d) = queue.take_depth_stats() {
            probe.merge_queue_depths(d.entries());
        }
        for row in m.rows.iter() {
            row.tally_into(m.lifecycle);
        }
        m.lifecycle.audit()?;
        Ok(S::fold(
            spec,
            m.node_reports(spec),
            m.service,
            m.lifecycle,
            reuse,
        ))
    }

    /// Refills `rows` with one zeroed ledger row per node, each holding
    /// its azimuth. Every node is covered by default; an unbounded model
    /// skips the classification entirely. Otherwise every gap node's drop
    /// reason is classified once per run (the relay topology is static
    /// over a campaign), so the serve path attributes uncovered losses by
    /// row lookup — no per-slot graph work, no RNG, no clock.
    fn fill_rows(&self, rows: &mut Vec<NodeLedger>, relay: &RelayConfig) {
        rows.clear();
        rows.extend((0..self.node_count()).map(|idx| NodeLedger {
            azimuth: self.azimuth(idx),
            ..NodeLedger::default()
        }));
        if !relay.coverage.is_unbounded() {
            let covered: Vec<bool> = (0..self.node_count())
                .map(|idx| relay.coverage.covers(&self.scene.ground_truth(idx)))
                .collect();
            let reasons = crate::relay::classify_gap_reasons(&self.scene, &covered, relay);
            for (row, reason) in rows.iter_mut().zip(reasons) {
                row.gap = reason;
            }
        }
    }
}

/// The SDM margin, dB, between beams steered at azimuths `az_a` (the
/// served node) and `az_b` (the other node): the AP horn's boresight gain
/// toward the served node minus the other beam's off-axis gain toward it,
/// at their angular separation. [`Network::sdm_margin_db`] and a
/// campaign's per-node ledger rows both go through it, so the two cannot
/// drift apart.
fn sdm_margin(az_a: f64, az_b: f64) -> f64 {
    let horn = mmwave_rf::antenna::Horn::miwave_20dbi();
    let wanted = horn.gain_dbi(28e9, 0.0);
    let leak = horn.gain_dbi(28e9, (az_a - az_b).abs());
    wanted - leak
}

/// One slotted campaign: its length, payload and airtime plan, and the AP
/// it runs under. [`CampaignSpec::new`] gives the parity configuration —
/// a 20 dB SDM threshold, the instantaneous AP pipeline, relaying
/// disabled — and the `with_*` builders change one knob each.
///
/// A spec runs through [`Network::run`] (one engine on the caller's RNG
/// stream) or [`Network::run_sharded`] (one engine per spatial cell, each
/// on its own [`cell_seed`](crate::shard::cell_seed) stream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignSpec<'a> {
    /// Campaign length, frames.
    pub frames: usize,
    /// The uplink payload every transmission carries.
    pub payload: &'a [u8],
    /// The airtime plan (slots per frame, slot width).
    pub plan: SlotPlan,
    /// Beam isolation, dB, two co-slotted nodes need to be served
    /// concurrently.
    pub sdm_threshold_db: f64,
    /// The AP's Capture → Plan → Transmit service pipeline.
    pub service: ApServiceConfig,
    /// AP coverage and multi-hop relaying.
    pub relay: RelayConfig,
}

impl<'a> CampaignSpec<'a> {
    /// `frames` frames of `plan` carrying `payload`, under the parity
    /// configuration.
    pub fn new(frames: usize, payload: &'a [u8], plan: SlotPlan) -> Self {
        Self {
            frames,
            payload,
            plan,
            sdm_threshold_db: 20.0,
            service: ApServiceConfig::instantaneous(),
            relay: RelayConfig::disabled(),
        }
    }

    /// The spec with another SDM separability threshold.
    pub fn with_sdm_threshold_db(self, sdm_threshold_db: f64) -> Self {
        Self {
            sdm_threshold_db,
            ..self
        }
    }

    /// The spec under another AP service pipeline.
    pub fn with_service(self, service: ApServiceConfig) -> Self {
        Self { service, ..self }
    }

    /// The spec with another coverage and relay configuration.
    pub fn with_relay(self, relay: RelayConfig) -> Self {
        Self { relay, ..self }
    }

    /// Rejects a spec whose timeline the engine cannot schedule: a frame
    /// without slots, a frame or campaign span past [`TimePs`], or a jitter
    /// bound whose draw range `jitter_ps + 1` overflows.
    fn check_timeline(&self) -> Result<()> {
        let bad = |what: String| Err(MilbackError::Config(what));
        if self.plan.slots_per_frame == 0 {
            return bad("a frame needs at least one slot".into());
        }
        let Some(frame_ps) = self
            .plan
            .slot_ps
            .checked_mul(self.plan.slots_per_frame as TimePs)
        else {
            return bad(format!(
                "{} slots of {} ps overflow the picosecond clock",
                self.plan.slots_per_frame, self.plan.slot_ps
            ));
        };
        if frame_ps.checked_mul(self.frames as TimePs).is_none() {
            return bad(format!(
                "{} frames of {frame_ps} ps overflow the picosecond clock",
                self.frames
            ));
        }
        if self.service.jitter_ps.checked_add(1).is_none() {
            return bad(format!(
                "a jitter bound of {} ps overflows its draw range",
                self.service.jitter_ps
            ));
        }
        Ok(())
    }

    /// Frame duration, seconds.
    fn frame_s(&self) -> f64 {
        ps_to_secs(self.plan.frame_ps())
    }
}

/// What a campaign folds its settled per-node ledgers into. Two sinks
/// exist: [`SlottedRunReport`] keeps every node's row (O(nodes) memory),
/// and [`CampaignAggregate`] folds the rows into fixed-size counters and
/// histograms as they are produced (O(buckets) memory, the city-scale
/// choice). Both see the same rows in the same order, so the aggregate of
/// a report equals the streamed aggregate bit-for-bit.
pub trait CampaignSink: Sized + Send {
    /// What [`Network::run_sharded`] returns for this sink: the empty
    /// result is its `Default`, and every cell folds in through
    /// [`merge_cell`](Self::merge_cell).
    type Cells: Default;

    /// Builds the sink from one settled run: the campaign shape, every
    /// node's finished row in node order, and the run's AP service and
    /// lifecycle ledgers. `reuse` is an earlier cell's sink whose buffers
    /// the fold may refill; its contents never reach the result.
    fn fold(
        spec: &CampaignSpec<'_>,
        nodes: impl Iterator<Item = SlottedNodeReport>,
        service: ApServiceStats,
        lifecycle: &LifecycleStats,
        reuse: Option<Self>,
    ) -> Self;

    /// Folds one cell's sink of a sharded campaign into the campaign
    /// result. Cells arrive in cell index order. Returns the cell when the
    /// result kept none of it, so a later cell's fold can reuse its
    /// buffers.
    fn merge_cell(cells: &mut Self::Cells, cell: Self) -> Option<Self>;
}

impl CampaignSink for SlottedRunReport {
    /// One report per cell, in cell index order (node indices cell-local).
    type Cells = Vec<SlottedRunReport>;

    fn fold(
        spec: &CampaignSpec<'_>,
        nodes: impl Iterator<Item = SlottedNodeReport>,
        service: ApServiceStats,
        lifecycle: &LifecycleStats,
        _reuse: Option<Self>,
    ) -> Self {
        Self {
            frames: spec.frames,
            frame_s: spec.frame_s(),
            payload_bytes: spec.payload.len(),
            nodes: nodes.collect(),
            service,
            lifecycle: lifecycle.clone(),
        }
    }

    fn merge_cell(cells: &mut Vec<Self>, cell: Self) -> Option<Self> {
        cells.push(cell);
        None
    }
}

impl CampaignSink for CampaignAggregate {
    /// The campaign total, merged in cell index order.
    type Cells = CampaignAggregate;

    fn fold(
        spec: &CampaignSpec<'_>,
        nodes: impl Iterator<Item = SlottedNodeReport>,
        service: ApServiceStats,
        lifecycle: &LifecycleStats,
        reuse: Option<Self>,
    ) -> Self {
        let mut agg = match reuse {
            Some(mut agg) => {
                agg.reset();
                agg
            }
            None => Self::new(),
        };
        agg.begin_run(spec.frames, spec.frame_s(), spec.payload.len());
        for r in nodes {
            agg.observe_node(&r);
        }
        agg.service.merge_from(&service);
        agg.lifecycle.merge_from(lifecycle);
        agg
    }

    fn merge_cell(total: &mut Self, cell: Self) -> Option<Self> {
        total.merge_from(&cell);
        Some(cell)
    }
}

/// One node's statistics over a slotted multi-node run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlottedNodeReport {
    /// Node index in the scene.
    pub node_idx: usize,
    /// Packets transmitted (one per frame).
    pub attempts: usize,
    /// Packets delivered intact at the AP.
    pub delivered: usize,
    /// Packets lost to unseparable slot collisions.
    pub collisions: usize,
    /// Total node energy over the run (transmit + idle), joules.
    pub energy_j: f64,
    /// Mean effective SNR of the delivered packets, dB; `None` when
    /// nothing got through.
    pub mean_snr_db: Option<f64>,
    /// True when the node sits outside the campaign's AP coverage (a
    /// cell-edge gap node): its direct uplinks cannot be heard, so any
    /// delivery it reports arrived over a relay route. Always `false`
    /// under the default unbounded coverage.
    pub gap: bool,
    /// Of `delivered`, how many arrived over a multi-hop relay route.
    pub relayed: usize,
    /// Total transmissions across this node's relayed deliveries (tag
    /// hops + the terminal uplink each; direct counts as 1), so
    /// `relay_hops / relayed` is the mean route length.
    pub relay_hops: usize,
    /// Packets this node forwarded on behalf of other nodes' routes.
    pub forwarded: usize,
    /// Energy spent forwarding other nodes' packets, joules (already
    /// included in `energy_j` — this is the relay share, not an extra).
    pub relay_energy_j: f64,
    /// Extra delivery latency this node's relayed packets accrued over a
    /// direct uplink (one slot per tag hop), seconds, summed across its
    /// relayed deliveries.
    pub relay_latency_s: f64,
}

/// The per-node outcome of a slotted campaign: one of the two
/// [`CampaignSink`]s [`Network::run`] folds into.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlottedRunReport {
    /// Frames simulated.
    pub frames: usize,
    /// Frame duration, seconds.
    pub frame_s: f64,
    /// Payload size per packet, bytes.
    pub payload_bytes: usize,
    /// Per-node statistics.
    pub nodes: Vec<SlottedNodeReport>,
    /// AP service pipeline accounting for the run.
    pub service: ApServiceStats,
    /// Packet-lifecycle ledger for the run: offered/delivered totals,
    /// drop counts by [`DropReason`] taxonomy slot, and the three latency
    /// sketches.
    pub lifecycle: LifecycleStats,
}

impl SlottedRunReport {
    /// Elapsed campaign time, seconds.
    pub(crate) fn elapsed_s(&self) -> f64 {
        self.frames as f64 * self.frame_s
    }

    /// A node's goodput over the campaign, bits/second.
    pub fn goodput_bps(&self, node_idx: usize) -> f64 {
        let elapsed = self.elapsed_s();
        if elapsed <= 0.0 {
            return 0.0;
        }
        self.nodes[node_idx].delivered as f64 * self.payload_bytes as f64 * 8.0 / elapsed
    }

    /// A node's energy per delivered packet, joules; `None` when nothing
    /// got through.
    pub fn energy_per_packet_j(&self, node_idx: usize) -> Option<f64> {
        let n = &self.nodes[node_idx];
        (n.delivered > 0).then(|| n.energy_j / n.delivered as f64)
    }
}

/// Streaming campaign accounting: fixed-size counters plus the fixed-bucket
/// telemetry histograms, folded node-by-node and merged cell-by-cell in
/// deterministic order (the same discipline as
/// [`Metrics::merge_from`](crate::telemetry::Metrics::merge_from)).
///
/// This is the city-scale replacement for per-node
/// `Vec<SlottedNodeReport>` accounting: an aggregate's size is a function
/// of its histogram bucket counts alone, and a sharded campaign folds each
/// block of finished cells into the running total, so its peak report
/// memory is O(block + buckets) — never O(nodes), nor O(cells). The u64
/// counters and histogram buckets are exact (integer adds), so folding
/// node reports in any cell order produces identical counters/buckets; the
/// f64 sums are reproducible for a *fixed* fold order, which the sharded
/// runner guarantees by merging cells in index order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignAggregate {
    /// Cell campaigns folded in (1 for a plain run).
    pub cells: u64,
    /// Nodes observed across all cells.
    pub nodes: u64,
    /// Frames per cell campaign (identical across a campaign's cells).
    pub frames: u64,
    /// Frame duration, seconds.
    pub frame_s: f64,
    /// Payload size per packet, bytes.
    pub payload_bytes: u64,
    /// Packets transmitted, network-wide.
    pub attempts: u64,
    /// Packets delivered intact, network-wide.
    pub delivered: u64,
    /// Packets lost to unseparable collisions, network-wide.
    pub collisions: u64,
    /// Total node energy over the campaign (transmit + idle), joules.
    pub energy_j: f64,
    /// Sum of per-node mean delivered SNRs over the delivering nodes, dB.
    pub snr_sum_db: f64,
    /// Nodes that delivered at least one packet.
    pub delivering_nodes: u64,
    /// Per-node total-energy distribution over [`ENERGY_BUCKETS_J`].
    pub node_energy_j: Histogram,
    /// Per-node mean-delivered-SNR distribution over [`SNR_BUCKETS_DB`].
    pub node_snr_db: Histogram,
    /// Nodes outside AP coverage (cell-edge gap nodes).
    pub gap_nodes: u64,
    /// Packets attempted by gap nodes (their direct attempts can never
    /// deliver, so these dominate the no-relay loss).
    pub gap_attempts: u64,
    /// Packets gap nodes got through (necessarily over relay routes).
    pub gap_delivered: u64,
    /// Packets delivered over multi-hop relay routes, network-wide.
    pub relayed: u64,
    /// Total transmissions across relayed deliveries (route length summed
    /// per delivery), so `relayed > 0` makes `relay_hops / relayed` the
    /// mean route length.
    pub relay_hops: u64,
    /// Forwarding transmissions performed on behalf of other nodes.
    pub forwarded: u64,
    /// Energy spent forwarding, joules (a share of `energy_j`).
    pub relay_energy_j: f64,
    /// Extra relay latency over direct uplinks, seconds, summed across
    /// relayed deliveries.
    pub relay_latency_s: f64,
    /// Per-node mean-route-length distribution over
    /// [`RELAY_HOP_BUCKETS`], observed only for nodes with at least one
    /// relayed delivery.
    pub node_relay_hops: Histogram,
    /// AP service pipeline accounting summed over the folded runs —
    /// exact u64 adds, so any cell merge order agrees.
    pub service: ApServiceStats,
    /// Packet-lifecycle ledger summed over the folded runs: exact
    /// integer adds plus fixed-bucket sketch merges, so merging cells in
    /// index order reproduces counts and percentiles bit-identically at
    /// any thread count.
    pub lifecycle: LifecycleStats,
}

impl CampaignAggregate {
    /// An empty aggregate (all counters zero, histograms empty).
    pub fn new() -> Self {
        Self {
            cells: 0,
            nodes: 0,
            frames: 0,
            frame_s: 0.0,
            payload_bytes: 0,
            attempts: 0,
            delivered: 0,
            collisions: 0,
            energy_j: 0.0,
            snr_sum_db: 0.0,
            delivering_nodes: 0,
            node_energy_j: Histogram::new(ENERGY_BUCKETS_J),
            node_snr_db: Histogram::new(SNR_BUCKETS_DB),
            gap_nodes: 0,
            gap_attempts: 0,
            gap_delivered: 0,
            relayed: 0,
            relay_hops: 0,
            forwarded: 0,
            relay_energy_j: 0.0,
            relay_latency_s: 0.0,
            node_relay_hops: Histogram::new(RELAY_HOP_BUCKETS),
            service: ApServiceStats::default(),
            lifecycle: LifecycleStats::new(),
        }
    }

    /// Empties the aggregate in place: equal to [`new`](Self::new)
    /// afterwards, with its histogram buffers kept.
    pub(crate) fn reset(&mut self) {
        let Self {
            cells,
            nodes,
            frames,
            frame_s,
            payload_bytes,
            attempts,
            delivered,
            collisions,
            energy_j,
            snr_sum_db,
            delivering_nodes,
            node_energy_j,
            node_snr_db,
            gap_nodes,
            gap_attempts,
            gap_delivered,
            relayed,
            relay_hops,
            forwarded,
            relay_energy_j,
            relay_latency_s,
            node_relay_hops,
            service,
            lifecycle,
        } = self;
        for n in [
            cells,
            nodes,
            frames,
            payload_bytes,
            attempts,
            delivered,
            collisions,
            delivering_nodes,
            gap_nodes,
            gap_attempts,
            gap_delivered,
            relayed,
            relay_hops,
            forwarded,
        ] {
            *n = 0;
        }
        for x in [
            frame_s,
            energy_j,
            snr_sum_db,
            relay_energy_j,
            relay_latency_s,
        ] {
            *x = 0.0;
        }
        for h in [node_energy_j, node_snr_db, node_relay_hops] {
            h.reset();
        }
        *service = ApServiceStats::default();
        lifecycle.reset();
    }

    /// Opens one cell campaign's fold: records the campaign shape and
    /// counts the cell. Call once per cell, then
    /// [`observe_node`](Self::observe_node) per node.
    pub fn begin_run(&mut self, frames: usize, frame_s: f64, payload_bytes: usize) {
        if self.cells > 0 {
            debug_assert_eq!(
                self.frames, frames as u64,
                "cells must share a campaign shape"
            );
            debug_assert_eq!(self.frame_s.to_bits(), frame_s.to_bits());
            debug_assert_eq!(self.payload_bytes, payload_bytes as u64);
        }
        self.frames = frames as u64;
        self.frame_s = frame_s;
        self.payload_bytes = payload_bytes as u64;
        self.cells += 1;
    }

    /// Folds one node's finished report into the aggregate.
    pub fn observe_node(&mut self, r: &SlottedNodeReport) {
        self.nodes += 1;
        self.attempts += r.attempts as u64;
        self.delivered += r.delivered as u64;
        self.collisions += r.collisions as u64;
        self.energy_j += r.energy_j;
        self.node_energy_j.observe(r.energy_j);
        if let Some(snr) = r.mean_snr_db {
            self.delivering_nodes += 1;
            self.snr_sum_db += snr;
            self.node_snr_db.observe(snr);
        }
        if r.gap {
            self.gap_nodes += 1;
            self.gap_attempts += r.attempts as u64;
            self.gap_delivered += r.delivered as u64;
        }
        self.relayed += r.relayed as u64;
        self.relay_hops += r.relay_hops as u64;
        self.forwarded += r.forwarded as u64;
        self.relay_energy_j += r.relay_energy_j;
        self.relay_latency_s += r.relay_latency_s;
        if r.relayed > 0 {
            self.node_relay_hops
                .observe(r.relay_hops as f64 / r.relayed as f64);
        }
    }

    /// Folds a whole per-node report into the aggregate — the reference
    /// the streaming path and the property suite compare against.
    pub(crate) fn observe_run(&mut self, r: &SlottedRunReport) {
        self.begin_run(r.frames, r.frame_s, r.payload_bytes);
        for node in &r.nodes {
            self.observe_node(node);
        }
        self.service.merge_from(&r.service);
        self.lifecycle.merge_from(&r.lifecycle);
    }

    /// The aggregate of one materialized report.
    pub fn from_report(r: &SlottedRunReport) -> Self {
        let mut agg = Self::new();
        agg.observe_run(r);
        agg
    }

    /// Folds another aggregate into this one. Merge cells in index order:
    /// counters and buckets are exact either way, and a fixed order makes
    /// the f64 sums reproducible at any thread count.
    pub fn merge_from(&mut self, other: &Self) {
        if other.cells == 0 && other.nodes == 0 {
            return;
        }
        if self.cells == 0 {
            self.frames = other.frames;
            self.frame_s = other.frame_s;
            self.payload_bytes = other.payload_bytes;
        } else if other.cells > 0 {
            debug_assert_eq!(
                self.frames, other.frames,
                "cells must share a campaign shape"
            );
            debug_assert_eq!(self.frame_s.to_bits(), other.frame_s.to_bits());
            debug_assert_eq!(self.payload_bytes, other.payload_bytes);
        }
        self.cells += other.cells;
        self.nodes += other.nodes;
        self.attempts += other.attempts;
        self.delivered += other.delivered;
        self.collisions += other.collisions;
        self.energy_j += other.energy_j;
        self.snr_sum_db += other.snr_sum_db;
        self.delivering_nodes += other.delivering_nodes;
        self.node_energy_j.merge_from(&other.node_energy_j);
        self.node_snr_db.merge_from(&other.node_snr_db);
        self.gap_nodes += other.gap_nodes;
        self.gap_attempts += other.gap_attempts;
        self.gap_delivered += other.gap_delivered;
        self.relayed += other.relayed;
        self.relay_hops += other.relay_hops;
        self.forwarded += other.forwarded;
        self.relay_energy_j += other.relay_energy_j;
        self.relay_latency_s += other.relay_latency_s;
        self.node_relay_hops.merge_from(&other.node_relay_hops);
        self.service.merge_from(&other.service);
        self.lifecycle.merge_from(&other.lifecycle);
    }

    /// Elapsed campaign time, seconds (cells run concurrently in
    /// simulated time — each serves its own AP).
    pub(crate) fn elapsed_s(&self) -> f64 {
        self.frames as f64 * self.frame_s
    }

    /// Delivered over attempted, network-wide; `None` before any attempt.
    pub fn delivery_rate(&self) -> Option<f64> {
        (self.attempts > 0).then(|| self.delivered as f64 / self.attempts as f64)
    }

    /// Network-wide goodput over the campaign, bits/second.
    pub fn goodput_bps(&self) -> f64 {
        let elapsed = self.elapsed_s();
        if elapsed <= 0.0 {
            return 0.0;
        }
        self.delivered as f64 * self.payload_bytes as f64 * 8.0 / elapsed
    }

    /// Mean node energy over the campaign, joules; `None` with no nodes.
    pub fn mean_energy_per_node_j(&self) -> Option<f64> {
        (self.nodes > 0).then(|| self.energy_j / self.nodes as f64)
    }

    /// Mean of the per-node mean delivered SNRs, dB; `None` when nothing
    /// got through anywhere.
    pub fn mean_snr_db(&self) -> Option<f64> {
        (self.delivering_nodes > 0).then(|| self.snr_sum_db / self.delivering_nodes as f64)
    }

    /// Delivered over attempted among gap nodes alone; `None` when no gap
    /// node attempted anything (including the all-covered default).
    /// Without relaying this is exactly 0; the `net_relay` sweep shows it
    /// recovering with `max_hops`.
    pub fn gap_delivery_rate(&self) -> Option<f64> {
        (self.gap_attempts > 0).then(|| self.gap_delivered as f64 / self.gap_attempts as f64)
    }

    /// Mean route length (transmissions per relayed delivery; direct
    /// would be 1); `None` when nothing was relayed.
    pub fn mean_relay_hops(&self) -> Option<f64> {
        (self.relayed > 0).then(|| self.relay_hops as f64 / self.relayed as f64)
    }

    /// Forwarding energy per relayed delivery, joules; `None` when
    /// nothing was relayed.
    pub fn relay_energy_per_delivered_j(&self) -> Option<f64> {
        (self.relayed > 0).then(|| self.relay_energy_j / self.relayed as f64)
    }

    /// Mean extra latency per relayed delivery, seconds; `None` when
    /// nothing was relayed.
    pub fn mean_relay_latency_s(&self) -> Option<f64> {
        (self.relayed > 0).then(|| self.relay_latency_s / self.relayed as f64)
    }

    /// Total histogram bucket slots held — the aggregate's only
    /// node-count-independent heap footprint, which the bounded-memory
    /// acceptance check compares across campaign sizes.
    pub fn bucket_footprint(&self) -> usize {
        self.node_energy_j.counts.len()
            + self.node_snr_db.counts.len()
            + self.node_relay_hops.counts.len()
            + self.lifecycle.bucket_footprint()
    }
}

impl Default for CampaignAggregate {
    fn default() -> Self {
        Self::new()
    }
}

/// One worker's campaign state, recycled across the cells it runs: the
/// sharded runner keeps one per worker, so a cell pays for its packets,
/// not for its set-up. Everything but the budget memo is refilled or
/// reset before each cell, and the memo holds only exact results (see
/// [`BudgetMemo`]), so (per the
/// [`parallel::for_each_chunk_with`](mmwave_sigproc::parallel::for_each_chunk_with)
/// contract) scratch state can never influence a result. A scratch serves
/// one campaign: the memo is exact only under one configuration.
#[derive(Default)]
pub(crate) struct CampaignScratch {
    /// The per-node ledger rows, each with its lazily built uplink budget
    /// and azimuth.
    rows: Vec<NodeLedger>,
    /// The uplink kernel's buffers.
    uplink: UplinkScratch,
    /// Uplink budgets by steered pose, shared by every cell of the
    /// campaign the worker runs.
    budgets: BudgetMemo,
    /// The coordinator's frame schedule, its group buffers refilled by
    /// [`MacPolicy::schedule_frame_into`] every frame.
    schedule: FrameSchedule,
    /// The coordinator's per-node "in this frame's schedule" flags.
    scheduled: Vec<bool>,
    /// The cell's event queue.
    queue: EventQueue,
    /// The cell's lifecycle ledger.
    lifecycle: LifecycleStats,
}

/// Uplink budgets built so far in one campaign, keyed by the steered
/// ground truth they were built from: the `to_bits` of its `range_m`,
/// `azimuth_rad` and `incidence_rad`. A node whose steered pose matches
/// an entry bit for bit takes that budget instead of building its own.
///
/// The memo is exact. [`UplinkBudget::new`] reads four inputs: the
/// campaign's configuration, the default [`QueryPlanner`], the ground
/// truth, and a `None` orientation hint. Within one campaign only the
/// ground truth varies, and [`Network::check_poses`] already rejected
/// every non-finite pose. Only `Ok` budgets are stored, so an error is
/// rebuilt, and reported, on every miss.
///
/// Bounded at [`CAPACITY`](Self::CAPACITY) entries scanned linearly: a
/// sector campaign's nodes share a handful of poses, and a campaign whose
/// poses all differ pays one short scan per first service.
#[derive(Debug, Default)]
struct BudgetMemo(Vec<([u64; 3], UplinkBudget)>);

impl BudgetMemo {
    /// Most poses held.
    const CAPACITY: usize = 16;

    /// The budget of steered pose `gt`: the memo's entry, or `build`'s
    /// result, kept while the memo has room.
    fn get_or_build(
        &mut self,
        gt: &GroundTruth,
        build: impl FnOnce() -> Result<UplinkBudget>,
    ) -> Result<UplinkBudget> {
        let key = [gt.range_m, gt.azimuth_rad, gt.incidence_rad].map(f64::to_bits);
        if let Some((_, budget)) = self.0.iter().find(|(k, _)| *k == key) {
            return Ok(*budget);
        }
        let budget = build()?;
        if self.0.len() < Self::CAPACITY {
            // Sized once, so a new pose never reallocates the memo.
            self.0.reserve_exact(Self::CAPACITY - self.0.len());
            self.0.push((key, budget));
        }
        Ok(budget)
    }
}

/// Events of a slotted campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotEvent {
    /// A frame boundary: hash every node to its slot and schedule the
    /// occupied slots.
    FrameStart {
        /// Frame number.
        frame: usize,
    },
    /// An occupied slot's airtime begins.
    SlotFire {
        /// Frame number.
        frame: usize,
        /// Slot within the frame.
        slot: usize,
    },
    /// An AP pipeline stage finished the job it had in service. The job
    /// itself lives in the coordinator's [`StageState`] (events stay
    /// `Copy`); the completed job moves downstream and the stage starts
    /// its next queued job, if any. Never posted for a frame served in
    /// one pass (instantaneous pipeline, no relay grants).
    StageDone {
        /// Which stage completed.
        stage: StageKind,
    },
    /// A granted relay chain resolves: the route's tag hops fire
    /// back-to-back inside the granted slot and the terminal node uplinks
    /// for the origin. Posted at the frame boundary after the frame's
    /// direct `SlotFire` events, so the queue's `(time, seq)` order gives
    /// every chain a fixed, posting-determined position among
    /// same-instant events at any thread count. That position is ahead
    /// of the slot's direct traffic: the slot's `SlotFire` pops first,
    /// but the `StageDone` hops it posts (the direct traffic resolves at
    /// Transmit) carry later `seq`s than the `RelayFire`, even when the
    /// pipeline is instantaneous.
    RelayFire {
        /// Frame number.
        frame: usize,
        /// Index into the coordinator's per-frame relay grants.
        grant: usize,
    },
}

impl SlotEvent {
    /// The stable trace/metric label of the event's kind — one name for
    /// both the queue's tracer and its lossless queue-depth tallies.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            SlotEvent::FrameStart { .. } => "frame_start",
            SlotEvent::SlotFire { .. } => "slot_fire",
            SlotEvent::StageDone { stage } => stage.label(),
            SlotEvent::RelayFire { .. } => "relay_fire",
        }
    }
}

/// A packet's terminal outcome: delivered over one of two paths, or
/// dropped for one [`DropReason`].
#[derive(Debug, Clone, Copy)]
enum Outcome {
    /// Delivered over the packet's own uplink.
    Direct,
    /// Delivered over a granted relay chain.
    Relayed,
    /// Lost, for this reason.
    Dropped(DropReason),
}

/// The drop reasons that resolve a packet after it went on the air. The
/// other two — a shed grant and a frame that never scheduled the node —
/// resolve it before any transmission.
const ON_AIR_DROPS: [DropReason; 5] = [
    DropReason::ContentionCollision,
    DropReason::SdmInseparable,
    DropReason::NoRelayRoute,
    DropReason::HopBudgetExhausted,
    DropReason::DecodeFailure,
];

/// One node's row of the campaign ledger. Its outcome counts hold every
/// packet the node was offered, counted once, by terminal outcome: a
/// report's attempts, deliveries, collisions and relayed deliveries, and
/// the run's lifecycle totals, all derive from them. The rest of the row
/// is the node's energy, SNR and relay ledgers, its coverage, its uplink
/// budget and its azimuth.
#[derive(Debug, Clone, Copy, Default)]
struct NodeLedger {
    /// Packets delivered over the node's own uplink.
    direct: usize,
    /// Packets delivered over a granted relay chain.
    relayed: usize,
    /// Packets dropped, by [`DropReason::index`].
    drops: [usize; DropReason::COUNT],
    /// Transmit energy, joules: the node's own attempts plus its
    /// forwarding (idle energy is added when the report is built).
    energy_j: f64,
    /// Effective SNRs of the delivered packets summed, dB.
    snr_sum_db: f64,
    /// AP reachability under the campaign's coverage model: `None` for a
    /// covered node (every node under the default unbounded coverage),
    /// otherwise the drop a gap node's direct uplink earns —
    /// [`DropReason::HopBudgetExhausted`] or [`DropReason::NoRelayRoute`],
    /// classified once per run from the relay topology.
    gap: Option<DropReason>,
    /// Route lengths summed across the node's relayed deliveries.
    relay_hops: usize,
    /// Forwarding transmissions performed for other nodes' routes.
    forwarded: usize,
    /// Energy spent forwarding, joules (also added to `energy_j`).
    relay_energy_j: f64,
    /// Extra relay latency over direct uplinks, seconds, summed across
    /// the node's relayed deliveries.
    relay_latency_s: f64,
    /// The node's uplink budget, built on its first service in this
    /// campaign (see [`serve`](SlotMedium::serve)). Lazy on purpose: a
    /// sharded city campaign serves only a small share of its nodes.
    budget: Option<UplinkBudget>,
    /// The node's azimuth from the AP boresight, radians: SDM arbitration
    /// and the interference fold read their margins off it through
    /// [`sdm_margin`].
    azimuth: f64,
}

impl NodeLedger {
    /// Packets delivered, both paths.
    fn delivered(&self) -> usize {
        self.direct + self.relayed
    }

    /// Packets lost to a multi-transmitter slot, arbitrated or not.
    fn collisions(&self) -> usize {
        self.drops[DropReason::ContentionCollision.index()]
            + self.drops[DropReason::SdmInseparable.index()]
    }

    /// Packets that went on the air: every delivery plus every on-air
    /// drop.
    fn attempts(&self) -> usize {
        self.delivered()
            + ON_AIR_DROPS
                .iter()
                .map(|r| self.drops[r.index()])
                .sum::<usize>()
    }

    /// Adds this row's deliveries and drops to a run's ledger.
    fn tally_into(&self, ledger: &mut LifecycleStats) {
        ledger.delivered_direct += self.direct as u64;
        ledger.delivered_relayed += self.relayed as u64;
        for (total, &n) in ledger.drops.iter_mut().zip(&self.drops) {
            *total += n as u64;
        }
    }
}

/// Shared medium of a slotted campaign.
struct SlotMedium<'a> {
    net: &'a Network,
    rng: &'a mut GaussianSource,
    payload: &'a [u8],
    airtime_s: f64,
    power: NodePowerModel,
    /// The campaign ledger: one row per node. Its outcome counts are
    /// written only by [`resolve`](SlotMedium::resolve).
    rows: &'a mut [NodeLedger],
    /// The uplink kernel's reusable buffers.
    uplink: &'a mut UplinkScratch,
    /// Uplink budgets by steered pose, consulted on a row's first service.
    budgets: &'a mut BudgetMemo,
    /// The run's packets offered, shed-stage breakdown and latency
    /// sketches (see [`LifecycleStats`]); [`Network::run_cell`] adds the
    /// rows' outcome totals. Recording is probe-independent, so plain
    /// and probed runs account identically.
    lifecycle: &'a mut LifecycleStats,
    /// The campaign's instrumentation surface. Disabled (all-`None`) on
    /// every uninstrumented path, so recording helpers no-op and both
    /// paths execute the same code.
    probe: CampaignProbe,
    /// AP service accounting for the run: offered/served at the pipeline's
    /// mouth and tail, overflow outcomes in between. Exact u64 adds only;
    /// under the instantaneous pipeline every offered grant is served.
    service: ApServiceStats,
}

impl<'a> SlotMedium<'a> {
    /// Every node's finished report, in node order, with the duty-cycled
    /// idle energy folded in: outside its own transmissions every node
    /// idles for the rest of the campaign.
    fn node_reports<'m>(
        &'m self,
        spec: &CampaignSpec<'_>,
    ) -> impl Iterator<Item = SlottedNodeReport> + 'm {
        let total_s = spec.frames as f64 * spec.frame_s();
        self.rows.iter().enumerate().map(move |(idx, row)| {
            // Forwarded relay transmissions are airtime too: without them
            // the idle-energy complement would double-bill relays as both
            // transmitting and idling. Zero forwards reproduces the
            // pre-relay expression bit-for-bit.
            let (attempts, delivered) = (row.attempts(), row.delivered());
            let active_s = (attempts + row.forwarded) as f64 * self.airtime_s;
            let energy_j =
                row.energy_j + self.power.energy_j(NodeActivity::Idle, total_s - active_s);
            SlottedNodeReport {
                node_idx: idx,
                attempts,
                delivered,
                collisions: row.collisions(),
                energy_j,
                mean_snr_db: (delivered > 0).then(|| row.snr_sum_db / delivered as f64),
                gap: row.gap.is_some(),
                relayed: row.relayed,
                relay_hops: row.relay_hops,
                forwarded: row.forwarded,
                relay_energy_j: row.relay_energy_j,
                relay_latency_s: row.relay_latency_s,
            }
        })
    }

    /// Runs node `node`'s uplink of the campaign payload and returns
    /// whether the payload decoded intact and the measured SNR, dB.
    ///
    /// The node's [`UplinkBudget`] is fetched on its first service in the
    /// campaign — a row miss, counted under the `link_budgets` probe
    /// counter — and every later service only runs the kernel. A miss
    /// takes the budget of the node's steered pose from the
    /// [`BudgetMemo`], or builds it through [`UplinkBudget::new`] from the
    /// node's steered ground truth — the function
    /// [`LinkSimulator::uplink`](crate::link::LinkSimulator::uplink) builds
    /// it with over the node's view — so a node's first service equals
    /// that uplink and reports the same errors. The counter counts first
    /// services, not builds: a build count would depend on which cells
    /// share a worker. The campaign validated the configuration once, up
    /// front.
    fn serve(&mut self, node: usize) -> Result<(bool, f64)> {
        let nodes = self.rows.len();
        let cached = &mut self
            .rows
            .get_mut(node)
            .ok_or(MilbackError::NodeOutOfScene { idx: node, nodes })?
            .budget;
        let budget = match cached {
            Some(budget) => budget,
            None => {
                let gt = self.net.scene.steered_ground_truth(node)?;
                let config = &self.net.config;
                let budget = self.budgets.get_or_build(&gt, || {
                    UplinkBudget::new(config, &QueryPlanner::milback_default(), &gt, None)
                })?;
                self.probe.inc("link_budgets", 1);
                cached.insert(budget)
            }
        };
        let m = budget.run(self.payload, self.rng, self.uplink)?;
        Ok((self.uplink.decoded() == self.payload, m.snr_db))
    }

    /// Records one packet's terminal outcome in `node`'s ledger row — the
    /// campaign's only outcome write. A shed also lands in the ledger's
    /// per-stage breakdown.
    fn resolve(&mut self, node: usize, outcome: Outcome) {
        let row = &mut self.rows[node];
        match outcome {
            Outcome::Direct => row.direct += 1,
            Outcome::Relayed => row.relayed += 1,
            Outcome::Dropped(reason) => {
                row.drops[reason.index()] += 1;
                if let DropReason::ServiceShed { stage, .. } = reason {
                    self.lifecycle.shed_by_stage[stage as usize] += 1;
                }
            }
        }
    }

    /// Resolves one slot's transmitter group: accounts uplink energy,
    /// arbitrates the group by SDM separability, and serves the
    /// survivors (drawing channel noise from the trial stream in node-index
    /// order). Returns whether the slot was lost to a collision.
    ///
    /// Every MAC path funnels through this one function (`inline(never)` so
    /// the optimizer cannot split it into per-caller pipelines that drift
    /// by a ULP — the same discipline the FSA evaluator uses).
    ///
    /// `(now_ps, frame, slot)` identify the slot for telemetry only — the
    /// physics never reads them, and the probe calls are unconditional
    /// no-ops when the probe is disabled, so instrumented and plain runs
    /// share one code path.
    ///
    /// `degraded` marks a grant the pipeline admitted under
    /// [`OverflowPolicy::Degrade`]: the AP skipped SDM arbitration, so a
    /// multi-transmitter group resolves as a collision (a lone transmitter
    /// still serves — there is nothing to arbitrate). With
    /// `degraded == false` the group is arbitrated as usual.
    #[inline(never)]
    fn fire_slot(
        &mut self,
        group: &[usize],
        sdm_threshold_db: f64,
        now_ps: TimePs,
        frame: usize,
        slot: usize,
        degraded: bool,
    ) -> Result<bool> {
        for &node in group {
            self.rows[node].energy_j += self.power.energy_j(NodeActivity::Uplink, self.airtime_s);
        }
        // SDM arbitration: the slot survives concurrency only if every
        // pair of co-slotted beams is separable (a degraded grant skips
        // arbitration and never survives concurrency).
        let rows = &self.rows;
        let separable = !degraded
            && group.iter().enumerate().all(|(i, &a)| {
                group[i + 1..]
                    .iter()
                    .all(|&b| sdm_margin(rows[a].azimuth, rows[b].azimuth) >= sdm_threshold_db)
            });
        if group.len() > 1 && !separable {
            // A degraded grant never ran SDM arbitration — plain
            // contention; an arbitrated loss is an inseparability drop.
            let reason = if degraded {
                DropReason::ContentionCollision
            } else {
                DropReason::SdmInseparable
            };
            for &node in group {
                self.resolve(node, Outcome::Dropped(reason));
            }
            self.probe.trace(|| TraceRecord::FlowEnd {
                time_ps: now_ps,
                flow: PacketId::direct(frame, slot).raw(),
                outcome: "collision",
            });
            self.record_slot(group, true, now_ps, frame, slot);
            return Ok(true);
        }
        for &node in group {
            let (intact, mut snr_db) = self.serve(node)?;
            if group.len() > 1 {
                let margin = group
                    .iter()
                    .filter(|&&o| o != node)
                    .map(|&o| sdm_margin(self.rows[node].azimuth, self.rows[o].azimuth))
                    .fold(f64::INFINITY, f64::min);
                if margin.is_finite() {
                    let sig = db_to_lin(snr_db);
                    let interference = db_to_lin(snr_db - margin);
                    snr_db = 10.0 * (sig / (1.0 + interference)).log10();
                }
            }
            // Coverage gates delivery, not transmission: a gap node still
            // burns the attempt and the airtime energy (it cannot know the
            // AP missed it), but nothing lands. The noise draw above stays
            // unconditional so covered nodes see an unchanged stream.
            let outcome = if let Some(reason) = self.rows[node].gap {
                Outcome::Dropped(reason)
            } else if intact {
                self.rows[node].snr_sum_db += snr_db;
                self.probe
                    .observe("delivered_snr_db", SNR_BUCKETS_DB, snr_db);
                Outcome::Direct
            } else {
                Outcome::Dropped(DropReason::DecodeFailure)
            };
            self.resolve(node, outcome);
        }
        self.probe.trace(|| TraceRecord::FlowEnd {
            time_ps: now_ps,
            flow: PacketId::direct(frame, slot).raw(),
            outcome: "served",
        });
        self.record_slot(group, false, now_ps, frame, slot);
        Ok(false)
    }

    /// Resolves one granted relay chain: the origin's packet hops
    /// tag-to-tag along `route` and the terminal (covered) node uplinks
    /// it to the AP on the origin's behalf.
    ///
    /// `route` holds node indices origin-first, terminal-last, so
    /// `route.len()` is the total transmission count (tag hops + the
    /// terminal uplink; a direct delivery would be 1). Every member pays
    /// one uplink airtime of transmit energy; non-origin members also
    /// ledger it as forwarding. Channel noise is drawn once, for the
    /// terminal uplink — the tag hops are modeled as lossless short-range
    /// retransmissions whose degradation is the deterministic per-hop SNR
    /// penalty subtracted after decode (a documented simplification: hop
    /// losses shift the reported SNR, not the decode verdict).
    ///
    /// `inline(never)` for the same anti-drift reason as
    /// [`fire_slot`](Self::fire_slot).
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn fire_relay(
        &mut self,
        route: &[usize],
        hop_snr_penalty_db: f64,
        slot_s: f64,
        now_ps: TimePs,
        frame: usize,
        slot: usize,
    ) -> Result<()> {
        let n = self.net.node_count();
        if route.len() < 2 {
            return Err(MilbackError::Protocol(format!(
                "a relay route needs at least two nodes, got {}",
                route.len()
            )));
        }
        if let Some(&bad) = route.iter().find(|&&idx| idx >= n) {
            return Err(MilbackError::NodeOutOfScene { idx: bad, nodes: n });
        }
        let origin = route[0];
        let terminal = route[route.len() - 1];
        let tag_hops = route.len() - 1;
        let e_tx = self.power.energy_j(NodeActivity::Uplink, self.airtime_s);
        for &tx in route {
            let row = &mut self.rows[tx];
            row.energy_j += e_tx;
            if tx != origin {
                row.forwarded += 1;
                row.relay_energy_j += e_tx;
            }
        }
        let (intact, mut snr_db) = self.serve(terminal)?;
        snr_db -= hop_snr_penalty_db * tag_hops as f64;
        self.probe.inc("relay_fired", 1);
        // The chain's flow id links its hop spans and terminal outcome in
        // the exported trace; hops fire back-to-back inside the slot, so
        // every span shares the grant instant.
        let flow = PacketId::relayed(frame, origin).raw();
        let hop_dur_ps = crate::engine::secs_to_ps(self.airtime_s);
        for (hop, pair) in route.windows(2).enumerate() {
            let (from, to) = (pair[0], pair[1]);
            self.probe.trace(|| TraceRecord::RelayHop {
                time_ps: now_ps,
                flow,
                hop,
                from,
                to,
                dur_ps: hop_dur_ps,
            });
        }
        if intact && self.rows[terminal].gap.is_none() {
            self.resolve(origin, Outcome::Relayed);
            let row = &mut self.rows[origin];
            row.relay_hops += route.len();
            row.relay_latency_s += tag_hops as f64 * slot_s;
            row.snr_sum_db += snr_db;
            self.lifecycle
                .observe_relay_extra_us(tag_hops as f64 * slot_s * 1e6);
            self.probe.inc("relayed_delivered", 1);
            self.probe
                .observe("delivered_snr_db", SNR_BUCKETS_DB, snr_db);
            self.probe.trace(|| TraceRecord::FlowEnd {
                time_ps: now_ps,
                flow,
                outcome: "relayed",
            });
        } else {
            // Routes terminate at covered nodes by construction, so the
            // only terminal failure mode is a decode miss at the AP.
            self.resolve(origin, Outcome::Dropped(DropReason::DecodeFailure));
            self.probe.trace(|| TraceRecord::FlowEnd {
                time_ps: now_ps,
                flow,
                outcome: "relay_failed",
            });
        }
        self.record_slot(&[origin], false, now_ps, frame, slot);
        Ok(())
    }

    /// Records one resolved slot into the probe: the slot outcome (with
    /// its collision participants), per-node energy draws, and the
    /// occupancy/collision/energy aggregates. Pure copies of
    /// already-computed values — no physics, no randomness, no clock.
    fn record_slot(
        &mut self,
        group: &[usize],
        collided: bool,
        now_ps: TimePs,
        frame: usize,
        slot: usize,
    ) {
        if !self.probe.is_enabled() {
            return;
        }
        let dur_ps = crate::engine::secs_to_ps(self.airtime_s);
        self.probe.trace(|| TraceRecord::Slot {
            time_ps: now_ps,
            frame,
            slot,
            group: group.to_vec(),
            collided,
            dur_ps,
        });
        for &node in group {
            let cumulative_j = self.rows[node].energy_j;
            self.probe.trace(|| TraceRecord::Energy {
                time_ps: now_ps,
                node,
                cumulative_j,
            });
        }
        self.probe.inc("slots_fired", 1);
        self.probe.inc("attempts", group.len() as u64);
        self.probe
            .observe("slot_occupancy", OCCUPANCY_BUCKETS, group.len() as f64);
        // Every attempt drains the same uplink airtime energy, collided or
        // not — the histogram records the drain per transmitter.
        let energy_per_attempt = self.power.energy_j(NodeActivity::Uplink, self.airtime_s);
        for _ in group {
            self.probe
                .observe("energy_per_attempt_j", ENERGY_BUCKETS_J, energy_per_attempt);
        }
        if collided {
            self.probe.inc("slot_collisions", 1);
            self.probe.inc("collided_packets", group.len() as u64);
        }
    }
}

/// A frame's transmission schedule: `(slot, transmitters)` pairs in
/// strictly increasing slot order, transmitters in strictly ascending
/// node order. A group may be empty (an unoccupied slot, which the
/// coordinator skips); [`MacPolicy::schedule_frame`] strips them.
pub type FrameSchedule = Vec<(usize, Vec<usize>)>;

/// One granted relay chain for a frame: the route fires inside `slot`,
/// *before* that slot's direct traffic resolves, under any AP pipeline.
/// The chain is queued at the frame boundary, ahead of the Transmit
/// completion at which the slot's direct traffic resolves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayGrant {
    /// Slot within the frame the chain occupies.
    pub slot: usize,
    /// Node indices origin-first, terminal-last (the terminal uplinks to
    /// the AP). At least two nodes — a single-node "route" is a direct
    /// uplink and belongs in the frame schedule instead.
    pub route: Vec<usize>,
}

/// Campaign-wide facts a [`MacPolicy`] consults while scheduling: the
/// network (node geometry and SDM separability), the airtime plan, the
/// campaign length, and the AP's separability threshold.
#[derive(Clone, Copy)]
pub struct MacContext<'a> {
    /// The network being scheduled.
    pub net: &'a Network,
    /// The airtime plan (slots per frame, slot width).
    pub plan: SlotPlan,
    /// Campaign length, frames.
    pub frames: usize,
    /// SDM separability threshold, dB.
    pub sdm_threshold_db: f64,
}

impl<'a> MacContext<'a> {
    /// The context of `spec` run over `net`.
    fn new(net: &'a Network, spec: &CampaignSpec<'_>) -> Self {
        Self {
            net,
            plan: spec.plan,
            frames: spec.frames,
            sdm_threshold_db: spec.sdm_threshold_db,
        }
    }
}

/// An AP-side medium-access policy for slotted campaigns on the
/// discrete-event engine.
///
/// A policy only decides *who transmits when*: at each frame boundary the
/// coordinator asks it for the frame's slot → transmitters schedule, fires
/// the occupied slots on the engine clock, and feeds the collision/served
/// outcome of every slot back. Channel physics, SDM arbitration, and the
/// per-node ledgers are policy-independent
/// ([`Network::run`] shares one serve path across all policies), so
/// reports compare apples-to-apples.
///
/// Implementations in this module: [`SlottedAloha`] (the paper's
/// baseline), [`BackoffAloha`]
/// (capped exponential backoff after collisions), [`RoundRobinPolling`]
/// (AP-granted reservations, zero collisions), and [`SdmAwareAssignment`]
/// (co-slots only concurrently servable nodes).
pub trait MacPolicy {
    /// Policy name — the label comparison sweeps and CSV rows carry.
    fn name(&self) -> &'static str;

    /// One-time setup before frame 0. The trial RNG stream is available so
    /// a policy can seed deterministic internal state (e.g. per-node
    /// backoff generators); policies that do not draw leave the stream
    /// exactly where a plain campaign expects it.
    fn begin(&mut self, _ctx: &MacContext<'_>, _rng: &mut GaussianSource) {}

    /// Writes the transmission schedule for `frame` into `out`.
    ///
    /// `out` arrives holding an earlier frame's schedule, or nothing; its
    /// contents mean nothing, but its group buffers are meant to be
    /// refilled (cleared, then pushed to) so a campaign's frames stop
    /// allocating once the buffers reach their high-water mark. On return
    /// `out` holds exactly this frame's [`FrameSchedule`]: it may keep
    /// empty groups for unoccupied slots, and the coordinator hands each
    /// served group's buffer back to its entry after the slot resolves.
    fn schedule_frame_into(&mut self, frame: usize, ctx: &MacContext<'_>, out: &mut FrameSchedule);

    /// The transmission schedule for `frame` in a fresh `Vec`, empty
    /// groups stripped: [`schedule_frame_into`](Self::schedule_frame_into)
    /// on an owned schedule.
    fn schedule_frame(&mut self, frame: usize, ctx: &MacContext<'_>) -> FrameSchedule {
        let mut out = FrameSchedule::new();
        self.schedule_frame_into(frame, ctx, &mut out);
        out.retain(|(_, group)| !group.is_empty());
        out
    }

    /// Feedback after a slot resolves: `collided` is true when the group
    /// was lost to an unseparable collision.
    fn on_slot_outcome(&mut self, _frame: usize, _slot: usize, _group: &[usize], _collided: bool) {}

    /// Telemetry hook, called once per frame right after
    /// [`schedule_frame_into`](Self::schedule_frame_into): the policy may describe
    /// its current decision state (backoff windows, group rotations) into
    /// the probe. Takes `&self`, so recording **cannot** mutate policy
    /// state — the non-perturbation contract holds by construction. The
    /// default records nothing.
    fn record_frame(
        &self,
        _frame: usize,
        _now_ps: TimePs,
        _ctx: &MacContext<'_>,
        _probe: &mut CampaignProbe,
    ) {
    }

    /// The relay chains to grant on `frame`. Each chain resolves at its
    /// slot's instant *before* that slot's direct traffic, under any AP
    /// pipeline (see [`RelayGrant`]). The default grants none, so a policy
    /// that keeps it (every policy here but
    /// [`RelayAwareMac`](crate::relay::RelayAwareMac)) stays direct-only
    /// and the coordinator posts no relay events, which is what keeps
    /// relay-disabled runs bit-exact.
    fn relay_frame(&mut self, _frame: usize, _ctx: &MacContext<'_>) -> Vec<RelayGrant> {
        Vec::new()
    }
}

/// One SplitMix64 step: advances `state` and returns the mixed output.
/// The per-node backoff generators and [`SlotPlan::slot_for`] share the
/// same hash family but never the same stream.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shapes `out` as one entry per slot of a `slots`-slot frame, each
/// `(slot, empty group)`, keeping every group buffer: the blank frame a
/// slot-indexed policy fills.
fn clear_slots(out: &mut FrameSchedule, slots: usize) {
    out.truncate(slots);
    for (slot, (at, group)) in out.iter_mut().enumerate() {
        *at = slot;
        group.clear();
    }
    let filled = out.len();
    out.extend((filled..slots).map(|slot| (slot, Vec::new())));
}

/// Hashes every node passing `contends` into its
/// [`SlotPlan::slot_for`] slot of `out` — one hash per node per frame (a
/// per-slot re-hash of every node would cost O(nodes × slots) per frame
/// with up to [`MAX_SLOTS_PER_FRAME`](crate::protocol::MAX_SLOTS_PER_FRAME)
/// slots). Unoccupied slots keep empty groups.
///
/// `contends` runs exactly once per node, in node order (a policy may
/// count deferrals in it), so every group is ascending.
pub(crate) fn hash_into_slots(
    ctx: &MacContext<'_>,
    frame: usize,
    seed: u64,
    mut contends: impl FnMut(usize) -> bool,
    out: &mut FrameSchedule,
) {
    clear_slots(out, ctx.plan.slots_per_frame);
    for node in 0..ctx.net.node_count() {
        if contends(node) {
            // A 0-slot plan has no entry to land in: it schedules nobody.
            if let Some((_, group)) = out.get_mut(ctx.plan.slot_for(node, frame, seed)) {
                group.push(node);
            }
        }
    }
}

/// Classic slotted ALOHA behind the [`MacPolicy`] trait: every node
/// contends in its hashed slot every frame, collisions retry implicitly by
/// re-hashing next frame. `tests/campaign_digest.rs` pins its reports and
/// `tests/aloha_oracle.rs` checks its delivery against the closed form.
#[derive(Debug, Clone, Copy)]
pub struct SlottedAloha {
    slot_seed: u64,
}

impl SlottedAloha {
    /// Creates the policy over a slot-hash seed.
    pub fn new(slot_seed: u64) -> Self {
        Self { slot_seed }
    }
}

impl MacPolicy for SlottedAloha {
    fn name(&self) -> &'static str {
        "aloha"
    }

    fn schedule_frame_into(&mut self, frame: usize, ctx: &MacContext<'_>, out: &mut FrameSchedule) {
        hash_into_slots(ctx, frame, self.slot_seed, |_| true, out);
    }
}

/// Per-node backoff state of [`BackoffAloha`].
#[derive(Debug, Clone, Copy)]
struct BackoffState {
    /// Consecutive collisions, capped at the policy's maximum exponent.
    exponent: u32,
    /// Frames left to sit out before contending again.
    defer_frames: u64,
    /// The node's private SplitMix64 draw state.
    rng: u64,
}

/// Slotted ALOHA with capped exponential backoff: after a collision a node
/// sits out a uniformly drawn number of frames in `[0, 2^e)`, where `e`
/// counts its consecutive collisions capped at `max_exponent`; a served
/// slot resets it. Backoff draws come from per-node SplitMix64 generators
/// seeded once from the trial RNG stream in [`MacPolicy::begin`], so the
/// whole campaign stays a pure function of the root seed.
#[derive(Debug, Clone)]
pub struct BackoffAloha {
    slot_seed: u64,
    max_exponent: u32,
    nodes: Vec<BackoffState>,
}

impl BackoffAloha {
    /// Creates the policy; `max_exponent` caps the contention window at
    /// `2^max_exponent` frames.
    ///
    /// # Errors
    /// [`MilbackError::Config`] when `max_exponent ≥ 63`: the window must
    /// fit a `u64`.
    pub fn new(slot_seed: u64, max_exponent: u32) -> Result<Self> {
        if max_exponent >= 63 {
            return Err(MilbackError::Config(format!(
                "backoff max_exponent {max_exponent} must be below 63 so the window fits a u64"
            )));
        }
        Ok(Self {
            slot_seed,
            max_exponent,
            nodes: Vec::new(),
        })
    }
}

impl MacPolicy for BackoffAloha {
    fn name(&self) -> &'static str {
        "backoff"
    }

    fn begin(&mut self, ctx: &MacContext<'_>, rng: &mut GaussianSource) {
        let base = u64::from_le_bytes(rng.bytes(8).try_into().expect("eight bytes"));
        self.nodes = (0..ctx.net.node_count())
            .map(|idx| BackoffState {
                exponent: 0,
                defer_frames: 0,
                rng: base ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            })
            .collect();
    }

    fn schedule_frame_into(&mut self, frame: usize, ctx: &MacContext<'_>, out: &mut FrameSchedule) {
        let nodes = &mut self.nodes;
        let contends = |idx: usize| {
            let st = &mut nodes[idx];
            if st.defer_frames > 0 {
                st.defer_frames -= 1;
                false
            } else {
                true
            }
        };
        hash_into_slots(ctx, frame, self.slot_seed, contends, out);
    }

    fn on_slot_outcome(&mut self, _frame: usize, _slot: usize, group: &[usize], collided: bool) {
        for &node in group {
            let st = &mut self.nodes[node];
            if collided {
                st.exponent = (st.exponent + 1).min(self.max_exponent);
                let window = 1u64 << st.exponent;
                st.defer_frames = splitmix64(&mut st.rng) % window;
            } else {
                st.exponent = 0;
                st.defer_frames = 0;
            }
        }
    }

    fn record_frame(
        &self,
        _frame: usize,
        now_ps: TimePs,
        _ctx: &MacContext<'_>,
        probe: &mut CampaignProbe,
    ) {
        // Contention windows as of this frame boundary: a node with a
        // non-zero exponent is inside a `2^e`-frame window; one still
        // deferring sat this frame out.
        for (node, st) in self.nodes.iter().enumerate() {
            if st.exponent == 0 {
                continue;
            }
            let window_frames = 1u64 << st.exponent;
            probe.observe(
                "backoff_window_frames",
                BACKOFF_BUCKETS_FRAMES,
                window_frames as f64,
            );
            if st.defer_frames > 0 {
                probe.inc("backoff_deferrals", 1);
                probe.trace(|| TraceRecord::Backoff {
                    time_ps: now_ps,
                    node,
                    window_frames,
                });
            }
        }
    }
}

/// AP-driven reservation/polling: the AP grants slots round-robin over the
/// registered nodes, one node per slot — zero collisions by construction,
/// at the cost of per-node service latency that grows with the cell (a
/// node holds the channel only every ⌈nodes/slots⌉ frames once the cell
/// outgrows a frame).
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinPolling {
    cursor: usize,
}

impl RoundRobinPolling {
    /// Creates the policy; polling starts at node 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MacPolicy for RoundRobinPolling {
    fn name(&self) -> &'static str {
        "polling"
    }

    fn schedule_frame_into(
        &mut self,
        _frame: usize,
        ctx: &MacContext<'_>,
        out: &mut FrameSchedule,
    ) {
        let n = ctx.net.node_count();
        clear_slots(out, ctx.plan.slots_per_frame);
        for (_, group) in out.iter_mut() {
            group.push(self.cursor);
            self.cursor = (self.cursor + 1) % n;
        }
    }
}

/// SDM-aware slot assignment: the AP partitions the nodes into mutually
/// separable groups (greedy first-fit over [`Network::sdm_separable`]) and
/// grants groups to slots round-robin across the campaign. Every
/// co-slotted pair passes the separability check, so every slot is
/// concurrently servable and the campaign is collision-free by
/// construction; when the geometry needs more groups than a frame has
/// slots the cost shows up as latency (each group waits its turn), never
/// as collisions. The scene is static over a campaign, so the partition is
/// computed once in [`MacPolicy::begin`] and rotated every frame.
#[derive(Debug, Clone, Default)]
pub struct SdmAwareAssignment {
    groups: Vec<Vec<usize>>,
}

impl SdmAwareAssignment {
    /// Creates the policy; the group partition is derived from the scene
    /// when the campaign begins.
    pub fn new() -> Self {
        Self::default()
    }

    /// The mutually separable groups the scene partitioned into (empty
    /// before [`MacPolicy::begin`]).
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }
}

impl MacPolicy for SdmAwareAssignment {
    fn name(&self) -> &'static str {
        "sdm"
    }

    fn begin(&mut self, ctx: &MacContext<'_>, _rng: &mut GaussianSource) {
        // Each node's azimuth read once: the pair checks below are
        // `Network::sdm_separable` on the same values.
        let azimuth: Vec<f64> = (0..ctx.net.node_count())
            .map(|idx| ctx.net.azimuth(idx))
            .collect();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (node, &az) in azimuth.iter().enumerate() {
            let fit = groups.iter_mut().find(|g| {
                g.iter()
                    .all(|&m| sdm_margin(az, azimuth[m]) >= ctx.sdm_threshold_db)
            });
            match fit {
                Some(g) => g.push(node),
                None => groups.push(vec![node]),
            }
        }
        self.groups = groups;
    }

    fn schedule_frame_into(&mut self, frame: usize, ctx: &MacContext<'_>, out: &mut FrameSchedule) {
        let slots = ctx.plan.slots_per_frame;
        clear_slots(out, slots);
        if self.groups.is_empty() {
            return;
        }
        for (slot, group) in out.iter_mut() {
            let g = (frame * slots + *slot) % self.groups.len();
            group.extend_from_slice(&self.groups[g]);
        }
    }

    fn record_frame(
        &self,
        frame: usize,
        now_ps: TimePs,
        ctx: &MacContext<'_>,
        probe: &mut CampaignProbe,
    ) {
        if self.groups.is_empty() {
            return;
        }
        // The rotation this frame grants: same arithmetic as
        // `schedule_frame_into`, re-derived read-only.
        let slots = ctx.plan.slots_per_frame;
        for slot in 0..slots {
            let group_idx = (frame * slots + slot) % self.groups.len();
            probe.inc("sdm_rotations", 1);
            probe.trace(|| TraceRecord::SdmRotation {
                time_ps: now_ps,
                frame,
                group_idx,
                group_size: self.groups[group_idx].len(),
            });
        }
    }
}

/// One granted slot flowing through the AP service pipeline: the slot's
/// identity, its transmitter group (moved out of the frame schedule at
/// grant time, so the job survives frame rollover while queued), and
/// whether an overflowing queue degraded its plan.
#[derive(Debug, Clone)]
struct SlotJob {
    frame: usize,
    slot: usize,
    group: Vec<usize>,
    degraded: bool,
    /// Time the grant entered the pipeline (its slot instant), so
    /// Transmit completion can ledger the job's service residence without
    /// re-deriving the grant schedule.
    offered_ps: TimePs,
}

impl SlotJob {
    /// Records the job's `stage` service span, tagged with its packet flow
    /// id so the exported trace links Capture → Plan → Transmit → outcome
    /// as one Perfetto flow.
    fn trace_service(
        &self,
        stage: StageKind,
        now_ps: TimePs,
        dur_ps: TimePs,
        m: &mut SlotMedium<'_>,
    ) {
        m.probe.trace(|| TraceRecord::Stage {
            time_ps: now_ps,
            stage: stage.label(),
            flow: PacketId::direct(self.frame, self.slot).raw(),
            dur_ps,
        });
    }
}

/// One serial AP service stage: at most one job in service (its
/// completion event is in flight) plus a FIFO of waiters.
#[derive(Debug, Default)]
struct StageState {
    current: Option<SlotJob>,
    queue: VecDeque<SlotJob>,
}

impl StageState {
    /// Jobs held by the stage: the one in service plus the waiters.
    fn occupancy(&self) -> usize {
        self.queue.len() + usize::from(self.current.is_some())
    }
}

/// The MAC coordinator of every slotted campaign: drives any
/// [`MacPolicy`] over the frame/slot event timeline — a
/// [`SlotEvent::FrameStart`] per frame, a [`SlotEvent::SlotFire`] per
/// occupied slot — asking the policy for each frame's schedule once at the
/// frame boundary. A schedule that breaks the [`FrameSchedule`] contract
/// fails the run with a typed [`MilbackError`]. [`Network::run`] drives it
/// in one `while let` loop over an [`EventQueue`]; its handler posts
/// follow-ups straight into that queue.
///
/// A granted slot is not served inside its [`SlotEvent::SlotFire`]
/// dispatch: the grant becomes a [`SlotJob`] that walks the
/// **Capture → Plan → Transmit** service stages, each a serial server with
/// its own latency ([`ApServiceConfig`]) and bounded FIFO. The
/// transmission physics run at Transmit completion.
///
/// Under an [`is_instantaneous`](ApServiceConfig::is_instantaneous)
/// pipeline a frame with no relay grants posts no grant events: its
/// `FrameStart` serves the occupied slots in schedule order, each at its
/// slot instant, with the event path's per-grant accounting in the event
/// path's order (the helpers both paths call). That is exact because
/// nothing else is queued until the next `FrameStart`, which the
/// coordinator checks. A relay frame keeps the events even then, because
/// its chains resolve ahead of same-instant direct traffic (see
/// [`SlotEvent::RelayFire`]).
struct PolicyCoordinator<'a> {
    /// The campaign: its plan, length, SDM threshold, AP service pipeline
    /// and relay configuration.
    spec: CampaignSpec<'a>,
    policy: Box<dyn MacPolicy>,
    /// The current frame's schedule, held in the worker's
    /// [`CampaignScratch`]. Safe to hold per frame: every slot of frame
    /// `f` fires strictly before `FrameStart { f + 1 }` (the last slot
    /// starts one slot-width before the frame boundary). A slot's group
    /// moves into its [`SlotJob`] when the slot fires (each slot fires
    /// once), so a grant copies nothing and a backlogged pipeline is
    /// unaffected by rollover; the buffer comes back once the slot
    /// resolves ([`recycle_group`](Self::recycle_group)).
    schedule: &'a mut FrameSchedule,
    /// The current frame's granted relay chains, indexed by the
    /// [`SlotEvent::RelayFire`] events posted at the frame boundary.
    relay_schedule: Vec<RelayGrant>,
    /// Stage states, indexed by [`StageKind`] discriminant.
    stages: [StageState; 3],
    /// SplitMix64 jitter state, seeded once from the trial stream —
    /// `None` when `jitter_ps == 0` (nothing was drawn).
    jitter_state: Option<u64>,
    /// Per-node "in this frame's schedule" flags, reused every frame.
    scheduled: &'a mut Vec<bool>,
}

impl PolicyCoordinator<'_> {
    /// Offers a job to `stage`: starts it if the stage is idle, otherwise
    /// queues it subject to the configured bound and overflow policy.
    fn offer_stage(
        &mut self,
        stage: StageKind,
        mut job: SlotJob,
        now_ps: TimePs,
        m: &mut SlotMedium<'_>,
        queue: &mut EventQueue,
    ) -> Result<()> {
        let idx = stage as usize;
        self.observe_offer(stage, m);
        if self.stages[idx].current.is_none() {
            return self.start_stage(stage, job, now_ps, m, queue);
        }
        if let Some(cap) = self.spec.service.queue_capacity {
            if self.stages[idx].queue.len() >= cap {
                match self.spec.service.overflow {
                    OverflowPolicy::Drop => {
                        m.service.dropped += 1;
                        m.probe.inc("ap_dropped", 1);
                        // The whole group dies with the shed grant; the
                        // ledger records which stage's queue was full.
                        let shed = DropReason::ServiceShed {
                            stage,
                            policy: OverflowPolicy::Drop,
                        };
                        for &node in &job.group {
                            m.resolve(node, Outcome::Dropped(shed));
                        }
                        m.probe.trace(|| TraceRecord::FlowEnd {
                            time_ps: now_ps,
                            flow: PacketId::direct(job.frame, job.slot).raw(),
                            outcome: "shed",
                        });
                        return Ok(());
                    }
                    OverflowPolicy::Defer => {
                        m.service.deferred += 1;
                        m.probe.inc("ap_deferred", 1);
                    }
                    OverflowPolicy::Degrade => {
                        if !job.degraded {
                            job.degraded = true;
                            m.service.degraded += 1;
                            m.probe.inc("ap_degraded", 1);
                        }
                    }
                }
            }
        }
        self.stages[idx].queue.push_back(job);
        Ok(())
    }

    /// Puts a job in service at an idle `stage` and posts its completion:
    /// base stage latency (a degraded job's Plan costs nothing) plus a
    /// uniform SplitMix64 jitter draw when jitter is configured. A
    /// completion past the picosecond clock is a configuration error.
    fn start_stage(
        &mut self,
        stage: StageKind,
        job: SlotJob,
        now_ps: TimePs,
        m: &mut SlotMedium<'_>,
        queue: &mut EventQueue,
    ) -> Result<()> {
        let base_ps = if job.degraded && stage == StageKind::Plan {
            0
        } else {
            self.spec.service.stage_latency_ps(stage)
        };
        let jitter_ps = match &mut self.jitter_state {
            Some(state) => splitmix64(state) % (self.spec.service.jitter_ps + 1),
            None => 0,
        };
        let overflow = || {
            MilbackError::Config(format!(
                "{} service of {base_ps} + {jitter_ps} ps from {now_ps} ps overflows the \
                 picosecond clock",
                stage.label()
            ))
        };
        let dur_ps = base_ps.checked_add(jitter_ps).ok_or_else(overflow)?;
        let done_ps = now_ps.checked_add(dur_ps).ok_or_else(overflow)?;
        // The duration is the already-drawn completion offset — copying
        // it records nothing the queue won't replay.
        job.trace_service(stage, now_ps, dur_ps, m);
        self.stages[stage as usize].current = Some(job);
        queue.post(done_ps, SlotEvent::StageDone { stage });
        Ok(())
    }

    /// Observes `stage`'s occupancy as a job is offered to it, so the
    /// histograms see the arrival-time depths that admission decisions
    /// are made against.
    fn observe_offer(&self, stage: StageKind, m: &mut SlotMedium<'_>) {
        m.probe.observe(
            stage.occupancy_metric(),
            OCCUPANCY_BUCKETS,
            self.stages[stage as usize].occupancy() as f64,
        );
    }

    /// Grants the current frame's schedule entry `idx` at `now_ps`: moves
    /// its group into a [`SlotJob`] and ledgers the offer and the group's
    /// slot wait. The first step of a grant on both serving paths.
    fn offer_grant(
        &mut self,
        frame: usize,
        idx: usize,
        now_ps: TimePs,
        m: &mut SlotMedium<'_>,
    ) -> SlotJob {
        let (slot, ref mut group) = self.schedule[idx];
        let job = SlotJob {
            frame,
            slot,
            group: std::mem::take(group),
            degraded: false,
            offered_ps: now_ps,
        };
        m.service.offered += 1;
        m.probe.inc("ap_offered", 1);
        // Every member of the group waited from the frame boundary to
        // this slot's airtime.
        m.lifecycle.observe_slot_wait_us(
            (slot as u64 * self.spec.plan.slot_ps) as f64 / 1e6,
            job.group.len(),
        );
        job
    }

    /// Transmit completion: the job reaches the channel, so its pipeline
    /// residence ends here; the slot fires and the policy learns its
    /// outcome. The last step of a grant on both serving paths.
    fn complete_grant(
        &mut self,
        job: SlotJob,
        now_ps: TimePs,
        m: &mut SlotMedium<'_>,
    ) -> Result<()> {
        m.lifecycle
            .observe_service_residence_us((now_ps - job.offered_ps) as f64 / 1e6, job.group.len());
        let collided = m.fire_slot(
            &job.group,
            self.spec.sdm_threshold_db,
            now_ps,
            job.frame,
            job.slot,
            job.degraded,
        )?;
        m.service.served += 1;
        m.probe.inc("ap_served", 1);
        self.policy
            .on_slot_outcome(job.frame, job.slot, &job.group, collided);
        self.recycle_group(job.slot, job.group);
        Ok(())
    }

    /// Hands a resolved grant's group buffer back, cleared, to its slot's
    /// schedule entry, so the policy refills it next frame instead of
    /// allocating. An entry that meanwhile holds a later frame's
    /// transmitters keeps them.
    fn recycle_group(&mut self, slot: usize, mut group: Vec<usize>) {
        if let Ok(idx) = self.schedule.binary_search_by_key(&slot, |e| e.0) {
            let entry = &mut self.schedule[idx].1;
            if entry.is_empty() {
                group.clear();
                *entry = group;
            }
        }
    }

    /// Serves the current frame's grants in schedule order, each at its
    /// slot instant, without posting an event — the one-pass path of an
    /// instantaneous pipeline on a relay-free frame. Each grant takes the
    /// event path's accounting in the event path's order: the offer, then
    /// Capture, Plan and Transmit each observed at occupancy 0 and traced
    /// with a zero-length span, then completion with zero residence.
    ///
    /// Exact only because nothing can come between the frame's grants:
    /// the queue must be empty here (the caller already popped this
    /// frame's `FrameStart`). Stage waiters only sit behind a job whose
    /// completion is queued, so an empty queue also means an idle
    /// pipeline.
    fn serve_frame_in_one_pass(
        &mut self,
        frame: usize,
        now_ps: TimePs,
        m: &mut SlotMedium<'_>,
        queue: &EventQueue,
    ) -> Result<()> {
        if !queue.is_empty() {
            return Err(MilbackError::Engine(format!(
                "frame {frame} would be served in one pass with events still queued"
            )));
        }
        for idx in 0..self.schedule.len() {
            if self.schedule[idx].1.is_empty() {
                continue;
            }
            let slot_ps = now_ps + self.schedule[idx].0 as TimePs * self.spec.plan.slot_ps;
            let job = self.offer_grant(frame, idx, slot_ps, m);
            let mut stage = Some(StageKind::Capture);
            while let Some(s) = stage {
                self.observe_offer(s, m);
                job.trace_service(s, slot_ps, 0, m);
                stage = s.next();
            }
            self.complete_grant(job, slot_ps, m)?;
        }
        Ok(())
    }
}

/// Rejects a frame's schedules that break the [`FrameSchedule`] and
/// [`RelayGrant`] contracts — slots out of order or beyond the plan, a
/// group that is not strictly ascending (a transmitter listed twice would
/// be arbitrated against itself), or a transmitter or relay origin
/// outside the scene — before any of it is
/// posted, so a misbehaving [`MacPolicy`] fails the run in every build
/// instead of firing airtime that overlaps the next frame.
fn check_frame_schedule(
    policy: &str,
    frame: usize,
    plan: &SlotPlan,
    nodes: usize,
    schedule: &FrameSchedule,
    relays: &[RelayGrant],
) -> Result<()> {
    let bad = |what: String| {
        Err(MilbackError::Engine(format!(
            "policy {policy:?} on frame {frame}: {what}"
        )))
    };
    if let Some(w) = schedule.windows(2).find(|w| w[0].0 >= w[1].0) {
        return bad(format!(
            "slot {} follows slot {}; schedule slots must strictly increase",
            w[1].0, w[0].0
        ));
    }
    let mut slots = schedule
        .iter()
        .map(|e| e.0)
        .chain(relays.iter().map(|g| g.slot));
    if let Some(slot) = slots.find(|&s| s >= plan.slots_per_frame) {
        return bad(format!(
            "slot {slot} is beyond the plan's {} slots",
            plan.slots_per_frame
        ));
    }
    if let Some((slot, group)) = schedule
        .iter()
        .find(|(_, g)| g.windows(2).any(|w| w[0] >= w[1]))
    {
        return bad(format!(
            "slot {slot} lists transmitters {group:?}; a group must be strictly ascending"
        ));
    }
    let origins = relays.iter().filter_map(|g| g.route.first());
    if let Some(&idx) = schedule
        .iter()
        .flat_map(|e| &e.1)
        .chain(origins)
        .find(|&&k| k >= nodes)
    {
        return Err(MilbackError::NodeOutOfScene { idx, nodes });
    }
    Ok(())
}

impl PolicyCoordinator<'_> {
    /// Handles one popped event, posting its follow-ups into `queue`.
    fn handle(
        &mut self,
        now_ps: TimePs,
        event: SlotEvent,
        m: &mut SlotMedium<'_>,
        queue: &mut EventQueue,
    ) -> Result<()> {
        match event {
            SlotEvent::FrameStart { frame } => {
                let ctx = MacContext::new(m.net, &self.spec);
                self.policy.schedule_frame_into(frame, &ctx, self.schedule);
                m.probe.inc("frames", 1);
                self.policy.record_frame(frame, now_ps, &ctx, &mut m.probe);
                self.relay_schedule = self.policy.relay_frame(frame, &ctx);
                check_frame_schedule(
                    self.policy.name(),
                    frame,
                    &self.spec.plan,
                    m.net.node_count(),
                    self.schedule,
                    &self.relay_schedule,
                )?;
                // An instantaneous pipeline cannot delay a grant, and a
                // relay-free frame has nothing else at its slot instants,
                // so the frame is served in one pass once its offers are
                // ledgered below. Any other frame posts its grants.
                let one_pass =
                    self.spec.service.is_instantaneous() && self.relay_schedule.is_empty();
                if !one_pass {
                    for &(slot, ref group) in self.schedule.iter() {
                        if group.is_empty() {
                            continue;
                        }
                        queue.post(
                            now_ps + slot as TimePs * self.spec.plan.slot_ps,
                            SlotEvent::SlotFire { frame, slot },
                        );
                    }
                    // Relay grants post after the direct slots, so the
                    // queue's (time, seq) order resolves a chain sharing
                    // a slot instant with direct traffic at a fixed,
                    // posting-determined position — the RNG draw order is
                    // a pure function of the schedule at any thread
                    // count. That position is *before* the slot's direct
                    // traffic: the `SlotFire` pops first, but its stage
                    // hops are posted later than the `RelayFire`, so the
                    // chain resolves ahead of them even when the pipeline
                    // is instantaneous.
                    for (grant, g) in self.relay_schedule.iter().enumerate() {
                        queue.post(
                            now_ps + g.slot as TimePs * self.spec.plan.slot_ps,
                            SlotEvent::RelayFire { frame, grant },
                        );
                    }
                }
                // Lifecycle offers: one packet per scheduled transmitter
                // appearance, one per granted relay chain, and one per
                // node this frame left entirely unscheduled (backoff
                // deferral, polling rotation, waiting SDM group) — the
                // last resolve immediately as `NeverScheduled`, so every
                // offered packet reaches exactly one terminal outcome.
                // Integer bookkeeping over the already-built schedules:
                // no RNG, no clock.
                let scheduled = &mut *self.scheduled;
                scheduled.clear();
                scheduled.resize(m.net.node_count(), false);
                let mut offered = self.relay_schedule.len() as u64;
                for (_, group) in self.schedule.iter() {
                    offered += group.len() as u64;
                    for &node in group {
                        scheduled[node] = true;
                    }
                }
                for g in &self.relay_schedule {
                    if let Some(&origin) = g.route.first() {
                        scheduled[origin] = true;
                    }
                }
                for (node, _) in scheduled.iter().enumerate().filter(|(_, &s)| !s) {
                    offered += 1;
                    m.resolve(node, Outcome::Dropped(DropReason::NeverScheduled));
                }
                m.lifecycle.offer(offered);
                if one_pass {
                    self.serve_frame_in_one_pass(frame, now_ps, m, queue)?;
                }
                if frame + 1 < self.spec.frames {
                    queue.post(
                        now_ps + self.spec.plan.frame_ps(),
                        SlotEvent::FrameStart { frame: frame + 1 },
                    );
                }
            }
            SlotEvent::SlotFire { frame, slot } => {
                let idx = self
                    .schedule
                    .binary_search_by_key(&slot, |e| e.0)
                    .map_err(|_| {
                        MilbackError::Engine(format!(
                            "slot {slot} of frame {frame} fired without a schedule entry"
                        ))
                    })?;
                let job = self.offer_grant(frame, idx, now_ps, m);
                self.offer_stage(StageKind::Capture, job, now_ps, m, queue)?;
            }
            SlotEvent::StageDone { stage } => {
                let job = self.stages[stage as usize].current.take().ok_or_else(|| {
                    MilbackError::Engine(format!(
                        "{} completed with no job in service",
                        stage.label()
                    ))
                })?;
                // The finished job cascades downstream before this stage
                // admits its next waiter, so same-instant chains complete
                // in pipeline order.
                match stage.next() {
                    Some(next) => self.offer_stage(next, job, now_ps, m, queue)?,
                    None => self.complete_grant(job, now_ps, m)?,
                }
                if let Some(next_job) = self.stages[stage as usize].queue.pop_front() {
                    self.start_stage(stage, next_job, now_ps, m, queue)?;
                }
            }
            SlotEvent::RelayFire { frame, grant } => {
                // Relay chains are tag-side transmissions: they never enter
                // the AP's Capture/Plan/Transmit pipeline, so the service
                // ledger stays exactly what the direct traffic produced.
                let g = self.relay_schedule.get(grant).ok_or_else(|| {
                    MilbackError::Engine(format!(
                        "relay grant {grant} of frame {frame} fired without a schedule entry"
                    ))
                })?;
                m.fire_relay(
                    &g.route,
                    self.spec.relay.hop_snr_penalty_db,
                    ps_to_secs(self.spec.plan.slot_ps),
                    now_ps,
                    frame,
                    g.slot,
                )?;
            }
        }
        Ok(())
    }
}

/// A per-node Doppler signature for simultaneous multi-node localization:
/// node `k` toggles with period `2·(k+1)` chirps, landing its echo at
/// Doppler row `N / (2·(k+1))` of an N-chirp range–Doppler map, so the
/// nodes separate in one capture, Millimetro-style, without beam
/// scheduling. An `n`-node capture resolves every signature exactly only
/// when `N` is a multiple of lcm(2, 4, …, 2n): 24 chirps for 4 nodes,
/// 5 040 for 9, 1 441 440 for 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DopplerSignature {
    /// Toggle period in chirps (even, ≥ 2).
    pub period_chirps: usize,
}

impl DopplerSignature {
    /// The signature assigned to node index `idx`.
    pub fn for_node(idx: usize) -> Self {
        Self {
            period_chirps: 2 * (idx + 1),
        }
    }

    /// The node's state (reflective?) on chirp `k`.
    pub(crate) fn reflective_on(&self, chirp: usize) -> bool {
        (chirp / (self.period_chirps / 2)).is_multiple_of(2)
    }

    /// The Doppler row this signature concentrates in, for an `n_chirps`
    /// capture. Requires `n_chirps % period == 0` for an exact bin.
    pub fn doppler_row(&self, n_chirps: usize) -> usize {
        n_chirps / self.period_chirps
    }

    /// Whether an `n_chirps` capture resolves this signature exactly.
    pub(crate) fn resolved_by(&self, n_chirps: usize) -> bool {
        n_chirps.is_multiple_of(self.period_chirps)
    }
}

/// Simultaneously localizes every node of a scene from ONE `n_chirps`
/// capture: each node toggles with its own [`DopplerSignature`], the AP
/// builds a range–Doppler map and reads each node's range at its assigned
/// Doppler row. Returns `(node_idx, range_m)` per node found.
///
/// `n_chirps` must be a multiple of every node's toggle period, i.e. of
/// lcm(2, 4, …, 2n) for `n` nodes (24 for 4 nodes, 5 040 for 9,
/// 1 441 440 for 16); any other count is a [`MilbackError::Config`].
///
/// This goes beyond the paper's one-node-at-a-time localization (§7 only
/// sketches SDM for *communication*); it composes the same primitives —
/// toggling modulation and chirp trains — into a single-shot multi-node
/// ranging mode. Static clutter is not synthesized here: it concentrates
/// in the zero-Doppler row and never reaches the signature rows this
/// reader consults (the single-node pipeline's tests cover clutter
/// rejection).
pub fn localize_all_doppler(
    network: &Network,
    n_chirps: usize,
    rng: &mut GaussianSource,
) -> Result<Vec<(usize, f64)>> {
    use milback_ap::doppler::DopplerProcessor;
    use milback_ap::fmcw::FmcwProcessor;
    use mmwave_rf::antenna::Antenna;
    use mmwave_rf::channel::{backscatter_amplitude_sqrt_w, BeatPhasors, Echo};
    use mmwave_sigproc::units::{dbm_to_watts, noise_power_watts};

    network.check_poses()?;
    let n_nodes = network.node_count();
    for idx in 0..n_nodes {
        let sig = DopplerSignature::for_node(idx);
        if !sig.resolved_by(n_chirps) {
            return Err(MilbackError::Config(format!(
                "{n_chirps} chirps cannot resolve node {idx}'s period-{} signature",
                sig.period_chirps
            )));
        }
    }
    let config = &network.config;
    let proc = FmcwProcessor::new(config.fmcw.field2_chirp(), config.ap.rx1.digitizer_rate_hz);
    let chirp = proc.chirp;
    let horn = mmwave_rf::antenna::Horn::miwave_20dbi();
    let tx_w = dbm_to_watts(config.ap.tx.port_power_dbm());
    let impl_amp = db_to_lin(-config.ap.rx1.chain.implementation_loss_db).sqrt();
    let gamma_r = config.node.reflection_amplitude(
        mmwave_rf::antenna::fsa::FsaPort::A,
        milback_node::mode::PortMode::Reflective,
    );
    let gamma_a = config.node.reflection_amplitude(
        mmwave_rf::antenna::fsa::FsaPort::A,
        milback_node::mode::PortMode::Absorptive,
    );
    let noise_w = noise_power_watts(
        proc.sample_rate_hz / 2.0,
        config.ap.rx1.chain.noise_figure_db(),
    );
    // For multi-node ranging the AP widens its beam (or sweeps); model a
    // broad illumination by evaluating the horn at each node's azimuth.
    // Node ranges hold still across the capture, so the carrier phasors
    // are tabulated on the first chirp and every chirp only sums.
    let threads = mmwave_sigproc::parallel::max_threads();
    let mut phasors: Option<BeatPhasors> = None;
    let beats: Vec<Vec<mmwave_sigproc::Complex>> = (0..n_chirps)
        .map(|k| {
            let echoes: Vec<Echo<'_>> = (0..n_nodes)
                .map(|idx| {
                    let gt = network.scene.ground_truth(idx);
                    let g = db_to_lin(horn.gain_dbi(chirp.center_hz(), gt.azimuth_rad));
                    let g_node = config.node.fsa.gain_linear(
                        mmwave_rf::antenna::fsa::FsaPort::A,
                        config
                            .node
                            .fsa
                            .design
                            .frequency_for_angle(
                                mmwave_rf::antenna::fsa::FsaPort::A,
                                gt.incidence_rad,
                            )
                            .unwrap_or(chirp.center_hz()),
                        gt.incidence_rad,
                    );
                    let sig = DopplerSignature::for_node(idx);
                    let gamma = if sig.reflective_on(k) {
                        gamma_r
                    } else {
                        gamma_a
                    };
                    let amp = backscatter_amplitude_sqrt_w(
                        tx_w,
                        g,
                        g,
                        g_node * g_node,
                        gamma,
                        chirp.center_hz(),
                        gt.range_m,
                    ) * impl_amp;
                    Echo::constant(gt.range_m, amp)
                })
                .collect();
            let mut b = phasors
                .get_or_insert_with(|| {
                    BeatPhasors::new(&chirp, &echoes, proc.sample_rate_hz, threads)
                })
                .sum(&echoes, threads);
            rng.add_complex_noise(&mut b, noise_w);
            b
        })
        .collect();
    let dp = DopplerProcessor::milback_default();
    let rd = dp
        .range_doppler(&proc, &beats)
        .map_err(MilbackError::Fmcw)?;
    let mut fixes = Vec::with_capacity(n_nodes);
    for idx in 0..n_nodes {
        let row = DopplerSignature::for_node(idx).doppler_row(n_chirps);
        if let Some((pos, _)) = rd.row_peak(row) {
            fixes.push((idx, proc.bin_to_range_m(pos)));
        }
    }
    Ok(fixes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relay::RelayAwareMac;
    use crate::scene::CoverageModel;

    /// A plain campaign: the parity spec (20 dB threshold, instantaneous
    /// AP, no relaying), no probe.
    fn run_mac(
        n: &Network,
        policy: Box<dyn MacPolicy>,
        frames: usize,
        payload: &[u8],
        plan: &SlotPlan,
        rng: &mut GaussianSource,
    ) -> Result<SlottedRunReport> {
        let spec = CampaignSpec::new(frames, payload, *plan);
        n.run(&spec, policy, rng, &mut CampaignProbe::disabled())
    }

    /// [`run_mac`] under slotted ALOHA over `slot_seed`.
    fn run_slotted(
        n: &Network,
        frames: usize,
        payload: &[u8],
        plan: &SlotPlan,
        slot_seed: u64,
        rng: &mut GaussianSource,
    ) -> Result<SlottedRunReport> {
        run_mac(
            n,
            Box::new(SlottedAloha::new(slot_seed)),
            frames,
            payload,
            plan,
            rng,
        )
    }

    fn two_node_network(sep_deg: f64) -> Network {
        let scene = Scene::single_node(4.0, 12f64.to_radians()).with_node_at(
            4.0,
            sep_deg.to_radians(),
            12f64.to_radians(),
        );
        Network::new(SystemConfig::milback_default(), scene).unwrap()
    }

    #[test]
    fn well_separated_nodes_are_sdm_separable() {
        let n = two_node_network(40.0);
        assert!(
            n.sdm_separable(0, 1, 20.0),
            "margin {:.1}",
            n.sdm_margin_db(0, 1)
        );
    }

    #[test]
    fn close_nodes_are_not_separable() {
        let n = two_node_network(5.0);
        assert!(!n.sdm_separable(0, 1, 20.0));
    }

    #[test]
    fn margin_grows_with_separation() {
        let near = two_node_network(8.0).sdm_margin_db(0, 1);
        let far = two_node_network(30.0).sdm_margin_db(0, 1);
        assert!(far > near);
    }

    #[test]
    fn interference_lowers_effective_snr_for_close_nodes() {
        // One frame of one slot: the two nodes share it, and at a 10 dB
        // threshold both separations are SDM-separable, so the AP serves
        // the pair concurrently. The closer pair leaks more beam energy
        // into each other, so the same noise draws (same seed) land a
        // lower effective SNR.
        let snr_at = |sep_deg: f64| {
            let n = two_node_network(sep_deg);
            assert!(n.sdm_separable(0, 1, 10.0), "{sep_deg}°");
            let payload = [0x42u8; 16];
            let spec = CampaignSpec::new(1, &payload, plan_for(&n, 1, &payload))
                .with_sdm_threshold_db(10.0);
            let mut rng = GaussianSource::new(6);
            let r: SlottedRunReport = n
                .run(
                    &spec,
                    Box::new(SlottedAloha::new(0)),
                    &mut rng,
                    &mut CampaignProbe::disabled(),
                )
                .unwrap();
            for node in &r.nodes {
                assert_eq!((node.attempts, node.delivered), (1, 1), "{sep_deg}°");
            }
            r.nodes[0].mean_snr_db.unwrap()
        };
        let (near, far) = (snr_at(20.0), snr_at(40.0));
        assert!(near < far, "near {near:.1} dB !< far {far:.1} dB");
    }

    #[test]
    fn slotted_run_delivers_separable_nodes() {
        use crate::protocol::SlotPlan;
        let n = two_node_network(40.0);
        let packet = Packet::uplink(vec![0x42; 16]);
        let plan = SlotPlan::for_packet(
            4,
            &packet,
            &n.config.fmcw,
            n.config.uplink_symbol_rate_hz,
            10e-6,
        )
        .unwrap();
        let mut rng = GaussianSource::new(0x510);
        let r = run_slotted(&n, 6, &[0x42; 16], &plan, 0xFEED, &mut rng).unwrap();
        assert_eq!(r.frames, 6);
        assert_eq!(r.nodes.len(), 2);
        for node in &r.nodes {
            assert_eq!(node.attempts, 6, "one attempt per frame");
            assert_eq!(node.attempts, node.delivered + node.collisions);
            assert!(node.delivered > 0, "node {} never delivered", node.node_idx);
            assert!(node.energy_j > 0.0);
        }
        // Goodput and energy-per-packet roll-ups are present and positive.
        assert!(r.goodput_bps(0) > 0.0);
        assert!(r.energy_per_packet_j(0).unwrap() > 0.0);
        assert!(r.nodes[0].mean_snr_db.unwrap() > 0.0);
        assert!(r.elapsed_s() > 0.0);
    }

    #[test]
    fn a_reset_aggregate_equals_a_new_one() {
        let n = two_node_network(40.0);
        let payload = [0x42u8; 16];
        let spec = CampaignSpec::new(6, &payload, plan_for(&n, 4, &payload));
        let mut rng = GaussianSource::new(0x5E7);
        let r: SlottedRunReport = n
            .run(
                &spec,
                Box::new(SlottedAloha::new(3)),
                &mut rng,
                &mut CampaignProbe::disabled(),
            )
            .unwrap();
        let mut agg = CampaignAggregate::from_report(&r);
        assert!(agg.delivered > 0 && agg.lifecycle.slot_wait_us.count > 0);
        agg.reset();
        assert_eq!(agg, CampaignAggregate::new());
    }

    #[test]
    fn slotted_run_is_deterministic() {
        use crate::protocol::SlotPlan;
        let run = || {
            let n = two_node_network(35.0);
            let packet = Packet::uplink(vec![7u8; 8]);
            let plan = SlotPlan::for_packet(
                2,
                &packet,
                &n.config.fmcw,
                n.config.uplink_symbol_rate_hz,
                5e-6,
            )
            .unwrap();
            let mut rng = GaussianSource::new(0xABCD);
            run_slotted(&n, 4, &[7u8; 8], &plan, 1, &mut rng).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn close_nodes_collide_in_shared_slots() {
        use crate::protocol::SlotPlan;
        // Nodes 5° apart are not SDM-separable at 20 dB: every shared slot
        // must be a collision, every private slot a delivery.
        let n = two_node_network(5.0);
        let packet = Packet::uplink(vec![0x42; 16]);
        let plan = SlotPlan::for_packet(
            2,
            &packet,
            &n.config.fmcw,
            n.config.uplink_symbol_rate_hz,
            5e-6,
        )
        .unwrap();
        let mut rng = GaussianSource::new(0xC0);
        let r = run_slotted(&n, 12, &[0x42; 16], &plan, 3, &mut rng).unwrap();
        let shared: usize = (0..12)
            .filter(|&f| plan.slot_for(0, f, 3) == plan.slot_for(1, f, 3))
            .count();
        assert!(shared > 0, "seed should produce at least one shared slot");
        for node in &r.nodes {
            assert_eq!(node.collisions, shared);
            assert_eq!(node.delivered, 12 - shared);
        }
    }

    #[test]
    fn slotted_rejects_oversized_packets() {
        use crate::protocol::SlotPlan;
        let n = two_node_network(30.0);
        let small = Packet::uplink(vec![0u8; 2]);
        let plan = SlotPlan::for_packet(
            2,
            &small,
            &n.config.fmcw,
            n.config.uplink_symbol_rate_hz,
            0.0,
        )
        .unwrap();
        let mut rng = GaussianSource::new(1);
        // A much larger payload does not fit the 2-byte slots.
        assert!(run_slotted(&n, 1, &[0u8; 4096], &plan, 0, &mut rng).is_err());
    }

    #[test]
    #[should_panic(expected = "does not interfere with itself")]
    fn self_margin_panics() {
        two_node_network(30.0).sdm_margin_db(0, 0);
    }

    #[test]
    fn azimuth_table_margins_match_sdm_margin_db_bit_for_bit() {
        // An arc behind the AP, so node azimuths straddle the ±π wrap.
        let mut behind = Scene::arc(16, 4.0, 60f64.to_radians(), 12f64.to_radians());
        behind.ap.boresight_rad = std::f64::consts::PI;
        let mut rng = GaussianSource::new(0xA21);
        let mut random = Scene::arc(0, 4.0, 0.0, 0.0);
        for _ in 0..24 {
            let (r, az) = (rng.uniform(0.5, 10.0), rng.uniform(-3.2, 3.2));
            random = random.with_node_at(r, az, rng.uniform(-0.5, 0.5));
        }
        for (name, scene) in [("behind", behind), ("random", random)] {
            let n = Network::new(SystemConfig::milback_default(), scene).unwrap();
            let mut rows = Vec::new();
            n.fill_rows(&mut rows, &RelayConfig::disabled());
            let azimuth: Vec<f64> = rows.iter().map(|row| row.azimuth).collect();
            if name == "behind" {
                let wrapped = |sign: f64| azimuth.iter().any(|&a| a * sign > 2.8);
                assert!(wrapped(1.0) && wrapped(-1.0), "{azimuth:?}");
            }
            for a in 0..n.node_count() {
                for b in (0..n.node_count()).filter(|&b| b != a) {
                    assert_eq!(
                        sdm_margin(azimuth[a], azimuth[b]).to_bits(),
                        n.sdm_margin_db(a, b).to_bits(),
                        "{name}: pair ({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn doppler_signatures_are_distinct_rows() {
        let n_chirps = 24;
        let rows: Vec<usize> = (0..3)
            .map(|i| DopplerSignature::for_node(i).doppler_row(n_chirps))
            .collect();
        // Node 0: period 2 → row 12 (Nyquist); node 1: period 4 → row 6;
        // node 2: period 6 → row 4.
        assert_eq!(rows, vec![12, 6, 4]);
        let mut sorted = rows.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), rows.len(), "rows must be distinct");
    }

    #[test]
    fn signature_toggle_pattern() {
        let s = DopplerSignature::for_node(1); // period 4
        let pattern: Vec<bool> = (0..8).map(|k| s.reflective_on(k)).collect();
        assert_eq!(
            pattern,
            vec![true, true, false, false, true, true, false, false]
        );
        assert!(s.resolved_by(8));
        assert!(!s.resolved_by(6));
    }

    #[test]
    fn localize_all_ranges_three_nodes_in_one_capture() {
        let scene = Scene::single_node(3.0, 12f64.to_radians())
            .with_node_at(5.0, 0.15, 0.2)
            .with_node_at(7.0, -0.12, -0.15);
        let network = Network::new(SystemConfig::milback_default(), scene).unwrap();
        let mut rng = GaussianSource::new(42);
        let fixes = localize_all_doppler(&network, 24, &mut rng).unwrap();
        assert_eq!(fixes.len(), 3);
        let expected = [3.0, 5.0, 7.0];
        for &(idx, range) in &fixes {
            assert!(
                (range - expected[idx]).abs() < 0.1,
                "node {idx}: {range:.3} m (expected {})",
                expected[idx]
            );
        }
    }

    fn plan_for(n: &Network, slots: usize, payload: &[u8]) -> SlotPlan {
        SlotPlan::for_packet(
            slots,
            &Packet::uplink(payload.to_vec()),
            &n.config.fmcw,
            n.config.uplink_symbol_rate_hz,
            5e-6,
        )
        .unwrap()
    }

    fn mac_context<'a>(n: &'a Network, plan: &SlotPlan, frames: usize) -> MacContext<'a> {
        MacContext::new(n, &CampaignSpec::new(frames, &[], *plan))
    }

    #[test]
    fn hashed_schedule_matches_per_slot_group_rehash() {
        // The hash-once slot → nodes map must regroup exactly like a
        // brute-force O(nodes × slots) per-slot re-hash.
        let mut scene = Scene::single_node(4.0, 12f64.to_radians());
        for k in 1..9 {
            scene = scene.with_node_at(4.0, (k as f64 * 10.0 - 40.0).to_radians(), 0.2);
        }
        let n = Network::new(SystemConfig::milback_default(), scene).unwrap();
        let plan = plan_for(&n, 6, &[1u8; 4]);
        let mut aloha = SlottedAloha::new(0xFEED);
        let ctx = mac_context(&n, &plan, 5);
        for frame in 0..5 {
            let schedule = aloha.schedule_frame(frame, &ctx);
            for slot in 0..plan.slots_per_frame {
                let brute: Vec<usize> = (0..n.node_count())
                    .filter(|&k| plan.slot_for(k, frame, 0xFEED) == slot)
                    .collect();
                let new_group = schedule
                    .iter()
                    .find(|(s, _)| *s == slot)
                    .map(|(_, g)| g.clone())
                    .unwrap_or_default();
                assert_eq!(new_group, brute, "frame {frame} slot {slot}");
            }
            // And no empty groups are scheduled.
            assert!(schedule.iter().all(|(_, g)| !g.is_empty()));
        }
        // A hand-built 0-slot plan schedules nobody instead of dividing
        // by zero.
        let no_slots = SlotPlan {
            slots_per_frame: 0,
            ..plan
        };
        assert!(aloha
            .schedule_frame(0, &mac_context(&n, &no_slots, 5))
            .is_empty());
        // Nor does a relay policy grant a chain in a slot the plan lacks:
        // the edge nodes past ±25° are gaps one tag hop from coverage.
        let relay = RelayConfig {
            coverage: CoverageModel {
                ap_range_m: f64::INFINITY,
                sector_half_rad: 25f64.to_radians(),
            },
            max_hops: 2,
            tag_range_m: 1.0,
            hop_snr_penalty_db: 3.0,
        };
        let mut relay_mac = RelayAwareMac::new(0xFEED, relay);
        relay_mac.begin(&ctx, &mut GaussianSource::new(1));
        assert!(!relay_mac.relay_frame(0, &ctx).is_empty());
        assert!(relay_mac
            .relay_frame(0, &mac_context(&n, &no_slots, 5))
            .is_empty());
    }

    /// A policy replaying one fixed schedule and relay grant list on
    /// every frame.
    struct FixedSchedule(FrameSchedule, Vec<RelayGrant>);

    impl MacPolicy for FixedSchedule {
        fn name(&self) -> &'static str {
            "fixed"
        }

        fn schedule_frame_into(
            &mut self,
            _frame: usize,
            _ctx: &MacContext<'_>,
            out: &mut FrameSchedule,
        ) {
            out.clone_from(&self.0);
        }

        fn relay_frame(&mut self, _frame: usize, _ctx: &MacContext<'_>) -> Vec<RelayGrant> {
            self.1.clone()
        }
    }

    #[test]
    fn malformed_schedules_are_typed_errors() {
        let n = two_node_network(35.0);
        let payload = [1u8; 4];
        let plan = plan_for(&n, 4, &payload);
        let beyond = plan.slots_per_frame;
        let relay = |slot| {
            vec![RelayGrant {
                slot,
                route: vec![1, 0],
            }]
        };
        let cases = [
            (vec![(beyond, vec![0])], vec![]),
            (vec![(1, vec![0]), (0, vec![1])], vec![]),
            (vec![(1, vec![0]), (1, vec![1])], vec![]),
            (vec![(0, vec![0])], relay(beyond)),
            (vec![(0, vec![2])], vec![]),
            (vec![(0, vec![1, 1])], vec![]),
        ];
        for (schedule, relays) in cases {
            let policy = FixedSchedule(schedule.clone(), relays.clone());
            let mut rng = GaussianSource::new(1);
            let err = run_mac(&n, Box::new(policy), 2, &payload, &plan, &mut rng).unwrap_err();
            assert!(
                matches!(
                    err,
                    MilbackError::Engine(_) | MilbackError::NodeOutOfScene { idx: 2, nodes: 2 }
                ),
                "{schedule:?} {relays:?}: {err:?}"
            );
        }
        // The same policy with an in-plan relay grant runs.
        let policy = FixedSchedule(vec![(0, vec![0])], relay(1));
        let mut rng = GaussianSource::new(1);
        assert!(run_mac(&n, Box::new(policy), 2, &payload, &plan, &mut rng).is_ok());
    }

    #[test]
    fn backoff_caps_exponent_and_window() {
        let n = two_node_network(5.0); // inseparable at 20 dB
        let plan = plan_for(&n, 1, &[1u8; 4]);
        let ctx = mac_context(&n, &plan, 64);
        let mut policy = BackoffAloha::new(0, 3).unwrap();
        let mut rng = GaussianSource::new(0xB0);
        policy.begin(&ctx, &mut rng);
        // Hammer both nodes with collisions far past the cap.
        for _ in 0..32 {
            policy.on_slot_outcome(0, 0, &[0, 1], true);
            for st in &policy.nodes {
                assert!(st.exponent <= 3, "exponent {} beyond the cap", st.exponent);
                assert!(st.defer_frames < 8, "defer {} beyond 2^3", st.defer_frames);
            }
        }
        assert!(policy.nodes.iter().all(|st| st.exponent == 3));
        // A served slot resets the state.
        policy.on_slot_outcome(0, 0, &[0], false);
        assert_eq!(policy.nodes[0].exponent, 0);
        assert_eq!(policy.nodes[0].defer_frames, 0);
        assert_eq!(policy.nodes[1].exponent, 3);
    }

    #[test]
    fn backoff_rejects_a_window_past_u64() {
        for max_exponent in [63, u32::MAX] {
            assert!(matches!(
                BackoffAloha::new(0, max_exponent),
                Err(MilbackError::Config(_))
            ));
        }
        assert!(BackoffAloha::new(0, 62).is_ok());
    }

    #[test]
    fn backoff_deferred_nodes_skip_frames() {
        let n = two_node_network(5.0);
        let plan = plan_for(&n, 1, &[1u8; 4]);
        let ctx = mac_context(&n, &plan, 64);
        let mut policy = BackoffAloha::new(0, 4).unwrap();
        let mut rng = GaussianSource::new(0xB1);
        policy.begin(&ctx, &mut rng);
        policy.nodes[0].defer_frames = 2;
        let s0 = policy.schedule_frame(0, &ctx);
        assert!(s0.iter().all(|(_, g)| !g.contains(&0)), "node 0 must defer");
        let s1 = policy.schedule_frame(1, &ctx);
        assert!(s1.iter().all(|(_, g)| !g.contains(&0)), "still deferring");
        let s2 = policy.schedule_frame(2, &ctx);
        assert!(
            s2.iter().any(|(_, g)| g.contains(&0)),
            "defer exhausted, node 0 contends again"
        );
    }

    #[test]
    fn backoff_unlocks_an_inseparable_pair() {
        // One slot, two inseparable nodes: plain ALOHA collides every
        // frame and never delivers; backoff desynchronizes the pair so
        // some frames carry exactly one transmitter — deliveries happen.
        let n = two_node_network(5.0);
        let payload = [0x42u8; 8];
        let plan = plan_for(&n, 1, &payload);
        let frames = 24;
        let mut rng_a = GaussianSource::new(0xD0);
        let aloha = run_slotted(&n, frames, &payload, &plan, 1, &mut rng_a).unwrap();
        assert_eq!(
            aloha.nodes.iter().map(|nd| nd.delivered).sum::<usize>(),
            0,
            "one shared slot must collide every frame under plain ALOHA"
        );
        let mut rng_b = GaussianSource::new(0xD0);
        let backoff = run_mac(
            &n,
            Box::new(BackoffAloha::new(1, 4).unwrap()),
            frames,
            &payload,
            &plan,
            &mut rng_b,
        )
        .unwrap();
        let delivered: usize = backoff.nodes.iter().map(|nd| nd.delivered).sum();
        assert!(delivered > 0, "backoff never desynchronized the pair");
        let collided: usize = backoff.nodes.iter().map(|nd| nd.collisions).sum();
        assert!(
            collided < frames * 2,
            "backoff should collide less than every-frame"
        );
    }

    #[test]
    fn polling_with_more_nodes_than_slots_round_robins() {
        // 5 nodes, 2 slots/frame: each frame polls exactly 2 nodes, the
        // grant cursor wraps across frames, nobody ever collides.
        let mut scene = Scene::single_node(4.0, 12f64.to_radians());
        for k in 1..5 {
            scene = scene.with_node_at(4.0, (k as f64 * 20.0 - 50.0).to_radians(), 0.2);
        }
        let n = Network::new(SystemConfig::milback_default(), scene).unwrap();
        let payload = [9u8; 8];
        let plan = plan_for(&n, 2, &payload);
        let frames = 10; // 20 grants over 5 nodes → 4 each
        let mut rng = GaussianSource::new(0x90);
        let r = run_mac(
            &n,
            Box::new(RoundRobinPolling::new()),
            frames,
            &payload,
            &plan,
            &mut rng,
        )
        .unwrap();
        for node in &r.nodes {
            assert_eq!(node.attempts, 4, "node {} grants", node.node_idx);
            assert_eq!(node.collisions, 0);
            assert_eq!(node.delivered, 4, "a granted slot is a clean channel");
        }
    }

    #[test]
    fn polling_grants_every_slot_when_nodes_are_scarce() {
        // 2 nodes, 4 slots/frame: nodes are polled twice per frame.
        let n = two_node_network(30.0);
        let payload = [3u8; 8];
        let plan = plan_for(&n, 4, &payload);
        let mut rng = GaussianSource::new(0x91);
        let r = run_mac(
            &n,
            Box::new(RoundRobinPolling::new()),
            3,
            &payload,
            &plan,
            &mut rng,
        )
        .unwrap();
        for node in &r.nodes {
            assert_eq!(node.attempts, 6);
            assert_eq!(node.collisions, 0);
        }
    }

    #[test]
    fn sdm_aware_splits_an_inseparable_pair() {
        // Two nodes 5° apart are not separable at 20 dB: the SDM-aware
        // assignment must put them in different slots, and the campaign
        // must be collision-free with full delivery.
        let n = two_node_network(5.0);
        // 0x42 toggles both tone channels, so a clean slot always decodes.
        let payload = [0x42u8; 8];
        let plan = plan_for(&n, 2, &payload);
        let mut rng = GaussianSource::new(0x5D);
        let r = run_mac(
            &n,
            Box::new(SdmAwareAssignment::new()),
            8,
            &payload,
            &plan,
            &mut rng,
        )
        .unwrap();
        for node in &r.nodes {
            assert_eq!(node.collisions, 0, "node {}", node.node_idx);
            assert_eq!(node.attempts, 8);
            assert_eq!(node.delivered, 8);
        }
    }

    #[test]
    fn sdm_aware_co_slots_separable_nodes() {
        let n = two_node_network(40.0);
        let plan = plan_for(&n, 4, &[1u8; 4]);
        let ctx = mac_context(&n, &plan, 4);
        let mut policy = SdmAwareAssignment::new();
        let mut rng = GaussianSource::new(1);
        policy.begin(&ctx, &mut rng);
        assert_eq!(
            policy.groups(),
            &[vec![0, 1]],
            "separable nodes form one group"
        );
        let schedule = policy.schedule_frame(0, &ctx);
        assert_eq!(schedule.len(), 4, "the lone group fills every slot");
        assert!(
            schedule.iter().all(|(_, g)| g == &[0, 1]),
            "separable nodes are co-slotted everywhere"
        );
    }

    #[test]
    fn sdm_aware_rotates_groups_that_outnumber_slots() {
        // Three mutually inseparable nodes, two slots: the partition needs
        // three singleton groups, more than a frame holds. The grant
        // rotation serves them all anyway — collision-free, with latency
        // (fewer grants per node) as the only cost.
        let scene = Scene::single_node(4.0, 12f64.to_radians())
            .with_node_at(4.0, 2f64.to_radians(), 0.2)
            .with_node_at(4.0, 4f64.to_radians(), 0.2);
        let n = Network::new(SystemConfig::milback_default(), scene).unwrap();
        let payload = [0x42u8; 4];
        let plan = plan_for(&n, 2, &payload);
        let frames = 4;
        let mut rng = GaussianSource::new(0x0F);
        let r = run_mac(
            &n,
            Box::new(SdmAwareAssignment::new()),
            frames,
            &payload,
            &plan,
            &mut rng,
        )
        .unwrap();
        let attempts: usize = r.nodes.iter().map(|nd| nd.attempts).sum();
        assert_eq!(attempts, frames * 2, "every slot grants exactly one group");
        for node in &r.nodes {
            assert_eq!(node.collisions, 0, "node {}", node.node_idx);
            assert_eq!(node.delivered, node.attempts);
            assert!(
                node.attempts >= 2,
                "rotation starves node {}",
                node.node_idx
            );
        }
    }

    #[test]
    fn undelivered_node_reports_none_not_nan() {
        // One slot, two inseparable nodes: nothing ever delivers, and the
        // report must say so with `None` (NaN would make this very
        // assert_eq unsatisfiable) and keep serde clean of NaN tokens.
        let n = two_node_network(5.0);
        let payload = [1u8; 4];
        let plan = plan_for(&n, 1, &payload);
        let mut rng = GaussianSource::new(0xE0);
        let r = run_slotted(&n, 4, &payload, &plan, 1, &mut rng).unwrap();
        for node in &r.nodes {
            assert_eq!(node.delivered, 0);
            assert_eq!(node.mean_snr_db, None);
        }
        assert_eq!(r.energy_per_packet_j(0), None);
        // NaN sentinels made this exact assertion silently unsatisfiable.
        assert_eq!(r.clone(), r, "undelivered reports must still compare equal");
        // And nothing in the Debug rendering carries a NaN/inf token any
        // serializer would propagate.
        let rendered = format!("{r:?}");
        assert!(!rendered.contains("NaN") && !rendered.contains("inf"));
    }

    #[test]
    fn mac_policies_report_distinct_names() {
        let names = [
            SlottedAloha::new(0).name(),
            BackoffAloha::new(0, 4).unwrap().name(),
            RoundRobinPolling::new().name(),
            SdmAwareAssignment::new().name(),
        ];
        let mut unique = names.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "policy names collide: {names:?}");
    }

    #[test]
    fn localize_all_rejects_unresolvable_chirp_count() {
        let scene = Scene::single_node(3.0, 0.1).with_node_at(5.0, 0.2, 0.1);
        let network = Network::new(SystemConfig::milback_default(), scene).unwrap();
        let mut rng = GaussianSource::new(1);
        // Node 1 needs a multiple of 4 chirps; 10 is not.
        assert!(localize_all_doppler(&network, 10, &mut rng).is_err());
    }
}

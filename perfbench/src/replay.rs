//! The traced run: per-layer cost measured from outside the program.
//!
//! The untraced campaign is one call into the library, so its layers
//! cannot be timed from here. Instead the traced run replays the same
//! unit through each layer's public functions, in the order the engine
//! fires them and on the same inputs (same cells, seeds, schedules and
//! payloads), with a timer around every call:
//!
//! * shard: `partition_cells` and the per-cell `Network`s;
//! * mac: `MacPolicy::begin`, `schedule_frame` and `relay_frame`;
//! * relay: coverage classification and route selection (the relay-aware
//!   policy's `begin`);
//! * sdm: the pairwise `Network::sdm_separable` arbitration of every
//!   served group, and the `sdm_margin_db` interference fold;
//! * link: `LinkSimulator::new` and `uplink` for every served node and
//!   every relay terminal;
//! * fold: `CampaignAggregate::observe_node`/`merge_from` and the
//!   lifecycle ledger's `audit`;
//! * session: the localization pipeline and the payload transfer, step by
//!   step as a session packet runs them.
//!
//! The pipeline and the engine run inside the campaign call and have no
//! public per-call surface: their counters come from the campaign's own
//! aggregate and from one probed run of the same unit, and the engine's
//! share is the untraced wall minus every replayed layer's busy time.
//!
//! The replay is only trusted when its work matches the campaign's: the
//! attempts, served slot groups, deliveries and relay chains it replays
//! must equal the campaign's own counters exactly, or the traced run
//! fails. So must the bits of the summed delivered SNR, which match only
//! when every noise draw does, in the engine's order.

use crate::workloads::{mix, Campaign, Inputs, PolicyKind, SessionInputs, SDM_THRESHOLD_DB};
use crate::{metric, print_result, Metric};
use milback_ap::waveform::{CarrierSet, LinkDirection};
use milback_core::lifecycle::DropReason;
use milback_core::{
    cell_seed, classify_gap_reasons, partition_cells, select_routes, CampaignAggregate,
    CampaignProbe, FrameSchedule, LifecycleStats, LinkSimulator, LocalizationPipeline, MacContext,
    MilbackError, NeighborGraph, Network, PacketId, RelayGrant, SlottedNodeReport, TraceRecord,
};
use mmwave_rf::antenna::fsa::FsaPort;
use mmwave_sigproc::random::GaussianSource;
use mmwave_sigproc::units::db_to_lin;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Calls and busy time of one timed call site.
#[derive(Clone, Copy, Default)]
struct Timer {
    calls: u64,
    busy_s: f64,
}

fn timed<T>(timer: &mut Timer, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    timer.busy_s += t.elapsed().as_secs_f64();
    timer.calls += 1;
    v
}

impl Timer {
    /// Busy time per `per` operations, in `scale` units of a second.
    fn per(&self, per: u64, scale: f64) -> f64 {
        if per == 0 {
            0.0
        } else {
            self.busy_s * scale / per as f64
        }
    }
}

/// Everything one replay of a campaign unit measured.
#[derive(Default)]
struct CampaignReplay {
    partition: Timer,
    cell_nets: Timer,
    begin: Timer,
    coverage: Timer,
    schedule: Timer,
    sdm_check: Timer,
    sdm_fold: Timer,
    link_build: Timer,
    link_uplink: Timer,
    fold_observe: Timer,
    fold_merge: Timer,
    ledger: Timer,
    audit: Timer,
    // Cost probes outside the replayed path (not in any layer's busy time).
    view: Timer,
    link_plan: Timer,
    link_snr: Timer,
    relay_graph: Timer,
    relay_routes: Timer,
    probed_run_s: f64,
    // Work counts.
    frames: u64,
    grants: u64,
    served: u64,
    shed: u64,
    attempts: u64,
    pair_checks: u64,
    separable: u64,
    uplinks: u64,
    decode_ok: u64,
    delivered: u64,
    relayed: u64,
    chains: u64,
    forwarded: u64,
    gap_nodes: u64,
    routed: u64,
    nodes: u64,
    // From the probed run of the same unit.
    slots_fired: u64,
    events: u64,
    relay_fired: u64,
}

impl CampaignReplay {
    /// Busy seconds per layer, in the order the share metrics list them.
    fn layers(&self, relay_policy: bool) -> Vec<(&'static str, f64)> {
        let (mac_begin, relay_begin) = if relay_policy {
            (0.0, self.begin.busy_s)
        } else {
            (self.begin.busy_s, 0.0)
        };
        vec![
            ("shard", self.partition.busy_s + self.cell_nets.busy_s),
            ("mac", mac_begin + self.schedule.busy_s),
            ("sdm", self.sdm_check.busy_s + self.sdm_fold.busy_s),
            ("link", self.link_build.busy_s + self.link_uplink.busy_s),
            ("relay", relay_begin + self.coverage.busy_s),
            (
                "fold",
                self.fold_observe.busy_s
                    + self.fold_merge.busy_s
                    + self.ledger.busy_s
                    + self.audit.busy_s,
            ),
            ("session", 0.0),
        ]
    }

    /// Seconds spent outside the replayed path: the probed run and the
    /// cold cost probes.
    fn outside_s(&self) -> f64 {
        self.probed_run_s
            + self.view.busy_s
            + self.link_plan.busy_s
            + self.link_snr.busy_s
            + self.relay_graph.busy_s
            + self.relay_routes.busy_s
    }
}

/// One resolution the engine performed for a unit, in firing order.
#[derive(Clone, Copy)]
enum Fire {
    /// Entry `idx` of frame `frame`'s direct schedule; `shed` when the AP
    /// pipeline dropped the grant at a full stage queue.
    Direct { frame: usize, idx: usize, shed: bool },
    /// Relay grant `grant` of frame `frame`.
    Relay { frame: usize, grant: usize },
}

/// The order in which the engine resolved a unit's slot grants and relay
/// chains. With a trace, it is the order of the probed run's `FlowEnd`
/// records. Without one (an instantaneous AP and a policy that grants no
/// relays), every slot resolves at its grant instant, in schedule order.
fn fire_order(
    probe: &CampaignProbe,
    frames: &[(FrameSchedule, Vec<RelayGrant>)],
) -> Result<Vec<Fire>, MilbackError> {
    let Some(sink) = &probe.trace else {
        return Ok(frames
            .iter()
            .enumerate()
            .flat_map(|(frame, (schedule, _))| {
                (0..schedule.len()).map(move |idx| Fire::Direct {
                    frame,
                    idx,
                    shed: false,
                })
            })
            .collect());
    };
    let mut by_flow = HashMap::new();
    for (frame, (schedule, grants)) in frames.iter().enumerate() {
        for (idx, (slot, _)) in schedule.iter().enumerate() {
            let fire = Fire::Direct {
                frame,
                idx,
                shed: false,
            };
            by_flow.insert(PacketId::direct(frame, *slot).raw(), fire);
        }
        for (grant, g) in grants.iter().enumerate() {
            by_flow.insert(
                PacketId::relayed(frame, g.route[0]).raw(),
                Fire::Relay { frame, grant },
            );
        }
    }
    let bad = |why: String| MilbackError::Engine(format!("probed trace: {why}"));
    sink.with_buffer(|b| {
        if b.dropped() > 0 {
            return Err(bad(format!("{} records dropped", b.dropped())));
        }
        b.records()
            .filter_map(|rec| match rec {
                TraceRecord::FlowEnd { flow, outcome, .. } => Some((*flow, *outcome)),
                _ => None,
            })
            .map(|(flow, outcome)| match by_flow.get(&flow) {
                Some(&Fire::Direct { frame, idx, .. }) => Ok(Fire::Direct {
                    frame,
                    idx,
                    shed: outcome == "shed",
                }),
                Some(&relay) => Ok(relay),
                None => Err(bad(format!("flow {flow:#x} is in no schedule"))),
            })
            .collect()
    })
}

/// Replays campaign unit `seed` layer by layer into `r`, and returns the
/// replay's own aggregate.
fn replay_campaign(
    c: &Campaign,
    seed: u64,
    r: &mut CampaignReplay,
) -> Result<CampaignAggregate, MilbackError> {
    let owned: Vec<Network>;
    let cells: Vec<&Network> = if c.cells > 1 {
        let scenes = timed(&mut r.partition, || partition_cells(&c.net.scene, c.cells))?;
        owned = timed(&mut r.cell_nets, || {
            scenes
                .into_iter()
                .map(|scene| Network {
                    config: c.net.config.clone(),
                    scene,
                })
                .collect()
        });
        owned.iter().collect()
    } else {
        vec![&c.net]
    };
    let frame_s = c.plan.frame_ps() as f64 / 1e12;
    let in_schedule_order = c.service.is_instantaneous() && c.policy != PolicyKind::RelayAware;
    let mut total = CampaignAggregate::new();
    for (idx, &cell) in cells.iter().enumerate() {
        let cseed = cell_seed(seed, idx);
        let n = cell.node_count();
        r.nodes += n as u64;

        // The same unit once more through the public probed entry point,
        // for the engine counters and the order the engine fired in. That
        // entry point runs with relaying disabled (full coverage, no hop
        // penalty); the policy still grants the same chains and the AP
        // pipeline's timing does not depend on the physics, so the counts
        // and the firing order are the campaign's.
        let t = Instant::now();
        let mut probe = if in_schedule_order {
            CampaignProbe::with_metrics()
        } else {
            CampaignProbe::with_trace(1 << 16)
        };
        cell.run_mac_service_probed(
            c.policy_for(cseed),
            c.frames,
            &c.payload,
            &c.plan,
            SDM_THRESHOLD_DB,
            &mut GaussianSource::new(cseed),
            &c.service,
            &mut probe,
        )?;
        if let Some(m) = &probe.metrics {
            r.slots_fired += m.counter("slots_fired");
            r.relay_fired += m.counter("relay_fired");
            r.events += m
                .histograms()
                .filter(|(name, _)| name.starts_with("queue_depth_"))
                .map(|(_, h)| h.count)
                .sum::<u64>();
        }
        r.probed_run_s += t.elapsed().as_secs_f64();

        let mut rng = GaussianSource::new(cseed);
        let mut policy = c.policy_for(cseed);
        let ctx = MacContext {
            net: cell,
            plan: c.plan,
            frames: c.frames,
            sdm_threshold_db: SDM_THRESHOLD_DB,
        };
        timed(&mut r.begin, || policy.begin(&ctx, &mut rng));
        let covered = if c.relay.coverage.is_unbounded() {
            vec![true; n]
        } else {
            let covered = timed(&mut r.coverage, || {
                let covered = c.relay.coverage.classify(&cell.scene);
                black_box(classify_gap_reasons(&cell.scene, &covered, &c.relay));
                covered
            });
            let graph = timed(&mut r.relay_graph, || {
                NeighborGraph::from_scene(&cell.scene, c.relay.tag_range_m)
            });
            let routes = timed(&mut r.relay_routes, || {
                select_routes(&graph, &covered, c.relay.max_hops, cseed)
            });
            r.gap_nodes += covered.iter().filter(|&&v| !v).count() as u64;
            r.routed += routes.iter().filter(|v| v.is_some()).count() as u64;
            covered
        };

        // The policies run here never adapt to slot outcomes, so every
        // frame's schedule can be drawn before the first slot fires.
        let frames: Vec<_> = (0..c.frames)
            .map(|frame| {
                r.frames += 1;
                timed(&mut r.schedule, || {
                    (
                        policy.schedule_frame(frame, &ctx),
                        policy.relay_frame(frame, &ctx),
                    )
                })
            })
            .collect();
        r.grants += frames.iter().map(|f| f.0.len() as u64).sum::<u64>();

        let mut attempts = vec![0usize; n];
        let mut delivered = vec![0usize; n];
        let mut relayed = vec![0usize; n];
        let mut collisions = vec![0usize; n];
        let mut snr_sum = vec![0.0f64; n];
        for fire in fire_order(&probe, &frames)? {
            match fire {
                Fire::Direct { shed: true, .. } => r.shed += 1,
                Fire::Direct { frame, idx, .. } => {
                    let group = &frames[frame].0[idx].1;
                    r.served += 1;
                    r.attempts += group.len() as u64;
                    group.iter().for_each(|&node| attempts[node] += 1);
                    let (mut checks, mut separable_pairs) = (0u64, 0u64);
                    let separable = timed(&mut r.sdm_check, || {
                        group.iter().enumerate().all(|(i, &a)| {
                            group[i + 1..].iter().all(|&b| {
                                let s = cell.sdm_separable(a, b, SDM_THRESHOLD_DB);
                                checks += 1;
                                separable_pairs += u64::from(s);
                                s
                            })
                        })
                    });
                    r.pair_checks += checks;
                    r.separable += separable_pairs;
                    if group.len() > 1 && !separable {
                        group.iter().for_each(|&node| collisions[node] += 1);
                        continue;
                    }
                    for &node in group {
                        let (ok, mut snr_db) = uplink(c, cell, node, &mut rng, r)?;
                        if group.len() > 1 {
                            snr_db = timed(&mut r.sdm_fold, || {
                                let margin = group
                                    .iter()
                                    .filter(|&&o| o != node)
                                    .map(|&o| cell.sdm_margin_db(node, o))
                                    .fold(f64::INFINITY, f64::min);
                                if margin.is_finite() {
                                    let sig = db_to_lin(snr_db);
                                    let interference = db_to_lin(snr_db - margin);
                                    10.0 * (sig / (1.0 + interference)).log10()
                                } else {
                                    snr_db
                                }
                            });
                        }
                        if ok && covered[node] {
                            delivered[node] += 1;
                            snr_sum[node] += snr_db;
                        }
                    }
                }
                Fire::Relay { frame, grant } => {
                    let route = &frames[frame].1[grant].route;
                    let (origin, terminal) = (route[0], route[route.len() - 1]);
                    r.chains += 1;
                    r.forwarded += (route.len() - 1) as u64;
                    r.attempts += 1;
                    attempts[origin] += 1;
                    let (ok, snr_db) = uplink(c, cell, terminal, &mut rng, r)?;
                    if ok && covered[terminal] {
                        delivered[origin] += 1;
                        relayed[origin] += 1;
                        snr_sum[origin] +=
                            snr_db - c.relay.hop_snr_penalty_db * (route.len() - 1) as f64;
                    }
                }
            }
        }
        r.delivered += delivered.iter().map(|&d| d as u64).sum::<u64>();
        r.relayed += relayed.iter().map(|&d| d as u64).sum::<u64>();

        // The campaign's streaming fold and per-cell ledger audit.
        let mut agg = CampaignAggregate::new();
        timed(&mut r.fold_observe, || {
            agg.begin_run(c.frames, frame_s, c.payload.len());
            for idx in 0..n {
                agg.observe_node(&SlottedNodeReport {
                    node_idx: idx,
                    attempts: attempts[idx],
                    delivered: delivered[idx],
                    collisions: collisions[idx],
                    energy_j: 0.0,
                    mean_snr_db: (delivered[idx] > 0).then(|| snr_sum[idx] / delivered[idx] as f64),
                    gap: !covered[idx],
                    relayed: relayed[idx],
                    relay_hops: 0,
                    forwarded: 0,
                    relay_energy_j: 0.0,
                    relay_latency_s: 0.0,
                });
            }
        });
        let offered = (n * c.frames) as u64;
        let got: u64 = delivered.iter().map(|&d| d as u64).sum();
        timed(&mut r.ledger, || {
            let mut ledger = LifecycleStats::new();
            ledger.offer(offered);
            ledger.deliver_direct(got);
            ledger.record_drops(DropReason::NeverScheduled, offered - got);
            agg.lifecycle.merge_from(&ledger);
        });
        timed(&mut r.audit, || agg.lifecycle.audit())?;
        timed(&mut r.fold_merge, || total.merge_from(&agg));
    }
    Ok(total)
}

/// One replayed uplink of `node`: returns whether it decoded and its SNR.
/// A cold simulator for the same node then times the carrier plan and
/// the two channel-SNR evaluations the uplink makes internally.
fn uplink(
    c: &Campaign,
    cell: &Network,
    node: usize,
    rng: &mut GaussianSource,
    r: &mut CampaignReplay,
) -> Result<(bool, f64), MilbackError> {
    let sim = timed(&mut r.link_build, || {
        LinkSimulator::new(cell.config.clone(), cell.scene.view_for_node_checked(node)?)
    })?;
    let out = timed(&mut r.link_uplink, || sim.uplink(&c.payload, rng))?;
    r.uplinks += 1;
    let ok = out.decoded == c.payload;
    r.decode_ok += u64::from(ok);

    let view = timed(&mut r.view, || cell.scene.view_for_node_checked(node))?;
    let cold = LinkSimulator::new(cell.config.clone(), view)?;
    let carriers = timed(&mut r.link_plan, || cold.plan_carriers(None))?;
    let (f_a, f_b) = match carriers {
        CarrierSet::TwoTone { f_a, f_b } => (f_a, f_b),
        CarrierSet::SingleToneOok { f } => (f, f),
    };
    timed(&mut r.link_snr, || {
        black_box(cold.uplink_channel_snr_db(f_a, FsaPort::A));
        black_box(cold.uplink_channel_snr_db(f_b, FsaPort::B));
    });
    Ok((ok, out.snr_db))
}

/// Everything one replay of session packets measured.
#[derive(Default)]
struct SessionReplay {
    pipeline_build: Timer,
    orient_node: Timer,
    localize: Timer,
    orient_ap: Timer,
    view: Timer,
    link_build: Timer,
    downlink: Timer,
    uplink: Timer,
    fsa_hits: u64,
    fsa_misses: u64,
    packets: u64,
    delivered: u64,
}

/// Replays session packet `k`, step for step as the session runs it, and
/// returns what the node/AP delivered and its BER.
fn replay_packet(
    s: &SessionInputs,
    seed: u64,
    k: u64,
    r: &mut SessionReplay,
) -> Result<(Vec<u8>, f64), MilbackError> {
    let packet = s.packet(k);
    let config = &s.session.config;
    let scene = &s.session.scene;
    let mut rng = GaussianSource::new(mix(seed, k));
    let pipeline = timed(&mut r.pipeline_build, || {
        LocalizationPipeline::new(config.clone(), scene.clone())
    })?;
    timed(&mut r.orient_node, || pipeline.orient_at_node(&mut rng))?;
    timed(&mut r.localize, || pipeline.localize(&mut rng))?;
    let orientation = timed(&mut r.orient_ap, || pipeline.orient_at_ap(&mut rng))?;
    black_box(timed(&mut r.view, || scene.view_for_node_checked(0))?);
    let mut sim = timed(&mut r.link_build, || {
        LinkSimulator::new(config.clone(), scene.clone())
    })?;
    sim.orientation_hint = Some(orientation);
    let out = match packet.direction {
        LinkDirection::Downlink => {
            let o = timed(&mut r.downlink, || sim.downlink(&packet.payload, &mut rng))?;
            (o.decoded, o.ber)
        }
        LinkDirection::Uplink => {
            let o = timed(&mut r.uplink, || sim.uplink(&packet.payload, &mut rng))?;
            (o.decoded, o.ber)
        }
    };
    for stats in [pipeline.gain_eval.stats(), sim.gain_eval.stats()] {
        r.fsa_hits += stats.freq_hits + stats.gain_hits;
        r.fsa_misses += stats.freq_misses + stats.gain_misses;
    }
    r.packets += 1;
    r.delivered += u64::from(out.0 == packet.payload && out.1 == 0.0);
    Ok(out)
}

/// Units one trace unit covers: a downlink and an uplink packet for the
/// session, one campaign otherwise.
fn trace_units(inputs: &Inputs) -> u64 {
    match inputs {
        Inputs::Session(_) => 2,
        Inputs::Campaign(_) => 1,
    }
}

/// The traced run: the trace unit untraced and replayed in turn for about
/// two thirds of `seconds`. Alternating them lets both see the same host
/// speed, which on a shared host swings over seconds.
pub fn traced(seed: u64, seconds: f64, workload: &str, inputs: &Inputs) -> Result<(), String> {
    let units = trace_units(inputs);
    let budget = 2.0 * seconds / 3.0;
    // Warm-up, then the campaign's own outputs for the trace unit.
    let reference: Vec<_> = (0..units).map(|k| inputs.run_unit(seed, k, None)).collect();
    let mut failed = 0u64;
    for (k, out) in reference.iter().enumerate() {
        if let Some(why) = &out.failure {
            failed += 1;
            eprintln!("unit {k} failed: {why}");
        }
    }
    let mut untraced_s = 0.0;
    let mut untraced = || {
        let t = Instant::now();
        for k in 0..units {
            black_box(inputs.run_unit(seed, k, None));
        }
        untraced_s += t.elapsed().as_secs_f64();
    };

    let scene_build = {
        let mut t = Timer::default();
        for _ in 0..3 {
            black_box(timed(&mut t, || crate::workloads::scene(workload)));
        }
        t
    };

    let mut metrics = Vec::new();
    let mut layers: Vec<(&'static str, f64)>;
    let mut mismatches = Vec::new();
    let mut walls = Vec::new();
    let reps;
    let started = Instant::now();
    match inputs {
        Inputs::Campaign(c) => {
            let agg = reference[0]
                .agg
                .as_ref()
                .ok_or("the trace unit's campaign failed")?;
            let mut r = CampaignReplay::default();
            let mut n = 0u64;
            let mut snr_differs = 0u64;
            while n == 0 || started.elapsed().as_secs_f64() < budget {
                untraced();
                let t = Instant::now();
                let outside_before = r.outside_s();
                let replayed =
                    replay_campaign(c, mix(seed, 0), &mut r).map_err(|e| e.to_string())?;
                walls.push(t.elapsed().as_secs_f64() - (r.outside_s() - outside_before));
                // Every noise draw lands in the SNR sum, so its bits match
                // only if the replay fired in the engine's order.
                snr_differs += u64::from(replayed.snr_sum_db.to_bits() != agg.snr_sum_db.to_bits());
                n += 1;
            }
            reps = n;
            if snr_differs > 0 {
                mismatches.push(format!(
                    "SNR sum differs in {snr_differs} of {n} replays: campaign {}",
                    agg.snr_sum_db
                ));
            }
            // Totals over all `n` replays of the same unit.
            for (what, replayed, campaign) in [
                ("attempts", r.attempts, n * agg.attempts),
                ("served slot groups", r.served, n * agg.service.served),
                ("offered slot grants", r.grants, n * agg.service.offered),
                ("shed slot grants", r.shed, n * agg.service.dropped),
                ("deliveries", r.delivered, n * agg.delivered),
                ("relayed deliveries", r.relayed, n * agg.relayed),
                ("relay chains fired", r.chains, r.relay_fired),
                ("relay forwards", r.forwarded, n * agg.forwarded),
            ] {
                if replayed != campaign {
                    mismatches.push(format!(
                        "{what} over {n} replays: replay {replayed}, campaign {campaign}"
                    ));
                }
            }
            layers = r.layers(c.policy == PolicyKind::RelayAware);
            campaign_metrics(&mut metrics, c, agg, &r, n);
        }
        Inputs::Session(s) => {
            let mut r = SessionReplay::default();
            let mut n = 0u64;
            while n == 0 || started.elapsed().as_secs_f64() < budget {
                untraced();
                let t = Instant::now();
                for k in 0..units {
                    let (delivered, ber) =
                        replay_packet(s, seed, k, &mut r).map_err(|e| e.to_string())?;
                    let own = reference[k as usize]
                        .session
                        .as_ref()
                        .ok_or("the trace unit's session packet failed")?;
                    if n == 0 && (delivered != own.delivered || ber.to_bits() != own.ber.to_bits())
                    {
                        mismatches.push(format!(
                            "packet {k}: replay delivered {delivered:?} at BER {ber}, \
                             session delivered {:?} at BER {}",
                            own.delivered, own.ber
                        ));
                    }
                }
                walls.push(t.elapsed().as_secs_f64());
                n += 1;
            }
            reps = n;
            if r.packets != n * units || r.delivered != r.packets {
                mismatches.push(format!(
                    "replayed {} packets, {} delivered cleanly, expected {}",
                    r.packets,
                    r.delivered,
                    n * units
                ));
            }
            let link = r.link_build.busy_s + r.downlink.busy_s + r.uplink.busy_s;
            let sensing = r.pipeline_build.busy_s
                + r.orient_node.busy_s
                + r.localize.busy_s
                + r.orient_ap.busy_s;
            layers = vec![
                ("shard", 0.0),
                ("mac", 0.0),
                ("sdm", 0.0),
                ("link", link),
                ("relay", 0.0),
                ("fold", 0.0),
                ("session", sensing),
            ];
            session_metrics(&mut metrics, &r, n);
        }
    }
    for m in &mismatches {
        eprintln!("replay fidelity check failed: {m}");
    }

    // Shares of the mean untraced wall of the same units; per replay.
    let untraced_s = untraced_s / reps as f64;
    let share = |busy: f64| 100.0 * busy / reps as f64 / untraced_s;
    let busy_total: f64 = layers.iter().map(|l| l.1).sum::<f64>() / reps as f64;
    for (name, busy) in &layers {
        metrics.push(metric(format!("{name}.share"), share(*busy), "%"));
    }
    let residual = 100.0 * (untraced_s - busy_total) / untraced_s;
    metrics.push(metric("engine.residual_share", residual, "%"));
    layers.push(("engine", (untraced_s - busy_total) * reps as f64));
    let (dominant, dominant_busy) =
        layers
            .iter()
            .copied()
            .fold(("none", f64::MIN), |a, b| if b.1 > a.1 { b } else { a });
    metrics.push(metric("trace.dominant_share", share(dominant_busy), "%"));
    let overhead = walls.iter().sum::<f64>() / reps as f64 / untraced_s;
    metrics.push(metric("trace.overhead", overhead, "ratio"));
    metrics.push(metric(
        "scene.build_ms",
        scene_build.per(scene_build.calls, 1e3),
        "ms/build",
    ));
    order(&mut metrics);

    println!(
        "workload {workload} seed {seed}: dominant layer {dominant} ({:.1}% of the untraced wall); \
         tracing overhead {overhead:.2}x over {reps} replay(s)",
        share(dominant_busy)
    );
    for (name, busy) in &layers {
        println!("  {name:<8} {:>6.1}%", share(*busy));
    }
    let correct = failed == 0 && mismatches.is_empty();
    print_result(correct, units, failed, &metrics);
    Ok(())
}

/// Per-layer metrics of a campaign workload: counts per trace unit, costs
/// per operation.
fn campaign_metrics(
    out: &mut Vec<Metric>,
    c: &Campaign,
    agg: &CampaignAggregate,
    r: &CampaignReplay,
    n: u64,
) {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let per = |v: u64| (v / n) as f64;
    let residence = |q| {
        agg.lifecycle
            .service_residence_us
            .quantile(q)
            .unwrap_or(0.0)
    };
    out.extend([
        metric("shard.cells", c.cells as f64, "count"),
        metric("shard.partition_ms", r.partition.per(n, 1e3), "ms/unit"),
        metric("scene.view_ns", r.view.per(r.view.calls, 1e9), "ns/view"),
        metric("mac.frames", per(r.frames), "count"),
        metric("mac.grants", per(r.grants), "count"),
        metric(
            "mac.schedule_ns_per_frame",
            r.schedule.per(r.frames, 1e9),
            "ns/frame",
        ),
        metric("sdm.pair_checks", per(r.pair_checks), "count"),
        metric(
            "sdm.ns_per_check",
            r.sdm_check.per(r.pair_checks, 1e9),
            "ns/check",
        ),
        metric(
            "sdm.separable_ratio",
            ratio(r.separable, r.pair_checks),
            "ratio",
        ),
        metric("link.uplinks", per(r.uplinks), "count"),
        metric(
            "link.build_ns",
            r.link_build.per(r.link_build.calls, 1e9),
            "ns/link",
        ),
        metric(
            "link.plan_ns",
            r.link_plan.per(r.link_plan.calls, 1e9),
            "ns/plan",
        ),
        metric(
            "link.channel_snr_ns",
            r.link_snr.per(2 * r.link_snr.calls, 1e9),
            "ns/eval",
        ),
        metric(
            "link.uplink_ns",
            r.link_uplink.per(r.uplinks, 1e9),
            "ns/uplink",
        ),
        metric(
            "link.decode_ok_ratio",
            ratio(r.decode_ok, r.uplinks),
            "ratio",
        ),
        metric(
            "relay.graph_us",
            r.relay_graph.per(r.relay_graph.calls, 1e6),
            "us/graph",
        ),
        metric(
            "relay.routes_us",
            r.relay_routes.per(r.relay_routes.calls, 1e6),
            "us/table",
        ),
        metric("relay.routed_ratio", ratio(r.routed, r.gap_nodes), "ratio"),
        metric("relay.fired", per(r.chains), "count"),
        metric("relay.forwarded", per(r.forwarded), "count"),
        metric("pipeline.offered", agg.service.offered as f64, "count"),
        metric("pipeline.served", agg.service.served as f64, "count"),
        metric(
            "pipeline.shed_ratio",
            ratio(agg.service.dropped, agg.service.offered),
            "ratio",
        ),
        metric("pipeline.residence_us_p50", residence(0.50), "sim_us"),
        metric("pipeline.residence_us_p95", residence(0.95), "sim_us"),
        metric(
            "lifecycle.audit_ns",
            r.audit.per(r.audit.calls, 1e9),
            "ns/audit",
        ),
        metric(
            "fold.observe_ns_per_node",
            r.fold_observe.per(r.nodes, 1e9),
            "ns/node",
        ),
        metric(
            "fold.merge_ns",
            r.fold_merge.per(r.fold_merge.calls, 1e9),
            "ns/merge",
        ),
        metric("engine.slots_fired", per(r.slots_fired), "count"),
        metric("engine.events", per(r.events), "count"),
    ]);
    for (label, &drops) in DropReason::LABELS.iter().zip(&agg.lifecycle.drops) {
        out.push(metric(
            format!("lifecycle.drops.{label}"),
            drops as f64,
            "count",
        ));
    }
}

/// Per-layer metrics of the session workload, with its link layer in the
/// campaign metrics' terms.
fn session_metrics(out: &mut Vec<Metric>, r: &SessionReplay, n: u64) {
    let ms = |t: &Timer| t.per(t.calls, 1e3);
    let per = |v: u64| (v / n) as f64;
    out.extend([
        metric("session.pipeline_build_ms", ms(&r.pipeline_build), "ms/pkt"),
        metric("session.orient_node_ms", ms(&r.orient_node), "ms/pkt"),
        metric("session.localize_ms", ms(&r.localize), "ms/pkt"),
        metric("session.orient_ap_ms", ms(&r.orient_ap), "ms/pkt"),
        metric("session.downlink_ms", ms(&r.downlink), "ms/pkt"),
        metric("session.uplink_ms", ms(&r.uplink), "ms/pkt"),
        metric("fsa.hits", per(r.fsa_hits), "count"),
        metric("fsa.misses", per(r.fsa_misses), "count"),
    ]);
    if r.packets > 0 {
        // The session's link layer, in the campaign metrics' terms.
        out.extend([
            metric("scene.view_ns", r.view.per(r.view.calls, 1e9), "ns/view"),
            metric("link.uplinks", per(r.uplink.calls), "count"),
            metric(
                "link.build_ns",
                r.link_build.per(r.link_build.calls, 1e9),
                "ns/link",
            ),
            metric(
                "link.uplink_ns",
                r.uplink.per(r.uplink.calls, 1e9),
                "ns/uplink",
            ),
            metric(
                "link.decode_ok_ratio",
                (r.delivered as f64) / r.packets as f64,
                "ratio",
            ),
        ]);
    }
}

/// Puts the metrics in the order `BENCHMARK.json` lists them, filling
/// every metric a workload never measured with 0.
fn order(metrics: &mut Vec<Metric>) {
    let mut ordered = Vec::with_capacity(PER_LAYER.len());
    for &(name, unit) in PER_LAYER {
        let value = metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        ordered.push(metric(name, value, unit));
    }
    *metrics = ordered;
}

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("shard.cells", "count"),
    ("shard.partition_ms", "ms/unit"),
    ("shard.share", "%"),
    ("scene.build_ms", "ms/build"),
    ("scene.view_ns", "ns/view"),
    ("mac.frames", "count"),
    ("mac.grants", "count"),
    ("mac.schedule_ns_per_frame", "ns/frame"),
    ("mac.share", "%"),
    ("sdm.pair_checks", "count"),
    ("sdm.ns_per_check", "ns/check"),
    ("sdm.separable_ratio", "ratio"),
    ("sdm.share", "%"),
    ("link.uplinks", "count"),
    ("link.build_ns", "ns/link"),
    ("link.plan_ns", "ns/plan"),
    ("link.channel_snr_ns", "ns/eval"),
    ("link.uplink_ns", "ns/uplink"),
    ("link.decode_ok_ratio", "ratio"),
    ("link.share", "%"),
    ("relay.graph_us", "us/graph"),
    ("relay.routes_us", "us/table"),
    ("relay.routed_ratio", "ratio"),
    ("relay.fired", "count"),
    ("relay.forwarded", "count"),
    ("relay.share", "%"),
    ("pipeline.offered", "count"),
    ("pipeline.served", "count"),
    ("pipeline.shed_ratio", "ratio"),
    ("pipeline.residence_us_p50", "sim_us"),
    ("pipeline.residence_us_p95", "sim_us"),
    ("lifecycle.drops.contention_collision", "count"),
    ("lifecycle.drops.sdm_inseparable", "count"),
    ("lifecycle.drops.service_shed", "count"),
    ("lifecycle.drops.no_relay_route", "count"),
    ("lifecycle.drops.hop_budget_exhausted", "count"),
    ("lifecycle.drops.decode_failure", "count"),
    ("lifecycle.drops.never_scheduled", "count"),
    ("lifecycle.audit_ns", "ns/audit"),
    ("fold.observe_ns_per_node", "ns/node"),
    ("fold.merge_ns", "ns/merge"),
    ("fold.share", "%"),
    ("engine.slots_fired", "count"),
    ("engine.events", "count"),
    ("engine.residual_share", "%"),
    ("session.pipeline_build_ms", "ms/pkt"),
    ("session.orient_node_ms", "ms/pkt"),
    ("session.localize_ms", "ms/pkt"),
    ("session.orient_ap_ms", "ms/pkt"),
    ("session.downlink_ms", "ms/pkt"),
    ("session.uplink_ms", "ms/pkt"),
    ("session.share", "%"),
    ("fsa.hits", "count"),
    ("fsa.misses", "count"),
    ("trace.dominant_share", "%"),
    ("trace.overhead", "ratio"),
];

//! The full packet session: the §7 protocol executed end-to-end against a
//! scene — Field 1 (node senses orientation + direction), Field 2 (AP
//! localizes + senses orientation), payload (uplink or downlink with
//! carriers planned from the AP's own estimate), with both sides' state
//! and the node's energy ledger accounted.
//!
//! This is the "network runtime" layer the lower modules compose into: one
//! call runs everything the paper's Fig 8 timeline describes. The timeline
//! itself lives on the discrete-event engine ([`crate::engine`]): the node
//! firmware and the AP are actors, every protocol boundary (burst, gap,
//! Field-2 capture, carrier planning, payload airtime) is a timed event,
//! and all randomness flows through the one per-trial stream in the shared
//! medium.

use crate::config::SystemConfig;
use crate::engine::{secs_to_ps, Actor, ActorId, Engine, Outbox, TimePs};
use crate::error::{MilbackError, Result};
use crate::link::LinkSimulator;
use crate::localization::{LocalizationPipeline, LocationFix};
use crate::pipeline::{ApServiceConfig, StageKind};
use crate::protocol::Packet;
use crate::scene::Scene;
use crate::telemetry::CampaignProbe;
use milback_ap::waveform::LinkDirection;
use milback_node::firmware::{Direction, Event as FwEvent, Firmware, State as FwState};
use milback_node::mode::{PortMode, ToggleSchedule};
use milback_node::power::NodePowerModel;
use mmwave_sigproc::random::GaussianSource;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Everything one packet session produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// The AP's localization fix from Field 2.
    pub fix: LocationFix,
    /// AP-side orientation estimate, radians.
    pub orientation_at_ap: f64,
    /// Node-side orientation estimate, radians.
    pub orientation_at_node: f64,
    /// Direction the node decoded from Field 1.
    pub decoded_direction: LinkDirection,
    /// Payload bytes delivered (downlink: at the node; uplink: at the AP).
    pub delivered: Vec<u8>,
    /// Payload bit error rate.
    pub ber: f64,
    /// Total packet airtime, seconds.
    pub airtime_s: f64,
    /// Node energy spent on this packet, joules.
    pub node_energy_j: f64,
}

/// Events on the single-link session timeline (§7 / Fig 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionEvent {
    /// One Field-1 triangular burst reaches the node.
    Field1Burst,
    /// Field 1 ended: the node reads its detectors and decodes direction.
    Field1Gap,
    /// The Field-2 sawtooth train starts (the node begins toggling).
    Field2Start,
    /// One reflective/absorptive mode switch during Field 2.
    ToggleMode,
    /// Field-2 capture done: the AP localizes and estimates orientation.
    Field2Process,
    /// The AP plans payload carriers from its orientation estimate.
    PlanCarriers,
    /// Payload airtime begins at the node.
    PayloadStart,
    /// The payload propagates through the link.
    PayloadTransfer,
    /// Payload airtime ends; the node closes its state machine.
    PayloadEnd,
}

/// The shared medium of one session run: the channel simulators, the
/// per-trial RNG stream (per the runner's stream contract), and the slots
/// results are deposited into as events fire.
struct SessionMedium<'a> {
    pipeline: &'a LocalizationPipeline,
    sim: LinkSimulator,
    rng: &'a mut GaussianSource,
    packet: &'a Packet,
    field1_chirp_s: f64,
    chirp_interval_s: f64,
    downlink_symbol_rate_hz: f64,
    uplink_symbol_rate_hz: f64,
    toggle: ToggleSchedule,
    // Results, filled in timeline order.
    orientation_at_node: Option<f64>,
    decoded_direction: Option<LinkDirection>,
    fix: Option<LocationFix>,
    orientation_at_ap: Option<f64>,
    delivered: Option<(Vec<u8>, f64)>,
    node_energy_j: f64,
    mode_switches: usize,
}

impl SessionMedium<'_> {
    fn symbol_rate_hz(&self) -> Result<f64> {
        match self.decoded_direction {
            Some(LinkDirection::Downlink) => Ok(self.downlink_symbol_rate_hz),
            Some(LinkDirection::Uplink) => Ok(self.uplink_symbol_rate_hz),
            None => Err(MilbackError::Protocol(
                "payload scheduled before the node decoded a direction".into(),
            )),
        }
    }

    fn payload_s(&self) -> Result<f64> {
        Ok(self.packet.payload.len() as f64 * 4.0 / self.symbol_rate_hz()?)
    }
}

/// The node side: owns the firmware state machine and its energy ledger.
struct NodeActor {
    me: ActorId,
    firmware: Firmware,
}

impl<'a> Actor<SessionMedium<'a>, SessionEvent> for NodeActor {
    fn on_event(
        &mut self,
        _now_ps: TimePs,
        event: &SessionEvent,
        m: &mut SessionMedium<'a>,
        out: &mut Outbox<SessionEvent>,
    ) -> Result<()> {
        match event {
            SessionEvent::Field1Burst => {
                self.firmware.step(FwEvent::BurstStart, m.field1_chirp_s)?;
            }
            SessionEvent::Field1Gap => {
                m.orientation_at_node = Some(m.pipeline.orient_at_node(m.rng)?);
                self.firmware.handle(FwEvent::Field1GapTimeout)?;
                m.decoded_direction = Some(match self.firmware.state() {
                    FwState::Field1Done {
                        direction: Direction::Uplink,
                    } => LinkDirection::Uplink,
                    FwState::Field1Done {
                        direction: Direction::Downlink,
                    } => LinkDirection::Downlink,
                    other => {
                        return Err(MilbackError::Protocol(format!(
                            "node failed to decode direction (state {other:?})"
                        )))
                    }
                });
            }
            SessionEvent::Field2Start => {
                let field2_s = 5.0 * m.chirp_interval_s;
                self.firmware.step(FwEvent::BurstStart, field2_s)?;
                // Mode switching as scheduled events: one per half-period
                // of the localization toggle across the Field-2 window.
                for t in m.toggle.switch_times_s(0.0, field2_s) {
                    out.post_after(t, self.me, SessionEvent::ToggleMode);
                }
            }
            SessionEvent::ToggleMode => {
                m.mode_switches += 1;
            }
            SessionEvent::PayloadStart => {
                let payload_s = m.payload_s()?;
                self.firmware.step(FwEvent::Field2Complete, payload_s)?;
            }
            SessionEvent::PayloadEnd => {
                self.firmware.handle(FwEvent::PayloadComplete)?;
                m.node_energy_j = self.firmware.energy_j();
            }
            _ => {
                return Err(MilbackError::Engine(format!(
                    "node actor received AP event {event:?}"
                )))
            }
        }
        Ok(())
    }
}

/// The AP side: Field-2 processing, carrier planning, payload scheduling.
/// The three protocol steps are the single-link image of the MAC layer's
/// **Capture → Plan → Transmit** pipeline: `Field2Process` is the capture
/// stage (it completes `capture_ps` after the Field-2 window closes),
/// `PlanCarriers` the plan stage, and the payload schedule starts after
/// the transmit-stage latency. Under [`ApServiceConfig::instantaneous`]
/// every post lands at the current instant, reproducing the pre-pipeline
/// timeline bit-for-bit.
struct ApActor {
    me: ActorId,
    node: ActorId,
    service: ApServiceConfig,
}

impl<'a> Actor<SessionMedium<'a>, SessionEvent> for ApActor {
    fn on_event(
        &mut self,
        now_ps: TimePs,
        event: &SessionEvent,
        m: &mut SessionMedium<'a>,
        out: &mut Outbox<SessionEvent>,
    ) -> Result<()> {
        match event {
            SessionEvent::Field2Process => {
                m.fix = Some(m.pipeline.localize(m.rng)?);
                m.orientation_at_ap = Some(m.pipeline.orient_at_ap(m.rng)?);
                out.post_at(
                    now_ps + self.service.stage_latency_ps(StageKind::Capture),
                    self.me,
                    SessionEvent::PlanCarriers,
                );
            }
            SessionEvent::PlanCarriers => {
                // Carriers planned from the AP's *estimate*, never ground
                // truth — the closed loop the protocol actually runs.
                m.sim.orientation_hint = m.orientation_at_ap;
                let payload_s = m.payload_s()?;
                // The payload starts once the plan lands and the transmit
                // front-end is configured. AP compute latency is AP-side:
                // the node's energy ledger ticks airtime only.
                let start_ps = now_ps
                    + self.service.stage_latency_ps(StageKind::Plan)
                    + self.service.stage_latency_ps(StageKind::Transmit);
                out.post_at(start_ps, self.node, SessionEvent::PayloadStart);
                out.post_at(start_ps, self.me, SessionEvent::PayloadTransfer);
                out.post_at(
                    start_ps + secs_to_ps(payload_s),
                    self.node,
                    SessionEvent::PayloadEnd,
                );
            }
            SessionEvent::PayloadTransfer => {
                let delivered = match m.decoded_direction {
                    Some(LinkDirection::Downlink) => {
                        let o = m.sim.downlink(&m.packet.payload, m.rng)?;
                        (o.decoded, o.ber)
                    }
                    Some(LinkDirection::Uplink) => {
                        let o = m.sim.uplink(&m.packet.payload, m.rng)?;
                        (o.decoded, o.ber)
                    }
                    None => {
                        return Err(MilbackError::Protocol(
                            "payload transfer before direction decode".into(),
                        ))
                    }
                };
                m.delivered = Some(delivered);
            }
            _ => {
                return Err(MilbackError::Engine(format!(
                    "AP actor received node event {event:?}"
                )))
            }
        }
        Ok(())
    }
}

/// The session runner.
#[derive(Debug, Clone)]
pub struct Session {
    /// System configuration.
    pub config: SystemConfig,
    /// Scene (first node is the partner).
    pub scene: Scene,
    /// The localization pipeline every packet captures through, built from
    /// `config` and `scene` on the first packet. The node's pose holds
    /// still for the whole session, so its pose-static capture tables are
    /// computed once and every later packet reuses them (bit-identical
    /// with a fresh pipeline per packet). Changing `config` or `scene`
    /// after a packet does not rebuild it; build a new session instead.
    /// Boxed so an unused session stays as small to build and move as
    /// one without it.
    pipeline: OnceLock<Box<LocalizationPipeline>>,
}

impl Session {
    /// Creates a session runner.
    pub fn new(config: SystemConfig, scene: Scene) -> Result<Self> {
        config.validate()?;
        if scene.nodes.is_empty() {
            return Err(MilbackError::Config("session needs a node".into()));
        }
        Ok(Self {
            config,
            scene,
            pipeline: OnceLock::new(),
        })
    }

    /// The session's pipeline, built on first use.
    fn pipeline(&self) -> Result<&LocalizationPipeline> {
        if let Some(pipeline) = self.pipeline.get() {
            return Ok(pipeline);
        }
        let pipeline = LocalizationPipeline::new(self.config.clone(), self.scene.clone())?;
        Ok(self.pipeline.get_or_init(|| Box::new(pipeline)))
    }

    /// Runs one complete packet on the discrete-event engine. The AP plans
    /// carriers from its *own* Field-2 orientation estimate (never ground
    /// truth); the node decodes the direction from the Field-1 burst count
    /// and runs its firmware state machine through the whole exchange.
    pub fn run_packet(&self, packet: &Packet, rng: &mut GaussianSource) -> Result<SessionReport> {
        let mut probe = CampaignProbe::disabled();
        self.run_packet_with(packet, rng, &ApServiceConfig::instantaneous(), &mut probe)
    }

    /// [`run_packet`](Self::run_packet) under an explicit
    /// [`ApServiceConfig`] and with an instrumentation probe.
    ///
    /// The AP's Field-2 processing, carrier planning, and transmit setup
    /// each cost their configured stage latency, so the payload starts
    /// `total_latency_ps` later than the instantaneous timeline. The
    /// physics and the RNG draw order are unchanged — only event
    /// timestamps shift — so the report is identical up to the session
    /// clock.
    ///
    /// When tracing, every dispatched session event is recorded
    /// `(time_ps, seq, actor, kind)`; metrics count dispatches, mode
    /// switches, and the node energy draw. The probe copies values the
    /// session already computed and can never perturb it.
    pub fn run_packet_with(
        &self,
        packet: &Packet,
        rng: &mut GaussianSource,
        service: &ApServiceConfig,
        probe: &mut CampaignProbe,
    ) -> Result<SessionReport> {
        let pipeline = self.pipeline()?;
        let fsa_before = pipeline.gain_eval.stats();
        let sim = LinkSimulator::new(self.config.clone(), self.scene.clone())?;
        let medium = SessionMedium {
            pipeline,
            sim,
            rng,
            packet,
            field1_chirp_s: self.config.fmcw.field1_chirp_s,
            chirp_interval_s: self.config.fmcw.chirp_interval_s,
            downlink_symbol_rate_hz: self.config.downlink_symbol_rate_hz,
            uplink_symbol_rate_hz: self.config.uplink_symbol_rate_hz,
            toggle: ToggleSchedule {
                rate_hz: self.config.localization_toggle_hz,
                initial: PortMode::Reflective,
            },
            orientation_at_node: None,
            decoded_direction: None,
            fix: None,
            orientation_at_ap: None,
            delivered: None,
            node_energy_j: 0.0,
            mode_switches: 0,
        };
        let mut engine = Engine::new(medium);
        if let Some(sink) = &probe.trace {
            engine.set_tracer(sink.clone(), |ev| match ev {
                SessionEvent::Field1Burst => "field1_burst",
                SessionEvent::Field1Gap => "field1_gap",
                SessionEvent::Field2Start => "field2_start",
                SessionEvent::ToggleMode => "toggle_mode",
                SessionEvent::Field2Process => "field2_process",
                SessionEvent::PlanCarriers => "plan_carriers",
                SessionEvent::PayloadStart => "payload_start",
                SessionEvent::PayloadTransfer => "payload_transfer",
                SessionEvent::PayloadEnd => "payload_end",
            });
        }
        let node = engine.add_actor(Box::new(NodeActor {
            me: ActorId(0),
            firmware: Firmware::new(NodePowerModel::milback_default()),
        }));
        let ap = engine.add_actor(Box::new(ApActor {
            me: ActorId(1),
            node,
            service: *service,
        }));
        debug_assert_eq!((node, ap), (ActorId(0), ActorId(1)));

        // Script the §7 preamble; the payload schedule is posted by the AP
        // once it has planned carriers.
        let chirp_ps = secs_to_ps(self.config.fmcw.field1_chirp_s);
        let bursts = packet.direction.field1_chirp_count();
        for k in 0..bursts {
            engine.post(k as TimePs * chirp_ps, node, SessionEvent::Field1Burst);
        }
        engine.post(bursts as TimePs * chirp_ps, node, SessionEvent::Field1Gap);
        let preamble_ps = packet.preamble_duration_ps(&self.config.fmcw);
        let field2_ps = secs_to_ps(5.0 * self.config.fmcw.chirp_interval_s);
        engine.post(preamble_ps - field2_ps, node, SessionEvent::Field2Start);
        engine.post(preamble_ps, ap, SessionEvent::Field2Process);
        let stats = engine.run()?;

        let m = engine.into_medium();
        let decoded_direction = m
            .decoded_direction
            .ok_or_else(|| MilbackError::Protocol("session ended before Field 1".into()))?;
        let (delivered, ber) = m
            .delivered
            .ok_or_else(|| MilbackError::Protocol("session ended before the payload".into()))?;
        let symbol_rate = match decoded_direction {
            LinkDirection::Downlink => self.config.downlink_symbol_rate_hz,
            LinkDirection::Uplink => self.config.uplink_symbol_rate_hz,
        };
        probe.inc("session_events", stats.events_dispatched as u64);
        probe.inc("mode_switches", m.mode_switches as u64);
        probe.observe(
            "session_node_energy_j",
            crate::telemetry::ENERGY_BUCKETS_J,
            m.node_energy_j,
        );
        // This packet's FSA traffic through the session's pipeline (its
        // evaluator serves every packet, so take the difference; it is zero
        // once the capture tables are warm), and the Field-2 chirp stack
        // the FMCW detector batched (five chirps by protocol, §5.1).
        probe.record_fsa_stats(&m.pipeline.gain_eval.stats().since(&fsa_before));
        probe.observe_fmcw_batch(5);
        // Consistency guards: the node decoded what the AP signalled, and
        // the engine clock closed exactly at the packet's airtime plus the
        // AP's end-to-end service latency (zero on the instantaneous path).
        debug_assert_eq!(decoded_direction, packet.direction);
        debug_assert_eq!(
            stats.end_time_ps,
            packet.duration_ps(&self.config.fmcw, symbol_rate) + service.total_latency_ps()
        );
        Ok(SessionReport {
            fix: m
                .fix
                .ok_or_else(|| MilbackError::Protocol("session ended before Field 2".into()))?,
            orientation_at_ap: m.orientation_at_ap.unwrap_or(f64::NAN),
            orientation_at_node: m.orientation_at_node.unwrap_or(f64::NAN),
            decoded_direction,
            delivered,
            ber,
            airtime_s: packet.duration_s(&self.config.fmcw, symbol_rate),
            node_energy_j: m.node_energy_j,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(d: f64, orient_deg: f64) -> Session {
        Session::new(
            SystemConfig::milback_default(),
            Scene::indoor(d, orient_deg.to_radians()),
        )
        .unwrap()
    }

    #[test]
    fn downlink_session_end_to_end() {
        let s = session(3.0, 12.0);
        let mut rng = GaussianSource::new(0x5E5);
        let packet = Packet::downlink(b"session payload".to_vec());
        let report = s.run_packet(&packet, &mut rng).unwrap();
        assert_eq!(report.decoded_direction, LinkDirection::Downlink);
        assert_eq!(report.delivered, b"session payload");
        assert_eq!(report.ber, 0.0);
        assert!((report.fix.range_m - 3.0).abs() < 0.1);
        let gt = s.scene.ground_truth(0);
        assert!(
            (report.orientation_at_ap - gt.incidence_rad)
                .abs()
                .to_degrees()
                < 4.0
        );
        assert!(
            (report.orientation_at_node - gt.incidence_rad)
                .abs()
                .to_degrees()
                < 4.0
        );
        assert!(report.node_energy_j > 0.0);
        assert!(report.airtime_s > 635e-6);
    }

    #[test]
    fn uplink_session_end_to_end() {
        let s = session(3.0, 12.0);
        let mut rng = GaussianSource::new(0x5E6);
        let packet = Packet::uplink(b"node says hi".to_vec());
        let report = s.run_packet(&packet, &mut rng).unwrap();
        assert_eq!(report.decoded_direction, LinkDirection::Uplink);
        assert_eq!(report.delivered, b"node says hi");
    }

    /// FNV-1a fold of every report field's bits and of the RNG position
    /// after the packet (one Gaussian and one uniform drawn from a clone).
    fn fold_report(h: &mut u64, r: &SessionReport, rng: &GaussianSource) {
        let mut probe = rng.clone();
        let direction = match r.decoded_direction {
            LinkDirection::Uplink => 1,
            LinkDirection::Downlink => 2,
        };
        let fields = [
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
            probe.standard(),
            probe.uniform(0.0, 1.0),
        ];
        let words = fields
            .iter()
            .map(|x| x.to_bits())
            .chain([direction, r.delivered.len() as u64])
            .chain(r.delivered.iter().map(|&b| u64::from(b)));
        for w in words {
            for b in w.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    #[test]
    fn engine_reports_match_recorded_digest() {
        // Recorded while the synchronous pre-engine call tree still stood
        // beside the engine as a parity reference (the two agreed bit for
        // bit): every report field and the RNG position after each packet.
        let s = session(3.0, 12.0);
        let mut h = 0xcbf2_9ce4_8422_2325;
        for (seed, packet) in [
            (0xA11CE, Packet::downlink(b"parity downlink".to_vec())),
            (0xB0B, Packet::uplink(b"parity uplink".to_vec())),
            (7, Packet::downlink(vec![])),
            (8, Packet::uplink(vec![0xFF; 128])),
        ] {
            let mut rng = GaussianSource::new(seed);
            let report = s.run_packet(&packet, &mut rng).unwrap();
            fold_report(&mut h, &report, &rng);
        }
        assert_eq!(h, 5_019_211_240_815_171_924, "session report digest moved");
    }

    #[test]
    fn service_latency_shifts_the_clock_but_not_the_physics() {
        // Nonzero AP stage latencies delay the payload schedule (the
        // end-of-run clock guard inside the runner checks the exact
        // shift) but draw no randomness and change no physics — the
        // report is identical to the instantaneous run.
        let s = session(3.0, 12.0);
        let packet = Packet::downlink(b"staged session".to_vec());
        let mut rng_a = GaussianSource::new(0xC0FFEE);
        let mut rng_b = GaussianSource::new(0xC0FFEE);
        let instant = s.run_packet(&packet, &mut rng_a).unwrap();
        let staged = s
            .run_packet_with(
                &packet,
                &mut rng_b,
                &ApServiceConfig::instantaneous()
                    .with_stage_latencies(1_000_000, 2_000_000, 3_000_000),
                &mut CampaignProbe::disabled(),
            )
            .unwrap();
        assert_eq!(instant, staged);
        assert_eq!(rng_a.sample(1.0).to_bits(), rng_b.sample(1.0).to_bits());
    }

    #[test]
    fn engine_advances_rng_to_recorded_position() {
        // After a packet the shared stream must sit where the pre-engine
        // call tree left it (recorded beside it): duty cycles interleave
        // packets on one stream.
        let s = session(2.5, 8.0);
        let packet = Packet::downlink(vec![1, 2, 3, 4]);
        let mut rng = GaussianSource::new(99);
        s.run_packet(&packet, &mut rng).unwrap();
        assert_eq!(
            (rng.sample(1.0).to_bits(), rng.uniform(0.0, 1.0).to_bits()),
            (13_830_415_639_035_622_316, 4_595_429_371_516_062_708),
            "RNG position after a packet moved"
        );
    }

    #[test]
    fn warm_session_matches_a_fresh_one() {
        // After k packets the session's capture tables are warm; a new
        // stream must still give the report and RNG position a fresh
        // session gives, in both directions and under no impairments.
        let warm = session(3.0, 12.0);
        let mut rng = GaussianSource::new(0x3A3);
        for k in 0..3u8 {
            warm.run_packet(&Packet::uplink(vec![k; 8]), &mut rng)
                .unwrap();
        }
        for (seed, packet) in [
            (0xC01D, Packet::downlink(b"warm or cold".to_vec())),
            (0xC01E, Packet::uplink(b"warm or cold".to_vec())),
        ] {
            let fresh = session(3.0, 12.0);
            let mut rng_w = GaussianSource::new(seed);
            let mut rng_f = GaussianSource::new(seed);
            let (mut h_w, mut h_f) = (0, 0);
            let r = warm.run_packet(&packet, &mut rng_w).unwrap();
            fold_report(&mut h_w, &r, &rng_w);
            let r = fresh.run_packet(&packet, &mut rng_f).unwrap();
            fold_report(&mut h_f, &r, &rng_f);
            assert_eq!(h_w, h_f, "warm session diverged for seed {seed:#x}");
        }
    }

    #[test]
    fn fsa_counters_are_per_packet() {
        // The session's evaluator serves every packet. The first packet
        // builds the capture tables (batch evaluations, no memo traffic);
        // later packets read the tables and query the evaluator not at all.
        let s = session(3.0, 12.0);
        let mut rng = GaussianSource::new(0xF5A);
        let mut packet_counters = || {
            let mut probe = CampaignProbe::with_metrics();
            s.run_packet_with(
                &Packet::uplink(vec![7; 16]),
                &mut rng,
                &ApServiceConfig::instantaneous(),
                &mut probe,
            )
            .unwrap();
            let m = probe.take_metrics().unwrap();
            [
                "fsa_freq_hits",
                "fsa_freq_misses",
                "fsa_gain_hits",
                "fsa_gain_misses",
                "fsa_batch_points",
            ]
            .map(|name| m.counter(name))
        };
        let first = packet_counters();
        let second = packet_counters();
        assert!(first[4] > 0, "packet 1 built no tables: {first:?}");
        assert_eq!(second, [0; 5], "packet 2 queried the evaluator");
    }

    #[test]
    fn duty_cycle_alternates() {
        let s = session(2.0, 10.0);
        let mut rng = GaussianSource::new(0x5E7);
        let packets = [
            Packet::downlink(vec![1, 2, 3, 4]),
            Packet::uplink(vec![5, 6, 7, 8]),
            Packet::downlink(vec![9, 10, 11, 12]),
        ];
        let reports: Vec<SessionReport> = packets
            .iter()
            .map(|p| s.run_packet(p, &mut rng).unwrap())
            .collect();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].delivered, vec![1, 2, 3, 4]);
        assert_eq!(reports[1].delivered, vec![5, 6, 7, 8]);
        assert_eq!(reports[2].delivered, vec![9, 10, 11, 12]);
        // Uplink packets cost more node energy per second of payload, but
        // these payloads are tiny so preamble dominates; just check all
        // ledgers are positive and sane.
        for r in &reports {
            assert!(r.node_energy_j > 0.0 && r.node_energy_j < 1e-3);
        }
    }

    #[test]
    fn session_requires_a_node() {
        let mut scene = Scene::single_node(2.0, 0.0);
        scene.nodes.clear();
        assert!(Session::new(SystemConfig::milback_default(), scene).is_err());
    }
}

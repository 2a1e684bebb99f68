//! The full packet session: the §7 protocol executed end-to-end against a
//! scene — Field 1 (node senses orientation + direction), Field 2 (AP
//! localizes + senses orientation from one capture), payload (uplink or
//! downlink with carriers planned from the AP's own estimate), with both
//! sides' state and the node's energy ledger accounted.
//!
//! This is the "network runtime" layer the lower modules compose into: one
//! call runs everything the paper's Fig 8 timeline describes. A packet is a
//! fixed sequence between one node and one AP, so [`Session::run_packet`]
//! walks it in protocol order: each firmware transition dwells for its
//! field's airtime, and all randomness flows through the one per-trial
//! stream the caller passes.

use crate::config::SystemConfig;
use crate::error::{MilbackError, Result};
use crate::link::LinkSimulator;
use crate::localization::{LocalizationPipeline, LocationFix};
use crate::protocol::Packet;
use crate::scene::Scene;
use milback_ap::waveform::LinkDirection;
use milback_node::firmware::{Direction, Event as FwEvent, Firmware, State as FwState};
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

    /// Runs one complete packet. The AP plans carriers from its *own*
    /// Field-2 orientation estimate (never ground truth); the node decodes
    /// the direction from the Field-1 burst count and runs its firmware
    /// state machine through the whole exchange.
    pub fn run_packet(&self, packet: &Packet, rng: &mut GaussianSource) -> Result<SessionReport> {
        let pipeline = self.pipeline()?;
        let fmcw = &self.config.fmcw;
        let mut firmware = Firmware::new(NodePowerModel::milback_default());

        // Field 1: one triangular burst per counted chirp, then the gap in
        // which the node reads its detectors and decodes the count.
        for _ in 0..packet.direction.field1_chirp_count() {
            firmware.step(FwEvent::BurstStart, fmcw.field1_chirp_s)?;
        }
        let orientation_at_node = pipeline.orient_at_node(rng)?;
        let decoded_direction = match firmware.handle(FwEvent::Field1GapTimeout)? {
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
        };
        debug_assert_eq!(decoded_direction, packet.direction);

        // Field 2: the node toggles port A through the five-chirp sawtooth
        // train, port B parked absorptive, while the AP captures it once,
        // localizes, and senses orientation.
        firmware.step(FwEvent::BurstStart, 5.0 * fmcw.chirp_interval_s)?;
        let (fix, orientation_at_ap) = pipeline.field2(rng)?;

        // Payload: carriers planned from the AP's *estimate*, never ground
        // truth — the closed loop the protocol actually runs.
        let symbol_rate_hz = match decoded_direction {
            LinkDirection::Downlink => self.config.downlink_symbol_rate_hz,
            LinkDirection::Uplink => self.config.uplink_symbol_rate_hz,
        };
        let mut sim = LinkSimulator::new(self.config.clone(), self.scene.clone())?;
        sim.orientation_hint = Some(orientation_at_ap);
        firmware.step(
            FwEvent::Field2Complete,
            packet.payload_duration_s(symbol_rate_hz),
        )?;
        let (delivered, ber) = match decoded_direction {
            LinkDirection::Downlink => {
                let o = sim.downlink(&packet.payload, rng)?;
                (o.decoded, o.ber)
            }
            LinkDirection::Uplink => {
                let o = sim.uplink(&packet.payload, rng)?;
                (o.decoded, o.ber)
            }
        };
        firmware.handle(FwEvent::PayloadComplete)?;

        Ok(SessionReport {
            fix,
            orientation_at_ap,
            orientation_at_node,
            decoded_direction,
            delivered,
            ber,
            airtime_s: packet.duration_s(fmcw, symbol_rate_hz),
            node_energy_j: firmware.energy_j(),
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
        // Every report field and the RNG position after each packet, pinned
        // when a packet went to one Field-2 capture (the public-call walk
        // in `tests/end_to_end.rs` checks the same packet independently).
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
        assert_eq!(h, 15_461_444_202_544_513_610, "session report digest moved");
    }

    #[test]
    fn engine_advances_rng_to_recorded_position() {
        // After a packet the shared stream must sit where the recorded
        // one-capture walk left it: duty cycles interleave packets on one
        // stream.
        let s = session(2.5, 8.0);
        let packet = Packet::downlink(vec![1, 2, 3, 4]);
        let mut rng = GaussianSource::new(99);
        s.run_packet(&packet, &mut rng).unwrap();
        assert_eq!(
            (rng.sample(1.0).to_bits(), rng.uniform(0.0, 1.0).to_bits()),
            (4_601_938_328_743_060_427, 4_601_640_174_680_518_146),
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
        let mut packet_stats = || {
            let before = s.pipeline().unwrap().gain_eval.stats();
            s.run_packet(&Packet::uplink(vec![7; 16]), &mut rng)
                .unwrap();
            s.pipeline().unwrap().gain_eval.stats().since(&before)
        };
        let first = packet_stats();
        let second = packet_stats();
        assert!(
            first.batch_points > 0,
            "packet 1 built no tables: {first:?}"
        );
        assert_eq!(second, Default::default(), "packet 2 queried the evaluator");
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

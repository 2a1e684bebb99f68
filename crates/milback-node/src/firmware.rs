//! Node firmware: the MCU's state machine through a MilBack packet (§7).
//!
//! The node free-runs until it sees Field-1 energy, counts the triangular
//! chirp bursts to learn the payload direction (3 = it will talk, 2 = it
//! will listen), estimates its orientation from the same bursts, toggles
//! through Field 2 so the AP can localize it, then runs the payload in the
//! signalled direction. This module encodes those transitions explicitly —
//! with illegal transitions rejected rather than silently absorbed — plus
//! the per-state energy ledger.

use crate::power::{NodeActivity, NodePowerModel};
use serde::{Deserialize, Serialize};

/// Payload direction (mirror of the AP-side type, kept node-local so the
/// firmware crate stands alone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Node transmits during the payload.
    Uplink,
    /// Node receives during the payload.
    Downlink,
}

/// Firmware states through one packet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum State {
    /// Waiting for Field-1 energy, detectors biased.
    Idle,
    /// Counting Field-1 bursts, both ports absorptive.
    SensingField1 {
        /// Bursts seen so far.
        bursts: usize,
    },
    /// Field-1 complete: direction known, orientation estimated.
    Field1Done {
        /// The signalled payload direction.
        direction: Direction,
    },
    /// Toggling through Field 2 for AP-side localization.
    Field2Toggling {
        /// The direction to enter after Field 2.
        direction: Direction,
    },
    /// Receiving a downlink payload.
    ReceivingPayload,
    /// Backscattering an uplink payload.
    TransmittingPayload,
    /// Packet complete; ready to return to Idle.
    PacketDone,
}

/// Events the firmware reacts to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// Detector energy rose above the wake threshold (a burst started).
    BurstStart,
    /// A quiet gap longer than one chirp elapsed (Field 1 ended).
    Field1GapTimeout,
    /// The Field-2 chirp train completed (fixed count, timed).
    Field2Complete,
    /// The payload completed (length is predefined, §7).
    PayloadComplete,
    /// Return to idle.
    Reset,
}

/// Errors from illegal transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionError {
    /// State the event arrived in.
    pub state_name: &'static str,
    /// The offending event.
    pub event: Event,
}

// `core::fmt` so the firmware compiles without `std` (the workspace MSRV
// predates `core::error::Error`, so the `Error` impl stays std-gated).
impl core::fmt::Display for TransitionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "event {:?} is illegal in state {}",
            self.event, self.state_name
        )
    }
}

#[cfg(feature = "std")]
impl std::error::Error for TransitionError {}

/// The firmware with its energy ledger.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Firmware {
    state: State,
    power: NodePowerModel,
    energy_j: f64,
    packets_received: usize,
    packets_sent: usize,
}

impl Firmware {
    /// Boots the firmware in `Idle`.
    pub fn new(power: NodePowerModel) -> Self {
        Self {
            state: State::Idle,
            power,
            energy_j: 0.0,
            packets_received: 0,
            packets_sent: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> State {
        self.state
    }

    /// Total energy consumed so far, joules.
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Packets received / transmitted so far.
    pub fn packet_counts(&self) -> (usize, usize) {
        (self.packets_received, self.packets_sent)
    }

    /// The node activity (for the power model) of the current state.
    pub fn activity(&self) -> NodeActivity {
        match self.state {
            State::Idle | State::PacketDone => NodeActivity::Idle,
            State::SensingField1 { .. } | State::Field1Done { .. } => NodeActivity::Downlink,
            State::Field2Toggling { .. } => NodeActivity::Localization {
                toggle_rate_hz: 10e3,
            },
            State::ReceivingPayload => NodeActivity::Downlink,
            State::TransmittingPayload => NodeActivity::Uplink,
        }
    }

    /// Accumulates energy for `dt` seconds in the current state.
    pub(crate) fn tick(&mut self, dt_s: f64) {
        assert!(dt_s >= 0.0);
        self.energy_j += self.power.power_w(self.activity()) * dt_s;
    }

    fn state_name(&self) -> &'static str {
        match self.state {
            State::Idle => "Idle",
            State::SensingField1 { .. } => "SensingField1",
            State::Field1Done { .. } => "Field1Done",
            State::Field2Toggling { .. } => "Field2Toggling",
            State::ReceivingPayload => "ReceivingPayload",
            State::TransmittingPayload => "TransmittingPayload",
            State::PacketDone => "PacketDone",
        }
    }

    /// Drives one event through the state machine.
    pub fn handle(&mut self, event: Event) -> Result<State, TransitionError> {
        use Event::*;
        use State::*;
        let next = match (self.state, event) {
            (Idle, BurstStart) => SensingField1 { bursts: 1 },
            (SensingField1 { bursts }, BurstStart) => SensingField1 { bursts: bursts + 1 },
            (SensingField1 { bursts }, Field1GapTimeout) => match bursts {
                3 => Field1Done {
                    direction: Direction::Uplink,
                },
                2 => Field1Done {
                    direction: Direction::Downlink,
                },
                _ => {
                    // Unknown burst count: abandon the packet.
                    Idle
                }
            },
            // Field 2 begins immediately after Field 1 (the AP's sawtooth
            // train reads as the next burst).
            (Field1Done { direction }, BurstStart) => Field2Toggling { direction },
            (Field2Toggling { direction }, Field2Complete) => match direction {
                Direction::Downlink => ReceivingPayload,
                Direction::Uplink => TransmittingPayload,
            },
            (ReceivingPayload, PayloadComplete) => {
                self.packets_received += 1;
                PacketDone
            }
            (TransmittingPayload, PayloadComplete) => {
                self.packets_sent += 1;
                PacketDone
            }
            (_, Reset) => Idle, // reset is always legal, from any state
            (_, ev) => {
                return Err(TransitionError {
                    state_name: self.state_name(),
                    event: ev,
                })
            }
        };
        self.state = next;
        Ok(next)
    }

    /// Drives `event`, then dwells `dwell_s` seconds in the state the
    /// event produced.
    ///
    /// The event marks a boundary on the protocol timeline and the dwell
    /// is the field's airtime until the next one. The ledger accumulates
    /// in the same order as `handle` then `tick`, which the packet
    /// session's recorded energy digests depend on.
    pub fn step(&mut self, event: Event, dwell_s: f64) -> Result<State, TransitionError> {
        let next = self.handle(event)?;
        self.tick(dwell_s);
        Ok(next)
    }

    /// Convenience: runs a full packet's event sequence for a direction,
    /// ticking the energy ledger with the §7/§8 durations.
    ///
    /// `payload_s` is the payload airtime.
    pub fn run_packet(
        &mut self,
        direction: Direction,
        payload_s: f64,
    ) -> Result<(), TransitionError> {
        let bursts = match direction {
            Direction::Uplink => 3,
            Direction::Downlink => 2,
        };
        for _ in 0..bursts {
            self.handle(Event::BurstStart)?;
            self.tick(45e-6);
        }
        self.handle(Event::Field1GapTimeout)?;
        self.handle(Event::BurstStart)?; // Field 2 begins
        self.tick(5.0 * 100e-6);
        self.handle(Event::Field2Complete)?;
        self.tick(payload_s);
        self.handle(Event::PayloadComplete)?;
        self.handle(Event::Reset)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fw() -> Firmware {
        Firmware::new(NodePowerModel::milback_default())
    }

    #[test]
    fn downlink_packet_walkthrough() {
        let mut f = fw();
        f.handle(Event::BurstStart).unwrap();
        f.handle(Event::BurstStart).unwrap();
        assert_eq!(f.state(), State::SensingField1 { bursts: 2 });
        f.handle(Event::Field1GapTimeout).unwrap();
        assert_eq!(
            f.state(),
            State::Field1Done {
                direction: Direction::Downlink
            }
        );
        f.handle(Event::BurstStart).unwrap();
        assert_eq!(
            f.state(),
            State::Field2Toggling {
                direction: Direction::Downlink
            }
        );
        f.handle(Event::Field2Complete).unwrap();
        assert_eq!(f.state(), State::ReceivingPayload);
        f.handle(Event::PayloadComplete).unwrap();
        assert_eq!(f.state(), State::PacketDone);
        assert_eq!(f.packet_counts(), (1, 0));
    }

    #[test]
    fn uplink_signalled_by_three_bursts() {
        let mut f = fw();
        for _ in 0..3 {
            f.handle(Event::BurstStart).unwrap();
        }
        f.handle(Event::Field1GapTimeout).unwrap();
        assert_eq!(
            f.state(),
            State::Field1Done {
                direction: Direction::Uplink
            }
        );
        f.handle(Event::BurstStart).unwrap();
        f.handle(Event::Field2Complete).unwrap();
        assert_eq!(f.state(), State::TransmittingPayload);
    }

    #[test]
    fn unknown_burst_count_abandons_packet() {
        let mut f = fw();
        for _ in 0..5 {
            f.handle(Event::BurstStart).unwrap();
        }
        f.handle(Event::Field1GapTimeout).unwrap();
        assert_eq!(f.state(), State::Idle);
    }

    #[test]
    fn illegal_transitions_are_rejected() {
        let mut f = fw();
        let err = f.handle(Event::PayloadComplete).unwrap_err();
        assert_eq!(err.state_name, "Idle");
        assert!(err.to_string().contains("illegal"));
        // State unchanged after the error.
        assert_eq!(f.state(), State::Idle);
    }

    #[test]
    fn reset_is_always_legal() {
        let mut f = fw();
        f.handle(Event::BurstStart).unwrap();
        f.handle(Event::Reset).unwrap();
        assert_eq!(f.state(), State::Idle);
    }

    #[test]
    fn energy_ledger_matches_power_model() {
        let mut f = fw();
        // One second of downlink payload:
        f.run_packet(Direction::Downlink, 1.0).unwrap();
        // Dominated by 1 s at 18 mW.
        assert!((f.energy_j() - 18e-3).abs() < 1e-3, "{:.4} J", f.energy_j());

        let mut g = fw();
        g.run_packet(Direction::Uplink, 1.0).unwrap();
        assert!((g.energy_j() - 32e-3).abs() < 1e-3, "{:.4} J", g.energy_j());
        assert!(g.energy_j() > f.energy_j());
    }

    #[test]
    fn step_matches_handle_then_tick() {
        let mut a = fw();
        let mut b = fw();
        a.handle(Event::BurstStart).unwrap();
        a.tick(45e-6);
        b.step(Event::BurstStart, 45e-6).unwrap();
        assert_eq!(a.state(), b.state());
        assert_eq!(a.energy_j().to_bits(), b.energy_j().to_bits());
        // A zero dwell leaves the ledger bit-identical.
        let before = b.energy_j().to_bits();
        b.step(Event::BurstStart, 0.0).unwrap();
        assert_eq!(b.energy_j().to_bits(), before);
    }

    #[test]
    fn run_packet_counts_both_directions() {
        let mut f = fw();
        f.run_packet(Direction::Downlink, 1e-3).unwrap();
        f.run_packet(Direction::Uplink, 1e-3).unwrap();
        f.run_packet(Direction::Uplink, 1e-3).unwrap();
        assert_eq!(f.packet_counts(), (1, 2));
    }

    #[test]
    fn activities_map_to_power_states() {
        let mut f = fw();
        assert_eq!(f.activity(), NodeActivity::Idle);
        f.handle(Event::BurstStart).unwrap();
        assert_eq!(f.activity(), NodeActivity::Downlink);
        f.handle(Event::BurstStart).unwrap();
        f.handle(Event::BurstStart).unwrap();
        f.handle(Event::Field1GapTimeout).unwrap();
        f.handle(Event::BurstStart).unwrap();
        assert!(matches!(f.activity(), NodeActivity::Localization { .. }));
        f.handle(Event::Field2Complete).unwrap();
        assert_eq!(f.activity(), NodeActivity::Uplink);
    }
}

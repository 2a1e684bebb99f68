//! Port operating modes.
//!
//! Each FSA port sits behind an SPDT switch that connects it either to the
//! ground plane (**reflective**: the beam retro-reflects the AP's signal)
//! or to an envelope detector (**absorptive**: the beam's energy is
//! delivered to the 50 Ω-matched detector and nothing reflects) — §4.

use serde::{Deserialize, Serialize};

/// The state of one FSA port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortMode {
    /// Port shorted to ground: incident energy at this beam reflects back.
    Reflective,
    /// Port terminated in the envelope detector: energy is absorbed and
    /// measured.
    Absorptive,
}

/// Joint state of the two ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PortStates {
    /// Port A state.
    pub a: PortMode,
    /// Port B state.
    pub b: PortMode,
}

impl PortStates {
    /// Both ports absorptive (downlink reception / node-side orientation).
    pub fn both_absorptive() -> Self {
        Self {
            a: PortMode::Absorptive,
            b: PortMode::Absorptive,
        }
    }

    /// Both ports reflective (strongest localization echo).
    pub fn both_reflective() -> Self {
        Self {
            a: PortMode::Reflective,
            b: PortMode::Reflective,
        }
    }

    /// The port states encoding an OAQFM uplink symbol: a present tone is
    /// *reflected* (§6.3 — reflect f_A to send the `1` in the A position).
    pub fn for_uplink_symbol(sym: mmwave_sigproc::OaqfmSymbol) -> Self {
        let refl = |on: bool| {
            if on {
                PortMode::Reflective
            } else {
                PortMode::Absorptive
            }
        };
        Self {
            a: refl(sym.tone_a),
            b: refl(sym.tone_b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_sigproc::OaqfmSymbol;

    #[test]
    fn uplink_symbol_mapping() {
        let s = PortStates::for_uplink_symbol(OaqfmSymbol::from_bits(0b10));
        assert_eq!(s.a, PortMode::Reflective);
        assert_eq!(s.b, PortMode::Absorptive);
        let s11 = PortStates::for_uplink_symbol(OaqfmSymbol::from_bits(0b11));
        assert_eq!(s11, PortStates::both_reflective());
        let s00 = PortStates::for_uplink_symbol(OaqfmSymbol::from_bits(0b00));
        assert_eq!(s00, PortStates::both_absorptive());
    }
}

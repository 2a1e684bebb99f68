//! OAQFM uplink modulation at the node (§6.3).
//!
//! The AP transmits a continuous two-tone query; the node piggybacks its
//! data by independently flipping each port between reflective (tone
//! present in the echo) and absorptive (tone absent). All the node's
//! "transmitter" does is drive two switch control lines.

use crate::mode::PortStates;
use mmwave_rf::components::SpdtSwitch;
use mmwave_sigproc::waveform::OaqfmSymbol;
use serde::{Deserialize, Serialize};

/// Errors from the uplink modulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UplinkError {
    /// Requested symbol rate exceeds the switch toggle limit.
    RateTooHigh {
        /// Requested symbol rate, Hz.
        requested_hz: f64,
        /// The switches' maximum toggle rate, Hz.
        max_hz: f64,
    },
}

impl std::fmt::Display for UplinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UplinkError::RateTooHigh {
                requested_hz,
                max_hz,
            } => write!(
                f,
                "symbol rate {requested_hz:.3e} Hz exceeds switch limit {max_hz:.3e} Hz"
            ),
        }
    }
}

impl std::error::Error for UplinkError {}

/// The node's uplink modulator: bits → switch-state schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UplinkModulator {
    /// Symbol rate, symbols/second (2 bits per symbol).
    pub symbol_rate_hz: f64,
}

impl UplinkModulator {
    /// Creates a modulator after validating the rate against the switch.
    ///
    /// In the worst case a port toggles once per symbol boundary, so the
    /// required switch toggle rate equals the symbol rate.
    pub fn new(symbol_rate_hz: f64, switch: &SpdtSwitch) -> Result<Self, UplinkError> {
        if !switch.supports_rate(symbol_rate_hz) {
            return Err(UplinkError::RateTooHigh {
                requested_hz: symbol_rate_hz,
                max_hz: switch.max_toggle_hz,
            });
        }
        Ok(Self { symbol_rate_hz })
    }

    /// Bit rate, bits/second (OAQFM carries 2 bits per symbol).
    pub fn bit_rate_hz(&self) -> f64 {
        2.0 * self.symbol_rate_hz
    }

    /// Maps symbols directly to port states.
    pub fn schedule_for_symbols(&self, symbols: &[OaqfmSymbol]) -> Vec<PortStates> {
        symbols
            .iter()
            .copied()
            .map(PortStates::for_uplink_symbol)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::PortMode;
    use mmwave_sigproc::waveform::bytes_to_symbols;

    fn switch() -> SpdtSwitch {
        SpdtSwitch::adrf5020()
    }

    #[test]
    fn paper_rates_are_accepted() {
        // 10 Mbps and 40 Mbps (Fig 15) → 5 and 20 Msym/s.
        assert!(UplinkModulator::new(5e6, &switch()).is_ok());
        assert!(UplinkModulator::new(20e6, &switch()).is_ok());
        // Max rate 160 Mbps → 80 Msym/s also fits the 160 MHz switch.
        assert!(UplinkModulator::new(80e6, &switch()).is_ok());
    }

    #[test]
    fn excessive_rate_rejected() {
        let err = UplinkModulator::new(200e6, &switch()).unwrap_err();
        match err {
            UplinkError::RateTooHigh {
                requested_hz,
                max_hz,
            } => {
                assert_eq!(requested_hz, 200e6);
                assert_eq!(max_hz, 160e6);
            }
        }
    }

    #[test]
    fn bit_rate_is_twice_symbol_rate() {
        let m = UplinkModulator::new(20e6, &switch()).unwrap();
        assert_eq!(m.bit_rate_hz(), 40e6);
    }

    #[test]
    fn schedule_encodes_bytes() {
        let m = UplinkModulator::new(5e6, &switch()).unwrap();
        // 0b10_01_11_00
        let sched = m.schedule_for_symbols(&bytes_to_symbols(&[0x9C]));
        assert_eq!(sched.len(), 4);
        assert_eq!(
            sched[0],
            PortStates {
                a: PortMode::Reflective,
                b: PortMode::Absorptive
            }
        );
        assert_eq!(
            sched[1],
            PortStates {
                a: PortMode::Absorptive,
                b: PortMode::Reflective
            }
        );
        assert_eq!(sched[2], PortStates::both_reflective());
        assert_eq!(sched[3], PortStates::both_absorptive());
    }

    #[test]
    fn error_display() {
        let e = UplinkError::RateTooHigh {
            requested_hz: 2e8,
            max_hz: 1.6e8,
        };
        assert!(e.to_string().contains("exceeds"));
    }
}

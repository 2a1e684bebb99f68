//! AP waveform generation — the Keysight VXG substitute (§8).
//!
//! Three waveform families:
//! * Field-1 **triangular** chirps (45 µs): node-side orientation sensing
//!   plus mode signalling (3 chirps = uplink, 2 chirps with a gap =
//!   downlink — §7, Fig 8),
//! * Field-2 **sawtooth** chirps (18 µs × 5): AP-side localization and
//!   orientation,
//! * **two-tone** queries / keyed tones for OAQFM payloads.

use mmwave_sigproc::waveform::Chirp;
use serde::{Deserialize, Serialize};

/// FMCW sweep configuration shared by both preamble fields.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FmcwConfig {
    /// Sweep start, Hz (26.5 GHz).
    pub start_hz: f64,
    /// Sweep bandwidth, Hz (3 GHz).
    pub bandwidth_hz: f64,
    /// Field-1 triangular chirp duration, seconds (45 µs — slower so the
    /// node's 1 MS/s ADC can follow).
    pub field1_chirp_s: f64,
    /// Field-2 sawtooth chirp duration, seconds (18 µs).
    pub field2_chirp_s: f64,
    /// Interval between consecutive Field-2 chirps, seconds — set to the
    /// node's toggle half-period so consecutive chirps see opposite states.
    pub chirp_interval_s: f64,
}

impl FmcwConfig {
    /// The paper's numbers.
    pub fn milback_default() -> Self {
        Self {
            start_hz: 26.5e9,
            bandwidth_hz: 3e9,
            field1_chirp_s: 45e-6,
            field2_chirp_s: 18e-6,
            chirp_interval_s: 100e-6,
        }
    }

    /// The Field-1 triangular chirp.
    pub fn field1_chirp(&self) -> Chirp {
        Chirp::triangular(self.start_hz, self.bandwidth_hz, self.field1_chirp_s)
    }

    /// The Field-2 sawtooth chirp.
    pub fn field2_chirp(&self) -> Chirp {
        Chirp::sawtooth(self.start_hz, self.bandwidth_hz, self.field2_chirp_s)
    }

    /// End frequency of the sweep.
    pub fn end_hz(&self) -> f64 {
        self.start_hz + self.bandwidth_hz
    }
}

/// Link direction announced by the Field-1 chirp count (§7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkDirection {
    /// Three Field-1 chirps: the payload is uplink (node talks).
    Uplink,
    /// Two Field-1 chirps with a gap: the payload is downlink (AP talks).
    Downlink,
}

impl LinkDirection {
    /// Number of Field-1 triangular chirps that signal this direction.
    pub fn field1_chirp_count(self) -> usize {
        match self {
            LinkDirection::Uplink => 3,
            LinkDirection::Downlink => 2,
        }
    }

    /// Decodes the direction from a detected chirp count.
    ///
    /// Returns `None` for counts outside the protocol.
    pub fn from_chirp_count(count: usize) -> Option<Self> {
        match count {
            3 => Some(LinkDirection::Uplink),
            2 => Some(LinkDirection::Downlink),
            _ => None,
        }
    }
}

/// A two-tone (or degenerate single-tone) carrier set for OAQFM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CarrierSet {
    /// Distinct tones aligning port A and port B beams at the AP.
    TwoTone {
        /// Port-A carrier, Hz.
        f_a: f64,
        /// Port-B carrier, Hz.
        f_b: f64,
    },
    /// Normal incidence: both beams share one frequency; fall back to
    /// single-carrier OOK (§6.2).
    SingleToneOok {
        /// The shared carrier, Hz.
        f: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper() {
        let c = FmcwConfig::milback_default();
        assert_eq!(c.start_hz, 26.5e9);
        assert_eq!(c.end_hz(), 29.5e9);
        assert_eq!(c.field1_chirp(), Chirp::triangular(26.5e9, 3e9, 45e-6));
        assert_eq!(c.field2_chirp(), Chirp::sawtooth(26.5e9, 3e9, 18e-6));
    }

    #[test]
    fn link_direction_chirp_counts() {
        assert_eq!(LinkDirection::Uplink.field1_chirp_count(), 3);
        assert_eq!(LinkDirection::Downlink.field1_chirp_count(), 2);
        assert_eq!(
            LinkDirection::from_chirp_count(3),
            Some(LinkDirection::Uplink)
        );
        assert_eq!(
            LinkDirection::from_chirp_count(2),
            Some(LinkDirection::Downlink)
        );
        assert_eq!(LinkDirection::from_chirp_count(5), None);
    }
}

//! System-wide configuration with the paper's defaults (§8).
//!
//! Every experiment in the bench harness starts from
//! [`SystemConfig::milback_default`] and overrides only what its sweep
//! varies, so the parameter provenance stays auditable in one place.

use milback_ap::txrx::ApRadio;
use milback_ap::waveform::FmcwConfig;
use milback_node::node::NodeHardware;
use mmwave_rf::channel::MirrorReflection;
use serde::{Deserialize, Serialize};

/// Full system configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemConfig {
    /// AP radio chains.
    pub ap: ApRadio,
    /// FMCW / preamble waveform parameters.
    pub fmcw: FmcwConfig,
    /// Node hardware.
    pub node: NodeHardware,
    /// The node's structural mirror reflection.
    pub mirror: MirrorReflection,
    /// Node toggle rate during localization, Hz (10 kHz).
    pub localization_toggle_hz: f64,
    /// Downlink symbol rate, symbols/second (18 Msym/s → 36 Mbps).
    pub downlink_symbol_rate_hz: f64,
    /// Uplink symbol rate, symbols/second (20 Msym/s → 40 Mbps).
    pub uplink_symbol_rate_hz: f64,
    /// Dense simulation rate for detector traces, Hz.
    pub trace_rate_hz: f64,
    /// Monte-Carlo RNG seed.
    pub seed: u64,
}

impl SystemConfig {
    /// The paper's operating point.
    pub fn milback_default() -> Self {
        Self {
            ap: ApRadio::milback_default(),
            fmcw: FmcwConfig::milback_default(),
            node: NodeHardware::milback_default(),
            mirror: MirrorReflection::milback_default(),
            localization_toggle_hz: 10e3,
            downlink_symbol_rate_hz: 18e6,
            uplink_symbol_rate_hz: 20e6,
            trace_rate_hz: 200e6,
            seed: 0x4D31_4C42, // "M1LB"
        }
    }

    /// Validates cross-parameter consistency.
    pub fn validate(&self) -> crate::error::Result<()> {
        use crate::error::MilbackError;
        if self.downlink_symbol_rate_hz > self.node.detector_a.max_symbol_rate_hz() {
            return Err(MilbackError::Config(format!(
                "downlink symbol rate {:.3e} exceeds detector limit {:.3e}",
                self.downlink_symbol_rate_hz,
                self.node.detector_a.max_symbol_rate_hz()
            )));
        }
        if self.uplink_symbol_rate_hz > self.node.switch_a.max_toggle_hz {
            return Err(MilbackError::Config(format!(
                "uplink symbol rate {:.3e} exceeds switch limit {:.3e}",
                self.uplink_symbol_rate_hz, self.node.switch_a.max_toggle_hz
            )));
        }
        if self.trace_rate_hz < 4.0 * self.downlink_symbol_rate_hz {
            return Err(MilbackError::Config(
                "trace rate must oversample the downlink by ≥4×".into(),
            ));
        }
        if self.localization_toggle_hz <= 0.0 {
            return Err(MilbackError::Config("toggle rate must be positive".into()));
        }
        Ok(())
    }

    /// Uplink bit rate, bits/second (2 bits/symbol).
    pub fn uplink_bit_rate_hz(&self) -> f64 {
        2.0 * self.uplink_symbol_rate_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SystemConfig::milback_default().validate().unwrap();
    }

    #[test]
    fn default_rates_match_paper() {
        let c = SystemConfig::milback_default();
        assert_eq!(2.0 * c.downlink_symbol_rate_hz, 36e6);
        assert_eq!(c.uplink_bit_rate_hz(), 40e6);
        assert_eq!(c.localization_toggle_hz, 10e3);
    }

    #[test]
    fn excessive_downlink_rate_rejected() {
        let mut c = SystemConfig::milback_default();
        c.downlink_symbol_rate_hz = 100e6;
        c.trace_rate_hz = 800e6;
        assert!(c.validate().is_err());
    }

    #[test]
    fn excessive_uplink_rate_rejected() {
        let mut c = SystemConfig::milback_default();
        c.uplink_symbol_rate_hz = 300e6;
        assert!(c.validate().is_err());
    }

    #[test]
    fn undersampled_trace_rejected() {
        let mut c = SystemConfig::milback_default();
        c.trace_rate_hz = 20e6;
        assert!(c.validate().is_err());
    }

    #[test]
    fn config_is_cloneable_and_stable() {
        let c = SystemConfig::milback_default();
        let c2 = c.clone();
        assert_eq!(c2.seed, c.seed);
        assert_eq!(c2.fmcw, c.fmcw);
        assert_eq!(c2.ap, c.ap);
    }
}

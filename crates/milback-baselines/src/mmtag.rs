//! The mmTag baseline \[35\] (Mazaheri, Chen, Abari — SIGCOMM 2021): the
//! first mmWave backscatter *communication* network. Uplink-only.
//!
//! mmTag's tag is a Van Atta retro-reflective array whose pair-connecting
//! transmission lines pass through RF switches: selecting between line
//! sections of different electrical length modulates the *phase* of the
//! retro-reflected wave (PSK), at 24 GHz. Retro-reflectivity removes the
//! beam-alignment problem — but because the Van Atta has no signal port
//! (§4 of the MilBack paper), there is nowhere to attach a receiver:
//! **no downlink**, and the tag cannot be FMCW-localized in mmTag's design
//! (the system gives it no localization waveform). Energy efficiency is
//! the paper's cited 2.4 nJ/bit.

use crate::capability::BackscatterSystem;
use mmwave_rf::antenna::vanatta::VanAttaArray;
use mmwave_rf::noise::ReceiverChain;
use mmwave_sigproc::units::{db_to_lin, dbm_to_watts, watts_to_dbm};
use serde::{Deserialize, Serialize};

/// The mmTag system model (reader + tag).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MmTag {
    /// The tag's Van Atta array.
    pub array: VanAttaArray,
    /// Reader TX power, dBm.
    pub reader_tx_dbm: f64,
    /// Reader antenna gain, dBi (each of TX/RX).
    pub reader_gain_dbi: f64,
    /// Carrier frequency, Hz (24 GHz ISM).
    pub carrier_hz: f64,
    /// Reader receive chain.
    pub reader_chain: ReceiverChain,
    /// Cited tag energy efficiency, J/bit.
    pub energy_per_bit_j: f64,
}

impl MmTag {
    /// The published configuration: 24 GHz, QPSK, 2.4 nJ/bit.
    pub fn published() -> Self {
        Self {
            array: VanAttaArray::new(8),
            reader_tx_dbm: 27.0,
            reader_gain_dbi: 20.0,
            carrier_hz: 24e9,
            reader_chain: ReceiverChain::milback_ap(),
            energy_per_bit_j: 2.4e-9,
        }
    }

    /// Uplink signal power at the reader RX port, dBm, at incidence
    /// `angle_rad` (flat thanks to the Van Atta).
    pub(crate) fn uplink_signal_dbm(&self, distance_m: f64, angle_rad: f64) -> f64 {
        let amp = mmwave_rf::channel::backscatter_amplitude_sqrt_w(
            dbm_to_watts(self.reader_tx_dbm),
            db_to_lin(self.reader_gain_dbi),
            db_to_lin(self.reader_gain_dbi),
            self.array.retro_gain_product_linear(angle_rad),
            // PSK preserves full reflection magnitude: modulation lives in
            // the phase, so there is no OOK-style half-swing penalty.
            1.0,
            self.carrier_hz,
            distance_m,
        );
        watts_to_dbm(amp * amp)
    }

    /// Analytic uplink SNR over the bit-rate bandwidth.
    pub fn snr_db(&self, distance_m: f64, bit_rate_hz: f64, angle_rad: f64) -> f64 {
        self.reader_chain
            .snr_db(self.uplink_signal_dbm(distance_m, angle_rad), bit_rate_hz)
    }

    /// Tag power at a bit rate (energy/bit × rate).
    pub fn tag_power_w(&self, bit_rate_hz: f64) -> f64 {
        self.energy_per_bit_j * bit_rate_hz
    }
}

impl BackscatterSystem for MmTag {
    fn name(&self) -> &'static str {
        "mmTag [35]"
    }

    fn uplink_snr_db(&self, distance_m: f64, bit_rate_hz: f64) -> Option<f64> {
        Some(self.snr_db(distance_m, bit_rate_hz, 0.0))
    }

    fn downlink_sinr_db(&self, _distance_m: f64) -> Option<f64> {
        // The Van Atta has no signal port — nothing to receive with.
        None
    }

    fn ranging_error_m(&self, _distance_m: f64) -> Option<f64> {
        // mmTag's reader is a communication receiver, not an FMCW radar.
        None
    }

    fn orientation_error_rad(&self) -> Option<f64> {
        None
    }

    fn uplink_energy_per_bit_j(&self) -> Option<f64> {
        Some(self.energy_per_bit_j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::probe_capabilities;

    #[test]
    fn capability_row_matches_table1() {
        let row = probe_capabilities(&MmTag::published());
        assert!(row.uplink);
        assert!(!row.localization && !row.downlink && !row.orientation);
    }

    #[test]
    fn retro_reflection_makes_snr_angle_insensitive() {
        let t = MmTag::published();
        let s0 = t.snr_db(4.0, 10e6, 0.0);
        let s30 = t.snr_db(4.0, 10e6, 30f64.to_radians());
        assert!(
            (s0 - s30).abs() < 1.5,
            "Van Atta should be flat: {s0} vs {s30}"
        );
    }

    #[test]
    fn snr_falls_with_distance_squared_twice() {
        let t = MmTag::published();
        let d = t.snr_db(2.0, 10e6, 0.0) - t.snr_db(4.0, 10e6, 0.0);
        assert!((d - 12.04).abs() < 0.05);
    }

    #[test]
    fn energy_efficiency_is_three_times_milback() {
        // §9.6: MilBack 0.8 nJ/bit vs mmTag 2.4 nJ/bit.
        let t = MmTag::published();
        assert!((t.energy_per_bit_j / 0.8e-9 - 3.0).abs() < 0.01);
    }

    #[test]
    fn tag_power_scales_with_rate() {
        let t = MmTag::published();
        assert!((t.tag_power_w(100e6) - 0.24).abs() < 1e-12);
    }
}

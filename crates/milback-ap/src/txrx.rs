//! AP transmit and receive chains (§8, Fig 7).
//!
//! TX: waveform generator → ADPA7005 PA → 20 dBi horn (27 dBm at the port).
//! RX (×2): 20 dBi horn → ADL8142 LNA → ZMDB-44H mixer (LO = the TX tone)
//! → band-pass filter → digitizer. The struct rolls these into the handful
//! of numbers the link simulations need: EIRP, cascaded noise figure,
//! implementation loss, digitizer rate.

use mmwave_rf::components::Amplifier;
use mmwave_rf::noise::ReceiverChain;
use serde::{Deserialize, Serialize};

/// The AP transmit chain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TxChain {
    /// Generator output power, dBm.
    pub generator_dbm: f64,
    /// The power amplifier.
    pub pa: Amplifier,
    /// TX antenna gain, dBi.
    pub antenna_gain_dbi: f64,
    /// Cable/connector losses between PA and antenna, dB.
    pub feed_loss_db: f64,
}

impl TxChain {
    /// The paper's chain, tuned so the antenna-port power is 27 dBm.
    pub fn milback_default() -> Self {
        Self {
            generator_dbm: 9.0,
            pa: Amplifier::adpa7005_pa(),
            antenna_gain_dbi: 20.0,
            feed_loss_db: 1.5,
        }
    }

    /// Power delivered to the antenna port, dBm.
    pub fn port_power_dbm(&self) -> f64 {
        self.pa.amplify_dbm(self.generator_dbm) - self.feed_loss_db
    }
}

/// One AP receive chain (there are two, one per RX antenna).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RxChain {
    /// RX antenna gain, dBi.
    pub antenna_gain_dbi: f64,
    /// LNA → mixer → BPF cascade with implementation loss.
    pub chain: ReceiverChain,
    /// Digitizer (scope) sample rate, Hz.
    pub digitizer_rate_hz: f64,
}

impl RxChain {
    /// The paper's receive chain digitized at 50 MS/s.
    pub fn milback_default() -> Self {
        Self {
            antenna_gain_dbi: 20.0,
            chain: ReceiverChain::milback_ap(),
            digitizer_rate_hz: 50e6,
        }
    }

    /// SNR for a signal power *at the antenna port* over a bandwidth, dB.
    pub fn snr_db(&self, signal_at_port_dbm: f64, bandwidth_hz: f64) -> f64 {
        self.chain.snr_db(signal_at_port_dbm, bandwidth_hz)
    }
}

/// The complete AP radio front-end: one TX chain and two RX chains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApRadio {
    /// Transmit chain.
    pub tx: TxChain,
    /// Receive chain on antenna 1 (the reference channel).
    pub rx1: RxChain,
    /// Receive chain on antenna 2 (the AoA channel).
    pub rx2: RxChain,
}

impl ApRadio {
    /// The paper's AP.
    pub fn milback_default() -> Self {
        Self {
            tx: TxChain::milback_default(),
            rx1: RxChain::milback_default(),
            rx2: RxChain::milback_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_port_power_is_27_dbm() {
        let tx = TxChain::milback_default();
        assert!(
            (tx.port_power_dbm() - 27.0).abs() < 0.3,
            "got {:.2}",
            tx.port_power_dbm()
        );
    }

    #[test]
    fn rx_snr_uses_cascade() {
        let rx = RxChain::milback_default();
        // −70 dBm in 10 MHz: floor ≈ −100.6 dBm, impl loss 13 dB → ≈17.6 dB.
        let snr = rx.snr_db(-70.0, 10e6);
        assert!((snr - 17.6).abs() < 1.0, "snr {snr:.1}");
    }

    #[test]
    fn both_rx_chains_identical_by_default() {
        let ap = ApRadio::milback_default();
        assert_eq!(ap.rx1, ap.rx2);
    }

    #[test]
    fn digitizer_covers_max_range_beats() {
        // 50 MS/s captures beats to 25 MHz → ranges past 20 m for the
        // Field-2 slope; the evaluation tops out at 12 m.
        let rx = RxChain::milback_default();
        let max_beat = rx.digitizer_rate_hz / 2.0;
        let slope = 3e9 / 18e-6;
        let max_range = mmwave_rf::propagation::range_from_beat_m(slope, max_beat);
        assert!(max_range > 12.0, "max range {max_range:.1} m");
    }
}

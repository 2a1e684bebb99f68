//! Receiver noise: cascaded noise figure (Friis's *other* formula) and the
//! noise floor of each receiver in the system.

use mmwave_sigproc::units::{db_to_lin, lin_to_db, noise_power_dbm};
use serde::{Deserialize, Serialize};

/// One stage in a receiver chain, for noise-figure cascading.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseStage {
    /// Stage power gain, dB (negative for lossy stages like mixers).
    pub gain_db: f64,
    /// Stage noise figure, dB. For passive lossy stages NF = loss.
    pub noise_figure_db: f64,
}

impl NoiseStage {
    /// A lossy passive stage (attenuator, mixer, filter): NF equals loss.
    pub fn passive(loss_db: f64) -> Self {
        assert!(loss_db >= 0.0, "loss must be non-negative");
        Self {
            gain_db: -loss_db,
            noise_figure_db: loss_db,
        }
    }

    /// An active gain stage.
    pub fn active(gain_db: f64, noise_figure_db: f64) -> Self {
        Self {
            gain_db,
            noise_figure_db,
        }
    }
}

/// Cascaded noise figure of a receiver chain (Friis formula):
/// `F = F₁ + (F₂−1)/G₁ + (F₃−1)/(G₁G₂) + …`, all in linear, result in dB.
///
/// # Panics
/// Panics on an empty chain.
pub(crate) fn cascade_noise_figure_db(stages: &[NoiseStage]) -> f64 {
    assert!(!stages.is_empty(), "cascade of zero stages");
    let mut f_total = db_to_lin(stages[0].noise_figure_db);
    let mut gain_product = db_to_lin(stages[0].gain_db);
    for s in &stages[1..] {
        f_total += (db_to_lin(s.noise_figure_db) - 1.0) / gain_product;
        gain_product *= db_to_lin(s.gain_db);
    }
    lin_to_db(f_total)
}

/// Total gain of a chain, dB.
pub(crate) fn cascade_gain_db(stages: &[NoiseStage]) -> f64 {
    stages.iter().map(|s| s.gain_db).sum()
}

/// The MilBack AP receive chain: LNA → mixer → BPF (§8), with its cascaded
/// noise figure and the resulting sensitivity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReceiverChain {
    stages: Vec<NoiseStage>,
    /// Extra implementation loss applied to signal (not noise), dB —
    /// cabling, misalignment, polarization and processing losses that a
    /// lab prototype accumulates on top of the textbook budget.
    pub implementation_loss_db: f64,
}

impl ReceiverChain {
    /// Builds a chain from stages.
    pub fn new(stages: Vec<NoiseStage>, implementation_loss_db: f64) -> Self {
        assert!(!stages.is_empty(), "receiver chain needs stages");
        assert!(implementation_loss_db >= 0.0);
        Self {
            stages,
            implementation_loss_db,
        }
    }

    /// The paper's AP receiver: ADL8142 LNA (18 dB / NF 3), ZMDB-44H mixer
    /// (7 dB loss), band-pass filter (1.5 dB loss). Implementation loss is
    /// calibrated so the Fig 15 uplink anchors reproduce: ≈11 dB SNR at 8 m
    /// for 10 Mbps (the BER ≈ 2e-4 annotation) and ≈10 dB at 6 m for
    /// 40 Mbps (BER ≈ 8e-4).
    pub fn milback_ap() -> Self {
        Self::new(
            vec![
                NoiseStage::active(18.0, 3.0),
                NoiseStage::passive(7.0),
                NoiseStage::passive(1.5),
            ],
            13.0,
        )
    }

    /// Cascaded noise figure, dB.
    pub fn noise_figure_db(&self) -> f64 {
        cascade_noise_figure_db(&self.stages)
    }

    /// Total chain gain, dB.
    pub fn gain_db(&self) -> f64 {
        cascade_gain_db(&self.stages)
    }

    /// Input-referred noise floor over `bandwidth_hz`, dBm.
    pub(crate) fn noise_floor_dbm(&self, bandwidth_hz: f64) -> f64 {
        noise_power_dbm(bandwidth_hz, self.noise_figure_db())
    }

    /// SNR (dB) for an input signal power, over a bandwidth, including the
    /// implementation loss.
    pub fn snr_db(&self, signal_dbm: f64, bandwidth_hz: f64) -> f64 {
        signal_dbm - self.implementation_loss_db - self.noise_floor_dbm(bandwidth_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stage_cascade_is_its_own_nf() {
        let nf = cascade_noise_figure_db(&[NoiseStage::active(20.0, 4.0)]);
        assert!((nf - 4.0).abs() < 1e-12);
    }

    #[test]
    fn lna_first_dominates_cascade() {
        // Classic result: with a high-gain LNA first, later stages barely
        // matter; with the lossy mixer first, NF ≈ mixer loss + LNA NF.
        let good =
            cascade_noise_figure_db(&[NoiseStage::active(18.0, 3.0), NoiseStage::passive(7.0)]);
        let bad =
            cascade_noise_figure_db(&[NoiseStage::passive(7.0), NoiseStage::active(18.0, 3.0)]);
        assert!(good < 3.5, "good {good}");
        assert!((bad - 10.0).abs() < 0.2, "bad {bad}");
    }

    #[test]
    fn passive_stage_nf_equals_loss() {
        let s = NoiseStage::passive(7.0);
        assert_eq!(s.gain_db, -7.0);
        assert_eq!(s.noise_figure_db, 7.0);
    }

    #[test]
    fn textbook_cascade_value() {
        // Stage 1: gain 10 dB, NF 3 dB (F₁=1.9953, G₁=10); stage 2: NF 6 dB
        // (F₂=3.9811). F = 1.9953 + 2.9811/10 = 2.2934 → 3.605 dB.
        let nf = cascade_noise_figure_db(&[
            NoiseStage::active(10.0, 3.0),
            NoiseStage::active(10.0, 6.0),
        ]);
        assert!((nf - 3.605).abs() < 0.01, "{nf}");
    }

    #[test]
    fn milback_ap_chain_figures() {
        let c = ReceiverChain::milback_ap();
        let nf = c.noise_figure_db();
        assert!((3.0..4.5).contains(&nf), "NF {nf}");
        assert!((c.gain_db() - 9.5).abs() < 1e-9);
    }

    #[test]
    fn noise_floor_reference() {
        let c = ReceiverChain::milback_ap();
        // 10 MHz bandwidth: −174 + 70 + NF ≈ −100.7 dBm.
        let floor = c.noise_floor_dbm(10e6);
        assert!((floor - (-100.6)).abs() < 0.5, "floor {floor}");
    }

    #[test]
    fn snr_includes_implementation_loss() {
        let c = ReceiverChain::milback_ap();
        let without = c.snr_db(-60.0, 10e6) + c.implementation_loss_db;
        let with = c.snr_db(-60.0, 10e6);
        assert!((without - with - c.implementation_loss_db).abs() < 1e-9);
        assert!((c.implementation_loss_db - 13.0).abs() < 1e-9);
    }

    #[test]
    fn wider_bandwidth_lowers_snr() {
        // 10 → 40 Mbps costs 6 dB of SNR (§9.5).
        let c = ReceiverChain::milback_ap();
        let s10 = c.snr_db(-70.0, 10e6);
        let s40 = c.snr_db(-70.0, 40e6);
        assert!((s10 - s40 - 6.02).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "cascade of zero stages")]
    fn empty_cascade_panics() {
        cascade_noise_figure_db(&[]);
    }
}

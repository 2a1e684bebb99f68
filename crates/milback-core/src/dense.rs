//! Dense OAQFM — the §9.4 extension: "define denser OAQFM modulation
//! schemes, where each symbol represents more bits by considering
//! different amplitudes for each tone".
//!
//! With `L` amplitude levels per tone (level 0 = tone off), each symbol
//! carries `2·log2(L)` bits. The node's square-law detector maps tone
//! power linearly to voltage in its operating region, so multi-level
//! slicing works — at the cost of shrinking the decision distance by
//! `L−1`, which this module quantifies against range.

use mmwave_sigproc::stats::q_function;
use mmwave_sigproc::units::db_to_lin;
use serde::{Deserialize, Serialize};

/// A dense OAQFM constellation: `levels` amplitude levels per tone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DenseOaqfm {
    /// Amplitude levels per tone, including "off". Must be a power of two
    /// ≥ 2; `levels == 2` is ordinary OAQFM.
    pub levels: u32,
}

impl DenseOaqfm {
    /// Creates a constellation.
    ///
    /// # Panics
    /// Panics unless `levels` is a power of two ≥ 2.
    pub fn new(levels: u32) -> Self {
        assert!(
            levels >= 2 && levels.is_power_of_two(),
            "levels must be a power of two ≥ 2"
        );
        Self { levels }
    }

    /// Bits carried per symbol (both tones).
    pub(crate) fn bits_per_symbol(&self) -> u32 {
        2 * self.levels.ilog2()
    }

    /// Per-tone bits.
    pub(crate) fn bits_per_tone(&self) -> u32 {
        self.levels.ilog2()
    }

    /// The normalized detector-voltage levels (0..=1) the AP keys each
    /// tone to, assuming the detector's square-law region (power ∝
    /// voltage): uniformly spaced in detector output.
    pub(crate) fn voltage_levels(&self) -> Vec<f64> {
        (0..self.levels)
            .map(|l| l as f64 / (self.levels - 1) as f64)
            .collect()
    }

    /// Symbol error probability of one tone's L-level slicing at a given
    /// per-tone SINR (defined, as in Fig 14, on the full on/off swing):
    /// standard L-ary PAM with `2(L−1)/L · Q(d/2σ)` where the adjacent
    /// decision distance is `swing/(L−1)`.
    pub(crate) fn tone_symbol_error(&self, sinr_db: f64) -> f64 {
        let l = self.levels as f64;
        // SINR is (swing/2)²/σ² → swing/2σ = √SINR; adjacent half-distance
        // is (swing/2)/(L−1).
        let arg = db_to_lin(sinr_db).sqrt() / (l - 1.0);
        (2.0 * (l - 1.0) / l) * q_function(arg)
    }

    /// Approximate per-bit error rate with Gray-coded levels.
    pub fn ber(&self, sinr_db: f64) -> f64 {
        self.tone_symbol_error(sinr_db) / self.bits_per_tone() as f64
    }

    /// Throughput at a symbol rate, bits/second.
    pub fn throughput_bps(&self, symbol_rate_hz: f64) -> f64 {
        self.bits_per_symbol() as f64 * symbol_rate_hz
    }

    /// Effective *goodput* (throughput × packet success for `bits`-bit
    /// packets) — the metric that decides which density wins at a given
    /// SINR.
    pub fn goodput_bps(&self, symbol_rate_hz: f64, sinr_db: f64, packet_bits: u32) -> f64 {
        let ber = self.ber(sinr_db).min(0.5);
        let success = (1.0 - ber).powi(packet_bits as i32);
        self.throughput_bps(symbol_rate_hz) * success
    }

    /// The densest constellation that keeps BER below `target_ber` at a
    /// given SINR — the adaptive-modulation decision rule.
    pub fn densest_for(sinr_db: f64, target_ber: f64, max_levels: u32) -> Self {
        let mut best = DenseOaqfm::new(2);
        let mut l = 2;
        while l <= max_levels {
            let cand = DenseOaqfm::new(l);
            if cand.ber(sinr_db) <= target_ber {
                best = cand;
            }
            l *= 2;
        }
        best
    }

    /// Multi-level slicing of symbol statistics (normalized 0..=1 swing):
    /// nearest level wins; returns level indices.
    pub fn slice(&self, stats: &[f64]) -> Vec<u32> {
        let levels = self.voltage_levels();
        stats
            .iter()
            .map(|&v| {
                let mut best = 0u32;
                let mut bd = f64::MAX;
                for (i, &lv) in levels.iter().enumerate() {
                    let d = (v - lv).abs();
                    if d < bd {
                        bd = d;
                        best = i as u32;
                    }
                }
                best
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_2_is_plain_oaqfm() {
        let d = DenseOaqfm::new(2);
        assert_eq!(d.bits_per_symbol(), 2);
        assert_eq!(d.voltage_levels(), vec![0.0, 1.0]);
    }

    #[test]
    fn density_scales_bits() {
        assert_eq!(DenseOaqfm::new(4).bits_per_symbol(), 4);
        assert_eq!(DenseOaqfm::new(8).bits_per_symbol(), 6);
        assert_eq!(DenseOaqfm::new(4).throughput_bps(18e6), 72e6);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        DenseOaqfm::new(3);
    }

    #[test]
    fn denser_needs_more_sinr() {
        // 2→4 levels shrinks the decision distance by 3, so the same BER
        // costs ≈ 20log10(3) ≈ 9.5 dB more SINR; 8 levels cost more still.
        let (d2, d4, d8) = (DenseOaqfm::new(2), DenseOaqfm::new(4), DenseOaqfm::new(8));
        for s in [10.0, 13.5, 16.0] {
            let b2 = d2.ber(s);
            assert!(
                d4.ber(s + 8.5) > b2 && b2 > d4.ber(s + 10.5),
                "2→4 penalty not ≈ 9.5 dB at {s} dB"
            );
            assert!(d8.ber(s + 10.5) > d4.ber(s + 10.5));
        }
    }

    #[test]
    fn ber_monotone_in_sinr_and_density() {
        for &l in &[2u32, 4, 8] {
            let d = DenseOaqfm::new(l);
            assert!(d.ber(10.0) > d.ber(20.0));
        }
        assert!(DenseOaqfm::new(8).ber(18.0) > DenseOaqfm::new(2).ber(18.0));
    }

    #[test]
    fn adaptive_rule_picks_density_by_sinr() {
        // High SINR (short range) → denser; low SINR (long range) → plain.
        let high = DenseOaqfm::densest_for(30.0, 1e-6, 8);
        let low = DenseOaqfm::densest_for(13.0, 1e-6, 8);
        assert!(high.levels > low.levels, "high {:?} low {:?}", high, low);
        assert_eq!(low.levels, 2);
    }

    #[test]
    fn goodput_crossover_exists() {
        // Somewhere between 13 and 35 dB the 4-level scheme overtakes the
        // 2-level scheme in goodput — the adaptive controller's raison
        // d'être.
        let d2 = DenseOaqfm::new(2);
        let d4 = DenseOaqfm::new(4);
        let g = |d: &DenseOaqfm, sinr: f64| d.goodput_bps(18e6, sinr, 1024);
        assert!(g(&d2, 13.0) > g(&d4, 13.0), "plain must win at low SINR");
        assert!(g(&d4, 35.0) > g(&d2, 35.0), "dense must win at high SINR");
    }

    #[test]
    fn slicing_recovers_levels() {
        let d = DenseOaqfm::new(4);
        let stats = [0.02, 0.31, 0.35, 0.64, 0.95, 1.02];
        assert_eq!(d.slice(&stats), vec![0, 1, 1, 2, 3, 3]);
    }

    #[test]
    fn slicing_with_noise_at_adequate_sinr() {
        use mmwave_sigproc::random::GaussianSource;
        let d = DenseOaqfm::new(4);
        let mut rng = GaussianSource::new(3);
        let tx: Vec<u32> = (0..3000)
            .map(|_| (rng.uniform(0.0, 4.0) as u32).min(3))
            .collect();
        // ~1 dB above the 19.1 dB where 4-level BER reaches 1e-3.
        let sinr_db = 20.1;
        let sigma = 0.5 / db_to_lin(sinr_db).sqrt();
        let stats: Vec<f64> = tx
            .iter()
            .map(|&l| l as f64 / 3.0 + rng.sample(sigma))
            .collect();
        let rx = d.slice(&stats);
        let errors = tx.iter().zip(&rx).filter(|(a, b)| a != b).count();
        let ser = errors as f64 / tx.len() as f64;
        assert!(ser < 2e-2, "symbol error rate {ser:.3e}");
    }
}

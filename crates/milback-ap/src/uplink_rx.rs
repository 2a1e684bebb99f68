//! Uplink reception at the AP (§6.3, Fig 7).
//!
//! The AP transmits the two-tone query and receives on two chains, each
//! mixing the antenna signal with one of the query tones. Interference
//! (self-interference and static clutter) is a delayed copy of the query,
//! so it mixes to DC plus out-of-band products — both removed by the
//! band-pass filter. The node's switching imprints its OAQFM symbols on
//! each tone, which survive as baseband waveforms: one OOK channel per
//! tone. This module slices those channels back into symbols and measures
//! link quality.

use mmwave_sigproc::detect::{integrate_and_dump, midpoint_threshold_into};
use mmwave_sigproc::stats::bit_error_rate;
use mmwave_sigproc::waveform::OaqfmSymbol;
use serde::{Deserialize, Serialize};

/// Errors from the uplink receiver.
#[derive(Debug, Clone, PartialEq)]
pub enum UplinkRxError {
    /// The two channel traces differ in length.
    LengthMismatch {
        /// Channel-A length.
        a: usize,
        /// Channel-B length.
        b: usize,
    },
    /// Trace shorter than one symbol.
    TraceTooShort,
    /// No modulation contrast found on a channel.
    NoContrast,
}

impl std::fmt::Display for UplinkRxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UplinkRxError::LengthMismatch { a, b } => {
                write!(f, "channel traces differ: {a} vs {b}")
            }
            UplinkRxError::TraceTooShort => write!(f, "trace shorter than one symbol"),
            UplinkRxError::NoContrast => write!(f, "no modulation contrast on a channel"),
        }
    }
}

impl std::error::Error for UplinkRxError {}

/// The AP's uplink symbol receiver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UplinkReceiver {
    /// Samples per symbol at the digitizer rate.
    pub samples_per_symbol: usize,
}

impl UplinkReceiver {
    /// Creates a receiver.
    ///
    /// # Panics
    /// Panics for zero samples per symbol.
    pub fn new(samples_per_symbol: usize) -> Self {
        assert!(samples_per_symbol > 0);
        Self { samples_per_symbol }
    }

    /// Integrate-and-dump symbol statistics for one channel.
    pub(crate) fn symbol_statistics(&self, trace: &[f64]) -> Vec<f64> {
        integrate_and_dump(trace, self.samples_per_symbol)
    }

    /// Decides OAQFM symbols from the two baseband channel traces, using
    /// self-calibrated thresholds (the query payload always contains both
    /// levels in practice; a preamble can be prepended otherwise).
    pub fn decide(
        &self,
        trace_a: &[f64],
        trace_b: &[f64],
    ) -> Result<Vec<OaqfmSymbol>, UplinkRxError> {
        if trace_a.len() != trace_b.len() {
            return Err(UplinkRxError::LengthMismatch {
                a: trace_a.len(),
                b: trace_b.len(),
            });
        }
        if trace_a.len() < self.samples_per_symbol {
            return Err(UplinkRxError::TraceTooShort);
        }
        let sa = self.symbol_statistics(trace_a);
        let sb = self.symbol_statistics(trace_b);
        let mut sorted = Vec::with_capacity(sa.len());
        let ta = midpoint_threshold_into(&sa, &mut sorted).ok_or(UplinkRxError::NoContrast)?;
        let tb = midpoint_threshold_into(&sb, &mut sorted).ok_or(UplinkRxError::NoContrast)?;
        Ok(sa
            .iter()
            .zip(&sb)
            .map(|(&va, &vb)| OaqfmSymbol {
                tone_a: va > ta,
                tone_b: vb > tb,
            })
            .collect())
    }
}

/// Measures SNR from symbol statistics given the known transmitted bits of
/// one channel: separates the on/off populations and compares the level
/// separation to the within-population spread. Returns `None` when the
/// lengths differ or either population is empty.
///
/// Two passes over the symbols, one for the population means and one for
/// their spreads, each keeping one running sum per population. Each sum
/// runs left to right from `-0.0` over its population exactly as
/// [`mean`](mmwave_sigproc::stats::mean) and
/// [`variance`](mmwave_sigproc::stats::variance) run it over a collected
/// `Vec`, so the result is the same bits without an allocation. The passes
/// are branch-free: every symbol adds to both sums, `-0.0` to the one of
/// the other population, and `x + (-0.0)` is `x` to the bit for every `x`,
/// `±0` included.
pub fn measure_channel_snr_db(symbol_stats: &[f64], tx_bits: &[bool]) -> Option<f64> {
    if symbol_stats.len() != tx_bits.len() {
        return None;
    }
    let symbols = || symbol_stats.iter().zip(tx_bits);
    let (mut n_on, mut sum_on, mut sum_off) = (0usize, -0.0, -0.0);
    for (&v, &on) in symbols() {
        n_on += usize::from(on);
        sum_on += if on { v } else { -0.0 };
        sum_off += if on { -0.0 } else { v };
    }
    let n_off = tx_bits.len() - n_on;
    if n_on == 0 || n_off == 0 {
        return None;
    }
    let mean_on = sum_on / n_on as f64;
    let mean_off = sum_off / n_off as f64;
    let (mut ss_on, mut ss_off) = (-0.0, -0.0);
    for (&v, &on) in symbols() {
        let (d_on, d_off) = (v - mean_on, v - mean_off);
        ss_on += if on { d_on * d_on } else { -0.0 };
        ss_off += if on { -0.0 } else { d_off * d_off };
    }
    // Unbiased sample variance; a lone sample contributes none.
    let variance = |ss: f64, n: usize| if n > 1 { ss / (n - 1) as f64 } else { 0.0 };
    let swing = (mean_on - mean_off) / 2.0;
    let noise = ((variance(ss_on, n_on) + variance(ss_off, n_off)) / 2.0).max(1e-300);
    Some(10.0 * (swing * swing / noise).log10())
}

/// Compares decided symbols against transmitted symbols bit-by-bit.
pub fn symbol_ber(tx: &[OaqfmSymbol], rx: &[OaqfmSymbol]) -> f64 {
    let tx_bits: Vec<bool> = tx.iter().flat_map(|s| [s.tone_a, s.tone_b]).collect();
    let rx_bits: Vec<bool> = rx.iter().flat_map(|s| [s.tone_a, s.tone_b]).collect();
    bit_error_rate(&tx_bits, &rx_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_sigproc::random::GaussianSource;
    use mmwave_sigproc::stats::mean;
    use mmwave_sigproc::waveform::{bytes_to_symbols, ook_envelope, symbols_to_bytes};

    fn traces_for(symbols: &[OaqfmSymbol], sps: usize, hi: f64, lo: f64) -> (Vec<f64>, Vec<f64>) {
        let la: Vec<f64> = symbols
            .iter()
            .map(|s| if s.tone_a { hi } else { lo })
            .collect();
        let lb: Vec<f64> = symbols
            .iter()
            .map(|s| if s.tone_b { hi } else { lo })
            .collect();
        (ook_envelope(&la, sps), ook_envelope(&lb, sps))
    }

    #[test]
    fn clean_decisions_roundtrip() {
        let payload = vec![0x12, 0x34, 0xAB, 0xFF, 0x00];
        let syms = bytes_to_symbols(&payload);
        let (ta, tb) = traces_for(&syms, 10, 1e-4, 2e-5);
        let rx = UplinkReceiver::new(10);
        let out = rx.decide(&ta, &tb).unwrap();
        assert_eq!(symbols_to_bytes(&out), payload);
        assert_eq!(symbol_ber(&syms, &out), 0.0);
    }

    #[test]
    fn decisions_survive_moderate_noise() {
        let mut rng = GaussianSource::new(5);
        let payload = rng.bytes(128);
        let syms = bytes_to_symbols(&payload);
        let (mut ta, mut tb) = traces_for(&syms, 20, 1e-4, 1.8e-5);
        // Per-sample SNR modest; integration over 20 samples recovers it.
        let swing: f64 = (1e-4 - 1.8e-5) / 2.0;
        rng.add_real_noise(&mut ta, (swing / 2.0).powi(2));
        rng.add_real_noise(&mut tb, (swing / 2.0).powi(2));
        let rx = UplinkReceiver::new(20);
        let out = rx.decide(&ta, &tb).unwrap();
        assert_eq!(symbols_to_bytes(&out), payload);
    }

    #[test]
    fn ber_degrades_with_noise_monotonically() {
        let mut rng = GaussianSource::new(6);
        let payload = rng.bytes(256);
        let syms = bytes_to_symbols(&payload);
        let rx = UplinkReceiver::new(4);
        let mut previous_ber = -1.0;
        for noise_scale in [0.5, 2.0, 8.0] {
            let (mut ta, mut tb) = traces_for(&syms, 4, 1.0, 0.0);
            rng.add_real_noise(&mut ta, noise_scale);
            rng.add_real_noise(&mut tb, noise_scale);
            let out = rx.decide(&ta, &tb).unwrap();
            let ber = symbol_ber(&syms, &out);
            assert!(ber >= previous_ber, "BER should not improve with noise");
            previous_ber = ber;
        }
        assert!(previous_ber > 0.05, "heavy noise must cause errors");
    }

    #[test]
    fn snr_measurement_tracks_injected_snr() {
        let mut rng = GaussianSource::new(7);
        let bits: Vec<bool> = rng.bits(20_000);
        let swing = 1.0;
        let noise_var: f64 = 0.01; // 20 dB
        let stats: Vec<f64> = bits
            .iter()
            .map(|&b| if b { swing } else { -swing } + rng.sample(noise_var.sqrt()))
            .collect();
        let snr = measure_channel_snr_db(&stats, &bits).unwrap();
        assert!((snr - 20.0).abs() < 0.5, "measured {snr:.2} dB");
    }

    #[test]
    fn ac_coupled_traces_still_decode() {
        // The BPF removes DC: levels become symmetric around zero.
        let payload = vec![0x3C, 0x96];
        let syms = bytes_to_symbols(&payload);
        let (ta, tb) = traces_for(&syms, 8, 0.5, -0.5);
        let rx = UplinkReceiver::new(8);
        let out = rx.decide(&ta, &tb).unwrap();
        assert_eq!(symbols_to_bytes(&out), payload);
    }

    #[test]
    fn mismatched_channels_rejected() {
        let rx = UplinkReceiver::new(4);
        let err = rx.decide(&[0.0; 8], &[0.0; 9]).unwrap_err();
        assert_eq!(err, UplinkRxError::LengthMismatch { a: 8, b: 9 });
    }

    #[test]
    fn flat_channel_rejected() {
        let rx = UplinkReceiver::new(4);
        let err = rx.decide(&[0.5; 16], &[0.5; 16]).unwrap_err();
        assert_eq!(err, UplinkRxError::NoContrast);
    }

    #[test]
    fn short_trace_rejected() {
        let rx = UplinkReceiver::new(100);
        assert_eq!(
            rx.decide(&[0.0; 10], &[0.0; 10]).unwrap_err(),
            UplinkRxError::TraceTooShort
        );
    }

    #[test]
    fn streamed_snr_matches_collected_populations_bitwise() {
        use mmwave_sigproc::stats::variance;
        // The collecting form: split into two `Vec`s, then mean/variance.
        let collected = |stats: &[f64], bits: &[bool]| {
            let pick = |level: bool| -> Vec<f64> {
                stats
                    .iter()
                    .zip(bits)
                    .filter(|(_, &b)| b == level)
                    .map(|(&v, _)| v)
                    .collect()
            };
            let (on, off) = (pick(true), pick(false));
            let var = |x: &[f64]| if x.len() > 1 { variance(x) } else { 0.0 };
            let swing = (mean(&on) - mean(&off)) / 2.0;
            let noise = ((var(&on) + var(&off)) / 2.0).max(1e-300);
            10.0 * (swing * swing / noise).log10()
        };
        let mut rng = GaussianSource::new(8);
        for len in [2usize, 3, 5, 64, 999] {
            for trial in 0..20 {
                let mut bits = rng.bits(len);
                // Force both populations, sometimes as singletons.
                bits[0] = true;
                bits[len - 1] = false;
                if trial % 5 == 0 {
                    bits.iter_mut().skip(1).for_each(|b| *b = false);
                }
                let stats: Vec<f64> = bits
                    .iter()
                    .map(|&b| f64::from(u8::from(b)) + rng.sample(0.3))
                    .collect();
                assert_eq!(
                    measure_channel_snr_db(&stats, &bits).map(f64::to_bits),
                    Some(collected(&stats, &bits).to_bits()),
                    "len {len} trial {trial}"
                );
            }
        }
    }

    #[test]
    fn snr_needs_both_levels() {
        assert_eq!(measure_channel_snr_db(&[1.0, 1.0], &[true, true]), None);
        assert_eq!(measure_channel_snr_db(&[1.0, 1.0], &[false, false]), None);
        assert_eq!(measure_channel_snr_db(&[], &[]), None);
        // A length mismatch is no measurement either.
        assert_eq!(measure_channel_snr_db(&[1.0, 0.0], &[true]), None);
    }

    #[test]
    fn error_display() {
        assert!(UplinkRxError::NoContrast.to_string().contains("contrast"));
        assert!(UplinkRxError::TraceTooShort.to_string().contains("shorter"));
        assert!(UplinkRxError::LengthMismatch { a: 1, b: 2 }
            .to_string()
            .contains("differ"));
    }
}

//! OAQFM downlink demodulation at the node (§6.1–6.2).
//!
//! The AP keys two tones on/off; the node's two FSA ports each capture one
//! tone and deliver it to a dedicated envelope detector. The MCU samples
//! both detector outputs, integrates over each symbol period, slices
//! against per-port thresholds and reassembles two bits per symbol. At
//! normal incidence (f_A = f_B) the scheme degenerates to single-tone OOK
//! on one detector.

use mmwave_sigproc::detect::midpoint_threshold;
use mmwave_sigproc::stats::mean;
use mmwave_sigproc::waveform::OaqfmSymbol;
use serde::{Deserialize, Serialize};

/// Errors the demodulator can report.
#[derive(Debug, Clone, PartialEq)]
pub enum DemodError {
    /// Traces for the two ports have different lengths.
    LengthMismatch {
        /// Port-A trace length.
        a: usize,
        /// Port-B trace length.
        b: usize,
    },
    /// The trace is shorter than one symbol.
    TraceTooShort,
    /// Calibration found no usable on/off contrast.
    NoContrast,
}

impl std::fmt::Display for DemodError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DemodError::LengthMismatch { a, b } => {
                write!(f, "port traces differ in length: {a} vs {b}")
            }
            DemodError::TraceTooShort => write!(f, "trace shorter than one symbol"),
            DemodError::NoContrast => write!(f, "no on/off contrast found during calibration"),
        }
    }
}

impl std::error::Error for DemodError {}

/// Per-port decision thresholds (volts at the detector output).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Thresholds {
    /// Port-A slicing threshold.
    pub a: f64,
    /// Port-B slicing threshold.
    pub b: f64,
}

/// Estimates a slicing threshold from a trace that is known to contain
/// both on and off symbols: midway between the bright and dark levels
/// (robust 90th/10th percentiles rather than min/max).
///
/// Returns `Err(NoContrast)` when the levels are indistinguishable.
pub fn calibrate_threshold(trace: &[f64]) -> Result<f64, DemodError> {
    if trace.is_empty() {
        return Err(DemodError::TraceTooShort);
    }
    midpoint_threshold(trace).ok_or(DemodError::NoContrast)
}

/// Reusable buffers for the demodulation hot path: per-port symbol
/// energies. One `DemodScratch` per worker plus the `*_into` entry points
/// make repeated demodulation allocation-free past the high-water mark,
/// with decisions identical to the allocating paths.
#[derive(Debug, Default)]
pub(crate) struct DemodScratch {
    /// Port-A symbol energies.
    ea: Vec<f64>,
    /// Port-B symbol energies.
    eb: Vec<f64>,
}

impl DemodScratch {
    /// An empty workspace; buffers are sized lazily on first use.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

/// The node's OAQFM downlink demodulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OaqfmDemodulator {
    /// Samples per symbol at the trace rate.
    pub samples_per_symbol: usize,
    /// Fraction of each symbol period discarded at the start to let the
    /// detector's RC settle (0..1).
    pub guard_fraction: f64,
}

impl OaqfmDemodulator {
    /// Creates a demodulator.
    ///
    /// # Panics
    /// Panics for zero samples per symbol or a guard outside `[0, 0.9]`.
    pub fn new(samples_per_symbol: usize) -> Self {
        assert!(samples_per_symbol > 0);
        Self {
            samples_per_symbol,
            guard_fraction: 0.25,
        }
    }

    /// Integrates the post-guard portion of each symbol period.
    fn symbol_energies_into(&self, trace: &[f64], out: &mut Vec<f64>) {
        let n = self.samples_per_symbol;
        let guard = ((n as f64) * self.guard_fraction) as usize;
        out.clear();
        out.extend(trace.chunks_exact(n).map(|c| mean(&c[guard..])));
    }

    /// Demodulates OAQFM symbols from the two detector traces.
    ///
    /// Thresholds may come from [`calibrate_threshold`] on a known
    /// preamble, or from the payload itself when it is long and balanced.
    pub fn demodulate(
        &self,
        trace_a: &[f64],
        trace_b: &[f64],
        thresholds: Thresholds,
    ) -> Result<Vec<OaqfmSymbol>, DemodError> {
        let mut scratch = DemodScratch::new();
        let mut out = Vec::new();
        self.demodulate_into(trace_a, trace_b, thresholds, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`Self::demodulate`] into a caller-owned symbol buffer (cleared
    /// first), reusing a [`DemodScratch`] for the per-port energies — the
    /// allocation-free form for per-trial loops. Decisions are identical
    /// to the allocating path.
    pub(crate) fn demodulate_into(
        &self,
        trace_a: &[f64],
        trace_b: &[f64],
        thresholds: Thresholds,
        scratch: &mut DemodScratch,
        out: &mut Vec<OaqfmSymbol>,
    ) -> Result<(), DemodError> {
        if trace_a.len() != trace_b.len() {
            return Err(DemodError::LengthMismatch {
                a: trace_a.len(),
                b: trace_b.len(),
            });
        }
        if trace_a.len() < self.samples_per_symbol {
            return Err(DemodError::TraceTooShort);
        }
        self.symbol_energies_into(trace_a, &mut scratch.ea);
        self.symbol_energies_into(trace_b, &mut scratch.eb);
        out.clear();
        out.extend(
            scratch
                .ea
                .iter()
                .zip(&scratch.eb)
                .map(|(&va, &vb)| OaqfmSymbol {
                    tone_a: va > thresholds.a,
                    tone_b: vb > thresholds.b,
                }),
        );
        Ok(())
    }

    /// Self-calibrating demodulation: derives thresholds from the traces
    /// themselves (requires the payload to contain both levels per port).
    pub fn demodulate_auto(
        &self,
        trace_a: &[f64],
        trace_b: &[f64],
    ) -> Result<Vec<OaqfmSymbol>, DemodError> {
        let mut scratch = DemodScratch::new();
        let mut out = Vec::new();
        self.demodulate_auto_into(trace_a, trace_b, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`Self::demodulate_auto`] into caller-owned buffers — the
    /// allocation-free form.
    pub(crate) fn demodulate_auto_into(
        &self,
        trace_a: &[f64],
        trace_b: &[f64],
        scratch: &mut DemodScratch,
        out: &mut Vec<OaqfmSymbol>,
    ) -> Result<(), DemodError> {
        let thresholds = Thresholds {
            a: calibrate_threshold(trace_a)?,
            b: calibrate_threshold(trace_b)?,
        };
        self.demodulate_into(trace_a, trace_b, thresholds, scratch, out)
    }

    /// Single-tone OOK fallback for normal incidence (§6.2): one bit per
    /// symbol from one detector trace.
    pub fn demodulate_ook(&self, trace: &[f64], threshold: f64) -> Result<Vec<bool>, DemodError> {
        let mut scratch = DemodScratch::new();
        let mut out = Vec::new();
        self.demodulate_ook_into(trace, threshold, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`Self::demodulate_ook`] into a caller-owned bit buffer (cleared
    /// first) — the allocation-free form.
    pub(crate) fn demodulate_ook_into(
        &self,
        trace: &[f64],
        threshold: f64,
        scratch: &mut DemodScratch,
        out: &mut Vec<bool>,
    ) -> Result<(), DemodError> {
        if trace.len() < self.samples_per_symbol {
            return Err(DemodError::TraceTooShort);
        }
        self.symbol_energies_into(trace, &mut scratch.ea);
        out.clear();
        out.extend(scratch.ea.iter().map(|&v| v > threshold));
        Ok(())
    }
}

/// Measured downlink signal quality at the MCU input, as reported in Fig 14.
///
/// SINR rather than SNR: the sidelobes of one port's beam leak the *other*
/// port's tone into the detector, which is interference that no amount of
/// averaging removes (§9.4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SinrReport {
    /// Signal power at the detector output (V² of the keyed tone's swing).
    pub signal_power: f64,
    /// Interference power from the opposite port's tone leakage.
    pub interference_power: f64,
    /// Noise power (detector output noise over the decision bandwidth).
    pub noise_power: f64,
}

impl SinrReport {
    /// SINR in dB.
    pub fn sinr_db(&self) -> f64 {
        10.0 * (self.signal_power / (self.interference_power + self.noise_power)).log10()
    }

    /// SNR in dB (ignoring interference) — what a naive report would show.
    pub fn snr_db(&self) -> f64 {
        10.0 * (self.signal_power / self.noise_power).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_sigproc::waveform::{bytes_to_symbols, ook_envelope, symbols_to_bytes};

    /// Builds clean per-port traces for a symbol sequence.
    fn traces_for(symbols: &[OaqfmSymbol], sps: usize, v_on: f64) -> (Vec<f64>, Vec<f64>) {
        let la: Vec<f64> = symbols
            .iter()
            .map(|s| if s.tone_a { v_on } else { 0.0 })
            .collect();
        let lb: Vec<f64> = symbols
            .iter()
            .map(|s| if s.tone_b { v_on } else { 0.0 })
            .collect();
        (ook_envelope(&la, sps), ook_envelope(&lb, sps))
    }

    #[test]
    fn clean_roundtrip_all_symbols() {
        let syms: Vec<OaqfmSymbol> = (0..4).map(OaqfmSymbol::from_bits).collect();
        let (ta, tb) = traces_for(&syms, 10, 0.01);
        let demod = OaqfmDemodulator::new(10);
        let out = demod
            .demodulate(&ta, &tb, Thresholds { a: 0.005, b: 0.005 })
            .unwrap();
        assert_eq!(out, syms);
    }

    #[test]
    fn byte_payload_roundtrip() {
        let payload = vec![0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0xFF];
        let syms = bytes_to_symbols(&payload);
        let (ta, tb) = traces_for(&syms, 8, 0.02);
        let demod = OaqfmDemodulator::new(8);
        let out = demod.demodulate_auto(&ta, &tb).unwrap();
        assert_eq!(symbols_to_bytes(&out), payload);
    }

    #[test]
    fn auto_calibration_matches_manual() {
        let syms = bytes_to_symbols(&[0x5A, 0xC3]);
        let (ta, tb) = traces_for(&syms, 6, 0.015);
        let demod = OaqfmDemodulator::new(6);
        let auto = demod.demodulate_auto(&ta, &tb).unwrap();
        let manual = demod
            .demodulate(
                &ta,
                &tb,
                Thresholds {
                    a: 0.0075,
                    b: 0.0075,
                },
            )
            .unwrap();
        assert_eq!(auto, manual);
    }

    #[test]
    fn survives_noise_at_reasonable_sinr() {
        use mmwave_sigproc::random::GaussianSource;
        let mut rng = GaussianSource::new(77);
        let payload: Vec<u8> = rng.bytes(64);
        let syms = bytes_to_symbols(&payload);
        let v_on = 0.01;
        let (mut ta, mut tb) = traces_for(&syms, 16, v_on);
        // 20 dB SNR on the voltage swing.
        let noise_power = (v_on / 2.0) * (v_on / 2.0) / 100.0;
        rng.add_real_noise(&mut ta, noise_power);
        rng.add_real_noise(&mut tb, noise_power);
        let demod = OaqfmDemodulator {
            guard_fraction: 0.0,
            ..OaqfmDemodulator::new(16)
        };
        let out = demod.demodulate_auto(&ta, &tb).unwrap();
        assert_eq!(
            symbols_to_bytes(&out),
            payload,
            "errors at 20 dB symbol SNR"
        );
    }

    #[test]
    fn guard_skips_rc_settling() {
        // Symbols shaped by an RC with ~1/4-symbol rise: with the guard the
        // decisions are still perfect.
        use mmwave_sigproc::filter::RcFilter;
        let syms = bytes_to_symbols(&[0xA7, 0x31, 0xF0]);
        let (ta, tb) = traces_for(&syms, 20, 0.01);
        let mut rc1 = RcFilter::from_rise_time(5.0, 1.0); // units: samples
        let mut rc2 = RcFilter::from_rise_time(5.0, 1.0);
        let ta: Vec<f64> = rc1.process(&ta);
        let tb: Vec<f64> = rc2.process(&tb);
        let demod = OaqfmDemodulator {
            guard_fraction: 0.4,
            ..OaqfmDemodulator::new(20)
        };
        let out = demod.demodulate_auto(&ta, &tb).unwrap();
        assert_eq!(symbols_to_bytes(&out), vec![0xA7, 0x31, 0xF0]);
    }

    #[test]
    fn ook_fallback_decodes_bits() {
        let bits = [true, false, true, true, false];
        let levels: Vec<f64> = bits.iter().map(|&b| if b { 0.02 } else { 0.0 }).collect();
        let trace = ook_envelope(&levels, 12);
        let demod = OaqfmDemodulator::new(12);
        let out = demod.demodulate_ook(&trace, 0.01).unwrap();
        assert_eq!(out, bits);
    }

    #[test]
    fn length_mismatch_reported() {
        let demod = OaqfmDemodulator::new(4);
        let err = demod
            .demodulate(&[0.0; 8], &[0.0; 12], Thresholds { a: 0.1, b: 0.1 })
            .unwrap_err();
        assert_eq!(err, DemodError::LengthMismatch { a: 8, b: 12 });
    }

    #[test]
    fn too_short_reported() {
        let demod = OaqfmDemodulator::new(100);
        let err = demod.demodulate_ook(&[0.0; 10], 0.5).unwrap_err();
        assert_eq!(err, DemodError::TraceTooShort);
    }

    #[test]
    fn flat_trace_has_no_contrast() {
        assert_eq!(
            calibrate_threshold(&[0.5; 64]).unwrap_err(),
            DemodError::NoContrast
        );
    }

    #[test]
    fn nan_sample_is_no_contrast_not_a_panic() {
        assert_eq!(
            calibrate_threshold(&[f64::NAN, 1.0]).unwrap_err(),
            DemodError::NoContrast
        );
        // A NaN detector sample reaches the self-calibrating demodulator
        // as a typed error too.
        let demod = OaqfmDemodulator::new(4);
        let mut trace_a = vec![0.0; 16];
        trace_a[8..].fill(1.0);
        let mut trace_b = trace_a.clone();
        trace_b[13] = f64::NAN;
        assert_eq!(
            demod.demodulate_auto(&trace_a, &trace_b).unwrap_err(),
            DemodError::NoContrast
        );
    }

    #[test]
    fn sinr_report_math() {
        let r = SinrReport {
            signal_power: 100.0,
            interference_power: 5.0,
            noise_power: 5.0,
        };
        assert!((r.sinr_db() - 10.0).abs() < 1e-9);
        assert!((r.snr_db() - 13.0103).abs() < 1e-3);
        assert!(r.snr_db() > r.sinr_db());
    }

    #[test]
    fn error_display_strings() {
        let e = DemodError::LengthMismatch { a: 1, b: 2 };
        assert!(e.to_string().contains("differ"));
        assert!(DemodError::TraceTooShort.to_string().contains("shorter"));
        assert!(DemodError::NoContrast.to_string().contains("contrast"));
    }
}

//! Angle-of-arrival estimation at the AP (§9.2).
//!
//! The AP receives with two antennas. After background subtraction isolates
//! the node's echo, the phase difference of the subtracted spectra at the
//! node's beat bin equals `2π·d·sin(θ)/λ` for RX baseline `d` — one
//! `asin` away from the node's angle.

use crate::fmcw::{EchoDetection, FmcwError, FmcwProcessor};
use mmwave_rf::propagation::angle_from_phase_rad;
use mmwave_sigproc::complex::Complex;
use mmwave_sigproc::units::wrap_angle;
use serde::{Deserialize, Serialize};

/// Errors from the AoA estimator.
#[derive(Debug, Clone, PartialEq)]
pub enum AoaError {
    /// The underlying FMCW processing failed.
    Fmcw(FmcwError),
    /// The measured phase maps outside ±90°.
    PhaseOutOfRange {
        /// The offending phase difference, radians.
        phase_rad: f64,
    },
}

impl std::fmt::Display for AoaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AoaError::Fmcw(e) => write!(f, "FMCW stage failed: {e}"),
            AoaError::PhaseOutOfRange { phase_rad } => {
                write!(
                    f,
                    "phase difference {phase_rad:.3} rad has no angle solution"
                )
            }
        }
    }
}

impl std::error::Error for AoaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AoaError::Fmcw(e) => Some(e),
            AoaError::PhaseOutOfRange { .. } => None,
        }
    }
}

impl From<FmcwError> for AoaError {
    fn from(e: FmcwError) -> Self {
        AoaError::Fmcw(e)
    }
}

/// An AoA estimate with its intermediate measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AoaEstimate {
    /// Estimated angle off AP boresight, radians.
    pub angle_rad: f64,
    /// Measured inter-antenna phase difference, radians.
    pub phase_rad: f64,
    /// Node range estimated on the reference channel, meters.
    pub range_m: f64,
}

/// Two-antenna AoA estimator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AoaEstimator {
    /// RX antenna baseline, meters.
    pub baseline_m: f64,
    /// Carrier frequency used for the phase→angle conversion, Hz (the
    /// chirp center frequency).
    pub carrier_hz: f64,
}

impl AoaEstimator {
    /// λ/2 baseline at the paper's 28 GHz sweep center.
    pub fn milback_default() -> Self {
        Self {
            baseline_m: mmwave_sigproc::units::wavelength(28e9) / 2.0,
            carrier_hz: 28e9,
        }
    }

    /// Estimates the node's angle from the two RX channels' chirp captures.
    ///
    /// `beats_rx1` / `beats_rx2` hold the same chirps digitized on each
    /// antenna. The node is located on channel 1; the phase is read at the
    /// same interpolated bin on both channels' subtracted spectra.
    pub fn estimate(
        &self,
        proc: &FmcwProcessor,
        beats_rx1: &[Vec<Complex>],
        beats_rx2: &[Vec<Complex>],
    ) -> Result<AoaEstimate, AoaError> {
        let det = proc.detect_node(beats_rx1)?;
        let mut rx1_spectra = proc.range_spectrum(&beats_rx1[0]);
        rx1_spectra.extend(proc.range_spectrum(&beats_rx1[1]));
        self.estimate_from_rx1(proc, &det, &rx1_spectra, beats_rx2)
    }

    /// [`Self::estimate`] for a caller that has already detected the node
    /// on channel 1 and still holds channel 1's range spectra, so only
    /// channel 2 is transformed here. `rx1_spectra` is row-major,
    /// `fft_len()` per chirp, at least two chirps — e.g.
    /// [`FmcwScratch::spectra`](crate::fmcw::FmcwScratch::spectra) right
    /// after [`FmcwProcessor::detect_node_with`]. Bit-identical to
    /// [`Self::estimate`] on the same captures.
    pub fn estimate_from_rx1(
        &self,
        proc: &FmcwProcessor,
        det: &EchoDetection,
        rx1_spectra: &[Complex],
        beats_rx2: &[Vec<Complex>],
    ) -> Result<AoaEstimate, AoaError> {
        let n = proc.fft_len();
        if rx1_spectra.len() < 2 * n {
            return Err(FmcwError::NotEnoughChirps {
                got: rx1_spectra.len() / n,
            }
            .into());
        }
        let (s1a, s1b) = (&rx1_spectra[..n], &rx1_spectra[n..2 * n]);
        let s2 = proc.subtracted_spectrum(beats_rx2)?;
        let bin = det.bin_position.round() as usize;
        // Phase of RX2 relative to RX1 at the node's bin: average over the
        // adjacent bins inside the main lobe for robustness.
        let mut acc = Complex::new(0.0, 0.0);
        for k in bin.saturating_sub(1)..=(bin + 1).min(n - 1) {
            acc += s2[k] * (s1a[k] - s1b[k]).conj();
        }
        let phase = acc.arg();
        let angle = angle_from_phase_rad(self.carrier_hz, self.baseline_m, phase)
            .ok_or(AoaError::PhaseOutOfRange { phase_rad: phase })?;
        Ok(AoaEstimate {
            angle_rad: angle,
            phase_rad: wrap_angle(phase),
            range_m: det.range_m,
        })
    }

    /// The phase difference this geometry predicts for a ground-truth
    /// angle — used to build the RX2 synthesis and in tests.
    pub fn expected_phase_rad(&self, angle_rad: f64) -> f64 {
        mmwave_rf::propagation::aoa_phase_difference_rad(
            self.carrier_hz,
            self.baseline_m,
            angle_rad,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fmcw::FmcwScratch;
    use mmwave_rf::channel::{synthesize_beat, Echo};
    use mmwave_sigproc::random::GaussianSource;

    /// Two-channel capture of a toggling node at `range` / `angle` with
    /// optional clutter (clutter has zero inter-channel phase for
    /// simplicity — it cancels in subtraction anyway).
    fn capture2(
        proc: &FmcwProcessor,
        est: &AoaEstimator,
        range: f64,
        angle: f64,
        amp: f64,
        noise: f64,
        seed: u64,
    ) -> (Vec<Vec<Complex>>, Vec<Vec<Complex>>) {
        let mut rng = GaussianSource::new(seed);
        let phase = est.expected_phase_rad(angle);
        let mut rx1 = Vec::new();
        let mut rx2 = Vec::new();
        for k in 0..5 {
            let a = if k % 2 == 0 { amp } else { amp * 0.18 };
            let clutter = Echo::constant(1.8, 5e-4);
            let node1 = Echo::constant(range, a);
            let node2 = Echo {
                distance_m: range,
                extra_phase_rad: phase,
                amplitude: Box::new(move |_, _| Complex::real(a)),
            };
            let clutter2 = Echo::constant(1.8, 5e-4);
            let mut b1 = synthesize_beat(&proc.chirp, &[clutter, node1], proc.sample_rate_hz);
            let mut b2 = synthesize_beat(&proc.chirp, &[clutter2, node2], proc.sample_rate_hz);
            rng.add_complex_noise(&mut b1, noise);
            rng.add_complex_noise(&mut b2, noise);
            rx1.push(b1);
            rx2.push(b2);
        }
        (rx1, rx2)
    }

    #[test]
    fn recovers_angle_cleanly() {
        let proc = FmcwProcessor::milback_default();
        let est = AoaEstimator::milback_default();
        for deg in [-40.0f64, -15.0, 0.0, 10.0, 35.0] {
            let ang = deg.to_radians();
            let (rx1, rx2) = capture2(&proc, &est, 4.0, ang, 1e-5, 1e-16, 11);
            let got = est.estimate(&proc, &rx1, &rx2).unwrap();
            assert!(
                (got.angle_rad - ang).abs().to_degrees() < 0.5,
                "at {deg}°: got {:.2}°",
                got.angle_rad.to_degrees()
            );
        }
    }

    #[test]
    fn angle_error_stays_small_with_noise() {
        // Noise at a level giving realistic echo SNR: median error should
        // be around the paper's 1.1°.
        let proc = FmcwProcessor::milback_default();
        let est = AoaEstimator::milback_default();
        let mut errs = Vec::new();
        for seed in 0..20 {
            let ang = 12f64.to_radians();
            let (rx1, rx2) = capture2(&proc, &est, 4.0, ang, 1e-5, 3e-11, 100 + seed);
            let got = est.estimate(&proc, &rx1, &rx2).unwrap();
            errs.push((got.angle_rad - ang).abs().to_degrees());
        }
        let med = mmwave_sigproc::stats::median(&errs);
        assert!(med < 2.5, "median angle error {med:.2}°");
    }

    #[test]
    fn range_comes_along_for_free() {
        let proc = FmcwProcessor::milback_default();
        let est = AoaEstimator::milback_default();
        let (rx1, rx2) = capture2(&proc, &est, 6.2, 0.1, 1e-5, 1e-16, 21);
        let got = est.estimate(&proc, &rx1, &rx2).unwrap();
        assert!((got.range_m - 6.2).abs() < 0.05);
    }

    #[test]
    fn estimate_from_rx1_matches_estimate_bit_exactly() {
        // `estimate` detects on the allocating path and transforms RX1
        // chirps one at a time; `estimate_from_rx1` reuses the detection
        // and spectra of the batched scratch path. Same bits either way.
        let proc = FmcwProcessor::milback_default();
        let est = AoaEstimator::milback_default();
        let mut draw = GaussianSource::new(0xA0A);
        let mut scratch = FmcwScratch::new();
        let mut estimated = 0;
        for seed in 0..24 {
            let range = draw.uniform(0.8, 9.0);
            let angle = draw.uniform(-1.2, 1.2);
            let amp = 10f64.powf(draw.uniform(-7.0, -4.0));
            let noise = 10f64.powf(draw.uniform(-16.0, -9.0));
            let (rx1, rx2) = capture2(&proc, &est, range, angle, amp, noise, seed);
            let single = est.estimate(&proc, &rx1, &rx2);
            let batched = proc
                .detect_node_with(&rx1, &mut scratch)
                .map_err(AoaError::from)
                .and_then(|det| est.estimate_from_rx1(&proc, &det, scratch.spectra(), &rx2));
            match (single, batched) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.angle_rad.to_bits(), b.angle_rad.to_bits(), "seed {seed}");
                    assert_eq!(a.phase_rad.to_bits(), b.phase_rad.to_bits(), "seed {seed}");
                    assert_eq!(a.range_m.to_bits(), b.range_m.to_bits(), "seed {seed}");
                    estimated += 1;
                }
                (a, b) => assert_eq!(a, b, "seed {seed}"),
            }
        }
        assert!(estimated >= 12, "only {estimated} of 24 captures estimated");
    }

    #[test]
    fn estimate_from_rx1_needs_two_rx1_spectra() {
        let proc = FmcwProcessor::milback_default();
        let est = AoaEstimator::milback_default();
        let (rx1, rx2) = capture2(&proc, &est, 4.0, 0.2, 1e-5, 1e-16, 5);
        let det = proc.detect_node(&rx1).unwrap();
        let one_row = proc.range_spectrum(&rx1[0]);
        match est
            .estimate_from_rx1(&proc, &det, &one_row, &rx2)
            .unwrap_err()
        {
            AoaError::Fmcw(FmcwError::NotEnoughChirps { got: 1 }) => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn fmcw_failure_propagates() {
        let proc = FmcwProcessor::milback_default();
        let est = AoaEstimator::milback_default();
        let empty: Vec<Vec<Complex>> = vec![];
        match est.estimate(&proc, &empty, &empty).unwrap_err() {
            AoaError::Fmcw(FmcwError::NotEnoughChirps { got: 0 }) => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn expected_phase_is_invertible() {
        let est = AoaEstimator::milback_default();
        let ang = 0.3;
        let phase = est.expected_phase_rad(ang);
        let back = angle_from_phase_rad(est.carrier_hz, est.baseline_m, phase).unwrap();
        assert!((back - ang).abs() < 1e-12);
    }

    #[test]
    fn error_display() {
        let e = AoaError::PhaseOutOfRange { phase_rad: 4.0 };
        assert!(e.to_string().contains("no angle solution"));
        let f: AoaError = FmcwError::LengthMismatch.into();
        assert!(f.to_string().contains("FMCW"));
    }
}

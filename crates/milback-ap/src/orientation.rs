//! AP-side orientation estimation (§5.2a).
//!
//! While the node toggles one port (the other parked absorptive), the AP
//! transmits Field-2 sawtooth chirps. The node only retro-reflects the
//! sweep frequencies whose beam points back at the AP, so after background
//! subtraction the *time profile* of the residual echo within a chirp traces
//! the FSA gain across the sweep. The sweep instant with maximum reflected
//! power maps through `slope` to the beam frequency, and through the FSA's
//! frequency→angle law to the node's orientation.

use crate::fmcw::{FmcwError, FmcwProcessor};
use mmwave_rf::antenna::fsa::{FsaDesign, FsaPort};
use mmwave_sigproc::complex::Complex;
use mmwave_sigproc::detect::find_peak;
use serde::{Deserialize, Serialize};

/// Errors from the AP-side orientation estimator.
#[derive(Debug, Clone, PartialEq)]
pub enum ApOrientationError {
    /// The underlying FMCW stage failed.
    Fmcw(FmcwError),
    /// The peak sweep frequency maps outside the FSA scan range.
    OutOfScanRange {
        /// The measured peak frequency, Hz.
        freq_hz: f64,
    },
    /// The subtracted residual was empty.
    EmptyResidual,
}

impl std::fmt::Display for ApOrientationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApOrientationError::Fmcw(e) => write!(f, "FMCW stage failed: {e}"),
            ApOrientationError::OutOfScanRange { freq_hz } => {
                write!(
                    f,
                    "peak reflection at {freq_hz:.3e} Hz is outside the FSA scan range"
                )
            }
            ApOrientationError::EmptyResidual => write!(f, "no residual signal after subtraction"),
        }
    }
}

impl std::error::Error for ApOrientationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ApOrientationError::Fmcw(e) => Some(e),
            ApOrientationError::OutOfScanRange { .. } | ApOrientationError::EmptyResidual => None,
        }
    }
}

impl From<FmcwError> for ApOrientationError {
    fn from(e: FmcwError) -> Self {
        ApOrientationError::Fmcw(e)
    }
}

/// An orientation estimate from the AP's side.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApOrientationEstimate {
    /// Estimated node orientation (incidence angle at the node), radians.
    pub orientation_rad: f64,
    /// Sweep frequency of maximum reflection, Hz.
    pub peak_freq_hz: f64,
    /// Time within the chirp of maximum reflection, seconds.
    pub peak_time_s: f64,
}

/// The AP-side orientation estimator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApOrientationEstimator {
    /// Which node port was toggling during the measurement.
    pub toggled_port: FsaPort,
    /// Moving-average smoothing window over the residual envelope, samples.
    pub smooth_samples: usize,
}

impl ApOrientationEstimator {
    /// Default: port A toggles; the smoothing window (≈1.5 µs at 50 MS/s)
    /// averages out multipath-interference ripple, which beats at a few
    /// hundred kHz, while staying well inside the ~3 µs width the ~10° beam
    /// envelope occupies within the sweep.
    pub fn milback_default() -> Self {
        Self {
            toggled_port: FsaPort::A,
            smooth_samples: 75,
        }
    }

    /// Estimates orientation from consecutive chirp captures (the node
    /// toggling `toggled_port` between them).
    ///
    /// Works in the time domain: subtracts consecutive chirps' beat signals
    /// (the paper's FFT → subtract → IFFT round trip is equivalent),
    /// smooths the residual envelope and finds the sweep position of peak
    /// reflected power.
    pub fn estimate(
        &self,
        proc: &FmcwProcessor,
        beats: &[Vec<Complex>],
        fsa: &FsaDesign,
    ) -> Result<ApOrientationEstimate, ApOrientationError> {
        if beats.len() < 2 {
            return Err(ApOrientationError::Fmcw(FmcwError::NotEnoughChirps {
                got: beats.len(),
            }));
        }
        let n = beats[0].len();
        if beats.iter().any(|b| b.len() != n) {
            return Err(ApOrientationError::Fmcw(FmcwError::LengthMismatch));
        }
        if n == 0 {
            return Err(ApOrientationError::EmptyResidual);
        }
        // Accumulate |pairwise difference|² over all consecutive pairs.
        let mut envelope = vec![0.0f64; n];
        for pair in beats.windows(2) {
            for (k, e) in envelope.iter_mut().enumerate() {
                *e += (pair[0][k] - pair[1][k]).norm_sqr();
            }
        }
        let smoothed = moving_average(&envelope, self.smooth_samples.max(1));
        let peak = find_peak(&smoothed).ok_or(ApOrientationError::EmptyResidual)?;
        let t = peak.position / proc.sample_rate_hz;
        let freq = proc.chirp.instantaneous_freq(t);
        let orientation = fsa
            .beam_angle_rad(self.toggled_port, freq)
            .ok_or(ApOrientationError::OutOfScanRange { freq_hz: freq })?;
        Ok(ApOrientationEstimate {
            orientation_rad: orientation,
            peak_freq_hz: freq,
            peak_time_s: t,
        })
    }
}

/// Centered moving average with edge clamping.
fn moving_average(x: &[f64], window: usize) -> Vec<f64> {
    let half = window / 2;
    (0..x.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(x.len());
            x[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_rf::channel::{synthesize_beat, Echo};
    use mmwave_sigproc::random::GaussianSource;

    /// Captures chirps where the node's echo amplitude follows the FSA gain
    /// at the instantaneous sweep frequency and toggles chirp-to-chirp.
    #[allow(clippy::too_many_arguments)]
    fn capture(
        proc: &FmcwProcessor,
        fsa: &FsaDesign,
        psi: f64,
        range: f64,
        base_amp: f64,
        noise: f64,
        seed: u64,
        chirps: usize,
    ) -> Vec<Vec<Complex>> {
        let mut rng = GaussianSource::new(seed);
        (0..chirps)
            .map(|k| {
                let gamma = if k % 2 == 0 { 0.83 } else { 0.18 };
                let fsa = *fsa;
                let node = Echo {
                    distance_m: range,
                    extra_phase_rad: 0.0,
                    amplitude: Box::new(move |_, f| {
                        let g = fsa.gain_linear(FsaPort::A, f, psi);
                        Complex::real(base_amp * g * gamma)
                    }),
                };
                let clutter = Echo::constant(2.2, 4e-4);
                let mut b = synthesize_beat(&proc.chirp, &[clutter, node], proc.sample_rate_hz);
                rng.add_complex_noise(&mut b, noise);
                b
            })
            .collect()
    }

    #[test]
    fn recovers_orientation_across_the_scan() {
        let proc = FmcwProcessor::milback_default();
        let fsa = FsaDesign::milback_default();
        let est = ApOrientationEstimator::milback_default();
        for deg in [-24.0f64, -10.0, 0.0, 8.0, 20.0] {
            let psi = deg.to_radians();
            let beats = capture(&proc, &fsa, psi, 3.0, 1e-6, 1e-18, 31, 5);
            let got = est.estimate(&proc, &beats, &fsa).unwrap();
            assert!(
                (got.orientation_rad - psi).abs().to_degrees() < 1.5,
                "at {deg}°: got {:.2}°",
                got.orientation_rad.to_degrees()
            );
        }
    }

    #[test]
    fn peak_frequency_matches_fsa_law() {
        let proc = FmcwProcessor::milback_default();
        let fsa = FsaDesign::milback_default();
        let est = ApOrientationEstimator::milback_default();
        let psi = 15f64.to_radians();
        let beats = capture(&proc, &fsa, psi, 3.0, 1e-6, 1e-18, 32, 5);
        let got = est.estimate(&proc, &beats, &fsa).unwrap();
        let expected = fsa.frequency_for_angle(FsaPort::A, psi).unwrap();
        assert!(
            (got.peak_freq_hz - expected).abs() < 60e6,
            "peak {:.4e} vs {expected:.4e}",
            got.peak_freq_hz
        );
    }

    #[test]
    fn too_few_chirps_rejected() {
        let proc = FmcwProcessor::milback_default();
        let fsa = FsaDesign::milback_default();
        let est = ApOrientationEstimator::milback_default();
        let err = est.estimate(&proc, &[], &fsa).unwrap_err();
        assert!(matches!(
            err,
            ApOrientationError::Fmcw(FmcwError::NotEnoughChirps { .. })
        ));
    }

    #[test]
    fn moving_average_smooths() {
        let x = [0.0, 0.0, 10.0, 0.0, 0.0];
        let y = moving_average(&x, 3);
        assert!(y[2] < 10.0 && y[1] > 0.0 && y[3] > 0.0);
        // Mean preserved approximately in the interior.
        assert!((y[2] - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn port_b_estimation_mirrors() {
        let proc = FmcwProcessor::milback_default();
        let fsa = FsaDesign::milback_default();
        let psi = 10f64.to_radians();
        // Node toggles port B instead.
        let mut rng = GaussianSource::new(50);
        let beats: Vec<Vec<Complex>> = (0..5)
            .map(|k| {
                let gamma = if k % 2 == 0 { 0.83 } else { 0.18 };
                let node = Echo {
                    distance_m: 3.0,
                    extra_phase_rad: 0.0,
                    amplitude: Box::new(move |_, f| {
                        Complex::real(1e-6 * fsa.gain_linear(FsaPort::B, f, psi) * gamma)
                    }),
                };
                let mut b = synthesize_beat(&proc.chirp, &[node], proc.sample_rate_hz);
                rng.add_complex_noise(&mut b, 1e-18);
                b
            })
            .collect();
        let est = ApOrientationEstimator {
            toggled_port: FsaPort::B,
            smooth_samples: 15,
        };
        let got = est.estimate(&proc, &beats, &fsa).unwrap();
        assert!((got.orientation_rad - psi).abs().to_degrees() < 1.5);
    }

    #[test]
    fn error_display() {
        assert!(ApOrientationError::EmptyResidual
            .to_string()
            .contains("residual"));
        assert!(ApOrientationError::OutOfScanRange { freq_hz: 1e9 }
            .to_string()
            .contains("scan"));
    }
}

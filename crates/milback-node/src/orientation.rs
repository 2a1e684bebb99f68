//! Node-side orientation sensing (§5.2b, Fig 5).
//!
//! During preamble Field 1 the AP sweeps a *triangular* chirp while both
//! node ports absorb. The node's detector sees a power peak each time the
//! instantaneous chirp frequency crosses the frequency whose beam (for that
//! port) points at the AP — once on the up-sweep and once on the
//! down-sweep. The separation of those two peaks is a one-to-one function
//! of the beam frequency, hence of the node's orientation, and measuring a
//! *time separation* needs no frequency-selective hardware at all: an
//! envelope detector and a slow MCU ADC suffice.

use mmwave_rf::antenna::fsa::{FsaDesign, FsaGainEval, FsaPort};
use mmwave_sigproc::detect::two_strongest_peaks;
use mmwave_sigproc::waveform::{Chirp, ChirpShape};
use serde::{Deserialize, Serialize};

/// Errors from the orientation estimator.
#[derive(Debug, Clone, PartialEq)]
pub enum OrientationError {
    /// The chirp is not triangular.
    NotTriangular,
    /// Fewer than two peaks found in a detector trace.
    PeaksNotFound,
    /// The measured separation maps outside the FSA's scan range.
    OutOfScanRange {
        /// The frequency implied by the measured separation, Hz.
        implied_freq_hz: f64,
    },
}

impl std::fmt::Display for OrientationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrientationError::NotTriangular => {
                write!(f, "node orientation sensing requires a triangular chirp")
            }
            OrientationError::PeaksNotFound => {
                write!(f, "could not find two power peaks in the detector trace")
            }
            OrientationError::OutOfScanRange { implied_freq_hz } => {
                write!(
                    f,
                    "implied beam frequency {implied_freq_hz:.3e} Hz outside scan range"
                )
            }
        }
    }
}

impl std::error::Error for OrientationError {}

/// One port's orientation estimate with its intermediate measurements,
/// useful for debugging and for the Fig 5 example.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PortEstimate {
    /// Time of the up-sweep peak, seconds into the chirp.
    pub peak_up_s: f64,
    /// Time of the down-sweep peak, seconds into the chirp.
    pub peak_down_s: f64,
    /// Beam frequency implied by the peak separation, Hz.
    pub beam_freq_hz: f64,
    /// Estimated incidence angle, radians.
    pub incidence_rad: f64,
}

/// The node-side orientation estimator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OrientationEstimator {
    /// The triangular chirp the AP transmits in Field 1.
    pub chirp: Chirp,
    /// ADC sample rate at which the traces were captured, Hz.
    pub sample_rate_hz: f64,
    /// Minimum separation between candidate peaks, samples (rejects ripple
    /// on the main lobes).
    pub min_peak_separation: usize,
}

impl OrientationEstimator {
    /// Creates an estimator for the paper's Field-1 chirp sampled by the
    /// node MCU at 1 MS/s (§8, §9.3).
    ///
    /// # Panics
    /// Panics if the chirp is not triangular or the rate is non-positive.
    pub fn new(chirp: Chirp, sample_rate_hz: f64) -> Self {
        assert!(
            chirp.shape == ChirpShape::Triangular,
            "requires a triangular chirp"
        );
        assert!(sample_rate_hz > 0.0);
        Self {
            chirp,
            sample_rate_hz,
            min_peak_separation: 3,
        }
    }

    /// The paper's configuration: 45 µs triangular chirp over 26.5–29.5 GHz
    /// sampled at 1 MS/s.
    pub fn milback_default() -> Self {
        Self::new(Chirp::triangular(26.5e9, 3e9, 45e-6), 1e6)
    }

    /// Estimates orientation from one port's detector trace (one chirp).
    ///
    /// Candidate peak pairs are constrained by the triangular-chirp
    /// geometry: the up-sweep and down-sweep crossings of any frequency
    /// satisfy `t_up + t_down = T` (they are mirror images around the
    /// apex), so multipath ripple peaks that do not pair symmetrically are
    /// rejected rather than silently producing a gross error.
    pub fn estimate_port(
        &self,
        port: FsaPort,
        trace: &[f64],
        fsa: &FsaDesign,
    ) -> Result<PortEstimate, OrientationError> {
        let (p1, p2) = self
            .symmetric_peak_pair(trace)
            .ok_or(OrientationError::PeaksNotFound)?;
        let dt = (p2.position - p1.position) / self.sample_rate_hz;
        let beam_freq = self
            .chirp
            .freq_from_peak_separation(dt)
            .ok_or(OrientationError::NotTriangular)?;
        let incidence =
            fsa.beam_angle_rad(port, beam_freq)
                .ok_or(OrientationError::OutOfScanRange {
                    implied_freq_hz: beam_freq,
                })?;
        Ok(PortEstimate {
            peak_up_s: p1.position / self.sample_rate_hz,
            peak_down_s: p2.position / self.sample_rate_hz,
            beam_freq_hz: beam_freq,
            incidence_rad: incidence,
        })
    }

    /// Full estimate: runs both ports and averages, as §9.3 describes
    /// ("the estimation from two ports is averaged").
    pub fn estimate(
        &self,
        trace_a: &[f64],
        trace_b: &[f64],
        fsa: &FsaDesign,
    ) -> Result<f64, OrientationError> {
        let ea = self.estimate_port(FsaPort::A, trace_a, fsa)?;
        let eb = self.estimate_port(FsaPort::B, trace_b, fsa)?;
        Ok((ea.incidence_rad + eb.incidence_rad) / 2.0)
    }

    /// Finds the strongest pair of local maxima whose midpoint lies at the
    /// chirp apex (`t₁ + t₂ ≈ T`), falling back to the two strongest peaks
    /// when no symmetric pair exists.
    fn symmetric_peak_pair(
        &self,
        trace: &[f64],
    ) -> Option<(mmwave_sigproc::detect::Peak, mmwave_sigproc::detect::Peak)> {
        let total = (self.chirp.duration_s * self.sample_rate_hz).round();
        // Tolerance: 4 ADC samples of asymmetry.
        let tol = 4.0;
        let peaks =
            mmwave_sigproc::detect::find_peaks(trace, f64::NEG_INFINITY, self.min_peak_separation);
        let top = &peaks[..peaks.len().min(6)];
        let mut best: Option<(f64, usize, usize)> = None;
        for i in 0..top.len() {
            for j in (i + 1)..top.len() {
                if (top[i].position + top[j].position - total).abs() <= tol {
                    let score = top[i].value + top[j].value;
                    if best.map(|(s, _, _)| score > s).unwrap_or(true) {
                        best = Some((score, i, j));
                    }
                }
            }
        }
        if let Some((_, i, j)) = best {
            let (a, b) = (top[i], top[j]);
            return Some(if a.position <= b.position {
                (a, b)
            } else {
                (b, a)
            });
        }
        two_strongest_peaks(trace, self.min_peak_separation)
    }

    /// Synthesizes the ideal (noise-free, geometry-only) detector power
    /// trace a port would see for a node at `incidence_rad` — the power
    /// envelope of Fig 5b. Used by tests and the orientation example; the
    /// full-fidelity path (with detector dynamics, ADC and noise) lives in
    /// `milback-core`.
    pub fn ideal_power_trace(
        &self,
        port: FsaPort,
        incidence_rad: f64,
        fsa: &FsaDesign,
        peak_power_w: f64,
    ) -> Vec<f64> {
        // Hoisted per-(port, freq) evaluation: each sample queries the gain
        // at two angles of the *same* frequency (trace point + beam-peak
        // normalization), so the shared FsaFreqEval halves the per-sample
        // constant setup while staying bit-exact with the direct calls.
        let eval = FsaGainEval::new(fsa);
        let n = (self.chirp.duration_s * self.sample_rate_hz).round() as usize;
        (0..n)
            .map(|i| {
                let t = i as f64 / self.sample_rate_hz;
                let f = self.chirp.instantaneous_freq(t);
                let fe = eval.at_freq(port, f);
                peak_power_w * fe.gain_linear(incidence_rad)
                    / fe.gain_linear(fe.beam_angle_rad().unwrap_or(0.0))
                        .max(1e-12)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_sigproc::random::GaussianSource;

    fn setup() -> (OrientationEstimator, FsaDesign) {
        (
            OrientationEstimator::milback_default(),
            FsaDesign::milback_default(),
        )
    }

    /// Gain-shaped trace for a port at a given incidence (normalized).
    fn trace_for(est: &OrientationEstimator, fsa: &FsaDesign, port: FsaPort, psi: f64) -> Vec<f64> {
        let n = (est.chirp.duration_s * est.sample_rate_hz).round() as usize;
        (0..n)
            .map(|i| {
                let t = i as f64 / est.sample_rate_hz;
                let f = est.chirp.instantaneous_freq(t);
                fsa.gain_linear(port, f, psi)
            })
            .collect()
    }

    #[test]
    fn clean_estimate_is_accurate_across_orientations() {
        let (est, fsa) = setup();
        for deg in [-25.0f64, -15.0, -5.0, 5.0, 12.0, 24.0] {
            let psi = deg.to_radians();
            let ta = trace_for(&est, &fsa, FsaPort::A, psi);
            let tb = trace_for(&est, &fsa, FsaPort::B, psi);
            let got = est.estimate(&ta, &tb, &fsa).unwrap();
            assert!(
                (got - psi).abs().to_degrees() < 1.0,
                "at {deg}°: got {:.2}°",
                got.to_degrees()
            );
        }
    }

    #[test]
    fn near_normal_peaks_merge_gracefully() {
        // At ψ close to 0 the two peaks approach the apex; the estimator
        // should still produce a small-angle answer (tolerance is looser —
        // the peaks start to overlap, which the paper's Fig 13a shows as
        // slightly elevated error near 0°).
        let (est, fsa) = setup();
        let psi = 2f64.to_radians();
        let ta = trace_for(&est, &fsa, FsaPort::A, psi);
        let tb = trace_for(&est, &fsa, FsaPort::B, psi);
        let got = est.estimate(&ta, &tb, &fsa).unwrap();
        assert!(
            (got - psi).abs().to_degrees() < 3.0,
            "got {:.2}°",
            got.to_degrees()
        );
    }

    #[test]
    fn noisy_estimate_stays_within_paper_bounds() {
        // §9.3: mean error < 3° — with moderate detector noise and 25
        // trials the estimator should beat that comfortably.
        let (est, fsa) = setup();
        let mut rng = GaussianSource::new(42);
        let psi = (-18f64).to_radians();
        let mut errors = Vec::new();
        for _ in 0..25 {
            let mut ta = trace_for(&est, &fsa, FsaPort::A, psi);
            let mut tb = trace_for(&est, &fsa, FsaPort::B, psi);
            let peak = ta.iter().cloned().fold(0.0, f64::max);
            rng.add_real_noise(&mut ta, (peak / 20.0).powi(2));
            rng.add_real_noise(&mut tb, (peak / 20.0).powi(2));
            let got = est.estimate(&ta, &tb, &fsa).unwrap();
            errors.push((got - psi).abs().to_degrees());
        }
        let mean_err = mmwave_sigproc::stats::mean(&errors);
        assert!(mean_err < 3.0, "mean error {mean_err:.2}°");
    }

    #[test]
    fn port_estimates_agree() {
        let (est, fsa) = setup();
        let psi = 10f64.to_radians();
        let ta = trace_for(&est, &fsa, FsaPort::A, psi);
        let tb = trace_for(&est, &fsa, FsaPort::B, psi);
        let ea = est.estimate_port(FsaPort::A, &ta, &fsa).unwrap();
        let eb = est.estimate_port(FsaPort::B, &tb, &fsa).unwrap();
        assert!((ea.incidence_rad - eb.incidence_rad).abs().to_degrees() < 1.0);
        // Port A and B see mirrored beam frequencies around the normal.
        let f0 = fsa.normal_incidence_freq_hz();
        assert!((ea.beam_freq_hz > f0) != (eb.beam_freq_hz > f0));
    }

    #[test]
    fn peak_separation_shrinks_with_beam_frequency() {
        let (est, fsa) = setup();
        // Port A: higher incidence → higher beam frequency → closer peaks.
        let t1 = trace_for(&est, &fsa, FsaPort::A, (-20f64).to_radians());
        let t2 = trace_for(&est, &fsa, FsaPort::A, 20f64.to_radians());
        let e1 = est.estimate_port(FsaPort::A, &t1, &fsa).unwrap();
        let e2 = est.estimate_port(FsaPort::A, &t2, &fsa).unwrap();
        let sep1 = e1.peak_down_s - e1.peak_up_s;
        let sep2 = e2.peak_down_s - e2.peak_up_s;
        assert!(sep2 < sep1, "sep {sep2:.2e} !< {sep1:.2e}");
    }

    #[test]
    fn flat_trace_fails_cleanly() {
        let (est, fsa) = setup();
        // min_peak_separation of a flat-noise trace: peaks exist, but the
        // implied geometry lands out of range or is nonsense. A strictly
        // flat trace has no interior local maxima at all.
        let err = est
            .estimate(&vec![1.0; 45], &vec![1.0; 45], &fsa)
            .unwrap_err();
        assert_eq!(err, OrientationError::PeaksNotFound);
    }

    #[test]
    #[should_panic(expected = "triangular")]
    fn rejects_sawtooth_chirp() {
        OrientationEstimator::new(Chirp::sawtooth(26.5e9, 3e9, 18e-6), 1e6);
    }

    #[test]
    fn ideal_power_trace_has_two_peaks_off_normal() {
        let (est, fsa) = setup();
        let tr = est.ideal_power_trace(FsaPort::A, 15f64.to_radians(), &fsa, 1e-6);
        let peaks = two_strongest_peaks(&tr, 3).unwrap();
        assert!(peaks.1.position > peaks.0.position);
        // Symmetric around the apex (sample 22.5 of 45 at 1 MS/s).
        let mid = tr.len() as f64 / 2.0;
        let c1 = mid - peaks.0.position;
        let c2 = peaks.1.position - mid;
        assert!((c1 - c2).abs() < 2.0, "asymmetric: {c1} vs {c2}");
    }

    #[test]
    fn error_display() {
        assert!(OrientationError::NotTriangular
            .to_string()
            .contains("triangular"));
        assert!(OrientationError::PeaksNotFound
            .to_string()
            .contains("peaks"));
        assert!(OrientationError::OutOfScanRange {
            implied_freq_hz: 1e9
        }
        .to_string()
        .contains("scan range"));
    }
}

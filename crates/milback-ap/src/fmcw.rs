//! FMCW processing at the AP: range spectra, five-chirp background
//! subtraction, and node-echo detection (§5.1).
//!
//! The AP digitizes the mixer output (beat signal) for each of the five
//! Field-2 sawtooth chirps while the node toggles its reflection at the
//! chirp repetition rate. Static clutter produces identical beat signals
//! chirp-to-chirp; the node's echo alternates. Pairwise subtraction of
//! consecutive chirp spectra therefore cancels clutter (and the AP's
//! self-interference) while the node's modulated echo survives.

use mmwave_sigproc::complex::{Complex, ZERO};
use mmwave_sigproc::detect::find_peak;
use mmwave_sigproc::fft::{Direction, FftPlanner};
use mmwave_sigproc::parallel;
use mmwave_sigproc::units::SPEED_OF_LIGHT;
use mmwave_sigproc::waveform::{Chirp, ChirpShape};
use mmwave_sigproc::window::Window;
use serde::{Deserialize, Serialize};

/// Errors from the FMCW pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum FmcwError {
    /// Need at least two chirps for background subtraction.
    NotEnoughChirps {
        /// Chirps provided.
        got: usize,
    },
    /// Chirp captures differ in length.
    LengthMismatch,
    /// No echo survived background subtraction above the detection floor.
    NoEchoDetected,
}

impl std::fmt::Display for FmcwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FmcwError::NotEnoughChirps { got } => {
                write!(f, "background subtraction needs ≥2 chirps, got {got}")
            }
            FmcwError::LengthMismatch => write!(f, "chirp captures differ in length"),
            FmcwError::NoEchoDetected => write!(f, "no modulated echo above detection floor"),
        }
    }
}

impl std::error::Error for FmcwError {}

/// A detected (node) echo.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EchoDetection {
    /// Estimated range, meters.
    pub range_m: f64,
    /// Beat frequency of the echo, Hz.
    pub beat_hz: f64,
    /// Peak power of the subtracted spectrum at the echo (linear).
    pub peak_power: f64,
    /// Ratio of the peak to the median subtracted-spectrum power, dB — a
    /// detection-confidence figure.
    pub peak_to_floor_db: f64,
    /// Sub-bin interpolated spectrum position, bins.
    pub bin_position: f64,
}

/// Reusable workspace for the FMCW pipeline.
///
/// The pipeline's steady state (one localization capture per trial, five
/// chirps each) previously re-allocated the flat spectra buffer, the FFT
/// scratch and the accumulation buffer on every call. Holding one
/// `FmcwScratch` per worker and calling the `*_with` variants
/// ([`FmcwProcessor::range_spectra_flat_with`],
/// [`FmcwProcessor::subtracted_power_with`],
/// [`FmcwProcessor::detect_node_with`]) makes repeat captures
/// allocation-free after the first: buffers grow to the high-water mark and
/// are reused. Results are bit-exact with the allocating paths (same plan,
/// same per-frame routine, same accumulation order).
#[derive(Debug, Default)]
pub struct FmcwScratch {
    /// Row-major per-chirp spectra, `fft_len() × chirps`.
    flat: Vec<Complex>,
    /// Planner scratch (`FftPlan::scratch_len()` f64s).
    fft: Vec<f64>,
    /// Accumulated subtracted power, `fft_len() / 2`.
    acc: Vec<f64>,
}

impl FmcwScratch {
    /// An empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Range spectra of the last chirp stack processed through this
    /// workspace, row-major (`fft_len()` per chirp) — what
    /// [`AoaEstimator::estimate_from_rx1`](crate::aoa::AoaEstimator::estimate_from_rx1)
    /// reads instead of transforming channel 1 again.
    pub fn spectra(&self) -> &[Complex] {
        &self.flat
    }
}

/// The AP's FMCW processor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FmcwProcessor {
    /// The sawtooth localization chirp (Field 2).
    pub chirp: Chirp,
    /// Digitizer sample rate, Hz.
    pub sample_rate_hz: f64,
    /// Window applied before the range FFT.
    pub window: Window,
    /// Zero-padding factor (≥1) for finer spectral interpolation.
    pub zero_pad_factor: usize,
    /// Detection threshold: required peak-to-median-floor ratio, dB.
    pub detection_threshold_db: f64,
}

impl FmcwProcessor {
    /// Creates a processor.
    ///
    /// # Panics
    /// Panics unless the chirp is sawtooth and parameters are positive.
    pub fn new(chirp: Chirp, sample_rate_hz: f64) -> Self {
        assert!(
            chirp.shape == ChirpShape::Sawtooth,
            "localization uses sawtooth chirps"
        );
        assert!(sample_rate_hz > 0.0);
        Self {
            chirp,
            sample_rate_hz,
            window: Window::Hann,
            zero_pad_factor: 4,
            detection_threshold_db: 10.0,
        }
    }

    /// The paper's Field-2 processing: 18 µs, 3 GHz sawtooth at 50 MS/s.
    pub fn milback_default() -> Self {
        Self::new(Chirp::sawtooth(26.5e9, 3e9, 18e-6), 50e6)
    }

    /// Samples per chirp at the digitizer rate.
    pub fn samples_per_chirp(&self) -> usize {
        (self.chirp.duration_s * self.sample_rate_hz).round() as usize
    }

    /// FFT length after zero padding.
    pub fn fft_len(&self) -> usize {
        (self.samples_per_chirp() * self.zero_pad_factor.max(1)).next_power_of_two()
    }

    /// Converts a (possibly fractional) FFT bin to range in meters.
    pub fn bin_to_range_m(&self, bin: f64) -> f64 {
        let beat_hz = bin * self.sample_rate_hz / self.fft_len() as f64;
        SPEED_OF_LIGHT * beat_hz / (2.0 * self.chirp.slope())
    }

    /// Windowed, zero-padded range spectrum of one chirp's beat signal.
    pub fn range_spectrum(&self, beat: &[Complex]) -> Vec<Complex> {
        let n = self.fft_len();
        let plan = FftPlanner::plan(n);
        let mut out = vec![ZERO; n];
        let mut scratch = vec![0.0f64; plan.scratch_len()];
        self.range_spectrum_into(beat, &mut out, &mut scratch);
        out
    }

    /// Allocation-free core of [`Self::range_spectrum`]: windows `beat`, zero-pads
    /// it into `out`, and runs the planned range FFT in place, using
    /// caller-owned `scratch`. Hot loops (per-chirp fan-out, benches) call
    /// this with reused buffers so the steady state performs no heap
    /// allocation.
    ///
    /// # Panics
    /// Panics unless `out.len() == fft_len()`, `beat.len() <= fft_len()`,
    /// and `scratch` is at least `FftPlanner::plan(fft_len()).scratch_len()`.
    pub(crate) fn range_spectrum_into(
        &self,
        beat: &[Complex],
        out: &mut [Complex],
        scratch: &mut [f64],
    ) {
        let n = self.fft_len();
        assert_eq!(out.len(), n, "output buffer must be fft_len() long");
        assert!(beat.len() <= n, "beat signal longer than the FFT length");
        out[..beat.len()].copy_from_slice(beat);
        self.window.apply_complex(&mut out[..beat.len()]);
        out[beat.len()..].fill(ZERO);
        FftPlanner::plan(n).process_with_scratch(out, scratch, Direction::Forward);
    }

    /// Range spectra of every chirp as one flat row-major buffer
    /// (spectrum of chirp `c` occupies `flat[c * fft_len()..][..fft_len()]`),
    /// computed by up to `threads` workers. One FFT plan and one scratch
    /// buffer per worker; output is bit-identical for every thread count.
    pub fn range_spectra_flat(
        &self,
        beats: &[Vec<Complex>],
        threads: usize,
    ) -> Result<Vec<Complex>, FmcwError> {
        if let Some(first) = beats.first() {
            if beats.iter().any(|b| b.len() != first.len()) {
                return Err(FmcwError::LengthMismatch);
            }
        }
        let n = self.fft_len();
        let plan = FftPlanner::plan(n);
        let mut flat = vec![ZERO; n * beats.len()];
        parallel::for_each_chunk_with(
            &mut flat,
            n,
            threads,
            || vec![0.0f64; plan.scratch_len()],
            |scratch, start, out| self.range_spectrum_into(&beats[start / n], out, scratch),
        );
        Ok(flat)
    }

    /// Batched serial variant of [`Self::range_spectra_flat`] reusing a
    /// caller-owned [`FmcwScratch`]: the FFT plan is looked up once for the
    /// whole chirp stack and every frame goes through
    /// [`mmwave_sigproc::fft::FftPlan::process_many_with_scratch`], so the
    /// steady state performs no plan lookups and no heap allocation.
    /// Output is bit-identical to [`Self::range_spectra_flat`] at any
    /// thread count (same per-frame routine, same plan).
    pub fn range_spectra_flat_with<'s>(
        &self,
        beats: &[Vec<Complex>],
        scratch: &'s mut FmcwScratch,
    ) -> Result<&'s [Complex], FmcwError> {
        self.fill_spectra_flat(beats, &mut scratch.flat, &mut scratch.fft)?;
        Ok(&scratch.flat)
    }

    /// Windows, zero-pads and FFTs every chirp into `flat` (row-major),
    /// batching all frames through one plan lookup and one scratch buffer.
    fn fill_spectra_flat(
        &self,
        beats: &[Vec<Complex>],
        flat: &mut Vec<Complex>,
        fft: &mut Vec<f64>,
    ) -> Result<(), FmcwError> {
        if let Some(first) = beats.first() {
            if beats.iter().any(|b| b.len() != first.len()) {
                return Err(FmcwError::LengthMismatch);
            }
        }
        let n = self.fft_len();
        let plan = FftPlanner::plan(n);
        flat.resize(n * beats.len(), ZERO);
        fft.resize(plan.scratch_len(), 0.0);
        for (frame, beat) in flat.chunks_exact_mut(n).zip(beats) {
            assert!(beat.len() <= n, "beat signal longer than the FFT length");
            frame[..beat.len()].copy_from_slice(beat);
            self.window.apply_complex(&mut frame[..beat.len()]);
            frame[beat.len()..].fill(ZERO);
        }
        plan.process_many_with_scratch(flat, fft, Direction::Forward);
        Ok(())
    }

    /// Full node detection: per-chirp spectra → pairwise subtraction →
    /// incoherent accumulation → peak pick over the positive-range half.
    ///
    /// `beats` holds the digitized beat signal of each chirp (the node must
    /// have toggled between at least two of them, else everything cancels
    /// and `NoEchoDetected` is returned).
    pub fn detect_node(&self, beats: &[Vec<Complex>]) -> Result<EchoDetection, FmcwError> {
        if beats.len() < 2 {
            return Err(FmcwError::NotEnoughChirps { got: beats.len() });
        }
        let acc = self.subtracted_power(beats)?;
        self.detect_from_power(&acc)
    }

    /// Allocation-free [`Self::detect_node`] reusing a caller-owned
    /// [`FmcwScratch`] — bit-exact with the allocating path.
    pub fn detect_node_with(
        &self,
        beats: &[Vec<Complex>],
        scratch: &mut FmcwScratch,
    ) -> Result<EchoDetection, FmcwError> {
        if beats.len() < 2 {
            return Err(FmcwError::NotEnoughChirps { got: beats.len() });
        }
        self.subtracted_power_with(beats, scratch)?;
        self.detect_from_power(&scratch.acc)
    }

    /// Peak pick + floor gate on an accumulated subtracted-power spectrum —
    /// the shared tail of [`Self::detect_node`] / [`Self::detect_node_with`].
    fn detect_from_power(&self, acc: &[f64]) -> Result<EchoDetection, FmcwError> {
        let peak = find_peak(acc).ok_or(FmcwError::NoEchoDetected)?;
        let floor = median_floor(acc);
        let ratio_db = 10.0 * (peak.value / floor.max(1e-300)).log10();
        if ratio_db < self.detection_threshold_db {
            return Err(FmcwError::NoEchoDetected);
        }
        Ok(EchoDetection {
            range_m: self.bin_to_range_m(peak.position),
            beat_hz: peak.position * self.sample_rate_hz / self.fft_len() as f64,
            peak_power: peak.value,
            peak_to_floor_db: ratio_db,
            bin_position: peak.position,
        })
    }

    /// The subtracted-and-accumulated power spectrum itself (for plotting
    /// and for the AoA stage, which needs the peak bin of both channels).
    pub fn subtracted_power(&self, beats: &[Vec<Complex>]) -> Result<Vec<f64>, FmcwError> {
        if beats.len() < 2 {
            return Err(FmcwError::NotEnoughChirps { got: beats.len() });
        }
        let n = self.fft_len();
        let flat = self.range_spectra_flat(beats, parallel::max_threads())?;
        let rows: Vec<&[Complex]> = flat.chunks_exact(n).collect();
        // Accumulate |diff|² across consecutive-chirp pairs; keep only the
        // positive-beat half.
        let half = n / 2;
        let mut acc = vec![0.0f64; half];
        for pair in rows.windows(2) {
            for (k, slot) in acc.iter_mut().enumerate() {
                *slot += (pair[0][k] - pair[1][k]).norm_sqr();
            }
        }
        Ok(acc)
    }

    /// Allocation-free [`Self::subtracted_power`] reusing a caller-owned
    /// [`FmcwScratch`]: spectra come from the batched serial FFT path and
    /// the accumulation runs in the reused `acc` buffer, in the same pair
    /// order as the allocating path — results are bit-identical.
    pub fn subtracted_power_with<'s>(
        &self,
        beats: &[Vec<Complex>],
        scratch: &'s mut FmcwScratch,
    ) -> Result<&'s [f64], FmcwError> {
        if beats.len() < 2 {
            return Err(FmcwError::NotEnoughChirps { got: beats.len() });
        }
        self.fill_spectra_flat(beats, &mut scratch.flat, &mut scratch.fft)?;
        let n = self.fft_len();
        let half = n / 2;
        scratch.acc.resize(half, 0.0);
        scratch.acc.fill(0.0);
        for c in 0..beats.len() - 1 {
            let a = &scratch.flat[c * n..(c + 1) * n];
            let b = &scratch.flat[(c + 1) * n..(c + 2) * n];
            for (k, slot) in scratch.acc.iter_mut().enumerate() {
                *slot += (a[k] - b[k]).norm_sqr();
            }
        }
        Ok(&scratch.acc)
    }

    /// Complex subtracted spectrum of the first chirp pair — retains phase,
    /// which the AoA estimator compares across the two RX antennas.
    pub fn subtracted_spectrum(&self, beats: &[Vec<Complex>]) -> Result<Vec<Complex>, FmcwError> {
        if beats.len() < 2 {
            return Err(FmcwError::NotEnoughChirps { got: beats.len() });
        }
        if beats[0].len() != beats[1].len() {
            return Err(FmcwError::LengthMismatch);
        }
        let s0 = self.range_spectrum(&beats[0]);
        let s1 = self.range_spectrum(&beats[1]);
        Ok(s0.iter().zip(&s1).map(|(&a, &b)| a - b).collect())
    }
}

/// Median of a power spectrum — a robust noise-floor estimate.
fn median_floor(power: &[f64]) -> f64 {
    mmwave_sigproc::stats::median(power)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_rf::channel::{synthesize_beat, Echo};
    use mmwave_sigproc::random::GaussianSource;

    fn proc() -> FmcwProcessor {
        FmcwProcessor::milback_default()
    }

    /// Synthesizes `n` chirps of beat signal: static clutter plus a node
    /// echo whose amplitude alternates chirp-to-chirp (toggling).
    fn capture(
        p: &FmcwProcessor,
        node_range: f64,
        node_amp: f64,
        clutter: &[(f64, f64)],
        n: usize,
        noise_power: f64,
        seed: u64,
    ) -> Vec<Vec<Complex>> {
        let mut rng = GaussianSource::new(seed);
        (0..n)
            .map(|k| {
                let refl = k % 2 == 0;
                let mut echoes: Vec<Echo<'_>> =
                    clutter.iter().map(|&(d, a)| Echo::constant(d, a)).collect();
                let amp = if refl { node_amp } else { node_amp * 0.18 };
                echoes.push(Echo::constant(node_range, amp));
                let mut beat = synthesize_beat(&p.chirp, &echoes, p.sample_rate_hz);
                rng.add_complex_noise(&mut beat, noise_power);
                beat
            })
            .collect()
    }

    #[test]
    fn detects_node_range_amid_strong_clutter() {
        let p = proc();
        // Clutter 30 dB stronger than the node echo.
        let beats = capture(&p, 4.0, 1e-5, &[(2.0, 3e-4), (6.5, 5e-4)], 5, 1e-14, 1);
        let det = p.detect_node(&beats).unwrap();
        assert!(
            (det.range_m - 4.0).abs() < 0.05,
            "range {:.3} m (expected 4.0)",
            det.range_m
        );
        assert!(det.peak_to_floor_db > 10.0);
    }

    #[test]
    fn subtraction_cancels_static_clutter() {
        let p = proc();
        // No node at all: identical chirps → nothing survives.
        let mut rng = GaussianSource::new(9);
        let clutter_beat = {
            let echoes = vec![Echo::constant(3.0, 1e-4)];
            let mut b = synthesize_beat(&p.chirp, &echoes, p.sample_rate_hz);
            rng.add_complex_noise(&mut b, 0.0);
            b
        };
        let beats = vec![clutter_beat.clone(), clutter_beat.clone(), clutter_beat];
        assert_eq!(
            p.detect_node(&beats).unwrap_err(),
            FmcwError::NoEchoDetected
        );
    }

    #[test]
    fn range_accuracy_improves_with_subbin_interpolation() {
        // An off-grid range must come out within a few cm, far better than
        // the 5 cm bin size, thanks to quadratic interpolation.
        let p = proc();
        let true_range = 3.137;
        let beats = capture(&p, true_range, 1e-5, &[(1.5, 2e-4)], 5, 1e-16, 2);
        let det = p.detect_node(&beats).unwrap();
        assert!(
            (det.range_m - true_range).abs() < 0.02,
            "range {:.4} m vs {true_range}",
            det.range_m
        );
    }

    #[test]
    fn detection_degrades_gracefully_into_noise() {
        let p = proc();
        // Node echo buried under overwhelming noise → clean error.
        let beats = capture(&p, 5.0, 1e-9, &[], 5, 1e-6, 3);
        assert_eq!(
            p.detect_node(&beats).unwrap_err(),
            FmcwError::NoEchoDetected
        );
    }

    #[test]
    fn needs_two_chirps() {
        let p = proc();
        let beats = capture(&p, 3.0, 1e-5, &[], 1, 0.0, 4);
        assert_eq!(
            p.detect_node(&beats).unwrap_err(),
            FmcwError::NotEnoughChirps { got: 1 }
        );
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let p = proc();
        let mut beats = capture(&p, 3.0, 1e-5, &[], 3, 0.0, 5);
        beats[1].pop();
        assert_eq!(
            p.detect_node(&beats).unwrap_err(),
            FmcwError::LengthMismatch
        );
    }

    #[test]
    fn bin_range_mapping_roundtrip() {
        let p = proc();
        // Bin → range → beat must be self-consistent with the chirp slope.
        let bin = 100.0;
        let r = p.bin_to_range_m(bin);
        let beat = bin * p.sample_rate_hz / p.fft_len() as f64;
        let r2 = mmwave_rf::propagation::range_from_beat_m(p.chirp.slope(), beat);
        assert!((r - r2).abs() < 1e-12);
    }

    #[test]
    fn range_axis_is_monotone_from_zero() {
        let p = proc();
        let axis: Vec<f64> = (0..p.fft_len() / 2)
            .map(|k| p.bin_to_range_m(k as f64))
            .collect();
        assert_eq!(axis.len(), p.fft_len() / 2);
        assert_eq!(axis[0], 0.0);
        for w in axis.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Max unambiguous range at 50 MS/s: c·(fs/2)/(2·slope) ≈ 22.5 m.
        let max = *axis.last().unwrap();
        assert!((max - 22.5).abs() < 0.5, "max range {max:.1}");
    }

    #[test]
    fn stronger_modulation_contrast_raises_peak() {
        let p = proc();
        let strong = capture(&p, 4.0, 1e-5, &[], 5, 1e-16, 7);
        let weak: Vec<Vec<Complex>> = (0..5)
            .map(|k| {
                let amp = if k % 2 == 0 { 1e-5 } else { 0.9e-5 }; // shallow
                let echoes = vec![Echo::constant(4.0, amp)];
                synthesize_beat(&p.chirp, &echoes, p.sample_rate_hz)
            })
            .collect();
        let ds = p.detect_node(&strong).unwrap();
        let dw = p.detect_node(&weak).unwrap();
        assert!(ds.peak_power > 10.0 * dw.peak_power);
    }

    #[test]
    fn subtracted_spectrum_keeps_phase() {
        let p = proc();
        let beats = capture(&p, 4.0, 1e-5, &[], 2, 0.0, 8);
        let spec = p.subtracted_spectrum(&beats).unwrap();
        let power: Vec<f64> = spec.iter().map(|z| z.norm_sqr()).collect();
        let pk = find_peak(&power[..p.fft_len() / 2]).unwrap();
        // Phase at the peak is meaningful (non-degenerate complex value).
        assert!(spec[pk.index].norm() > 0.0);
    }

    #[test]
    fn flat_spectra_match_per_chirp_path_and_thread_counts() {
        let p = proc();
        let beats = capture(&p, 4.0, 1e-5, &[(2.0, 3e-4)], 4, 1e-14, 10);
        let n = p.fft_len();
        let serial = p.range_spectra_flat(&beats, 1).unwrap();
        for (k, b) in beats.iter().enumerate() {
            let s = p.range_spectrum(b);
            assert!(serial[k * n..(k + 1) * n] == s[..], "chirp {k} differs");
        }
        for threads in [2usize, 4] {
            let par = p.range_spectra_flat(&beats, threads).unwrap();
            assert!(par == serial, "threads={threads} diverges");
        }
    }

    #[test]
    fn ragged_beats_rejected_by_flat_spectra() {
        let p = proc();
        let mut beats = capture(&p, 3.0, 1e-5, &[], 3, 0.0, 11);
        beats[2].pop();
        assert_eq!(
            p.range_spectra_flat(&beats, 2).unwrap_err(),
            FmcwError::LengthMismatch
        );
    }

    #[test]
    fn scratch_paths_match_allocating_paths_bit_exactly() {
        let p = proc();
        let beats = capture(&p, 4.0, 1e-5, &[(2.0, 3e-4)], 5, 1e-14, 12);
        let mut scratch = FmcwScratch::new();
        // Flat spectra: batched serial arena vs threaded allocating path.
        let flat = p
            .range_spectra_flat(&beats, parallel::max_threads())
            .unwrap();
        assert!(p.range_spectra_flat_with(&beats, &mut scratch).unwrap() == &flat[..]);
        // Subtracted power accumulates identically.
        let acc = p.subtracted_power(&beats).unwrap();
        let acc_w = p.subtracted_power_with(&beats, &mut scratch).unwrap();
        assert!(acc_w
            .iter()
            .zip(&acc)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        // Detection agrees end to end.
        assert_eq!(
            p.detect_node_with(&beats, &mut scratch).unwrap(),
            p.detect_node(&beats).unwrap()
        );
    }

    #[test]
    fn scratch_is_reusable_across_stacks() {
        let p = proc();
        let mut scratch = FmcwScratch::new();
        // A larger stack first grows the buffers …
        let big = capture(&p, 4.0, 1e-5, &[(2.0, 3e-4)], 7, 1e-14, 13);
        p.detect_node_with(&big, &mut scratch).unwrap();
        // … then a smaller stack reuses them and still matches exactly.
        let small = capture(&p, 3.1, 1e-5, &[(5.0, 2e-4)], 3, 1e-14, 14);
        assert_eq!(
            p.detect_node_with(&small, &mut scratch).unwrap(),
            p.detect_node(&small).unwrap()
        );
        // Error cases propagate through the scratch path too.
        let mut ragged = small.clone();
        ragged[1].pop();
        assert_eq!(
            p.detect_node_with(&ragged, &mut scratch).unwrap_err(),
            FmcwError::LengthMismatch
        );
        assert_eq!(
            p.detect_node_with(&small[..1], &mut scratch).unwrap_err(),
            FmcwError::NotEnoughChirps { got: 1 }
        );
    }

    #[test]
    fn error_display() {
        assert!(FmcwError::NotEnoughChirps { got: 1 }
            .to_string()
            .contains("≥2"));
        assert!(FmcwError::LengthMismatch.to_string().contains("length"));
        assert!(FmcwError::NoEchoDetected.to_string().contains("floor"));
    }
}

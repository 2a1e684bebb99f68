//! Range–Doppler processing: the radar-native alternative to pairwise
//! background subtraction (§5.1).
//!
//! Stacking N chirps and FFT-ing *across* them (slow time) separates
//! echoes by their chirp-to-chirp phase/amplitude progression. Static
//! clutter concentrates in the zero-Doppler bin; a node toggling
//! reflective/absorptive **every chirp** alternates sign-like between
//! captures and lands exactly at the Nyquist Doppler bin (±PRF/2) — the
//! classic "tag modulation moves you off DC" trick that Millimetro and
//! OmniScatter also exploit. Pairwise subtraction is the two-chirp special
//! case; the full Doppler FFT buys `10·log10(N)` of integration gain and
//! per-bin clutter rejection.

use mmwave_sigproc::complex::{Complex, ZERO};
use mmwave_sigproc::detect::find_peak;
use mmwave_sigproc::fft::{Direction, FftPlanner};
use mmwave_sigproc::parallel;
use mmwave_sigproc::window::Window;
use serde::{Deserialize, Serialize};

use crate::fmcw::{FmcwError, FmcwProcessor};

/// A range–Doppler map: `map[doppler_bin][range_bin]` power.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeDopplerMap {
    /// Power per (Doppler, range) cell.
    pub map: Vec<Vec<f64>>,
    /// Number of chirps (Doppler bins).
    pub n_chirps: usize,
    /// Range bins retained (positive-beat half).
    pub n_range: usize,
}

impl RangeDopplerMap {
    /// Peak cell of one Doppler row: `(range_bin_interpolated, power)`.
    pub fn row_peak(&self, row: usize) -> Option<(f64, f64)> {
        let p = find_peak(&self.map[row])?;
        Some((p.position, p.value))
    }
}

/// Range–Doppler processor layered on the FMCW range pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DopplerProcessor {
    /// Window applied across slow time.
    pub doppler_window: Window,
}

impl DopplerProcessor {
    /// Default: rectangular across slow time. The node's alternation is
    /// exactly periodic at the chirp rate, so the rectangular window puts
    /// all of its energy in the Nyquist row and all static energy at DC —
    /// no taper needed (tapering is for *unknown* Doppler, not for this
    /// synchronized modulation).
    pub fn milback_default() -> Self {
        Self {
            doppler_window: Window::Rectangular,
        }
    }

    /// Builds the range–Doppler map from per-chirp beat captures.
    ///
    /// Requires at least two chirps of equal length; the chirp count need
    /// not be a power of two (Bluestein handles slow time too).
    pub fn range_doppler(
        &self,
        proc: &FmcwProcessor,
        beats: &[Vec<Complex>],
    ) -> Result<RangeDopplerMap, FmcwError> {
        self.range_doppler_with_threads(proc, beats, parallel::max_threads())
    }

    /// [`Self::range_doppler`] with an explicit worker budget. The map is
    /// bit-identical for every `threads` value; `threads <= 1` runs entirely
    /// on the calling thread (the serial reference path).
    pub fn range_doppler_with_threads(
        &self,
        proc: &FmcwProcessor,
        beats: &[Vec<Complex>],
        threads: usize,
    ) -> Result<RangeDopplerMap, FmcwError> {
        if beats.len() < 2 {
            return Err(FmcwError::NotEnoughChirps { got: beats.len() });
        }
        let len = beats[0].len();
        if beats.iter().any(|b| b.len() != len) {
            return Err(FmcwError::LengthMismatch);
        }
        // Fast time: range spectra per chirp, one flat row-major buffer.
        let fft_len = proc.fft_len();
        let flat = proc.range_spectra_flat(beats, threads)?;
        let n_range = fft_len / 2;
        let n_chirps = beats.len();
        // Slow time: FFT down each range column. The plan (and the window
        // values) are hoisted out of the column loop; each worker carries one
        // scratch buffer across all of its columns, and columns are laid out
        // contiguously (column-major) so the per-column FFT is in-place.
        let win: Vec<f64> = (0..n_chirps)
            .map(|k| self.doppler_window.value(k, n_chirps))
            .collect();
        let plan = FftPlanner::plan(n_chirps);
        let mut cols = vec![ZERO; n_range * n_chirps];
        parallel::for_each_chunk_with(
            &mut cols,
            n_chirps,
            threads,
            || vec![0.0f64; plan.scratch_len()],
            |scratch, start, col| {
                let r = start / n_chirps;
                for (k, c) in col.iter_mut().enumerate() {
                    *c = flat[k * fft_len + r].scale(win[k]);
                }
                plan.process_with_scratch(col, scratch, Direction::Forward);
            },
        );
        let mut map = vec![vec![0.0f64; n_range]; n_chirps];
        for r in 0..n_range {
            for (d, z) in cols[r * n_chirps..(r + 1) * n_chirps].iter().enumerate() {
                map[d][r] = z.norm_sqr();
            }
        }
        Ok(RangeDopplerMap {
            map,
            n_chirps,
            n_range,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_rf::channel::{synthesize_beat, Echo};
    use mmwave_sigproc::random::GaussianSource;

    /// Range of the per-chirp-toggling node: the peak of the Nyquist row.
    fn toggling_range(proc: &FmcwProcessor, rd: &RangeDopplerMap) -> f64 {
        let (pos, _) = rd.row_peak(rd.n_chirps / 2).unwrap();
        proc.bin_to_range_m(pos)
    }

    /// Detection margin of the Nyquist row: its peak over its median
    /// floor, dB.
    fn alternation_margin_db(rd: &RangeDopplerMap) -> f64 {
        let row = &rd.map[rd.n_chirps / 2];
        let peak = row.iter().cloned().fold(f64::MIN, f64::max).max(1e-300);
        let floor = mmwave_sigproc::stats::median(row).max(1e-300);
        10.0 * (peak / floor).log10()
    }

    /// Even chirp count with a node toggling every chirp plus static
    /// clutter.
    fn capture(
        proc: &FmcwProcessor,
        n: usize,
        node_range: f64,
        clutter: &[(f64, f64)],
        seed: u64,
    ) -> Vec<Vec<Complex>> {
        let mut rng = GaussianSource::new(seed);
        (0..n)
            .map(|k| {
                let gamma = if k % 2 == 0 { 0.83 } else { 0.18 };
                let mut echoes: Vec<Echo<'_>> =
                    clutter.iter().map(|&(d, a)| Echo::constant(d, a)).collect();
                echoes.push(Echo::constant(node_range, 1e-5 * gamma));
                let mut b = synthesize_beat(&proc.chirp, &echoes, proc.sample_rate_hz);
                rng.add_complex_noise(&mut b, 1e-14);
                b
            })
            .collect()
    }

    #[test]
    fn toggling_node_lands_at_nyquist_doppler() {
        let proc = FmcwProcessor::milback_default();
        let dp = DopplerProcessor::milback_default();
        let beats = capture(&proc, 8, 4.0, &[(2.0, 3e-4)], 1);
        let rd = dp.range_doppler(&proc, &beats).unwrap();
        // The node's range bin.
        let node_bin = (4.0 / proc.bin_to_range_m(1.0)).round() as usize;
        // With the rectangular slow-time window the alternating component
        // sits exactly at Nyquist: every non-DC, non-Nyquist row is far
        // below it (DC carries the node's mean reflection level, which is
        // legitimate energy, so it is excluded).
        let alt_row = rd.n_chirps / 2;
        let alt = rd.map[alt_row][node_bin];
        for d in 1..rd.n_chirps {
            if d != alt_row {
                assert!(
                    alt > rd.map[d][node_bin] * 30.0,
                    "row {d} rivals the alternation row"
                );
            }
        }
    }

    #[test]
    fn static_clutter_stays_at_zero_doppler() {
        let proc = FmcwProcessor::milback_default();
        let dp = DopplerProcessor::milback_default();
        let beats = capture(&proc, 8, 4.0, &[(2.0, 3e-4)], 2);
        let rd = dp.range_doppler(&proc, &beats).unwrap();
        let clutter_bin = (2.0 / proc.bin_to_range_m(1.0)).round() as usize;
        let dc = rd.map[0][clutter_bin];
        let alt = rd.map[rd.n_chirps / 2][clutter_bin];
        assert!(dc > alt * 100.0, "clutter must concentrate at DC");
    }

    #[test]
    fn detects_node_range_through_clutter() {
        let proc = FmcwProcessor::milback_default();
        let dp = DopplerProcessor::milback_default();
        let beats = capture(&proc, 8, 5.5, &[(2.0, 3e-4), (7.0, 5e-4)], 3);
        let rd = dp.range_doppler(&proc, &beats).unwrap();
        let range = toggling_range(&proc, &rd);
        assert!((range - 5.5).abs() < 0.05, "range {range:.3}");
        let margin = alternation_margin_db(&rd);
        assert!(margin > 20.0, "margin {margin:.1} dB");
        // The strong clutter at 7 m is rejected from the alternation row.
        let clutter_bin = (7.0 / proc.bin_to_range_m(1.0)).round() as usize;
        let rejection_db =
            10.0 * (rd.map[0][clutter_bin] / rd.map[rd.n_chirps / 2][clutter_bin]).log10();
        assert!(rejection_db > 30.0, "rejection {rejection_db:.1} dB");
    }

    #[test]
    fn agrees_with_pairwise_subtraction() {
        let proc = FmcwProcessor::milback_default();
        let dp = DopplerProcessor::milback_default();
        let beats = capture(&proc, 6, 3.7, &[(1.8, 2e-4)], 4);
        let rd_range = toggling_range(&proc, &dp.range_doppler(&proc, &beats).unwrap());
        let sub = proc.detect_node(&beats).unwrap();
        assert!(
            (rd_range - sub.range_m).abs() < 0.03,
            "Doppler {rd_range:.3} vs subtraction {:.3}",
            sub.range_m
        );
    }

    #[test]
    fn more_chirps_more_integration_gain() {
        let proc = FmcwProcessor::milback_default();
        let dp = DopplerProcessor::milback_default();
        let contrast_at = |n: usize| {
            let beats = capture(&proc, n, 4.0, &[(2.0, 3e-4)], 5);
            alternation_margin_db(&dp.range_doppler(&proc, &beats).unwrap())
        };
        // More chirps = more coherent integration: the margin over the
        // noise floor must grow.
        let c4 = contrast_at(4);
        let c16 = contrast_at(16);
        assert!(c16 > c4 + 3.0, "c4 {c4:.1} dB, c16 {c16:.1} dB");
    }

    #[test]
    fn rejects_single_chirp_and_ragged_input() {
        let proc = FmcwProcessor::milback_default();
        let dp = DopplerProcessor::milback_default();
        let one = capture(&proc, 1, 3.0, &[], 6);
        assert_eq!(
            dp.range_doppler(&proc, &one).unwrap_err(),
            FmcwError::NotEnoughChirps { got: 1 }
        );
        let mut ragged = capture(&proc, 3, 3.0, &[], 7);
        ragged[1].pop();
        assert_eq!(
            dp.range_doppler(&proc, &ragged).unwrap_err(),
            FmcwError::LengthMismatch
        );
    }

    #[test]
    fn parallel_map_bit_exact_across_thread_counts() {
        let proc = FmcwProcessor::milback_default();
        let dp = DopplerProcessor::milback_default();
        let beats = capture(&proc, 8, 4.5, &[(2.2, 3e-4)], 9);
        let serial = dp.range_doppler_with_threads(&proc, &beats, 1).unwrap();
        for threads in [2usize, 4, 8] {
            let par = dp
                .range_doppler_with_threads(&proc, &beats, threads)
                .unwrap();
            assert!(
                par == serial,
                "threads={threads} diverges from the serial map"
            );
        }
    }

    #[test]
    fn map_dimensions() {
        let proc = FmcwProcessor::milback_default();
        let dp = DopplerProcessor::milback_default();
        let beats = capture(&proc, 5, 3.0, &[], 8);
        let rd = dp.range_doppler(&proc, &beats).unwrap();
        assert_eq!(rd.map.len(), 5);
        assert_eq!(rd.map[0].len(), proc.fft_len() / 2);
    }
}

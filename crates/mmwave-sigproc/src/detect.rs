//! Detection primitives: peak finding with sub-bin interpolation, threshold
//! crossings and energy detection.
//!
//! The localization pipeline finds the node's beat-frequency peak in a
//! background-subtracted spectrum; the node's MCU finds the two power peaks
//! of the triangular chirp; the uplink receiver detects symbol energy.
//! Every one of those reduces to the helpers in this module.

use crate::stats::PercentileRank;

/// A located peak in a sampled sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Integer sample index of the local maximum.
    pub index: usize,
    /// Sub-sample refined position (quadratic interpolation), in samples.
    pub position: f64,
    /// Interpolated peak value.
    pub value: f64,
}

/// Finds the global maximum of a real slice, with quadratic (parabolic)
/// interpolation of the true peak position between samples.
///
/// Returns `None` for an empty slice.
pub fn find_peak(x: &[f64]) -> Option<Peak> {
    if x.is_empty() {
        return None;
    }
    let mut idx = 0;
    for (i, &v) in x.iter().enumerate() {
        if v > x[idx] {
            idx = i;
        }
    }
    Some(refine_peak(x, idx))
}

/// Quadratically refines the position of a local maximum at `idx`.
///
/// Fits a parabola through the sample and its two neighbours; at the edges
/// the integer position is returned unchanged.
pub fn refine_peak(x: &[f64], idx: usize) -> Peak {
    if idx == 0 || idx + 1 >= x.len() {
        return Peak {
            index: idx,
            position: idx as f64,
            value: x[idx],
        };
    }
    let (a, b, c) = (x[idx - 1], x[idx], x[idx + 1]);
    let denom = a - 2.0 * b + c;
    if denom.abs() < 1e-300 {
        return Peak {
            index: idx,
            position: idx as f64,
            value: b,
        };
    }
    let delta = 0.5 * (a - c) / denom;
    // Clamp: a true local max interpolates within ±0.5 samples.
    let delta = delta.clamp(-0.5, 0.5);
    let value = b - 0.25 * (a - c) * delta;
    Peak {
        index: idx,
        position: idx as f64 + delta,
        value,
    }
}

/// Finds all local maxima above `threshold`, separated by at least
/// `min_separation` samples, ordered by descending value.
pub fn find_peaks(x: &[f64], threshold: f64, min_separation: usize) -> Vec<Peak> {
    let mut candidates: Vec<Peak> = Vec::new();
    for i in 1..x.len().saturating_sub(1) {
        if x[i] >= threshold && x[i] > x[i - 1] && x[i] >= x[i + 1] {
            candidates.push(refine_peak(x, i));
        }
    }
    candidates.sort_by(|a, b| b.value.partial_cmp(&a.value).unwrap());
    // Greedy non-maximum suppression.
    let mut kept: Vec<Peak> = Vec::new();
    for c in candidates {
        if kept
            .iter()
            .all(|k| k.index.abs_diff(c.index) >= min_separation)
        {
            kept.push(c);
        }
    }
    kept
}

/// Returns the two strongest peaks separated by at least `min_separation`
/// samples — exactly what the node's orientation estimator needs from its
/// envelope-detector trace. Returned in time order (earlier peak first).
pub fn two_strongest_peaks(x: &[f64], min_separation: usize) -> Option<(Peak, Peak)> {
    let peaks = find_peaks(x, f64::NEG_INFINITY, min_separation);
    if peaks.len() < 2 {
        return None;
    }
    let (a, b) = (peaks[0], peaks[1]);
    Some(if a.position <= b.position {
        (a, b)
    } else {
        (b, a)
    })
}

/// Mean energy (mean of squares) of a real slice.
pub fn energy(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64
}

/// Mean value of each consecutive chunk of `chunk` samples — the integrate-
/// and-dump operation a symbol-rate receiver performs.
///
/// Trailing samples that do not fill a whole chunk are discarded.
///
/// # Panics
/// Panics if `chunk == 0`.
pub fn integrate_and_dump(x: &[f64], chunk: usize) -> Vec<f64> {
    assert!(chunk > 0, "chunk size must be positive");
    x.chunks_exact(chunk)
        .map(|c| c.iter().sum::<f64>() / chunk as f64)
        .collect()
}

/// Estimates an on/off slicing threshold for a two-level trace: midway
/// between the robust bright (90th percentile) and dark (10th percentile)
/// levels. Returns `None` for empty traces, traces with no contrast, and
/// traces that hold a NaN sample (±inf samples are ordinary levels).
pub fn midpoint_threshold(trace: &[f64]) -> Option<f64> {
    midpoint_threshold_into(trace, &mut Vec::new())
}

/// [`midpoint_threshold`] with a caller-owned sort buffer: the trace is
/// copied into `sorted` and sorted once, and both percentiles read that one
/// copy, so a receiver that reuses the buffer slices without touching the
/// heap past its high-water mark.
///
/// The sort is unstable. Samples that compare equal hold the same bits
/// except `-0.0` and `+0.0`, and swapping those cannot change the
/// threshold: an interpolated zero sums to `+0.0` either way, and a zero
/// percentile vanishes from `(hi + lo) / 2` or leaves no contrast.
pub fn midpoint_threshold_into(trace: &[f64], sorted: &mut Vec<f64>) -> Option<f64> {
    if trace.is_empty() || trace.iter().any(|v| v.is_nan()) {
        return None;
    }
    sorted.clear();
    sorted.extend_from_slice(trace);
    sort_levels(sorted);
    let (low, high) = slicer_ranks(trace.len());
    let level = |rank: PercentileRank| rank.interpolate(sorted[rank.lo], sorted[rank.hi]);
    midpoint(level(low), level(high))
}

/// [`midpoint_threshold_into`] that sorts only the two tails the
/// percentiles read. One pass collects the samples at or below
/// `low_pivot` and those at or above `high_pivot`; when each side holds
/// at least the ranks its percentile reads, only those candidates are
/// sorted, and otherwise the whole trace is, as
/// [`midpoint_threshold_into`] does.
///
/// Exact for any pivots: every sample left out of the low side exceeds
/// every sample on it, so the low side sorted is a prefix of the trace
/// sorted; the high side is a suffix the same way. The pivots only decide
/// how much is sorted. A caller that knows roughly where its levels sit
/// (the uplink kernel knows each channel's two levels) sorts a fraction
/// of the trace.
pub fn midpoint_threshold_tails(
    trace: &[f64],
    low_pivot: f64,
    high_pivot: f64,
    buf: &mut Vec<f64>,
) -> Option<f64> {
    let n = trace.len();
    if n == 0 {
        return None;
    }
    buf.clear();
    buf.resize(2 * n, 0.0);
    let (low, high) = buf.split_at_mut(n);
    // Branch-free: every sample is written to both sides, and each side's
    // cursor advances only past the samples it keeps.
    let (mut n_low, mut n_high, mut nan) = (0, 0, false);
    for &v in trace {
        low[n_low] = v;
        high[n_high] = v;
        n_low += usize::from(v <= low_pivot);
        n_high += usize::from(v >= high_pivot);
        nan |= v.is_nan();
    }
    if nan {
        return None;
    }
    let (p10, p90) = slicer_ranks(n);
    // The high side holds the top `n_high` positions of the order.
    let skip = n - n_high;
    if n_low <= p10.hi || skip > p90.lo {
        return midpoint_threshold_into(trace, buf);
    }
    let (low, high) = (&mut low[..n_low], &mut high[..n_high]);
    sort_levels(low);
    sort_levels(high);
    midpoint(
        p10.interpolate(low[p10.lo], low[p10.hi]),
        p90.interpolate(high[p90.lo - skip], high[p90.hi - skip]),
    )
}

/// The ranks of the dark (10th) and bright (90th) percentiles of `n`
/// samples.
fn slicer_ranks(n: usize) -> (PercentileRank, PercentileRank) {
    (PercentileRank::new(n, 10.0), PercentileRank::new(n, 90.0))
}

/// Sorts NaN-free samples ascending, unstably.
fn sort_levels(x: &mut [f64]) {
    // NaNs are gone, so the `Equal` fallback never runs. The plain float
    // compare is kept over `f64::total_cmp`: the total order's bit tricks
    // made perfbench's `sector_sdm` workload ~45% slower per delivered
    // packet on a 2-vCPU x86-64 host when every campaign transfer sorted
    // both whole channels. Campaign transfers now sort only their tails
    // (`midpoint_threshold_tails`); the full sort still serves the
    // downlink demodulator, `UplinkReceiver` and the tails' fallback.
    x.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}

/// The threshold midway between the dark and bright levels, if they
/// differ.
fn midpoint(lo: f64, hi: f64) -> Option<f64> {
    if hi - lo <= 0.0 {
        None
    } else {
        Some((hi + lo) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_peak_simple() {
        let x = [0.0, 1.0, 3.0, 1.0, 0.0];
        let p = find_peak(&x).unwrap();
        assert_eq!(p.index, 2);
        assert!((p.position - 2.0).abs() < 1e-12);
        assert!((p.value - 3.0).abs() < 1e-12);
    }

    #[test]
    fn find_peak_empty_is_none() {
        assert!(find_peak(&[]).is_none());
    }

    #[test]
    fn quadratic_interpolation_recovers_subsample_position() {
        // Sample a parabola peaking at 4.3.
        let x: Vec<f64> = (0..10).map(|i| 10.0 - (i as f64 - 4.3).powi(2)).collect();
        let p = find_peak(&x).unwrap();
        assert!((p.position - 4.3).abs() < 1e-9, "got {}", p.position);
        assert!((p.value - 10.0).abs() < 1e-9);
    }

    #[test]
    fn interpolation_on_sampled_sinc_beats_integer_bin() {
        // A windowed tone between FFT bins: the interpolated peak position
        // should land within 0.05 bins of the true frequency.
        use crate::complex::Complex;
        use crate::fft::fft;
        use crate::window::Window;
        use std::f64::consts::PI;
        let n = 256;
        let k0 = 60.37;
        let mut x: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(2.0 * PI * k0 * t as f64 / n as f64))
            .collect();
        Window::Hann.apply_complex(&mut x);
        let mags: Vec<f64> = fft(&x).iter().map(|z| z.norm()).collect();
        let p = find_peak(&mags).unwrap();
        assert!((p.position - k0).abs() < 0.05, "got {}", p.position);
    }

    #[test]
    fn edge_peak_not_interpolated() {
        let x = [5.0, 1.0, 0.0];
        let p = find_peak(&x).unwrap();
        assert_eq!(p.index, 0);
        assert_eq!(p.position, 0.0);
    }

    #[test]
    fn find_peaks_threshold_and_separation() {
        let x = [0.0, 2.0, 0.0, 0.5, 0.0, 3.0, 0.0, 1.0, 0.0];
        let peaks = find_peaks(&x, 0.9, 2);
        assert_eq!(peaks.len(), 3);
        assert_eq!(peaks[0].index, 5);
        assert_eq!(peaks[1].index, 1);
        assert_eq!(peaks[2].index, 7);
        // With larger separation, peak at 7 is suppressed by peak at 5.
        let sparse = find_peaks(&x, 0.9, 3);
        assert_eq!(sparse.len(), 2);
    }

    #[test]
    fn two_strongest_peaks_in_time_order() {
        let mut x = vec![0.0; 100];
        // Strong late peak, weaker early peak, tiny bump in between.
        for (i, v) in x.iter_mut().enumerate() {
            *v += 5.0 * (-((i as f64 - 80.0) / 3.0).powi(2)).exp();
            *v += 3.0 * (-((i as f64 - 20.0) / 3.0).powi(2)).exp();
            *v += 0.2 * (-((i as f64 - 50.0) / 2.0).powi(2)).exp();
        }
        let (first, second) = two_strongest_peaks(&x, 5).unwrap();
        assert!((first.position - 20.0).abs() < 0.5);
        assert!((second.position - 80.0).abs() < 0.5);
    }

    #[test]
    fn two_peaks_returns_none_with_single_peak() {
        let x: Vec<f64> = (0..50)
            .map(|i| (-((i as f64 - 25.0) / 4.0).powi(2)).exp())
            .collect();
        // min_separation larger than the trace kills the second candidate.
        assert!(two_strongest_peaks(&x, 60).is_none());
    }

    #[test]
    fn energy_of_unit_tone_is_half() {
        let x: Vec<f64> = (0..1000)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 100.0).cos())
            .collect();
        assert!((energy(&x) - 0.5).abs() < 1e-3);
        assert_eq!(energy(&[]), 0.0);
    }

    #[test]
    fn integrate_and_dump_averages_chunks() {
        let x = [1.0, 1.0, 0.0, 0.0, 2.0, 4.0, 9.0];
        assert_eq!(integrate_and_dump(&x, 2), vec![1.0, 0.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn integrate_and_dump_rejects_zero_chunk() {
        integrate_and_dump(&[1.0], 0);
    }

    #[test]
    fn midpoint_threshold_sorts_once_with_identical_bits() {
        use crate::random::GaussianSource;
        use crate::stats::percentile;
        // The pre-merge form: one clone-and-sort per percentile.
        let two_sorts = |t: &[f64]| {
            let hi = percentile(t, 90.0);
            let lo = percentile(t, 10.0);
            (hi - lo > 0.0).then(|| (hi + lo) / 2.0)
        };
        let mut rng = GaussianSource::new(17);
        let mut traces: Vec<Vec<f64>> = Vec::new();
        for len in [1usize, 2, 3, 7, 10, 63, 64, 257, 1001] {
            // Random, even and odd lengths.
            traces.push((0..len).map(|_| rng.sample(1.0)).collect());
            // Heavy ties on a two-level trace, including signed zeros.
            traces.push(
                (0..len)
                    .map(|i| match i % 3 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => 0.25,
                    })
                    .collect(),
            );
            traces.push((0..len).map(|i| f64::from(u8::from(i % 4 == 0))).collect());
        }
        traces.push(vec![0.5; 9]);
        let mut buf = Vec::new();
        for t in &traces {
            let want = two_sorts(t).map(f64::to_bits);
            assert_eq!(midpoint_threshold(t).map(f64::to_bits), want, "{t:?}");
            assert_eq!(
                midpoint_threshold_into(t, &mut buf).map(f64::to_bits),
                want,
                "{t:?}"
            );
            // Tight, loose, tied, crossed and NaN pivots (the last forces
            // the full-sort fallback) all read the same threshold.
            for (low, high) in [
                (-1.0, 1.0),
                (0.0, 0.25),
                (0.5, 0.5),
                (2.0, -2.0),
                (f64::NAN, 0.0),
            ] {
                assert_eq!(
                    midpoint_threshold_tails(t, low, high, &mut buf).map(f64::to_bits),
                    want,
                    "pivots {low} {high} on {t:?}"
                );
            }
        }
        assert_eq!(midpoint_threshold(&[]), None);
    }

    #[test]
    fn midpoint_threshold_rejects_nan_but_keeps_infinities() {
        assert_eq!(midpoint_threshold(&[f64::NAN, 1.0]), None);
        assert_eq!(
            midpoint_threshold_tails(&[0.0, 1.0, f64::NAN, 0.5], 0.5, 0.5, &mut Vec::new()),
            None
        );
        assert_eq!(
            midpoint_threshold_tails(&[], 0.0, 1.0, &mut Vec::new()),
            None
        );
        assert_eq!(midpoint_threshold(&[0.0, 1.0, -f64::NAN, 0.5]), None);
        // ±inf stay ordinary levels: infinite contrast, NaN midpoint.
        assert!(midpoint_threshold(&[f64::NEG_INFINITY, f64::INFINITY])
            .unwrap()
            .is_nan());
        assert_eq!(
            midpoint_threshold(&[0.0, f64::INFINITY]),
            Some(f64::INFINITY)
        );
    }
}

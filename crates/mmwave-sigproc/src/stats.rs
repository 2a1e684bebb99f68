//! Statistics used by the evaluation harness: moments, percentiles, CDFs,
//! error metrics, BER counting and the Gaussian Q-function for analytic
//! bit-error-rate curves.

use serde::{Deserialize, Serialize};

/// Arithmetic mean. Returns `NaN` for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return f64::NAN;
    }
    x.iter().sum::<f64>() / x.len() as f64
}

/// Unbiased sample variance (n−1 denominator). `NaN` for fewer than two
/// samples.
pub fn variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return f64::NAN;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (x.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Root-mean-square of a slice.
pub fn rms(x: &[f64]) -> f64 {
    if x.is_empty() {
        return f64::NAN;
    }
    (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
}

/// Percentile via linear interpolation on the sorted data (the
/// "inclusive"/NIST method). `p` in `[0, 100]`.
///
/// Computed by exact selection on a copy rather than a full sort: the
/// upper of the two ranks the interpolation reads is selected, and the
/// lower one is the largest sample left of it. Samples that compare equal
/// hold the same bits except `-0.0` and `+0.0`; where a selected rank
/// holds a zero, its bits are those of the zero a stable sort would leave
/// there (the zeros in input order), so the result is the stable sort's
/// to the bit.
///
/// # Panics
/// Panics if `x` is empty, if `p` is out of range, or if `x` holds a NaN
/// among two or more samples (a lone NaN is its own percentile).
pub fn percentile(x: &[f64], p: f64) -> f64 {
    let rank = PercentileRank::new(x.len(), p);
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).unwrap();
    let mut v = x.to_vec();
    let (left, &mut at_hi, _) = v.select_nth_unstable_by(rank.hi, cmp);
    let at_lo = if rank.lo < rank.hi {
        left.iter().copied().max_by(cmp).unwrap_or(at_hi)
    } else {
        at_hi
    };
    let stable = |value: f64, at: usize| {
        if value != 0.0 {
            return value;
        }
        let below = x.iter().filter(|&&v| v < 0.0).count();
        x.iter()
            .copied()
            .filter(|&v| v == 0.0)
            .nth(at - below)
            .unwrap_or(value)
    };
    rank.interpolate(stable(at_lo, rank.lo), stable(at_hi, rank.hi))
}

/// The two positions of the ascending order that percentile `p` of `n`
/// samples reads, and the interpolation weight of the upper one: the one
/// rank arithmetic behind [`percentile`] and the slicing thresholds of
/// [`crate::detect`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PercentileRank {
    /// The lower position, `⌊p/100·(n−1)⌋`.
    pub(crate) lo: usize,
    /// The upper position, `⌈p/100·(n−1)⌉`.
    pub(crate) hi: usize,
    frac: f64,
}

impl PercentileRank {
    /// # Panics
    /// Panics if `n == 0` or `p` is out of range.
    pub(crate) fn new(n: usize, p: f64) -> Self {
        assert!(n > 0, "percentile of empty slice");
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        Self {
            lo,
            hi: rank.ceil() as usize,
            frac: rank - lo as f64,
        }
    }

    /// The percentile from the samples at positions `lo` and `hi`.
    pub(crate) fn interpolate(self, at_lo: f64, at_hi: f64) -> f64 {
        if self.lo == self.hi {
            at_lo
        } else {
            at_lo * (1.0 - self.frac) + at_hi * self.frac
        }
    }
}

/// Median (50th percentile).
pub fn median(x: &[f64]) -> f64 {
    percentile(x, 50.0)
}

/// Empirical CDF evaluated at each sorted sample: returns `(value, F(value))`
/// pairs suitable for plotting (the Fig 12b angle-error CDF).
pub fn empirical_cdf(x: &[f64]) -> Vec<(f64, f64)> {
    let mut v = x.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len() as f64;
    v.into_iter()
        .enumerate()
        .map(|(i, val)| (val, (i + 1) as f64 / n))
        .collect()
}

/// Summary of a batch of trial errors: what the paper's error-bar plots show.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorSummary {
    /// Number of trials aggregated.
    pub trials: usize,
    /// Mean absolute error.
    pub mean: f64,
    /// Sample standard deviation of the absolute error.
    pub std_dev: f64,
    /// Median absolute error.
    pub median: f64,
    /// 90th-percentile absolute error.
    pub p90: f64,
    /// Maximum absolute error observed.
    pub max: f64,
}

impl ErrorSummary {
    /// Aggregates a slice of (already absolute) error samples.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn from_abs_errors(errors: &[f64]) -> Self {
        assert!(!errors.is_empty(), "no error samples");
        Self {
            trials: errors.len(),
            mean: mean(errors),
            std_dev: if errors.len() > 1 {
                std_dev(errors)
            } else {
                0.0
            },
            median: median(errors),
            p90: percentile(errors, 90.0),
            max: errors.iter().cloned().fold(f64::MIN, f64::max),
        }
    }
}

/// Counts bit errors between two equal-length bit vectors.
///
/// # Panics
/// Panics on length mismatch.
pub(crate) fn count_bit_errors(tx: &[bool], rx: &[bool]) -> usize {
    assert_eq!(tx.len(), rx.len(), "bit streams differ in length");
    tx.iter().zip(rx).filter(|(a, b)| a != b).count()
}

/// Bit error rate between two bit vectors (`NaN` when empty).
pub fn bit_error_rate(tx: &[bool], rx: &[bool]) -> f64 {
    if tx.is_empty() {
        return f64::NAN;
    }
    count_bit_errors(tx, rx) as f64 / tx.len() as f64
}

/// Complementary error function, via the Abramowitz–Stegun 7.1.26 rational
/// approximation (|error| < 1.5e-7), extended to negative arguments.
pub(crate) fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    poly * (-x * x).exp()
}

/// Gaussian Q-function: `Q(x) = P(N(0,1) > x)`.
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_reference() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&x) - 5.0).abs() < 1e-12);
        // Population variance is 4; sample variance is 4*8/7.
        assert!((variance(&x) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_yield_nan() {
        assert!(mean(&[]).is_nan());
        assert!(variance(&[1.0]).is_nan());
        assert!(rms(&[]).is_nan());
    }

    #[test]
    fn rms_of_constant() {
        assert!((rms(&[3.0, 3.0, -3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&x, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&x, 100.0) - 4.0).abs() < 1e-12);
        assert!((median(&x) - 2.5).abs() < 1e-12);
        assert!((percentile(&x, 90.0) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_order_independent() {
        let a = [5.0, 1.0, 3.0];
        let b = [1.0, 3.0, 5.0];
        assert_eq!(percentile(&a, 50.0), percentile(&b, 50.0));
    }

    #[test]
    fn percentile_reads_the_stable_sorts_zero() {
        // ±0 compare equal, so a stable sort keeps them in input order.
        let bits = |x: &[f64], p: f64| percentile(x, p).to_bits();
        assert_eq!(bits(&[0.0, -0.0], 0.0), 0.0f64.to_bits());
        assert_eq!(bits(&[0.0, -0.0], 100.0), (-0.0f64).to_bits());
        let x = [-0.0, 1.0, 0.0, -1.0, 2.0];
        assert_eq!(bits(&x, 25.0), (-0.0f64).to_bits());
        assert_eq!(bits(&x, 50.0), 0.0f64.to_bits());
    }

    #[test]
    fn percentile_of_nan() {
        assert!(percentile(&[f64::NAN], 50.0).is_nan());
        let two = std::panic::catch_unwind(|| percentile(&[1.0, f64::NAN], 50.0));
        assert!(two.is_err(), "a NaN among two samples panics");
    }

    #[test]
    #[should_panic(expected = "percentile of empty slice")]
    fn percentile_rejects_empty() {
        percentile(&[], 50.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let x = [0.3, 0.1, 0.7, 0.5];
        let cdf = empirical_cdf(&x);
        assert_eq!(cdf.len(), 4);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 < w[1].1);
        }
    }

    #[test]
    fn error_summary_fields() {
        let e = [1.0, 2.0, 3.0, 4.0, 10.0];
        let s = ErrorSummary::from_abs_errors(&e);
        assert_eq!(s.trials, 5);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert!((s.max - 10.0).abs() < 1e-12);
        assert!(s.p90 > 4.0 && s.p90 < 10.0 + 1e-9);
    }

    #[test]
    fn ber_counting() {
        let tx = [true, false, true, true];
        let rx = [true, true, true, false];
        assert_eq!(count_bit_errors(&tx, &rx), 2);
        assert!((bit_error_rate(&tx, &rx) - 0.5).abs() < 1e-12);
        assert!(bit_error_rate(&[], &[]).is_nan());
    }

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(2.0) - 0.004_677_7).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
    }

    #[test]
    fn q_function_reference_values() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-9);
        assert!((q_function(1.0) - 0.158_655).abs() < 1e-5);
        assert!((q_function(3.0) - 1.349_9e-3).abs() < 1e-6);
    }
}

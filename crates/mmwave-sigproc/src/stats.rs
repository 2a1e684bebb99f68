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
/// # Panics
/// Panics if `x` is empty or `p` is out of range.
pub fn percentile(x: &[f64], p: f64) -> f64 {
    let mut v = x.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    percentile_sorted(&v, p)
}

/// [`percentile`] of data already sorted ascending: the interpolation
/// step alone, so a caller that needs several percentiles of one trace
/// sorts it once.
///
/// # Panics
/// Panics if `sorted` is empty or `p` is out of range.
pub(crate) fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
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

//! Window functions for spectral analysis and FIR design.
//!
//! The FMCW range-FFT trades main-lobe width (range resolution) against
//! sidelobe level (how badly a strong clutter echo smears over the weak tag
//! echo). The stack defaults to Hann but the choice is ablated in the bench
//! suite, so all the common windows live here behind one enum.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::f64::consts::PI;
use std::rc::Rc;

/// Supported window functions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Window {
    /// No tapering (all ones). Narrowest main lobe, −13 dB sidelobes.
    Rectangular,
    /// Raised cosine. −31.5 dB sidelobes.
    Hann,
    /// Hamming. −42 dB first sidelobe, does not reach zero at the edges.
    Hamming,
    /// Blackman. −58 dB sidelobes, wide main lobe.
    Blackman,
    /// Kaiser window with shape parameter β (continuously tunable tradeoff).
    Kaiser(f64),
}

impl Window {
    /// Evaluates the window at sample `i` of an `n`-point window.
    ///
    /// Uses the symmetric (periodic = false) convention, appropriate for
    /// filter design and block spectral analysis.
    pub fn value(self, i: usize, n: usize) -> f64 {
        assert!(n > 0, "window length must be positive");
        if n == 1 {
            return 1.0;
        }
        let x = i as f64 / (n - 1) as f64; // 0..=1
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5 - 0.5 * (2.0 * PI * x).cos(),
            Window::Hamming => 0.54 - 0.46 * (2.0 * PI * x).cos(),
            Window::Blackman => 0.42 - 0.5 * (2.0 * PI * x).cos() + 0.08 * (4.0 * PI * x).cos(),
            Window::Kaiser(beta) => {
                let t = 2.0 * x - 1.0; // -1..=1
                bessel_i0(beta * (1.0 - t * t).max(0.0).sqrt()) / bessel_i0(beta)
            }
        }
    }

    /// Materializes the `n`-point window as a vector.
    pub fn coefficients(self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.value(i, n)).collect()
    }

    /// Applies the window to a complex signal in place.
    pub fn apply_complex(self, x: &mut [crate::complex::Complex]) {
        if matches!(self, Window::Rectangular) || x.is_empty() {
            return;
        }
        let w = self.cached_coefficients(x.len());
        for (v, &wi) in x.iter_mut().zip(w.iter()) {
            *v = v.scale(wi);
        }
    }

    /// [`coefficients`](Self::coefficients) through a small thread-local
    /// memo, so hot loops that window the same length over and over
    /// (per-chirp range FFTs) evaluate the trig once. The
    /// cached values are exactly the [`value`](Self::value) outputs, so
    /// results are bit-identical to the uncached path.
    fn cached_coefficients(self, n: usize) -> Rc<Vec<f64>> {
        const CACHE_CAP: usize = 8;
        type CacheEntry = (Window, usize, Rc<Vec<f64>>);
        thread_local! {
            static COEFS: RefCell<Vec<CacheEntry>> = const { RefCell::new(Vec::new()) };
        }
        COEFS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(pos) = cache.iter().position(|(w, len, _)| *w == self && *len == n) {
                let hit = cache.remove(pos);
                let coefs = Rc::clone(&hit.2);
                cache.push(hit); // most-recently-used at the back
                return coefs;
            }
            let coefs = Rc::new(self.coefficients(n));
            if cache.len() == CACHE_CAP {
                cache.remove(0);
            }
            cache.push((self, n, Rc::clone(&coefs)));
            coefs
        })
    }
}

/// Modified Bessel function of the first kind, order zero (series expansion).
///
/// Converges quickly for the β values used in Kaiser windows (≤ ~20).
pub(crate) fn bessel_i0(x: f64) -> f64 {
    let y = x * x / 4.0;
    let mut term = 1.0;
    let mut sum = 1.0;
    for k in 1..64 {
        term *= y / (k as f64 * k as f64);
        sum += term;
        if term < sum * 1e-16 {
            break;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_is_all_ones() {
        assert!(Window::Rectangular
            .coefficients(9)
            .iter()
            .all(|&v| v == 1.0));
    }

    #[test]
    fn hann_edges_are_zero_and_center_is_one() {
        let w = Window::Hann.coefficients(65);
        assert!(w[0].abs() < 1e-15);
        assert!(w[64].abs() < 1e-15);
        assert!((w[32] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hamming_edges_are_eight_percent() {
        let w = Window::Hamming.coefficients(21);
        assert!((w[0] - 0.08).abs() < 1e-12);
        assert!((w[20] - 0.08).abs() < 1e-12);
    }

    #[test]
    fn windows_are_symmetric() {
        for win in [
            Window::Hann,
            Window::Hamming,
            Window::Blackman,
            Window::Kaiser(8.0),
        ] {
            let w = win.coefficients(33);
            for i in 0..33 {
                assert!((w[i] - w[32 - i]).abs() < 1e-12, "{win:?} not symmetric");
            }
        }
    }

    #[test]
    fn kaiser_beta_zero_is_rectangular() {
        let w = Window::Kaiser(0.0).coefficients(17);
        for v in w {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bessel_i0_reference_values() {
        // I0(0)=1, I0(1)≈1.26607, I0(5)≈27.2399.
        assert!((bessel_i0(0.0) - 1.0).abs() < 1e-15);
        assert!((bessel_i0(1.0) - 1.2660658777520084).abs() < 1e-12);
        assert!((bessel_i0(5.0) - 27.239871823604442).abs() < 1e-9);
    }

    #[test]
    fn hann_sidelobes_below_30_db() {
        // Windowed off-bin tone: max leakage outside the main lobe must sit
        // below -30 dB of the peak for Hann.
        use crate::complex::Complex;
        use crate::fft::fft;
        let n = 256;
        let k0 = 40.3; // deliberately between bins
        let mut x: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(2.0 * PI * k0 * t as f64 / n as f64))
            .collect();
        Window::Hann.apply_complex(&mut x);
        let spec = fft(&x);
        let mags: Vec<f64> = spec.iter().map(|z| z.norm()).collect();
        let peak_bin = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let peak = mags[peak_bin];
        for (k, &m) in mags.iter().enumerate() {
            let dist = (k as i64 - peak_bin as i64).unsigned_abs() as usize;
            if dist > 4 && dist < n - 4 {
                assert!(
                    20.0 * (m / peak).log10() < -30.0,
                    "bin {k} leaks {:.1} dB",
                    20.0 * (m / peak).log10()
                );
            }
        }
    }

    #[test]
    fn apply_complex_matches_coefficients() {
        let mut x = vec![crate::complex::Complex::real(2.0); 8];
        Window::Hann.apply_complex(&mut x);
        let w = Window::Hann.coefficients(8);
        for i in 0..8 {
            assert!((x[i].re - 2.0 * w[i]).abs() < 1e-15 && x[i].im == 0.0);
        }
    }

    #[test]
    fn single_point_window_is_one() {
        for win in [Window::Hann, Window::Blackman, Window::Kaiser(3.0)] {
            assert_eq!(win.value(0, 1), 1.0);
        }
    }
}

//! Minimal, fast complex arithmetic for DSP.
//!
//! The allowed dependency set does not include `num-complex`, so this module
//! provides the small subset of complex arithmetic the rest of the stack
//! needs: field operations, polar conversions, exponentials and a handful of
//! helpers (`conj`, `norm`, `arg`, `scale`). The type is `Copy`, `repr(C)`
//! and branch-free in the hot paths so slices of it vectorize well.

use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// The complex zero.
pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
/// The imaginary unit `j` (electrical-engineering spelling of `i`).
pub const J: Complex = Complex { re: 0.0, im: 1.0 };

impl Complex {
    /// Creates a complex number from rectangular components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a complex number from polar form `r * e^{jθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self {
            re: r * c,
            im: r * s,
        }
    }

    /// `e^{jθ}` — a unit phasor at angle `theta` (radians).
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` (avoids the square root; this is what power
    /// detectors and FFT magnitude spectra actually need).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Polar decomposition `(r, θ)`.
    #[inline]
    pub(crate) fn to_polar(self) -> (f64, f64) {
        (self.norm(), self.arg())
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns a non-finite result for `z == 0`, mirroring `f64` division.
    #[inline]
    pub(crate) fn inv(self) -> Self {
        let d = self.norm_sqr();
        Self {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        let (r, theta) = self.to_polar();
        Self::from_polar(r.sqrt(), theta / 2.0)
    }

    /// Returns `true` when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Self::real(re)
    }
}

impl Add for Complex {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl Sub for Complex {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for Complex {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Div for Complex {
    type Output = Self;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w is defined as z·w⁻¹
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Neg for Complex {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl Mul<f64> for Complex {
    type Output = Self;
    #[inline]
    fn mul(self, k: f64) -> Self {
        self.scale(k)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, z: Complex) -> Complex {
        z.scale(self)
    }
}

impl Div<f64> for Complex {
    type Output = Self;
    #[inline]
    fn div(self, k: f64) -> Self {
        Self {
            re: self.re / k,
            im: self.im / k,
        }
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(ZERO, |a, b| a + b)
    }
}

/// Computes `|z|²` for every element (the power spectrum of an FFT output).
pub fn power(x: &[Complex]) -> Vec<f64> {
    x.iter().map(|z| z.norm_sqr()).collect()
}

/// Computes `|z|` for every element (the magnitude spectrum).
pub fn magnitude(x: &[Complex]) -> Vec<f64> {
    x.iter().map(|z| z.norm()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONE: Complex = Complex::real(1.0);

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    fn zclose(a: Complex, b: Complex) -> bool {
        close(a.re, b.re) && close(a.im, b.im)
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Complex::new(1.5, -2.0);
        let b = Complex::new(-0.25, 4.0);
        assert!(zclose(a + b - b, a));
    }

    #[test]
    fn multiplication_matches_manual_expansion() {
        let a = Complex::new(3.0, 2.0);
        let b = Complex::new(1.0, 7.0);
        // (3+2j)(1+7j) = 3 + 21j + 2j + 14j² = -11 + 23j
        assert!(zclose(a * b, Complex::new(-11.0, 23.0)));
    }

    #[test]
    fn j_squared_is_minus_one() {
        assert!(zclose(J * J, Complex::real(-1.0)));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(0.3, -1.1);
        let b = Complex::new(2.0, 0.5);
        assert!(zclose(a * b / b, a));
    }

    #[test]
    fn inv_times_self_is_one() {
        let z = Complex::new(-4.2, 0.9);
        assert!(zclose(z * z.inv(), ONE));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::new(-1.0, 2.0);
        let (r, t) = z.to_polar();
        assert!(zclose(Complex::from_polar(r, t), z));
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..32 {
            let t = k as f64 * 0.41;
            assert!(close(Complex::cis(t).norm(), 1.0));
        }
    }

    #[test]
    fn conj_negates_phase() {
        let z = Complex::from_polar(2.0, 0.7);
        assert!(close(z.conj().arg(), -0.7));
    }

    #[test]
    fn norm_sqr_equals_z_times_conj() {
        let z = Complex::new(1.2, -3.4);
        assert!(close((z * z.conj()).re, z.norm_sqr()));
        assert!(close((z * z.conj()).im, 0.0));
    }

    #[test]
    fn exp_of_j_pi_is_minus_one() {
        let z = (J * std::f64::consts::PI).exp();
        assert!((z.re + 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
    }

    #[test]
    fn sqrt_squares_back() {
        let z = Complex::new(-3.0, 4.0);
        let s = z.sqrt();
        assert!(zclose(s * s, z));
    }

    #[test]
    fn scalar_ops() {
        let z = Complex::new(1.0, -2.0);
        assert!(zclose(z * 2.0, Complex::new(2.0, -4.0)));
        assert!(zclose(2.0 * z, Complex::new(2.0, -4.0)));
        assert!(zclose(z / 2.0, Complex::new(0.5, -1.0)));
    }

    #[test]
    fn sum_over_iterator() {
        let v = vec![ONE, J, Complex::new(1.0, 1.0)];
        let s: Complex = v.into_iter().sum();
        assert!(zclose(s, Complex::new(2.0, 2.0)));
    }

    #[test]
    fn slice_helpers_roundtrip() {
        let x = [1.0, -2.0, 3.5];
        let z: Vec<Complex> = x.iter().map(|&r| Complex::real(r)).collect();
        let p = power(&z);
        assert!(close(p[1], 4.0));
        let m = magnitude(&z);
        assert!(close(m[2], 3.5));
    }

    #[test]
    fn assign_ops() {
        let mut z = ONE;
        z += J;
        assert!(zclose(z, Complex::new(1.0, 1.0)));
        z -= ONE;
        assert!(zclose(z, J));
        z *= J;
        assert!(zclose(z, Complex::real(-1.0)));
        z /= Complex::real(-1.0);
        assert!(zclose(z, ONE));
    }
}

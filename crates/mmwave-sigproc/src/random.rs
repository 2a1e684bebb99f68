//! Seeded random-signal generation: Gaussian noise (real and complex AWGN)
//! and random bit streams for Monte-Carlo BER runs.
//!
//! Everything takes an explicit seed or RNG so experiments are exactly
//! reproducible run-to-run — a hard requirement for the regression tests
//! that pin figure shapes.

use crate::complex::Complex;

/// The randomness backend: xoshiro256++ seeded via SplitMix64 (the
/// xoshiro reference recipe), with 53-bit `[0, 1)` floats. Every pinned
/// seed in the workspace (CSV anchors, capture and campaign digests) is a
/// stream of this exact algorithm.
#[derive(Debug, Clone)]
struct Backend {
    s: [u64; 4],
}

impl Backend {
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            Self::splitmix64(&mut sm),
            Self::splitmix64(&mut sm),
            Self::splitmix64(&mut sm),
            Self::splitmix64(&mut sm),
        ];
        Self { s }
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`: 53 mantissa bits.
    fn uniform_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn bit(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    fn byte(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }
}

/// A seeded source of Gaussian samples (Marsaglia polar method).
#[derive(Debug, Clone)]
pub struct GaussianSource {
    rng: Backend,
    cached: Option<f64>,
}

impl GaussianSource {
    /// Creates a source from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Backend::from_seed(seed),
            cached: None,
        }
    }

    /// Draws one standard-normal sample.
    pub fn standard(&mut self) -> f64 {
        if let Some(v) = self.cached.take() {
            return v;
        }
        loop {
            let u = -1.0 + self.rng.uniform_unit() * 2.0;
            let v = -1.0 + self.rng.uniform_unit() * 2.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let k = (-2.0 * s.ln() / s).sqrt();
                self.cached = Some(v * k);
                return u * k;
            }
        }
    }

    /// Draws one `N(0, σ²)` sample.
    pub fn sample(&mut self, sigma: f64) -> f64 {
        self.standard() * sigma
    }

    /// Fills a vector with real AWGN of the given *power* (variance) in
    /// linear units.
    pub fn real_noise(&mut self, n: usize, power: f64) -> Vec<f64> {
        let sigma = power.sqrt();
        (0..n).map(|_| self.sample(sigma)).collect()
    }

    /// Fills a vector with circularly-symmetric complex AWGN whose *total*
    /// power (E|z|²) is `power` — i.e. each quadrature carries `power/2`.
    pub fn complex_noise(&mut self, n: usize, power: f64) -> Vec<Complex> {
        let sigma = (power / 2.0).sqrt();
        (0..n)
            .map(|_| Complex::new(self.sample(sigma), self.sample(sigma)))
            .collect()
    }

    /// Adds real AWGN of variance `power` to a signal in place.
    pub fn add_real_noise(&mut self, x: &mut [f64], power: f64) {
        let sigma = power.sqrt();
        for v in x.iter_mut() {
            *v += self.sample(sigma);
        }
    }

    /// Adds complex AWGN of total power `power` to a signal in place.
    pub fn add_complex_noise(&mut self, x: &mut [Complex], power: f64) {
        let sigma = (power / 2.0).sqrt();
        for z in x.iter_mut() {
            *z += Complex::new(self.sample(sigma), self.sample(sigma));
        }
    }

    /// Draws `n` uniformly random bits.
    pub fn bits(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.rng.bit()).collect()
    }

    /// Draws `n` random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.rng.byte()).collect()
    }

    /// Draws a uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range");
        lo + self.rng.uniform_unit() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{mean, variance};

    #[test]
    fn same_seed_same_stream() {
        let mut a = GaussianSource::new(7);
        let mut b = GaussianSource::new(7);
        for _ in 0..100 {
            assert_eq!(a.standard(), b.standard());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = GaussianSource::new(1);
        let mut b = GaussianSource::new(2);
        let va: Vec<f64> = (0..16).map(|_| a.standard()).collect();
        let vb: Vec<f64> = (0..16).map(|_| b.standard()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn standard_normal_moments() {
        let mut g = GaussianSource::new(42);
        let x: Vec<f64> = (0..200_000).map(|_| g.standard()).collect();
        assert!(mean(&x).abs() < 0.01);
        assert!((variance(&x) - 1.0).abs() < 0.02);
    }

    #[test]
    fn real_noise_power_matches_request() {
        let mut g = GaussianSource::new(5);
        let p = 0.25;
        let x = g.real_noise(100_000, p);
        let measured = x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64;
        assert!((measured - p).abs() / p < 0.03);
    }

    #[test]
    fn complex_noise_power_split_across_quadratures() {
        let mut g = GaussianSource::new(9);
        let p = 2.0;
        let z = g.complex_noise(100_000, p);
        let total = z.iter().map(|v| v.norm_sqr()).sum::<f64>() / z.len() as f64;
        assert!((total - p).abs() / p < 0.03);
        let re_p = z.iter().map(|v| v.re * v.re).sum::<f64>() / z.len() as f64;
        assert!((re_p - p / 2.0).abs() / p < 0.03);
    }

    #[test]
    fn add_noise_preserves_mean_signal() {
        let mut g = GaussianSource::new(3);
        let mut x = vec![5.0; 50_000];
        g.add_real_noise(&mut x, 0.1);
        assert!((mean(&x) - 5.0).abs() < 0.01);
    }

    #[test]
    fn bits_are_roughly_balanced() {
        let mut g = GaussianSource::new(11);
        let bits = g.bits(100_000);
        let ones = bits.iter().filter(|&&b| b).count();
        assert!((ones as f64 / 1e5 - 0.5).abs() < 0.01);
    }

    #[test]
    fn uniform_bounds() {
        let mut g = GaussianSource::new(13);
        for _ in 0..1000 {
            let v = g.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }
}

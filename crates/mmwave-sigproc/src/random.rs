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

    /// One polar-method attempt: `(u, v)` uniform on `[-1, 1)²` and
    /// `s = u² + v²`. The attempt is accepted when `0 < s < 1`.
    fn polar_attempt(&mut self) -> (f64, f64, f64) {
        let u = -1.0 + self.uniform_unit() * 2.0;
        let v = -1.0 + self.uniform_unit() * 2.0;
        (u, v, u * u + v * v)
    }

    fn bit(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    fn byte(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }
}

/// Whether a polar attempt with this `s` is accepted.
fn accepted(s: f64) -> bool {
    s > 0.0 && s < 1.0
}

/// The polar transform of an accepted attempt: two standard normals.
fn polar_pair(u: f64, v: f64, s: f64) -> (f64, f64) {
    let k = (-2.0 * s.ln() / s).sqrt();
    (u * k, v * k)
}

/// Accepted polar triples per block of [`GaussianSource::fill_standard`]:
/// 64 × 24 B = 1.5 KiB of stack.
const POLAR_BLOCK: usize = 64;

/// Normals per stack chunk of the noise adders: 256 × 8 B = 2 KiB.
const NOISE_CHUNK: usize = 256;

/// A seeded source of Gaussian samples (Marsaglia polar method).
///
/// [`standard`](Self::standard) draws one sample at a time.
/// [`fill_standard`](Self::fill_standard) and
/// [`skip_standard`](Self::skip_standard) are block kernels over the same
/// stream: a slice filled by `fill_standard`, or the stream left after
/// `skip_standard(n)`, is bit for bit what repeated `standard()` calls give.
/// The argument:
/// - all three draw attempts through one function (`u` then `v`, then
///   `s`) and accept them by one test, so the backend advances identically;
/// - the accepted `(u, v, s)` triples go through one transform,
///   `(-2.0 * s.ln() / s).sqrt()` then `u * k` and `v * k`, wherever it is
///   inlined: IEEE mul, div and sqrt are correctly rounded, `ln` is the
///   same libm call, and Rust never contracts to FMA;
/// - pairs fill the output in draw order, `u * k` first, and an odd tail
///   leaves `v * k` cached exactly as `standard()` does.
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
            let (u, v, s) = self.rng.polar_attempt();
            if accepted(s) {
                let (a, b) = polar_pair(u, v, s);
                self.cached = Some(b);
                return a;
            }
        }
    }

    /// Fills `out` with standard-normal samples: bit for bit the values
    /// `out.len()` calls of [`standard`](Self::standard) return, leaving
    /// the same cached half-pair behind.
    pub fn fill_standard(&mut self, out: &mut [f64]) {
        let out = match (self.cached.take(), out) {
            (Some(v), [first, rest @ ..]) => {
                *first = v;
                rest
            }
            (cached, out) => {
                self.cached = cached;
                out
            }
        };
        let (pairs, tail) = out.split_at_mut(out.len() & !1);
        for block in pairs.chunks_mut(2 * POLAR_BLOCK) {
            self.polar_block(block);
        }
        if let [last] = tail {
            *last = self.standard();
        }
    }

    /// Fills `out` (even length, at most `2 * POLAR_BLOCK`) with polar
    /// pairs in two phases. Phase 1 draws uniform pairs until it holds
    /// `out.len() / 2` accepted triples; a rejected triple is overwritten
    /// by the next, so the loop has no data-dependent branch. Phase 2 runs
    /// the polar transform over the block.
    fn polar_block(&mut self, out: &mut [f64]) {
        let m = (out.len() / 2).min(POLAR_BLOCK);
        let mut block = [(0.0, 0.0, 0.0); POLAR_BLOCK];
        let mut i = 0;
        while i < m {
            block[i] = self.rng.polar_attempt();
            i += usize::from(accepted(block[i].2));
        }
        for (pair, &(u, v, s)) in out.chunks_exact_mut(2).zip(&block[..m]) {
            (pair[0], pair[1]) = polar_pair(u, v, s);
        }
    }

    /// Advances the stream past `n` standard-normal samples, leaving it
    /// where `n` discarded [`standard`](Self::standard) calls would. Only
    /// the uniforms and the acceptance test run; the polar transform runs
    /// only for an odd tail, whose second half stays cached.
    pub fn skip_standard(&mut self, n: usize) {
        let n = match self.cached.take() {
            Some(_) if n > 0 => n - 1,
            cached => {
                self.cached = cached;
                n
            }
        };
        let mut pairs = n / 2;
        while pairs > 0 {
            pairs -= usize::from(accepted(self.rng.polar_attempt().2));
        }
        if n % 2 == 1 {
            self.standard();
        }
    }

    /// Draws one `N(0, σ²)` sample.
    pub fn sample(&mut self, sigma: f64) -> f64 {
        self.standard() * sigma
    }

    /// Adds real AWGN of variance `power` to a signal in place: the same
    /// values as `x[i] += self.sample(sigma)` per sample, drawn as blocks.
    pub fn add_real_noise(&mut self, x: &mut [f64], power: f64) {
        let sigma = power.sqrt();
        let mut z = [0.0; NOISE_CHUNK];
        for chunk in x.chunks_mut(NOISE_CHUNK) {
            let z = &mut z[..chunk.len()];
            self.fill_standard(z);
            for (v, &z) in chunk.iter_mut().zip(z.iter()) {
                *v += z * sigma;
            }
        }
    }

    /// Adds complex AWGN of total power `power` to a signal in place: the
    /// same values as `Complex::new(self.sample(sigma), self.sample(sigma))`
    /// per sample, drawn as blocks.
    pub fn add_complex_noise(&mut self, x: &mut [Complex], power: f64) {
        let sigma = (power / 2.0).sqrt();
        let mut z = [0.0; NOISE_CHUNK];
        for chunk in x.chunks_mut(NOISE_CHUNK / 2) {
            let z = &mut z[..2 * chunk.len()];
            self.fill_standard(z);
            for (c, z) in chunk.iter_mut().zip(z.chunks_exact(2)) {
                *c += Complex::new(z[0] * sigma, z[1] * sigma);
            }
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
    fn complex_noise_power_split_across_quadratures() {
        let mut g = GaussianSource::new(9);
        let p = 2.0;
        let mut z = vec![Complex::real(0.0); 100_000];
        g.add_complex_noise(&mut z, p);
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

    /// Every short length (across the block and chunk boundaries, odd and
    /// even, with and without a cached half-pair) matches the scalar path.
    #[test]
    fn block_kernels_match_scalar_draws_at_every_short_length() {
        for n in 0..=3 * NOISE_CHUNK {
            for cached in [false, true] {
                let source = || {
                    let mut g = GaussianSource::new(n as u64);
                    if cached {
                        g.standard();
                    }
                    g
                };
                let (mut scalar, mut block, mut skipped) = (source(), source(), source());
                let want: Vec<u64> = (0..n).map(|_| scalar.standard().to_bits()).collect();
                let mut got = vec![0.0; n];
                block.fill_standard(&mut got);
                skipped.skip_standard(n);
                assert_eq!(got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
                let next = scalar.standard().to_bits();
                assert_eq!(
                    block.standard().to_bits(),
                    next,
                    "fill n={n} cached={cached}"
                );
                assert_eq!(
                    skipped.standard().to_bits(),
                    next,
                    "skip n={n} cached={cached}"
                );

                // Power 0.5 splits into σ = √(0.5 / 2) = 0.5 per quadrature.
                let (mut scalar, mut block) = (source(), source());
                let mut want = vec![Complex::new(1.0, -1.0); n];
                for z in &mut want {
                    *z += Complex::new(scalar.sample(0.5), scalar.sample(0.5));
                }
                let mut got = vec![Complex::new(1.0, -1.0); n];
                block.add_complex_noise(&mut got, 0.5);
                assert!(got
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| a.re.to_bits() == b.re.to_bits()
                        && a.im.to_bits() == b.im.to_bits()));
                assert_eq!(block.standard().to_bits(), scalar.standard().to_bits());
            }
        }
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

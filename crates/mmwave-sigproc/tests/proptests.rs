//! Property-based tests over the DSP substrate's algebraic invariants,
//! with randomized inputs. Complements the unit tests inside each module.

use mmwave_sigproc::complex::Complex;
use mmwave_sigproc::detect::{find_peak, midpoint_threshold, refine_peak};
use mmwave_sigproc::fft::{fft, fft_frequencies, ifft, Direction, FftPlanner};
use mmwave_sigproc::filter::RcFilter;
use mmwave_sigproc::random::GaussianSource;
use mmwave_sigproc::stats;
use mmwave_sigproc::units;
use mmwave_sigproc::waveform::{Chirp, OaqfmSymbol};
use proptest::prelude::*;

/// A source at `seed`, with a half-pair cached when `cached` is set.
fn source(seed: u64, cached: bool) -> GaussianSource {
    let mut g = GaussianSource::new(seed);
    if cached {
        g.standard();
    }
    g
}

fn to_bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// Complex field axioms hold numerically.
    #[test]
    fn complex_field_axioms(
        ar in -1e3f64..1e3, ai in -1e3f64..1e3,
        br in -1e3f64..1e3, bi in -1e3f64..1e3,
        cr in -1e3f64..1e3, ci in -1e3f64..1e3,
    ) {
        let a = Complex::new(ar, ai);
        let b = Complex::new(br, bi);
        let c = Complex::new(cr, ci);
        // Distributivity.
        let lhs = a * (b + c);
        let rhs = a * b + a * c;
        prop_assert!((lhs - rhs).norm() <= 1e-9 * (1.0 + lhs.norm()));
        // |ab| = |a||b|.
        prop_assert!(((a * b).norm() - a.norm() * b.norm()).abs() <= 1e-9 * (1.0 + a.norm() * b.norm()));
        // Conjugation is an automorphism.
        prop_assert!(((a * b).conj() - a.conj() * b.conj()).norm() < 1e-9 * (1.0 + a.norm() * b.norm()));
    }

    /// FFT is linear: F(αx + y) = αF(x) + F(y).
    #[test]
    fn fft_linearity(
        n in 2usize..96,
        alpha in -3.0f64..3.0,
        seed in 0u64..1000,
    ) {
        let mut rng = mmwave_sigproc::random::GaussianSource::new(seed);
        let x: Vec<Complex> = (0..n).map(|_| Complex::new(rng.standard(), rng.standard())).collect();
        let y: Vec<Complex> = (0..n).map(|_| Complex::new(rng.standard(), rng.standard())).collect();
        let combo: Vec<Complex> = x.iter().zip(&y).map(|(&a, &b)| a.scale(alpha) + b).collect();
        let lhs = fft(&combo);
        let fx = fft(&x);
        let fy = fft(&y);
        for k in 0..n {
            let rhs = fx[k].scale(alpha) + fy[k];
            prop_assert!((lhs[k] - rhs).norm() < 1e-7 * (1.0 + rhs.norm()));
        }
    }

    /// The allocation-free scratch API agrees bit-for-bit with the one-shot
    /// `fft()` for any length (power-of-two and Bluestein alike), even with
    /// a dirtied scratch buffer, and its forward→inverse round trip
    /// recovers the input.
    #[test]
    fn scratch_api_matches_oneshot_and_roundtrips(n in 1usize..200, seed in 0u64..1000) {
        let mut rng = mmwave_sigproc::random::GaussianSource::new(seed);
        let x: Vec<Complex> = (0..n).map(|_| Complex::new(rng.standard(), rng.standard())).collect();
        let plan = FftPlanner::plan(n);
        let mut buf = x.clone();
        let mut scratch = vec![7.5f64; plan.scratch_len()]; // deliberately dirty
        plan.process_with_scratch(&mut buf, &mut scratch, Direction::Forward);
        let reference = fft(&x);
        for k in 0..n {
            prop_assert!(buf[k] == reference[k], "bin {k}: {:?} vs {:?}", buf[k], reference[k]);
        }
        scratch.fill(-3.25); // dirty again before the inverse
        plan.process_with_scratch(&mut buf, &mut scratch, Direction::Inverse);
        for k in 0..n {
            prop_assert!((buf[k] - x[k]).norm() < 1e-9 * (1.0 + x[k].norm()));
        }
    }

    /// A circular shift in time multiplies the spectrum by a phase ramp
    /// (shift theorem) — magnitude spectra are shift-invariant.
    #[test]
    fn fft_shift_theorem_magnitudes(n in 4usize..64, shift in 1usize..32, seed in 0u64..500) {
        let shift = shift % n;
        let mut rng = mmwave_sigproc::random::GaussianSource::new(seed);
        let x: Vec<Complex> = (0..n).map(|_| Complex::new(rng.standard(), rng.standard())).collect();
        let mut rolled = x.clone();
        rolled.rotate_left(shift);
        let a = fft(&x);
        let b = fft(&rolled);
        for k in 0..n {
            prop_assert!((a[k].norm() - b[k].norm()).abs() < 1e-8 * (1.0 + a[k].norm()));
        }
    }

    /// fft_frequencies is consistent: bin spacing fs/N, DC at 0.
    #[test]
    fn fft_frequency_grid(n in 2usize..256, fs in 1.0f64..1e9) {
        let f = fft_frequencies(n, fs);
        prop_assert_eq!(f[0], 0.0);
        let df = fs / n as f64;
        prop_assert!((f[1] - df).abs() < 1e-6 * df);
        // All magnitudes within Nyquist.
        for &v in &f {
            prop_assert!(v.abs() <= fs / 2.0 + 1e-6);
        }
    }

    /// dB conversions are inverse bijections on positive reals.
    #[test]
    fn db_bijection(x in 1e-12f64..1e12) {
        prop_assert!((units::db_to_lin(units::lin_to_db(x)) - x).abs() <= 1e-9 * x);
        prop_assert!((units::dbm_to_watts(units::watts_to_dbm(x)) - x).abs() <= 1e-9 * x);
    }

    /// Wrapped angles stay in (−π, π] and preserve the phasor.
    #[test]
    fn angle_wrap_preserves_phasor(theta in -100.0f64..100.0) {
        let w = units::wrap_angle(theta);
        prop_assert!(w > -std::f64::consts::PI - 1e-12 && w <= std::f64::consts::PI + 1e-12);
        prop_assert!((Complex::cis(theta) - Complex::cis(w)).norm() < 1e-9);
    }

    /// RC step response is monotone and bounded by the input.
    #[test]
    fn rc_step_monotone(tau in 1e-9f64..1e-3, steps in 2usize..500) {
        let dt = tau / 10.0;
        let mut rc = RcFilter::from_time_constant(tau, dt);
        let mut prev = 0.0;
        for _ in 0..steps {
            let y = rc.step(1.0);
            prop_assert!(y >= prev - 1e-15 && y <= 1.0 + 1e-12);
            prev = y;
        }
    }

    /// Quadratically refined peaks never leave the ±0.5-sample window.
    #[test]
    fn refined_peak_stays_local(values in proptest::collection::vec(0.0f64..100.0, 3..64)) {
        if let Some(p) = find_peak(&values) {
            prop_assert!((p.position - p.index as f64).abs() <= 0.5 + 1e-12);
            let r = refine_peak(&values, p.index);
            prop_assert_eq!(r.index, p.index);
        }
    }

    /// Midpoint threshold separates any strictly two-level trace.
    #[test]
    fn midpoint_threshold_separates(
        lo in -10.0f64..0.0,
        gap in 0.5f64..10.0,
        pattern in proptest::collection::vec(any::<bool>(), 8..64),
    ) {
        prop_assume!(pattern.iter().any(|&b| b) && pattern.iter().any(|&b| !b));
        let hi = lo + gap;
        let trace: Vec<f64> = pattern.iter().map(|&b| if b { hi } else { lo }).collect();
        let t = midpoint_threshold(&trace).unwrap();
        for (&v, &b) in trace.iter().zip(&pattern) {
            prop_assert_eq!(v > t, b);
        }
    }

    /// Chirp instantaneous frequency stays within the swept band.
    #[test]
    fn chirp_frequency_in_band(
        start in 1e9f64..30e9,
        bw in 1e8f64..5e9,
        dur in 1e-6f64..1e-4,
        frac in 0.0f64..1.0,
        tri in any::<bool>(),
    ) {
        let c = if tri { Chirp::triangular(start, bw, dur) } else { Chirp::sawtooth(start, bw, dur) };
        let f = c.instantaneous_freq(frac * dur * 0.999);
        prop_assert!(f >= start - 1.0 && f <= start + bw + 1.0);
    }

    /// ErrorSummary percentiles are ordered: median ≤ p90 ≤ max.
    #[test]
    fn error_summary_ordered(values in proptest::collection::vec(0.0f64..1e3, 1..200)) {
        let s = stats::ErrorSummary::from_abs_errors(&values);
        prop_assert!(s.median <= s.p90 + 1e-12);
        prop_assert!(s.p90 <= s.max + 1e-12);
        prop_assert!(s.mean <= s.max + 1e-12);
    }

    /// Q-function is a decreasing CDF complement on [0, ∞).
    #[test]
    fn q_function_decreasing(x in 0.0f64..8.0, dx in 0.01f64..2.0) {
        prop_assert!(stats::q_function(x + dx) <= stats::q_function(x));
        prop_assert!(stats::q_function(x) <= 0.5 + 1e-12);
    }

    /// OAQFM symbols are a bijection on two bits.
    #[test]
    fn oaqfm_bijection(bits in 0u8..4) {
        prop_assert_eq!(OaqfmSymbol::from_bits(bits).to_bits(), bits);
    }

    /// IFFT(FFT(x)) round-trips Bluestein lengths specifically.
    #[test]
    fn bluestein_roundtrip(n in proptest::sample::select(vec![3usize, 5, 7, 11, 13, 17, 23, 29, 45, 97])) {
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 1.3).sin(), (i as f64 * 0.9).cos()))
            .collect();
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).norm() < 1e-7);
        }
    }

    /// The block kernel draws bit for bit what repeated `standard()` calls
    /// give, and leaves the stream (cached half-pair included) where they
    /// leave it.
    #[test]
    fn fill_standard_matches_repeated_draws(
        seed in any::<u64>(),
        n in 0usize..2049,
        cached in any::<bool>(),
    ) {
        let mut scalar = source(seed, cached);
        let mut block = source(seed, cached);
        let want: Vec<f64> = (0..n).map(|_| scalar.standard()).collect();
        let mut got = vec![f64::NAN; n];
        block.fill_standard(&mut got);
        prop_assert_eq!(to_bits(&got), to_bits(&want));
        prop_assert_eq!(block.standard().to_bits(), scalar.standard().to_bits());
        prop_assert_eq!(block.standard().to_bits(), scalar.standard().to_bits());
    }

    /// `skip_standard(n)` leaves the stream where `n` discarded draws do.
    #[test]
    fn skip_standard_matches_discarded_draws(
        seed in any::<u64>(),
        n in 0usize..2049,
        cached in any::<bool>(),
    ) {
        let mut scalar = source(seed, cached);
        let mut skipped = source(seed, cached);
        for _ in 0..n {
            scalar.standard();
        }
        skipped.skip_standard(n);
        prop_assert_eq!(skipped.standard().to_bits(), scalar.standard().to_bits());
        prop_assert_eq!(skipped.uniform(0.0, 1.0).to_bits(), scalar.uniform(0.0, 1.0).to_bits());
        prop_assert_eq!(skipped.standard().to_bits(), scalar.standard().to_bits());
    }

    /// The noise adders equal the per-sample `sample(sigma)` composition.
    #[test]
    fn noise_adders_match_per_sample_draws(
        seed in any::<u64>(),
        n in 0usize..2049,
        cached in any::<bool>(),
        power in 0.0f64..10.0,
        offset in -5.0f64..5.0,
    ) {
        let signal: Vec<f64> = (0..n).map(|i| offset + (i as f64 * 0.37).sin()).collect();
        let mut scalar = source(seed, cached);
        let mut block = source(seed, cached);
        let sigma = power.sqrt();
        let want: Vec<f64> = signal.iter().map(|&v| v + scalar.sample(sigma)).collect();
        let mut got = signal.clone();
        block.add_real_noise(&mut got, power);
        prop_assert_eq!(to_bits(&got), to_bits(&want));

        let signal: Vec<Complex> = signal.iter().map(|&v| Complex::new(v, -v)).collect();
        let sigma = (power / 2.0).sqrt();
        let want: Vec<Complex> = signal
            .iter()
            .map(|&z| z + Complex::new(scalar.sample(sigma), scalar.sample(sigma)))
            .collect();
        let mut got = signal.clone();
        block.add_complex_noise(&mut got, power);
        let parts = |x: &[Complex]| -> Vec<(u64, u64)> {
            x.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        prop_assert_eq!(parts(&got), parts(&want));
        prop_assert_eq!(block.standard().to_bits(), scalar.standard().to_bits());
    }
}

//! Property-based tests over the DSP substrate's algebraic invariants,
//! with randomized inputs. Complements the unit tests inside each module.

use mmwave_sigproc::complex::Complex;
use mmwave_sigproc::detect::{find_peak, midpoint_threshold, refine_peak};
use mmwave_sigproc::fft::{fft, fft_frequencies, ifft, Direction, FftPlanner};
use mmwave_sigproc::filter::RcFilter;
use mmwave_sigproc::stats;
use mmwave_sigproc::units;
use mmwave_sigproc::waveform::{Chirp, OaqfmSymbol};
use proptest::prelude::*;

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
}

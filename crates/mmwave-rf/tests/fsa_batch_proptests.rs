//! Property tests pinning the FSA batch evaluation layer to the scalar
//! paths **bit-for-bit** (`to_bits` equality) on randomized grids.
//!
//! The batch APIs skip the `RwLock` memo and run straight through the
//! shared `AfCore` routines; these properties are the proof that doing so
//! never drifts a single ULP from the per-call path at opt-level=3 — the
//! committed figure CSVs (and their CI hashes) depend on that.

use mmwave_rf::antenna::fsa::{DualPortFsa, FsaDesign, FsaGainEval, FsaPort};
use proptest::prelude::*;

fn port(b: bool) -> FsaPort {
    if b {
        FsaPort::A
    } else {
        FsaPort::B
    }
}

proptest! {
    /// Angle-chunk batches through a hoisted `FsaFreqEval` match both the
    /// direct per-call design path and the memoized evaluator, bit-exactly.
    #[test]
    fn angle_batches_match_scalar_bits(
        port_a in any::<bool>(),
        freq_off in 0.0f64..3.0e9,
        angles in proptest::collection::vec(-0.9f64..0.9, 1..160),
    ) {
        let d = FsaDesign::milback_default();
        let eval = FsaGainEval::new(&d);
        let p = port(port_a);
        let f = 26.5e9 + freq_off;
        let fe = eval.at_freq(p, f);
        let mut dbi = vec![0.0; angles.len()];
        fe.gain_dbi_batch(&angles, &mut dbi);
        for (i, &a) in angles.iter().enumerate() {
            prop_assert_eq!(dbi[i].to_bits(), d.gain_dbi(p, f, a).to_bits());
            prop_assert_eq!(dbi[i].to_bits(), eval.gain_dbi(p, f, a).to_bits());
        }
    }

    /// Frequency-chunk batches (the cold-grid localization path) match the
    /// scalar design calls bit-exactly, with and without memo writeback,
    /// and the writeback seeds a cache whose hits return the same bits.
    #[test]
    fn freq_batches_match_scalar_bits(
        port_a in any::<bool>(),
        angle in -0.9f64..0.9,
        freqs in proptest::collection::vec(26.5e9f64..29.5e9, 1..160),
    ) {
        let d = FsaDesign::milback_default();
        let eval = FsaGainEval::new(&d);
        let p = port(port_a);
        let mut lin = vec![0.0; freqs.len()];
        eval.gain_linear_freqs_into(p, &freqs, angle, &mut lin, false);
        for (i, &f) in freqs.iter().enumerate() {
            prop_assert_eq!(lin[i].to_bits(), d.gain_linear(p, f, angle).to_bits());
        }
        // Memoizing run: same bits out, and the seeded cache serves the
        // scalar path the same bits back.
        let mut lin_memo = vec![0.0; freqs.len()];
        eval.gain_linear_freqs_into(p, &freqs, angle, &mut lin_memo, true);
        for (i, &f) in freqs.iter().enumerate() {
            prop_assert_eq!(lin_memo[i].to_bits(), lin[i].to_bits());
            prop_assert_eq!(eval.gain_linear(p, f, angle).to_bits(), lin[i].to_bits());
        }
    }

    /// Dual-port coupling batches match the scalar `DualPortFsa` path
    /// bit-exactly across random frequency grids.
    #[test]
    fn coupling_batches_match_scalar_bits(
        angle in -0.9f64..0.9,
        freqs in proptest::collection::vec(26.5e9f64..29.5e9, 1..120),
    ) {
        let fsa = DualPortFsa::milback_default();
        let eval = FsaGainEval::for_dual(&fsa);
        let mut into_a = vec![0.0; freqs.len()];
        let mut into_b = vec![0.0; freqs.len()];
        eval.port_coupling_linear_freqs_into(&freqs, angle, &mut into_a, &mut into_b);
        for (i, &f) in freqs.iter().enumerate() {
            let (ca, cb) = fsa.port_coupling_linear(f, angle);
            prop_assert_eq!(into_a[i].to_bits(), ca.to_bits());
            prop_assert_eq!(into_b[i].to_bits(), cb.to_bits());
        }
    }
}

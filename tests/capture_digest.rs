//! Bit-level pin of the localization pipeline's capture path.
//!
//! For seeds 1–8, node ranges 2/5/8 m and orientations ±20°, one RNG
//! stream runs `capture(5, a+b)`, `capture(5, a only)`, `localize`,
//! `orient_at_ap` and `orient_at_node` in turn. An FNV-1a digest folds the
//! `to_bits` of every synthesized sample, every estimate, and a probe of the
//! RNG position after each call. The committed digest was recorded before
//! beat synthesis was split into a per-capture phasor table and a per-chirp
//! sum, so any change to a sample, an estimate or the RNG draw order of
//! that path fails here. `capture_digest_clean_5m` runs the same stream
//! under `Impairments::none()`: no floor bounces, so RX1 has no per-capture
//! echoes and each chirp sums only the mirror and node amplitudes after the
//! clutter; its digest was recorded before the capture moved onto
//! per-parity amplitude rows.

use milback::core::localization::ToggleSelection;
use milback::core::{Impairments, LocalizationPipeline, Scene, SystemConfig};
use milback::sigproc::complex::Complex;
use milback::sigproc::random::GaussianSource;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn chirps(&mut self, chirps: &[Vec<Complex>]) {
        self.word(chirps.len() as u64);
        for chirp in chirps {
            self.word(chirp.len() as u64);
            for z in chirp {
                self.f64(z.re);
                self.f64(z.im);
            }
        }
    }

    /// Folds the RNG position without advancing it: a clone draws one
    /// Gaussian (which sees any cached polar-method partner) and one
    /// uniform (which sees the raw stream).
    fn rng(&mut self, rng: &GaussianSource) {
        let mut probe = rng.clone();
        self.f64(probe.standard());
        self.f64(probe.uniform(0.0, 1.0));
    }

    fn estimate<T>(&mut self, r: milback::core::error::Result<T>, fold: impl FnOnce(&mut Self, T)) {
        match r {
            Ok(v) => {
                self.word(1);
                fold(self, v);
            }
            Err(_) => self.word(0),
        }
    }
}

/// Digest of every seed and orientation at one node range.
fn digest_at(range_m: f64) -> u64 {
    digest_with(range_m, Impairments::milback_default())
}

/// [`digest_at`] under an explicit impairment model.
fn digest_with(range_m: f64, impairments: Impairments) -> u64 {
    let mut h = Fnv::new();
    for orientation_deg in [-20.0f64, 20.0] {
        let pipeline = LocalizationPipeline::new(
            SystemConfig::milback_default(),
            Scene::indoor(range_m, orientation_deg.to_radians()),
        )
        .unwrap()
        .with_impairments(impairments);
        for seed in 1..=8u64 {
            let mut rng = GaussianSource::new(seed);
            let (rx1, rx2) = pipeline.capture(5, ToggleSelection { a: true, b: true }, &mut rng);
            h.chirps(&rx1);
            h.chirps(&rx2);
            h.rng(&rng);
            let (rx1, rx2) = pipeline.capture(5, ToggleSelection { a: true, b: false }, &mut rng);
            h.chirps(&rx1);
            h.chirps(&rx2);
            h.rng(&rng);
            h.estimate(pipeline.localize(&mut rng), |h, fix| {
                h.f64(fix.range_m);
                h.f64(fix.angle_rad);
                h.f64(fix.position.x);
                h.f64(fix.position.y);
                h.f64(fix.confidence_db);
            });
            h.rng(&rng);
            h.estimate(pipeline.orient_at_ap(&mut rng), Fnv::f64);
            h.rng(&rng);
            h.estimate(pipeline.orient_at_node(&mut rng), Fnv::f64);
            h.rng(&rng);
        }
    }
    h.0
}

#[test]
fn capture_digest_2m() {
    assert_eq!(
        digest_at(2.0),
        6_573_009_029_363_888_380,
        "2 m capture digest moved"
    );
}

#[test]
fn capture_digest_5m() {
    assert_eq!(
        digest_at(5.0),
        17_322_653_832_716_576_918,
        "5 m capture digest moved"
    );
}

#[test]
fn capture_digest_8m() {
    assert_eq!(
        digest_at(8.0),
        12_197_061_989_089_492_499,
        "8 m capture digest moved"
    );
}

#[test]
fn capture_digest_clean_5m() {
    assert_eq!(
        digest_with(5.0, Impairments::none()),
        17_557_360_403_041_372_256,
        "5 m clean capture digest moved"
    );
}

//! What one Field-2 capture costs the localization fix.
//!
//! A session packet captures Field 2 once, with port A toggling and port B
//! parked absorptive, and reads both the fix and the node's orientation
//! from it (`LocalizationPipeline::field2`). The standalone `localize()`
//! captures with both ports toggling, so twice the echo power. This runs
//! both on the same seeds over 1–10 m × 0/6/12/20° indoors and prints the
//! absolute range and angle errors and how many calls returned an error.
//!
//! Run with: `cargo run --release --example field2_accuracy`

use milback::core::{LocalizationPipeline, LocationFix, Scene, SystemConfig};
use milback::sigproc::random::GaussianSource;
use milback::sigproc::stats::percentile;

const SEEDS: std::ops::RangeInclusive<u64> = 1..=60;

/// Absolute range errors (m), angle errors (°) and failed calls of `fix`
/// over [`SEEDS`], each seed its own stream.
fn errors(
    scene: &Scene,
    mut fix: impl FnMut(&mut GaussianSource) -> Option<LocationFix>,
) -> (Vec<f64>, Vec<f64>, usize) {
    let gt = scene.ground_truth(0);
    let (mut range, mut angle, mut failed) = (Vec::new(), Vec::new(), 0);
    for seed in SEEDS {
        match fix(&mut GaussianSource::new(seed)) {
            Some(f) => {
                range.push((f.range_m - gt.range_m).abs());
                angle.push((f.angle_rad - gt.azimuth_rad).abs().to_degrees());
            }
            None => failed += 1,
        }
    }
    (range, angle, failed)
}

/// `p50/p90 range (m) | p90 angle (°) | failures` of one estimator.
fn cells((range, angle, failed): &(Vec<f64>, Vec<f64>, usize)) -> String {
    if range.is_empty() {
        return format!("{:>13} | {:>6} | {failed:>2}", "—", "—");
    }
    format!(
        "{:>6.3}/{:>6.3} | {:>6.2} | {failed:>2}",
        percentile(range, 50.0),
        percentile(range, 90.0),
        percentile(angle, 90.0)
    )
}

fn main() {
    println!(
        "Field-2 fix accuracy: localize() (both ports) vs field2() (port A only), \
         {} seeds per pose\n",
        SEEDS.count()
    );
    println!(
        "{:>4} {:>5} | {:^13} | {:^6} | {:^2} | {:^13} | {:^6} | {:^2}",
        "m", "°", "range p50/p90", "ang90", "x", "range p50/p90", "ang90", "x"
    );
    println!(
        "{:>10} | {:-^27} | {:-^27}",
        "", " localize() ", " field2() "
    );
    for d in 1..=10 {
        for orient_deg in [0.0f64, 6.0, 12.0, 20.0] {
            let scene = Scene::indoor(f64::from(d), orient_deg.to_radians());
            let pipeline =
                LocalizationPipeline::new(SystemConfig::milback_default(), scene.clone())
                    .expect("valid pose");
            let both = errors(&scene, |rng| pipeline.localize(rng).ok());
            let one = errors(&scene, |rng| pipeline.field2(rng).ok().map(|(fix, _)| fix));
            println!(
                "{d:>4} {orient_deg:>5.0} | {} | {}",
                cells(&both),
                cells(&one)
            );
        }
    }
    println!("\nx = calls that returned an error; errors are absolute.");
}

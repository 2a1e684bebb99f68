//! Closed-form oracle for slotted ALOHA delivery.
//!
//! With SDM switched off (an infinite separability threshold) every shared
//! slot is a collision, and a lone transmitter on the 4 m arc always
//! decodes. A node that picks one of `S` slots uniformly then delivers
//! exactly when none of the other `n − 1` nodes picks the same slot:
//!
//! ```text
//! P(deliver) = (1 − 1/S)^(n − 1)
//! ```
//!
//! The campaign's total delivered over total attempts must match that
//! probability within a binomial z-score of 3.29 (two-sided 99.9%). The
//! counts come from the per-node outcome table, so this checks that the
//! derived `attempts` and `delivered` are right, not just unchanged.

use milback::core::protocol::SlotPlan;
use milback::core::{
    CampaignAggregate, CampaignProbe, CampaignSpec, Network, Packet, Scene, SlottedAloha,
    SystemConfig,
};
use milback::sigproc::random::GaussianSource;

const FRAMES: usize = 300;
const SEEDS: std::ops::RangeInclusive<u64> = 1..=5;

/// Pooled `(delivered, attempts)` of `n` nodes on `slots` slots, SDM off,
/// over [`SEEDS`] (each the slot-hash seed and the noise seed).
fn aloha_totals(n: usize, slots: usize) -> (u64, u64) {
    let config = SystemConfig::milback_default();
    let scene = Scene::arc(n, 4.0, 120f64.to_radians(), 12f64.to_radians());
    let net = Network::new(config.clone(), scene).unwrap();
    let payload = [0x42u8; 8];
    let plan = SlotPlan::for_packet(
        slots,
        &Packet::uplink(payload.to_vec()),
        &config.fmcw,
        config.uplink_symbol_rate_hz,
        5e-6,
    )
    .unwrap();
    let spec = CampaignSpec::new(FRAMES, &payload, plan).with_sdm_threshold_db(f64::INFINITY);
    let (mut delivered, mut attempts) = (0, 0);
    for seed in SEEDS {
        let agg: CampaignAggregate = net
            .run(
                &spec,
                Box::new(SlottedAloha::new(seed)),
                &mut GaussianSource::new(seed),
                &mut CampaignProbe::disabled(),
            )
            .unwrap();
        // Every node contends every frame, and every loss is a collision.
        assert_eq!(agg.attempts, (n * FRAMES) as u64);
        assert_eq!(agg.attempts, agg.delivered + agg.collisions);
        assert_eq!(agg.lifecycle.offered, agg.attempts);
        delivered += agg.delivered;
        attempts += agg.attempts;
    }
    (delivered, attempts)
}

#[test]
fn slotted_aloha_delivery_matches_the_closed_form() {
    for (n, slots) in [(4, 8), (16, 8), (32, 16), (64, 8)] {
        let (delivered, attempts) = aloha_totals(n, slots);
        let p = (1.0 - 1.0 / slots as f64).powi(n as i32 - 1);
        let trials = attempts as f64;
        let z = (delivered as f64 - trials * p) / (trials * p * (1.0 - p)).sqrt();
        assert!(
            z.abs() <= 3.29,
            "n={n} S={slots}: delivered {delivered}/{attempts} = {:.5}, \
             closed form {p:.5}, z = {z:.2}",
            delivered as f64 / trials
        );
    }
}

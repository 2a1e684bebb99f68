//! Position tracking over localization fixes: a constant-velocity Kalman
//! filter in the 2-D evaluation plane.
//!
//! The paper localizes a static node per packet; applications like VR
//! (§1) track a *moving* one. Fusing the per-packet fixes through a
//! motion model smooths the centimeter-level measurement noise; a fix that
//! follows dropped ones simply carries a longer `dt`, over which the model
//! coasts.

use crate::localization::LocationFix;
use mmwave_rf::channel::Vec2;
use serde::{Deserialize, Serialize};

/// State: position and velocity in the AP frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrackState {
    /// Position, meters.
    pub position: Vec2,
    /// Velocity, meters/second.
    pub velocity: Vec2,
}

/// A constant-velocity Kalman tracker with decoupled x/y axes (the
/// measurement noise of a range/angle fix is treated as isotropic in
/// Cartesian space at the fix's position — adequate at the paper's
/// accuracies).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tracker {
    /// Process noise: RMS acceleration the motion model absorbs, m/s².
    pub accel_sigma: f64,
    /// Measurement noise: RMS position error of one fix, m.
    pub fix_sigma: f64,
    state: Option<TrackState>,
    // Per-axis covariance [[p_pp, p_pv], [p_pv, p_vv]] (same for x and y).
    cov: [[f64; 2]; 2],
}

impl Tracker {
    /// Creates a tracker. Defaults match a hand-held node (≤ ~2 m/s²) and
    /// the Fig 12 fix accuracy (~3 cm).
    pub fn new() -> Self {
        Self {
            accel_sigma: 2.0,
            fix_sigma: 0.03,
            state: None,
            cov: [[1.0, 0.0], [0.0, 1.0]],
        }
    }

    /// Overrides the noise parameters.
    pub fn with_noise(mut self, accel_sigma: f64, fix_sigma: f64) -> Self {
        assert!(accel_sigma > 0.0 && fix_sigma > 0.0);
        self.accel_sigma = accel_sigma;
        self.fix_sigma = fix_sigma;
        self
    }

    /// Current estimate, if initialized.
    pub fn state(&self) -> Option<TrackState> {
        self.state
    }

    /// Motion-model step on an explicit state: position extrapolation plus
    /// covariance propagation P = F P Fᵀ + Q.
    fn advance(&mut self, s: &mut TrackState, dt: f64) {
        assert!(dt >= 0.0, "time cannot run backwards");
        s.position.x += s.velocity.x * dt;
        s.position.y += s.velocity.y * dt;
        let [[ppp, ppv], [_, pvv]] = self.cov;
        let q = self.accel_sigma * self.accel_sigma;
        let q11 = q * dt.powi(4) / 4.0;
        let q12 = q * dt.powi(3) / 2.0;
        let q22 = q * dt * dt;
        let n_pp = ppp + 2.0 * dt * ppv + dt * dt * pvv + q11;
        let n_pv = ppv + dt * pvv + q12;
        let n_vv = pvv + q22;
        self.cov = [[n_pp, n_pv], [n_pv, n_vv]];
    }

    /// Ingests a fix taken `dt` seconds after the previous update.
    pub fn update(&mut self, fix: &LocationFix, dt: f64) -> TrackState {
        match self.state {
            None => {
                let s = TrackState {
                    position: fix.position,
                    velocity: Vec2::new(0.0, 0.0),
                };
                self.state = Some(s);
                self.cov = [[self.fix_sigma * self.fix_sigma, 0.0], [0.0, 4.0]];
                s
            }
            Some(mut s) => {
                self.advance(&mut s, dt);
                let r = self.fix_sigma * self.fix_sigma;
                let [[ppp, ppv], [_, pvv]] = self.cov;
                let k_p = ppp / (ppp + r);
                let k_v = ppv / (ppp + r);
                let inn_x = fix.position.x - s.position.x;
                let inn_y = fix.position.y - s.position.y;
                s.position.x += k_p * inn_x;
                s.position.y += k_p * inn_y;
                s.velocity.x += k_v * inn_x;
                s.velocity.y += k_v * inn_y;
                let n_pp = (1.0 - k_p) * ppp;
                let n_pv = (1.0 - k_p) * ppv;
                let n_vv = pvv - k_v * ppv;
                self.cov = [[n_pp, n_pv], [n_pv, n_vv]];
                self.state = Some(s);
                s
            }
        }
    }
}

impl Default for Tracker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_sigproc::random::GaussianSource;

    fn fix_at(x: f64, y: f64) -> LocationFix {
        let position = Vec2::new(x, y);
        LocationFix {
            range_m: (x * x + y * y).sqrt(),
            angle_rad: y.atan2(x),
            position,
            confidence_db: 20.0,
        }
    }

    #[test]
    fn first_fix_initializes() {
        let mut t = Tracker::new();
        assert!(t.state().is_none());
        let s = t.update(&fix_at(3.0, 1.0), 0.0);
        assert_eq!(s.position, Vec2::new(3.0, 1.0));
        assert_eq!(s.velocity, Vec2::new(0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "time cannot run backwards")]
    fn negative_dt_rejected() {
        let mut t = Tracker::new();
        t.update(&fix_at(1.0, 0.0), 0.0);
        t.update(&fix_at(1.0, 0.0), -0.1);
    }

    #[test]
    fn static_node_estimate_tightens() {
        // A static node: use a tight motion model so velocity noise damps.
        let mut t = Tracker::new().with_noise(0.3, 0.03);
        let mut rng = GaussianSource::new(1);
        let mut last_sigma = f64::MAX;
        for i in 0..30 {
            let fix = fix_at(4.0 + rng.sample(0.03), rng.sample(0.03));
            t.update(&fix, if i == 0 { 0.0 } else { 0.1 });
            if i > 5 {
                assert!(t.cov[0][0].sqrt() <= last_sigma * 1.2);
            }
            last_sigma = t.cov[0][0].sqrt();
        }
        let s = t.state().unwrap();
        assert!((s.position.x - 4.0).abs() < 0.03);
        assert!(
            s.velocity.x.abs() < 0.2,
            "residual velocity {}",
            s.velocity.x
        );
    }

    #[test]
    fn tracks_constant_velocity() {
        let mut t = Tracker::new();
        let mut rng = GaussianSource::new(2);
        let v = 0.8; // m/s along +y
        let dt = 0.1;
        for i in 0..50 {
            let y = v * i as f64 * dt;
            let fix = fix_at(3.0 + rng.sample(0.03), y + rng.sample(0.03));
            t.update(&fix, if i == 0 { 0.0 } else { dt });
        }
        let s = t.state().unwrap();
        assert!(
            (s.velocity.y - v).abs() < 0.15,
            "velocity {:.2}",
            s.velocity.y
        );
        assert!((s.position.y - v * 49.0 * dt).abs() < 0.05);
    }

    #[test]
    fn smoothing_beats_raw_fixes() {
        // RMS error of the filtered track must beat the raw measurement
        // RMS for a static node.
        let mut t = Tracker::new();
        let mut rng = GaussianSource::new(3);
        let mut raw_se = 0.0;
        let mut filt_se = 0.0;
        let n = 100;
        for i in 0..n {
            let fix = fix_at(5.0 + rng.sample(0.05), rng.sample(0.05));
            let s = t.update(&fix, if i == 0 { 0.0 } else { 0.05 });
            if i >= 10 {
                raw_se += (fix.position.x - 5.0).powi(2) + fix.position.y.powi(2);
                filt_se += (s.position.x - 5.0).powi(2) + s.position.y.powi(2);
            }
        }
        assert!(
            filt_se < raw_se * 0.6,
            "filtered {:.4} !≪ raw {:.4}",
            filt_se,
            raw_se
        );
    }
}

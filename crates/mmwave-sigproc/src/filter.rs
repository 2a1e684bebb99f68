//! The first-order RC response that models envelope-detector video
//! bandwidth: the node's envelope detector has a finite rise/fall time that
//! caps the downlink rate at 36 Mbps (§9.4).

use serde::{Deserialize, Serialize};

/// First-order RC low-pass — the video-bandwidth model of an envelope
/// detector output stage.
///
/// A detector with 10–90% rise time `t_r` has time constant `τ ≈ t_r / 2.2`;
/// this is exactly the dynamic that limits MilBack's downlink to 36 Mbps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RcFilter {
    alpha: f64,
    state: f64,
}

impl RcFilter {
    /// Builds the filter from a time constant and a sample interval.
    ///
    /// # Panics
    /// Panics unless both arguments are positive.
    pub fn from_time_constant(tau_s: f64, dt_s: f64) -> Self {
        assert!(tau_s > 0.0 && dt_s > 0.0);
        // Exact discretization of dy/dt = (x - y)/τ over one step.
        let alpha = 1.0 - (-dt_s / tau_s).exp();
        Self { alpha, state: 0.0 }
    }

    /// Builds the filter from a 10–90% rise time.
    pub fn from_rise_time(rise_s: f64, dt_s: f64) -> Self {
        Self::from_time_constant(rise_s / 2.197, dt_s)
    }

    /// Processes one sample.
    #[inline]
    pub fn step(&mut self, x: f64) -> f64 {
        self.state += self.alpha * (x - self.state);
        self.state
    }

    /// Filters a whole buffer, preserving state.
    pub fn process(&mut self, x: &[f64]) -> Vec<f64> {
        x.iter().map(|&v| self.step(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn tone(freq: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * PI * freq * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn rc_step_response_reaches_63_percent_at_tau() {
        let dt = 1e-9;
        let tau = 100e-9;
        let mut rc = RcFilter::from_time_constant(tau, dt);
        let steps = (tau / dt) as usize;
        let mut y = 0.0;
        for _ in 0..steps {
            y = rc.step(1.0);
        }
        assert!((y - 0.632).abs() < 0.005, "got {y}");
    }

    #[test]
    fn rc_rise_time_matches_definition() {
        let dt = 0.1e-9;
        let rise = 10e-9; // 10 ns, ~ADL6010 class
        let mut rc = RcFilter::from_rise_time(rise, dt);
        let mut t10 = None;
        let mut t90 = None;
        for i in 0..10_000 {
            let y = rc.step(1.0);
            if t10.is_none() && y >= 0.1 {
                t10 = Some(i as f64 * dt);
            }
            if t90.is_none() && y >= 0.9 {
                t90 = Some(i as f64 * dt);
                break;
            }
        }
        let measured = t90.unwrap() - t10.unwrap();
        assert!((measured - rise).abs() / rise < 0.05, "rise {measured:.2e}");
    }

    #[test]
    fn rc_tracks_slow_signal() {
        let dt = 1e-8;
        let mut rc = RcFilter::from_time_constant(5e-8, dt);
        let x = tone(100e3, 1e8, 4000); // much slower than τ
        let y = rc.process(&x);
        // After transient, output ≈ input.
        for i in 2000..4000 {
            assert!((y[i] - x[i]).abs() < 0.05);
        }
    }
}

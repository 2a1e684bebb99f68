//! Antenna models: gain patterns as a function of azimuth angle and
//! frequency.
//!
//! The paper's evaluation is a 2-D (azimuth-plane) exercise — the node and
//! AP sit in the same horizontal plane and the protractor/laser ground truth
//! is planar — so antennas here expose a single-cut pattern
//! `gain_dbi(freq_hz, angle_rad)`. Angle is measured from the antenna's
//! boresight, positive counter-clockwise.
//!
//! Concrete implementations:
//! * [`Horn`] — Gaussian-beam model of the Mi-Wave 20 dBi horn at the AP.
//! * [`fsa::FrequencyScanningAntenna`] / [`fsa::DualPortFsa`] — the node's
//!   passive beam-steering structure (the paper's core hardware idea).
//! * [`vanatta::VanAttaArray`] — the retro-reflector used by the mmTag and
//!   Millimetro baselines.

pub mod fsa;
pub mod vanatta;

use std::f64::consts::PI;

/// A reciprocal antenna described by its azimuth-cut gain pattern.
pub trait Antenna {
    /// Power gain in dBi toward `angle_rad` (from boresight) at `freq_hz`.
    fn gain_dbi(&self, freq_hz: f64, angle_rad: f64) -> f64;

    /// Linear power gain toward `angle_rad` at `freq_hz`.
    fn gain_linear(&self, freq_hz: f64, angle_rad: f64) -> f64 {
        10f64.powf(self.gain_dbi(freq_hz, angle_rad) / 10.0)
    }

    /// Peak gain over the azimuth cut at `freq_hz`, found numerically.
    fn peak_gain_dbi(&self, freq_hz: f64) -> f64 {
        let mut best = f64::MIN;
        for i in 0..=1800 {
            let a = -PI / 2.0 + PI * i as f64 / 1800.0;
            best = best.max(self.gain_dbi(freq_hz, a));
        }
        best
    }

    /// Boresight-relative angle of the pattern maximum at `freq_hz`.
    fn beam_direction_rad(&self, freq_hz: f64) -> f64 {
        let mut best = f64::MIN;
        let mut arg = 0.0;
        for i in 0..=3600 {
            let a = -PI / 2.0 + PI * i as f64 / 3600.0;
            let g = self.gain_dbi(freq_hz, a);
            if g > best {
                best = g;
                arg = a;
            }
        }
        arg
    }

    /// −3 dB beamwidth (radians) around the pattern maximum at `freq_hz`.
    fn beamwidth_rad(&self, freq_hz: f64) -> f64 {
        let peak_dir = self.beam_direction_rad(freq_hz);
        let peak = self.gain_dbi(freq_hz, peak_dir);
        let step = PI / 3600.0;
        let mut lo = peak_dir;
        while lo > -PI / 2.0 && self.gain_dbi(freq_hz, lo) > peak - 3.0 {
            lo -= step;
        }
        let mut hi = peak_dir;
        while hi < PI / 2.0 && self.gain_dbi(freq_hz, hi) > peak - 3.0 {
            hi += step;
        }
        hi - lo
    }
}

/// Gaussian-beam model of a standard-gain horn.
///
/// Defaults match the Mi-Wave 261(34)-20/595 used at the MilBack AP:
/// 20 dBi gain with ≈18° half-power beamwidth. Sidelobes are floored at
/// `sidelobe_dbi` rather than rolling off forever, matching real horns.
#[derive(Debug, Clone, Copy)]
pub struct Horn {
    /// Boresight gain, dBi.
    pub peak_gain_dbi: f64,
    /// Half-power (−3 dB) beamwidth, radians.
    pub hpbw_rad: f64,
    /// Far-sidelobe floor, dBi.
    pub sidelobe_dbi: f64,
}

impl Horn {
    /// The AP horn from the paper: 20 dBi, ≈18° HPBW, −10 dBi floor.
    pub fn miwave_20dbi() -> Self {
        Self {
            peak_gain_dbi: 20.0,
            hpbw_rad: 18f64.to_radians(),
            sidelobe_dbi: -10.0,
        }
    }
}

impl Antenna for Horn {
    fn gain_dbi(&self, _freq_hz: f64, angle_rad: f64) -> f64 {
        // Gaussian main lobe: −3 dB at ±HPBW/2.
        let x = angle_rad / (self.hpbw_rad / 2.0);
        (self.peak_gain_dbi - 3.0 * x * x).max(self.sidelobe_dbi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horn_boresight_and_hpbw() {
        let h = Horn::miwave_20dbi();
        assert!((h.gain_dbi(28e9, 0.0) - 20.0).abs() < 1e-12);
        // −3 dB at half the beamwidth.
        assert!((h.gain_dbi(28e9, 9f64.to_radians()) - 17.0).abs() < 1e-9);
        let bw = h.beamwidth_rad(28e9);
        assert!((bw - 18f64.to_radians()).abs() < 0.01);
    }

    #[test]
    fn horn_sidelobe_floor() {
        let h = Horn::miwave_20dbi();
        assert_eq!(h.gain_dbi(28e9, 1.2), -10.0);
    }
}

//! Port operating modes and switching schedules.
//!
//! Each FSA port sits behind an SPDT switch that connects it either to the
//! ground plane (**reflective**: the beam retro-reflects the AP's signal)
//! or to an envelope detector (**absorptive**: the beam's energy is
//! delivered to the 50 Ω-matched detector and nothing reflects) — §4.

use serde::{Deserialize, Serialize};

/// The state of one FSA port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortMode {
    /// Port shorted to ground: incident energy at this beam reflects back.
    Reflective,
    /// Port terminated in the envelope detector: energy is absorbed and
    /// measured.
    Absorptive,
}

/// Joint state of the two ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PortStates {
    /// Port A state.
    pub a: PortMode,
    /// Port B state.
    pub b: PortMode,
}

impl PortStates {
    /// Both ports absorptive (downlink reception / node-side orientation).
    pub fn both_absorptive() -> Self {
        Self {
            a: PortMode::Absorptive,
            b: PortMode::Absorptive,
        }
    }

    /// Both ports reflective (strongest localization echo).
    pub fn both_reflective() -> Self {
        Self {
            a: PortMode::Reflective,
            b: PortMode::Reflective,
        }
    }

    /// The port states encoding an OAQFM uplink symbol: a present tone is
    /// *reflected* (§6.3 — reflect f_A to send the `1` in the A position).
    pub fn for_uplink_symbol(sym: mmwave_sigproc::OaqfmSymbol) -> Self {
        let refl = |on: bool| {
            if on {
                PortMode::Reflective
            } else {
                PortMode::Absorptive
            }
        };
        Self {
            a: refl(sym.tone_a),
            b: refl(sym.tone_b),
        }
    }
}

/// A square-wave toggling schedule for one port, e.g. the 10 kHz
/// reflective/absorptive modulation used during localization (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ToggleSchedule {
    /// Toggle rate: state changes per second (a full on/off cycle is two
    /// toggles).
    pub rate_hz: f64,
    /// State during the first half-period.
    pub initial: PortMode,
}

impl ToggleSchedule {
    /// Index of the first half-period boundary at or after `from_s`.
    #[cfg(feature = "std")]
    fn first_switch_index(&self, from_s: f64) -> i64 {
        assert!(self.rate_hz > 0.0, "toggle rate must be positive");
        let half_period = 1.0 / self.rate_hz;
        let mut k = (from_s / half_period).ceil() as i64;
        if (k as f64) * half_period < from_s {
            k += 1; // guard against ceil landing a tick early at representable boundaries
        }
        k
    }

    /// The switch instants in `[from_s, until_s)`, seconds — each the start
    /// of a new half-period. This is the schedule as *events*: an engine
    /// actor posts one timed event per instant instead of sampling
    /// the square wave on its own clock. The vector is pre-sized from
    /// [`Self::switch_count`] (this runs once per trial in the campaigns,
    /// so growth reallocations add up).
    ///
    /// # Panics
    /// Panics for a non-positive rate.
    #[cfg(feature = "std")]
    pub fn switch_times_s(&self, from_s: f64, until_s: f64) -> Vec<f64> {
        let half_period = 1.0 / self.rate_hz;
        let mut k = self.first_switch_index(from_s);
        let mut times = Vec::with_capacity(self.switch_count(from_s, until_s));
        loop {
            let t = (k as f64) * half_period;
            if t >= until_s {
                break;
            }
            times.push(t);
            k += 1;
        }
        times
    }

    /// How many switch instants fall in `[from_s, until_s)` — the count
    /// [`Self::switch_times_s`] would return, without materializing the
    /// vector. The energy-accounting path only needs this number (toggle
    /// count × per-toggle energy), and it also pre-sizes the event vector.
    ///
    /// # Panics
    /// Panics for a non-positive rate.
    #[cfg(feature = "std")]
    pub fn switch_count(&self, from_s: f64, until_s: f64) -> usize {
        let half_period = 1.0 / self.rate_hz;
        let first = self.first_switch_index(from_s);
        // Walk the same float recurrence as the enumeration so the count
        // always agrees with it exactly, even at representable boundaries.
        let mut k = first;
        while (k as f64) * half_period < until_s {
            k += 1;
        }
        (k - first).max(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_sigproc::OaqfmSymbol;

    /// The localization schedule: 10 kHz toggling starting reflective.
    fn schedule() -> ToggleSchedule {
        ToggleSchedule {
            rate_hz: 10e3,
            initial: PortMode::Reflective,
        }
    }

    #[test]
    fn uplink_symbol_mapping() {
        let s = PortStates::for_uplink_symbol(OaqfmSymbol::from_bits(0b10));
        assert_eq!(s.a, PortMode::Reflective);
        assert_eq!(s.b, PortMode::Absorptive);
        let s11 = PortStates::for_uplink_symbol(OaqfmSymbol::from_bits(0b11));
        assert_eq!(s11, PortStates::both_reflective());
        let s00 = PortStates::for_uplink_symbol(OaqfmSymbol::from_bits(0b00));
        assert_eq!(s00, PortStates::both_absorptive());
    }

    #[test]
    fn switch_times_enumerate_half_period_boundaries() {
        let t = schedule(); // half period 100 µs
        let times = t.switch_times_s(0.0, 450e-6);
        assert_eq!(times.len(), 5); // 0, 100, 200, 300, 400 µs
        assert!((times[0] - 0.0).abs() < 1e-15);
        assert!((times[1] - 100e-6).abs() < 1e-12);
        assert!((times[4] - 400e-6).abs() < 1e-12);
        // Empty and offset windows behave.
        assert!(t.switch_times_s(10e-6, 90e-6).is_empty());
        assert_eq!(t.switch_times_s(150e-6, 350e-6).len(), 2);
    }

    #[test]
    fn switch_count_agrees_with_enumeration() {
        let t = schedule();
        for (from, until) in [
            (0.0, 450e-6),
            (10e-6, 90e-6),
            (150e-6, 350e-6),
            (0.0, 0.0),
            (-250e-6, 250e-6),
            (0.0, 1.0),
            (1e-4, 1e-4 + 1e-9),
        ] {
            let times = t.switch_times_s(from, until);
            assert_eq!(
                t.switch_count(from, until),
                times.len(),
                "window [{from}, {until})"
            );
        }
    }
}

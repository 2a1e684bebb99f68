//! OAQFM carrier selection from the node's estimated orientation (§6.1).
//!
//! After orientation sensing, the AP knows the incidence angle ψ and looks
//! up the two frequencies that point the node's port-A and port-B beams back
//! at itself. Near normal incidence those frequencies coincide and the AP
//! falls back to single-carrier OOK (§6.2).

use crate::waveform::CarrierSet;
use mmwave_rf::antenna::fsa::DualPortFsa;
use serde::{Deserialize, Serialize};

/// Errors from carrier planning.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The node's orientation puts one or both beams outside the band.
    OrientationOutOfRange {
        /// The offending orientation, radians.
        orientation_rad: f64,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::OrientationOutOfRange { orientation_rad } => write!(
                f,
                "orientation {:.1}° outside the FSA scan range",
                orientation_rad.to_degrees()
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// Carrier planner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryPlanner {
    /// Below this |orientation| the two carriers are too close to separate
    /// at the node's detectors and the planner falls back to OOK, radians.
    pub ook_fallback_rad: f64,
    /// Minimum tone separation to run two-tone OAQFM, Hz. Tones closer
    /// than this land inside the same beam's bandwidth.
    pub min_tone_separation_hz: f64,
}

impl QueryPlanner {
    /// Defaults: fall back to OOK within ±1.5° of normal (≈ the carrier
    /// separation dropping below 150 MHz for the default FSA).
    pub fn milback_default() -> Self {
        Self {
            ook_fallback_rad: 1.5f64.to_radians(),
            min_tone_separation_hz: 150e6,
        }
    }

    /// Plans the carrier set for a node at estimated `orientation_rad`.
    pub fn plan(&self, fsa: &DualPortFsa, orientation_rad: f64) -> Result<CarrierSet, QueryError> {
        if orientation_rad.abs() < self.ook_fallback_rad {
            // Normal incidence: both beams share the normal frequency.
            return Ok(CarrierSet::SingleToneOok {
                f: fsa.design.normal_incidence_freq_hz(),
            });
        }
        let (f_a, f_b) = fsa
            .oaqfm_carriers(orientation_rad)
            .ok_or(QueryError::OrientationOutOfRange { orientation_rad })?;
        if (f_a - f_b).abs() < self.min_tone_separation_hz {
            return Ok(CarrierSet::SingleToneOok {
                f: fsa.design.normal_incidence_freq_hz(),
            });
        }
        Ok(CarrierSet::TwoTone { f_a, f_b })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_rf::antenna::fsa::FsaPort;

    /// The per-port gain, dBi, that a plan's carriers achieve at the true
    /// orientation — how much an orientation-estimate error costs (§9.3
    /// argues ≤3–4° is harmless because the beams are ~10° wide).
    fn plan_gain_dbi(
        fsa: &DualPortFsa,
        plan: &CarrierSet,
        true_orientation_rad: f64,
    ) -> (f64, f64) {
        let (f_a, f_b) = match *plan {
            CarrierSet::TwoTone { f_a, f_b } => (f_a, f_b),
            CarrierSet::SingleToneOok { f } => (f, f),
        };
        (
            fsa.gain_dbi(FsaPort::A, f_a, true_orientation_rad),
            fsa.gain_dbi(FsaPort::B, f_b, true_orientation_rad),
        )
    }

    fn setup() -> (QueryPlanner, DualPortFsa) {
        (
            QueryPlanner::milback_default(),
            DualPortFsa::milback_default(),
        )
    }

    #[test]
    fn off_normal_gets_two_tones() {
        let (p, fsa) = setup();
        let plan = p.plan(&fsa, 12f64.to_radians()).unwrap();
        match plan {
            CarrierSet::TwoTone { f_a, f_b } => {
                assert!(f_a != f_b);
                assert!((26.5e9..=29.5e9).contains(&f_a));
                assert!((26.5e9..=29.5e9).contains(&f_b));
            }
            other => panic!("expected two tones, got {other:?}"),
        }
    }

    #[test]
    fn normal_incidence_falls_back_to_ook() {
        let (p, fsa) = setup();
        let plan = p.plan(&fsa, 0.5f64.to_radians()).unwrap();
        assert!(matches!(plan, CarrierSet::SingleToneOok { .. }));
    }

    #[test]
    fn near_normal_separation_guard_triggers() {
        let (mut p, fsa) = setup();
        p.ook_fallback_rad = 0.0;
        p.min_tone_separation_hz = 1e9;
        // 2°: tones exist but are ~200 MHz apart < 1 GHz guard → OOK.
        let plan = p.plan(&fsa, 2f64.to_radians()).unwrap();
        assert!(matches!(plan, CarrierSet::SingleToneOok { .. }));
    }

    #[test]
    fn out_of_scan_orientation_errors() {
        let (p, fsa) = setup();
        let err = p.plan(&fsa, 45f64.to_radians()).unwrap_err();
        assert!(matches!(err, QueryError::OrientationOutOfRange { .. }));
        assert!(err.to_string().contains("scan range"));
    }

    #[test]
    fn planned_carriers_point_beams_at_ap() {
        let (p, fsa) = setup();
        let psi = 15f64.to_radians();
        let plan = p.plan(&fsa, psi).unwrap();
        let (ga, gb) = plan_gain_dbi(&fsa, &plan, psi);
        // Both within ~1 dB of the achievable peak at that angle.
        assert!(ga > 9.0, "port A only {ga:.1} dBi");
        assert!(gb > 9.0, "port B only {gb:.1} dBi");
    }

    #[test]
    fn small_orientation_error_costs_little_gain() {
        // §9.3: 3–4° of orientation error should not hurt communication
        // because the beams are ~10° wide.
        let (p, fsa) = setup();
        let true_psi = 15f64.to_radians();
        let est_psi = 18f64.to_radians(); // 3° estimation error
        let plan = p.plan(&fsa, est_psi).unwrap();
        let (ga, gb) = plan_gain_dbi(&fsa, &plan, true_psi);
        let ideal = p.plan(&fsa, true_psi).unwrap();
        let (ia, ib) = plan_gain_dbi(&fsa, &ideal, true_psi);
        assert!(ia - ga < 3.5, "port A loses {:.1} dB", ia - ga);
        assert!(ib - gb < 3.5, "port B loses {:.1} dB", ib - gb);
    }

    #[test]
    fn large_orientation_error_is_costly() {
        // Sanity check of the diagnostic: a 12° error points the beams away.
        let (p, fsa) = setup();
        let plan = p.plan(&fsa, 27f64.to_radians()).unwrap();
        let (ga, _) = plan_gain_dbi(&fsa, &plan, 15f64.to_radians());
        let ideal = p.plan(&fsa, 15f64.to_radians()).unwrap();
        let (ia, _) = plan_gain_dbi(&fsa, &ideal, 15f64.to_radians());
        assert!(ia - ga > 6.0, "only lost {:.1} dB", ia - ga);
    }
}

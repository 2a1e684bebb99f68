//! Free-space propagation at millimeter-wave frequencies: Friis link
//! budgets, the radar (two-way backscatter) equation, carrier phase over
//! distance, and FMCW beat-frequency geometry.
//!
//! mmWave signals "decay quickly with distance" (§4) — at 28 GHz the
//! one-way free-space path loss at 8 m is already ≈79.5 dB, which is why
//! every antenna in the system needs double-digit dBi gain.

use mmwave_sigproc::units::{lin_to_db, SPEED_OF_LIGHT};
use std::f64::consts::PI;

/// One-way free-space path loss in dB at `distance_m` / `freq_hz`.
///
/// # Panics
/// Panics for non-positive distance or frequency.
pub fn fspl_db(freq_hz: f64, distance_m: f64) -> f64 {
    assert!(
        freq_hz > 0.0 && distance_m > 0.0,
        "fspl needs positive arguments"
    );
    let lambda = SPEED_OF_LIGHT / freq_hz;
    lin_to_db((4.0 * PI * distance_m / lambda).powi(2))
}

/// Friis one-way received power (dBm) for a link budget in dB terms.
pub fn friis_dbm(
    tx_power_dbm: f64,
    tx_gain_dbi: f64,
    rx_gain_dbi: f64,
    freq_hz: f64,
    distance_m: f64,
) -> f64 {
    tx_power_dbm + tx_gain_dbi + rx_gain_dbi - fspl_db(freq_hz, distance_m)
}

/// Monostatic backscatter received power (dBm): the radar equation written
/// with the tag's round-trip gain product `G_rx·G_tx` and modulation
/// reflection coefficient folded into `tag_gain_product_db` /
/// `reflection_db`.
///
/// `P_rx = P_tx + G_ap_tx + G_ap_rx + G_tag_product + Γ² − 2·FSPL`.
pub fn backscatter_dbm(
    tx_power_dbm: f64,
    ap_tx_gain_dbi: f64,
    ap_rx_gain_dbi: f64,
    tag_gain_product_db: f64,
    reflection_db: f64,
    freq_hz: f64,
    distance_m: f64,
) -> f64 {
    tx_power_dbm + ap_tx_gain_dbi + ap_rx_gain_dbi + tag_gain_product_db + reflection_db
        - 2.0 * fspl_db(freq_hz, distance_m)
}

/// Radar-equation received power (dBm) from a clutter object of RCS
/// `sigma_m2` (walls, desks — the background the AP must subtract, §5.1).
pub fn radar_clutter_dbm(
    tx_power_dbm: f64,
    ap_tx_gain_dbi: f64,
    ap_rx_gain_dbi: f64,
    sigma_m2: f64,
    freq_hz: f64,
    distance_m: f64,
) -> f64 {
    assert!(sigma_m2 >= 0.0, "RCS cannot be negative");
    let lambda = SPEED_OF_LIGHT / freq_hz;
    let num = lambda * lambda * sigma_m2;
    let den = (4.0 * PI).powi(3) * distance_m.powi(4);
    tx_power_dbm + ap_tx_gain_dbi + ap_rx_gain_dbi + lin_to_db(num / den)
}

/// Round-trip propagation delay to an object at `distance_m`.
pub fn round_trip_delay_s(distance_m: f64) -> f64 {
    2.0 * distance_m / SPEED_OF_LIGHT
}

/// FMCW beat frequency for an object at `distance_m`, given the sweep slope
/// (Hz/s): `f_b = slope · 2d/c` (§2).
pub fn beat_frequency_hz(slope_hz_per_s: f64, distance_m: f64) -> f64 {
    slope_hz_per_s * round_trip_delay_s(distance_m)
}

/// Inverts a measured beat frequency back to range: `d = c·f_b/(2·slope)`.
pub fn range_from_beat_m(slope_hz_per_s: f64, beat_hz: f64) -> f64 {
    assert!(slope_hz_per_s > 0.0, "slope must be positive");
    SPEED_OF_LIGHT * beat_hz / (2.0 * slope_hz_per_s)
}

/// FMCW range resolution `c / 2B` for sweep bandwidth `B`.
pub fn range_resolution_m(bandwidth_hz: f64) -> f64 {
    SPEED_OF_LIGHT / (2.0 * bandwidth_hz)
}

/// Phase difference between two receive antennas separated by
/// `baseline_m`, for a plane wave from `angle_rad` off array broadside:
/// `Δφ = 2π·d·sin(θ)/λ` — the AP's AoA observable (§9.2).
pub fn aoa_phase_difference_rad(freq_hz: f64, baseline_m: f64, angle_rad: f64) -> f64 {
    2.0 * PI * baseline_m * angle_rad.sin() * freq_hz / SPEED_OF_LIGHT
}

/// Inverts a measured inter-antenna phase difference to an angle.
///
/// Returns `None` when the implied `sin θ` falls outside ±1 (phase noise
/// pushed it out of the unambiguous region).
pub fn angle_from_phase_rad(freq_hz: f64, baseline_m: f64, delta_phi_rad: f64) -> Option<f64> {
    let s = delta_phi_rad * SPEED_OF_LIGHT / (2.0 * PI * baseline_m * freq_hz);
    if s.abs() > 1.0 {
        None
    } else {
        Some(s.asin())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fspl_reference_at_28ghz() {
        // 1 m @ 28 GHz: 20log10(4π/0.010707) ≈ 61.4 dB.
        assert!((fspl_db(28e9, 1.0) - 61.39).abs() < 0.05);
        // 8 m adds 18.06 dB.
        assert!((fspl_db(28e9, 8.0) - 79.45).abs() < 0.05);
    }

    #[test]
    fn fspl_grows_6db_per_doubling() {
        let d1 = fspl_db(28e9, 2.0);
        let d2 = fspl_db(28e9, 4.0);
        assert!((d2 - d1 - 6.02).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "positive arguments")]
    fn fspl_rejects_zero_distance() {
        fspl_db(28e9, 0.0);
    }

    #[test]
    fn friis_budget_for_milback_downlink() {
        // 27 dBm + 20 dBi + 13 dBi − FSPL(8 m) ≈ −19.5 dBm at the node port.
        let p = friis_dbm(27.0, 20.0, 13.0, 28e9, 8.0);
        assert!((p - (-19.45)).abs() < 0.1, "got {p}");
    }

    #[test]
    fn backscatter_loses_twice_the_path() {
        let one_way = friis_dbm(27.0, 20.0, 13.0, 28e9, 4.0);
        let two_way = backscatter_dbm(27.0, 20.0, 20.0, 26.0, 0.0, 28e9, 4.0);
        // Doubling distance costs 6 dB one-way but 12 dB two-way.
        let one_way_8 = friis_dbm(27.0, 20.0, 13.0, 28e9, 8.0);
        let two_way_8 = backscatter_dbm(27.0, 20.0, 20.0, 26.0, 0.0, 28e9, 8.0);
        assert!(((one_way - one_way_8) - 6.02).abs() < 0.01);
        assert!(((two_way - two_way_8) - 12.04).abs() < 0.01);
    }

    #[test]
    fn clutter_stronger_than_tag_before_subtraction() {
        // A 1 m² wall at 3 m outshines the node's modulated echo at 3 m —
        // the reason background subtraction exists (§5.1).
        let wall = radar_clutter_dbm(27.0, 20.0, 20.0, 1.0, 28e9, 3.0);
        let node = backscatter_dbm(27.0, 20.0, 20.0, 26.0, -1.6, 28e9, 3.0);
        assert!(wall > node, "wall {wall:.1} dBm vs node {node:.1} dBm");
    }

    #[test]
    fn beat_frequency_roundtrip() {
        let slope = 3e9 / 18e-6; // Field-2 chirp
        for d in [0.5, 2.0, 5.0, 8.0] {
            let fb = beat_frequency_hz(slope, d);
            assert!((range_from_beat_m(slope, fb) - d).abs() < 1e-9);
        }
    }

    #[test]
    fn beat_frequency_reference() {
        // 5 m, slope 1.667e14 Hz/s → τ = 33.36 ns → f_b ≈ 5.56 MHz.
        let slope = 3e9 / 18e-6;
        let fb = beat_frequency_hz(slope, 5.0);
        assert!((fb - 5.559e6).abs() < 5e3, "fb {fb:.3e}");
    }

    #[test]
    fn range_resolution_for_3ghz_is_5cm() {
        assert!((range_resolution_m(3e9) - 0.04997).abs() < 1e-4);
    }

    #[test]
    fn aoa_phase_inverts_to_angle() {
        let f = 28e9;
        let d = 0.02; // 2 cm baseline
        for deg in [-40.0f64, -10.0, 0.0, 5.0, 35.0] {
            let ang = deg.to_radians();
            let phi = aoa_phase_difference_rad(f, d, ang);
            let rec = angle_from_phase_rad(f, d, phi).unwrap();
            assert!((rec - ang).abs() < 1e-12, "{deg}°");
        }
    }

    #[test]
    fn aoa_rejects_impossible_phase() {
        // λ/2 baseline: |Δφ| ≤ π is the valid region; 1.5π has no solution.
        let f = 28e9;
        let d = SPEED_OF_LIGHT / f / 2.0;
        assert!(angle_from_phase_rad(f, d, 1.5 * PI).is_none());
    }

    #[test]
    fn half_wave_baseline_is_unambiguous() {
        // With d = λ/2 the mapping covers ±90° with |Δφ| ≤ π.
        let f = 28e9;
        let d = SPEED_OF_LIGHT / f / 2.0;
        let phi = aoa_phase_difference_rad(f, d, PI / 2.0);
        assert!((phi - PI).abs() < 1e-9);
    }
}

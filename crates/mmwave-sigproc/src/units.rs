//! Unit conversions and physical constants used throughout the stack.
//!
//! RF work constantly moves between linear power, dB, dBm, volts across a
//! reference impedance, frequencies and wavelengths. Keeping the conversions
//! in one tested module avoids the classic factor-of-two (power vs amplitude)
//! dB bugs.

/// Speed of light in vacuum, m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Boltzmann constant, J/K.
pub(crate) const BOLTZMANN: f64 = 1.380_649e-23;

/// Standard noise-reference temperature, kelvin.
pub(crate) const T0_KELVIN: f64 = 290.0;

/// Converts a linear power ratio to decibels.
///
/// Returns `-inf` for a zero ratio, mirroring the mathematical limit.
#[inline]
pub fn lin_to_db(ratio: f64) -> f64 {
    10.0 * ratio.log10()
}

/// Converts decibels to a linear power ratio.
#[inline]
pub fn db_to_lin(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts power in watts to dBm.
#[inline]
pub fn watts_to_dbm(watts: f64) -> f64 {
    10.0 * (watts * 1e3).log10()
}

/// Converts dBm to power in watts.
#[inline]
pub fn dbm_to_watts(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0) * 1e-3
}

/// Free-space wavelength for a frequency in Hz.
#[inline]
pub fn wavelength(freq_hz: f64) -> f64 {
    SPEED_OF_LIGHT / freq_hz
}

/// Thermal noise power in watts over a bandwidth, with a noise figure in dB.
///
/// `P = k·T0·B·F`. This is the noise floor every receiver in the stack
/// compares signals against.
pub fn noise_power_watts(bandwidth_hz: f64, noise_figure_db: f64) -> f64 {
    BOLTZMANN * T0_KELVIN * bandwidth_hz * db_to_lin(noise_figure_db)
}

/// Thermal noise power in dBm over a bandwidth with a noise figure in dB.
pub fn noise_power_dbm(bandwidth_hz: f64, noise_figure_db: f64) -> f64 {
    watts_to_dbm(noise_power_watts(bandwidth_hz, noise_figure_db))
}

/// Wraps an angle in radians to `(-π, π]`.
pub fn wrap_angle(rad: f64) -> f64 {
    let two_pi = std::f64::consts::TAU;
    let mut a = rad % two_pi;
    if a <= -std::f64::consts::PI {
        a += two_pi;
    } else if a > std::f64::consts::PI {
        a -= two_pi;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn db_roundtrip() {
        for &db in &[-30.0, -3.0, 0.0, 3.0, 10.0, 27.0] {
            assert!(close(lin_to_db(db_to_lin(db)), db, 1e-12));
        }
    }

    #[test]
    fn three_db_is_factor_two() {
        assert!(close(db_to_lin(3.0103), 2.0, 1e-3));
        assert!(close(lin_to_db(2.0), 3.0103, 1e-3));
    }

    #[test]
    fn dbm_watts_roundtrip() {
        assert!(close(dbm_to_watts(0.0), 1e-3, 1e-15));
        assert!(close(dbm_to_watts(30.0), 1.0, 1e-12));
        assert!(close(watts_to_dbm(0.5), 26.9897, 1e-3));
    }

    #[test]
    fn paper_tx_power_is_half_watt() {
        // The MilBack AP transmits 27 dBm ≈ 0.5 W.
        assert!(close(dbm_to_watts(27.0), 0.501, 1e-3));
    }

    #[test]
    fn wavelength_at_28_ghz_is_about_one_cm() {
        let l = wavelength(28e9);
        assert!(close(l, 0.010707, 1e-5));
    }

    #[test]
    fn thermal_noise_reference() {
        // kT0 ≈ -174 dBm/Hz is the canonical RF noise-floor figure.
        assert!(close(noise_power_dbm(1.0, 0.0), -173.98, 0.01));
    }

    #[test]
    fn noise_power_scales_with_bandwidth_and_nf() {
        let a = noise_power_dbm(1e6, 0.0);
        let b = noise_power_dbm(1e9, 0.0);
        // 1 MHz → 1 GHz is 30 dB more noise.
        assert!(close(b - a, 30.0, 1e-9));
        let c = noise_power_dbm(1e6, 5.0);
        assert!(close(c - a, 5.0, 1e-9));
        // -174 + 60 = -114 dBm in 1 MHz.
        assert!(close(a, -113.98, 0.02));
    }

    #[test]
    fn angle_wrap() {
        use std::f64::consts::PI;
        assert!(close(wrap_angle(3.0 * PI), PI, 1e-12));
        assert!(close(wrap_angle(-3.0 * PI), PI, 1e-12));
        assert!(close(wrap_angle(0.5), 0.5, 1e-15));
        assert!(close(wrap_angle(2.0 * PI + 0.25), 0.25, 1e-12));
        assert!(wrap_angle(123.456).abs() <= PI + 1e-12);
    }
}

//! Van Atta retro-reflective arrays — the beam-alignment solution used by
//! the mmTag \[35\] and Millimetro \[45\] baselines (§4).
//!
//! A Van Atta array connects antenna pairs symmetric about the array center
//! with equal-length transmission lines. A plane wave arriving from angle θ
//! is re-radiated coherently back toward θ regardless of θ (within the
//! element pattern), with the full array gain in both the receive and the
//! re-transmit direction. This makes it ideal for uplink-only backscatter —
//! but, as §4 explains, the structure has **no signal port**: the energy
//! lives inside the pair-connecting traces, so there is nowhere to attach a
//! receiver, which is why MilBack had to move to an FSA to get a downlink.

use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// A Van Atta retro-reflector array.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VanAttaArray {
    /// Number of elements (must be even — elements are paired).
    pub elements: usize,
    /// Per-element boresight gain, dBi.
    pub element_gain_dbi: f64,
    /// Element-pattern exponent (`cos^q` power pattern).
    pub element_exponent: f64,
    /// Ohmic / trace loss of the pair-connecting lines, dB (positive).
    pub trace_loss_db: f64,
}

impl VanAttaArray {
    /// An 8-element mmTag-class array.
    ///
    /// # Panics
    /// Panics if `elements` is zero or odd.
    pub fn new(elements: usize) -> Self {
        assert!(
            elements >= 2 && elements.is_multiple_of(2),
            "Van Atta pairs need an even count"
        );
        Self {
            elements,
            element_gain_dbi: 5.0,
            element_exponent: 1.0,
            trace_loss_db: 1.0,
        }
    }

    /// Per-element linear gain toward incidence angle θ.
    fn element_gain_linear(&self, angle_rad: f64) -> f64 {
        if angle_rad.abs() >= PI / 2.0 {
            return 1e-4;
        }
        10f64.powf(self.element_gain_dbi / 10.0)
            * angle_rad.cos().powf(self.element_exponent).max(1e-6)
    }

    /// The retro-directive round-trip gain product `G_rx·G_tx` (linear) for
    /// a monostatic interrogator at incidence `angle_rad`.
    ///
    /// For an N-element Van Atta the received wave is re-radiated coherently
    /// back toward its arrival direction, so the product is
    /// `(N · g_elem(θ))²` less trace losses — *independent of θ* within the
    /// element pattern. That flatness over angle is the property that lets
    /// mmTag/Millimetro skip beam alignment entirely.
    pub fn retro_gain_product_linear(&self, angle_rad: f64) -> f64 {
        let g = self.elements as f64 * self.element_gain_linear(angle_rad);
        g * g * 10f64.powf(-self.trace_loss_db / 10.0)
    }

    /// Monostatic radar cross-section (m²) presented to an interrogator at
    /// `freq_hz` / `angle_rad`: `σ = G_rx·G_tx·λ²/4π`.
    pub fn rcs_m2(&self, freq_hz: f64, angle_rad: f64) -> f64 {
        let lambda = mmwave_sigproc::units::wavelength(freq_hz);
        self.retro_gain_product_linear(angle_rad) * lambda * lambda / (4.0 * PI)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round-trip retro gain product in dB.
    fn product_db(v: &VanAttaArray, angle_rad: f64) -> f64 {
        10.0 * v.retro_gain_product_linear(angle_rad).log10()
    }

    #[test]
    fn retro_gain_is_flat_across_wide_angles() {
        // The defining Van Atta property: within the element pattern the
        // round-trip gain barely changes with incidence angle.
        let v = VanAttaArray::new(8);
        let g0 = product_db(&v, 0.0);
        let g30 = product_db(&v, 30f64.to_radians());
        let g45 = product_db(&v, 45f64.to_radians());
        assert!(g0 - g30 < 1.5, "30° droop {:.2} dB", g0 - g30);
        assert!(g0 - g45 < 3.5, "45° droop {:.2} dB", g0 - g45);
    }

    #[test]
    fn retro_gain_scales_with_n_squared() {
        let v4 = VanAttaArray::new(4);
        let v8 = VanAttaArray::new(8);
        let diff = product_db(&v8, 0.0) - product_db(&v4, 0.0);
        // N doubling → (N²)² in product? No: product is (N·g)², so 2× N
        // gives +6 dB... in *each* direction → +12? (2N·g)²/(N·g)² = 4 → 6 dB.
        assert!((diff - 6.02).abs() < 0.1, "diff {diff}");
    }

    #[test]
    fn boresight_product_reference_value() {
        // 8 elements × 5 dBi: G_one_way = 10log10(8) + 5 = 14 dBi;
        // product = 28 dB − 1 dB trace loss = 27 dB.
        let v = VanAttaArray::new(8);
        assert!((product_db(&v, 0.0) - 27.06).abs() < 0.1);
    }

    #[test]
    fn rcs_reference_value() {
        let v = VanAttaArray::new(8);
        let rcs = v.rcs_m2(28e9, 0.0);
        // σ = 10^2.706 · (0.010707)² / 4π ≈ 4.6e-3 m².
        assert!((rcs - 4.63e-3).abs() / 4.63e-3 < 0.05, "rcs {rcs:.3e}");
    }

    #[test]
    fn behind_ground_plane_is_tiny() {
        let v = VanAttaArray::new(8);
        assert!(product_db(&v, 1.6) < product_db(&v, 0.0) - 30.0);
    }

    #[test]
    #[should_panic(expected = "even count")]
    fn rejects_odd_element_count() {
        VanAttaArray::new(7);
    }
}

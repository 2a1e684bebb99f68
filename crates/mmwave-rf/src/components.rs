//! Behavioral models of the off-the-shelf RF components in the MilBack
//! prototype (§8): power amplifier, SPDT switch, envelope detector and the
//! MCU's ADC.
//!
//! Each model captures only the behaviour the system actually depends on —
//! gain/loss, noise contribution, compression, switching speed, detector
//! dynamics and quantization — with datasheet-derived defaults.

use mmwave_sigproc::filter::RcFilter;
use mmwave_sigproc::units::{db_to_lin, dbm_to_watts, watts_to_dbm};
use serde::{Deserialize, Serialize};

/// A gain stage (PA or LNA) with noise figure and output compression.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Amplifier {
    /// Small-signal power gain, dB.
    pub gain_db: f64,
    /// Noise figure, dB.
    pub noise_figure_db: f64,
    /// Output 1 dB compression point, dBm.
    pub output_p1db_dbm: f64,
}

impl Amplifier {
    /// ADPA7005-class mmWave power amplifier (paper's TX PA).
    pub fn adpa7005_pa() -> Self {
        Self {
            gain_db: 21.0,
            noise_figure_db: 6.0,
            output_p1db_dbm: 28.0,
        }
    }

    /// Output power (dBm) for a given input power (dBm), with soft
    /// saturation above the compression point.
    pub fn amplify_dbm(&self, input_dbm: f64) -> f64 {
        let linear_out = input_dbm + self.gain_db;
        if linear_out <= self.output_p1db_dbm - 10.0 {
            return linear_out;
        }
        // Rapp-style soft limiter (smoothness p = 2), saturation ≈ P1dB + 2.
        let sat = dbm_to_watts(self.output_p1db_dbm + 2.0);
        let pin = dbm_to_watts(linear_out);
        watts_to_dbm(pin / (1.0 + (pin / sat).powi(2)).sqrt())
    }
}

/// The node's SPDT RF switch (ADRF5020-class).
///
/// The switch connects an FSA port either to the ground plane (reflective
/// mode) or to the envelope detector (absorptive mode). Its toggle-rate
/// limit is what caps MilBack's uplink at 160 Mbps (§9.5), and its dynamic
/// energy dominates the node's uplink power (§9.6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpdtSwitch {
    /// Insertion loss through the selected path, dB (positive).
    pub insertion_loss_db: f64,
    /// Isolation to the unselected path, dB (positive).
    pub isolation_db: f64,
    /// Maximum toggle rate, Hz (reciprocal of settling time).
    pub max_toggle_hz: f64,
    /// Static bias power, watts.
    pub static_power_w: f64,
    /// Energy per state transition, joules.
    pub toggle_energy_j: f64,
}

impl SpdtSwitch {
    /// ADRF5020-class defaults. The energy/static terms are calibrated so
    /// that two switches plus two detectors reproduce the paper's node
    /// power: 18 mW at the 10 kHz localization/downlink toggle rates and
    /// 32 mW at uplink rates (§9.6).
    pub fn adrf5020() -> Self {
        Self {
            insertion_loss_db: 0.8,
            isolation_db: 38.0,
            max_toggle_hz: 160e6,
            static_power_w: 7.4e-3,
            toggle_energy_j: 4.375e-11,
        }
    }

    /// Amplitude reflection coefficient of a port in reflective mode
    /// (short-circuit behind one insertion loss each way).
    pub fn reflective_gamma(&self) -> f64 {
        db_to_lin(-2.0 * self.insertion_loss_db).sqrt()
    }

    /// Residual amplitude reflection in absorptive mode (detector is
    /// matched, but not perfectly — modeled as 15 dB return loss).
    pub fn absorptive_gamma(&self) -> f64 {
        db_to_lin(-15.0).sqrt()
    }

    /// Whether the switch can sustain `rate_hz` toggles per second.
    pub fn supports_rate(&self, rate_hz: f64) -> bool {
        rate_hz <= self.max_toggle_hz
    }

    /// Average power when toggling at `rate_hz` (static + dynamic).
    ///
    /// # Panics
    /// Panics if asked for a rate beyond `max_toggle_hz`.
    pub fn power_at_rate_w(&self, rate_hz: f64) -> f64 {
        assert!(
            self.supports_rate(rate_hz),
            "switch cannot toggle at {rate_hz} Hz (max {})",
            self.max_toggle_hz
        );
        self.static_power_w + self.toggle_energy_j * rate_hz
    }
}

/// Square-law envelope (power) detector, ADL6010-class.
///
/// Output voltage is proportional to input RF power in its square-law
/// region, then compresses; the output stage is a first-order RC whose rise
/// time caps the downlink symbol rate at ~36 Mbps (§9.4). Input is 50 Ω
/// matched — which is exactly why connecting it to an FSA port makes the
/// port absorptive (§4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvelopeDetector {
    /// Responsivity in volts per watt of RF input (square-law region).
    pub responsivity_v_per_w: f64,
    /// Input power at which the response starts compressing, watts.
    pub compression_w: f64,
    /// 10–90% output rise time, seconds.
    pub rise_time_s: f64,
    /// Output-referred noise voltage density, V/√Hz.
    pub noise_v_per_rthz: f64,
    /// Input impedance, ohms.
    pub input_ohms: f64,
    /// Bias power, watts.
    pub bias_power_w: f64,
}

impl EnvelopeDetector {
    /// ADL6010-class defaults (noise density calibrated so the Fig 14
    /// downlink SINR hits ≈12 dB at 10 m at the 18 Msym/s decision
    /// bandwidth).
    pub fn adl6010() -> Self {
        Self {
            responsivity_v_per_w: 1500.0,
            compression_w: 5e-3,
            rise_time_s: 12e-9,
            noise_v_per_rthz: 2.2e-7,
            input_ohms: 50.0,
            bias_power_w: 1.6e-3,
        }
    }

    /// Instantaneous (static) output voltage for an RF input power in watts.
    pub fn detect_v(&self, power_w: f64) -> f64 {
        assert!(power_w >= 0.0, "power cannot be negative");
        // Smooth compression: V = R·P / (1 + P/Pc).
        self.responsivity_v_per_w * power_w / (1.0 + power_w / self.compression_w)
    }

    /// RMS output noise voltage over a video bandwidth.
    pub fn output_noise_v(&self, video_bandwidth_hz: f64) -> f64 {
        self.noise_v_per_rthz * video_bandwidth_hz.sqrt()
    }

    /// An [`RcFilter`] modeling the output dynamics at sample interval `dt`.
    pub(crate) fn video_filter(&self, dt_s: f64) -> RcFilter {
        RcFilter::from_rise_time(self.rise_time_s, dt_s)
    }

    /// Maximum OOK symbol rate the detector can follow, defined as the rate
    /// at which one symbol period equals rise + fall time.
    pub fn max_symbol_rate_hz(&self) -> f64 {
        1.0 / (2.0 * self.rise_time_s)
    }

    /// Traces the detector output over time for a piecewise-constant input
    /// power sequence sampled at `dt` (applies square law then RC dynamics).
    pub fn trace(&self, power_w: &[f64], dt_s: f64) -> Vec<f64> {
        let mut out = Vec::with_capacity(power_w.len());
        self.trace_into(power_w, dt_s, &mut out);
        out
    }

    /// [`Self::trace`] into a caller-owned buffer (cleared first), so a hot
    /// loop holding the buffer performs no heap allocation past the
    /// high-water mark. Values are identical to [`Self::trace`].
    pub fn trace_into(&self, power_w: &[f64], dt_s: f64, out: &mut Vec<f64>) {
        let mut rc = self.video_filter(dt_s);
        out.clear();
        out.extend(power_w.iter().map(|&p| rc.step(self.detect_v(p))));
    }
}

/// An N-bit sampling ADC, as on the node's MCU (§8: ~1 MS/s on the
/// MSP430-class controller).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Adc {
    /// Sample rate, Hz.
    pub sample_rate_hz: f64,
    /// Resolution in bits.
    pub bits: u32,
    /// Full-scale input voltage.
    pub vref: f64,
}

impl Adc {
    /// The MSP430FR6989's 12-bit, 1 MS/s ADC with a 1.2 V reference scaled
    /// for detector output levels.
    pub fn msp430() -> Self {
        Self {
            sample_rate_hz: 1e6,
            bits: 12,
            vref: 1.2,
        }
    }

    /// Quantizes one voltage to the nearest code's voltage (clamping to the
    /// input range).
    pub(crate) fn quantize(&self, v: f64) -> f64 {
        let levels = (1u64 << self.bits) as f64 - 1.0;
        let clamped = v.clamp(0.0, self.vref);
        (clamped / self.vref * levels).round() / levels * self.vref
    }

    /// Resamples a densely-sampled trace (at `input_rate_hz`) down to the
    /// ADC rate with quantization. Uses nearest-sample decimation, like a
    /// real sample-and-hold.
    ///
    /// # Panics
    /// Panics if the input rate is below the ADC rate.
    pub fn sample_trace(&self, trace: &[f64], input_rate_hz: f64) -> Vec<f64> {
        let mut out = Vec::new();
        self.sample_trace_into(trace, input_rate_hz, &mut out);
        out
    }

    /// [`Self::sample_trace`] into a caller-owned buffer (cleared first) —
    /// the allocation-free form for per-trial loops. Values are identical
    /// to [`Self::sample_trace`].
    ///
    /// # Panics
    /// Panics if the input rate is below the ADC rate.
    pub(crate) fn sample_trace_into(&self, trace: &[f64], input_rate_hz: f64, out: &mut Vec<f64>) {
        assert!(
            input_rate_hz >= self.sample_rate_hz,
            "cannot upsample: input {input_rate_hz} < ADC {}",
            self.sample_rate_hz
        );
        let step = input_rate_hz / self.sample_rate_hz;
        let n_out = (trace.len() as f64 / step).floor() as usize;
        out.clear();
        out.extend((0..n_out).map(|i| self.quantize(trace[(i as f64 * step).round() as usize])));
    }

    /// Quantization step (one LSB) in volts.
    pub fn lsb_v(&self) -> f64 {
        self.vref / ((1u64 << self.bits) as f64 - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplifier_linear_region() {
        let pa = Amplifier::adpa7005_pa();
        assert!((pa.amplify_dbm(-60.0) - (-39.0)).abs() < 1e-9);
    }

    #[test]
    fn amplifier_compresses_near_p1db() {
        let pa = Amplifier::adpa7005_pa();
        // Well above compression the output flattens near saturation.
        let out_hi = pa.amplify_dbm(20.0);
        let out_higher = pa.amplify_dbm(30.0);
        assert!(out_hi <= pa.output_p1db_dbm + 2.5);
        assert!(out_higher - out_hi < 1.0, "should be saturated");
    }

    #[test]
    fn amplifier_monotone() {
        let pa = Amplifier::adpa7005_pa();
        let mut prev = f64::MIN;
        for i in -40..30 {
            let out = pa.amplify_dbm(i as f64);
            assert!(out > prev);
            prev = out;
        }
    }

    #[test]
    fn switch_reflective_gamma_below_unity() {
        let s = SpdtSwitch::adrf5020();
        let g = s.reflective_gamma();
        assert!(g < 1.0 && g > 0.7, "gamma {g}");
        // 0.8 dB each way = 1.6 dB round trip → |Γ| = 10^(-1.6/20) ≈ 0.832.
        assert!((g - 0.832).abs() < 0.01);
    }

    #[test]
    fn switch_absorptive_gamma_is_small() {
        let s = SpdtSwitch::adrf5020();
        assert!(s.absorptive_gamma() < 0.2);
    }

    #[test]
    fn switch_rate_limit_is_160_mbps() {
        // §9.5: "the maximum uplink data rate ... is 160 Mbps. This rate is
        // limited by switching speed of the node's switches."
        let s = SpdtSwitch::adrf5020();
        assert!(s.supports_rate(160e6));
        assert!(!s.supports_rate(161e6));
    }

    #[test]
    #[should_panic(expected = "cannot toggle")]
    fn switch_power_rejects_excess_rate() {
        SpdtSwitch::adrf5020().power_at_rate_w(1e9);
    }

    #[test]
    fn switch_power_grows_with_rate() {
        let s = SpdtSwitch::adrf5020();
        assert!(s.power_at_rate_w(40e6) > s.power_at_rate_w(10e3));
    }

    #[test]
    fn node_power_targets_from_paper() {
        // Two switches + two detectors: ≈18 mW at 10 kHz (localization /
        // downlink), ≈32 mW at 160 MHz toggling (uplink). §9.6.
        let s = SpdtSwitch::adrf5020();
        let d = EnvelopeDetector::adl6010();
        let low = 2.0 * s.power_at_rate_w(10e3) + 2.0 * d.bias_power_w;
        let high = 2.0 * s.power_at_rate_w(160e6) + 2.0 * d.bias_power_w;
        assert!(
            (low - 18e-3).abs() < 0.5e-3,
            "low-rate power {:.1} mW",
            low * 1e3
        );
        assert!(
            (high - 32e-3).abs() < 0.5e-3,
            "uplink power {:.1} mW",
            high * 1e3
        );
    }

    #[test]
    fn detector_square_law_region_is_linear_in_power() {
        let d = EnvelopeDetector::adl6010();
        let v1 = d.detect_v(1e-6);
        let v2 = d.detect_v(2e-6);
        assert!((v2 / v1 - 2.0).abs() < 0.01, "square law violated");
    }

    #[test]
    fn detector_compresses_at_high_power() {
        let d = EnvelopeDetector::adl6010();
        let v1 = d.detect_v(5e-3);
        let v2 = d.detect_v(10e-3);
        assert!(v2 / v1 < 1.6, "should compress");
    }

    #[test]
    fn detector_output_reference_level() {
        // −20 dBm (10 µW) → ≈15 mV in the square-law region.
        let d = EnvelopeDetector::adl6010();
        let v = d.detect_v(1e-5);
        assert!((v - 0.015).abs() < 0.001, "got {v}");
    }

    #[test]
    fn detector_max_rate_matches_paper_downlink_limit() {
        // §9.4: max downlink ≈36 Mbps limited by detector rise/fall time.
        let d = EnvelopeDetector::adl6010();
        let r = d.max_symbol_rate_hz();
        assert!((r - 41.7e6).abs() < 1e6, "rate {r:.3e}");
        // 36 Mbps (2 bits/symbol at 18 Msym/s) fits; 100 Mbps does not.
        assert!(r > 18e6);
        assert!(r < 50e6);
    }

    #[test]
    fn detector_trace_follows_steps_with_lag() {
        let d = EnvelopeDetector::adl6010();
        let dt = 1e-9;
        // 100 ns on, 100 ns off at −20 dBm.
        let mut p = vec![1e-5; 100];
        p.extend(vec![0.0; 100]);
        let v = d.trace(&p, dt);
        let v_on = d.detect_v(1e-5);
        // Settles to the static value by the end of the on period...
        assert!((v[99] - v_on).abs() / v_on < 0.02);
        // ...but is still rising shortly after the edge.
        assert!(v[5] < 0.9 * v_on);
        // And decays toward zero in the off period.
        assert!(v[199] < 0.02 * v_on);
    }

    #[test]
    fn detector_noise_scales_with_sqrt_bandwidth() {
        let d = EnvelopeDetector::adl6010();
        let n1 = d.output_noise_v(1e6);
        let n2 = d.output_noise_v(4e6);
        assert!((n2 / n1 - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power cannot be negative")]
    fn detector_rejects_negative_power() {
        EnvelopeDetector::adl6010().detect_v(-1.0);
    }

    #[test]
    fn adc_quantizes_to_lsb_grid() {
        let adc = Adc::msp430();
        let q = adc.quantize(0.6);
        assert!((q - 0.6).abs() <= adc.lsb_v() / 2.0 + 1e-12);
        // Idempotent.
        assert_eq!(adc.quantize(q), q);
    }

    #[test]
    fn adc_clamps_out_of_range() {
        let adc = Adc::msp430();
        assert_eq!(adc.quantize(5.0), adc.vref);
        assert_eq!(adc.quantize(-1.0), 0.0);
    }

    #[test]
    fn adc_decimates_to_sample_rate() {
        let adc = Adc::msp430();
        // 10 MS/s input for 100 µs = 1000 samples → 100 ADC samples.
        let trace: Vec<f64> = (0..1000).map(|i| (i as f64 / 1000.0) * 0.5).collect();
        let out = adc.sample_trace(&trace, 10e6);
        assert_eq!(out.len(), 100);
        // Monotone ramp stays monotone.
        for w in out.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    #[should_panic(expected = "cannot upsample")]
    fn adc_rejects_upsampling() {
        Adc::msp430().sample_trace(&[0.0; 10], 1e3);
    }
}

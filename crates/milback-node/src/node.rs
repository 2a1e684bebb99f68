//! The MilBack backscatter node: a dual-port FSA, two SPDT switches, two
//! envelope detectors and an MCU ADC (Fig 4).
//!
//! The node contains **no** mmWave actives — no amplifier, mixer,
//! oscillator or phased array. Everything it does reduces to (a) choosing
//! each port's switch position and (b) reading the two detector voltages.

use crate::mode::PortMode;
use mmwave_rf::antenna::fsa::{DualPortFsa, FsaGainEval, FsaPort};
use mmwave_rf::components::{Adc, EnvelopeDetector, SpdtSwitch};
use mmwave_sigproc::random::GaussianSource;
use serde::{Deserialize, Serialize};

/// Hardware description of a MilBack node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeHardware {
    /// The passive dual-port FSA.
    pub fsa: DualPortFsa,
    /// Switch behind port A.
    pub switch_a: SpdtSwitch,
    /// Switch behind port B.
    pub switch_b: SpdtSwitch,
    /// Envelope detector on port A.
    pub detector_a: EnvelopeDetector,
    /// Envelope detector on port B.
    pub detector_b: EnvelopeDetector,
    /// The MCU's ADC (shared, sampling both detector outputs).
    pub adc: Adc,
}

impl NodeHardware {
    /// The paper's prototype: default FSA, ADRF5020 switches, ADL6010
    /// detectors, MSP430-class ADC (§8).
    pub fn milback_default() -> Self {
        Self {
            fsa: DualPortFsa::milback_default(),
            switch_a: SpdtSwitch::adrf5020(),
            switch_b: SpdtSwitch::adrf5020(),
            detector_a: EnvelopeDetector::adl6010(),
            detector_b: EnvelopeDetector::adl6010(),
            adc: Adc::msp430(),
        }
    }

    /// The switch serving a port.
    pub fn switch(&self, port: FsaPort) -> &SpdtSwitch {
        match port {
            FsaPort::A => &self.switch_a,
            FsaPort::B => &self.switch_b,
        }
    }

    /// The detector serving a port.
    pub fn detector(&self, port: FsaPort) -> &EnvelopeDetector {
        match port {
            FsaPort::A => &self.detector_a,
            FsaPort::B => &self.detector_b,
        }
    }

    /// Amplitude reflection coefficient presented by a port in a mode.
    ///
    /// Reflective: short circuit behind the switch's round-trip insertion
    /// loss. Absorptive: the detector's residual mismatch only.
    pub fn reflection_amplitude(&self, port: FsaPort, mode: PortMode) -> f64 {
        let sw = self.switch(port);
        match mode {
            PortMode::Reflective => sw.reflective_gamma(),
            PortMode::Absorptive => sw.absorptive_gamma(),
        }
    }

    /// Differential reflection amplitude between the two modes — the
    /// backscatter *modulation depth* that sets uplink signal strength.
    pub fn modulation_depth(&self, port: FsaPort) -> f64 {
        self.reflection_amplitude(port, PortMode::Reflective)
            - self.reflection_amplitude(port, PortMode::Absorptive)
    }

    /// Fraction of incident power delivered to the detector in absorptive
    /// mode (through the switch's insertion loss, minus the mismatch
    /// residual).
    pub fn absorption_efficiency(&self, port: FsaPort) -> f64 {
        let sw = self.switch(port);
        let through = 10f64.powf(-sw.insertion_loss_db / 10.0);
        let gamma = sw.absorptive_gamma();
        through * (1.0 - gamma * gamma)
    }

    /// Simulates the detector voltage traces for both ports given the RF
    /// power (watts) arriving at each port over time at `sample_rate_hz`.
    ///
    /// Applies the switch insertion path, the detector square law and RC
    /// dynamics, and adds detector output noise appropriate for the trace
    /// bandwidth (one-sided, up to Nyquist).
    ///
    /// # Panics
    /// Panics if the traces differ in length.
    pub fn detector_traces(
        &self,
        power_a_w: &[f64],
        power_b_w: &[f64],
        sample_rate_hz: f64,
        noise: &mut GaussianSource,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut scratch = NodeScratch::new();
        let mut va = Vec::new();
        let mut vb = Vec::new();
        self.detector_traces_into(
            power_a_w,
            power_b_w,
            sample_rate_hz,
            noise,
            &mut scratch,
            &mut va,
            &mut vb,
        );
        (va, vb)
    }

    /// [`Self::detector_traces`] into caller-owned buffers, using a
    /// [`NodeScratch`] for the intermediate scaled-power trace — the
    /// allocation-free form for per-trial hot loops. Noise draws happen in
    /// the same order (port A fully, then port B), so results are
    /// bit-identical to the allocating path for the same RNG state.
    ///
    /// # Panics
    /// Panics if the traces differ in length.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn detector_traces_into(
        &self,
        power_a_w: &[f64],
        power_b_w: &[f64],
        sample_rate_hz: f64,
        noise: &mut GaussianSource,
        scratch: &mut NodeScratch,
        va: &mut Vec<f64>,
        vb: &mut Vec<f64>,
    ) {
        assert_eq!(
            power_a_w.len(),
            power_b_w.len(),
            "port traces differ in length"
        );
        let dt = 1.0 / sample_rate_hz;
        let eff_a = self.absorption_efficiency(FsaPort::A);
        let eff_b = self.absorption_efficiency(FsaPort::B);
        scratch.scaled.clear();
        scratch.scaled.extend(power_a_w.iter().map(|p| p * eff_a));
        self.detector_a.trace_into(&scratch.scaled, dt, va);
        scratch.scaled.clear();
        scratch.scaled.extend(power_b_w.iter().map(|p| p * eff_b));
        self.detector_b.trace_into(&scratch.scaled, dt, vb);
        let bw = sample_rate_hz / 2.0;
        let na = self.detector_a.output_noise_v(bw);
        let nb = self.detector_b.output_noise_v(bw);
        noise.add_real_noise(va, na * na);
        noise.add_real_noise(vb, nb * nb);
    }

    /// Samples a dense detector trace with the MCU ADC (decimation +
    /// quantization), as the firmware would see it.
    pub fn mcu_sample(&self, trace: &[f64], trace_rate_hz: f64) -> Vec<f64> {
        self.adc.sample_trace(trace, trace_rate_hz)
    }
}

/// Reusable buffers for the node's trace-synthesis hot path.
///
/// The per-call `Vec` churn of [`NodeHardware::detector_traces`] (the
/// scaled per-port power traces) moves here: one `NodeScratch` per worker
/// plus the `*_into` entry points make the steady state allocation-free,
/// with results bit-identical to the allocating paths.
#[derive(Debug, Default)]
pub(crate) struct NodeScratch {
    /// Scaled per-port power trace (reused for both ports in turn).
    scaled: Vec<f64>,
}

impl NodeScratch {
    /// An empty workspace; buffers grow lazily to the trace high-water mark.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-port RF powers delivered to the node (the channel's output, the
/// node's input), at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PortPowers {
    /// RF power arriving at port A, watts.
    pub a_w: f64,
    /// RF power arriving at port B, watts.
    pub b_w: f64,
}

/// Computes the per-port received powers for a set of incident tones.
///
/// Each tone contributes through the dual-port coupling model (own-beam
/// gain plus sidelobe/feed leakage into the other port). `tone` entries are
/// `(freq_hz, incident_power_w)` where `incident_power_w` is the power an
/// isotropic antenna would capture at the node's location (i.e. TX EIRP ×
/// path loss × λ²/4π absorbed into the caller's budget).
///
/// The coupling comes from a memoizing [`FsaGainEval`] (built with
/// [`FsaGainEval::for_dual`]), bit-exact with
/// [`DualPortFsa::port_coupling_linear`]: repeated `(freq, incidence)`
/// queries — per-symbol downlink coupling, dense orientation traces re-run
/// across trials — hit the cache instead of re-evaluating the array factor.
pub fn port_powers_for_tones_eval(
    eval: &FsaGainEval,
    incidence_rad: f64,
    tones: &[(f64, f64)],
) -> PortPowers {
    let mut p = PortPowers::default();
    for &(f, pw) in tones {
        let (ca, cb) = eval.port_coupling_linear(f, incidence_rad);
        p.a_w += pw * ca;
        p.b_w += pw * cb;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The uncached coupling sum: the oracle the memoized path must match.
    fn port_powers_for_tones(
        fsa: &DualPortFsa,
        incidence_rad: f64,
        tones: &[(f64, f64)],
    ) -> PortPowers {
        let mut p = PortPowers::default();
        for &(f, pw) in tones {
            let (ca, cb) = fsa.port_coupling_linear(f, incidence_rad);
            p.a_w += pw * ca;
            p.b_w += pw * cb;
        }
        p
    }

    fn node() -> NodeHardware {
        NodeHardware::milback_default()
    }

    #[test]
    fn reflection_amplitudes_ordered() {
        let n = node();
        let r = n.reflection_amplitude(FsaPort::A, PortMode::Reflective);
        let a = n.reflection_amplitude(FsaPort::A, PortMode::Absorptive);
        assert!(r > 0.8 && a < 0.2 && r > a);
    }

    #[test]
    fn modulation_depth_is_strong() {
        let n = node();
        assert!(n.modulation_depth(FsaPort::A) > 0.6);
    }

    #[test]
    fn absorption_efficiency_below_unity() {
        let n = node();
        let e = n.absorption_efficiency(FsaPort::B);
        assert!(e > 0.7 && e < 1.0, "efficiency {e}");
    }

    #[test]
    fn detector_traces_resolve_onoff_keying() {
        let n = node();
        // 20 MS/s keeps the detector-noise bandwidth at the decision scale.
        let fs = 20e6;
        // 10 µs on, 10 µs off at 10 µW arriving at port A only.
        let mut pa = vec![10e-6; 200];
        pa.extend(vec![0.0; 200]);
        let pb = vec![0.0; 400];
        let mut rng = GaussianSource::new(1);
        let (va, vb) = n.detector_traces(&pa, &pb, fs, &mut rng);
        let on = mmwave_sigproc::stats::mean(&va[100..200]);
        let off = mmwave_sigproc::stats::mean(&va[300..400]);
        assert!(on > 5.0 * off.abs().max(1e-6), "on {on}, off {off}");
        // Port B sees only noise, well below the on level.
        assert!(mmwave_sigproc::stats::rms(&vb) < on / 10.0);
    }

    #[test]
    fn detector_trace_lengths_match() {
        let n = node();
        let mut rng = GaussianSource::new(2);
        let (va, vb) = n.detector_traces(&[1e-6; 64], &[1e-6; 64], 50e6, &mut rng);
        assert_eq!(va.len(), 64);
        assert_eq!(vb.len(), 64);
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn detector_traces_reject_mismatch() {
        let n = node();
        let mut rng = GaussianSource::new(3);
        n.detector_traces(&[0.0; 4], &[0.0; 5], 1e6, &mut rng);
    }

    #[test]
    fn port_powers_select_correct_port() {
        let n = node();
        let psi = 12f64.to_radians();
        let (fa, fb) = n.fsa.oaqfm_carriers(psi).unwrap();
        let eval = FsaGainEval::for_dual(&n.fsa);
        // Only the A tone present.
        let p = port_powers_for_tones_eval(&eval, psi, &[(fa, 1e-9)]);
        assert!(p.a_w > 10.0 * p.b_w, "a {} b {}", p.a_w, p.b_w);
        // Only the B tone present.
        let p2 = port_powers_for_tones_eval(&eval, psi, &[(fb, 1e-9)]);
        assert!(p2.b_w > 10.0 * p2.a_w);
        // Both tones: both ports fed.
        let p3 = port_powers_for_tones_eval(&eval, psi, &[(fa, 1e-9), (fb, 1e-9)]);
        assert!(p3.a_w > 0.5 * p.a_w && p3.b_w > 0.5 * p2.b_w);
    }

    #[test]
    fn port_powers_eval_matches_direct_bit_exactly() {
        let n = node();
        let eval = FsaGainEval::for_dual(&n.fsa);
        let psi = 9f64.to_radians();
        let (fa, fb) = n.fsa.oaqfm_carriers(psi).unwrap();
        let tones = [(fa, 3e-9), (fb, 1e-9), (28.1e9, 2e-10)];
        let direct = port_powers_for_tones(&n.fsa, psi, &tones);
        // Twice: cold (compute) and warm (memo hit) must both match.
        for _ in 0..2 {
            assert_eq!(port_powers_for_tones_eval(&eval, psi, &tones), direct);
        }
    }

    #[test]
    fn mcu_sampling_decimates() {
        let n = node();
        let trace = vec![0.4; 1000]; // 10 µs at 100 MS/s
        let s = n.mcu_sample(&trace, 100e6);
        assert_eq!(s.len(), 10); // 1 MS/s
        assert!((s[0] - 0.4).abs() < n.adc.lsb_v());
    }
}

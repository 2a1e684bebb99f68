//! Frequency Scanning Antenna (FSA) — the passive beam-steering structure at
//! the heart of the MilBack node (§2, §4).
//!
//! # Physics
//!
//! An FSA is a series-fed traveling-wave array: the feed line meanders past
//! `N` radiating elements spaced `d` apart, inserting an electrical length
//! `L` (physical length × √ε_eff) between consecutive elements. A signal at
//! frequency `f` therefore arrives at element `n` with phase `−n·2πfL/c`.
//! The far-field array factor peaks where the per-element phase step is a
//! multiple of 2π:
//!
//! ```text
//! k₀·d·sin θ = 2πfL/c − 2πm   ⇒   sin θ(f) = (L − m·c/f) / d
//! ```
//!
//! so the beam direction is a deterministic, monotone function of frequency
//! — steering without phase shifters or any power draw. Feeding the same
//! structure from the opposite end (the dual-port extension, Fig 3) reverses
//! the phase progression and mirrors the mapping: `θ_B(f) = −θ_A(f)`.
//!
//! [`FsaDesign::for_band`] solves `d` and `L` so a chosen band sweeps a
//! chosen scan range; [`FsaDesign::milback_default`] reproduces the paper's
//! antenna (26.5–29.5 GHz → ≈±30°, ~12 dBi, ~10° beams — Fig 10).

use super::Antenna;
use mmwave_sigproc::complex::Complex;
use mmwave_sigproc::units::SPEED_OF_LIGHT;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::f64::consts::PI;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Which feed port of a dual-port FSA is in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FsaPort {
    /// Port A: beam scans from −θ_max (band start) to +θ_max (band end).
    A,
    /// Port B: the mirrored mapping, +θ_max down to −θ_max.
    B,
}

impl FsaPort {
    /// The opposite port.
    pub fn other(self) -> Self {
        match self {
            FsaPort::A => FsaPort::B,
            FsaPort::B => FsaPort::A,
        }
    }
}

/// Geometry and electrical parameters of a series-fed FSA.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FsaDesign {
    /// Number of radiating elements.
    pub elements: usize,
    /// Element spacing along the array, meters.
    pub spacing_m: f64,
    /// Effective electrical length of feed line between elements, meters.
    pub electrical_length_m: f64,
    /// Space-harmonic index `m` used by the design (integer branch of the
    /// mod-2π beam condition).
    pub harmonic: u32,
    /// Lower edge of the operating band, Hz.
    pub band_start_hz: f64,
    /// Upper edge of the operating band, Hz.
    pub band_end_hz: f64,
    /// Calibrated broadside peak gain, dBi (HFSS-equivalent calibration).
    pub peak_gain_dbi: f64,
    /// Element-pattern exponent: per-element power pattern `cos^q(θ)`,
    /// folding in feed mismatch toward the band edges.
    pub element_exponent: f64,
    /// Traveling-wave amplitude taper per element (≤ 1): the fraction of
    /// amplitude that continues down the line past each element.
    pub travel_amplitude: f64,
}

impl FsaDesign {
    /// Solves the array geometry so that sweeping `band_start..band_end`
    /// scans the beam from `−scan_max_rad` to `+scan_max_rad` (port A).
    ///
    /// `harmonic` picks the feed-line length branch: larger values give a
    /// longer meander and a faster scan per Hz (this is how the paper's
    /// design covers 60° with only 3 GHz where prior FSA work \[37\] needed
    /// 10 GHz for 48°).
    ///
    /// # Panics
    /// Panics on a degenerate band, scan range, or element count.
    pub fn for_band(
        band_start_hz: f64,
        band_end_hz: f64,
        scan_max_rad: f64,
        harmonic: u32,
        elements: usize,
    ) -> Self {
        assert!(
            band_end_hz > band_start_hz && band_start_hz > 0.0,
            "bad band"
        );
        assert!(
            scan_max_rad > 0.0 && scan_max_rad < PI / 2.0,
            "bad scan range"
        );
        assert!(harmonic >= 1, "harmonic must be ≥ 1");
        assert!(elements >= 2, "need at least two elements");
        let m = harmonic as f64;
        let c = SPEED_OF_LIGHT;
        // sinθ(f) = (L − m·c/f)/d with endpoints ∓sin(scan_max):
        let spacing_m = m * c * (band_end_hz - band_start_hz)
            / (band_start_hz * band_end_hz)
            / (2.0 * scan_max_rad.sin());
        let electrical_length_m = m * c / band_start_hz - scan_max_rad.sin() * spacing_m;
        Self {
            elements,
            spacing_m,
            electrical_length_m,
            harmonic,
            band_start_hz,
            band_end_hz,
            peak_gain_dbi: 13.0,
            element_exponent: 4.0,
            travel_amplitude: 0.93,
        }
    }

    /// The paper's antenna: 26.5–29.5 GHz sweeping ±30°, 8 elements,
    /// ≈13 dBi broadside, ≈10° beams.
    pub fn milback_default() -> Self {
        Self::for_band(26.5e9, 29.5e9, 30f64.to_radians(), 5, 8)
    }

    /// Center frequency of the operating band, Hz.
    pub fn center_hz(&self) -> f64 {
        (self.band_start_hz + self.band_end_hz) / 2.0
    }

    /// `sin θ` of the port-A beam at `freq_hz` (may exceed ±1 out of band).
    fn beam_sin(&self, freq_hz: f64) -> f64 {
        (self.electrical_length_m - self.harmonic as f64 * SPEED_OF_LIGHT / freq_hz)
            / self.spacing_m
    }

    /// Port-A beam direction (radians from broadside) at `freq_hz`.
    ///
    /// Returns `None` when the beam condition has no real solution (the
    /// frequency is far outside the scan design).
    pub fn beam_angle_rad(&self, port: FsaPort, freq_hz: f64) -> Option<f64> {
        let s = self.beam_sin(freq_hz);
        if s.abs() > 1.0 {
            return None;
        }
        let a = s.asin();
        Some(match port {
            FsaPort::A => a,
            FsaPort::B => -a,
        })
    }

    /// The frequency that points the given port's beam at `angle_rad`.
    ///
    /// Returns `None` if the required frequency falls outside the operating
    /// band — the passive structure simply cannot form that beam. This is
    /// the lookup the AP performs when it picks OAQFM carriers (§6.1).
    pub fn frequency_for_angle(&self, port: FsaPort, angle_rad: f64) -> Option<f64> {
        let target_sin = match port {
            FsaPort::A => angle_rad.sin(),
            FsaPort::B => -angle_rad.sin(),
        };
        let denom = self.electrical_length_m - self.spacing_m * target_sin;
        if denom <= 0.0 {
            return None;
        }
        let f = self.harmonic as f64 * SPEED_OF_LIGHT / denom;
        if f < self.band_start_hz - 1e6 || f > self.band_end_hz + 1e6 {
            return None;
        }
        // Clamp numerical overshoot at the band edges so callers always
        // receive an in-band frequency.
        Some(f.clamp(self.band_start_hz, self.band_end_hz))
    }

    /// Power gain in dBi of the given port toward `angle_rad` at `freq_hz`.
    ///
    /// Combines the normalized array factor, a `cos^q` element pattern and
    /// the calibrated broadside peak gain. Evaluated at the beam angle of a
    /// given frequency this reproduces the Fig 10 pattern family.
    pub fn gain_dbi(&self, port: FsaPort, freq_hz: f64, angle_rad: f64) -> f64 {
        let af_norm = AfCore::af_norm(self.travel_amplitude, self.elements);
        AfCore::new(self, port, freq_hz, af_norm).gain_dbi(angle_rad)
    }

    /// Linear power gain of the given port.
    pub fn gain_linear(&self, port: FsaPort, freq_hz: f64, angle_rad: f64) -> f64 {
        let af_norm = AfCore::af_norm(self.travel_amplitude, self.elements);
        AfCore::new(self, port, freq_hz, af_norm).gain_linear(angle_rad)
    }

    /// Scan coverage in radians across the operating band for one port.
    pub fn scan_coverage_rad(&self) -> f64 {
        let a = self
            .beam_angle_rad(FsaPort::A, self.band_start_hz)
            .unwrap_or(0.0);
        let b = self
            .beam_angle_rad(FsaPort::A, self.band_end_hz)
            .unwrap_or(0.0);
        (b - a).abs()
    }

    /// The frequency at which both ports' beams coincide at broadside —
    /// where OAQFM degenerates to single-tone OOK (§6.2).
    pub fn normal_incidence_freq_hz(&self) -> f64 {
        self.harmonic as f64 * SPEED_OF_LIGHT / self.electrical_length_m
    }
}

/// A single-port FSA viewed through the [`Antenna`] trait (port A).
#[derive(Debug, Clone, Copy)]
pub struct FrequencyScanningAntenna {
    /// The underlying design.
    pub design: FsaDesign,
    /// Which port this view exposes.
    pub port: FsaPort,
}

impl Antenna for FrequencyScanningAntenna {
    fn gain_dbi(&self, freq_hz: f64, angle_rad: f64) -> f64 {
        self.design.gain_dbi(self.port, freq_hz, angle_rad)
    }
}

/// The dual-port FSA of the MilBack node, adding the port-to-port leakage
/// path that bounds downlink SINR (§9.4).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DualPortFsa {
    /// Shared radiating structure.
    pub design: FsaDesign,
    /// Direct port-to-port coupling through the feed network, dB (negative).
    pub port_isolation_db: f64,
}

impl DualPortFsa {
    /// Builds the paper's dual-port FSA.
    ///
    /// The −12 dB effective port isolation models the *combination* of feed
    /// network leakage and the fabricated array's average sidelobe coupling
    /// (§9.4: "the beam created by each port has sidelobes which may be on
    /// the same direction as the main beam of the other port"). A uniform
    /// traveling-wave array's first sidelobes sit near −13 dB; this figure
    /// is what caps the measured downlink SINR near 23 dB at short range
    /// (Fig 14).
    pub fn milback_default() -> Self {
        Self {
            design: FsaDesign::milback_default(),
            port_isolation_db: -12.0,
        }
    }

    /// Gain of one port toward an angle (delegates to the design).
    pub fn gain_dbi(&self, port: FsaPort, freq_hz: f64, angle_rad: f64) -> f64 {
        self.design.gain_dbi(port, freq_hz, angle_rad)
    }

    /// Linear gain of one port toward an angle.
    pub fn gain_linear(&self, port: FsaPort, freq_hz: f64, angle_rad: f64) -> f64 {
        self.design.gain_linear(port, freq_hz, angle_rad)
    }

    /// Power (linear, relative to the incident wave × port gain convention)
    /// that a tone at `freq_hz` arriving from `angle_rad` couples into each
    /// port: `(into_a, into_b)`.
    ///
    /// Each port receives through its own pattern; additionally a fraction
    /// of the power captured by one port leaks into the other through the
    /// feed network (`port_isolation_db`). The pattern sidelobes plus this
    /// leakage are exactly the cross-port interference the paper cites for
    /// reporting downlink SINR instead of SNR.
    pub fn port_coupling_linear(&self, freq_hz: f64, angle_rad: f64) -> (f64, f64) {
        let ga = self.design.gain_linear(FsaPort::A, freq_hz, angle_rad);
        let gb = self.design.gain_linear(FsaPort::B, freq_hz, angle_rad);
        let leak = 10f64.powf(self.port_isolation_db / 10.0);
        (ga + gb * leak, gb + ga * leak)
    }

    /// The pair of frequencies `(f_A, f_B)` that point both beams at a node
    /// seen under incidence angle `angle_rad` — the OAQFM carrier choice.
    ///
    /// Returns `None` if either frequency falls outside the band.
    pub fn oaqfm_carriers(&self, angle_rad: f64) -> Option<(f64, f64)> {
        let fa = self.design.frequency_for_angle(FsaPort::A, angle_rad)?;
        let fb = self.design.frequency_for_angle(FsaPort::B, angle_rad)?;
        Some((fa, fb))
    }
}

/// The per-`(port, frequency)` parameter set of the FSA gain formulas and
/// the **single shared implementation** of the formulas themselves.
///
/// Both the unhoisted entry points ([`FsaDesign::gain_dbi`] /
/// [`FsaDesign::gain_linear`]) and the hoisted
/// evaluator ([`FsaFreqEval`]) funnel through these `#[inline(never)]`
/// methods, so the two paths execute the *same compiled code*. Keeping two
/// textually identical float pipelines instead lets the optimizer schedule
/// each copy differently — observed as 1-ULP drift between the paths at
/// `opt-level=3` — which would break the bit-exactness contract the
/// evaluator advertises (and the dense-grid tests assert).
#[derive(Debug, Clone, Copy)]
struct AfCore {
    /// `±k₀·d` with the port sign folded in: `ψ(θ) = psi_slope·sinθ − phi_line`.
    psi_slope: f64,
    /// Feed-line phase `2πfL/c` at this frequency.
    phi_line: f64,
    /// Per-element traveling-wave amplitude ratio `η`.
    eta: f64,
    elements: usize,
    /// Array-factor normalization `Σ ηⁿ`.
    af_norm: f64,
    peak_gain_dbi: f64,
    element_exponent: f64,
}

impl AfCore {
    fn new(design: &FsaDesign, port: FsaPort, freq_hz: f64, af_norm: f64) -> Self {
        let k0 = 2.0 * PI * freq_hz / SPEED_OF_LIGHT;
        let phi_line = 2.0 * PI * freq_hz * design.electrical_length_m / SPEED_OF_LIGHT;
        // IEEE-754: `(-k0)·d == -(k0·d)` exactly, so folding the port sign
        // into the slope is bit-exact for port B too.
        let psi_slope = match port {
            FsaPort::A => k0 * design.spacing_m,
            FsaPort::B => -k0 * design.spacing_m,
        };
        Self {
            psi_slope,
            phi_line,
            eta: design.travel_amplitude,
            elements: design.elements,
            af_norm,
            peak_gain_dbi: design.peak_gain_dbi,
            element_exponent: design.element_exponent,
        }
    }

    /// `Σ ηⁿ` — out of line for the same single-compilation reason.
    #[inline(never)]
    fn af_norm(eta: f64, elements: usize) -> f64 {
        (0..elements).map(|n| eta.powi(n as i32)).sum()
    }

    #[inline(never)]
    fn array_factor(&self, angle_rad: f64) -> f64 {
        let psi = self.psi_slope * angle_rad.sin() - self.phi_line;
        let mut af = Complex::new(0.0, 0.0);
        let mut amp = 1.0;
        for n in 0..self.elements {
            af += Complex::cis(psi * n as f64).scale(amp);
            amp *= self.eta;
        }
        af.norm() / self.af_norm
    }

    #[inline(never)]
    fn gain_dbi(&self, angle_rad: f64) -> f64 {
        if angle_rad.abs() >= PI / 2.0 {
            return -40.0; // behind the ground plane
        }
        let af = self.array_factor(angle_rad).max(1e-6);
        let elem = angle_rad.cos().powf(self.element_exponent).max(1e-6);
        self.peak_gain_dbi + 20.0 * af.log10() + 10.0 * elem.log10()
    }

    #[inline(never)]
    fn gain_linear(&self, angle_rad: f64) -> f64 {
        10f64.powf(self.gain_dbi(angle_rad) / 10.0)
    }
}

/// Per-`(port, frequency)` constants of the FSA gain evaluation, hoisted out
/// of the angle loop.
///
/// For a fixed `(port, freq)` the array factor is a function of `sin θ`
/// alone: `ψ(θ) = psi_slope·sin θ − phi_line` with `psi_slope = ±k₀·d` and
/// `phi_line = 2πfL/c`. Angle-grid sweeps (orientation traces, localization
/// echo synthesis, Fig 10 patterns) query thousands of angles per frequency,
/// so this struct precomputes the wavenumber product, the line phase, the
/// array-factor normalization `Σ ηⁿ` and the beam direction once per
/// `(port, freq)`.
///
/// Every query runs through the same compiled `AfCore` routines as the
/// unhoisted [`FsaDesign`] path, so results are **bit-exact** with it by
/// construction (asserted by tests over a dense grid).
#[derive(Debug, Clone)]
pub struct FsaFreqEval {
    port: FsaPort,
    core: AfCore,
    /// Cached beam direction (`None` when the beam condition has no real
    /// solution at this frequency).
    beam_angle: Option<f64>,
}

impl FsaFreqEval {
    fn new(design: &FsaDesign, port: FsaPort, freq_hz: f64, af_norm: f64) -> Self {
        Self {
            port,
            core: AfCore::new(design, port, freq_hz, af_norm),
            beam_angle: design.beam_angle_rad(port, freq_hz),
        }
    }

    /// The port this evaluation is bound to.
    pub fn port(&self) -> FsaPort {
        self.port
    }

    /// Cached beam direction, bit-exact with [`FsaDesign::beam_angle_rad`].
    pub fn beam_angle_rad(&self) -> Option<f64> {
        self.beam_angle
    }

    /// Power gain in dBi, bit-exact with [`FsaDesign::gain_dbi`].
    pub fn gain_dbi(&self, angle_rad: f64) -> f64 {
        self.core.gain_dbi(angle_rad)
    }

    /// Linear power gain, bit-exact with [`FsaDesign::gain_linear`].
    pub fn gain_linear(&self, angle_rad: f64) -> f64 {
        self.core.gain_linear(angle_rad)
    }

    /// Batched [`FsaFreqEval::gain_dbi`] over an angle chunk (bit-exact per
    /// point with the scalar path).
    ///
    /// # Panics
    /// Panics when `out.len() != angles.len()`.
    pub fn gain_dbi_batch(&self, angles: &[f64], out: &mut [f64]) {
        assert_eq!(angles.len(), out.len(), "batch output length mismatch");
        for (o, &a) in out.iter_mut().zip(angles) {
            *o = self.core.gain_dbi(a);
        }
    }
}

/// Memo key: `(port == B, freq bits, angle bits)`.
type GainKey = (bool, u64, u64);

/// Snapshot of an evaluator's cache and batch counters
/// ([`FsaGainEval::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsaStats {
    /// Hits on the per-`(port, freq)` hoisted-evaluation cache.
    pub freq_hits: u64,
    /// Misses on the per-`(port, freq)` cache (each builds an
    /// [`FsaFreqEval`]).
    pub freq_misses: u64,
    /// Hits on the per-`(port, freq, angle)` value memos.
    pub gain_hits: u64,
    /// Misses on the value memos (each runs the `AfCore` pipeline once).
    pub gain_misses: u64,
    /// Points evaluated through the batch APIs, bypassing the value memos.
    pub batch_points: u64,
}

impl FsaStats {
    /// The traffic between an `earlier` snapshot of the same evaluator and
    /// this one, field by field: what one caller's queries added to an
    /// evaluator it shares with others.
    pub fn since(&self, earlier: &FsaStats) -> FsaStats {
        FsaStats {
            freq_hits: self.freq_hits - earlier.freq_hits,
            freq_misses: self.freq_misses - earlier.freq_misses,
            gain_hits: self.gain_hits - earlier.gain_hits,
            gain_misses: self.gain_misses - earlier.gain_misses,
            batch_points: self.batch_points - earlier.batch_points,
        }
    }
}

/// Relaxed atomic counters behind [`FsaStats`]. Monitoring only: the values
/// never feed back into any computation, so observing them cannot perturb
/// results.
#[derive(Default)]
struct FsaCounters {
    freq_hits: AtomicU64,
    freq_misses: AtomicU64,
    gain_hits: AtomicU64,
    gain_misses: AtomicU64,
    batch_points: AtomicU64,
}

impl FsaCounters {
    fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }
}

/// A memoizing FSA gain evaluator, bit-exact with the direct
/// [`FsaDesign`] / [`DualPortFsa`] query paths.
///
/// Two cache levels:
/// 1. [`FsaGainEval::at_freq`] hands out a shared [`FsaFreqEval`] with all
///    per-`(port, freq)` constants hoisted — for callers that sweep angles
///    at a fixed frequency.
/// 2. [`FsaGainEval::gain_dbi`] / [`FsaGainEval::gain_linear`] /
///    [`FsaGainEval::port_coupling_linear`] additionally memoize full values
///    keyed by `(port, freq bits, angle bits)` — the simulation hot paths
///    (localization echoes, per-symbol downlink coupling, orientation
///    traces) re-query identical triples tens to thousands of times.
///
/// Caches are interior-mutable behind [`RwLock`]s, so a shared evaluator is
/// usable from the threaded beat-synthesis and trial-runner workers.
/// Cloning yields an evaluator for the same design with cold caches.
pub struct FsaGainEval {
    design: FsaDesign,
    /// `10^(isolation/10)` when built from a [`DualPortFsa`]; `None` for a
    /// bare design (then [`FsaGainEval::port_coupling_linear`] panics).
    leak: Option<f64>,
    af_norm: f64,
    freq: RwLock<HashMap<(bool, u64), Arc<FsaFreqEval>>>,
    dbi: RwLock<HashMap<GainKey, f64>>,
    lin: RwLock<HashMap<GainKey, f64>>,
    counters: FsaCounters,
}

impl FsaGainEval {
    /// Builds an evaluator for a bare design (no port-coupling support).
    pub fn new(design: &FsaDesign) -> Self {
        Self::build(design, None)
    }

    /// Builds an evaluator for a dual-port FSA, hoisting the feed-leakage
    /// factor so [`FsaGainEval::port_coupling_linear`] matches
    /// [`DualPortFsa::port_coupling_linear`] bit-exactly.
    pub fn for_dual(fsa: &DualPortFsa) -> Self {
        Self::build(&fsa.design, Some(10f64.powf(fsa.port_isolation_db / 10.0)))
    }

    fn build(design: &FsaDesign, leak: Option<f64>) -> Self {
        // Hoisted once per evaluator; the unhoisted path recomputes this per
        // call through the same `AfCore::af_norm` symbol, so the bits match.
        let af_norm = AfCore::af_norm(design.travel_amplitude, design.elements);
        Self {
            design: *design,
            leak,
            af_norm,
            freq: RwLock::new(HashMap::new()),
            dbi: RwLock::new(HashMap::new()),
            lin: RwLock::new(HashMap::new()),
            counters: FsaCounters::default(),
        }
    }

    /// Snapshot of the cache hit/miss and batch-bypass counters since this
    /// evaluator was built. Counters are relaxed atomics updated on every
    /// query; they never influence any computed value.
    pub fn stats(&self) -> FsaStats {
        FsaStats {
            freq_hits: self.counters.freq_hits.load(Ordering::Relaxed),
            freq_misses: self.counters.freq_misses.load(Ordering::Relaxed),
            gain_hits: self.counters.gain_hits.load(Ordering::Relaxed),
            gain_misses: self.counters.gain_misses.load(Ordering::Relaxed),
            batch_points: self.counters.batch_points.load(Ordering::Relaxed),
        }
    }

    /// The design this evaluator answers for.
    pub fn design(&self) -> &FsaDesign {
        &self.design
    }

    /// The hoisted per-`(port, freq)` evaluation, cached across calls.
    pub fn at_freq(&self, port: FsaPort, freq_hz: f64) -> Arc<FsaFreqEval> {
        let key = (port == FsaPort::B, freq_hz.to_bits());
        if let Some(fe) = self.freq.read().expect("fsa freq cache poisoned").get(&key) {
            FsaCounters::bump(&self.counters.freq_hits, 1);
            return Arc::clone(fe);
        }
        FsaCounters::bump(&self.counters.freq_misses, 1);
        let fe = Arc::new(FsaFreqEval::new(&self.design, port, freq_hz, self.af_norm));
        let mut cache = self.freq.write().expect("fsa freq cache poisoned");
        Arc::clone(cache.entry(key).or_insert(fe))
    }

    fn memo(
        &self,
        cache: &RwLock<HashMap<GainKey, f64>>,
        key: GainKey,
        compute: impl FnOnce() -> f64,
    ) -> f64 {
        if let Some(&v) = cache.read().expect("fsa gain cache poisoned").get(&key) {
            FsaCounters::bump(&self.counters.gain_hits, 1);
            return v;
        }
        FsaCounters::bump(&self.counters.gain_misses, 1);
        // Racing computations produce the same bits, so last-write-wins
        // insertion keeps the cache deterministic.
        let v = compute();
        cache
            .write()
            .expect("fsa gain cache poisoned")
            .insert(key, v);
        v
    }

    /// Memoized [`FsaDesign::gain_dbi`] (bit-exact).
    pub fn gain_dbi(&self, port: FsaPort, freq_hz: f64, angle_rad: f64) -> f64 {
        let key = (port == FsaPort::B, freq_hz.to_bits(), angle_rad.to_bits());
        self.memo(&self.dbi, key, || {
            self.at_freq(port, freq_hz).gain_dbi(angle_rad)
        })
    }

    /// Memoized [`FsaDesign::gain_linear`] (bit-exact).
    pub fn gain_linear(&self, port: FsaPort, freq_hz: f64, angle_rad: f64) -> f64 {
        let key = (port == FsaPort::B, freq_hz.to_bits(), angle_rad.to_bits());
        self.memo(&self.lin, key, || {
            self.at_freq(port, freq_hz).gain_linear(angle_rad)
        })
    }

    /// Batched gain in dBi over an **angle chunk** at one `(port, freq)`.
    ///
    /// Hoists the per-frequency setup once for the whole chunk and bypasses
    /// the per-point value memo — on a cold grid the memo's lock/hash/insert
    /// traffic is pure overhead, and skipping it is where the batch path's
    /// speedup comes from. Each point is bit-exact with the scalar
    /// [`FsaGainEval::gain_dbi`] because it runs the same compiled
    /// `AfCore` routine. Pass `memoize = true` to also write the chunk
    /// back into the value memo (one write-lock acquisition), worth it only
    /// when the same exact points will be re-queried through the scalar
    /// path later.
    ///
    /// # Panics
    /// Panics when `out.len() != angles.len()`.
    pub fn gain_dbi_angles_into(
        &self,
        port: FsaPort,
        freq_hz: f64,
        angles: &[f64],
        out: &mut [f64],
        memoize: bool,
    ) {
        let fe = self.at_freq(port, freq_hz);
        fe.gain_dbi_batch(angles, out);
        FsaCounters::bump(&self.counters.batch_points, angles.len() as u64);
        if memoize {
            let mut cache = self.dbi.write().expect("fsa gain cache poisoned");
            for (&a, &v) in angles.iter().zip(out.iter()) {
                cache.insert((port == FsaPort::B, freq_hz.to_bits(), a.to_bits()), v);
            }
        }
    }

    /// Batched linear gain over a **frequency chunk** at one angle — the
    /// cold-grid hot path of localization echo synthesis, where every chirp
    /// sample sits at a distinct instantaneous frequency and the memo never
    /// hits. Builds the hoisted core directly per frequency with no
    /// locking, hashing or shared-pointer traffic; bit-exact with the
    /// scalar path by construction (identical `AfCore` arguments and
    /// routines).
    ///
    /// # Panics
    /// Panics when `out.len() != freqs.len()`.
    pub fn gain_linear_freqs_into(
        &self,
        port: FsaPort,
        freqs: &[f64],
        angle_rad: f64,
        out: &mut [f64],
        memoize: bool,
    ) {
        assert_eq!(freqs.len(), out.len(), "batch output length mismatch");
        for (o, &f) in out.iter_mut().zip(freqs) {
            *o = AfCore::new(&self.design, port, f, self.af_norm).gain_linear(angle_rad);
        }
        FsaCounters::bump(&self.counters.batch_points, freqs.len() as u64);
        if memoize {
            let mut cache = self.lin.write().expect("fsa gain cache poisoned");
            for (&f, &v) in freqs.iter().zip(out.iter()) {
                cache.insert((port == FsaPort::B, f.to_bits(), angle_rad.to_bits()), v);
            }
        }
    }

    /// Batched [`FsaGainEval::port_coupling_linear`] over a frequency chunk
    /// at one incidence angle: fills `into_a`/`into_b` with the per-port
    /// coupled power factors, bit-exact per point with the scalar call.
    /// Bypasses the value memos like the other batch paths.
    ///
    /// # Panics
    /// Panics when the evaluator was built with [`FsaGainEval::new`]
    /// instead of [`FsaGainEval::for_dual`], or on length mismatch.
    pub fn port_coupling_linear_freqs_into(
        &self,
        freqs: &[f64],
        angle_rad: f64,
        into_a: &mut [f64],
        into_b: &mut [f64],
    ) {
        let leak = self
            .leak
            .expect("port_coupling_linear requires an evaluator built with FsaGainEval::for_dual");
        assert_eq!(freqs.len(), into_a.len(), "batch output length mismatch");
        assert_eq!(freqs.len(), into_b.len(), "batch output length mismatch");
        for i in 0..freqs.len() {
            let ga = AfCore::new(&self.design, FsaPort::A, freqs[i], self.af_norm)
                .gain_linear(angle_rad);
            let gb = AfCore::new(&self.design, FsaPort::B, freqs[i], self.af_norm)
                .gain_linear(angle_rad);
            into_a[i] = ga + gb * leak;
            into_b[i] = gb + ga * leak;
        }
        FsaCounters::bump(&self.counters.batch_points, 2 * freqs.len() as u64);
    }

    /// Memoized [`DualPortFsa::port_coupling_linear`] (bit-exact).
    ///
    /// # Panics
    /// Panics when the evaluator was built with [`FsaGainEval::new`] from a
    /// bare design instead of [`FsaGainEval::for_dual`].
    pub fn port_coupling_linear(&self, freq_hz: f64, angle_rad: f64) -> (f64, f64) {
        let leak = self
            .leak
            .expect("port_coupling_linear requires an evaluator built with FsaGainEval::for_dual");
        let ga = self.gain_linear(FsaPort::A, freq_hz, angle_rad);
        let gb = self.gain_linear(FsaPort::B, freq_hz, angle_rad);
        (ga + gb * leak, gb + ga * leak)
    }
}

impl Clone for FsaGainEval {
    /// Clones the design and leak factor; caches start cold and counters at
    /// zero (they are a transparent performance detail, not state).
    fn clone(&self) -> Self {
        Self::build(&self.design, self.leak)
    }
}

impl std::fmt::Debug for FsaGainEval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FsaGainEval")
            .field("design", &self.design)
            .field("leak", &self.leak)
            .field(
                "cached_freqs",
                &self.freq.read().map(|m| m.len()).unwrap_or(0),
            )
            .field(
                "cached_gains",
                &self.lin.read().map(|m| m.len()).unwrap_or(0),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fsa() -> FsaDesign {
        FsaDesign::milback_default()
    }

    #[test]
    fn design_hits_scan_endpoints() {
        let d = fsa();
        let lo = d.beam_angle_rad(FsaPort::A, 26.5e9).unwrap();
        let hi = d.beam_angle_rad(FsaPort::A, 29.5e9).unwrap();
        assert!((lo + 30f64.to_radians()).abs() < 1e-9, "lo {lo}");
        assert!((hi - 30f64.to_radians()).abs() < 1e-9, "hi {hi}");
    }

    #[test]
    fn covers_sixty_degrees_with_three_ghz() {
        // The §2 claim: >60° azimuth with only 3 GHz of bandwidth.
        let d = fsa();
        assert!(d.scan_coverage_rad().to_degrees() >= 59.9);
        assert!((d.band_end_hz - d.band_start_hz - 3e9).abs() < 1.0);
    }

    #[test]
    fn ports_are_mirrored() {
        let d = fsa();
        for f in [26.8e9, 27.5e9, 28.6e9, 29.3e9] {
            let a = d.beam_angle_rad(FsaPort::A, f).unwrap();
            let b = d.beam_angle_rad(FsaPort::B, f).unwrap();
            assert!((a + b).abs() < 1e-12, "not mirrored at {f}");
        }
    }

    #[test]
    fn beam_angle_monotone_in_frequency() {
        let d = fsa();
        let mut prev = f64::MIN;
        for i in 0..=30 {
            let f = 26.5e9 + 3e9 * i as f64 / 30.0;
            let a = d.beam_angle_rad(FsaPort::A, f).unwrap();
            assert!(a > prev);
            prev = a;
        }
    }

    #[test]
    fn frequency_for_angle_inverts_beam_angle() {
        let d = fsa();
        for f in [26.6e9, 27.2e9, 28.0e9, 29.4e9] {
            let a = d.beam_angle_rad(FsaPort::A, f).unwrap();
            let f2 = d.frequency_for_angle(FsaPort::A, a).unwrap();
            assert!((f - f2).abs() < 1e3, "{f} → {f2}");
            let ab = d.beam_angle_rad(FsaPort::B, f).unwrap();
            let f3 = d.frequency_for_angle(FsaPort::B, ab).unwrap();
            assert!((f - f3).abs() < 1e3);
        }
    }

    #[test]
    fn frequency_for_angle_rejects_out_of_scan() {
        let d = fsa();
        assert!(d
            .frequency_for_angle(FsaPort::A, 45f64.to_radians())
            .is_none());
        assert!(d
            .frequency_for_angle(FsaPort::A, -45f64.to_radians())
            .is_none());
    }

    #[test]
    fn pattern_peaks_at_the_predicted_beam_angle() {
        let d = fsa();
        let view = FrequencyScanningAntenna {
            design: d,
            port: FsaPort::A,
        };
        for f in [27e9, 28e9, 29e9] {
            let predicted = d.beam_angle_rad(FsaPort::A, f).unwrap();
            let found = view.beam_direction_rad(f);
            // The cos^q element pattern pulls the composite peak slightly
            // toward broadside relative to the pure array-factor peak; allow
            // ~1° of skew, as a full-wave solver would also show.
            assert!(
                (predicted - found).abs() < 0.02,
                "at {f}: predicted {predicted}, found {found}"
            );
        }
    }

    #[test]
    fn peak_gain_in_fig10_range() {
        // Fig 10: beams with >10 dB gain across the band, 13–14 dBi center.
        let d = fsa();
        let view = FrequencyScanningAntenna {
            design: d,
            port: FsaPort::A,
        };
        for i in 0..=6 {
            let f = 26.5e9 + 0.5e9 * i as f64;
            let g = view.peak_gain_dbi(f);
            assert!(g > 10.0, "peak at {f} only {g:.1} dBi");
            assert!(g < 14.5, "peak at {f} too high: {g:.1} dBi");
        }
    }

    #[test]
    fn beamwidth_is_about_ten_degrees() {
        // §9.3: "the beam width of the node is around 10 degree".
        let d = fsa();
        let view = FrequencyScanningAntenna {
            design: d,
            port: FsaPort::A,
        };
        let bw = view.beamwidth_rad(28e9).to_degrees();
        assert!((8.0..14.0).contains(&bw), "beamwidth {bw:.1}°");
    }

    #[test]
    fn sidelobes_are_at_least_10_db_down() {
        let d = fsa();
        let f = 28e9;
        let beam = d.beam_angle_rad(FsaPort::A, f).unwrap();
        let peak = d.gain_dbi(FsaPort::A, f, beam);
        // Sample well away from the main lobe.
        for deg in [-50.0f64, -35.0, 25.0, 40.0] {
            let g = d.gain_dbi(FsaPort::A, f, deg.to_radians());
            assert!(
                peak - g > 10.0,
                "sidelobe at {deg}° only {:.1} dB down",
                peak - g
            );
        }
    }

    #[test]
    fn normal_incidence_frequency_aligns_both_ports() {
        let d = fsa();
        let f0 = d.normal_incidence_freq_hz();
        assert!(f0 > 26.5e9 && f0 < 29.5e9);
        let a = d.beam_angle_rad(FsaPort::A, f0).unwrap();
        let b = d.beam_angle_rad(FsaPort::B, f0).unwrap();
        assert!(a.abs() < 1e-9 && b.abs() < 1e-9);
    }

    #[test]
    fn oaqfm_carriers_straddle_the_normal_frequency() {
        let dp = DualPortFsa::milback_default();
        let (fa, fb) = dp.oaqfm_carriers(12f64.to_radians()).unwrap();
        let f0 = dp.design.normal_incidence_freq_hz();
        assert!(fa > f0 && fb < f0, "fa {fa}, fb {fb}, f0 {f0}");
        // Both beams indeed point at the node.
        let a = dp.design.beam_angle_rad(FsaPort::A, fa).unwrap();
        let b = dp.design.beam_angle_rad(FsaPort::B, fb).unwrap();
        assert!((a - 12f64.to_radians()).abs() < 1e-9);
        assert!((b - 12f64.to_radians()).abs() < 1e-9);
    }

    #[test]
    fn oaqfm_carriers_coincide_at_normal() {
        let dp = DualPortFsa::milback_default();
        let (fa, fb) = dp.oaqfm_carriers(0.0).unwrap();
        assert!((fa - fb).abs() < 1e3, "normal incidence must degenerate");
    }

    #[test]
    fn cross_port_coupling_is_weak_off_normal() {
        // A tone on port A's carrier should couple ≥10 dB more into port A
        // than into port B when the node sits 12° off normal (the effective
        // sidelobe/feed isolation that bounds Fig 14's SINR near 23 dB:
        // the square-law detector doubles the dB ratio).
        let dp = DualPortFsa::milback_default();
        let ang = 12f64.to_radians();
        let (fa, _fb) = dp.oaqfm_carriers(ang).unwrap();
        let (into_a, into_b) = dp.port_coupling_linear(fa, ang);
        let ratio_db = 10.0 * (into_a / into_b).log10();
        assert!(ratio_db > 10.0, "port selectivity only {ratio_db:.1} dB");
        assert!(
            ratio_db < 14.0,
            "selectivity {ratio_db:.1} dB too ideal for Fig 14"
        );
    }

    #[test]
    fn coupling_becomes_symmetric_at_normal() {
        let dp = DualPortFsa::milback_default();
        let f0 = dp.design.normal_incidence_freq_hz();
        let (ia, ib) = dp.port_coupling_linear(f0, 0.0);
        assert!((ia - ib).abs() / ia < 1e-9);
    }

    #[test]
    fn out_of_band_beam_angle_is_none_when_unphysical() {
        let d = fsa();
        // Far below band the required sinθ exceeds 1.
        assert!(d.beam_angle_rad(FsaPort::A, 20e9).is_none());
    }

    #[test]
    fn gain_behind_ground_plane_is_floor() {
        let d = fsa();
        assert_eq!(d.gain_dbi(FsaPort::A, 28e9, 2.0), -40.0);
    }

    #[test]
    #[should_panic(expected = "bad band")]
    fn design_rejects_inverted_band() {
        FsaDesign::for_band(29e9, 26e9, 0.5, 5, 8);
    }

    #[test]
    fn higher_harmonic_means_faster_scan() {
        // Same band, same scan target, but check the electrical length grows
        // with the harmonic (longer meander = more dispersion).
        let d5 = FsaDesign::for_band(26.5e9, 29.5e9, 0.5, 5, 8);
        let d8 = FsaDesign::for_band(26.5e9, 29.5e9, 0.5, 8, 8);
        assert!(d8.electrical_length_m > d5.electrical_length_m);
    }

    /// Dense grid shared by the evaluator bit-exactness tests: both ports,
    /// in-band and out-of-band frequencies, angles spanning past ±90°.
    fn dense_grid() -> (Vec<FsaPort>, Vec<f64>, Vec<f64>) {
        let ports = vec![FsaPort::A, FsaPort::B];
        let freqs: Vec<f64> = (0..=16).map(|i| 26.0e9 + 0.25e9 * i as f64).collect();
        let angles: Vec<f64> = (-70..=70)
            .map(|i| (i as f64 * 1.5f64).to_radians())
            .collect();
        (ports, freqs, angles)
    }

    #[test]
    fn gain_eval_matches_design_bit_exactly_on_dense_grid() {
        let d = fsa();
        let eval = FsaGainEval::new(&d);
        let (ports, freqs, angles) = dense_grid();
        for &port in &ports {
            for &f in &freqs {
                let fe = eval.at_freq(port, f);
                for &a in &angles {
                    // `assert_eq!` on f64: bit-exactness is the contract.
                    assert_eq!(
                        fe.gain_dbi(a),
                        d.gain_dbi(port, f, a),
                        "dbi {port:?} {f} {a}"
                    );
                    assert_eq!(
                        fe.gain_linear(a),
                        d.gain_linear(port, f, a),
                        "lin {port:?} {f} {a}"
                    );
                    assert_eq!(eval.gain_dbi(port, f, a), d.gain_dbi(port, f, a));
                    assert_eq!(eval.gain_linear(port, f, a), d.gain_linear(port, f, a));
                }
            }
        }
    }

    #[test]
    fn gain_eval_caches_beam_data_bit_exactly() {
        let d = fsa();
        let eval = FsaGainEval::new(&d);
        let (ports, freqs, _) = dense_grid();
        for &port in &ports {
            for &f in &freqs {
                let fe = eval.at_freq(port, f);
                assert_eq!(fe.beam_angle_rad(), d.beam_angle_rad(port, f));
                if let Some(a) = fe.beam_angle_rad() {
                    assert_eq!(fe.gain_dbi(a), d.gain_dbi(port, f, a));
                }
            }
        }
        // Out-of-band: beam condition has no solution, cached as None.
        assert_eq!(eval.at_freq(FsaPort::A, 20e9).beam_angle_rad(), None);
    }

    #[test]
    fn gain_eval_memo_hits_return_identical_bits() {
        let d = fsa();
        let eval = FsaGainEval::new(&d);
        let (f, a) = (27.8e9, 0.21);
        let cold = eval.gain_linear(FsaPort::B, f, a);
        for _ in 0..3 {
            assert_eq!(eval.gain_linear(FsaPort::B, f, a), cold);
        }
        assert_eq!(cold, d.gain_linear(FsaPort::B, f, a));
        // The at_freq cache hands back the same shared evaluation.
        let fe1 = eval.at_freq(FsaPort::B, f);
        let fe2 = eval.at_freq(FsaPort::B, f);
        assert!(Arc::ptr_eq(&fe1, &fe2));
    }

    #[test]
    fn dual_port_eval_matches_port_coupling_bit_exactly() {
        let dp = DualPortFsa::milback_default();
        let eval = FsaGainEval::for_dual(&dp);
        let (_, freqs, angles) = dense_grid();
        for &f in &freqs {
            for &a in &angles {
                assert_eq!(
                    eval.port_coupling_linear(f, a),
                    dp.port_coupling_linear(f, a)
                );
            }
        }
    }

    #[test]
    fn gain_eval_ground_plane_floor_matches() {
        let d = fsa();
        let eval = FsaGainEval::new(&d);
        assert_eq!(eval.gain_dbi(FsaPort::A, 28e9, 2.0), -40.0);
        assert_eq!(eval.at_freq(FsaPort::A, 28e9).gain_dbi(-2.0), -40.0);
    }

    #[test]
    fn gain_eval_clone_is_equivalent_with_cold_caches() {
        let dp = DualPortFsa::milback_default();
        let eval = FsaGainEval::for_dual(&dp);
        let _ = eval.gain_linear(FsaPort::A, 28e9, 0.1); // warm the original
        let clone = eval.clone();
        assert_eq!(
            clone.port_coupling_linear(28e9, 0.1),
            eval.port_coupling_linear(28e9, 0.1)
        );
    }

    #[test]
    #[should_panic(expected = "for_dual")]
    fn bare_eval_rejects_port_coupling() {
        FsaGainEval::new(&fsa()).port_coupling_linear(28e9, 0.0);
    }

    #[test]
    fn angle_batch_matches_scalar_bit_exactly() {
        let d = fsa();
        let eval = FsaGainEval::new(&d);
        let (ports, freqs, angles) = dense_grid();
        let mut dbi = vec![0.0; angles.len()];
        for &port in &ports {
            for &f in &freqs {
                eval.gain_dbi_angles_into(port, f, &angles, &mut dbi, false);
                for (i, &a) in angles.iter().enumerate() {
                    assert_eq!(dbi[i].to_bits(), d.gain_dbi(port, f, a).to_bits());
                }
            }
        }
    }

    #[test]
    fn freq_batch_matches_scalar_bit_exactly() {
        let d = fsa();
        let eval = FsaGainEval::new(&d);
        let (ports, freqs, angles) = dense_grid();
        let mut lin = vec![0.0; freqs.len()];
        for &port in &ports {
            for &a in &angles {
                eval.gain_linear_freqs_into(port, &freqs, a, &mut lin, false);
                for (i, &f) in freqs.iter().enumerate() {
                    assert_eq!(lin[i].to_bits(), d.gain_linear(port, f, a).to_bits());
                }
            }
        }
    }

    #[test]
    fn coupling_freq_batch_matches_scalar_bit_exactly() {
        let dp = DualPortFsa::milback_default();
        let eval = FsaGainEval::for_dual(&dp);
        let (_, freqs, angles) = dense_grid();
        let mut ia = vec![0.0; freqs.len()];
        let mut ib = vec![0.0; freqs.len()];
        for &a in &angles {
            eval.port_coupling_linear_freqs_into(&freqs, a, &mut ia, &mut ib);
            for (i, &f) in freqs.iter().enumerate() {
                let (sa, sb) = dp.port_coupling_linear(f, a);
                assert_eq!(ia[i].to_bits(), sa.to_bits());
                assert_eq!(ib[i].to_bits(), sb.to_bits());
            }
        }
    }

    #[test]
    fn batch_memo_writeback_seeds_scalar_hits() {
        let d = fsa();
        let eval = FsaGainEval::new(&d);
        let angles: Vec<f64> = (-10..=10).map(|i| i as f64 * 0.05).collect();
        let mut out = vec![0.0; angles.len()];
        eval.gain_dbi_angles_into(FsaPort::A, 28e9, &angles, &mut out, true);
        let before = eval.stats();
        for (i, &a) in angles.iter().enumerate() {
            // Every scalar re-query must hit the memo seeded by the batch.
            assert_eq!(eval.gain_dbi(FsaPort::A, 28e9, a), out[i]);
        }
        let after = eval.stats();
        assert_eq!(after.gain_hits - before.gain_hits, angles.len() as u64);
        assert_eq!(after.gain_misses, before.gain_misses);
    }

    #[test]
    fn stats_track_hits_misses_and_batch_points() {
        let d = fsa();
        let eval = FsaGainEval::new(&d);
        assert_eq!(eval.stats(), FsaStats::default());
        let _ = eval.gain_dbi(FsaPort::A, 28e9, 0.1); // miss
        let _ = eval.gain_dbi(FsaPort::A, 28e9, 0.1); // hit
        let s = eval.stats();
        assert_eq!(s.gain_misses, 1);
        assert_eq!(s.gain_hits, 1);
        assert_eq!(s.freq_misses, 1);
        let mut out = [0.0; 4];
        eval.gain_linear_freqs_into(FsaPort::B, &[27e9, 28e9, 29e9, 30e9], 0.0, &mut out, false);
        assert_eq!(eval.stats().batch_points, 4);
        let before = eval.stats();
        let _ = eval.gain_dbi(FsaPort::A, 28e9, 0.1); // hit
        let delta = eval.stats().since(&before);
        assert_eq!(
            (delta.gain_hits, delta.gain_misses, delta.batch_points),
            (1, 0, 0)
        );
        // Clones start with fresh counters.
        assert_eq!(eval.clone().stats(), FsaStats::default());
    }
}

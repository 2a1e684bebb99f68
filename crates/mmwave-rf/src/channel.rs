//! The wireless channel: 2-D scene geometry, clutter, FMCW beat-signal
//! synthesis and tone-link budgets.
//!
//! # Modeling approach
//!
//! Synthesizing 3 GHz-wide passband signals sample-accurately would need
//! ~10 GS/s buffers. Instead we simulate the quantities each receiver
//! actually digitizes:
//!
//! * For FMCW localization the AP's mixer output (the *beat* signal) is a
//!   sum of low-frequency tones — one per echo at `f_b = slope·2d/c` with
//!   carrier phase `2π f₀ τ` — sampled at scope rates (tens of MS/s).
//!   Per-echo amplitudes may vary within the sweep (the FSA's reflection is
//!   frequency-selective; the node toggles at 10 kHz), which is exactly how
//!   AP-side orientation sensing and background subtraction work, so the
//!   synthesizer evaluates amplitude as a function of `(t, f_inst)`.
//! * For the node's downlink the detector digitizes *power vs time*, so we
//!   compute the received power trace through the FSA port gains.
//!
//! Both reductions are exact for the narrow-instantaneous-band signals the
//! paper uses (chirps and tones), not approximations of convenience.

use crate::propagation;
use mmwave_sigproc::complex::Complex;
use mmwave_sigproc::parallel;
use mmwave_sigproc::units::{wavelength, wrap_angle};
use mmwave_sigproc::waveform::{Chirp, ChirpShape};
use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// A point in the 2-D evaluation plane, meters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    /// x coordinate (AP boresight is +x by convention), meters.
    pub x: f64,
    /// y coordinate, meters.
    pub y: f64,
}

impl Vec2 {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance_to(self, other: Vec2) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Absolute bearing of `other` as seen from `self`, radians.
    pub fn bearing_to(self, other: Vec2) -> f64 {
        (other.y - self.y).atan2(other.x - self.x)
    }

    /// Polar construction: distance `r` at absolute angle `theta`.
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self {
            x: r * theta.cos(),
            y: r * theta.sin(),
        }
    }
}

/// Pose of a backscatter node: position plus the absolute direction its
/// FSA broadside faces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodePose {
    /// Node position, meters.
    pub position: Vec2,
    /// Absolute angle of the FSA broadside, radians.
    pub facing_rad: f64,
}

impl NodePose {
    /// A node at distance `r` on the AP's boresight (+x) facing back at the
    /// AP with its broadside rotated by `orientation_rad` — the standard
    /// placement of every experiment in §9.
    pub fn on_boresight(r: f64, orientation_rad: f64) -> Self {
        // Facing back toward the AP (at the origin) means facing −x = π;
        // the orientation offset rotates the broadside away from that.
        Self {
            position: Vec2::new(r, 0.0),
            facing_rad: PI + orientation_rad,
        }
    }

    /// Incidence angle ψ of the AP (at `ap_pos`) relative to the node's
    /// broadside — the "orientation" MilBack senses (§5.2).
    pub fn incidence_from(&self, ap_pos: Vec2) -> f64 {
        wrap_angle(self.position.bearing_to(ap_pos) - self.facing_rad)
    }
}

/// A static clutter reflector (wall, desk, shelf — §9's indoor objects).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Reflector {
    /// Position, meters.
    pub position: Vec2,
    /// Monostatic radar cross-section, m².
    pub rcs_m2: f64,
}

/// The AP's radio-frontend description needed for link budgets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApFrontend {
    /// AP position, meters.
    pub position: Vec2,
    /// Boresight direction of the (mechanically steered) horns, radians.
    pub boresight_rad: f64,
    /// Transmit power at the antenna port, dBm (27 dBm in the paper).
    pub tx_power_dbm: f64,
    /// TX horn gain, dBi.
    pub tx_gain_dbi: f64,
    /// RX horn gain, dBi (each of the two RX antennas).
    pub rx_gain_dbi: f64,
    /// Baseline between the two RX antennas, meters (sets AoA sensitivity).
    pub rx_baseline_m: f64,
}

impl ApFrontend {
    /// The paper's AP: 27 dBm, 20 dBi horns, λ/2 RX baseline at 28 GHz.
    pub fn milback_default() -> Self {
        Self {
            position: Vec2::new(0.0, 0.0),
            boresight_rad: 0.0,
            tx_power_dbm: 27.0,
            tx_gain_dbi: 20.0,
            rx_gain_dbi: 20.0,
            rx_baseline_m: wavelength(28e9) / 2.0,
        }
    }

    /// Azimuth of a target relative to the AP boresight, radians.
    pub fn azimuth_to(&self, target: Vec2) -> f64 {
        wrap_angle(self.position.bearing_to(target) - self.boresight_rad)
    }
}

/// One echo path for beat-signal synthesis. The amplitude closure receives
/// `(t_seconds_into_chirp, instantaneous_tx_freq_hz)` and returns the
/// complex amplitude (√watts at the mixer input, phase free to encode
/// modulation) of this echo at that instant.
///
/// The closure is `Send + Sync` so [`synthesize_beat_with_threads`] can
/// evaluate echoes from worker threads; amplitude models are pure functions
/// of `(t, f)` in practice, so the bounds cost nothing.
pub struct Echo<'a> {
    /// One-way distance of the reflector, meters.
    pub distance_m: f64,
    /// Additional fixed phase, radians (e.g. AoA inter-antenna phase).
    pub extra_phase_rad: f64,
    /// Complex amplitude as a function of time and instantaneous frequency.
    pub amplitude: Box<dyn Fn(f64, f64) -> Complex + Send + Sync + 'a>,
}

impl<'a> Echo<'a> {
    /// A static echo with constant amplitude (clutter).
    pub fn constant(distance_m: f64, amplitude_sqrt_w: f64) -> Self {
        Self {
            distance_m,
            extra_phase_rad: 0.0,
            amplitude: Box::new(move |_, _| Complex::real(amplitude_sqrt_w)),
        }
    }
}

/// Synthesizes the complex-baseband beat signal a sawtooth-FMCW receiver
/// digitizes for a set of echoes.
///
/// For each echo with round-trip delay τ, the dechirped output is
/// `a(t)·exp(j·2π(slope·τ·t + f₀·τ))` — a tone at the beat frequency with a
/// range-dependent carrier phase. Amplitudes are evaluated per sample so
/// switching tags and frequency-selective reflectors come out right.
///
/// # Panics
/// Panics for triangular chirps (beat processing in this stack is only
/// defined for the sawtooth localization chirps, §5.1).
pub fn synthesize_beat(chirp: &Chirp, echoes: &[Echo<'_>], sample_rate_hz: f64) -> Vec<Complex> {
    synthesize_beat_with_threads(chirp, echoes, sample_rate_hz, parallel::max_threads())
}

/// Samples per worker block in [`BeatPhasors`]; a standard 900-sample
/// localization chirp splits into four blocks.
const BEAT_BLOCK: usize = 256;

/// [`synthesize_beat`] with an explicit worker budget: one
/// [`BeatPhasors`] table, then one [`BeatPhasors::sum`]. The result is
/// bit-identical for every `threads` value (`threads <= 1` runs inline on
/// the caller).
pub fn synthesize_beat_with_threads(
    chirp: &Chirp,
    echoes: &[Echo<'_>],
    sample_rate_hz: f64,
    threads: usize,
) -> Vec<Complex> {
    BeatPhasors::new(chirp, echoes, sample_rate_hz, threads).sum(echoes, threads)
}

/// The carrier phasors of a fixed echo geometry over one chirp.
///
/// Entry `(i, e)` is `cis(2π·beat_hz·t + carrier_phase)` of echo `e` at
/// sample `i` (`t = i / fs`), stored sample-major. The table depends only on
/// each echo's distance and extra phase, never on its amplitude, so a
/// multi-chirp capture whose geometry holds still while its reflection
/// amplitudes toggle builds the table once and runs only
/// [`BeatPhasors::sum`] (amplitude closures) or [`BeatPhasors::sum_rows`]
/// (tabulated amplitudes) per chirp.
#[derive(Debug, Clone)]
pub struct BeatPhasors {
    chirp: Chirp,
    sample_rate_hz: f64,
    samples: usize,
    /// `(distance_m, extra_phase_rad)` of each echo, in echo order.
    geometry: Vec<(f64, f64)>,
    /// Sample-major phasors: `phasors[i * geometry.len() + e]`.
    phasors: Vec<Complex>,
}

impl BeatPhasors {
    /// Tabulates every echo's carrier phasor over one chirp, on up to
    /// `threads` workers (entries are independent, so the table is the
    /// same at any thread count).
    ///
    /// # Panics
    /// Panics for triangular chirps or a non-positive sample rate.
    pub fn new(chirp: &Chirp, echoes: &[Echo<'_>], sample_rate_hz: f64, threads: usize) -> Self {
        let geometry = echoes
            .iter()
            .map(|echo| (echo.distance_m, echo.extra_phase_rad))
            .collect();
        Self::from_geometry(chirp, geometry, sample_rate_hz, threads)
    }

    /// [`Self::new`] from the echoes' `(distance_m, extra_phase_rad)` alone,
    /// in echo order: the table never reads an amplitude, so echoes that
    /// hold still across captures can be tabulated before any capture
    /// draws its amplitudes.
    ///
    /// # Panics
    /// Panics for triangular chirps or a non-positive sample rate.
    pub fn from_geometry(
        chirp: &Chirp,
        geometry: Vec<(f64, f64)>,
        sample_rate_hz: f64,
        threads: usize,
    ) -> Self {
        assert!(
            chirp.shape == ChirpShape::Sawtooth,
            "beat synthesis requires a sawtooth chirp"
        );
        assert!(sample_rate_hz > 0.0);
        let samples = (chirp.duration_s * sample_rate_hz).round() as usize;
        let slope = chirp.slope();
        let pre: Vec<(f64, f64)> = geometry
            .iter()
            .map(|&(distance_m, extra_phase_rad)| {
                let tau = propagation::round_trip_delay_s(distance_m);
                let beat_hz = slope * tau;
                let carrier_phase = 2.0 * PI * chirp.start_hz * tau + extra_phase_rad;
                (beat_hz, carrier_phase)
            })
            .collect();
        let width = pre.len();
        let mut phasors = vec![mmwave_sigproc::complex::ZERO; samples * width];
        if width > 0 {
            parallel::for_each_chunk(&mut phasors, BEAT_BLOCK * width, threads, |start, rows| {
                for (r, row) in rows.chunks_exact_mut(width).enumerate() {
                    let t = (start / width + r) as f64 / sample_rate_hz;
                    for (p, &(beat_hz, carrier_phase)) in row.iter_mut().zip(&pre) {
                        *p = Complex::cis(2.0 * PI * beat_hz * t + carrier_phase);
                    }
                }
            });
        }
        Self {
            chirp: *chirp,
            sample_rate_hz,
            samples,
            geometry,
            phasors,
        }
    }

    /// One chirp's beat signal: at each sample, the echoes'
    /// `amplitude(t, f_inst) · phasor` summed in echo order from zero.
    /// Output samples are split into `BEAT_BLOCK`-sized blocks over up to
    /// `threads` workers; each sample's sum is the same at any thread count.
    ///
    /// # Panics
    /// Panics unless `echoes` has exactly the distances and extra phases
    /// (to the bit, in order) the table was built from.
    pub fn sum(&self, echoes: &[Echo<'_>], threads: usize) -> Vec<Complex> {
        assert!(
            echoes.len() == self.geometry.len()
                && echoes.iter().zip(&self.geometry).all(|(echo, &(d, phi))| {
                    echo.distance_m.to_bits() == d.to_bits()
                        && echo.extra_phase_rad.to_bits() == phi.to_bits()
                }),
            "echo geometry differs from the phasor table's"
        );
        let (chirp, fs, width) = (&self.chirp, self.sample_rate_hz, self.geometry.len());
        let mut out = vec![mmwave_sigproc::complex::ZERO; self.samples];
        parallel::for_each_chunk(&mut out, BEAT_BLOCK, threads, |start, block| {
            for (i, sample) in block.iter_mut().enumerate() {
                let s = start + i;
                let t = s as f64 / fs;
                let f_inst = chirp.instantaneous_freq(t);
                let row = &self.phasors[s * width..(s + 1) * width];
                for (echo, &phasor) in echoes.iter().zip(row) {
                    *sample += (echo.amplitude)(t, f_inst) * phasor;
                }
            }
        });
        out
    }

    /// One chirp's beat signal from tabulated amplitudes: the echoes are
    /// this table's followed by `tail`'s. The first `real.len()` echoes
    /// have the constant real amplitudes `real`; every later echo `e` has
    /// amplitude `rows[s · w + e']` at sample `s`, where `w` is the number
    /// of later echoes and `e'` the echo's place among them. Each sample
    /// adds `Complex::real(real[e]) · phasor`, then `row · phasor`, in echo
    /// order from zero, so the result is bit-identical with [`Self::sum`]
    /// over closures returning those amplitudes (at `t = s / fs`), with no
    /// closure call per sample. A capture whose amplitudes repeat chirp to
    /// chirp tabulates them once and calls this per chirp. Blocks split
    /// over `threads` as in [`Self::sum`].
    ///
    /// # Panics
    /// Panics unless the two tables share a chirp and sample rate,
    /// `real` covers at most this table's echoes and `rows` holds `w`
    /// amplitudes per sample.
    pub fn sum_rows(
        &self,
        tail: &BeatPhasors,
        real: &[f64],
        rows: &[Complex],
        threads: usize,
    ) -> Vec<Complex> {
        assert!(
            self.chirp == tail.chirp
                && self.sample_rate_hz.to_bits() == tail.sample_rate_hz.to_bits(),
            "phasor tables cover different chirps"
        );
        let (head_w, tail_w) = (self.geometry.len(), tail.geometry.len());
        assert!(real.len() <= head_w, "more real amplitudes than echoes");
        let w = head_w - real.len() + tail_w;
        assert!(
            rows.len() == self.samples * w,
            "amplitude rows do not cover the chirp"
        );
        let mut out = vec![mmwave_sigproc::complex::ZERO; self.samples];
        parallel::for_each_chunk(&mut out, BEAT_BLOCK, threads, |start, block| {
            for (i, sample) in block.iter_mut().enumerate() {
                let s = start + i;
                let (fixed, tabulated) =
                    self.phasors[s * head_w..(s + 1) * head_w].split_at(real.len());
                let (head_amps, tail_amps) = rows[s * w..(s + 1) * w].split_at(tabulated.len());
                let mut acc = mmwave_sigproc::complex::ZERO;
                for (&a, &phasor) in real.iter().zip(fixed) {
                    acc += Complex::real(a) * phasor;
                }
                for (&a, &phasor) in head_amps.iter().zip(tabulated) {
                    acc += a * phasor;
                }
                for (&a, &phasor) in tail_amps
                    .iter()
                    .zip(&tail.phasors[s * tail_w..(s + 1) * tail_w])
                {
                    acc += a * phasor;
                }
                *sample = acc;
            }
        });
        out
    }
}

/// Received power (watts) at a receive aperture of linear gain `rx_gain`
/// from a transmitter of `tx_power_w`/`tx_gain` at `distance_m`, `freq_hz`.
pub fn received_power_w(
    tx_power_w: f64,
    tx_gain_linear: f64,
    rx_gain_linear: f64,
    freq_hz: f64,
    distance_m: f64,
) -> f64 {
    assert!(distance_m > 0.0, "distance must be positive");
    let lambda = wavelength(freq_hz);
    tx_power_w * tx_gain_linear * rx_gain_linear * (lambda / (4.0 * PI * distance_m)).powi(2)
}

/// Amplitude (√watts) of a backscatter echo at the AP's mixer input: the
/// two-way radar link with the tag's round-trip gain product and reflection
/// coefficient applied.
pub fn backscatter_amplitude_sqrt_w(
    tx_power_w: f64,
    ap_tx_gain_linear: f64,
    ap_rx_gain_linear: f64,
    tag_gain_product_linear: f64,
    reflection_amplitude: f64,
    freq_hz: f64,
    distance_m: f64,
) -> f64 {
    assert!(distance_m > 0.0);
    let lambda = wavelength(freq_hz);
    let one_way = (lambda / (4.0 * PI * distance_m)).powi(2);
    (tx_power_w
        * ap_tx_gain_linear
        * ap_rx_gain_linear
        * tag_gain_product_linear
        * one_way
        * one_way)
        .sqrt()
        * reflection_amplitude
}

/// Amplitude (√watts) of a clutter echo of RCS `sigma_m2`.
pub fn clutter_amplitude_sqrt_w(
    tx_power_w: f64,
    ap_tx_gain_linear: f64,
    ap_rx_gain_linear: f64,
    sigma_m2: f64,
    freq_hz: f64,
    distance_m: f64,
) -> f64 {
    assert!(distance_m > 0.0 && sigma_m2 >= 0.0);
    let lambda = wavelength(freq_hz);
    (tx_power_w * ap_tx_gain_linear * ap_rx_gain_linear * lambda * lambda * sigma_m2
        / ((4.0 * PI).powi(3) * distance_m.powi(4)))
    .sqrt()
}

/// Structural ("mirror") reflection of the node's FSA ground plane (§9.3):
/// a specular return that is strongest when the board is normal to the AP
/// and rolls off as the board rotates away. `leakage` is the fraction of
/// this reflection that varies with the node's switching state and thus
/// survives background subtraction — the cause of the elevated AP-side
/// orientation error near −6°…−2°.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MirrorReflection {
    /// Peak specular RCS at normal incidence, m².
    pub peak_rcs_m2: f64,
    /// Angular rolloff width (Gaussian σ), radians.
    pub width_rad: f64,
    /// Fraction of the mirror amplitude modulated by node switching (0..1).
    pub switching_leakage: f64,
    /// Range offset of the structural reflection from the antenna phase
    /// center, m. The offset separates the mirror's beat tone from the
    /// node's by a few hundred kHz, so their interference ripples across
    /// the chirp and biases the AP-side orientation peak near normal
    /// incidence (the Fig 13b error bump).
    pub range_offset_m: f64,
}

impl MirrorReflection {
    /// Defaults calibrated to reproduce the Fig 13b error bump.
    pub fn milback_default() -> Self {
        Self {
            peak_rcs_m2: 0.02,
            width_rad: 4f64.to_radians(),
            switching_leakage: 0.12,
            range_offset_m: 0.03,
        }
    }

    /// Effective specular RCS at incidence angle ψ.
    pub fn rcs_at(&self, incidence_rad: f64) -> f64 {
        let x = incidence_rad / self.width_rad;
        self.peak_rcs_m2 * (-x * x).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_sigproc::fft::{fft, fft_frequencies};
    use mmwave_sigproc::random::GaussianSource;

    #[test]
    fn beat_synthesis_bit_exact_across_thread_counts() {
        let chirp = Chirp::sawtooth(26.5e9, 3e9, 18e-6);
        let echoes = vec![
            Echo::constant(3.0, 1e-4),
            Echo::constant(5.5, 2e-5),
            Echo::constant(9.1, 7e-6),
        ];
        let serial = synthesize_beat_with_threads(&chirp, &echoes, 50e6, 1);
        assert_eq!(serial.len(), 900);
        for threads in [2usize, 4, 7] {
            let par = synthesize_beat_with_threads(&chirp, &echoes, 50e6, threads);
            assert!(
                par == serial,
                "threads={threads} diverges from serial synthesis"
            );
        }
    }

    /// The per-sample synthesis loop beat synthesis used before the
    /// table/sum split: a fresh `cis` for every echo at every sample.
    fn reference_beat(chirp: &Chirp, echoes: &[Echo<'_>], fs: f64) -> Vec<Complex> {
        let n = (chirp.duration_s * fs).round() as usize;
        let slope = chirp.slope();
        let pre: Vec<(f64, f64)> = echoes
            .iter()
            .map(|echo| {
                let tau = propagation::round_trip_delay_s(echo.distance_m);
                (
                    slope * tau,
                    2.0 * PI * chirp.start_hz * tau + echo.extra_phase_rad,
                )
            })
            .collect();
        (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                let f_inst = chirp.instantaneous_freq(t);
                let mut sample = mmwave_sigproc::complex::ZERO;
                for (echo, &(beat_hz, carrier_phase)) in echoes.iter().zip(&pre) {
                    let a = (echo.amplitude)(t, f_inst);
                    sample += a * Complex::cis(2.0 * PI * beat_hz * t + carrier_phase);
                }
                sample
            })
            .collect()
    }

    /// A random echo set: 0–12 echoes at 0.5–12 m with non-zero extra
    /// phases, constant or `(t, f)`-dependent complex amplitudes.
    fn random_echoes(rng: &mut GaussianSource) -> Vec<Echo<'static>> {
        let count = (rng.uniform(0.0, 13.0) as usize).min(12);
        (0..count)
            .map(|_| {
                let distance_m = rng.uniform(0.5, 12.0);
                let extra_phase_rad = rng.uniform(-PI, PI);
                let amp = Complex::new(rng.sample(1e-4), rng.sample(1e-4));
                let amplitude: Box<dyn Fn(f64, f64) -> Complex + Send + Sync> =
                    if rng.uniform(0.0, 1.0) < 0.5 {
                        Box::new(move |_, _| amp)
                    } else {
                        let (rate, f_ref) = (rng.uniform(1e5, 1e6), rng.uniform(26.5e9, 29.5e9));
                        Box::new(move |t, f| {
                            amp.scale((2.0 * PI * rate * t).sin() + 1e-10 * (f - f_ref))
                        })
                    };
                Echo {
                    distance_m,
                    extra_phase_rad,
                    amplitude,
                }
            })
            .collect()
    }

    fn bits(x: &[Complex]) -> Vec<(u64, u64)> {
        x.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    #[test]
    fn table_and_sum_match_per_sample_reference_bit_exactly() {
        let chirp = Chirp::sawtooth(26.5e9, 3e9, 18e-6);
        let fs = 50e6;
        let mut rng = GaussianSource::new(0xBEA7);
        for _ in 0..24 {
            let echoes = random_echoes(&mut rng);
            let want = bits(&reference_beat(&chirp, &echoes, fs));
            for threads in [1usize, 2, 4, 8] {
                let got = synthesize_beat_with_threads(&chirp, &echoes, fs, threads);
                assert!(
                    bits(&got) == want,
                    "{} echoes, threads={threads}: diverges from reference",
                    echoes.len()
                );
            }
        }
    }

    #[test]
    fn one_table_serves_every_chirp_of_a_fixed_geometry() {
        // Same distances and phases, new amplitudes per chirp: one table,
        // many sums, each bit-exact with a from-scratch synthesis.
        let chirp = Chirp::sawtooth(26.5e9, 3e9, 18e-6);
        let fs = 50e6;
        let mut rng = GaussianSource::new(77);
        let geometry: Vec<(f64, f64)> = (0..8)
            .map(|_| (rng.uniform(0.5, 12.0), rng.uniform(-PI, PI)))
            .collect();
        let chirp_echoes = |k: usize| -> Vec<Echo<'static>> {
            geometry
                .iter()
                .enumerate()
                .map(|(e, &(distance_m, extra_phase_rad))| {
                    let a = if (k + e).is_multiple_of(2) {
                        1e-4
                    } else {
                        2e-5
                    };
                    Echo {
                        distance_m,
                        extra_phase_rad,
                        amplitude: Box::new(move |t, _| Complex::real(a * (1.0 + t))),
                    }
                })
                .collect()
        };
        let table = BeatPhasors::new(&chirp, &chirp_echoes(0), fs, 2);
        for k in 0..5 {
            let echoes = chirp_echoes(k);
            let beat = table.sum(&echoes, 3);
            assert_eq!(beat.len(), 900);
            assert!(bits(&beat) == bits(&reference_beat(&chirp, &echoes, fs)));
        }
    }

    #[test]
    fn tabulated_rows_sum_like_closures() {
        // Random echo sets split into a head table (leading echoes with
        // constant real amplitudes, then tabulated ones) and a tail table,
        // at every split point (empty head and empty tail included), with
        // signed-zero amplitudes mixed in: the row kernel matches `sum`
        // over boxed closures to the bit at any thread count.
        let chirp = Chirp::sawtooth(26.5e9, 3e9, 18e-6);
        let fs = 50e6;
        let samples = (chirp.duration_s * fs).round() as usize;
        let mut rng = GaussianSource::new(0x5B11);
        for set in 0..8 {
            let geometry: Vec<(f64, f64)> = (0..set + (rng.uniform(0.0, 4.0) as usize))
                .map(|_| (rng.uniform(0.5, 12.0), rng.uniform(-PI, PI)))
                .collect();
            // One echo in three has amplitude +0.0, one in three −0.0.
            let signed_zero = |e: usize| match (e + set) % 3 {
                0 => Some(0.0),
                1 => Some(-0.0),
                _ => None,
            };
            for real_len in 0..=geometry.len() {
                // Leading echoes: constant real amplitudes.
                let real: Vec<f64> = (0..real_len)
                    .map(|e| signed_zero(e).unwrap_or_else(|| rng.sample(1e-4)))
                    .collect();
                // Later echoes: per-sample complex amplitudes.
                let w = geometry.len() - real_len;
                let rows: Vec<Complex> = (0..samples * w)
                    .map(|i| match signed_zero(real_len + i % w) {
                        Some(z) => Complex::new(z, -z),
                        None => Complex::new(rng.sample(1e-4), rng.sample(1e-4)),
                    })
                    .collect();
                let rows = &rows[..];
                let echoes: Vec<Echo<'_>> = geometry
                    .iter()
                    .enumerate()
                    .map(|(e, &(distance_m, extra_phase_rad))| Echo {
                        distance_m,
                        extra_phase_rad,
                        amplitude: if e < real_len {
                            let a = real[e];
                            Box::new(move |_, _| Complex::real(a))
                        } else {
                            Box::new(move |t: f64, _| {
                                rows[(t * fs).round() as usize * w + e - real_len]
                            })
                        },
                    })
                    .collect();
                let want = bits(&BeatPhasors::new(&chirp, &echoes, fs, 1).sum(&echoes, 1));
                for split in real_len..=geometry.len() {
                    let head =
                        BeatPhasors::from_geometry(&chirp, geometry[..split].to_vec(), fs, 2);
                    let tail =
                        BeatPhasors::from_geometry(&chirp, geometry[split..].to_vec(), fs, 1);
                    for threads in [1usize, 2, 4] {
                        let got = head.sum_rows(&tail, &real, rows, threads);
                        assert!(
                            bits(&got) == want,
                            "{} echoes, {real_len} real, split at {split}, threads={threads}",
                            geometry.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "geometry")]
    fn sum_rejects_a_different_geometry() {
        let chirp = Chirp::sawtooth(26.5e9, 3e9, 18e-6);
        let table = BeatPhasors::new(&chirp, &[Echo::constant(3.0, 1.0)], 50e6, 1);
        table.sum(&[Echo::constant(3.5, 1.0)], 1);
    }

    #[test]
    fn vec2_distance_and_bearing() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(3.0, 4.0);
        assert!((a.distance_to(b) - 5.0).abs() < 1e-12);
        assert!((a.bearing_to(b) - (4.0f64 / 3.0).atan()).abs() < 1e-12);
        let c = Vec2::from_polar(2.0, PI / 2.0);
        assert!(c.x.abs() < 1e-12 && (c.y - 2.0).abs() < 1e-12);
    }

    #[test]
    fn on_boresight_pose_geometry() {
        let ap = Vec2::new(0.0, 0.0);
        // Facing straight back at the AP: zero incidence.
        let n0 = NodePose::on_boresight(3.0, 0.0);
        assert!(n0.incidence_from(ap).abs() < 1e-12);
        // Rotated by +10°: incidence −10° (AP appears 10° off broadside).
        let n10 = NodePose::on_boresight(3.0, 10f64.to_radians());
        assert!((n10.incidence_from(ap) + 10f64.to_radians()).abs() < 1e-12);
    }

    #[test]
    fn ap_azimuth_convention() {
        let ap = ApFrontend::milback_default();
        assert!(ap.azimuth_to(Vec2::new(5.0, 0.0)).abs() < 1e-12);
        let az = ap.azimuth_to(Vec2::new(3.0, 3.0));
        assert!((az - PI / 4.0).abs() < 1e-12);
    }

    #[test]
    fn beat_tone_lands_at_predicted_frequency() {
        let chirp = Chirp::sawtooth(26.5e9, 3e9, 18e-6);
        let fs = 50e6;
        let d = 4.0;
        let echo = Echo::constant(d, 1e-4);
        let beat = synthesize_beat(&chirp, &[echo], fs);
        let spec = fft(&beat);
        let freqs = fft_frequencies(spec.len(), fs);
        let mags: Vec<f64> = spec.iter().map(|z| z.norm()).collect();
        let peak = mmwave_sigproc::detect::find_peak(&mags).unwrap();
        let expected = propagation::beat_frequency_hz(chirp.slope(), d);
        let measured = freqs[peak.index];
        assert!(
            (measured - expected).abs() < fs / beat.len() as f64 * 1.5,
            "beat at {measured:.3e}, expected {expected:.3e}"
        );
    }

    #[test]
    fn two_echoes_two_beat_tones() {
        let chirp = Chirp::sawtooth(26.5e9, 3e9, 18e-6);
        let fs = 50e6;
        let beat = synthesize_beat(
            &chirp,
            &[Echo::constant(2.0, 1e-4), Echo::constant(6.0, 1e-4)],
            fs,
        );
        let mags: Vec<f64> = fft(&beat).iter().map(|z| z.norm()).collect();
        let peaks = mmwave_sigproc::detect::find_peaks(
            &mags,
            mags.iter().cloned().fold(0.0, f64::max) / 3.0,
            4,
        );
        assert!(peaks.len() >= 2, "expected two beat tones");
    }

    #[test]
    fn beat_carrier_phase_tracks_range() {
        // Moving the target by λ/4 (round trip λ/2) flips the beat phase by π.
        let chirp = Chirp::sawtooth(26.5e9, 3e9, 18e-6);
        let fs = 50e6;
        let lambda = wavelength(26.5e9);
        let b1 = synthesize_beat(&chirp, &[Echo::constant(3.0, 1.0)], fs);
        let b2 = synthesize_beat(&chirp, &[Echo::constant(3.0 + lambda / 4.0, 1.0)], fs);
        let dphi = wrap_angle(b2[0].arg() - b1[0].arg());
        assert!((dphi.abs() - PI).abs() < 0.05, "phase step {dphi}");
    }

    #[test]
    fn extra_phase_shifts_output() {
        let chirp = Chirp::sawtooth(26.5e9, 3e9, 18e-6);
        let fs = 50e6;
        let mk = |phi: f64| Echo {
            distance_m: 3.0,
            extra_phase_rad: phi,
            amplitude: Box::new(|_, _| Complex::real(1.0)),
        };
        let b0 = synthesize_beat(&chirp, &[mk(0.0)], fs);
        let b1 = synthesize_beat(&chirp, &[mk(0.7)], fs);
        let d = wrap_angle(b1[10].arg() - b0[10].arg());
        assert!((d - 0.7).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "sawtooth")]
    fn beat_synthesis_rejects_triangular() {
        let chirp = Chirp::triangular(26.5e9, 3e9, 45e-6);
        synthesize_beat(&chirp, &[], 50e6);
    }

    #[test]
    fn time_varying_amplitude_modulates_beat() {
        // A 10 kHz-toggled echo (as during localization) has energy and
        // silence segments... within one 18 µs chirp the state is constant,
        // so toggle at 200 kHz here to see it inside a single sweep.
        let chirp = Chirp::sawtooth(26.5e9, 3e9, 18e-6);
        let fs = 50e6;
        let echo = Echo {
            distance_m: 3.0,
            extra_phase_rad: 0.0,
            amplitude: Box::new(|t, _| {
                if ((t * 200e3) as u64).is_multiple_of(2) {
                    Complex::real(1.0)
                } else {
                    Complex::real(0.0)
                }
            }),
        };
        let beat = synthesize_beat(&chirp, &[echo], fs);
        let on: Vec<f64> = beat.iter().map(|z| z.norm()).collect();
        assert!(on.iter().any(|&v| v > 0.5) && on.iter().any(|&v| v < 1e-9));
    }

    #[test]
    fn received_power_matches_friis_db_form() {
        let p = received_power_w(0.5, 100.0, 20.0, 28e9, 8.0);
        let db_form = propagation::friis_dbm(
            mmwave_sigproc::units::watts_to_dbm(0.5),
            20.0,
            13.0103,
            28e9,
            8.0,
        );
        let p_db = mmwave_sigproc::units::watts_to_dbm(p);
        assert!((p_db - db_form).abs() < 0.01, "{p_db} vs {db_form}");
    }

    #[test]
    fn backscatter_amplitude_squares_to_radar_equation() {
        let a = backscatter_amplitude_sqrt_w(0.5, 100.0, 100.0, 400.0, 1.0, 28e9, 5.0);
        let p_dbm = mmwave_sigproc::units::watts_to_dbm(a * a);
        let reference = propagation::backscatter_dbm(
            mmwave_sigproc::units::watts_to_dbm(0.5),
            20.0,
            20.0,
            26.0206,
            0.0,
            28e9,
            5.0,
        );
        assert!((p_dbm - reference).abs() < 0.01, "{p_dbm} vs {reference}");
    }

    #[test]
    fn clutter_amplitude_squares_to_radar_clutter() {
        let a = clutter_amplitude_sqrt_w(0.5, 100.0, 100.0, 1.0, 28e9, 3.0);
        let p_dbm = mmwave_sigproc::units::watts_to_dbm(a * a);
        let reference = propagation::radar_clutter_dbm(
            mmwave_sigproc::units::watts_to_dbm(0.5),
            20.0,
            20.0,
            1.0,
            28e9,
            3.0,
        );
        assert!((p_dbm - reference).abs() < 0.01);
    }

    #[test]
    fn mirror_reflection_peaks_at_normal() {
        let m = MirrorReflection::milback_default();
        assert!(m.rcs_at(0.0) > m.rcs_at(5f64.to_radians()));
        assert!(m.rcs_at(20f64.to_radians()) < m.peak_rcs_m2 * 1e-5);
        assert!((m.rcs_at(0.0) - m.peak_rcs_m2).abs() < 1e-15);
    }

    #[test]
    fn mirror_reflection_is_symmetric() {
        let m = MirrorReflection::milback_default();
        assert!((m.rcs_at(0.05) - m.rcs_at(-0.05)).abs() < 1e-15);
    }
}

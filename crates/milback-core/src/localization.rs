//! The joint localization / orientation pipeline (§5, §9.2–9.3): scene →
//! five-chirp two-channel captures → background subtraction → range, angle
//! and orientation estimates.
//!
//! # Impairment model
//!
//! A textbook-clean simulation of this pipeline produces millimeter range
//! errors — far better than the centimeters the paper measures — because
//! the prototype's errors are dominated by systematics, not thermal noise.
//! The physical mechanisms modeled explicitly (all ablatable via
//! [`Impairments`]):
//!
//! * **Ground-bounce multipath** — the floor bounce's excess path `≈ h²/r`
//!   shrinks below the 5 cm range cell at long range and pulls the
//!   interpolated peak; its amplitude passes the AP horn off-axis once, so
//!   short range is protected and long range is not (the Fig 12a growth).
//! * **Clutter flicker** — the environment echo is not perfectly static
//!   chirp-to-chirp (generator phase noise, mechanical vibration), so
//!   background subtraction leaves a residual proportional to the clutter
//!   strength.
//! * **Sweep-stitch mismatch** — footnote 2: the 3 GHz sweep is two 2 GHz
//!   generator sweeps patched in processing; the patch calibration error
//!   is a constant complex factor on the upper sub-band per capture.
//! * **Mirror leakage** — the FSA ground plane's specular reflection varies
//!   slightly with the switch state and originates a few cm from the
//!   antenna phase center, surviving subtraction and biasing estimates
//!   near normal incidence (the Fig 13b error bump).
//! * **RX chain phase mismatch** — per-trial phase error between the two
//!   receive chains, the dominant AoA error (Fig 12b).
//! * **Lateral multipath at the node** — desk/shelf scatter ripples the
//!   received-power envelope per port (the Fig 13a error).
//! * **Placement error** — the laser-meter/protractor ground-truth floor.

use crate::config::SystemConfig;
use crate::error::{MilbackError, Result};
use crate::scene::Scene;
use milback_ap::aoa::AoaEstimator;
use milback_ap::fmcw::{FmcwProcessor, FmcwScratch};
use milback_ap::orientation::ApOrientationEstimator;
use milback_node::orientation::OrientationEstimator;
use mmwave_rf::antenna::fsa::{FsaGainEval, FsaPort};
use mmwave_rf::antenna::Antenna;
use mmwave_rf::channel::{
    backscatter_amplitude_sqrt_w, clutter_amplitude_sqrt_w, received_power_w, BeatPhasors, Vec2,
};
use mmwave_sigproc::complex::Complex;
use mmwave_sigproc::parallel;
use mmwave_sigproc::random::GaussianSource;
use mmwave_sigproc::units::{db_to_lin, dbm_to_watts, noise_power_watts};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::OnceLock;

thread_local! {
    /// Each thread's FFT workspace for the localization fix:
    /// its buffers grow to the five-chirp stack once and are reused by
    /// every later fix on the thread, and pipelines stay `Sync` with no
    /// lock. No result depends on the workspace's incoming contents.
    static FMCW_SCRATCH: RefCell<FmcwScratch> = RefCell::new(FmcwScratch::new());
}

/// Systematic-impairment knobs (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Impairments {
    /// Fractional chirp-to-chirp amplitude jitter of clutter echoes.
    pub clutter_flicker: f64,
    /// RMS phase step (radians) at the 2×2 GHz sweep-stitch junction.
    pub stitch_phase_rad: f64,
    /// Ground-truth placement/measurement error (laser + protractor), m.
    pub placement_error_m: f64,
    /// Antenna height above the floor, m — sets the ground-bounce
    /// multipath geometry. The bounce's excess path `≈ h²/r` shrinks with
    /// distance, so at long range the bounce becomes *unresolvable* from
    /// the direct echo and pulls the interpolated range peak: this is why
    /// ranging error grows with distance (Fig 12a) even though the echo is
    /// still well above the noise floor.
    pub bounce_height_m: f64,
    /// Per-trial height uncertainty, m (randomizes the bounce phase).
    pub bounce_height_jitter_m: f64,
    /// Grazing-angle constant for the floor reflection magnitude:
    /// `|ρ| = exp(−θ_grazing/θ₀)` — stronger as the geometry flattens.
    pub bounce_theta0_rad: f64,
    /// Per-trial phase mismatch between the two RX chains (cables,
    /// connectors, mixer LO paths), radians RMS — the dominant AoA error
    /// source for a connectorized 28 GHz lab setup (Fig 12b).
    pub rx_phase_jitter_rad: f64,
    /// Amplitude of lateral multipath (desk/shelf scatter) reaching the
    /// node, relative to the direct path — ripples the received-power
    /// envelope across the sweep and is the dominant node-side orientation
    /// error (Fig 13a).
    pub node_multipath_amp: f64,
    /// Excess-path range (min, max) of that lateral multipath, m.
    pub node_multipath_delta_m: (f64, f64),
}

impl Impairments {
    /// Calibrated so the Fig 12a/12b error magnitudes reproduce.
    pub fn milback_default() -> Self {
        Self {
            clutter_flicker: 5e-4,
            stitch_phase_rad: 0.35,
            placement_error_m: 0.012,
            bounce_height_m: 0.4,
            bounce_height_jitter_m: 0.05,
            bounce_theta0_rad: 0.6,
            rx_phase_jitter_rad: 0.08,
            node_multipath_amp: 0.13,
            node_multipath_delta_m: (0.05, 0.5),
        }
    }

    /// No impairments — the textbook-clean ablation.
    pub fn none() -> Self {
        Self {
            clutter_flicker: 0.0,
            stitch_phase_rad: 0.0,
            placement_error_m: 0.0,
            bounce_height_m: 1.0,
            bounce_height_jitter_m: 0.0,
            bounce_theta0_rad: 0.0, // ρ = 0: no bounce energy
            rx_phase_jitter_rad: 0.0,
            node_multipath_amp: 0.0,
            node_multipath_delta_m: (0.05, 0.5),
        }
    }

    /// Floor-bounce amplitude relative to the direct echo at range `r`.
    pub(crate) fn bounce_relative_amplitude(&self, r: f64) -> f64 {
        if self.bounce_theta0_rad <= 0.0 {
            return 0.0;
        }
        let grazing = (2.0 * self.bounce_height_m / r).atan();
        (-grazing / self.bounce_theta0_rad).exp()
    }

    /// One-way excess path of the bounce at range `r` (AP→node direct,
    /// node→AP via floor): `≈ h²/r`.
    pub(crate) fn bounce_excess_one_way_m(&self, r: f64, h: f64) -> f64 {
        ((r / 2.0).hypot(h) * 2.0 - r) / 2.0
    }
}

/// A complete localization fix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocationFix {
    /// Estimated range, meters.
    pub range_m: f64,
    /// Estimated azimuth from AP boresight, radians.
    pub angle_rad: f64,
    /// The implied 2-D position in AP coordinates.
    pub position: Vec2,
    /// Detection confidence (peak-to-floor), dB.
    pub confidence_db: f64,
}

/// Which ports toggle during a capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToggleSelection {
    /// Port A toggles reflective/absorptive chirp-to-chirp.
    pub a: bool,
    /// Port B toggles.
    pub b: bool,
}

/// The end-to-end localization pipeline for one scene.
#[derive(Debug, Clone)]
pub struct LocalizationPipeline {
    /// System configuration.
    pub config: SystemConfig,
    /// Physical scene.
    pub scene: Scene,
    /// Impairment model.
    pub impairments: Impairments,
    /// The FMCW processor (Field-2 chirp at the digitizer rate).
    pub processor: FmcwProcessor,
    /// The AoA estimator.
    pub aoa: AoaEstimator,
    /// Memoized FSA gain evaluator for the node's dual-port antenna,
    /// shared across captures and trials (bit-exact with the direct path).
    /// Rebuilt by [`LocalizationPipeline::new`]; if `config.node.fsa` is
    /// mutated afterwards the evaluator must be refreshed too. It is only
    /// queried while the capture tables below are built, so once they are
    /// warm later captures make no FSA queries at all.
    pub gain_eval: FsaGainEval,
    /// Worker budget for beat-signal synthesis inside [`Self::capture`].
    /// Defaults to [`parallel::max_threads`]; trial-parallel experiment
    /// runners set this to 1 so trials are the only scaling axis (results
    /// are bit-identical either way).
    pub beat_threads: usize,
    /// The pose-static capture state: pure functions of `config`, `scene`,
    /// `processor` and `aoa`, each built on the first capture that needs it
    /// and reused by every later capture, trial and clone. Like
    /// `gain_eval`, they are not rebuilt if those fields change after a
    /// capture has run; build a new pipeline for a new pose instead.
    tables: CaptureTables,
}

/// The capture work that depends only on the pose, each part filled on
/// first use. `OnceLock` keeps a shared pipeline `Sync`: trial runners
/// that capture through one pipeline from many threads fill each part
/// once and read it everywhere. Every entry is computed by the same
/// expressions the per-capture path would evaluate, so captures through
/// warm tables are bit-identical with captures through cold ones.
#[derive(Debug, Clone, Default)]
struct CaptureTables {
    field1: OnceLock<Vec<(f64, f64)>>,
    field2: OnceLock<Field2Tables>,
}

/// The pose-static part of a Field-2 capture.
#[derive(Debug, Clone)]
struct Field2Tables {
    /// `(port-A gain, port-B gain)` at each beat-grid sample, at the
    /// node's incidence.
    gains: Vec<(f64, f64)>,
    /// Per clutter reflector: `(distance, amplitude, RX2 inter-antenna
    /// phase)`.
    clutter: Vec<(f64, f64, f64)>,
    /// RX1 phasors of the echoes every capture shares, in echo order:
    /// clutter, mirror, node. Only the floor bounces (jittered height)
    /// follow them, tabulated per capture.
    rx1: BeatPhasors,
    /// RX2 phasors of the clutter echoes. The mirror, node and bounce
    /// echoes after them carry the per-capture AoA phase.
    rx2: BeatPhasors,
}

impl LocalizationPipeline {
    /// Builds the pipeline with the paper's processing parameters.
    pub fn new(config: SystemConfig, scene: Scene) -> Result<Self> {
        config.validate()?;
        if scene.nodes.is_empty() {
            return Err(MilbackError::Config("scene has no nodes".into()));
        }
        let processor =
            FmcwProcessor::new(config.fmcw.field2_chirp(), config.ap.rx1.digitizer_rate_hz);
        let aoa = AoaEstimator::milback_default();
        let gain_eval = FsaGainEval::for_dual(&config.node.fsa);
        Ok(Self {
            config,
            scene,
            impairments: Impairments::milback_default(),
            processor,
            aoa,
            gain_eval,
            beat_threads: parallel::max_threads(),
            tables: CaptureTables::default(),
        })
    }

    /// Replaces the impairment model (for ablations).
    pub fn with_impairments(mut self, imp: Impairments) -> Self {
        self.impairments = imp;
        self
    }

    /// Sets the worker budget for beat synthesis (see
    /// [`LocalizationPipeline::beat_threads`]).
    pub fn with_beat_threads(mut self, threads: usize) -> Self {
        self.beat_threads = threads.max(1);
        self
    }

    /// Synthesizes `n_chirps` Field-2 captures on both RX channels while
    /// the node toggles the selected ports chirp-to-chirp.
    pub fn capture(
        &self,
        n_chirps: usize,
        toggles: ToggleSelection,
        rng: &mut GaussianSource,
    ) -> (Vec<Vec<Complex>>, Vec<Vec<Complex>>) {
        self.capture_channels(n_chirps, toggles, n_chirps, rng)
    }

    /// [`Self::capture`], synthesizing only the first `rx2_chirps` chirps
    /// of RX2 (the returned RX2 stack has that many). Every chirp past them
    /// still draws RX2's noise after RX1's, so the RNG stream (and thus
    /// every later draw) is the same as a full capture's.
    ///
    /// The echo geometry (distances and extra phases) holds still for the
    /// whole capture, and the echo amplitudes depend only on the chirp's
    /// toggle parity, apart from the clutter flicker drawn per chirp. So
    /// the carrier phasors of each channel are tabulated once per capture
    /// ([`BeatPhasors`]; the echoes whose geometry is the same in every
    /// capture come from the pipeline's pose-static tables), the mirror,
    /// node and floor-bounce amplitudes once per parity, and every chirp
    /// runs only [`BeatPhasors::sum_rows`]: bit-identical with evaluating
    /// each echo's amplitude per sample.
    fn capture_channels(
        &self,
        n_chirps: usize,
        toggles: ToggleSelection,
        rx2_chirps: usize,
        rng: &mut GaussianSource,
    ) -> (Vec<Vec<Complex>>, Vec<Vec<Complex>>) {
        let tables = self.field2_tables();
        let gt = self.scene.ground_truth(0);
        let psi = gt.incidence_rad;
        let chirp = self.processor.chirp;
        let fs = self.processor.sample_rate_hz;
        let node = &self.config.node;
        let impl_amp = db_to_lin(-self.config.ap.rx1.chain.implementation_loss_db).sqrt();
        let tx_w = dbm_to_watts(self.config.ap.tx.port_power_dbm());
        let horn = mmwave_rf::antenna::Horn::miwave_20dbi();
        let g_ap = db_to_lin(horn.gain_dbi(chirp.center_hz(), gt.azimuth_rad));
        // Per-port reflection amplitudes in each state.
        let gamma_r =
            node.reflection_amplitude(FsaPort::A, milback_node::mode::PortMode::Reflective);
        let gamma_a =
            node.reflection_amplitude(FsaPort::A, milback_node::mode::PortMode::Absorptive);
        // AoA phase for the second antenna, with the per-trial inter-chain
        // phase mismatch folded in.
        let aoa_phase = self.aoa.expected_phase_rad(gt.azimuth_rad)
            + rng.sample(self.impairments.rx_phase_jitter_rad);
        // Noise: input-referred thermal over the digitizer Nyquist band.
        let noise_w = noise_power_watts(fs / 2.0, self.config.ap.rx1.chain.noise_figure_db());
        // Ground-bounce geometry for this trial: the height jitter
        // randomizes the bounce's carrier phase (a millimeter of geometry
        // is a full cycle at 28 GHz).
        let bounce_h =
            self.impairments.bounce_height_m + rng.sample(self.impairments.bounce_height_jitter_m);
        let bounce_excess = self
            .impairments
            .bounce_excess_one_way_m(gt.range_m, bounce_h);
        // The bounced leg leaves/enters the AP horn at the grazing
        // elevation angle, paying the horn's off-axis rolloff once — which
        // is what suppresses the bounce at short range (steep geometry) and
        // lets it through at long range (flat geometry).
        let bounce_rel = {
            let grazing = (2.0 * self.impairments.bounce_height_m / gt.range_m).atan();
            let horn_for_elevation = mmwave_rf::antenna::Horn::miwave_20dbi();
            let off_axis_db =
                horn_for_elevation.gain_dbi(28e9, grazing) - horn_for_elevation.gain_dbi(28e9, 0.0);
            self.impairments.bounce_relative_amplitude(gt.range_m) * db_to_lin(off_axis_db).sqrt()
        };
        let bounce_phase = Complex::cis(rng.uniform(-std::f64::consts::PI, std::f64::consts::PI));
        let bounce2_phase = Complex::cis(rng.uniform(-std::f64::consts::PI, std::f64::consts::PI));
        // Lateral multipath (desk/shelf scatter) also rides on the
        // backscatter path, rippling the node echo across the sweep — the
        // baseline AP-side orientation error away from normal incidence.
        let mp_amp = self.impairments.node_multipath_amp;
        let (mp_lo, mp_hi) = self.impairments.node_multipath_delta_m;
        let mp_delta = rng.uniform(mp_lo, mp_hi);
        let mp_phi = rng.uniform(-std::f64::consts::PI, std::f64::consts::PI);

        // Sub-band patching mismatch (footnote 2): the 3 GHz sweep is two
        // 2 GHz generator sweeps whose results are patched in processing;
        // the patch calibration error is a constant complex factor on the
        // upper sub-band for the whole capture (it cancels in background
        // subtraction but distorts the node echo's spectrum slightly).
        let stitch = Complex::cis(rng.sample(self.impairments.stitch_phase_rad));
        // Per-sample port gains (pose-static) and multipath ripple (drawn
        // per capture) over the beat grid: entry `i` is `(port-A gain,
        // port-B gain, ripple)` at sample `i`.
        let node_t: Vec<(f64, f64, f64)> = tables
            .gains
            .iter()
            .enumerate()
            .map(|(i, &(g_a, g_b))| {
                let f = chirp.instantaneous_freq(i as f64 / fs);
                let ripple = 1.0
                    + 2.0
                        * mp_amp
                        * (2.0 * std::f64::consts::PI * f * mp_delta
                            / mmwave_sigproc::units::SPEED_OF_LIGHT
                            + mp_phi)
                            .cos();
                (g_a, g_b, ripple.max(0.0))
            })
            .collect();
        // Per-capture echo constants: the mirror and node-echo base
        // amplitudes (the clutter's are pose-static).
        let clutter = &tables.clutter;
        let mirror_amp_base = clutter_amplitude_sqrt_w(
            tx_w,
            g_ap,
            g_ap,
            self.config.mirror.rcs_at(psi),
            chirp.center_hz(),
            gt.range_m,
        ) * impl_amp;
        let const_amp =
            backscatter_amplitude_sqrt_w(tx_w, g_ap, g_ap, 1.0, 1.0, chirp.center_hz(), gt.range_m)
                * impl_amp;
        let fsa_center_hz = node.fsa.design.center_hz();
        let has_bounce = bounce_rel > 0.0;
        // Amplitude rows of the echoes after the clutter, one row per
        // sample, for each toggle parity (chirp `k` uses row `k % 2`). In
        // echo order:
        // * the mirror reflection: angle-selective, offset a few cm from
        //   the antenna phase center (see `MirrorReflection`);
        // * the node's FSA echo: frequency-selective via the port gains,
        //   rippled by the lateral multipath, second sweep half carrying
        //   the stitch phase;
        // * with floor bounce, its copy of the node echo (same modulation:
        //   it *is* the node's signal via a longer path), ρ-scaled, random
        //   carrier phase, at range + excess — at long range the excess
        //   shrinks below the 5 cm resolution cell and the bounce pulls the
        //   interpolated peak (Fig 12a) — and the double bounce (floor on
        //   both legs): ρ², 2× excess.
        // Sample `s` is evaluated at `t = s / fs` as beat synthesis does,
        // so `(t·fs).round()` recovers the grid index.
        let rows: Vec<Vec<Complex>> = (0..n_chirps.min(2))
            .map(|parity| {
                let reflective = parity == 0;
                // A port either toggles chirp-to-chirp or parks *absorptive*
                // (§5.2a: "we put one port of the node's FSA in absorptive
                // mode and switch the other port").
                let state = |toggled: bool| {
                    if !toggled || !reflective {
                        gamma_a
                    } else {
                        gamma_r
                    }
                };
                let (ga, gb) = (state(toggles.a), state(toggles.b));
                let mirror_state = 1.0
                    + if reflective {
                        self.config.mirror.switching_leakage
                    } else {
                        0.0
                    };
                let mirror = Complex::real(mirror_amp_base * mirror_state);
                let mut row = Vec::with_capacity(node_t.len() * if has_bounce { 4 } else { 2 });
                for s in 0..node_t.len() {
                    let t = s as f64 / fs;
                    let (g_a, g_b, ripple) = node_t[(t * fs).round() as usize];
                    let gain = g_a * ga + g_b * gb;
                    let a = const_amp * gain * ripple;
                    let echo = if chirp.instantaneous_freq(t) > fsa_center_hz {
                        Complex::real(a) * stitch
                    } else {
                        Complex::real(a)
                    };
                    row.extend([mirror, echo]);
                    if has_bounce {
                        row.extend([
                            bounce_phase.scale(const_amp * bounce_rel * gain),
                            bounce2_phase.scale(const_amp * (bounce_rel * bounce_rel) * gain),
                        ]);
                    }
                }
                row
            })
            .collect();
        // Phasors of the echoes after each channel's pose-static prefix:
        // RX1's floor bounces, and RX2's mirror, node and bounce echoes,
        // which carry the AoA phase. Every RX1 echo has no extra phase.
        let tail_geometry = |phase: f64| {
            let mut geometry = vec![
                (gt.range_m + self.config.mirror.range_offset_m, phase),
                (gt.range_m, phase),
            ];
            if has_bounce {
                geometry.push((gt.range_m + bounce_excess, phase));
                geometry.push((gt.range_m + 2.0 * bounce_excess, phase));
            }
            geometry
        };
        let threads = self.beat_threads;
        let rx2_chirps = rx2_chirps.min(n_chirps);
        let tail1 =
            BeatPhasors::from_geometry(&chirp, tail_geometry(0.0).split_off(2), fs, threads);
        let tail2 = (rx2_chirps > 0)
            .then(|| BeatPhasors::from_geometry(&chirp, tail_geometry(aoa_phase), fs, threads));
        let mut clutter_amps = Vec::with_capacity(clutter.len());
        let mut rx1 = Vec::with_capacity(n_chirps);
        let mut rx2 = Vec::with_capacity(rx2_chirps);
        for k in 0..n_chirps {
            // Clutter with flicker.
            clutter_amps.clear();
            clutter_amps.extend(clutter.iter().map(|&(_, base_amp, _)| {
                base_amp * (1.0 + rng.sample(self.impairments.clutter_flicker))
            }));
            let row = &rows[k % 2];
            let mut b1 = tables.rx1.sum_rows(&tail1, &clutter_amps, row, threads);
            rng.add_complex_noise(&mut b1, noise_w);
            rx1.push(b1);
            match &tail2 {
                Some(tail2) if k < rx2_chirps => {
                    let mut b2 = tables.rx2.sum_rows(tail2, &clutter_amps, row, threads);
                    rng.add_complex_noise(&mut b2, noise_w);
                    rx2.push(b2);
                }
                // RX2 skips this chirp: only its noise draws advance the stream.
                _ => rng.skip_standard(2 * node_t.len()),
            }
        }
        (rx1, rx2)
    }

    /// The pose-static Field-2 tables, built on the first capture: the
    /// port-gain grid at the node's incidence, the clutter constants, and
    /// the carrier phasors of every echo whose geometry no capture draws.
    fn field2_tables(&self) -> &Field2Tables {
        self.tables.field2.get_or_init(|| {
            let gt = self.scene.ground_truth(0);
            let chirp = self.processor.chirp;
            let fs = self.processor.sample_rate_hz;
            let n_samples = (chirp.duration_s * fs).round() as usize;
            let freqs: Vec<f64> = (0..n_samples)
                .map(|i| chirp.instantaneous_freq(i as f64 / fs))
                .collect();
            let mut ga = vec![0.0; n_samples];
            let mut gb = vec![0.0; n_samples];
            // One-shot grid: bypass the memo (`memoize = false`) — the
            // per-point lock/hash round-trip would cost more than it saves.
            self.gain_eval.gain_linear_freqs_into(
                FsaPort::A,
                &freqs,
                gt.incidence_rad,
                &mut ga,
                false,
            );
            self.gain_eval.gain_linear_freqs_into(
                FsaPort::B,
                &freqs,
                gt.incidence_rad,
                &mut gb,
                false,
            );
            let gains = ga.into_iter().zip(gb).collect();
            // Clutter geometry, gains and inter-antenna phase.
            let impl_amp = db_to_lin(-self.config.ap.rx1.chain.implementation_loss_db).sqrt();
            let tx_w = dbm_to_watts(self.config.ap.tx.port_power_dbm());
            let horn = mmwave_rf::antenna::Horn::miwave_20dbi();
            let clutter: Vec<(f64, f64, f64)> = self
                .scene
                .clutter
                .iter()
                .map(|c| {
                    let d = self.scene.ap.position.distance_to(c.position);
                    let az = self.scene.ap.azimuth_to(c.position);
                    let g = db_to_lin(horn.gain_dbi(chirp.center_hz(), az));
                    let amp = clutter_amplitude_sqrt_w(tx_w, g, g, c.rcs_m2, chirp.center_hz(), d)
                        * impl_amp;
                    (d, amp, self.aoa.expected_phase_rad(az))
                })
                .collect();
            // The geometry `capture_channels` gives these echoes: RX1 has
            // no extra phase; RX2's clutter has its own AoA phase.
            let rx1 = clutter
                .iter()
                .map(|&(d, _, _)| (d, 0.0))
                .chain([
                    (gt.range_m + self.config.mirror.range_offset_m, 0.0),
                    (gt.range_m, 0.0),
                ])
                .collect();
            let rx2 = clutter.iter().map(|&(d, _, phase)| (d, phase)).collect();
            Field2Tables {
                rx1: BeatPhasors::from_geometry(&chirp, rx1, fs, self.beat_threads),
                rx2: BeatPhasors::from_geometry(&chirp, rx2, fs, self.beat_threads),
                gains,
                clutter,
            }
        })
    }

    /// Runs a full localization fix (range + angle) from one five-chirp
    /// Field-2 capture, both ports toggling (§5.1). The AoA stage reads
    /// only the first two RX2 chirps, so only those are synthesized.
    pub fn localize(&self, rng: &mut GaussianSource) -> Result<LocationFix> {
        let (rx1, rx2) = self.capture_channels(5, ToggleSelection { a: true, b: true }, 2, rng);
        self.fix_from(rx1, &rx2)
    }

    /// AP-side orientation estimate (§5.2a): port A toggles, port B parked
    /// absorptive.
    pub fn orient_at_ap(&self, rng: &mut GaussianSource) -> Result<f64> {
        let (rx1, _) = self.capture_channels(5, ToggleSelection { a: true, b: false }, 0, rng);
        self.orientation_from(&rx1)
    }

    /// The protocol's Field 2 (§7): one five-chirp capture with port A
    /// toggling and port B parked absorptive, from which the AP both
    /// localizes the node and senses its orientation. Returns the fix and
    /// the AP-side orientation, radians.
    ///
    /// Orientation needs port B parked ([`Self::orient_at_ap`]); ranging
    /// and AoA only need some port toggling, so the one capture serves
    /// both. With one port echoing instead of two, the fix is noisier than
    /// [`Self::localize`]'s, most at long range (see DESIGN.md, "Field 2:
    /// one capture").
    pub fn field2(&self, rng: &mut GaussianSource) -> Result<(LocationFix, f64)> {
        let (rx1, rx2) = self.capture_channels(5, ToggleSelection { a: true, b: false }, 2, rng);
        let orientation = self.orientation_from(&rx1)?;
        Ok((self.fix_from(rx1, &rx2)?, orientation))
    }

    /// Range and angle from a capture's RX1 stack and its first two RX2
    /// chirps. The stack runs through the batched, allocation-free
    /// detector path ([`FmcwProcessor::detect_node_with`]) in this
    /// thread's FFT workspace, which every later fix on the thread reuses.
    fn fix_from(&self, rx1: Vec<Vec<Complex>>, rx2: &[Vec<Complex>]) -> Result<LocationFix> {
        FMCW_SCRATCH.with_borrow_mut(|scratch| {
            let det = self.processor.detect_node_with(&rx1, scratch)?;
            // The AoA stage reads RX1's spectra from `scratch`; freeing the
            // beats first lowers the capture's peak heap.
            drop(rx1);
            let aoa = self
                .aoa
                .estimate_from_rx1(&self.processor, &det, scratch.spectra(), rx2)?;
            Ok(LocationFix {
                range_m: det.range_m,
                angle_rad: aoa.angle_rad,
                position: Vec2::from_polar(det.range_m, aoa.angle_rad),
                confidence_db: det.peak_to_floor_db,
            })
        })
    }

    /// The AP-side orientation from a capture's RX1 stack, taken while
    /// port A toggled and port B sat absorptive.
    fn orientation_from(&self, rx1: &[Vec<Complex>]) -> Result<f64> {
        let est = ApOrientationEstimator::milback_default();
        Ok(est
            .estimate(&self.processor, rx1, &self.config.node.fsa.design)?
            .orientation_rad)
    }

    /// Node-side orientation estimate (§5.2b): Field-1 triangular chirp,
    /// both ports absorptive, node samples its detectors at the MCU ADC
    /// rate and measures the peak separation.
    pub fn orient_at_node(&self, rng: &mut GaussianSource) -> Result<f64> {
        let chirp = self.config.fmcw.field1_chirp();
        let node = &self.config.node;
        // Lateral multipath (desk/shelf scatter) interferes with the
        // direct path at the node; because it arrives off the direct
        // bearing, it couples into each FSA port with an independent phase
        // — rippling the two received-power envelopes differently. This is
        // the dominant node-side orientation error (Fig 13a). The floor
        // bounce is negligible on the downlink at short range: its
        // departure ray leaves the AP horn tens of degrees off boresight.
        let mp_amp = self.impairments.node_multipath_amp;
        let (dlo, dhi) = self.impairments.node_multipath_delta_m;
        let mp_delta = rng.uniform(dlo, dhi);
        let phi_a = rng.uniform(-std::f64::consts::PI, std::f64::consts::PI);
        let phi_b = rng.uniform(-std::f64::consts::PI, std::f64::consts::PI);
        // Dense trace of per-port received power across the chirp: the
        // pose-static incident power per port, rippled per capture.
        // `incident · c · ripple` evaluates left to right, so ripple times
        // the tabulated `incident · c` is bit-identical.
        let dense_rate = self.config.trace_rate_hz / 8.0;
        let trace = self.field1_trace();
        let mut pa = Vec::with_capacity(trace.len());
        let mut pb = Vec::with_capacity(trace.len());
        for (i, &(incident_a, incident_b)) in trace.iter().enumerate() {
            let f = chirp.instantaneous_freq(i as f64 / dense_rate);
            let k =
                2.0 * std::f64::consts::PI * f * mp_delta / mmwave_sigproc::units::SPEED_OF_LIGHT;
            let ripple_a = 1.0 + 2.0 * mp_amp * (k + phi_a).cos();
            let ripple_b = 1.0 + 2.0 * mp_amp * (k + phi_b).cos();
            pa.push(incident_a * ripple_a.max(0.0));
            pb.push(incident_b * ripple_b.max(0.0));
        }
        let (va, vb) = node.detector_traces(&pa, &pb, dense_rate, rng);
        let adc_a = node.mcu_sample(&va, dense_rate);
        let adc_b = node.mcu_sample(&vb, dense_rate);
        let est = OrientationEstimator::new(chirp, node.adc.sample_rate_hz);
        Ok(est.estimate(&adc_a, &adc_b, &node.fsa.design)?)
    }

    /// The pose-static Field-1 trace, built on the first node-side
    /// estimate: `(incident·c_a, incident·c_b)` at each dense-grid sample,
    /// where `incident` is the power the AP horn delivers to the
    /// node and `c_a`/`c_b` the ports' coupling at the node's incidence.
    fn field1_trace(&self) -> &[(f64, f64)] {
        self.tables.field1.get_or_init(|| {
            let gt = self.scene.ground_truth(0);
            let chirp = self.config.fmcw.field1_chirp();
            let horn = mmwave_rf::antenna::Horn::miwave_20dbi();
            let tx_w = dbm_to_watts(self.config.ap.tx.port_power_dbm());
            let dense_rate = self.config.trace_rate_hz / 8.0;
            let n = (chirp.duration_s * dense_rate).round() as usize;
            // Batched port coupling across the whole dense grid (a one-shot
            // sweep: bypass the memo, no per-sample lock/hash). `0.0 + pw·c`
            // is bit-identical to the single-tone `port_powers_for_tones_eval`
            // sum this replaces.
            let freqs: Vec<f64> = (0..n)
                .map(|i| chirp.instantaneous_freq(i as f64 / dense_rate))
                .collect();
            let mut ca = vec![0.0; n];
            let mut cb = vec![0.0; n];
            self.gain_eval.port_coupling_linear_freqs_into(
                &freqs,
                gt.incidence_rad,
                &mut ca,
                &mut cb,
            );
            freqs
                .iter()
                .zip(ca.iter().zip(&cb))
                .map(|(&f, (&ca, &cb))| {
                    let g_ap = db_to_lin(horn.gain_dbi(f, gt.azimuth_rad));
                    let incident = received_power_w(tx_w, g_ap, 1.0, f, gt.range_m);
                    (incident * ca, incident * cb)
                })
                .collect()
        })
    }

    /// The ground truth *as measured by the experimenter* — true value plus
    /// the placement-error floor (laser meter / protractor, §9.2).
    pub fn measured_ground_truth_range(&self, rng: &mut GaussianSource) -> f64 {
        self.scene.ground_truth(0).range_m + rng.sample(self.impairments.placement_error_m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline(distance: f64, orientation_deg: f64) -> LocalizationPipeline {
        LocalizationPipeline::new(
            SystemConfig::milback_default(),
            Scene::indoor(distance, orientation_deg.to_radians()),
        )
        .unwrap()
    }

    #[test]
    fn localizes_node_in_cluttered_room() {
        let p = pipeline(4.0, 12.0);
        let mut rng = GaussianSource::new(1);
        let fix = p.localize(&mut rng).unwrap();
        assert!((fix.range_m - 4.0).abs() < 0.10, "range {:.3}", fix.range_m);
        assert!(
            fix.angle_rad.abs().to_degrees() < 2.0,
            "angle {:.2}°",
            fix.angle_rad.to_degrees()
        );
        assert!(fix.confidence_db > 10.0);
    }

    #[test]
    fn clean_pipeline_is_centimeter_accurate() {
        let p = pipeline(5.0, 12.0).with_impairments(Impairments::none());
        let mut rng = GaussianSource::new(2);
        let fix = p.localize(&mut rng).unwrap();
        assert!((fix.range_m - 5.0).abs() < 0.02, "range {:.4}", fix.range_m);
    }

    #[test]
    fn impairments_degrade_but_do_not_break() {
        let clean = pipeline(6.0, 12.0).with_impairments(Impairments::none());
        let dirty = pipeline(6.0, 12.0);
        let mut errs_clean = Vec::new();
        let mut errs_dirty = Vec::new();
        for seed in 0..10 {
            let mut r1 = GaussianSource::new(100 + seed);
            let mut r2 = GaussianSource::new(100 + seed);
            errs_clean.push((clean.localize(&mut r1).unwrap().range_m - 6.0).abs());
            errs_dirty.push((dirty.localize(&mut r2).unwrap().range_m - 6.0).abs());
        }
        let mc = mmwave_sigproc::stats::mean(&errs_clean);
        let md = mmwave_sigproc::stats::mean(&errs_dirty);
        assert!(
            md >= mc,
            "impairments should not reduce error ({mc} vs {md})"
        );
        assert!(md < 0.3, "impaired error {md:.3} m too large");
    }

    #[test]
    fn ranging_error_grows_with_distance() {
        let mut rng = GaussianSource::new(7);
        let mut mean_err = |d: f64| {
            let p = pipeline(d, 12.0);
            let errs: Vec<f64> = (0..8)
                .map(|_| (p.localize(&mut rng).unwrap().range_m - d).abs())
                .collect();
            mmwave_sigproc::stats::mean(&errs)
        };
        let near = mean_err(2.0);
        let far = mean_err(8.0);
        assert!(far > near, "error should grow: {near:.4} → {far:.4}");
        // Fig 12a bounds: mean < 5 cm at 5 m, < 12 cm at 8 m.
        assert!(far < 0.15, "error at 8 m is {far:.3} m");
    }

    #[test]
    fn angle_estimate_accurate_across_azimuths() {
        let mut scene = Scene::single_node(4.0, 12f64.to_radians());
        // Move the node to a 15° azimuth.
        scene = Scene {
            ap: scene.ap,
            nodes: vec![],
            clutter: scene.clutter,
        }
        .with_node_at(4.0, 15f64.to_radians(), 12f64.to_radians());
        let p = LocalizationPipeline::new(SystemConfig::milback_default(), scene).unwrap();
        let mut rng = GaussianSource::new(3);
        let fix = p.localize(&mut rng).unwrap();
        assert!(
            (fix.angle_rad.to_degrees() - 15.0).abs() < 3.0,
            "angle {:.2}°",
            fix.angle_rad.to_degrees()
        );
    }

    #[test]
    fn ap_orientation_estimate_tracks_truth() {
        // Single trials can err by ~4° when the ground bounce lands in an
        // unlucky phase; the paper's Fig 13b averages 25 trials. Average a
        // few here and require the paper's ≤3° bound on the mean.
        for deg in [-20.0f64, -10.0, 8.0, 18.0] {
            let p = pipeline(2.0, deg);
            let mut rng = GaussianSource::new(50);
            let ests: Vec<f64> = (0..6)
                .filter_map(|_| p.orient_at_ap(&mut rng).ok())
                .map(|e| e.to_degrees())
                .collect();
            let mean_est = mmwave_sigproc::stats::mean(&ests);
            assert!(
                (mean_est - (-deg)).abs() < 3.0,
                "at {deg}°: mean est {mean_est:.2}° (incidence is −orientation)"
            );
        }
    }

    #[test]
    fn node_orientation_estimate_tracks_truth() {
        for deg in [-18.0f64, -6.0, 10.0, 22.0] {
            let p = pipeline(2.0, deg);
            let mut rng = GaussianSource::new(60);
            let est = p.orient_at_node(&mut rng).unwrap();
            assert!(
                (est.to_degrees() - (-deg)).abs() < 3.0,
                "at {deg}°: node est {:.2}°",
                est.to_degrees()
            );
        }
    }

    #[test]
    fn mirror_leakage_hurts_ap_orientation_near_normal() {
        // Fig 13b: error is elevated near normal incidence because the
        // switching-correlated part of the mirror reflection survives
        // subtraction. Compare mean error near 0° with error at 15°.
        let err_at = |deg: f64, seed: u64| {
            let p = pipeline(2.0, deg);
            let mut rng = GaussianSource::new(seed);
            let errs: Vec<f64> = (0..8)
                .filter_map(|_| p.orient_at_ap(&mut rng).ok())
                .map(|e| (e.to_degrees() - (-deg)).abs())
                .collect();
            mmwave_sigproc::stats::mean(&errs)
        };
        let near_normal = err_at(3.0, 64);
        let off_normal = err_at(15.0, 65);
        assert!(
            near_normal > off_normal * 0.8,
            "near-normal {near_normal:.2}° vs off-normal {off_normal:.2}°"
        );
    }

    /// The bits of every capture sample, estimate and RNG-position probe
    /// one stream gives through `p`: a full capture, one with two RX2 chirps
    /// and an RX1-only one, then each estimator.
    fn run_bits(p: &LocalizationPipeline, seed: u64) -> Vec<u64> {
        let mut rng = GaussianSource::new(seed);
        let mut bits = Vec::new();
        for (toggles, rx2_chirps) in [
            (ToggleSelection { a: true, b: true }, 5),
            (ToggleSelection { a: true, b: true }, 2),
            (ToggleSelection { a: true, b: false }, 0),
        ] {
            let (rx1, rx2) = p.capture_channels(5, toggles, rx2_chirps, &mut rng);
            for z in rx1.iter().chain(&rx2).flatten() {
                bits.extend([z.re.to_bits(), z.im.to_bits()]);
            }
        }
        let fix = p.localize(&mut rng).unwrap();
        bits.extend([fix.range_m, fix.angle_rad, fix.confidence_db].map(f64::to_bits));
        bits.push(p.orient_at_ap(&mut rng).unwrap().to_bits());
        let (fix, orientation) = p.field2(&mut rng).unwrap();
        bits.extend([fix.range_m, fix.angle_rad, fix.confidence_db, orientation].map(f64::to_bits));
        bits.push(p.orient_at_node(&mut rng).unwrap().to_bits());
        bits.extend([rng.standard(), rng.uniform(0.0, 1.0)].map(f64::to_bits));
        bits
    }

    #[test]
    fn warm_tables_match_a_fresh_pipeline() {
        // Captures through warm pose-static tables, and through a clone
        // of a warm pipeline, are bit-identical with a fresh pipeline's.
        // Without impairments there are no floor bounces, so RX1 has no
        // per-capture echoes at all.
        for imp in [Impairments::milback_default(), Impairments::none()] {
            let warm = pipeline(5.0, -14.0).with_impairments(imp);
            run_bits(&warm, 1);
            let clone = warm.clone();
            for seed in [2, 3] {
                let fresh = pipeline(5.0, -14.0).with_impairments(imp);
                let want = run_bits(&fresh, seed);
                assert!(run_bits(&warm, seed) == want, "warm pipeline diverged");
                assert!(run_bits(&clone, seed) == want, "warm clone diverged");
            }
        }
    }

    #[test]
    fn ground_truth_measurement_has_placement_noise() {
        let p = pipeline(3.0, 0.0);
        let mut rng = GaussianSource::new(80);
        let meas: Vec<f64> = (0..50)
            .map(|_| p.measured_ground_truth_range(&mut rng))
            .collect();
        let sd = mmwave_sigproc::stats::std_dev(&meas);
        assert!(sd > 0.005 && sd < 0.03, "placement sd {sd:.4}");
    }
}

//! End-to-end link simulation: downlink (Fig 14) and uplink (Fig 15).
//!
//! # Fidelity levels
//!
//! * **Downlink** runs waveform-level: per-symbol tone keying → per-port RF
//!   power traces through the dual-port FSA coupling model → envelope
//!   detector square law + RC dynamics + output noise → MCU sampling →
//!   OAQFM slicing. The SINR report separates noise from cross-port tone
//!   leakage, as §9.4 does.
//! * **Uplink** runs symbol-level: a Monte-Carlo anchored to the analytic
//!   radar-equation budget (the budget sets everything; the switches settle
//!   in nanoseconds). A test-only waveform path synthesizes the oversampled
//!   switching waveform with settling transitions and slices it through
//!   the integrate-and-dump receiver; the two agree on BER within
//!   Monte-Carlo error.
//!
//! The symbol-level uplink is split in two. An [`UplinkBudget`] holds
//! everything that is a fixed function of the configuration and the node's
//! pose (carriers, per-port levels and noise σ); [`UplinkBudget::run`] is
//! the per-packet kernel that draws the noise, slices and measures, in
//! reusable [`UplinkScratch`] buffers. [`LinkSimulator::uplink`] is one
//! budget plus one kernel call; a campaign builds each node's budget once
//! and calls only the kernel per packet.

use crate::config::SystemConfig;
use crate::error::{MilbackError, Result};
use crate::scene::{GroundTruth, Scene};
use milback_ap::query::QueryPlanner;
use milback_ap::uplink_rx::{measure_channel_snr_db, UplinkRxError};
use milback_ap::waveform::CarrierSet;
use milback_node::downlink::{OaqfmDemodulator, SinrReport};
use milback_node::mode::PortMode;
use milback_node::node::PortPowers;
use milback_node::uplink::{UplinkError, UplinkModulator};
use mmwave_rf::antenna::fsa::{FsaGainEval, FsaPort};
use mmwave_rf::channel::received_power_w;
use mmwave_sigproc::detect::midpoint_threshold_tails;
use mmwave_sigproc::random::GaussianSource;
use mmwave_sigproc::stats::q_function;
use mmwave_sigproc::units::{db_to_lin, dbm_to_watts, watts_to_dbm};
use mmwave_sigproc::waveform::{bytes_to_symbols, symbols_to_bytes, OaqfmSymbol};
use serde::{Deserialize, Serialize};

/// Result of a downlink transfer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DownlinkOutcome {
    /// The bytes the node decoded.
    pub decoded: Vec<u8>,
    /// Bit error rate against the transmitted payload.
    pub ber: f64,
    /// Per-port SINR breakdown at the MCU input (worst port reported in
    /// `sinr_db()`).
    pub sinr_a: SinrReport,
    /// Port-B SINR breakdown.
    pub sinr_b: SinrReport,
    /// The carrier set the AP selected.
    pub carriers: CarrierSet,
}

impl DownlinkOutcome {
    /// The reported SINR (the weaker port), dB — the Fig 14 metric.
    pub fn sinr_db(&self) -> f64 {
        self.sinr_a.sinr_db().min(self.sinr_b.sinr_db())
    }
}

/// Result of an uplink transfer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UplinkOutcome {
    /// The bytes the AP decoded.
    pub decoded: Vec<u8>,
    /// Measured bit error rate.
    pub ber: f64,
    /// Measured per-channel SNR (mean of the two channels), dB — the
    /// Fig 15 metric.
    pub snr_db: f64,
    /// The analytic (budget) SNR the simulation was anchored to, dB.
    pub analytic_snr_db: f64,
}

/// The end-to-end link simulator for one scene.
#[derive(Debug, Clone)]
pub struct LinkSimulator {
    /// System configuration.
    pub config: SystemConfig,
    /// Physical scene (first node is the link partner).
    pub scene: Scene,
    /// Carrier planner.
    pub planner: QueryPlanner,
    /// Orientation estimate to plan carriers from. `None` plans from the
    /// scene's ground truth (convenient for parameter sweeps); a session
    /// that ran orientation sensing sets this to its own estimate so the
    /// payload uses what the AP actually measured.
    pub orientation_hint: Option<f64>,
    /// Memoized FSA gain evaluator for the node's dual-port antenna. The
    /// downlink keys the *same* one or two carriers every symbol, so after
    /// the first symbol every coupling query is a cache hit (bit-exact with
    /// the direct path). Rebuilt by [`LinkSimulator::new`]; refresh it if
    /// `config.node.fsa` is mutated afterwards.
    pub gain_eval: FsaGainEval,
}

impl LinkSimulator {
    /// Creates a simulator after validating the configuration.
    pub fn new(config: SystemConfig, scene: Scene) -> Result<Self> {
        config.validate()?;
        if scene.nodes.is_empty() {
            return Err(MilbackError::Config("scene has no nodes".into()));
        }
        let gain_eval = FsaGainEval::for_dual(&config.node.fsa);
        Ok(Self {
            config,
            scene,
            planner: QueryPlanner::milback_default(),
            orientation_hint: None,
            gain_eval,
        })
    }

    /// Per-tone incident power at the node's location (before FSA gain):
    /// `P_tx·G_ap·(λ/4πd)²`, watts. Uses the AP horn gain toward the node's
    /// actual azimuth.
    fn incident_power_w(&self, freq_hz: f64) -> f64 {
        use mmwave_rf::antenna::Antenna;
        let gt = self.scene.ground_truth(0);
        let tx_w = dbm_to_watts(self.config.ap.tx.port_power_dbm());
        let horn = mmwave_rf::antenna::Horn::miwave_20dbi();
        let g_ap = db_to_lin(horn.gain_dbi(freq_hz, gt.azimuth_rad));
        received_power_w(tx_w, g_ap, 1.0, freq_hz, gt.range_m)
    }

    /// Plans carriers from the node's true orientation (or a caller-supplied
    /// estimate, e.g. from the orientation pipeline).
    pub fn plan_carriers(&self, orientation_estimate_rad: Option<f64>) -> Result<CarrierSet> {
        let psi = orientation_estimate_rad
            .or(self.orientation_hint)
            .unwrap_or_else(|| self.scene.ground_truth(0).incidence_rad);
        Ok(self.planner.plan(&self.config.node.fsa, psi)?)
    }

    // ------------------------------------------------------------------
    // Downlink
    // ------------------------------------------------------------------

    /// Runs a waveform-level downlink transfer of `payload`.
    ///
    /// Off normal incidence this is OAQFM (2 bits/symbol across two
    /// tones); at normal incidence the planner degenerates to single-tone
    /// OOK and the transfer runs at 1 bit/symbol (§6.2).
    pub fn downlink(&self, payload: &[u8], rng: &mut GaussianSource) -> Result<DownlinkOutcome> {
        let carriers = self.plan_carriers(None)?;
        if payload.is_empty() {
            // Nothing to key: report the link quality without a transfer.
            let (f_a, f_b) = match carriers {
                CarrierSet::TwoTone { f_a, f_b } => (f_a, f_b),
                CarrierSet::SingleToneOok { f } => (f, f),
            };
            let psi = self.scene.ground_truth(0).incidence_rad;
            let (sinr_a, sinr_b) = self.downlink_sinr_breakdown(f_a, f_b, psi);
            return Ok(DownlinkOutcome {
                decoded: Vec::new(),
                ber: 0.0,
                sinr_a,
                sinr_b,
                carriers,
            });
        }
        match carriers {
            CarrierSet::TwoTone { f_a, f_b } => self.downlink_oaqfm(payload, f_a, f_b, rng),
            CarrierSet::SingleToneOok { f } => self.downlink_ook(payload, f, rng),
        }
    }

    /// The two-tone OAQFM downlink path.
    fn downlink_oaqfm(
        &self,
        payload: &[u8],
        f_a: f64,
        f_b: f64,
        rng: &mut GaussianSource,
    ) -> Result<DownlinkOutcome> {
        let gt = self.scene.ground_truth(0);
        let psi = gt.incidence_rad;
        let symbols = bytes_to_symbols(payload);
        let sps =
            (self.config.trace_rate_hz / self.config.downlink_symbol_rate_hz).round() as usize;
        let p_a_in = self.incident_power_w(f_a);
        let p_b_in = self.incident_power_w(f_b);
        // Per-symbol per-port power levels through the dual-port coupling.
        // Only two carriers ever appear, so evaluate the coupling once for
        // both (batched, lock-free) and precompute the four symbol levels —
        // the `0.0 + pw·c` a-then-b tone sum below is bit-identical to the
        // per-symbol `port_powers_for_tones_eval` call it replaces.
        let mut ca = [0.0; 2];
        let mut cb = [0.0; 2];
        self.gain_eval
            .port_coupling_linear_freqs_into(&[f_a, f_b], psi, &mut ca, &mut cb);
        let level = |tone_a: bool, tone_b: bool| {
            let mut p = PortPowers::default();
            if tone_a {
                p.a_w += p_a_in * ca[0];
                p.b_w += p_a_in * cb[0];
            }
            if tone_b {
                p.a_w += p_b_in * ca[1];
                p.b_w += p_b_in * cb[1];
            }
            p
        };
        let levels = [
            level(false, false),
            level(false, true),
            level(true, false),
            level(true, true),
        ];
        let mut pa = Vec::with_capacity(symbols.len() * sps);
        let mut pb = Vec::with_capacity(symbols.len() * sps);
        for s in &symbols {
            let p = levels[(usize::from(s.tone_a) << 1) | usize::from(s.tone_b)];
            pa.extend(std::iter::repeat_n(p.a_w, sps));
            pb.extend(std::iter::repeat_n(p.b_w, sps));
        }
        let (va, vb) = self
            .config
            .node
            .detector_traces(&pa, &pb, self.config.trace_rate_hz, rng);
        let demod = OaqfmDemodulator::new(sps);
        let decided = demod.demodulate_auto(&va, &vb)?;
        let ber = milback_ap::uplink_rx::symbol_ber(&symbols, &decided);
        let decoded = symbols_to_bytes(&decided);
        let (sinr_a, sinr_b) = self.downlink_sinr_breakdown(f_a, f_b, psi);
        Ok(DownlinkOutcome {
            decoded,
            ber,
            sinr_a,
            sinr_b,
            carriers: CarrierSet::TwoTone { f_a, f_b },
        })
    }

    /// The normal-incidence OOK fallback: one carrier, one bit per symbol,
    /// decided on whichever detector sees it (both do; the firmware can
    /// even combine them — here the stronger port is used).
    fn downlink_ook(
        &self,
        payload: &[u8],
        f: f64,
        rng: &mut GaussianSource,
    ) -> Result<DownlinkOutcome> {
        let gt = self.scene.ground_truth(0);
        let psi = gt.incidence_rad;
        let bits: Vec<bool> = payload
            .iter()
            .flat_map(|&byte| (0..8).rev().map(move |i| byte >> i & 1 == 1))
            .collect();
        let sps =
            (self.config.trace_rate_hz / self.config.downlink_symbol_rate_hz).round() as usize;
        let p_in = self.incident_power_w(f);
        // The keyed level is bit-invariant: evaluate the single-carrier
        // coupling once (batched, lock-free) instead of per bit.
        let (mut c_a, mut c_b) = ([0.0], [0.0]);
        self.gain_eval
            .port_coupling_linear_freqs_into(&[f], psi, &mut c_a, &mut c_b);
        let p_on = PortPowers {
            a_w: p_in * c_a[0],
            b_w: p_in * c_b[0],
        };
        let mut pa = Vec::with_capacity(bits.len() * sps);
        let mut pb = Vec::with_capacity(bits.len() * sps);
        for &bit in &bits {
            let p = if bit { p_on } else { PortPowers::default() };
            pa.extend(std::iter::repeat_n(p.a_w, sps));
            pb.extend(std::iter::repeat_n(p.b_w, sps));
        }
        let (va, vb) = self
            .config
            .node
            .detector_traces(&pa, &pb, self.config.trace_rate_hz, rng);
        // Use whichever port carries more energy (at normal incidence both
        // see the tone; any asymmetry comes from component spread).
        let demod = OaqfmDemodulator::new(sps);
        let ea: f64 = va.iter().map(|v| v * v).sum();
        let eb: f64 = vb.iter().map(|v| v * v).sum();
        let trace = if ea >= eb { &va } else { &vb };
        let threshold =
            milback_node::downlink::calibrate_threshold(trace).map_err(MilbackError::Demod)?;
        let decided_bits = demod.demodulate_ook(trace, threshold)?;
        let ber = mmwave_sigproc::stats::bit_error_rate(&bits, &decided_bits);
        let decoded: Vec<u8> = decided_bits
            .chunks_exact(8)
            .map(|c| c.iter().fold(0u8, |acc, &b| (acc << 1) | u8::from(b)))
            .collect();
        // Single carrier: there is no cross-tone interference — both ports
        // carry the *same* keyed tone, so the report is noise-limited.
        let node = &self.config.node;
        let (ca, cb) = self.gain_eval.port_coupling_linear(f, psi);
        let report_for =
            |coupling: f64, det: &mmwave_rf::components::EnvelopeDetector, eff: f64| {
                let v_sig = det.detect_v(p_in * coupling * eff);
                let sigma = det.output_noise_v(self.config.downlink_symbol_rate_hz);
                SinrReport {
                    signal_power: (v_sig / 2.0) * (v_sig / 2.0),
                    interference_power: 0.0,
                    noise_power: sigma * sigma,
                }
            };
        let sinr_a = report_for(ca, &node.detector_a, node.absorption_efficiency(FsaPort::A));
        let sinr_b = report_for(cb, &node.detector_b, node.absorption_efficiency(FsaPort::B));
        Ok(DownlinkOutcome {
            decoded,
            ber,
            sinr_a,
            sinr_b,
            carriers: CarrierSet::SingleToneOok { f },
        })
    }

    /// Analytic per-port SINR breakdown at the MCU input for carriers
    /// `(f_a, f_b)` at incidence `psi` — the quantity Fig 14 sweeps.
    pub fn downlink_sinr_breakdown(
        &self,
        f_a: f64,
        f_b: f64,
        psi: f64,
    ) -> (SinrReport, SinrReport) {
        let node = &self.config.node;
        let p_a_in = self.incident_power_w(f_a);
        let p_b_in = self.incident_power_w(f_b);
        // Power each tone couples into each port.
        let (a_from_a, b_from_a) = self.gain_eval.port_coupling_linear(f_a, psi);
        let (a_from_b, b_from_b) = self.gain_eval.port_coupling_linear(f_b, psi);
        let eff_a = node.absorption_efficiency(FsaPort::A);
        let eff_b = node.absorption_efficiency(FsaPort::B);
        // Detector voltages: signal = own tone, interference = other tone.
        let v_sig_a = node.detector_a.detect_v(p_a_in * a_from_a * eff_a);
        let v_int_a = node.detector_a.detect_v(p_b_in * a_from_b * eff_a);
        let v_sig_b = node.detector_b.detect_v(p_b_in * b_from_b * eff_b);
        let v_int_b = node.detector_b.detect_v(p_a_in * b_from_a * eff_b);
        // Decision bandwidth = symbol rate.
        let sigma_a = node
            .detector_a
            .output_noise_v(self.config.downlink_symbol_rate_hz);
        let sigma_b = node
            .detector_b
            .output_noise_v(self.config.downlink_symbol_rate_hz);
        let report = |v_sig: f64, v_int: f64, sigma: f64| SinrReport {
            signal_power: (v_sig / 2.0) * (v_sig / 2.0),
            interference_power: (v_int / 2.0) * (v_int / 2.0),
            noise_power: sigma * sigma,
        };
        (
            report(v_sig_a, v_int_a, sigma_a),
            report(v_sig_b, v_int_b, sigma_b),
        )
    }

    /// Analytic downlink BER from SINR: matched-filter OOK per tone,
    /// `Q(√(2·SINR))`.
    pub fn downlink_ber_from_sinr(sinr_db: f64) -> f64 {
        q_function((2.0 * db_to_lin(sinr_db)).sqrt())
    }

    // ------------------------------------------------------------------
    // Uplink
    // ------------------------------------------------------------------

    /// The analytic uplink SNR (dB) for the current scene at the configured
    /// symbol rate: the two-way radar budget over the data bandwidth.
    pub fn uplink_analytic_snr_db(&self) -> Result<f64> {
        let carriers = self.plan_carriers(None)?;
        let (f_a, _f_b) = match carriers {
            CarrierSet::TwoTone { f_a, f_b } => (f_a, f_b),
            CarrierSet::SingleToneOok { f } => (f, f),
        };
        Ok(self.uplink_channel_snr_db(f_a, FsaPort::A))
    }

    /// Analytic SNR of one uplink channel: signal is the half-swing of the
    /// modulated backscatter at the AP antenna port; noise is the receiver
    /// chain over the *bit-rate* bandwidth (matching §9.5's "higher
    /// bandwidth results in higher noise floor").
    pub fn uplink_channel_snr_db(&self, freq_hz: f64, port: FsaPort) -> f64 {
        let gt = self.scene.ground_truth(0);
        let g_port = self.gain_eval.gain_linear(port, freq_hz, gt.incidence_rad);
        channel_snr_db(&self.config, &gt, freq_hz, port, g_port)
    }

    /// Runs a waveform-level uplink transfer: the node's switching
    /// waveform is synthesized at the digitizer rate (including the SPDT's
    /// finite settling transitions), the AP's post-mixer baseband noise is
    /// added at full digitizer bandwidth, and the receiver
    /// integrate-and-dumps at `samples_per_symbol` before slicing.
    ///
    /// Slower than [`uplink`](Self::uplink) but exercises the transition-
    /// shaping and oversampled-decision path: the independent cross-check
    /// the tests hold the symbol-level uplink to.
    #[cfg(test)]
    fn uplink_waveform(
        &self,
        payload: &[u8],
        samples_per_symbol: usize,
        rng: &mut GaussianSource,
    ) -> Result<UplinkOutcome> {
        use milback_ap::uplink_rx::{symbol_ber, UplinkReceiver};
        assert!(samples_per_symbol >= 2, "waveform path needs oversampling");
        let carriers = self.plan_carriers(None)?;
        let (f_a, f_b) = match carriers {
            CarrierSet::TwoTone { f_a, f_b } => (f_a, f_b),
            CarrierSet::SingleToneOok { f } => (f, f),
        };
        let modulator = UplinkModulator::new(
            self.config.uplink_symbol_rate_hz,
            &self.config.node.switch_a,
        )
        .map_err(MilbackError::UplinkTx)?;
        let symbols = bytes_to_symbols(payload);
        let schedule = modulator.schedule_for_symbols(&symbols);
        let node = &self.config.node;
        // Switch settling: one sample of linear transition per boundary.
        let mk_trace = |port: FsaPort, freq: f64, rng: &mut GaussianSource| -> Vec<f64> {
            let snr_lin = db_to_lin(self.uplink_channel_snr_db(freq, port));
            let hi = node.reflection_amplitude(port, milback_node::mode::PortMode::Reflective);
            let lo = node.reflection_amplitude(port, milback_node::mode::PortMode::Absorptive);
            let swing_half = (hi - lo) / 2.0;
            // Per-sample noise such that the post-integration (mean over
            // sps samples) noise matches the analytic symbol-level σ.
            let sigma_sym = swing_half / snr_lin.sqrt();
            let sigma_sample = sigma_sym * (samples_per_symbol as f64).sqrt();
            let mut trace = Vec::with_capacity(schedule.len() * samples_per_symbol);
            let mut prev = lo;
            for st in &schedule {
                let mode = match port {
                    FsaPort::A => st.a,
                    FsaPort::B => st.b,
                };
                let level = match mode {
                    milback_node::mode::PortMode::Reflective => hi,
                    milback_node::mode::PortMode::Absorptive => lo,
                };
                for i in 0..samples_per_symbol {
                    // First sample of each symbol ramps from the previous
                    // level (switch settling ≤ one sample at these rates).
                    let v = if i == 0 { (prev + level) / 2.0 } else { level };
                    trace.push(v + rng.sample(sigma_sample));
                }
                prev = level;
            }
            trace
        };
        let ta = mk_trace(FsaPort::A, f_a, rng);
        let tb = mk_trace(FsaPort::B, f_b, rng);
        let receiver = UplinkReceiver::new(samples_per_symbol);
        let decided = receiver.decide(&ta, &tb).map_err(MilbackError::UplinkRx)?;
        let ber = symbol_ber(&symbols, &decided);
        let analytic_db = (self.uplink_channel_snr_db(f_a, FsaPort::A)
            + self.uplink_channel_snr_db(f_b, FsaPort::B))
            / 2.0;
        Ok(UplinkOutcome {
            decoded: symbols_to_bytes(&decided),
            ber,
            snr_db: analytic_db,
            analytic_snr_db: analytic_db,
        })
    }

    /// Runs a symbol-level Monte-Carlo uplink transfer of `payload`: this
    /// scene's [`uplink_budget`](Self::uplink_budget) run once through the
    /// [`UplinkBudget::run`] kernel.
    pub fn uplink(&self, payload: &[u8], rng: &mut GaussianSource) -> Result<UplinkOutcome> {
        let mut scratch = UplinkScratch::default();
        let m = self.uplink_budget()?.run(payload, rng, &mut scratch)?;
        Ok(UplinkOutcome {
            decoded: scratch.decoded,
            ber: m.ber,
            snr_db: m.snr_db,
            analytic_snr_db: m.analytic_snr_db,
        })
    }

    /// The node's uplink budget: everything a symbol-level uplink needs
    /// that depends on neither the payload nor the noise, planned from the
    /// orientation hint if one is set. Campaigns build their budgets with
    /// the same function, so a campaign's first service of a node equals
    /// [`uplink`](Self::uplink) over the node's view. Fails only where
    /// carrier planning fails.
    pub fn uplink_budget(&self) -> Result<UplinkBudget> {
        UplinkBudget::new(
            &self.config,
            &self.planner,
            &self.scene.ground_truth(0),
            self.orientation_hint,
        )
    }

    /// Analytic uplink BER from SNR: `Q(√SNR)` with SNR defined on the
    /// half-swing (threshold-midpoint slicing of one OOK channel).
    pub fn uplink_ber_from_snr(snr_db: f64) -> f64 {
        q_function(db_to_lin(snr_db).sqrt())
    }
}

/// Analytic SNR of one uplink channel of a node with ground truth `gt`
/// whose port has linear gain `g_port` toward the AP at `freq_hz` — the
/// one formula behind [`LinkSimulator::uplink_channel_snr_db`] and
/// [`UplinkBudget::new`].
fn channel_snr_db(
    config: &SystemConfig,
    gt: &GroundTruth,
    freq_hz: f64,
    port: FsaPort,
    g_port: f64,
) -> f64 {
    use mmwave_rf::antenna::Antenna;
    let horn = mmwave_rf::antenna::Horn::miwave_20dbi();
    let g_tx = db_to_lin(horn.gain_dbi(freq_hz, gt.azimuth_rad));
    let g_rx = g_tx;
    let delta_gamma = config.node.modulation_depth(port);
    let tx_w = dbm_to_watts(config.ap.tx.port_power_dbm());
    let amp = mmwave_rf::channel::backscatter_amplitude_sqrt_w(
        tx_w,
        g_tx,
        g_rx,
        g_port * g_port,
        delta_gamma / 2.0,
        freq_hz,
        gt.range_m,
    );
    let signal_dbm = watts_to_dbm(amp * amp);
    config
        .ap
        .rx1
        .snr_db(signal_dbm, config.uplink_bit_rate_hz())
}

/// One uplink channel's fixed symbol statistics: the reflective (`hi`)
/// and absorptive (`lo`) levels of its port and the AWGN σ that anchors
/// the channel to its analytic SNR.
#[derive(Debug, Clone, Copy)]
struct UplinkChannel {
    hi: f64,
    lo: f64,
    sigma: f64,
}

/// A node's uplink budget: the part of a symbol-level uplink that is a
/// fixed function of the configuration and the node's pose (carrier
/// plan, per-port levels and noise σ). Built by
/// [`LinkSimulator::uplink_budget`] (a campaign builds it from the node's
/// steered ground truth directly); every packet then runs through
/// [`run`](Self::run).
#[derive(Debug, Clone, Copy)]
pub struct UplinkBudget {
    /// Port-A and port-B channel statistics.
    channels: [UplinkChannel; 2],
    /// Port-A channel SNR, dB: what an empty transfer reports.
    snr_a_db: f64,
    /// Mean of the two linear channel SNRs, dB.
    analytic_snr_db: f64,
    /// Whether the switches can key the configured symbol rate, reported
    /// by a transfer after its empty-payload shortcut.
    rate_check: std::result::Result<(), UplinkError>,
}

/// What one uplink transfer measured. The decoded bytes stay in the
/// [`UplinkScratch`] the kernel ran in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UplinkMeasurement {
    /// Measured bit error rate.
    pub ber: f64,
    /// Measured per-channel SNR (mean of the measurable channels), dB.
    pub snr_db: f64,
    /// The analytic SNR the transfer was anchored to, dB.
    pub analytic_snr_db: f64,
}

/// Reusable buffers of the uplink kernel. Past their high-water mark a
/// transfer never touches the heap (the slicer's sort is in place).
#[derive(Debug, Default)]
pub struct UplinkScratch {
    /// The payload the symbol plan below was built for: a campaign
    /// transfers one payload, so each scratch builds its plan once.
    plan_key: Vec<u8>,
    /// Transmitted tone bits: every port-A symbol, then every port-B one.
    bits: Vec<bool>,
    /// Reflective symbols among each port's bits.
    reflective: [usize; 2],
    /// Received symbol statistics, in the same layout.
    stats: Vec<f64>,
    /// Candidate buffer of the slicing thresholds.
    sorted: Vec<f64>,
    /// The port-A and port-B slicing thresholds of the last transfer.
    thresholds: [f64; 2],
    /// The bytes of the last transfer, as the AP decided them.
    decoded: Vec<u8>,
}

impl UplinkScratch {
    /// The bytes the last [`UplinkBudget::run`] decoded.
    pub fn decoded(&self) -> &[u8] {
        &self.decoded
    }

    /// The symbol statistics the last [`UplinkBudget::run`] received: every
    /// port-A symbol, then every port-B one.
    pub fn stats(&self) -> &[f64] {
        &self.stats
    }

    /// The port-A and port-B thresholds the last [`UplinkBudget::run`]
    /// sliced at (meaningful once a transfer got that far).
    pub fn thresholds(&self) -> [f64; 2] {
        self.thresholds
    }

    /// Rebuilds the symbol plan for `payload` unless it is already the
    /// plan's: a present tone is reflected, and each port keys its own bit
    /// of every OAQFM symbol.
    fn plan(&mut self, payload: &[u8]) {
        if self.plan_key == payload {
            return;
        }
        self.plan_key.clear();
        self.plan_key.extend_from_slice(payload);
        let symbols = || {
            payload.iter().flat_map(|&byte| {
                [6u8, 4, 2, 0].map(|shift| OaqfmSymbol::from_bits((byte >> shift) & 0b11))
            })
        };
        self.bits.clear();
        self.bits.extend(symbols().map(|s| s.tone_a));
        self.bits.extend(symbols().map(|s| s.tone_b));
        let n = self.bits.len() / 2;
        for (count, port_bits) in self.reflective.iter_mut().zip(self.bits.chunks_exact(n)) {
            *count = port_bits.iter().filter(|&&on| on).count();
        }
    }
}

impl UplinkBudget {
    /// The uplink budget of a node with ground truth `gt` (as seen by an
    /// AP steered at it), its carriers planned by `planner` from
    /// `orientation_hint` or, without one, from the node's true incidence.
    /// The port gains come from the memo-free FSA path, which runs the
    /// same compiled routines as [`LinkSimulator`]'s memoising evaluator,
    /// so the budget is bit-identical to the one a simulator over the
    /// node's view builds — without validating a configuration, building
    /// a view or warming a cache. Fails only where carrier planning fails.
    pub(crate) fn new(
        config: &SystemConfig,
        planner: &QueryPlanner,
        gt: &GroundTruth,
        orientation_hint: Option<f64>,
    ) -> Result<Self> {
        let psi = orientation_hint.unwrap_or(gt.incidence_rad);
        let (f_a, f_b) = match planner.plan(&config.node.fsa, psi)? {
            CarrierSet::TwoTone { f_a, f_b } => (f_a, f_b),
            CarrierSet::SingleToneOok { f } => (f, f),
        };
        let node = &config.node;
        let snr_db = |freq_hz: f64, port: FsaPort| {
            let g_port = node.fsa.gain_linear(port, freq_hz, gt.incidence_rad);
            channel_snr_db(config, gt, freq_hz, port, g_port)
        };
        let snr_a_db = snr_db(f_a, FsaPort::A);
        let snr_a = db_to_lin(snr_a_db);
        let snr_b = db_to_lin(snr_db(f_b, FsaPort::B));
        // Per-channel symbol statistics: level per state + AWGN anchored to
        // the analytic channel SNR.
        let channel = |port: FsaPort, snr_lin: f64| {
            let hi = node.reflection_amplitude(port, PortMode::Reflective);
            let lo = node.reflection_amplitude(port, PortMode::Absorptive);
            let swing_half = (hi - lo) / 2.0;
            UplinkChannel {
                hi,
                lo,
                sigma: swing_half / snr_lin.sqrt(),
            }
        };
        Ok(Self {
            channels: [channel(FsaPort::A, snr_a), channel(FsaPort::B, snr_b)],
            snr_a_db,
            analytic_snr_db: 10.0 * ((snr_a + snr_b) / 2.0).log10(),
            rate_check: UplinkModulator::new(config.uplink_symbol_rate_hz, &node.switch_a)
                .map(|_| ()),
        })
    }

    /// The uplink kernel: transfers `payload` once. Draws every port-A
    /// symbol's noise, then every port-B symbol's, from `rng`; slices each
    /// channel at its self-calibrated midpoint threshold; and measures the
    /// per-channel SNR from the two symbol populations, falling back to the
    /// analytic figure when no channel carries both levels.
    pub fn run(
        &self,
        payload: &[u8],
        rng: &mut GaussianSource,
        scratch: &mut UplinkScratch,
    ) -> Result<UplinkMeasurement> {
        scratch.decoded.clear();
        if payload.is_empty() {
            return Ok(UplinkMeasurement {
                ber: 0.0,
                snr_db: self.snr_a_db,
                analytic_snr_db: self.snr_a_db,
            });
        }
        self.rate_check.map_err(MilbackError::UplinkTx)?;
        scratch.plan(payload);
        let UplinkScratch {
            bits,
            reflective,
            stats,
            sorted,
            thresholds,
            decoded,
            ..
        } = scratch;
        let n = bits.len() / 2;
        // Both ports' normals as one block, port A then port B, scaled in
        // place as `sample(sigma)` would.
        stats.clear();
        stats.resize(2 * n, 0.0);
        rng.fill_standard(stats);
        for ((port_bits, port_stats), ch) in bits
            .chunks_exact(n)
            .zip(stats.chunks_exact_mut(n))
            .zip(&self.channels)
        {
            for (&on, z) in port_bits.iter().zip(port_stats) {
                *z = if on { ch.hi } else { ch.lo } + *z * ch.sigma;
            }
        }
        // One symbol per statistic, so integrate-and-dump is the identity.
        // Each tail of the slicer is sought at the level of the population
        // that fills it: about half of a level's symbols lie beyond it, so
        // a population of at least twice the tail's ranks fills that tail.
        let tail = n.div_ceil(10) + 1;
        for ((t, port_stats), (ch, &on)) in thresholds
            .iter_mut()
            .zip(stats.chunks_exact(n))
            .zip(self.channels.iter().zip(reflective.iter()))
        {
            let low_pivot = if 2 * tail <= n - on { ch.lo } else { ch.hi };
            let high_pivot = if 2 * tail <= on { ch.hi } else { ch.lo };
            *t = midpoint_threshold_tails(port_stats, low_pivot, high_pivot, sorted)
                .ok_or(MilbackError::UplinkRx(UplinkRxError::NoContrast))?;
        }
        let (stats_a, stats_b) = stats.split_at(n);
        let (bits_a, bits_b) = bits.split_at(n);
        let [t_a, t_b] = *thresholds;
        // Slice, count errors and pack bytes in one pass, four symbols
        // (one byte) at a time.
        let mut errors = 0usize;
        for ((sa, sb), (ba, bb)) in stats_a
            .chunks_exact(4)
            .zip(stats_b.chunks_exact(4))
            .zip(bits_a.chunks_exact(4).zip(bits_b.chunks_exact(4)))
        {
            let mut byte = 0u8;
            for i in 0..4 {
                let (a, b) = (sa[i] > t_a, sb[i] > t_b);
                errors += usize::from(a != ba[i]) + usize::from(b != bb[i]);
                byte = (byte << 2) | (u8::from(a) << 1) | u8::from(b);
            }
            decoded.push(byte);
        }
        // A channel whose payload happens to contain only one level cannot
        // be measured; average the channels that can.
        let measured =
            [(stats_a, bits_a), (stats_b, bits_b)].map(|(s, b)| measure_channel_snr_db(s, b));
        let measurable = measured.iter().flatten().count();
        Ok(UplinkMeasurement {
            ber: errors as f64 / (2 * n) as f64,
            snr_db: if measurable == 0 {
                self.analytic_snr_db
            } else {
                measured.iter().flatten().sum::<f64>() / measurable as f64
            },
            analytic_snr_db: self.analytic_snr_db,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(distance: f64, orientation_deg: f64) -> LinkSimulator {
        LinkSimulator::new(
            SystemConfig::milback_default(),
            Scene::single_node(distance, orientation_deg.to_radians()),
        )
        .unwrap()
    }

    #[test]
    fn downlink_delivers_payload_at_short_range() {
        let s = sim(2.0, 12.0);
        let mut rng = GaussianSource::new(1);
        let payload = vec![0xDE, 0xAD, 0xBE, 0xEF];
        let out = s.downlink(&payload, &mut rng).unwrap();
        assert_eq!(out.decoded, payload);
        assert_eq!(out.ber, 0.0);
        assert!(matches!(out.carriers, CarrierSet::TwoTone { .. }));
    }

    #[test]
    fn downlink_sinr_in_fig14_band() {
        // Fig 14: SINR ≈ 22–25 dB at 2 m, ≥12 dB at 10 m.
        let near = sim(2.0, 12.0);
        let far = sim(10.0, 12.0);
        let gt = near.scene.ground_truth(0);
        let c = near.plan_carriers(None).unwrap();
        let (fa, fb) = match c {
            CarrierSet::TwoTone { f_a, f_b } => (f_a, f_b),
            _ => panic!("expected two tones"),
        };
        let (a2, b2) = near.downlink_sinr_breakdown(fa, fb, gt.incidence_rad);
        let s2 = a2.sinr_db().min(b2.sinr_db());
        let (a10, b10) = far.downlink_sinr_breakdown(fa, fb, gt.incidence_rad);
        let s10 = a10.sinr_db().min(b10.sinr_db());
        assert!((20.0..27.0).contains(&s2), "SINR@2m = {s2:.1} dB");
        assert!((11.0..16.0).contains(&s10), "SINR@10m = {s10:.1} dB");
        assert!(s2 > s10);
    }

    #[test]
    fn downlink_sinr_saturates_at_very_short_range() {
        // Interference-limited: going from 2 m to 0.5 m barely helps.
        let s05 = sim(0.5, 12.0);
        let s2 = sim(2.0, 12.0);
        let gt = s2.scene.ground_truth(0);
        let c = s2.plan_carriers(None).unwrap();
        let (fa, fb) = match c {
            CarrierSet::TwoTone { f_a, f_b } => (f_a, f_b),
            _ => unreachable!(),
        };
        let near = {
            let (a, b) = s05.downlink_sinr_breakdown(fa, fb, gt.incidence_rad);
            a.sinr_db().min(b.sinr_db())
        };
        let mid = {
            let (a, b) = s2.downlink_sinr_breakdown(fa, fb, gt.incidence_rad);
            a.sinr_db().min(b.sinr_db())
        };
        assert!(
            near - mid < 4.0,
            "gain from 2→0.5 m is {:.1} dB",
            near - mid
        );
    }

    #[test]
    fn normal_incidence_uses_ook() {
        let s = sim(3.0, 0.0);
        let carriers = s.plan_carriers(None).unwrap();
        assert!(matches!(carriers, CarrierSet::SingleToneOok { .. }));
    }

    #[test]
    fn ook_downlink_roundtrips_payload() {
        let s = sim(3.0, 0.0);
        let mut rng = GaussianSource::new(21);
        let payload = vec![0x00, 0xFF, 0xA5, 0x5A, 0x13];
        let out = s.downlink(&payload, &mut rng).unwrap();
        assert_eq!(out.decoded, payload);
        assert_eq!(out.ber, 0.0);
        assert!(matches!(out.carriers, CarrierSet::SingleToneOok { .. }));
    }

    #[test]
    fn ook_trades_rate_for_sinr() {
        // The OOK fallback carries half the bits per symbol but has no
        // cross-tone interference, so its SINR exceeds OAQFM's
        // (interference-capped at this range) — the quantified version of
        // §6.2's degenerate case.
        let mut rng = GaussianSource::new(22);
        let ook = sim(4.0, 0.0).downlink(&[0x3C; 16], &mut rng).unwrap();
        let oaqfm = sim(4.0, 12.0).downlink(&[0x3C; 16], &mut rng).unwrap();
        assert!(
            ook.sinr_db() > oaqfm.sinr_db(),
            "OOK {:.1} dB vs OAQFM {:.1} dB",
            ook.sinr_db(),
            oaqfm.sinr_db()
        );
        assert_eq!(ook.ber, 0.0);
    }

    #[test]
    fn uplink_delivers_payload_at_short_range() {
        let s = sim(2.0, 12.0);
        let mut rng = GaussianSource::new(2);
        let payload = vec![0x55, 0xAA, 0x0F, 0xF0];
        let out = s.uplink(&payload, &mut rng).unwrap();
        assert_eq!(out.decoded, payload);
        assert_eq!(out.ber, 0.0);
    }

    #[test]
    fn uplink_snr_anchors_match_paper() {
        // 10 Mbps at 8 m ≈ 11 dB (BER ~2e-4); 40 Mbps at 6 m ≈ 10 dB.
        let mut cfg = SystemConfig::milback_default();
        cfg.uplink_symbol_rate_hz = 5e6; // 10 Mbps
        let s = LinkSimulator::new(cfg, Scene::single_node(8.0, 12f64.to_radians())).unwrap();
        let snr = s.uplink_analytic_snr_db().unwrap();
        assert!((snr - 11.0).abs() < 2.0, "10 Mbps @ 8 m: {snr:.1} dB");

        let cfg40 = SystemConfig::milback_default(); // 20 Msym/s = 40 Mbps
        let s40 = LinkSimulator::new(cfg40, Scene::single_node(6.0, 12f64.to_radians())).unwrap();
        let snr40 = s40.uplink_analytic_snr_db().unwrap();
        assert!((snr40 - 10.0).abs() < 2.0, "40 Mbps @ 6 m: {snr40:.1} dB");
    }

    #[test]
    fn uplink_snr_falls_at_40_log_r() {
        let s4 = sim(4.0, 12.0);
        let s8 = sim(8.0, 12.0);
        let d = s4.uplink_analytic_snr_db().unwrap() - s8.uplink_analytic_snr_db().unwrap();
        assert!(
            (d - 12.04).abs() < 0.1,
            "two-way slope {d:.2} dB per doubling"
        );
    }

    #[test]
    fn higher_rate_costs_6db() {
        let mut cfg10 = SystemConfig::milback_default();
        cfg10.uplink_symbol_rate_hz = 5e6;
        let scene = Scene::single_node(5.0, 12f64.to_radians());
        let s10 = LinkSimulator::new(cfg10, scene.clone()).unwrap();
        let s40 = LinkSimulator::new(SystemConfig::milback_default(), scene).unwrap();
        let d = s10.uplink_analytic_snr_db().unwrap() - s40.uplink_analytic_snr_db().unwrap();
        assert!((d - 6.02).abs() < 0.05, "rate penalty {d:.2} dB");
    }

    #[test]
    fn uplink_measured_snr_tracks_analytic() {
        let s = sim(5.0, 12.0);
        let mut rng = GaussianSource::new(3);
        let payload: Vec<u8> = rng.bytes(2048);
        let out = s.uplink(&payload, &mut rng).unwrap();
        assert!(
            (out.snr_db - out.analytic_snr_db).abs() < 1.0,
            "measured {:.1} vs analytic {:.1}",
            out.snr_db,
            out.analytic_snr_db
        );
    }

    #[test]
    fn uplink_ber_appears_at_long_range() {
        // Far enough out, errors must occur; analytic and measured BER
        // should agree within Monte-Carlo error.
        let mut cfg = SystemConfig::milback_default();
        cfg.uplink_symbol_rate_hz = 20e6;
        let s = LinkSimulator::new(cfg, Scene::single_node(9.0, 12f64.to_radians())).unwrap();
        let mut rng = GaussianSource::new(4);
        let payload: Vec<u8> = rng.bytes(20_000);
        let out = s.uplink(&payload, &mut rng).unwrap();
        let analytic = LinkSimulator::uplink_ber_from_snr(out.analytic_snr_db);
        assert!(out.ber > 0.0, "expected errors at 9 m / 40 Mbps");
        assert!(
            out.ber / analytic < 5.0 && analytic / out.ber < 5.0,
            "measured {:.2e} vs analytic {:.2e}",
            out.ber,
            analytic
        );
    }

    #[test]
    fn waveform_uplink_delivers_payload() {
        let s = sim(3.0, 12.0);
        let mut rng = GaussianSource::new(31);
        let payload = vec![0x42, 0x13, 0x37, 0xFF, 0x00];
        let out = s.uplink_waveform(&payload, 8, &mut rng).unwrap();
        assert_eq!(out.decoded, payload);
        assert_eq!(out.ber, 0.0);
    }

    #[test]
    fn waveform_and_symbol_uplink_agree_on_ber() {
        // At a range with measurable BER both paths should land within
        // Monte-Carlo error of each other.
        let mut cfg = SystemConfig::milback_default();
        cfg.uplink_symbol_rate_hz = 20e6;
        let s = LinkSimulator::new(cfg, Scene::single_node(9.0, 12f64.to_radians())).unwrap();
        let mut rng = GaussianSource::new(32);
        let payload: Vec<u8> = rng.bytes(20_000);
        let sym = s.uplink(&payload, &mut rng).unwrap();
        let wav = s.uplink_waveform(&payload, 4, &mut rng).unwrap();
        assert!(sym.ber > 0.0 && wav.ber > 0.0);
        let ratio = wav.ber / sym.ber;
        assert!(
            (0.3..3.0).contains(&ratio),
            "sym {:.2e} vs wav {:.2e}",
            sym.ber,
            wav.ber
        );
    }

    #[test]
    fn downlink_ber_mapping_reference() {
        // 12 dB SINR → ≈1e-8 (the Fig 14 annotation).
        let ber = LinkSimulator::downlink_ber_from_sinr(12.0);
        assert!(ber < 5e-8 && ber > 1e-9, "ber {ber:.2e}");
    }

    #[test]
    fn empty_scene_rejected() {
        let mut scene = Scene::single_node(2.0, 0.0);
        scene.nodes.clear();
        assert!(LinkSimulator::new(SystemConfig::milback_default(), scene).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let s = sim(4.0, 12.0);
        let run = |seed| {
            let mut rng = GaussianSource::new(seed);
            s.uplink(&[1, 2, 3, 4, 5, 6, 7, 8], &mut rng).unwrap()
        };
        assert_eq!(run(9), run(9));
        // Different seed → same decode at this SNR, possibly different
        // measured-SNR estimate.
        assert_eq!(run(9).decoded, run(10).decoded);
    }
}

//! Property-based tests (proptest) over the stack's core invariants:
//! geometry inversions, modulation round-trips, framing robustness, FFT
//! algebra and link-budget monotonicity — with randomized inputs rather
//! than hand-picked cases.

use milback::ap::uplink_rx::measure_channel_snr_db;
use milback::ap::waveform::{CarrierSet, FmcwConfig, LinkDirection};
use milback::core::protocol::{Packet, SlotPlan};
use milback::core::{
    ApServiceConfig, CampaignAggregate, CampaignProbe, CampaignSpec, LifecycleStats, MacPolicy,
    MilbackError, Network, OverflowPolicy, RoundRobinPolling, Scene, SdmAwareAssignment,
    SlottedAloha, SlottedRunReport, SystemConfig,
};
use milback::node::{OaqfmDemodulator, Thresholds};
use milback::rf::antenna::fsa::{DualPortFsa, FsaDesign, FsaPort};
use milback::rf::propagation;
use milback::sigproc::complex::Complex;
use milback::sigproc::detect::{midpoint_threshold_into, midpoint_threshold_tails};
use milback::sigproc::fft::{fft, ifft};
use milback::sigproc::random::GaussianSource;
use milback::sigproc::stats::percentile;
use milback::sigproc::waveform::{bytes_to_symbols, ook_envelope, symbols_to_bytes, Chirp};
use proptest::prelude::*;

proptest! {
    /// FSA frequency↔angle mapping inverts across the whole band, both ports.
    #[test]
    fn fsa_mapping_inverts(f in 26.5e9f64..29.5e9f64) {
        let fsa = FsaDesign::milback_default();
        for port in [FsaPort::A, FsaPort::B] {
            let angle = fsa.beam_angle_rad(port, f).unwrap();
            let back = fsa.frequency_for_angle(port, angle).unwrap();
            prop_assert!((back - f).abs() < 1e3, "{f} → {angle} → {back}");
        }
    }

    /// OAQFM carriers exist and point both beams at the node for any
    /// orientation within the scan range (outside the OOK fallback zone).
    #[test]
    fn oaqfm_carriers_always_align(deg in -28.0f64..28.0f64) {
        prop_assume!(deg.abs() > 2.0);
        let fsa = DualPortFsa::milback_default();
        let psi = deg.to_radians();
        let (fa, fb) = fsa.oaqfm_carriers(psi).unwrap();
        let a = fsa.design.beam_angle_rad(FsaPort::A, fa).unwrap();
        let b = fsa.design.beam_angle_rad(FsaPort::B, fb).unwrap();
        prop_assert!((a - psi).abs() < 1e-9);
        prop_assert!((b - psi).abs() < 1e-9);
    }

    /// Triangular-chirp peak-separation inversion is exact over the band.
    #[test]
    fn triangular_inversion(f in 26.5e9f64..29.5e9f64) {
        let c = Chirp::triangular(26.5e9, 3e9, 45e-6);
        let (up, down) = c.triangular_crossings(f).unwrap();
        let rec = c.freq_from_peak_separation(down - up).unwrap();
        prop_assert!((rec - f).abs() < 1.0);
    }

    /// Beat-frequency ↔ range inversion for arbitrary slopes and ranges.
    #[test]
    fn beat_range_inversion(d in 0.1f64..30.0, bw in 0.5e9f64..4e9, dur in 5e-6f64..50e-6) {
        let slope = bw / dur;
        let beat = propagation::beat_frequency_hz(slope, d);
        prop_assert!((propagation::range_from_beat_m(slope, beat) - d).abs() < 1e-9);
    }

    /// AoA phase ↔ angle inversion within the unambiguous region.
    #[test]
    fn aoa_inversion(deg in -89.0f64..89.0) {
        let f = 28e9;
        let baseline = milback::sigproc::units::wavelength(f) / 2.0;
        let phi = propagation::aoa_phase_difference_rad(f, baseline, deg.to_radians());
        let rec = propagation::angle_from_phase_rad(f, baseline, phi).unwrap();
        prop_assert!((rec - deg.to_radians()).abs() < 1e-9);
    }

    /// Byte ↔ OAQFM-symbol packing round-trips for arbitrary payloads.
    #[test]
    fn symbol_packing_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let syms = bytes_to_symbols(&payload);
        prop_assert_eq!(symbols_to_bytes(&syms), payload);
    }

    /// The waveform-level demodulator recovers arbitrary payloads from
    /// clean traces at any oversampling factor.
    #[test]
    fn demodulator_roundtrip(
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        sps in 4usize..32,
    ) {
        let syms = bytes_to_symbols(&payload);
        let la: Vec<f64> = syms.iter().map(|s| if s.tone_a { 0.01 } else { 0.0 }).collect();
        let lb: Vec<f64> = syms.iter().map(|s| if s.tone_b { 0.01 } else { 0.0 }).collect();
        let ta = ook_envelope(&la, sps);
        let tb = ook_envelope(&lb, sps);
        let demod = OaqfmDemodulator::new(sps);
        let out = demod
            .demodulate(&ta, &tb, Thresholds { a: 0.005, b: 0.005 })
            .unwrap();
        prop_assert_eq!(symbols_to_bytes(&out), payload);
    }

    /// Packet framing round-trips for arbitrary payloads and directions.
    #[test]
    fn frame_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..1024), up in any::<bool>()) {
        let p = if up { Packet::uplink(payload) } else { Packet::downlink(payload) };
        prop_assert_eq!(Packet::from_bytes(p.to_bytes()), Ok(p));
    }

    /// The frame parser never panics on arbitrary bytes, and anything it
    /// accepts re-serializes to the same bytes (parse-print identity).
    #[test]
    fn frame_parser_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let input = bytes::Bytes::from(bytes);
        if let Ok(packet) = Packet::from_bytes(input.clone()) {
            prop_assert_eq!(packet.to_bytes(), input);
        }
    }

    /// FFT ∘ IFFT is the identity for arbitrary-length complex signals.
    #[test]
    fn fft_roundtrip(re in proptest::collection::vec(-100.0f64..100.0, 1..200)) {
        let x: Vec<Complex> = re
            .iter()
            .enumerate()
            .map(|(i, &r)| Complex::new(r, (i as f64 * 0.7).sin()))
            .collect();
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).norm() < 1e-6);
        }
    }

    /// Parseval: energy is preserved by the transform at any length.
    #[test]
    fn fft_parseval(re in proptest::collection::vec(-10.0f64..10.0, 2..128)) {
        let x: Vec<Complex> = re.iter().map(|&r| Complex::real(r)).collect();
        let y = fft(&x);
        let e_t: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let e_f: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        prop_assert!((e_t - e_f).abs() <= 1e-8 * e_t.max(1.0));
    }

    /// Free-space path loss is monotone in both distance and frequency.
    #[test]
    fn fspl_monotone(d in 0.5f64..20.0, f in 24e9f64..40e9) {
        prop_assert!(propagation::fspl_db(f, d * 1.01) > propagation::fspl_db(f, d));
        prop_assert!(propagation::fspl_db(f * 1.01, d) > propagation::fspl_db(f, d));
    }

    /// Scene ground truth is self-consistent for arbitrary placements: the
    /// stored incidence equals the recomputed bearing difference.
    #[test]
    fn scene_geometry_consistent(
        r in 0.5f64..15.0,
        az in -1.2f64..1.2,
        orient in -0.5f64..0.5,
    ) {
        let scene = Scene {
            ap: milback::rf::channel::ApFrontend::milback_default(),
            nodes: vec![],
            clutter: vec![],
        }
        .with_node_at(r, az, orient);
        let gt = scene.ground_truth(0);
        prop_assert!((gt.range_m - r).abs() < 1e-9);
        prop_assert!((gt.azimuth_rad - az).abs() < 1e-9);
        prop_assert!((gt.incidence_rad + orient).abs() < 1e-9);
    }

    /// Carrier planning never returns out-of-band tones, for any
    /// orientation estimate it accepts.
    #[test]
    fn carrier_plan_in_band(deg in -40.0f64..40.0) {
        let sim = milback::core::LinkSimulator::new(
            SystemConfig::milback_default(),
            Scene::single_node(3.0, 0.0),
        )
        .unwrap();
        match sim.plan_carriers(Some(deg.to_radians())) {
            Ok(CarrierSet::TwoTone { f_a, f_b }) => {
                prop_assert!((26.5e9..=29.5e9).contains(&f_a));
                prop_assert!((26.5e9..=29.5e9).contains(&f_b));
            }
            Ok(CarrierSet::SingleToneOok { f }) => {
                prop_assert!((26.5e9..=29.5e9).contains(&f));
            }
            Err(_) => {
                // Out-of-scan orientations must error, not fabricate tones.
                prop_assert!(deg.abs() > 29.0, "errored inside scan range at {deg}°");
            }
        }
    }

    /// Packet airtime arithmetic: efficiency is in (0, 1) and increases
    /// with payload size.
    #[test]
    fn packet_efficiency_monotone(n in 1usize..4096) {
        let fmcw = FmcwConfig::milback_default();
        let small = Packet { direction: LinkDirection::Uplink, payload: vec![0; n] };
        let big = Packet { direction: LinkDirection::Uplink, payload: vec![0; n + 16] };
        let e1 = small.efficiency(&fmcw, 20e6);
        let e2 = big.efficiency(&fmcw, 20e6);
        prop_assert!(e1 > 0.0 && e1 < 1.0);
        prop_assert!(e2 > e1);
    }

    /// The uplink slicer keeps its bits: the unstable-sort midpoint
    /// threshold, its tail-selecting form under any pivots, and the
    /// two-pass channel SNR equal, by `to_bits`, a stable-sort reference
    /// and the five-pass form they replaced, on traces of 1–600 samples
    /// rich in ties, signed zeros and infinities (a NaN sample gives
    /// `None`). The pivots are drawn, equal to a sample, or chosen to force
    /// the full-sort fallback (NaN, or nothing beyond them) or to keep
    /// every sample.
    #[test]
    fn slicer_matches_stable_sort_reference(
        len in 1usize..601,
        picks in proptest::collection::vec(0usize..12, 600..601),
        noise in proptest::collection::vec(-2.0f64..2.0, 600..601),
        bits in proptest::collection::vec(any::<bool>(), 600..601),
        drawn in proptest::collection::vec(-2.5f64..2.5, 2..3),
        nan_at in 0usize..4800,
    ) {
        let level = |k: usize, v: f64, infinite: bool| match k {
            0 => 0.0,
            1 => -0.0,
            2 => 0.25,
            3 => -1.0,
            4 if infinite => f64::INFINITY,
            5 if infinite => f64::NEG_INFINITY,
            _ => v,
        };
        let mut trace: Vec<f64> = picks[..len]
            .iter()
            .zip(&noise)
            .map(|(&k, &v)| level(k, v, true))
            .collect();
        if let Some(x) = trace.get_mut(nan_at) {
            *x = f64::NAN;
        }
        let mut sorted = Vec::new();
        for n in [1, 2, 3, len / 2, len] {
            let t = &trace[..n.clamp(1, len)];
            let want = stable_sort_midpoint(t).map(f64::to_bits);
            prop_assert_eq!(
                midpoint_threshold_into(t, &mut sorted).map(f64::to_bits),
                want,
                "{:?}", t
            );
            for (low, high) in [
                (drawn[0], drawn[1]),
                (drawn[0].min(drawn[1]), drawn[0].max(drawn[1])),
                (t[0], t[t.len() - 1]),
                (f64::NAN, f64::NAN),
                (f64::NEG_INFINITY, f64::INFINITY),
                (f64::INFINITY, f64::NEG_INFINITY),
            ] {
                prop_assert_eq!(
                    midpoint_threshold_tails(t, low, high, &mut sorted).map(f64::to_bits),
                    want,
                    "pivots {} {} on {:?}", low, high, t
                );
            }
        }
        if len >= 2 {
            let trace: Vec<f64> = picks[..len]
                .iter()
                .zip(&noise)
                .map(|(&k, &v)| level(k, v, false))
                .collect();
            let mut bits = bits[..len].to_vec();
            bits[0] = true;
            bits[1] = false;
            prop_assert_eq!(
                measure_channel_snr_db(&trace, &bits).map(f64::to_bits),
                Some(five_pass_channel_snr_db(&trace, &bits).to_bits()),
                "{:?} {:?}", trace, bits
            );
        }
    }

    /// `percentile` selects instead of sorting, and reads the bits a
    /// stable sort leaves at its ranks, `±0` ties and infinities included.
    #[test]
    fn percentile_selection_matches_sorted_reference(
        len in 1usize..601,
        picks in proptest::collection::vec(0usize..12, 600..601),
        noise in proptest::collection::vec(-2.0f64..2.0, 600..601),
    ) {
        let x: Vec<f64> = picks[..len]
            .iter()
            .zip(&noise)
            .map(|(&k, &v)| match k {
                0..=2 => 0.0,
                3..=5 => -0.0,
                6 => f64::INFINITY,
                7 => f64::NEG_INFINITY,
                8 => 0.5,
                _ => v,
            })
            .collect();
        for n in [1, 2, 3, len / 2, len] {
            let t = &x[..n.clamp(1, len)];
            for p in [0.0, 10.0, 50.0, 90.0, 100.0] {
                prop_assert_eq!(
                    percentile(t, p).to_bits(),
                    sorted_percentile(t, p).to_bits(),
                    "p{} of {:?}", p, t
                );
            }
        }
    }
}

proptest! {
    /// Adversarial campaign specs — empty campaigns, zero- and one-slot
    /// queues under every overflow policy, stage latencies and jitter up
    /// to the top of the picosecond clock — end in either a conserving
    /// ledger or a typed configuration error through both campaign
    /// runners, never a panic.
    #[test]
    fn adversarial_campaigns_end_typed(
        frames in 0usize..5,
        nodes in 1usize..7,
        slots in 1usize..5,
        cells in 1usize..4,
        policy in 0usize..3,
        capacity in proptest::sample::select(vec![None, Some(0), Some(1)]),
        overflow in proptest::sample::select(vec![
            OverflowPolicy::Drop,
            OverflowPolicy::Defer,
            OverflowPolicy::Degrade,
        ]),
        raw in proptest::collection::vec(any::<u64>(), 4..5),
        shifts in proptest::collection::vec(0u32..96, 4..5),
    ) {
        let config = SystemConfig::milback_default();
        let net = Network::new(
            config.clone(),
            Scene::arc(nodes, 4.0, 90f64.to_radians(), 12f64.to_radians()),
        )
        .unwrap();
        let payload = [0x5Au8; 8];
        let plan = SlotPlan::for_packet(
            slots,
            &Packet::uplink(payload.to_vec()),
            &config.fmcw,
            config.uplink_symbol_rate_hz,
            5e-6,
        )
        .unwrap();
        let ps: Vec<u64> = raw.iter().zip(&shifts).map(|(&r, &s)| edge_ps(r, s)).collect();
        let service = ApServiceConfig {
            capture_ps: ps[0],
            plan_ps: ps[1],
            transmit_ps: ps[2],
            queue_capacity: capacity,
            overflow,
            jitter_ps: ps[3],
        };
        let spec = CampaignSpec::new(frames, &payload, plan).with_service(service);
        let mac = |seed: u64| -> Box<dyn MacPolicy> {
            match policy {
                0 => Box::new(SlottedAloha::new(seed)),
                1 => Box::new(RoundRobinPolling::new()),
                _ => Box::new(SdmAwareAssignment::new()),
            }
        };
        let plain = net
            .run::<SlottedRunReport>(
                &spec,
                mac(7),
                &mut GaussianSource::new(7),
                &mut CampaignProbe::disabled(),
            )
            .map(|r| r.lifecycle);
        let sharded = net
            .run_sharded::<CampaignAggregate>(&spec, cells, 1, 7, |_, seed| mac(seed))
            .map(|a| a.lifecycle);
        for (runner, ledger) in [("run", plain), ("run_sharded", sharded)] {
            let verdict = campaign_verdict(ledger, (frames * nodes) as u64);
            prop_assert!(verdict.is_ok(), "{} on {:?}: {:?}", runner, spec, verdict);
        }
    }
}

/// A picosecond span of any magnitude, by `shift` (0..96): `raw` shifted
/// down by `shift` bits, zero for 64..80, and within three of
/// `u64::MAX >> k` (k = 0..3) past that.
fn edge_ps(raw: u64, shift: u32) -> u64 {
    match shift {
        0..=63 => raw >> shift,
        64..=79 => 0,
        _ => (u64::MAX >> ((shift - 80) / 4)) - raw % 4,
    }
}

/// A finished campaign must offer every node at least once per frame and
/// conserve the ledger; a failed one must fail with a configuration error.
fn campaign_verdict(
    ledger: Result<LifecycleStats, MilbackError>,
    node_frames: u64,
) -> Result<(), String> {
    match ledger {
        Ok(l) if l.offered < node_frames => Err(format!(
            "offered {} packets over {node_frames} node-frames",
            l.offered
        )),
        Ok(l) => l
            .audit()
            .map_err(|e| format!("ledger fails its audit: {e}")),
        Err(MilbackError::Config(_)) => Ok(()),
        Err(e) => Err(format!("untyped failure: {e:?}")),
    }
}

/// Percentile `p` as it was before selection: a stable sort of a copy,
/// then linear interpolation between the two ranks it reads.
fn sorted_percentile(x: &[f64], p: f64) -> f64 {
    let mut v = x.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    if lo == hi {
        v[lo]
    } else {
        let frac = rank - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// The midpoint threshold as it was before the unstable sort: a stable
/// sort per percentile, and no threshold for a trace holding a NaN.
fn stable_sort_midpoint(trace: &[f64]) -> Option<f64> {
    if trace.iter().any(|v| v.is_nan()) {
        return None;
    }
    let hi = sorted_percentile(trace, 90.0);
    let lo = sorted_percentile(trace, 10.0);
    if hi - lo <= 0.0 {
        None
    } else {
        Some((hi + lo) / 2.0)
    }
}

/// The channel SNR as it was before the two-pass form: a count, one sum
/// per population mean and one per population spread.
fn five_pass_channel_snr_db(stats: &[f64], bits: &[bool]) -> f64 {
    let population = |level: bool| {
        stats
            .iter()
            .zip(bits)
            .filter(move |(_, &b)| b == level)
            .map(|(&v, _)| v)
    };
    let n_on = bits.iter().filter(|&&b| b).count();
    let n_off = bits.len() - n_on;
    let mean_on = population(true).sum::<f64>() / n_on as f64;
    let mean_off = population(false).sum::<f64>() / n_off as f64;
    let variance_of = |level: bool, n: usize, m: f64| {
        if n > 1 {
            population(level).map(|v| (v - m) * (v - m)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        }
    };
    let swing = (mean_on - mean_off) / 2.0;
    let noise = ((variance_of(true, n_on, mean_on) + variance_of(false, n_off, mean_off)) / 2.0)
        .max(1e-300);
    10.0 * (swing * swing / noise).log10()
}

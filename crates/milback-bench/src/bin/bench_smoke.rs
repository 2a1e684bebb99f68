//! Machine-readable performance baselines (`results/BENCH_dsp.json` and
//! `results/BENCH_experiments.json`).
//!
//! The DSP half times the planned FFT layer (cached one-shot vs the seed's
//! plan-per-call path, plus the allocation-free in-place path), a full
//! range–Doppler frame serial vs parallel, beat synthesis, the Gaussian
//! noise kernels (one `standard()` per draw vs the block fill vs the
//! skip), one five-chirp two-channel localization capture, and one reduced
//! Figure-15 uplink run (through the trial-parallel runner). Every
//! contender pair is sampled round-robin (one short burst each,
//! alternating, min over many rounds) so background load on a shared
//! machine hits both sides equally instead of biasing whichever ran
//! second.
//!
//! The experiments half times each migrated experiment core end-to-end at
//! reduced scale — serial (`threads = 1`) vs parallel
//! (`RunnerConfig::from_env()`) — asserting the two schedules return
//! bit-identical results, and microbenches the hoisted/memoized
//! [`FsaGainEval`] gain evaluator against the direct per-call path on a
//! dense angle grid.
//!
//! The JSON files are regression baselines, not marketing numbers: core
//! count, thread count, and both sides of every ratio are recorded as
//! measured.

use std::fs;
use std::time::Instant;

use milback_bench::experiments::{self, OrientSide};
use milback_bench::hostinfo::HostInfo;
use milback_bench::results_dir;
use milback_bench::runner::RunnerConfig;
use milback_bench::spans;
use milback_core::json;
use milback_core::localization::Impairments;
use milback_core::SystemConfig;
use mmwave_rf::antenna::fsa::{FsaDesign, FsaGainEval, FsaPort};
use mmwave_rf::channel::{synthesize_beat_with_threads, Echo};
use mmwave_sigproc::complex::Complex;
use mmwave_sigproc::fft::{fft, Direction, FftPlan, FftPlanner};
use mmwave_sigproc::random::GaussianSource;
use std::f64::consts::PI;

/// The seed revision's one-shot FFT, transcribed verbatim: bit-reversal
/// table, twiddle table, and strided radix-2 butterflies rebuilt on every
/// call. This is the plan-per-call baseline the planner is measured
/// against (power-of-two lengths only, like the original).
fn seed_fft(x: &[Complex]) -> Vec<Complex> {
    let n = x.len();
    let mut buf = x.to_vec();
    let bits = n.trailing_zeros();
    let rev = (0..n as u32)
        .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
        .collect::<Vec<_>>();
    let twiddles: Vec<Complex> = (0..n / 2)
        .map(|k| Complex::cis(-2.0 * PI * k as f64 / n as f64))
        .collect();
    for (i, &r) in rev.iter().enumerate() {
        let r = r as usize;
        if i < r {
            buf.swap(i, r);
        }
    }
    let mut len = 2;
    while len <= n {
        let stride = n / len;
        let half = len / 2;
        for start in (0..n).step_by(len) {
            for k in 0..half {
                let w = twiddles[k * stride];
                let a = buf[start + k];
                let b = buf[start + k + half] * w;
                buf[start + k] = a + b;
                buf[start + k + half] = a - b;
            }
        }
        len <<= 1;
    }
    buf
}

/// Round-robin min-of-rounds timer: each round runs every contender once
/// (a burst of `iters` calls), so transient machine load degrades all
/// contenders alike; the minimum over rounds estimates the unloaded cost.
/// Returns ns per call for each contender.
fn race(rounds: usize, iters: usize, contenders: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; contenders.len()];
    for _ in 0..rounds {
        for (slot, f) in best.iter_mut().zip(contenders.iter_mut()) {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            *slot = slot.min(t.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
    best
}

/// Complex samples per noise contender call: one beat chirp.
const NOISE_SAMPLES: usize = 900;

struct NoiseRow {
    scalar_ns: f64,
    block_ns: f64,
    skip_ns: f64,
    bit_exact: bool,
}

/// Complex AWGN over one chirp three ways: one `sample()` per quadrature
/// (the per-draw path), `add_complex_noise` (the block kernel), and
/// `skip_standard` over the same draws (RX2's skipped chirps). `bit_exact`
/// checks the block fill and the block adder against the `standard()` loop
/// on twin streams.
fn bench_noise() -> NoiseRow {
    let draws = 2 * NOISE_SAMPLES;
    let (mut scalar, mut block) = (GaussianSource::new(0x901), GaussianSource::new(0x901));
    let want: Vec<u64> = (0..draws).map(|_| scalar.standard().to_bits()).collect();
    let mut got = vec![0.0; draws];
    block.fill_standard(&mut got);
    let mut bit_exact = got.iter().map(|v| v.to_bits()).eq(want.iter().copied());
    let sigma = (1e-14f64 / 2.0).sqrt();
    let mut want = test_signal(NOISE_SAMPLES);
    let mut got = want.clone();
    for z in &mut want {
        *z += Complex::new(scalar.sample(sigma), scalar.sample(sigma));
    }
    block.add_complex_noise(&mut got, 1e-14);
    bit_exact &= got
        .iter()
        .zip(&want)
        .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());

    let mut buf = test_signal(NOISE_SAMPLES);
    let mut rng = GaussianSource::new(0x902);
    let mut per_draw = || {
        for z in buf.iter_mut() {
            *z += Complex::new(rng.sample(sigma), rng.sample(sigma));
        }
        std::hint::black_box(&mut buf);
    };
    let mut block_buf = test_signal(NOISE_SAMPLES);
    let mut block_rng = GaussianSource::new(0x902);
    let mut block = || {
        block_rng.add_complex_noise(&mut block_buf, 1e-14);
        std::hint::black_box(&mut block_buf);
    };
    let mut skip_rng = GaussianSource::new(0x902);
    let mut skip = || {
        skip_rng.skip_standard(draws);
        std::hint::black_box(&mut skip_rng);
    };
    let times = race(60, 10, &mut [&mut per_draw, &mut block, &mut skip]);
    NoiseRow {
        scalar_ns: times[0],
        block_ns: times[1],
        skip_ns: times[2],
        bit_exact,
    }
}

fn test_signal(n: usize) -> Vec<Complex> {
    (0..n)
        .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect()
}

struct FftRow {
    n: usize,
    kind: &'static str,
    cached_oneshot_ns: f64,
    plan_per_call_ns: f64,
    planned_inplace_ns: f64,
}

/// One FFT size: cached one-shot `fft()` vs plan-per-call vs planned
/// in-place. Power-of-two sizes use the transcribed seed path as the
/// plan-per-call baseline; Bluestein sizes (no seed transcription exists)
/// rebuild the current `FftPlan` every call instead.
fn bench_fft_size(n: usize, rounds: usize, iters: usize) -> FftRow {
    let x = test_signal(n);
    let pow2 = n.is_power_of_two();
    let plan = FftPlanner::plan(n);
    let mut buf = x.clone();
    let mut scratch = vec![0.0f64; plan.scratch_len()];

    // Sanity: the baseline and the planned path agree before we time them.
    if pow2 {
        let a = fft(&x);
        let b = seed_fft(&x);
        let err: f64 = a.iter().zip(&b).map(|(p, q)| (*p - *q).norm()).sum();
        assert!(
            err < 1e-6 * n as f64,
            "seed transcription disagrees at n={n}: {err}"
        );
    }

    let mut cached = || {
        std::hint::black_box(fft(std::hint::black_box(&x)));
    };
    let mut per_call_pow2 = || {
        std::hint::black_box(seed_fft(std::hint::black_box(&x)));
    };
    let mut per_call_bluestein = || {
        let mut b = std::hint::black_box(&x).clone();
        FftPlan::new(n).process(&mut b, Direction::Forward);
        std::hint::black_box(b);
    };
    let mut inplace = || {
        plan.process_with_scratch(&mut buf, &mut scratch, Direction::Forward);
    };
    let per_call: &mut dyn FnMut() = if pow2 {
        &mut per_call_pow2
    } else {
        &mut per_call_bluestein
    };
    let times = race(rounds, iters, &mut [&mut cached, per_call, &mut inplace]);
    FftRow {
        n,
        kind: if pow2 { "pow2" } else { "bluestein" },
        cached_oneshot_ns: times[0],
        plan_per_call_ns: times[1],
        planned_inplace_ns: times[2],
    }
}

/// One migrated experiment core timed serial vs parallel at reduced scale.
struct ExpRow {
    name: &'static str,
    trials: usize,
    serial_ms: f64,
    parallel_ms: f64,
    bit_exact: bool,
}

impl ExpRow {
    fn speedup(&self) -> f64 {
        self.serial_ms / self.parallel_ms
    }
}

/// Runs an experiment core once per schedule to check bit-exactness, then
/// `rounds` more times per schedule (round-robin) taking the minimum.
fn bench_experiment<T: PartialEq>(
    name: &'static str,
    trials: usize,
    rounds: usize,
    run: impl Fn(&RunnerConfig) -> T,
) -> ExpRow {
    // One profiling span per experiment core, surfaced in the `spans`
    // section of BENCH_experiments.json.
    let _span = spans::span(name);
    let serial_cfg = RunnerConfig::serial();
    let parallel_cfg = RunnerConfig::from_env();
    let bit_exact = run(&serial_cfg) == run(&parallel_cfg);
    let mut serial_ns = f64::INFINITY;
    let mut parallel_ns = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        std::hint::black_box(run(&serial_cfg));
        serial_ns = serial_ns.min(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        std::hint::black_box(run(&parallel_cfg));
        parallel_ns = parallel_ns.min(t.elapsed().as_nanos() as f64);
    }
    let row = ExpRow {
        name,
        trials,
        serial_ms: serial_ns / 1e6,
        parallel_ms: parallel_ns / 1e6,
        bit_exact,
    };
    println!(
        "  {:<22} {:>3} trials  serial {:>8.1} ms  parallel {:>8.1} ms  ({:.2}x)  bit-exact {}",
        row.name,
        row.trials,
        row.serial_ms,
        row.parallel_ms,
        row.speedup(),
        row.bit_exact
    );
    row
}

/// Times the reduced experiment suite serial vs parallel through the
/// runner, asserting bitwise-identical results per core.
fn bench_experiments() -> Vec<ExpRow> {
    println!("experiment cores, reduced scale (serial vs parallel, min over rounds):");
    let rounds = 2;
    let mut rows = Vec::new();
    rows.push(bench_experiment("fig12a_ranging", 12, rounds, |cfg| {
        experiments::fig12a_ranging(&[2.0, 5.0, 8.0], 4, 0xF12A, cfg)
    }));
    rows.push(bench_experiment("fig12b_angle_cdf", 6, rounds, |cfg| {
        experiments::fig12b_angle_errors(&[(-10.0, 2.0), (8.0, 4.0)], 3, 0xF12B, cfg)
    }));
    rows.push(bench_experiment("fig13a_orient_node", 12, rounds, |cfg| {
        experiments::fig13_orientation(&[-15.0, 0.0, 15.0], 4, 0xF13A, cfg, OrientSide::Node)
    }));
    rows.push(bench_experiment("fig13b_orient_ap", 12, rounds, |cfg| {
        experiments::fig13_orientation(&[-12.0, 0.0, 12.0], 4, 0xF13B, cfg, OrientSide::Ap)
    }));
    rows.push(bench_experiment("fig14_downlink_spots", 3, rounds, |cfg| {
        experiments::fig14_spot_checks(&[2.0, 6.0, 10.0], 64, 0xF14, cfg)
    }));
    rows.push(bench_experiment("fig15_uplink_spots", 2, rounds, |cfg| {
        experiments::fig15_spot_checks(&[(10e6, 8.0), (40e6, 6.0)], 10_000, 0xF15, cfg)
    }));
    rows.push(bench_experiment("ablation_impairments", 8, rounds, |cfg| {
        experiments::ablation_impairments(
            &[
                (0.0, Impairments::none()),
                (3.0, Impairments::milback_default()),
            ],
            8.0,
            4,
            0xAB6,
            cfg,
        )
    }));
    rows.push(bench_experiment("ext_coded_uplink", 2, rounds, |cfg| {
        experiments::extension_coded_uplink(&[6.0, 10.0], 2048, 0xEC2, cfg)
    }));
    rows.push(bench_experiment("ext_tracking_fixes", 8, rounds, |cfg| {
        experiments::extension_tracking_fixes(8, 0.1, 0xEC3, cfg, &SystemConfig::milback_default())
    }));
    rows
}

/// The FSA gain-evaluator microbench: direct per-call `FsaDesign::gain_dbi`
/// vs the hoisted `FsaFreqEval` loop vs the warm memoized `FsaGainEval`
/// path, on a dense (port, frequency, angle) grid — bit-exact by assertion.
struct FsaBench {
    points: usize,
    unhoisted_ns: f64,
    hoisted_ns: f64,
    memoized_ns: f64,
    bit_exact: bool,
}

fn bench_fsa_gain_eval() -> FsaBench {
    let _span = spans::span("fsa_gain_eval");
    let design = FsaDesign::milback_default();
    let eval = FsaGainEval::new(&design);
    let freqs: Vec<f64> = (0..7).map(|i| 26.5e9 + 0.5e9 * i as f64).collect();
    let angles: Vec<f64> = (0..181)
        .map(|i| (-45.0 + 0.5 * i as f64).to_radians())
        .collect();
    let ports = [FsaPort::A, FsaPort::B];
    let points = ports.len() * freqs.len() * angles.len();

    // Bit-exactness across all three paths (also warms the memo caches).
    let mut bit_exact = true;
    for &port in &ports {
        for &f in &freqs {
            let fe = eval.at_freq(port, f);
            for &ang in &angles {
                let direct = design.gain_dbi(port, f, ang);
                bit_exact &= direct.to_bits() == fe.gain_dbi(ang).to_bits();
                bit_exact &= direct.to_bits() == eval.gain_dbi(port, f, ang).to_bits();
            }
        }
    }
    assert!(bit_exact, "FsaGainEval diverged from FsaDesign::gain_dbi");

    let mut unhoisted = || {
        let mut acc = 0.0;
        for &port in &ports {
            for &f in &freqs {
                for &ang in &angles {
                    acc += design.gain_dbi(port, f, ang);
                }
            }
        }
        std::hint::black_box(acc);
    };
    let mut hoisted = || {
        let mut acc = 0.0;
        for &port in &ports {
            for &f in &freqs {
                let fe = eval.at_freq(port, f);
                for &ang in &angles {
                    acc += fe.gain_dbi(ang);
                }
            }
        }
        std::hint::black_box(acc);
    };
    let mut memoized = || {
        let mut acc = 0.0;
        for &port in &ports {
            for &f in &freqs {
                for &ang in &angles {
                    acc += eval.gain_dbi(port, f, ang);
                }
            }
        }
        std::hint::black_box(acc);
    };
    let times = race(40, 4, &mut [&mut unhoisted, &mut hoisted, &mut memoized]);
    println!(
        "FSA gain sweep ({points} points): per-call {:.0} ns/pt, hoisted {:.0} ns/pt ({:.2}x), warm memo {:.0} ns/pt ({:.2}x), bit-exact {bit_exact}",
        times[0] / points as f64,
        times[1] / points as f64,
        times[0] / times[1],
        times[2] / points as f64,
        times[0] / times[2],
    );
    FsaBench {
        points,
        unhoisted_ns: times[0],
        hoisted_ns: times[1],
        memoized_ns: times[2],
        bit_exact,
    }
}

/// The batched-kernel bench: cold-grid FSA evaluation through the batch
/// (memo-bypassing) APIs vs the cold memoized per-point path, on the same
/// 2534-point grid as [`bench_fsa_gain_eval`] plus a localization-shaped
/// 900-frequency sweep; and a chirp stack through the scratch-fed batched
/// FFT path vs per-chirp allocating calls. Bit-exactness of every batch
/// path is asserted against the direct scalar calls.
struct BatchBench {
    points: usize,
    cold_memoized_ns: f64,
    batch_ns: f64,
    freq_points: usize,
    freq_cold_ns: f64,
    freq_batch_ns: f64,
    fmcw_chirps: usize,
    fmcw_sequential_ns: f64,
    fmcw_batched_ns: f64,
    bit_exact: bool,
}

fn bench_batch_kernels() -> BatchBench {
    let _span = spans::span("batch_kernels");
    let design = FsaDesign::milback_default();
    let eval = FsaGainEval::new(&design);
    let freqs: Vec<f64> = (0..7).map(|i| 26.5e9 + 0.5e9 * i as f64).collect();
    let angles: Vec<f64> = (0..181)
        .map(|i| (-45.0 + 0.5 * i as f64).to_radians())
        .collect();
    let ports = [FsaPort::A, FsaPort::B];
    let points = ports.len() * freqs.len() * angles.len();
    // Localization-shaped grid: one incidence angle, a dense sweep of
    // distinct frequencies (exactly the capture() gain-table pattern).
    let psi = 12f64.to_radians();
    let freq_grid: Vec<f64> = (0..900).map(|i| 26.5e9 + 3e9 * i as f64 / 899.0).collect();

    // Bit-exactness: every batch output must match the direct per-call
    // scalar path to the bit (the same property the proptests pin).
    let mut bit_exact = true;
    let mut out = vec![0.0; angles.len()];
    for &port in &ports {
        for &f in &freqs {
            eval.gain_dbi_angles_into(port, f, &angles, &mut out, false);
            for (i, &a) in angles.iter().enumerate() {
                bit_exact &= out[i].to_bits() == design.gain_dbi(port, f, a).to_bits();
            }
        }
    }
    let mut fout = vec![0.0; freq_grid.len()];
    eval.gain_linear_freqs_into(FsaPort::A, &freq_grid, psi, &mut fout, false);
    for (i, &f) in freq_grid.iter().enumerate() {
        bit_exact &= fout[i].to_bits() == design.gain_linear(FsaPort::A, f, psi).to_bits();
    }
    assert!(bit_exact, "a batch FSA path diverged from the scalar path");

    // Cold grids: each round clones the evaluator (cold caches, zeroed
    // counters), so the memoized contender pays the per-point lock/hash
    // cost the batch path is designed to skip.
    let mut cold_memoized = || {
        let e = eval.clone();
        let mut acc = 0.0;
        for &port in &ports {
            for &f in &freqs {
                for &ang in &angles {
                    acc += e.gain_dbi(port, f, ang);
                }
            }
        }
        std::hint::black_box(acc);
    };
    let mut batch = || {
        let e = eval.clone();
        let mut acc = 0.0;
        for &port in &ports {
            for &f in &freqs {
                e.gain_dbi_angles_into(port, f, &angles, &mut out, false);
                acc += out[angles.len() / 2];
            }
        }
        std::hint::black_box(acc);
    };
    let fsa = race(30, 2, &mut [&mut cold_memoized, &mut batch]);

    let mut freq_cold = || {
        let e = eval.clone();
        let mut acc = 0.0;
        for &f in &freq_grid {
            acc += e.gain_linear(FsaPort::A, f, psi);
        }
        std::hint::black_box(acc);
    };
    let mut freq_batch = || {
        let e = eval.clone();
        e.gain_linear_freqs_into(FsaPort::A, &freq_grid, psi, &mut fout, false);
        std::hint::black_box(fout[0]);
    };
    let freq = race(30, 2, &mut [&mut freq_cold, &mut freq_batch]);

    // FMCW chirp stack: per-chirp allocating spectra vs one batched pass
    // through a reused scratch arena.
    let proc = milback_ap::fmcw::FmcwProcessor::milback_default();
    let n_chirps: usize = 8;
    let beats: Vec<Vec<Complex>> = (0..n_chirps)
        .map(|k| {
            test_signal(proc.samples_per_chirp())
                .into_iter()
                .map(|c| c.scale(1.0 + 0.1 * k as f64))
                .collect()
        })
        .collect();
    let mut scratch = milback_ap::fmcw::FmcwScratch::new();
    let flat = proc
        .range_spectra_flat_with(&beats, &mut scratch)
        .expect("batched spectra");
    let n = proc.fft_len();
    for (c, beat) in beats.iter().enumerate() {
        let reference = proc.range_spectrum(beat);
        for k in 0..n {
            bit_exact &= flat[c * n + k] == reference[k];
        }
    }
    assert!(bit_exact, "the batched FMCW path diverged from per-chirp");
    let mut sequential = || {
        for beat in &beats {
            std::hint::black_box(proc.range_spectrum(beat));
        }
    };
    let mut batched = || {
        std::hint::black_box(proc.range_spectra_flat_with(&beats, &mut scratch).unwrap());
    };
    let fmcw = race(30, 2, &mut [&mut sequential, &mut batched]);

    println!(
        "batch kernels: FSA {points}-pt grid cold-memo {:.0} ns/pt vs batch {:.0} ns/pt ({:.2}x); \
         {}-freq sweep {:.0} vs {:.0} ns/pt ({:.2}x); FMCW {n_chirps}-chirp stack {:.0} vs {:.0} kchirps/s ({:.2}x); bit-exact {bit_exact}",
        fsa[0] / points as f64,
        fsa[1] / points as f64,
        fsa[0] / fsa[1],
        freq_grid.len(),
        freq[0] / freq_grid.len() as f64,
        freq[1] / freq_grid.len() as f64,
        freq[0] / freq[1],
        n_chirps as f64 / fmcw[0] * 1e6,
        n_chirps as f64 / fmcw[1] * 1e6,
        fmcw[0] / fmcw[1],
    );
    BatchBench {
        points,
        cold_memoized_ns: fsa[0],
        batch_ns: fsa[1],
        freq_points: freq_grid.len(),
        freq_cold_ns: freq[0],
        freq_batch_ns: freq[1],
        fmcw_chirps: n_chirps,
        fmcw_sequential_ns: fmcw[0],
        fmcw_batched_ns: fmcw[1],
        bit_exact,
    }
}

/// The sharded-campaign bench: single-cell vs 4-cell sharded nodes/s on
/// the same sector campaign, plus the acceptance proofs — a 1-cell sharded
/// run reproduces a plain `Network::run` bit-for-bit, the sharded
/// aggregate is invariant across 1/2/4/8 worker threads, and the
/// streaming aggregate's report footprint does not grow with node count.
struct ShardBench {
    nodes: usize,
    cells: usize,
    threads: usize,
    single_cell_nodes_per_sec: f64,
    sharded_nodes_per_sec: f64,
    shard_bit_exact: bool,
    bucket_footprint: usize,
    bounded_memory: bool,
}

fn bench_sharded_campaign() -> ShardBench {
    use milback_core::{
        CampaignAggregate, CampaignProbe, MacPolicy, Network, SlottedAloha, SlottedRunReport,
    };

    let _span = spans::span("sharded_campaign");
    let nodes = 64;
    let cells = 4;
    let frames = 4;
    let slots = 8;
    let seed = 0x5AD5u64;
    let sweep = experiments::Sweep::new(frames, 16, slots, seed).expect("sweep shape");
    let spec = sweep.spec();
    let net = Network::new(
        SystemConfig::milback_default(),
        experiments::sector_scene(nodes),
    )
    .expect("sector network");
    let factory = |_: usize, s: u64| Box::new(SlottedAloha::new(s)) as Box<dyn MacPolicy>;

    // Proof 1: one cell, many worker threads — the sharded path's per-node
    // reports must reproduce a plain run bit-for-bit (`==` and `to_bits`).
    let sharded_reports = net
        .run_sharded::<SlottedRunReport>(&spec, 1, 4, seed, factory)
        .expect("1-cell sharded run");
    let mut rng = GaussianSource::new(seed);
    let plain: SlottedRunReport = net
        .run(
            &spec,
            Box::new(SlottedAloha::new(seed)),
            &mut rng,
            &mut CampaignProbe::disabled(),
        )
        .expect("plain run");
    let mut shard_bit_exact = sharded_reports.len() == 1 && sharded_reports[0] == plain;
    for (a, b) in sharded_reports[0].nodes.iter().zip(&plain.nodes) {
        shard_bit_exact &= a.energy_j.to_bits() == b.energy_j.to_bits();
        shard_bit_exact &= a.mean_snr_db.map(f64::to_bits) == b.mean_snr_db.map(f64::to_bits);
    }

    // Proof 2: the sharded aggregate is invariant across thread counts.
    let run_agg = |n_cells: usize, threads: usize| {
        net.run_sharded::<CampaignAggregate>(&spec, n_cells, threads, seed, factory)
            .expect("sharded campaign")
    };
    let baseline = run_agg(cells, 1);
    for threads in [2usize, 4, 8] {
        let agg = run_agg(cells, threads);
        shard_bit_exact &= agg == baseline;
        shard_bit_exact &= agg.energy_j.to_bits() == baseline.energy_j.to_bits();
        shard_bit_exact &= agg.snr_sum_db.to_bits() == baseline.snr_sum_db.to_bits();
    }
    assert!(shard_bit_exact, "the sharded campaign path diverged");

    // Proof 3: bounded memory, as far as the aggregate goes — its report
    // footprint is the same number of histogram buckets at half the node
    // count. This checks only the aggregate's buckets; the campaign's live
    // heap (one block of cell sinks, never one per cell) is bounded by
    // `tests/alloc_bounds.rs`.
    let half = Network::new(
        SystemConfig::milback_default(),
        experiments::sector_scene(nodes / 2),
    )
    .expect("half network");
    let half_agg = half
        .run_sharded::<CampaignAggregate>(&spec, cells, 2, seed, factory)
        .expect("half-scale campaign");
    let bucket_footprint = baseline.bucket_footprint();
    let bounded_memory = bucket_footprint == half_agg.bucket_footprint()
        && bucket_footprint == CampaignAggregate::new().bucket_footprint();
    assert!(bounded_memory, "aggregate footprint grew with node count");

    // Throughput: single-cell vs sharded, round-robin min over rounds.
    let threads = RunnerConfig::from_env().threads;
    let mut single = || {
        std::hint::black_box(run_agg(1, threads));
    };
    let mut sharded = || {
        std::hint::black_box(run_agg(cells, threads));
    };
    let times = race(10, 1, &mut [&mut single, &mut sharded]);
    let bench = ShardBench {
        nodes,
        cells,
        threads,
        single_cell_nodes_per_sec: nodes as f64 / times[0] * 1e9,
        sharded_nodes_per_sec: nodes as f64 / times[1] * 1e9,
        shard_bit_exact,
        bucket_footprint,
        bounded_memory,
    };
    println!(
        "sharded campaign ({nodes} nodes): single-cell {:.0} nodes/s, {cells}-cell sharded {:.0} nodes/s \
         on {threads} thread(s) ({:.2}x); bit-exact {shard_bit_exact}, footprint {} buckets (bounded {bounded_memory})",
        bench.single_cell_nodes_per_sec,
        bench.sharded_nodes_per_sec,
        bench.sharded_nodes_per_sec / bench.single_cell_nodes_per_sec,
        bench.bucket_footprint,
    );
    bench
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn main() {
    let host = HostInfo::capture();
    let cores = host.cores;
    let threads = host.threads;

    // --- Planned-FFT microbenches ------------------------------------
    let fft_span = spans::span("dsp_fft_micro");
    println!("FFT microbenches (min over round-robin rounds):");
    let mut fft_rows = Vec::new();
    for &(n, rounds, iters) in &[
        (256usize, 60, 40),
        (1024, 60, 20),
        (4096, 60, 10),
        (900, 60, 10),
    ] {
        let row = bench_fft_size(n, rounds, iters);
        println!(
            "  n={:<5} {:<9} cached {:>9.1} ns  plan-per-call {:>9.1} ns  ({:.2}x)  in-place {:>9.1} ns",
            row.n,
            row.kind,
            row.cached_oneshot_ns,
            row.plan_per_call_ns,
            row.plan_per_call_ns / row.cached_oneshot_ns,
            row.planned_inplace_ns,
        );
        fft_rows.push(row);
    }
    let fft4096 = fft_rows.iter().find(|r| r.n == 4096).unwrap();
    let fft4096_speedup = fft4096.plan_per_call_ns / fft4096.cached_oneshot_ns;
    drop(fft_span);

    // --- Full range–Doppler frame, serial vs parallel ----------------
    let rd_span = spans::span("dsp_range_doppler");
    let proc = milback_ap::fmcw::FmcwProcessor::milback_default();
    let dp = milback_ap::doppler::DopplerProcessor::milback_default();
    let mut rng = GaussianSource::new(21);
    let n_chirps: usize = 8;
    let beats: Vec<Vec<Complex>> = (0..n_chirps)
        .map(|k| {
            let gamma = if k % 2 == 0 { 0.83 } else { 0.18 };
            let echoes = vec![Echo::constant(2.0, 3e-4), Echo::constant(4.0, 1e-5 * gamma)];
            let mut b = synthesize_beat_with_threads(&proc.chirp, &echoes, proc.sample_rate_hz, 1);
            rng.add_complex_noise(&mut b, 1e-14);
            b
        })
        .collect();
    let serial_map = dp.range_doppler_with_threads(&proc, &beats, 1).unwrap();
    let parallel_map = dp
        .range_doppler_with_threads(&proc, &beats, threads)
        .unwrap();
    let rd_bit_exact = serial_map == parallel_map;
    assert!(rd_bit_exact, "parallel range-Doppler diverged from serial");
    let mut rd_serial = || {
        std::hint::black_box(dp.range_doppler_with_threads(&proc, &beats, 1).unwrap());
    };
    let mut rd_parallel = || {
        std::hint::black_box(
            dp.range_doppler_with_threads(&proc, &beats, threads)
                .unwrap(),
        );
    };
    let rd = race(20, 2, &mut [&mut rd_serial, &mut rd_parallel]);
    let rd_speedup = rd[0] / rd[1];
    println!(
        "range-Doppler frame ({n_chirps} chirps x {} bins): serial {:.2} ms, parallel({threads}) {:.2} ms ({:.2}x), bit-exact {rd_bit_exact}",
        proc.fft_len() / 2,
        rd[0] / 1e6,
        rd[1] / 1e6,
        rd_speedup,
    );
    drop(rd_span);

    // --- Beat synthesis ----------------------------------------------
    let beat_span = spans::span("dsp_beat_synthesis");
    let echoes = vec![
        Echo::constant(2.0, 3e-4),
        Echo::constant(4.0, 1e-5),
        Echo::constant(6.5, 5e-4),
    ];
    let mut beat_serial = || {
        std::hint::black_box(synthesize_beat_with_threads(
            &proc.chirp,
            &echoes,
            proc.sample_rate_hz,
            1,
        ));
    };
    let mut beat_parallel = || {
        std::hint::black_box(synthesize_beat_with_threads(
            &proc.chirp,
            &echoes,
            proc.sample_rate_hz,
            threads,
        ));
    };
    let beat = race(40, 10, &mut [&mut beat_serial, &mut beat_parallel]);
    println!(
        "beat synthesis (3 echoes, 900 samples): serial {:.1} us, parallel({threads}) {:.1} us ({:.2}x)",
        beat[0] / 1e3,
        beat[1] / 1e3,
        beat[0] / beat[1],
    );
    drop(beat_span);

    // --- Gaussian noise kernels ---------------------------------------
    let noise_span = spans::span("dsp_noise");
    let noise = bench_noise();
    assert!(
        noise.bit_exact,
        "block Gaussian kernel diverged from standard()"
    );
    println!(
        "noise ({NOISE_SAMPLES} complex draws): per-draw {:.1} us, block {:.1} us ({:.2}x), skip {:.1} us, bit-exact {}",
        noise.scalar_ns / 1e3,
        noise.block_ns / 1e3,
        noise.scalar_ns / noise.block_ns,
        noise.skip_ns / 1e3,
        noise.bit_exact,
    );
    drop(noise_span);

    // --- Five-chirp two-channel Field-2 capture -----------------------
    // The localization capture: one phasor table per channel, then only
    // the amplitude sum per chirp (serial synthesis, as trial runners use).
    // `ns` reuses one pipeline, so its pose-static tables are warm (the
    // session path); `cold_ns` builds a fresh pipeline per capture.
    let capture_span = spans::span("dsp_capture");
    let new_pipeline = || {
        milback_core::LocalizationPipeline::new(
            SystemConfig::milback_default(),
            milback_core::Scene::indoor(3.0, 12f64.to_radians()),
        )
        .expect("indoor pipeline")
        .with_beat_threads(1)
    };
    let pipeline = new_pipeline();
    let capture_echoes = pipeline.scene.clutter.len() + 4;
    let both = milback_core::localization::ToggleSelection { a: true, b: true };
    let mut capture_rng = GaussianSource::new(0xCAB);
    let mut capture_warm = || {
        std::hint::black_box(pipeline.capture(5, both, &mut capture_rng));
    };
    let mut cold_rng = GaussianSource::new(0xCAB);
    let mut capture_cold = || {
        std::hint::black_box(new_pipeline().capture(5, both, &mut cold_rng));
    };
    let capture = race(20, 2, &mut [&mut capture_warm, &mut capture_cold]);
    let (capture_ns, capture_cold_ns) = (capture[0], capture[1]);
    println!(
        "capture (5 chirps x 2 channels, {capture_echoes} echoes, 900 samples): warm tables {:.1} us, fresh pipeline {:.1} us",
        capture_ns / 1e3,
        capture_cold_ns / 1e3,
    );
    drop(capture_span);

    // --- Reduced Figure-15 uplink run (through the runner) -----------
    let uplink_span = spans::span("uplink_fig15");
    let t = Instant::now();
    let spots =
        experiments::fig15_spot_checks(&[(10e6, 8.0)], 20_000, 0xF15, &RunnerConfig::serial());
    let uplink_ms = t.elapsed().as_nanos() as f64 / 1e6;
    let spot = spots.results[0]
        .as_ref()
        .expect("reduced fig15 uplink succeeds");
    println!(
        "fig15 uplink (reduced, 20 kB at 8 m, 10 Mbps, via runner): {:.1} ms, SNR {:.1} dB, BER {:.1e}",
        uplink_ms, spot.snr_db, spot.ber,
    );
    drop(uplink_span);

    // --- Experiment cores + FSA evaluator ----------------------------
    let exp_rows = bench_experiments();
    let fsa = bench_fsa_gain_eval();
    let batch = bench_batch_kernels();
    let shard = bench_sharded_campaign();
    let speedups: Vec<f64> = exp_rows.iter().map(|r| r.speedup()).collect();
    let best_speedup = speedups.iter().copied().fold(0.0, f64::max);
    let median_speedup = median(speedups);
    let all_bit_exact = exp_rows.iter().all(|r| r.bit_exact)
        && fsa.bit_exact
        && batch.bit_exact
        && shard.shard_bit_exact;
    assert!(all_bit_exact, "a parallel schedule or evaluator diverged");

    // Every stage guard is closed by here, so the snapshot carries the
    // full per-stage breakdown (plus the runner's own `run_trials` span).
    let span_stats = spans::snapshot();

    // --- BENCH_dsp.json -----------------------------------------------
    let io_span = spans::span("io");
    let j = json::document(|d| {
        d.field("schema", "milback-bench-dsp-v1")
            .field("host", &host)
            .field("timer", "min over round-robin rounds")
            .array("fft", |a| {
                for r in &fft_rows {
                    a.object(|o| {
                        o.field("n", r.n)
                            .field("kind", r.kind)
                            .field("cached_oneshot_ns", r.cached_oneshot_ns)
                            .field("plan_per_call_ns", r.plan_per_call_ns)
                            .field("planned_inplace_ns", r.planned_inplace_ns)
                            .field(
                                "cached_vs_plan_per_call",
                                r.plan_per_call_ns / r.cached_oneshot_ns,
                            );
                    });
                }
            })
            .object("range_doppler", |o| {
                o.field("n_chirps", n_chirps)
                    .field("n_range", proc.fft_len() / 2)
                    .field("serial_ns", rd[0])
                    .field("parallel_ns", rd[1])
                    .field("threads", threads)
                    .field("speedup", rd_speedup)
                    .field("bit_exact", rd_bit_exact);
            })
            .object("beat_synthesis", |o| {
                o.field("echoes", 3u64)
                    .field("samples", 900u64)
                    .field("serial_ns", beat[0])
                    .field("parallel_ns", beat[1])
                    .field("speedup", beat[0] / beat[1]);
            })
            .object("noise", |o| {
                o.field("complex_samples", NOISE_SAMPLES)
                    .field("scalar_ns", noise.scalar_ns)
                    .field("block_ns", noise.block_ns)
                    .field("skip_ns", noise.skip_ns)
                    .field("block_speedup", noise.scalar_ns / noise.block_ns)
                    .field("bit_exact", noise.bit_exact);
            })
            .object("capture", |o| {
                o.field("chirps", 5u64)
                    .field("channels", 2u64)
                    .field("echoes", capture_echoes)
                    .field("samples", 900u64)
                    .field("ns", capture_ns)
                    .field("cold_ns", capture_cold_ns);
            })
            .object("uplink_fig15_reduced", |o| {
                o.field("distance_m", 8.0)
                    .field("bit_rate_mbps", 10u64)
                    .field("payload_bytes", 20_000u64)
                    .field("wall_ms", uplink_ms)
                    .field("snr_db", spot.snr_db)
                    .field("ber", spot.ber);
            })
            .object("acceptance", |o| {
                o.field("fft4096_cached_vs_plan_per_call", fft4096_speedup)
                    .field("fft4096_target", 5.0)
                    .field("range_doppler_speedup", rd_speedup)
                    .field("range_doppler_target", 1.5)
                    .field("range_doppler_target_needs_cores", 4u64)
                    .field("cores", cores);
            });
    });

    let dir = results_dir();
    let _ = fs::create_dir_all(&dir);
    let path = dir.join("BENCH_dsp.json");
    fs::write(&path, &j).expect("write BENCH_dsp.json");
    println!("wrote {}", path.display());

    // --- BENCH_experiments.json ---------------------------------------
    let fsa_hoisted_speedup = fsa.unhoisted_ns / fsa.hoisted_ns;
    let fsa_memoized_speedup = fsa.unhoisted_ns / fsa.memoized_ns;
    // The cold-grid number: a dense sweep of distinct frequencies is the
    // grid on which the memo never hits (localization's capture tables)
    // and where the batch path's lock/hash bypass pays off.
    let fsa_freq_batch_speedup = batch.freq_cold_ns / batch.freq_batch_ns;
    let j = json::document(|d| {
        d.field("schema", "milback-bench-experiments-v1")
            .field("host", &host)
            .field("timer", "min over rounds, serial/parallel round-robin")
            .array("experiments", |a| {
                for r in &exp_rows {
                    a.object(|o| {
                        o.field("name", r.name)
                            .field("trials", r.trials)
                            .field("serial_ms", r.serial_ms)
                            .field("parallel_ms", r.parallel_ms)
                            .field("speedup", r.speedup())
                            .field("bit_exact", r.bit_exact);
                    });
                }
            })
            .object("fsa_gain_eval", |o| {
                let per_point = fsa.points as f64;
                o.field("points", fsa.points)
                    .field("unhoisted_ns_per_point", fsa.unhoisted_ns / per_point)
                    .field("hoisted_ns_per_point", fsa.hoisted_ns / per_point)
                    .field("memoized_ns_per_point", fsa.memoized_ns / per_point)
                    .field("hoisted_speedup", fsa_hoisted_speedup)
                    .field("memoized_speedup", fsa_memoized_speedup)
                    .field("bit_exact", fsa.bit_exact);
            })
            // The batched hot-path kernels: cold-grid FSA batches vs the
            // cold memoized per-point path, the localization-shaped
            // frequency sweep, and the scratch-fed FMCW chirp stack. The
            // zero-alloc claim is pinned by the counting-allocator
            // integration test, referenced here so the JSON is
            // self-describing.
            .object("batch_kernels", |o| {
                let (points, freq_points) = (batch.points as f64, batch.freq_points as f64);
                let chirps = batch.fmcw_chirps as f64;
                o.field("fsa_points", batch.points)
                    .field(
                        "fsa_cold_memoized_ns_per_point",
                        batch.cold_memoized_ns / points,
                    )
                    .field("fsa_batch_ns_per_point", batch.batch_ns / points)
                    .field("fsa_batch_speedup", batch.cold_memoized_ns / batch.batch_ns)
                    .field("fsa_freq_points", batch.freq_points)
                    .field(
                        "fsa_freq_cold_ns_per_point",
                        batch.freq_cold_ns / freq_points,
                    )
                    .field(
                        "fsa_freq_batch_ns_per_point",
                        batch.freq_batch_ns / freq_points,
                    )
                    .field("fsa_freq_batch_speedup", fsa_freq_batch_speedup)
                    .field("fmcw_chirps", batch.fmcw_chirps)
                    .field(
                        "fmcw_sequential_chirps_per_s",
                        chirps / batch.fmcw_sequential_ns * 1e9,
                    )
                    .field(
                        "fmcw_batched_chirps_per_s",
                        chirps / batch.fmcw_batched_ns * 1e9,
                    )
                    .field(
                        "fmcw_batch_speedup",
                        batch.fmcw_sequential_ns / batch.fmcw_batched_ns,
                    )
                    .field("firmware_allocs_per_packet", 0u64)
                    .field(
                        "allocs_proof",
                        "crates/milback-bench/tests/alloc_free_node.rs",
                    )
                    .field("batch_bit_exact", batch.bit_exact);
            })
            // The sharded city-scale campaign path: single-cell vs sharded
            // throughput on the same campaign, with the 1-cell
            // `Network::run` parity, 1/2/4/8-thread invariance, and
            // bounded-footprint proofs recorded as acceptance keys.
            .object("sharded_campaign", |o| {
                o.field("nodes", shard.nodes)
                    .field("cells", shard.cells)
                    .field("threads", shard.threads)
                    .field("single_cell_nodes_per_sec", shard.single_cell_nodes_per_sec)
                    .field("sharded_nodes_per_sec", shard.sharded_nodes_per_sec)
                    .field(
                        "shard_speedup",
                        shard.sharded_nodes_per_sec / shard.single_cell_nodes_per_sec,
                    )
                    .field("shard_bit_exact", shard.shard_bit_exact)
                    .field("bucket_footprint", shard.bucket_footprint)
                    .field("bounded_memory", shard.bounded_memory);
            })
            // Host-side wall-clock profiling spans: the per-stage breakdown
            // of this run.
            .array("spans", |a| {
                for s in &span_stats {
                    a.object(|o| {
                        o.field("name", &s.name)
                            .field("total_ms", s.total_ns as f64 / 1e6)
                            .field("count", s.count);
                    });
                }
            })
            .object("acceptance", |o| {
                o.field("runner_target_speedup", 1.8)
                    .field("runner_target_needs_cores", 4u64)
                    .field("cores", cores)
                    .field("threads", threads)
                    .field("runner_best_speedup", best_speedup)
                    .field("runner_median_speedup", median_speedup)
                    .field("fsa_target_speedup", 2.0)
                    .field("fsa_hoisted_speedup", fsa_hoisted_speedup)
                    .field("fsa_memoized_speedup", fsa_memoized_speedup)
                    .field("fsa_batch_speedup", fsa_freq_batch_speedup)
                    .field("batch_bit_exact", batch.bit_exact)
                    .field("shard_bit_exact", shard.shard_bit_exact)
                    .field("shard_bounded_memory", shard.bounded_memory)
                    .field("all_bit_exact", all_bit_exact);
            });
    });

    let path = dir.join("BENCH_experiments.json");
    fs::write(&path, &j).expect("write BENCH_experiments.json");
    println!("wrote {}", path.display());
    drop(io_span);
    spans::export_if_requested();
}

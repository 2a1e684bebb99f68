//! Campaign benchmark for the MilBack workspace.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! builds one workload's inputs from the seed, runs one untimed warm-up
//! unit, then:
//!
//! * `--trace 0` times a closed loop of units (one finishes before the next
//!   starts) for about `--seconds` and prints the end-to-end metrics;
//! * `--trace 1` times a few units untraced, replays the same units through
//!   each layer's public functions with a timer around every call, and
//!   prints the per-layer metrics ([`replay`]).
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Run it through `python3 perfbench/run.py`, which
//! builds this package and pins the process to one worker thread.

mod replay;
mod workloads;

use std::hint::black_box;
use std::time::{Duration, Instant};
use workloads::{Digest, Inputs};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            workloads::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Timed units per region: about 0.5 s of work on a quiet host, or one
/// unit where a unit takes longer. Each region is preceded by a set-up
/// sample, so a run takes a set-up sample every 0.5–2.5 s.
fn units_per_region(workload: &str) -> u64 {
    match workload {
        "city_1m" => 1,
        "sector_sdm" => 50,
        "gap_relay" => 125,
        "session_packet" => 60,
        _ => unreachable!("workload names are checked at parse time"),
    }
}

/// Linear-interpolated quantile of a non-empty sample.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Builds the inputs untimed for at least 50 ms, which pays the page
/// faults and lazy statics, and returns the last build with the number of
/// builds that fill one ~20 ms set-up batch.
fn warm_setup(workload: &str, seed: u64) -> Result<(Inputs, usize), String> {
    let t = Instant::now();
    let mut warm = 0u32;
    while warm == 0 || t.elapsed() < Duration::from_millis(50) {
        drop(black_box(workloads::build(workload, seed)?));
        warm += 1;
    }
    let per_build = t.elapsed().as_secs_f64() / f64::from(warm);
    let batch = ((0.02 / per_build).ceil() as usize).clamp(1, 100_000);
    Ok((workloads::build(workload, seed)?, batch))
}

/// One set-up sample: builds the inputs `batch` times and returns the
/// seconds per build with the last build. The batch keeps the sample
/// steady even when one build takes microseconds.
fn setup_sample(workload: &str, seed: u64, batch: usize) -> Result<(f64, Inputs), String> {
    let t = Instant::now();
    for _ in 1..batch {
        drop(black_box(workloads::build(workload, seed)?));
    }
    let inputs = workloads::build(workload, seed)?;
    Ok((t.elapsed().as_secs_f64() / batch as f64, inputs))
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One metric as the result line prints it.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // `{:?}` prints the shortest string that reads back as the same
            // f64: every measured digit, never a rounded figure.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// The closed loop: whole regions of units until the next region would
/// overrun the budget (at least one region). Every region runs on inputs
/// built by a set-up sample just before it, so the set-up samples see the
/// host as the regions do, and one set of inputs is alive at a time.
fn timed_loop(args: &Args, mut inputs: Inputs, batch: usize) -> Result<(), String> {
    let per_region = units_per_region(&args.workload);
    let warm = inputs.run_unit(args.seed, 0, None);
    if let Some(why) = &warm.failure {
        eprintln!("warm-up unit failed: {why}");
    }
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut setup = Vec::new();
    let mut regions = 0u64;
    let mut wall = 0.0;
    let (mut offered, mut delivered) = (0u64, 0u64);
    let mut unit_ms = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut digest = Digest::new();
    let mut k = 0u64;
    loop {
        drop(inputs);
        let (setup_s, fresh) = setup_sample(&args.workload, args.seed, batch)?;
        setup.push(setup_s);
        inputs = fresh;
        let mut region_wall = 0.0;
        for _ in 0..per_region {
            // Only the first region feeds the digest: its units are fixed
            // by the seed, whatever the host's speed.
            let d = (regions == 0).then_some(&mut digest);
            let t = Instant::now();
            let out = black_box(inputs.run_unit(args.seed, k, d));
            let dt = t.elapsed().as_secs_f64();
            region_wall += dt;
            unit_ms.push(dt * 1e3);
            attempted += 1;
            if let Some(why) = &out.failure {
                failed += 1;
                eprintln!("unit {k} failed: {why}");
            }
            offered += out.offered;
            delivered += out.delivered;
            k += 1;
        }
        regions += 1;
        wall += region_wall;
        if started.elapsed() + Duration::from_secs_f64(region_wall) > budget {
            break;
        }
    }
    println!(
        "workload {} seed {}: {} regions of {} units, {} units failed, outputs digest {:016x}",
        args.workload, args.seed, regions, per_region, failed, digest.0
    );
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    // Loop totals, not medians of regions: the shared host swings between
    // a fast and a slow speed over seconds, and a mean over the whole loop
    // moves smoothly with the time spent in each, where a median jumps.
    let metrics = [
        metric("setup_s", median(&setup), "s"),
        metric("wall_s", wall / regions as f64, "s"),
        metric("ns_per_offered_pkt", wall * 1e9 / offered as f64, "ns"),
        metric(
            "ns_per_delivered_pkt",
            wall * 1e9 / delivered.max(1) as f64,
            "ns",
        ),
        metric("unit_ms_p95", quantile(&unit_ms, 0.95), "ms"),
        metric("peak_rss_mb", rss, "MiB"),
    ];
    print_result(failed == 0, attempted, failed, &metrics);
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    if args.trace {
        let inputs = workloads::build(&args.workload, args.seed)?;
        replay::traced(args.seed, args.seconds, &args.workload, &inputs)
    } else {
        let (inputs, batch) = warm_setup(&args.workload, args.seed)?;
        timed_loop(args, inputs, batch)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

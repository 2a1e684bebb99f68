//! MAC-comparison extension: races the four `MacPolicy` implementations —
//! slotted ALOHA, ALOHA with capped exponential backoff, AP round-robin
//! polling, and SDM-aware slot assignment — over the same ±60°-sector cell
//! as `net_scale`, sweeping the node count.
//!
//! Each (policy, node count) cell is one campaign on the discrete-event
//! engine ([`milback_core::Network::run`]) through the trial-parallel
//! runner, so the CSV is bit-identical at any thread count; `net_scale`
//! runs the same core over the ALOHA policy alone with the same root seed,
//! so the ALOHA rows are that baseline curve.
//!
//! The campaigns run instrumented (bit-identical to the plain sweep — the
//! parity suite proves it): per-policy counters and histograms land in
//! `results/METRICS_mac.json`, and with `MILBACK_TRACE=<dir>` (or `=1`
//! for `results/traces`) each policy's densest campaign is captured as
//! structured-trace JSONL plus one combined Chrome `trace_event` JSON,
//! loadable at <https://ui.perfetto.dev>.
//!
//! Run with: `cargo run --release -p milback-bench --bin mac_compare`

use milback_bench::experiments::{
    mean_node_goodput_bps, run_sweep, sector_scene, CellRun, Sweep, SweepCell, MAC_POLICY_NAMES,
};
use milback_bench::hostinfo::HostInfo;
use milback_bench::runner::{RunnerConfig, TrialBatch};
use milback_bench::{emit_anchor, log_info, metrics_io, results_dir, Report, Series};
use milback_core::json::Json;
use milback_core::telemetry::{chrome_trace, Metrics, TraceBuffer, DEFAULT_TRACE_CAPACITY};
use milback_core::{CampaignAggregate, CampaignProbe, SlottedRunReport};
use std::path::PathBuf;

const NODE_COUNTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
const SLOTS: usize = 8;
const FRAMES: usize = 24;
const PAYLOAD_BYTES: usize = 16;
const ROOT_SEED: u64 = 0xE4;

/// Where `MILBACK_TRACE` asks traces to go: `None` when unset/empty,
/// `results/traces` for `1`, else the given directory.
fn trace_dir() -> Option<PathBuf> {
    match std::env::var("MILBACK_TRACE") {
        Ok(v) if v == "1" => Some(results_dir().join("traces")),
        Ok(v) if !v.is_empty() && v != "0" => Some(PathBuf::from(v)),
        _ => None,
    }
}

/// The finished sweep: one per-node report per (policy, node count)
/// cell, and each policy's instrumentation — its cells' metrics merged in
/// trial order, plus, when tracing, its densest campaign's trace.
pub(crate) struct MacCompare {
    batch: TrialBatch<CellRun<Vec<SlottedRunReport>>, String>,
    policies: Vec<(&'static str, Metrics, Option<TraceBuffer>)>,
}

/// Runs every policy at every node count of the grid. Cells flatten
/// policy-major × node-count-minor, each one trial on its own stream, so
/// the sweep is bit-identical at any thread count. Every cell runs with a
/// metrics probe, and with `trace_capacity` set each policy's densest cell
/// also records a full trace; probes only copy values the campaign
/// computed, so the numbers match an unprobed sweep, and the metrics
/// registries match an untraced one.
pub(crate) fn run(cfg: &RunnerConfig, trace_capacity: Option<usize>) -> MacCompare {
    let per_policy = NODE_COUNTS.len();
    let sweep = Sweep::new(FRAMES, PAYLOAD_BYTES, SLOTS, ROOT_SEED).expect("the payload fits");
    let mut batch =
        run_sweep::<SlottedRunReport>(&sweep, MAC_POLICY_NAMES.len() * per_policy, cfg, |i| {
            let probe = match trace_capacity {
                Some(cap) if i % per_policy == per_policy - 1 => CampaignProbe::with_trace(cap),
                _ => CampaignProbe::with_metrics(),
            };
            Ok(SweepCell {
                probe,
                ..SweepCell::new(
                    sector_scene(NODE_COUNTS[i % per_policy]),
                    MAC_POLICY_NAMES[i / per_policy],
                )
            })
        });
    let mut policies: Vec<_> = MAC_POLICY_NAMES
        .iter()
        .map(|&p| (p, Metrics::new(), None))
        .collect();
    for (i, result) in batch.results.iter_mut().enumerate() {
        let Ok(run) = result else { continue };
        // Queue-depth histograms arrive inside the metrics already: the
        // engine tallies every dispatch losslessly.
        let (_, metrics, trace) = &mut policies[i / per_policy];
        metrics.merge_from(&run.metrics.take().unwrap_or_default());
        *trace = run.trace.take();
    }
    MacCompare { batch, policies }
}

/// The sweep's report, whose CSV is the `results/extension_mac_compare.csv`
/// anchor.
pub(crate) fn report(s: &MacCompare, threads: usize) -> Report {
    let mut report = Report::new(
        "Extension mac_compare",
        "MAC policies on the shared sector cell: delivery, energy, goodput vs node count",
        "nodes",
        "delivery rate / energy per delivered packet (mJ) / per-node goodput (kbps)",
    );
    let mk = |metric: &str| -> Vec<Series> {
        MAC_POLICY_NAMES
            .iter()
            .map(|p| Series::new(format!("{metric} {p}")))
            .collect()
    };
    let mut delivery = mk("delivery");
    let mut energy = mk("energy_mj");
    let mut goodput = mk("goodput_kbps");
    let per_policy = NODE_COUNTS.len();
    let densest = NODE_COUNTS[per_policy - 1];
    let mut densest_rate = [None; MAC_POLICY_NAMES.len()];
    for (i, result) in s.batch.results.iter().enumerate() {
        let Ok(run) = result else { continue };
        let r = &run.sink[0];
        let agg = CampaignAggregate::from_report(r);
        let (k, nodes) = (i / per_policy, NODE_COUNTS[i % per_policy]);
        let rate = agg.delivery_rate().unwrap_or(0.0);
        delivery[k].push(nodes as f64, rate);
        // An undelivered campaign has no energy-per-packet figure: the
        // cell stays empty rather than carrying an `inf` token.
        energy[k].push_opt(
            nodes as f64,
            (agg.delivered > 0).then(|| agg.energy_j / agg.delivered as f64 * 1e3),
        );
        goodput[k].push(nodes as f64, mean_node_goodput_bps(r) / 1e3);
        if nodes == densest {
            densest_rate[k] = Some(rate);
        }
    }
    for s in delivery.into_iter().chain(energy).chain(goodput) {
        report.add_series(s);
    }
    if let [Some(aloha), _, Some(polling), Some(sdm)] = densest_rate {
        report.note(format!(
            "at {densest} nodes: delivery aloha {aloha:.3} vs polling {polling:.3} vs sdm-aware {sdm:.3} — \
             contention-aware scheduling recovers what hashed contention loses",
        ));
    }
    report.note(format!(
        "{SLOTS} slots/frame, {FRAMES} frames, {PAYLOAD_BYTES}-byte payloads, SDM threshold 20 dB, \
         backoff cap 2^5; {}; {threads} worker threads",
        s.batch.summary(),
    ));
    report
}

/// `results/METRICS_mac.json` from the per-policy registries; `None` when
/// no campaign recorded anything (every trial failed), so the artifact
/// never claims an instrumented campaign that did not happen.
pub(crate) fn metrics_doc(s: &MacCompare) -> Option<String> {
    if s.policies.iter().all(|p| p.1.is_empty()) {
        return None;
    }
    let config: [(&str, &dyn Json); 5] = [
        ("frames", &FRAMES),
        ("slots", &SLOTS),
        ("payload_bytes", &PAYLOAD_BYTES),
        ("seed", &ROOT_SEED),
        ("node_counts", &NODE_COUNTS.as_slice()),
    ];
    let policies: Vec<(&str, &Metrics)> = s.policies.iter().map(|p| (p.0, &p.1)).collect();
    Some(metrics_io::metrics_document(
        metrics_io::METRICS_MAC_SCHEMA,
        &HostInfo::capture(),
        &config,
        "policies",
        &policies,
    ))
}

fn main() {
    // Named `main`/`io` so `all_experiments` can derive its per-stage
    // table (setup = main - run_trials - io) from the exported span file.
    let main_span = milback_bench::spans::span("main");
    let cfg = RunnerConfig::from_env();
    let tracing = trace_dir();
    let sweep = run(&cfg, tracing.as_ref().map(|_| DEFAULT_TRACE_CAPACITY));

    let io_span = milback_bench::spans::span("io");
    report(&sweep, cfg.threads).emit();
    match metrics_doc(&sweep) {
        Some(doc) => emit_anchor("METRICS_mac.json", &doc),
        None => log_info!("no campaign metrics recorded: skipping METRICS_mac.json"),
    }
    if let Some(dir) = tracing {
        if let Err(e) = write_traces(&sweep, &dir) {
            eprintln!("could not write traces: {e}");
            std::process::exit(1);
        }
    }
    drop(io_span);
    drop(main_span);
    milback_bench::spans::export_if_requested();
}

/// The trace artifacts, as (file name, contents): each policy's captured
/// trace as JSONL (one file per policy, so `time_ps` stays monotone
/// within a file), then one combined Chrome `trace_event` JSON with the
/// policies side-by-side as processes. Empty when nothing was traced.
pub(crate) fn trace_files(s: &MacCompare) -> Vec<(String, String)> {
    let sections: Vec<(&str, &TraceBuffer)> = s
        .policies
        .iter()
        .filter_map(|(policy, _, trace)| Some((*policy, trace.as_ref()?)))
        .collect();
    if sections.is_empty() {
        return Vec::new();
    }
    let mut files: Vec<(String, String)> = sections
        .iter()
        .map(|(policy, buf)| (format!("mac_{policy}.trace.jsonl"), buf.to_jsonl()))
        .collect();
    files.push(("mac_compare.trace.json".into(), chrome_trace(&sections)));
    files
}

/// Writes [`trace_files`] into `dir`. The `trace:` line states how many
/// records the rings evicted, so a truncated trace never passes for a
/// complete one. A directory or file that cannot be written is an error
/// naming its path.
fn write_traces(s: &MacCompare, dir: &std::path::Path) -> std::io::Result<()> {
    // Names the path in an I/O error.
    fn at(path: &std::path::Path) -> impl FnOnce(std::io::Error) -> std::io::Error + '_ {
        move |e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display()))
    }
    let files = trace_files(s);
    if files.is_empty() {
        log_info!("no traces captured");
        return Ok(());
    }
    std::fs::create_dir_all(dir).map_err(at(dir))?;
    for (name, contents) in &files {
        let path = dir.join(name);
        std::fs::write(&path, contents).map_err(at(&path))?;
        log_info!("wrote {}", path.display());
    }
    let dropped: u64 = s
        .policies
        .iter()
        .filter_map(|(_, _, trace)| trace.as_ref().map(TraceBuffer::dropped))
        .sum();
    println!(
        "trace: {} ({}-node frame per policy, {dropped} records dropped) — open at https://ui.perfetto.dev",
        dir.join("mac_compare.trace.json").display(),
        NODE_COUNTS[NODE_COUNTS.len() - 1],
    );
    Ok(())
}

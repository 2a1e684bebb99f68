//! MAC-comparison extension: races the four `MacPolicy` implementations —
//! slotted ALOHA, ALOHA with capped exponential backoff, AP round-robin
//! polling, and SDM-aware slot assignment — over the same ±60°-sector cell
//! as `net_scale`, sweeping the node count.
//!
//! Each (policy, node count) cell is one campaign on the discrete-event
//! engine ([`milback_core::Network::run`]) through the trial-parallel
//! runner, so the CSV is bit-identical at any thread count; the root seed
//! and slot seeds match `net_scale`'s, so the ALOHA rows reproduce that
//! baseline curve exactly.
//!
//! The campaigns run instrumented (bit-identical to the plain sweep — the
//! parity suite proves it): per-policy counters and histograms land in
//! `results/METRICS_mac.json`, and with `MILBACK_TRACE=<dir>` (or `=1`
//! for `results/traces`) each policy's densest campaign is captured as
//! structured-trace JSONL plus one combined Chrome `trace_event` JSON,
//! loadable at <https://ui.perfetto.dev>.
//!
//! Run with: `cargo run --release -p milback-bench --bin mac_compare`

use milback_bench::experiments::{extension_mac_compare_instrumented, MAC_POLICY_NAMES};
use milback_bench::hostinfo::HostInfo;
use milback_bench::runner::RunnerConfig;
use milback_bench::{log_info, log_warn, metrics_io, reduced_mode, results_dir, Report, Series};
use milback_core::telemetry::{chrome_trace, DEFAULT_TRACE_CAPACITY};
use std::path::PathBuf;

/// Where `MILBACK_TRACE` asks traces to go: `None` when unset/empty,
/// `results/traces` for `1`, else the given directory.
fn trace_dir() -> Option<PathBuf> {
    match std::env::var("MILBACK_TRACE") {
        Ok(v) if v == "1" => Some(results_dir().join("traces")),
        Ok(v) if !v.is_empty() && v != "0" => Some(PathBuf::from(v)),
        _ => None,
    }
}

fn main() {
    // Named `main`/`io` so `all_experiments` can derive its per-stage
    // table (setup = main - run_trials - io) from the exported span file.
    let main_span = milback_bench::spans::span("main");
    let reduced = reduced_mode();
    let node_counts: &[usize] = if reduced {
        &[1, 2, 4, 8]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };
    let frames = if reduced { 6 } else { 24 };
    let slots = 8;
    let payload_bytes = 16;
    let cfg = RunnerConfig::from_env();
    let tracing = trace_dir();
    let run = extension_mac_compare_instrumented(
        &MAC_POLICY_NAMES,
        node_counts,
        frames,
        payload_bytes,
        slots,
        0xE4,
        &cfg,
        tracing.as_ref().map(|_| DEFAULT_TRACE_CAPACITY),
    );
    let batch = &run.batch;

    let io_span = milback_bench::spans::span("io");
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
    for p in batch.oks() {
        let k = MAC_POLICY_NAMES
            .iter()
            .position(|&n| n == p.policy)
            .expect("policy came from MAC_POLICY_NAMES");
        delivery[k].push(p.nodes as f64, p.delivery_rate);
        // An undelivered campaign has no energy-per-packet figure: the
        // cell stays empty rather than carrying an `inf` token.
        energy[k].push_opt(p.nodes as f64, p.energy_per_packet_j.map(|e| e * 1e3));
        goodput[k].push(p.nodes as f64, p.per_node_goodput_bps / 1e3);
    }
    for s in delivery.into_iter().chain(energy).chain(goodput) {
        report.add_series(s);
    }

    let densest = *node_counts.last().expect("non-empty grid");
    let at_densest = |name: &str| batch.oks().find(|p| p.policy == name && p.nodes == densest);
    if let (Some(aloha), Some(polling), Some(sdm)) = (
        at_densest("aloha"),
        at_densest("polling"),
        at_densest("sdm"),
    ) {
        report.note(format!(
            "at {densest} nodes: delivery aloha {:.3} vs polling {:.3} vs sdm-aware {:.3} — \
             contention-aware scheduling recovers what hashed contention loses",
            aloha.delivery_rate, polling.delivery_rate, sdm.delivery_rate
        ));
    }
    report.note(format!(
        "{} slots/frame, {} frames, {}-byte payloads, SDM threshold 20 dB, backoff cap 2^5; \
         {}; {} worker threads",
        slots,
        frames,
        payload_bytes,
        batch.summary(),
        cfg.threads
    ));
    report.emit_respecting_reduced();

    write_metrics(&run, node_counts, frames, slots, payload_bytes, reduced);
    if let Some(dir) = tracing {
        write_traces(&run, &dir, densest);
    }
    drop(io_span);
    drop(main_span);
    milback_bench::spans::export_if_requested();
}

/// Writes `results/METRICS_mac.json` from the per-policy registries. When
/// no campaign recorded anything (every trial failed) nothing is written —
/// the artifact never silently claims an instrumented campaign that did
/// not happen.
fn write_metrics(
    run: &milback_bench::experiments::InstrumentedMacCompare,
    node_counts: &[usize],
    frames: usize,
    slots: usize,
    payload_bytes: usize,
    reduced: bool,
) {
    if run.policies.iter().all(|p| p.metrics.is_empty()) {
        log_info!("no campaign metrics recorded: skipping METRICS_mac.json");
        return;
    }
    let node_list = node_counts
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let config = [
        ("reduced", reduced.to_string()),
        ("frames", frames.to_string()),
        ("slots", slots.to_string()),
        ("payload_bytes", payload_bytes.to_string()),
        ("seed", 0xE4u64.to_string()),
        ("node_counts", format!("[{node_list}]")),
    ];
    let policies: Vec<(&str, &milback_core::telemetry::Metrics)> = run
        .policies
        .iter()
        .map(|p| (p.policy, &p.metrics))
        .collect();
    let doc = metrics_io::metrics_mac_json(&HostInfo::capture(), &config, &policies);
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        log_warn!("cannot create {}", dir.display());
        return;
    }
    let path = dir.join("METRICS_mac.json");
    match std::fs::write(&path, &doc) {
        Ok(()) => log_info!("wrote {}", path.display()),
        Err(e) => log_warn!("cannot write {}: {e}", path.display()),
    }
}

/// Dumps each policy's captured trace as JSONL (one file per policy, so
/// `time_ps` stays monotone within a file) plus one combined Chrome
/// `trace_event` JSON with the policies side-by-side as processes.
fn write_traces(
    run: &milback_bench::experiments::InstrumentedMacCompare,
    dir: &std::path::Path,
    densest: usize,
) {
    if std::fs::create_dir_all(dir).is_err() {
        log_warn!("cannot create {}", dir.display());
        return;
    }
    let mut sections = Vec::new();
    for p in &run.policies {
        let Some(buf) = &p.trace else {
            continue;
        };
        let path = dir.join(format!("mac_{}.trace.jsonl", p.policy));
        match std::fs::write(&path, buf.to_jsonl()) {
            Ok(()) => log_info!(
                "wrote {} ({} records, {} dropped)",
                path.display(),
                buf.len(),
                buf.dropped()
            ),
            Err(e) => log_warn!("cannot write {}: {e}", path.display()),
        }
        sections.push((p.policy, buf));
    }
    if sections.is_empty() {
        log_info!("no traces captured");
        return;
    }
    let chrome = chrome_trace(&sections);
    let path = dir.join("mac_compare.trace.json");
    match std::fs::write(&path, &chrome) {
        Ok(()) => {
            println!(
                "trace: {} ({densest}-node frame per policy) — open at https://ui.perfetto.dev",
                path.display()
            );
        }
        Err(e) => log_warn!("cannot write {}: {e}", path.display()),
    }
}

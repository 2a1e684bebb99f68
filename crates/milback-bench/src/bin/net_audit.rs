//! Packet-lifecycle audit sweep: drop-reason attribution, the
//! conservation invariant, and deterministic latency percentiles over the
//! 64-node sector scene, for every MAC policy with relaying off and on.
//!
//! Every cell runs the congested Capture/Plan/Transmit pipeline (so
//! `service_shed` drops are on the books) and — on the relay leg — the
//! 25%-gapped scene under a 2-hop budget (so coverage-family drops and
//! relayed deliveries appear too). The sweep core audits every cell's
//! ledger (`offered == delivered + Σ drops`); a violation fails the cell,
//! and this binary exits nonzero. The binary also re-runs the sharded
//! city path at 1/2/4/8 worker threads and demands the merged latency
//! sketches be bit-identical, which pins the cell-index merge order.
//!
//! Run with: `cargo run --release -p milback-bench --bin net_audit`
//!
//! Full runs write `results/METRICS_lifecycle.json` (schema
//! `milback-metrics-lifecycle-v1`) and the drop-attribution CSV
//! `results/extension_net_audit.csv`; reduced runs print the CSV to
//! stdout for CI schema validation and never touch the anchors.

use milback_bench::experiments::{
    extension_net_audit, net_audit_sharded_lifecycle, NetAuditPoint, MAC_POLICY_NAMES,
    NET_AUDIT_GAP_FRACTION,
};
use milback_bench::hostinfo::HostInfo;
use milback_bench::runner::RunnerConfig;
use milback_bench::{metrics_io, reduced_mode, results_dir, Report, Series};
use milback_core::json::Json;
use milback_core::DropReason;

/// Sweep shape: the acceptance scene is 64 nodes over the ±60° sector
/// (the relay leg re-places a quarter of them past coverage), 8-slot
/// frames so contention losses and pipeline shedding both occur, and
/// enough frames for every drop family to accumulate a stable count.
const NODES: usize = 64;
const NODES_REDUCED: usize = 16;
const SLOTS: usize = 8;
const FRAMES: usize = 24;
const FRAMES_REDUCED: usize = 6;
const PAYLOAD_BYTES: usize = 16;
const ROOT_SEED: u64 = 0xA0D1;
/// Sharded determinism check shape: cells × threads small enough to run
/// in both modes, large enough that every thread count actually fans out.
const SHARD_CELLS: usize = 4;
const SHARD_THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let main_span = milback_bench::spans::span("main");
    let reduced = reduced_mode();
    let (nodes, frames) = if reduced {
        (NODES_REDUCED, FRAMES_REDUCED)
    } else {
        (NODES, FRAMES)
    };
    let cfg = RunnerConfig::from_env();
    let batch = extension_net_audit(
        &MAC_POLICY_NAMES,
        nodes,
        frames,
        PAYLOAD_BYTES,
        SLOTS,
        ROOT_SEED,
        &cfg,
    );
    let points: Vec<NetAuditPoint> = batch.oks().cloned().collect();
    if points.len() != MAC_POLICY_NAMES.len() * 2 {
        for e in batch.results.iter().filter_map(|r| r.as_ref().err()) {
            eprintln!("net_audit cell failed (conservation or simulation): {e}");
        }
        std::process::exit(1);
    }

    // The sharded city path must report bit-identical sketches at every
    // worker-thread count: the merge runs serially in cell-index order.
    let shard_frames = if reduced { 4 } else { 12 };
    let mut shard_reference = None;
    for threads in SHARD_THREAD_COUNTS {
        let lifecycle = match net_audit_sharded_lifecycle(
            nodes,
            SHARD_CELLS,
            threads,
            shard_frames,
            PAYLOAD_BYTES,
            SLOTS,
            ROOT_SEED,
        ) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("sharded lifecycle at {threads} threads failed: {e}");
                std::process::exit(1);
            }
        };
        match &shard_reference {
            None => shard_reference = Some(lifecycle),
            Some(reference) => {
                if *reference != lifecycle {
                    eprintln!("sharded lifecycle diverged at {threads} threads");
                    std::process::exit(1);
                }
            }
        }
    }

    let io_span = milback_bench::spans::span("io");
    let mut report = Report::new(
        "Extension net_audit",
        "packet-lifecycle conservation: every offered packet delivered or attributed to a drop reason",
        "policy index",
        "delivered / offered",
    );
    for (relay, label) in [(false, "direct"), (true, "relay")] {
        let mut s = Series::new(format!("delivered fraction ({label})"));
        for (i, p) in points.iter().filter(|p| p.relay == relay).enumerate() {
            let frac = (p.lifecycle.offered > 0)
                .then(|| p.lifecycle.delivered() as f64 / p.lifecycle.offered as f64);
            s.push_opt(i as f64, frac);
        }
        report.add_series(s);
    }
    if let Some(p) = points
        .iter()
        .filter(|p| p.relay)
        .max_by_key(|p| p.lifecycle.dropped())
    {
        let (top_idx, top_count) = p
            .lifecycle
            .drops
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(k, &c)| (k, c))
            .unwrap_or((0, 0));
        report.note(format!(
            "{} (relay): offered {}, delivered {} direct + {} relayed, top drop reason \
             {} × {top_count}; slot-wait p95 {} µs",
            p.policy,
            p.lifecycle.offered,
            p.lifecycle.delivered_direct,
            p.lifecycle.delivered_relayed,
            DropReason::LABELS[top_idx],
            p.lifecycle
                .slot_wait_us
                .quantile(0.95)
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "-".into()),
        ));
    }
    report.note(format!(
        "{SLOTS} slots/frame, {frames} frames, {PAYLOAD_BYTES}-byte payloads, {nodes} nodes, \
         gap fraction {NET_AUDIT_GAP_FRACTION} on the relay leg, congested Drop pipeline, \
         sharded sketches bit-identical at {SHARD_THREAD_COUNTS:?} threads, seed {ROOT_SEED:#x}",
    ));
    print!("{}", report.render());

    // The metrics document is written in both modes (its `reduced` flag
    // says which), matching `mac_compare`: CI validates the reduced
    // document, then regenerates the full-scale anchor. It goes out
    // before the CSV so a reduced run's stdout ends with the CSV — CI
    // slices it off by header.
    write_metrics(&points, nodes, frames, reduced, &cfg);
    let csv = to_csv(&points);
    if !reduced {
        let dir = results_dir();
        if std::fs::create_dir_all(&dir).is_ok() {
            let path = dir.join("extension_net_audit.csv");
            match std::fs::write(&path, &csv) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
        }
    } else {
        // CI validates the reduced schema from stdout instead.
        print!("{csv}");
    }
    drop(io_span);
    drop(main_span);
    milback_bench::spans::export_if_requested();
}

/// Writes `results/METRICS_lifecycle.json`.
fn write_metrics(
    points: &[NetAuditPoint],
    nodes: usize,
    frames: usize,
    reduced: bool,
    cfg: &RunnerConfig,
) {
    let config: [(&str, &dyn Json); 8] = [
        ("reduced", &reduced),
        ("nodes", &nodes),
        ("frames", &frames),
        ("slots", &SLOTS),
        ("payload_bytes", &PAYLOAD_BYTES),
        ("gap_fraction", &NET_AUDIT_GAP_FRACTION),
        ("threads", &cfg.threads),
        ("seed", &ROOT_SEED),
    ];
    let cells: Vec<(String, &milback_core::LifecycleStats)> = points
        .iter()
        .map(|p| {
            let leg = if p.relay { "relay" } else { "direct" };
            (format!("{}/{leg}", p.policy), &p.lifecycle)
        })
        .collect();
    let doc = metrics_io::metrics_document(
        metrics_io::METRICS_LIFECYCLE_SCHEMA,
        &HostInfo::capture(),
        &config,
        "cells",
        &cells,
    );
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join("METRICS_lifecycle.json");
    match std::fs::write(&path, doc) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// The drop-attribution CSV, one row per (policy, relay) cell: the full
/// drop table in canonical label order plus the three sketch percentiles.
/// Undefined cells (empty sketches) are empty, never NaN/inf.
fn to_csv(points: &[NetAuditPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("policy,relay,nodes,offered,delivered_direct,delivered_relayed");
    for label in DropReason::LABELS {
        let _ = write!(out, ",{label}");
    }
    out.push_str(
        ",slot_wait_p50_us,slot_wait_p95_us,slot_wait_p99_us,\
         residence_p50_us,residence_p95_us,residence_p99_us,\
         relay_extra_p50_us,relay_extra_p95_us,relay_extra_p99_us\n",
    );
    let opt = |v: Option<f64>| v.map(|x| x.to_string()).unwrap_or_default();
    for p in points {
        let l = &p.lifecycle;
        let _ = write!(
            out,
            "{},{},{},{},{},{}",
            p.policy, p.relay as u8, p.nodes, l.offered, l.delivered_direct, l.delivered_relayed
        );
        for c in &l.drops {
            let _ = write!(out, ",{c}");
        }
        let _ = writeln!(
            out,
            ",{},{},{},{},{},{},{},{},{}",
            opt(l.slot_wait_us.quantile(0.50)),
            opt(l.slot_wait_us.quantile(0.95)),
            opt(l.slot_wait_us.quantile(0.99)),
            opt(l.service_residence_us.quantile(0.50)),
            opt(l.service_residence_us.quantile(0.95)),
            opt(l.service_residence_us.quantile(0.99)),
            opt(l.relay_extra_us.quantile(0.50)),
            opt(l.relay_extra_us.quantile(0.95)),
            opt(l.relay_extra_us.quantile(0.99)),
        );
    }
    out
}

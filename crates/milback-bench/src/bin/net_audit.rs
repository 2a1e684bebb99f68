//! Packet-lifecycle audit sweep: drop-reason attribution, the
//! conservation invariant, and deterministic latency percentiles over the
//! 64-node sector scene, for every MAC policy with relaying off and on.
//!
//! Every cell runs the congested Capture/Plan/Transmit pipeline (so
//! `service_shed` drops are on the books) and — on the relay leg — the
//! 25%-gapped scene under a 2-hop budget (so coverage-family drops and
//! relayed deliveries appear too). Every cell's ledger is audited
//! (`offered == delivered + Σ drops`) before its report is built; a
//! violation fails the cell, and this binary exits nonzero. The binary
//! also re-runs the relay leg sharded at 1/2/4/8 worker threads and
//! demands the merged latency sketches be bit-identical, which pins the
//! shard-index merge order.
//!
//! Run with: `cargo run --release -p milback-bench --bin net_audit`
//!
//! Writes `results/METRICS_lifecycle.json` (schema
//! `milback-metrics-lifecycle-v2`) and the drop-attribution CSV
//! `results/extension_net_audit.csv`.

use milback_bench::experiments::{
    audit_cell, run_sweep, Sweep, MAC_POLICY_NAMES, NET_AUDIT_GAP_FRACTION,
};
use milback_bench::hostinfo::HostInfo;
use milback_bench::runner::RunnerConfig;
use milback_bench::{csv_table, emit_anchor, metrics_io, opt_cell, Report, Series};
use milback_core::json::Json;
use milback_core::{CampaignAggregate, DropReason, LifecycleStats};

/// Sweep shape: the acceptance scene is 64 nodes over the ±60° sector
/// (the relay leg re-places a quarter of them past coverage), 8-slot
/// frames so contention losses and pipeline shedding both occur, and
/// enough frames for every drop family to accumulate a stable count.
const NODES: usize = 64;
const SLOTS: usize = 8;
const FRAMES: usize = 24;
const PAYLOAD_BYTES: usize = 16;
const ROOT_SEED: u64 = 0xA0D1;
/// Sharded determinism check shape: cells × threads × frames small enough
/// to run in well under a second, large enough that every thread count
/// actually fans out.
const SHARD_CELLS: usize = 4;
const SHARD_FRAMES: usize = 12;
const SHARD_THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The finished sweep: one (policy, relay leg, ledger) row per cell, in
/// trial order (policy-major, direct before relay).
pub(crate) type NetAudit = Vec<(&'static str, bool, LifecycleStats)>;

/// Runs the `policies × {direct, relay}` sweep; any failed cell — a
/// simulation error or a conservation leak — fails it.
pub(crate) fn run(cfg: &RunnerConfig) -> Result<NetAudit, String> {
    let sweep = Sweep::new(FRAMES, PAYLOAD_BYTES, SLOTS, ROOT_SEED)?;
    let key = |i: usize| (MAC_POLICY_NAMES[i / 2], i % 2 == 1);
    let runs = run_sweep::<CampaignAggregate>(&sweep, MAC_POLICY_NAMES.len() * 2, cfg, |i| {
        let (policy, relay_leg) = key(i);
        Ok(audit_cell(&sweep, NODES, policy, relay_leg))
    })
    .into_oks()?;
    Ok(runs
        .into_iter()
        .enumerate()
        .map(|(i, run)| {
            let (policy, relay_leg) = key(i);
            (policy, relay_leg, run.sink.lifecycle)
        })
        .collect())
}

/// The relay leg's merged ledger, sharded into [`SHARD_CELLS`] spatial
/// shards over `threads` workers, conservation-audited after the merge on
/// top of the runner's per-shard audit.
fn sharded_relay_leg(threads: usize) -> Result<LifecycleStats, String> {
    let sweep = Sweep {
        shard_nodes: Some(NODES.div_ceil(SHARD_CELLS)),
        ..Sweep::new(SHARD_FRAMES, PAYLOAD_BYTES, SLOTS, ROOT_SEED)?
    };
    let cfg = RunnerConfig::with_threads(threads);
    let mut runs = run_sweep::<CampaignAggregate>(&sweep, 1, &cfg, |_| {
        Ok(audit_cell(&sweep, NODES, "aloha", true))
    })
    .into_oks()?;
    let lifecycle = runs.remove(0).sink.lifecycle;
    lifecycle.audit().map_err(|e| e.to_string())?;
    Ok(lifecycle)
}

/// The drop-attribution CSV, one row per (policy, relay) cell: the full
/// drop table in canonical label order plus the three sketch percentiles.
/// Undefined cells (empty sketches) are empty, never NaN/inf.
pub(crate) fn csv(cells: &NetAudit) -> String {
    let header = format!(
        "policy,relay,nodes,offered,delivered_direct,delivered_relayed,{},\
         slot_wait_p50_us,slot_wait_p95_us,slot_wait_p99_us,\
         residence_p50_us,residence_p95_us,residence_p99_us,\
         relay_extra_p50_us,relay_extra_p95_us,relay_extra_p99_us",
        DropReason::LABELS.join(",")
    );
    csv_table(
        &header,
        cells.iter().map(|(policy, relay_leg, l)| {
            let mut row = vec![
                policy.to_string(),
                u8::from(*relay_leg).to_string(),
                NODES.to_string(),
                l.offered.to_string(),
                l.delivered_direct.to_string(),
                l.delivered_relayed.to_string(),
            ];
            row.extend(l.drops.iter().map(u64::to_string));
            for sketch in [&l.slot_wait_us, &l.service_residence_us, &l.relay_extra_us] {
                row.extend([0.50, 0.95, 0.99].map(|q| opt_cell(sketch.quantile(q))));
            }
            row
        }),
    )
}

/// `results/METRICS_lifecycle.json`: the sweep's config and every cell's
/// ledger.
pub(crate) fn metrics_doc(audit: &NetAudit) -> String {
    let config: [(&str, &dyn Json); 6] = [
        ("nodes", &NODES),
        ("frames", &FRAMES),
        ("slots", &SLOTS),
        ("payload_bytes", &PAYLOAD_BYTES),
        ("gap_fraction", &NET_AUDIT_GAP_FRACTION),
        ("seed", &ROOT_SEED),
    ];
    let cells: Vec<(String, &LifecycleStats)> = audit
        .iter()
        .map(|(policy, relay_leg, l)| {
            let leg = if *relay_leg { "relay" } else { "direct" };
            (format!("{policy}/{leg}"), l)
        })
        .collect();
    metrics_io::metrics_document(
        metrics_io::METRICS_LIFECYCLE_SCHEMA,
        &HostInfo::capture(),
        &config,
        "cells",
        &cells,
    )
}

fn main() {
    let main_span = milback_bench::spans::span("main");
    let audit = run(&RunnerConfig::from_env()).unwrap_or_else(|e| {
        eprintln!("net_audit cell failed (conservation or simulation): {e}");
        std::process::exit(1);
    });

    // The sharded city path must report bit-identical sketches at every
    // worker-thread count: the merge runs serially in shard-index order.
    let mut shard_reference = None;
    for threads in SHARD_THREAD_COUNTS {
        let lifecycle = match sharded_relay_leg(threads) {
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
        for (i, (_, _, l)) in audit.iter().filter(|c| c.1 == relay).enumerate() {
            let frac = (l.offered > 0).then(|| l.delivered() as f64 / l.offered as f64);
            s.push_opt(i as f64, frac);
        }
        report.add_series(s);
    }
    if let Some((policy, _, l)) = audit.iter().filter(|c| c.1).max_by_key(|c| c.2.dropped()) {
        let (top_idx, top_count) = l
            .drops
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(k, &c)| (k, c))
            .unwrap_or((0, 0));
        report.note(format!(
            "{policy} (relay): offered {}, delivered {} direct + {} relayed, top drop reason \
             {} × {top_count}; slot-wait p95 {} µs",
            l.offered,
            l.delivered_direct,
            l.delivered_relayed,
            DropReason::LABELS[top_idx],
            l.slot_wait_us
                .quantile(0.95)
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "-".into()),
        ));
    }
    report.note(format!(
        "{SLOTS} slots/frame, {FRAMES} frames, {PAYLOAD_BYTES}-byte payloads, {NODES} nodes, \
         gap fraction {NET_AUDIT_GAP_FRACTION} on the relay leg, congested Drop pipeline, \
         sharded sketches bit-identical at {SHARD_THREAD_COUNTS:?} threads, seed {ROOT_SEED:#x}",
    ));
    print!("{}", report.render());

    emit_anchor("METRICS_lifecycle.json", &metrics_doc(&audit));
    emit_anchor("extension_net_audit.csv", &csv(&audit));
    drop(io_span);
    drop(main_span);
    milback_bench::spans::export_if_requested();
}

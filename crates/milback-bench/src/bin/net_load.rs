//! Offered-vs-served load sweep: pushes the AP service pipeline past its
//! capacity to locate the served-load knee.
//!
//! Every point runs a slotted-ALOHA campaign, so offered load — the
//! occupied slots per frame, each one a grant the AP must serve — grows
//! monotonically with node count (`slots·(1−(1−1/slots)^nodes)` in
//! expectation), under a staged **Capture → Plan → Transmit** pipeline
//! whose Capture stage takes two slot widths behind a 1-deep queue —
//! service capacity is half the slot rate. The sweep races all three
//! overflow policies over the same grid: `drop` saturates `served` at the
//! knee and sheds the rest, `defer` serves everything late and counts the
//! spill, `degrade` serves everything by skipping SDM arbitration. Cells
//! flatten overflow-policy-major × node-count-minor, each one trial on its
//! own stream, and both load axes are simulated time, so every CSV column
//! is deterministic at any thread count.
//!
//! Run with: `cargo run --release -p milback-bench --bin net_load`

use milback_bench::experiments::{
    overflow_policy_by_name, run_sweep, sector_scene, Sweep, SweepCell, OVERFLOW_POLICY_NAMES,
};
use milback_bench::runner::RunnerConfig;
use milback_bench::{csv_table, emit_anchor, opt_cell, Report, Series};
use milback_core::engine::ps_to_secs;
use milback_core::CampaignAggregate;

/// Campaign shape: 8-slot frames so the knee (capacity = slots/2 grants
/// per frame) sits in the middle of the node sweep, and enough frames for
/// the steady-state backlog to dominate the ramp-up transient.
const NODE_COUNTS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
const SLOTS: usize = 8;
const FRAMES: usize = 64;
const PAYLOAD_BYTES: usize = 16;
const QUEUE_CAPACITY: usize = 1;
const ROOT_SEED: u64 = 0x10AD;

/// The finished sweep: one (overflow tag, node count, aggregate) row per
/// cell, in trial order.
pub(crate) struct NetLoad {
    /// The nominal campaign airtime `frames × frame_ps`, seconds: the
    /// denominator of both load axes.
    airtime_s: f64,
    cells: Vec<(&'static str, usize, CampaignAggregate)>,
}

/// Runs the sweep; any failed cell fails the sweep.
pub(crate) fn run(cfg: &RunnerConfig) -> Result<NetLoad, String> {
    let sweep = Sweep::new(FRAMES, PAYLOAD_BYTES, SLOTS, ROOT_SEED)?;
    let key = |i: usize| {
        (
            OVERFLOW_POLICY_NAMES[i / NODE_COUNTS.len()],
            NODE_COUNTS[i % NODE_COUNTS.len()],
        )
    };
    let cells = OVERFLOW_POLICY_NAMES.len() * NODE_COUNTS.len();
    let runs = run_sweep::<CampaignAggregate>(&sweep, cells, cfg, |i| {
        let (tag, nodes) = key(i);
        let overflow = overflow_policy_by_name(tag)
            .ok_or_else(|| format!("unknown overflow policy {tag:?}"))?;
        Ok(SweepCell {
            service: sweep.capture_service(QUEUE_CAPACITY, overflow),
            ..SweepCell::new(sector_scene(nodes), "aloha")
        })
    })
    .into_oks()?;
    Ok(NetLoad {
        airtime_s: FRAMES as f64 * ps_to_secs(sweep.plan.frame_ps()),
        cells: runs
            .into_iter()
            .enumerate()
            .map(|(i, run)| {
                let (tag, nodes) = key(i);
                (tag, nodes, run.sink)
            })
            .collect(),
    })
}

/// The full sweep schema, one row per (overflow policy, node count) cell.
pub(crate) fn csv(s: &NetLoad) -> String {
    csv_table(
        "overflow,nodes,offered,served,dropped,deferred,degraded,offered_per_s,\
         served_per_s,delivered,delivery_rate",
        s.cells.iter().map(|(tag, nodes, agg)| {
            let svc = &agg.service;
            vec![
                tag.to_string(),
                nodes.to_string(),
                svc.offered.to_string(),
                svc.served.to_string(),
                svc.dropped.to_string(),
                svc.deferred.to_string(),
                svc.degraded.to_string(),
                (svc.offered as f64 / s.airtime_s).to_string(),
                (svc.served as f64 / s.airtime_s).to_string(),
                agg.delivered.to_string(),
                opt_cell(agg.delivery_rate()),
            ]
        }),
    )
}

fn main() {
    let main_span = milback_bench::spans::span("main");
    let load = run(&RunnerConfig::from_env()).unwrap_or_else(|e| {
        eprintln!("net_load cell failed: {e}");
        std::process::exit(1);
    });

    let io_span = milback_bench::spans::span("io");
    let mut report = Report::new(
        "Extension net_load",
        "offered vs served load through the staged AP service pipeline, per overflow policy",
        "offered grants/s",
        "served grants/s / overflow counts",
    );
    let per_s = |grants: u64| grants as f64 / load.airtime_s;
    for tag in OVERFLOW_POLICY_NAMES {
        let mut served = Series::new(format!("served/s ({tag})"));
        for (_, _, agg) in load.cells.iter().filter(|c| c.0 == tag) {
            served.push(per_s(agg.service.offered), per_s(agg.service.served));
        }
        report.add_series(served);
    }
    if let Some((_, nodes, knee)) = load
        .cells
        .iter()
        .filter(|(tag, _, agg)| *tag == "drop" && agg.service.dropped > 0)
        .min_by_key(|c| c.1)
    {
        report.note(format!(
            "drop's served load saturates at {:.0} grants/s ({} nodes offered {:.0} grants/s and shed {}): \
             the service knee of a capture stage two slot widths deep",
            per_s(knee.service.served),
            nodes,
            per_s(knee.service.offered),
            knee.service.dropped,
        ));
    }
    report.note(format!(
        "{SLOTS} slots/frame, {FRAMES} frames, {PAYLOAD_BYTES}-byte payloads, slotted ALOHA, \
         capture = 2 slot widths, stage queue depth {QUEUE_CAPACITY}, seed {ROOT_SEED:#x}",
    ));
    print!("{}", report.render());
    emit_anchor("extension_net_load.csv", &csv(&load));
    drop(io_span);
    drop(main_span);
    milback_bench::spans::export_if_requested();
}

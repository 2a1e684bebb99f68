//! City-scale network sweep: sharded slotted-ALOHA campaigns from 10³ to
//! 10⁶ nodes.
//!
//! Each node count shards the ±60° sector scene into fixed-size spatial
//! cells and runs one deterministic engine campaign per cell
//! ([`milback_core::Network::run_sharded`]), streaming every node
//! straight into a [`milback_core::CampaignAggregate`] that folds each
//! block of finished cells in cell order — so the campaign's report memory
//! is O(block + histogram buckets) no matter how many nodes or cells run
//! (a 10⁶-node, 31 250-cell campaign peaks at ~27 MiB RSS, most of it the
//! scene), and the cells fan out over `MILBACK_THREADS` workers without
//! changing a single output bit. Node counts run one after another, each
//! campaign seeded from the runner's `trial_seed` of its index. The CSV's
//! throughput columns (`nodes_per_sec`, `wall_s`) are wall-clock and vary
//! run to run; every simulation column is deterministic.
//!
//! Run with: `cargo run --release -p milback-bench --bin net_scale_city`

use milback_bench::experiments::{run_sweep, sector_scene, Sweep, SweepCell};
use milback_bench::runner::RunnerConfig;
use milback_bench::{csv_table, emit_anchor, opt_cell, Report, Series};
use milback_core::{CampaignAggregate, OverflowPolicy};

/// The campaign shape: 8-slot frames over 32-node cells keeps every cell
/// contended (slot sharing and SDM erosion both bite) while singleton
/// slots still deliver.
const NODE_COUNTS: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];
const CELL_SIZE: usize = 32;
const SLOTS: usize = 8;
const FRAMES: usize = 4;
const PAYLOAD_BYTES: usize = 16;
const ROOT_SEED: u64 = 0xC17E;

/// Each cell AP's service pipeline: a Capture stage two slot widths deep
/// behind a 4-deep queue, spilling with `Defer`. Defer keeps the queue
/// FIFO, so every other simulation column equals an instantaneous AP's
/// campaign — the pipeline only lights up the `offered`/`served`/`overflow`
/// columns with a real backlog.
const SERVICE_QUEUE: usize = 4;

/// One finished node count: its node count, the campaign aggregate and
/// the campaign's wall-clock seconds.
pub(crate) type CityPoint = (usize, CampaignAggregate, f64);

/// Runs the sharded campaign at each node count. Relaying stays off, so
/// the city anchor is a full-coverage campaign whose gap and relay
/// columns report zeros.
pub(crate) fn run(node_counts: &[usize], cfg: &RunnerConfig) -> Result<Vec<CityPoint>, String> {
    let sweep = Sweep {
        shard_nodes: Some(CELL_SIZE),
        ..Sweep::new(FRAMES, PAYLOAD_BYTES, SLOTS, ROOT_SEED)?
    };
    let service = sweep.capture_service(SERVICE_QUEUE, OverflowPolicy::Defer);
    let runs = run_sweep::<CampaignAggregate>(&sweep, node_counts.len(), cfg, |i| {
        Ok(SweepCell {
            service,
            ..SweepCell::new(sector_scene(node_counts[i]), "aloha")
        })
    })
    .into_oks()?;
    Ok(node_counts
        .iter()
        .zip(runs)
        .map(|(&n, run)| (n, run.sink, run.wall_s))
        .collect())
}

/// Simulated nodes per wall-clock second: the sweep's throughput axis.
fn nodes_per_sec(nodes: usize, wall_s: f64) -> f64 {
    if wall_s > 0.0 {
        nodes as f64 / wall_s
    } else {
        0.0
    }
}

/// The full sweep schema, one row per node count; `threads` is the
/// shard fan-out. Undefined values (nothing delivered) are empty cells,
/// never NaN/inf tokens.
pub(crate) fn csv(points: &[CityPoint], threads: usize) -> String {
    csv_table(
        "nodes,cells,threads,frames,attempts,delivered,collisions,offered,\
         served,overflow,delivery_rate,energy_per_node_j,mean_snr_db,\
         nodes_per_sec,wall_s,gap_nodes,relayed,mean_relay_hops,\
         offered_packets,dropped_packets,slot_wait_p50_us,slot_wait_p95_us,\
         slot_wait_p99_us",
        points.iter().map(|(nodes, agg, wall_s)| {
            let wait = &agg.lifecycle.slot_wait_us;
            vec![
                nodes.to_string(),
                agg.cells.to_string(),
                threads.to_string(),
                FRAMES.to_string(),
                agg.attempts.to_string(),
                agg.delivered.to_string(),
                agg.collisions.to_string(),
                agg.service.offered.to_string(),
                agg.service.served.to_string(),
                agg.service.overflowed().to_string(),
                opt_cell(agg.delivery_rate()),
                opt_cell(agg.mean_energy_per_node_j()),
                opt_cell(agg.mean_snr_db()),
                nodes_per_sec(*nodes, *wall_s).to_string(),
                wall_s.to_string(),
                agg.gap_nodes.to_string(),
                agg.relayed.to_string(),
                opt_cell(agg.mean_relay_hops()),
                agg.lifecycle.offered.to_string(),
                agg.lifecycle.dropped().to_string(),
                opt_cell(wait.quantile(0.50)),
                opt_cell(wait.quantile(0.95)),
                opt_cell(wait.quantile(0.99)),
            ]
        }),
    )
}

fn main() {
    let main_span = milback_bench::spans::span("main");
    let cfg = RunnerConfig::from_env();
    let points = run(&NODE_COUNTS, &cfg).unwrap_or_else(|e| {
        eprintln!("net_scale_city failed: {e}");
        std::process::exit(1);
    });

    let io_span = milback_bench::spans::span("io");
    let mut report = Report::new(
        "Extension net_scale_city",
        "sharded slotted-ALOHA campaigns: cells, delivery, throughput vs node count",
        "nodes",
        "cells / delivery rate / knodes-per-sec",
    );
    let mut cells = Series::new("cells");
    let mut delivery = Series::new("delivery rate");
    let mut throughput = Series::new("knodes/s (wall)");
    for (nodes, agg, wall_s) in &points {
        let x = *nodes as f64;
        cells.push(x, agg.cells as f64);
        delivery.push_opt(x, agg.delivery_rate());
        throughput.push(x, nodes_per_sec(*nodes, *wall_s) / 1e3);
    }
    report.add_series(cells);
    report.add_series(delivery);
    report.add_series(throughput);
    if let Some((nodes, agg, wall_s)) = points.last() {
        report.note(format!(
            "{nodes} nodes across {} cells of {CELL_SIZE} finished in {wall_s:.2} s ({:.0} nodes/s) on {} thread(s); \
             report memory stayed at {} histogram buckets + counters, never a per-node Vec",
            agg.cells,
            nodes_per_sec(*nodes, *wall_s),
            cfg.threads,
            CampaignAggregate::new().bucket_footprint(),
        ));
    }
    report.note(format!(
        "{SLOTS} slots/frame, {FRAMES} frames, {PAYLOAD_BYTES}-byte payloads, SDM threshold 20 dB, \
         cell seeds from SplitMix64 over seed {ROOT_SEED:#x}"
    ));
    report.note(format!(
        "each cell AP serves grants through the staged Capture→Plan→Transmit pipeline \
         (capture 2 slot widths, queue {SERVICE_QUEUE}, Defer): offered/served/overflow carry \
         the backlog, and Defer's FIFO admission keeps every other column bit-identical to \
         the instantaneous campaign"
    ));
    report.note(
        "every shard cell's packet ledger is conservation-audited (offered == delivered + Σ drops) \
         before it merges; the lifecycle CSV columns carry the merged ledger and its slot-wait \
         percentiles, bit-identical at any MILBACK_THREADS"
            .to_string(),
    );
    print!("{}", report.render());
    emit_anchor("extension_net_scale_city.csv", &csv(&points, cfg.threads));
    drop(io_span);
    drop(main_span);
    milback_bench::spans::export_if_requested();
}

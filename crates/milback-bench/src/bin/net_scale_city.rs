//! City-scale network sweep: sharded slotted-ALOHA campaigns from 10³ to
//! 10⁵ nodes.
//!
//! Each node count shards the ±60° sector scene into fixed-size spatial
//! cells and runs one deterministic engine campaign per cell
//! ([`milback_core::Network::run_sharded`]), streaming every node
//! straight into a [`milback_core::CampaignAggregate`] — so the campaign's
//! report memory is O(cells + histogram buckets) no matter how many nodes
//! run, and the cells fan out over `MILBACK_THREADS` workers without
//! changing a single output bit. The CSV's throughput column
//! (`nodes_per_sec`) is wall-clock and varies run to run; every simulation
//! column is deterministic.
//!
//! Run with: `cargo run --release -p milback-bench --bin net_scale_city`

use milback_bench::experiments::{extension_net_scale_city, sector_campaign, NetScaleCityPoint};
use milback_bench::runner::RunnerConfig;
use milback_bench::{reduced_mode, results_dir, Report, Series};
use milback_core::{ApServiceConfig, OverflowPolicy, RelayConfig};

/// The campaign shape shared by the full-scale anchor and the reduced CI
/// run: 8-slot frames over 32-node cells keeps every cell contended (slot
/// sharing and SDM erosion both bite) while singleton slots still deliver.
const CELL_SIZE: usize = 32;
const SLOTS: usize = 8;
const FRAMES: usize = 4;
const PAYLOAD_BYTES: usize = 16;
const ROOT_SEED: u64 = 0xC17E;

/// Each cell AP's service pipeline: a Capture stage two slot widths deep
/// behind a 4-deep queue, spilling with `Defer`. Defer keeps the queue
/// FIFO, so every simulation column below is bit-identical to the old
/// instantaneous campaign — the config only lights up the
/// `offered`/`served`/`overflow` columns with a real backlog.
const SERVICE_QUEUE: usize = 4;
fn service(slot_ps: u64) -> ApServiceConfig {
    ApServiceConfig::instantaneous()
        .with_stage_latencies(2 * slot_ps, 0, 0)
        .with_queue(SERVICE_QUEUE, OverflowPolicy::Defer)
}

fn main() {
    let main_span = milback_bench::spans::span("main");
    let reduced = reduced_mode();
    let node_counts: &[usize] = if reduced {
        // The CI shape: 4 cells × a few hundred nodes, seconds not minutes.
        &[128, 1024]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };
    let cfg = RunnerConfig::from_env();
    // The slot plan is a pure function of the campaign shape; a 1-node
    // probe campaign yields the slot width the service pipeline is sized
    // against.
    let slot_ps = match sector_campaign(1, PAYLOAD_BYTES, SLOTS, ROOT_SEED) {
        Ok(c) => c.plan.slot_ps,
        Err(e) => {
            eprintln!("net_scale_city failed: {e}");
            std::process::exit(1);
        }
    };
    let points = match extension_net_scale_city(
        node_counts,
        CELL_SIZE,
        FRAMES,
        PAYLOAD_BYTES,
        SLOTS,
        ROOT_SEED,
        &service(slot_ps),
        // The city anchor stays a full-coverage campaign: relaying off
        // keeps every pre-relay column bit-identical, and the new
        // gap/relay columns report zeros.
        &RelayConfig::disabled(),
        &cfg,
    ) {
        Ok(points) => points,
        Err(e) => {
            eprintln!("net_scale_city failed: {e}");
            std::process::exit(1);
        }
    };

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
    for p in &points {
        cells.push(p.nodes as f64, p.cells as f64);
        delivery.push_opt(p.nodes as f64, p.delivery_rate);
        throughput.push(p.nodes as f64, p.nodes_per_sec / 1e3);
    }
    report.add_series(cells);
    report.add_series(delivery);
    report.add_series(throughput);
    if let Some(p) = points.last() {
        report.note(format!(
            "{} nodes across {} cells of {} finished in {:.2} s ({:.0} nodes/s) on {} thread(s); \
             report memory stayed at {} histogram buckets + counters, never a per-node Vec",
            p.nodes,
            p.cells,
            CELL_SIZE,
            p.wall_s,
            p.nodes_per_sec,
            p.threads,
            bucket_footprint(),
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

    // The wide per-point schema goes out as a hand-rolled CSV (the Report
    // grid only carries the headline series). Reduced runs never touch the
    // full-scale anchor.
    if !reduced {
        let dir = results_dir();
        if std::fs::create_dir_all(&dir).is_ok() {
            let path = dir.join("extension_net_scale_city.csv");
            match std::fs::write(&path, to_csv(&points)) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
        }
    }
    drop(io_span);
    drop(main_span);
    milback_bench::spans::export_if_requested();
}

/// The streaming aggregate's bounded report footprint, in histogram
/// buckets — printed so the scaling claim is visible next to the numbers.
fn bucket_footprint() -> usize {
    milback_core::CampaignAggregate::new().bucket_footprint()
}

/// The full sweep schema, one row per node count. Undefined values
/// (nothing delivered) are empty cells, never NaN/inf tokens.
fn to_csv(points: &[NetScaleCityPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "nodes,cells,threads,frames,attempts,delivered,collisions,offered,served,overflow,\
         delivery_rate,energy_per_node_j,mean_snr_db,nodes_per_sec,wall_s,gap_nodes,relayed,\
         mean_relay_hops,offered_packets,dropped_packets,slot_wait_p50_us,slot_wait_p95_us,\
         slot_wait_p99_us\n",
    );
    for p in points {
        let opt = |v: Option<f64>| v.map(|x| x.to_string()).unwrap_or_default();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            p.nodes,
            p.cells,
            p.threads,
            p.frames,
            p.attempts,
            p.delivered,
            p.collisions,
            p.offered,
            p.served,
            p.overflow,
            opt(p.delivery_rate),
            opt(p.energy_per_node_j),
            opt(p.mean_snr_db),
            p.nodes_per_sec,
            p.wall_s,
            p.gap_nodes,
            p.relayed,
            opt(p.mean_relay_hops),
            p.offered_packets,
            p.dropped_packets,
            opt(p.slot_wait_p50_us),
            opt(p.slot_wait_p95_us),
            opt(p.slot_wait_p99_us),
        );
    }
    out
}

//! Network-scaling extension: slotted-ALOHA + SDM campaigns on the
//! discrete-event engine, sweeping the cell from 1 to 64 nodes.
//!
//! Each node count runs [`milback_core::Network::run`] under slotted
//! ALOHA — every node duty-cycles into its hashed slot once per frame, the
//! AP arbitrates co-slotted transmissions by SDM separability — and
//! reports per-node goodput, slot collisions, and energy per delivered
//! packet. The sweep is `mac_compare`'s ALOHA row on the same seed, run
//! through the trial-parallel runner (one deterministic RNG stream per
//! node count), so the CSV is bit-identical at any thread count.
//!
//! Run with: `cargo run --release -p milback-bench --bin net_scale`

use milback_bench::experiments::{
    mean_node_goodput_bps, run_sweep, sector_scene, CellRun, Sweep, SweepCell,
};
use milback_bench::runner::{RunnerConfig, TrialBatch};
use milback_bench::{Report, Series};
use milback_core::{CampaignAggregate, SlottedRunReport};

const NODE_COUNTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
const SLOTS: usize = 8;
const FRAMES: usize = 24;
const PAYLOAD_BYTES: usize = 16;
const ROOT_SEED: u64 = 0xE4;

/// The finished sweep: one per-node report per node count.
pub(crate) type NetScale = TrialBatch<CellRun<Vec<SlottedRunReport>>, String>;

/// Runs the sweep.
pub(crate) fn run(cfg: &RunnerConfig) -> NetScale {
    let sweep = Sweep::new(FRAMES, PAYLOAD_BYTES, SLOTS, ROOT_SEED).expect("the payload fits");
    run_sweep::<SlottedRunReport>(&sweep, NODE_COUNTS.len(), cfg, |i| {
        Ok(SweepCell::new(sector_scene(NODE_COUNTS[i]), "aloha"))
    })
}

/// The sweep's report, whose CSV is the `results/extension_net_scale.csv`
/// anchor.
pub(crate) fn report(batch: &NetScale, threads: usize) -> Report {
    let mut report = Report::new(
        "Extension net_scale",
        "slotted-ALOHA + SDM scaling: per-node goodput, collisions, energy vs node count",
        "nodes",
        "per-node goodput (kbps) / collisions / energy (mJ)",
    );
    let mut goodput = Series::new("per-node goodput (kbps)");
    let mut collisions = Series::new("slot collisions per node");
    let mut energy = Series::new("energy per packet (mJ)");
    let mut delivery = Series::new("delivery rate");
    let mut rates = Vec::new();
    for run in batch.oks() {
        let r = &run.sink[0];
        let agg = CampaignAggregate::from_report(r);
        let nodes = agg.nodes as f64;
        let rate = agg.delivery_rate().unwrap_or(0.0);
        goodput.push(nodes, mean_node_goodput_bps(r) / 1e3);
        collisions.push(nodes, agg.collisions as f64 / nodes);
        energy.push_opt(
            nodes,
            (agg.delivered > 0).then(|| agg.energy_j / agg.delivered as f64 * 1e3),
        );
        delivery.push(nodes, rate);
        rates.push((agg.nodes, rate));
    }
    report.add_series(goodput);
    report.add_series(collisions);
    report.add_series(energy);
    report.add_series(delivery);
    if let (Some((_, first_rate)), Some((nodes, rate))) = (rates.first(), rates.last()) {
        report.note(format!(
            "at {nodes} nodes the delivery rate is {rate:.2} (vs {first_rate:.2} alone): slot sharing and \
             sub-beamwidth neighbour spacing both bite as the ±60° sector fills",
        ));
    }
    report.note(format!(
        "{SLOTS} slots/frame, {FRAMES} frames, {PAYLOAD_BYTES}-byte payloads, SDM threshold 20 dB; {}; \
         {threads} worker threads",
        batch.summary(),
    ));
    report
}

fn main() {
    // Named `main`/`io` so `all_experiments` can derive its per-stage
    // table (setup = main - run_trials - io) from the exported span file.
    let main_span = milback_bench::spans::span("main");
    let cfg = RunnerConfig::from_env();
    let sweep = run(&cfg);
    let io_span = milback_bench::spans::span("io");
    report(&sweep, cfg.threads).emit();
    drop(io_span);
    drop(main_span);
    milback_bench::spans::export_if_requested();
}

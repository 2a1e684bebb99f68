//! Multi-hop relay recovery sweep: gap fraction × hop budget over the
//! gapped sector scene.
//!
//! Every cell places a `gap_fraction` share of the scene's nodes past AP
//! coverage (an 8 m ring one tag hop out, a 12 m ring two hops out) and
//! runs a relay-aware slotted-ALOHA campaign under the given transmission
//! budget. At `max_hops = 1` (direct only) the gap nodes burn attempts
//! and deliver nothing; at `2` the 8 m ring's packets ride one tag-to-tag
//! forward into coverage; at `3` the 12 m ring recovers too. The CSV
//! carries the recovery (`gap_delivery_rate`) next to its price — the
//! forwarding energy per relayed delivery and the per-hop latency — and
//! every column is deterministic at any `MILBACK_THREADS`.
//!
//! Run with: `cargo run --release -p milback-bench --bin net_relay`

use milback_bench::experiments::{
    gapped_sector_scene, relay_sweep_config, run_sweep, Sweep, SweepCell, RELAY_TAG_RANGE_M,
};
use milback_bench::runner::RunnerConfig;
use milback_bench::{csv_table, emit_anchor, opt_cell, Report, Series};
use milback_core::CampaignAggregate;

/// Sweep shape: enough nodes for both gap rings to populate at every
/// non-zero gap fraction, 12-slot frames to keep direct contention from
/// drowning the recovery signal, and a hop-budget axis that crosses the
/// two-ring geometry (1 = direct only, 2 = 8 m ring, 3 = both rings).
const GAP_FRACTIONS: [f64; 3] = [0.0, 0.25, 0.5];
const NODES: usize = 32;
const SLOTS: usize = 12;
const FRAMES: usize = 32;
const PAYLOAD_BYTES: usize = 16;
const ROOT_SEED: u64 = 0x9E1A;
const HOP_BUDGETS: [usize; 3] = [1, 2, 3];

/// The finished sweep: one (gap fraction, hop budget, aggregate) row per
/// cell, in trial order (gap-fraction-major).
pub(crate) type NetRelay = Vec<(f64, usize, CampaignAggregate)>;

/// Runs the sweep; any failed cell fails the sweep.
pub(crate) fn run(cfg: &RunnerConfig) -> Result<NetRelay, String> {
    let sweep = Sweep::new(FRAMES, PAYLOAD_BYTES, SLOTS, ROOT_SEED)?;
    let key = |i: usize| {
        (
            GAP_FRACTIONS[i / HOP_BUDGETS.len()],
            HOP_BUDGETS[i % HOP_BUDGETS.len()],
        )
    };
    let cells = GAP_FRACTIONS.len() * HOP_BUDGETS.len();
    let runs = run_sweep::<CampaignAggregate>(&sweep, cells, cfg, |i| {
        let (gap_fraction, max_hops) = key(i);
        Ok(SweepCell {
            relay: relay_sweep_config(max_hops),
            ..SweepCell::new(gapped_sector_scene(NODES, gap_fraction), "aloha")
        })
    })
    .into_oks()?;
    Ok(runs
        .into_iter()
        .enumerate()
        .map(|(i, run)| {
            let (gap_fraction, max_hops) = key(i);
            (gap_fraction, max_hops, run.sink)
        })
        .collect())
}

/// The full sweep schema, one row per (gap fraction, hop budget) cell.
pub(crate) fn csv(cells: &NetRelay) -> String {
    csv_table(
        "gap_fraction,max_hops,nodes,gap_nodes,attempts,delivered,\
         delivery_rate,gap_attempts,gap_delivered,gap_delivery_rate,relayed,\
         forwarded,mean_relay_hops,relay_energy_per_delivered_j,\
         mean_relay_latency_s",
        cells.iter().map(|(gap_fraction, max_hops, agg)| {
            vec![
                gap_fraction.to_string(),
                max_hops.to_string(),
                NODES.to_string(),
                agg.gap_nodes.to_string(),
                agg.attempts.to_string(),
                agg.delivered.to_string(),
                opt_cell(agg.delivery_rate()),
                agg.gap_attempts.to_string(),
                agg.gap_delivered.to_string(),
                opt_cell(agg.gap_delivery_rate()),
                agg.relayed.to_string(),
                agg.forwarded.to_string(),
                opt_cell(agg.mean_relay_hops()),
                opt_cell(agg.relay_energy_per_delivered_j()),
                opt_cell(agg.mean_relay_latency_s()),
            ]
        }),
    )
}

fn main() {
    let main_span = milback_bench::spans::span("main");
    let relay_sweep = run(&RunnerConfig::from_env()).unwrap_or_else(|e| {
        eprintln!("net_relay cell failed: {e}");
        std::process::exit(1);
    });

    let io_span = milback_bench::spans::span("io");
    let mut report = Report::new(
        "Extension net_relay",
        "gap-node delivery recovery vs hop budget, with forwarding energy per relayed packet",
        "max hops",
        "gap delivery rate / relay energy",
    );
    for gap in GAP_FRACTIONS {
        let mut recovery = Series::new(format!("gap delivery (gap={gap})"));
        for (_, max_hops, agg) in relay_sweep.iter().filter(|c| c.0 == gap) {
            recovery.push_opt(*max_hops as f64, agg.gap_delivery_rate());
        }
        report.add_series(recovery);
    }
    if let Some((gap, max_hops, agg)) = relay_sweep
        .iter()
        .filter(|c| c.2.relayed > 0)
        .max_by_key(|c| (c.2.gap_delivered, c.1))
    {
        report.note(format!(
            "gap={gap} at {max_hops} hops recovered a gap delivery rate of {:.2} ({} relayed packets) for \
             {:.2e} J of forwarding energy per delivery and {:.1} µs of extra latency",
            agg.gap_delivery_rate().unwrap_or(0.0),
            agg.relayed,
            agg.relay_energy_per_delivered_j().unwrap_or(0.0),
            agg.mean_relay_latency_s().unwrap_or(0.0) * 1e6,
        ));
    }
    let relay = relay_sweep_config(2);
    report.note(format!(
        "{SLOTS} slots/frame, {FRAMES} frames, {PAYLOAD_BYTES}-byte payloads, {NODES} nodes, \
         AP coverage {} m, tag range {RELAY_TAG_RANGE_M} m, {} dB/hop SNR penalty, seed {ROOT_SEED:#x}",
        relay.coverage.ap_range_m,
        relay.hop_snr_penalty_db,
    ));
    print!("{}", report.render());
    emit_anchor("extension_net_relay.csv", &csv(&relay_sweep));
    drop(io_span);
    drop(main_span);
    milback_bench::spans::export_if_requested();
}

//! City-scale sharded campaigns: spatial cells, parallel per-cell engines,
//! streaming aggregation.
//!
//! The room-scale network layer serves every node from one sector scene and
//! one AP actor; campaigns over 10⁴–10⁶ nodes need neither one shared
//! engine nor O(nodes) report memory. This module shards a scene into
//! spatially contiguous **cells** — each cell a self-contained [`Scene`]
//! with its own AP — and runs one deterministic [`Engine`](crate::Engine)
//! campaign per cell, in parallel over
//! [`parallel::for_each_chunk_with`], folding each cell into a streaming
//! [`CampaignAggregate`] and merging the per-cell aggregates into the
//! campaign total **in cell index order** as each block of cells finishes.
//!
//! # Determinism
//!
//! Three ingredients make a sharded campaign bit-identical at any
//! `MILBACK_THREADS` setting:
//!
//! 1. **Per-cell RNG streams.** Cell `i` draws from
//!    `GaussianSource::new(cell_seed(campaign_seed, i))`, the same
//!    SplitMix64 golden-ratio mix the trial runner uses for per-trial
//!    streams, so a cell's noise is a pure function of the campaign seed
//!    and its index — never of scheduling.
//! 2. **One result slot per cell.** Cells run in fixed blocks of
//!    256 cells; within a block, workers write only their own cell's
//!    slot, so the chunk→worker assignment cannot reorder anything.
//! 3. **Serial in-order merge.** After each block, its cells' sinks are
//!    folded into the campaign total in cell index order on the calling
//!    thread, so even the non-associative f64 sums see the one fold order
//!    a single serial pass over all cells would — whatever the block size
//!    or thread count.
//!
//! `cell_seed(seed, 0) == seed`, so a 1-cell sharded campaign reproduces a
//! plain [`Network::run`] over the same scene bit-for-bit — the parity
//! suite proves it by `==` and `to_bits`.
//!
//! # Memory
//!
//! The sharded aggregate path never materializes a per-node report `Vec`,
//! nor one aggregate per cell: at most one block of finished cell sinks
//! waits for the fold, so peak report memory is O(block + histogram
//! buckets) whatever the cell count, with the per-cell ledger vectors
//! (O(largest cell)) recycled per worker within a block. Cell node ranges
//! are computed on demand, not tabulated. On perfbench's 10⁶-node,
//! 31 250-cell `city_1m` campaign this took peak RSS from 67.5 MiB
//! (every cell's aggregate alive until one final merge) to ~27 MiB, most
//! of which is the scene itself; `tests/alloc_bounds.rs` bounds the live
//! heap of a 16 384-cell campaign under 2 MiB above its entry level.

use crate::error::{MilbackError, Result};
use crate::network::{
    CampaignAggregate, CampaignScratch, CampaignSink, CampaignSpec, MacPolicy, Network,
};
use crate::pipeline::ApServiceConfig;
use crate::protocol::SlotPlan;
use crate::relay::RelayConfig;
use crate::scene::Scene;
use crate::telemetry::CampaignProbe;
use mmwave_sigproc::parallel;
use mmwave_sigproc::random::GaussianSource;
use std::ops::Range;

/// The RNG seed for one cell's campaign stream: the campaign seed XOR'd
/// with the cell index spread by the SplitMix64 golden-ratio increment —
/// the same mixing discipline the trial runner applies per trial, so cell
/// streams decorrelate the same way trial streams do. Cell 0's seed *is*
/// the campaign seed, which is what makes 1-cell parity exact.
pub fn cell_seed(campaign_seed: u64, cell_idx: usize) -> u64 {
    campaign_seed ^ (cell_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Cells per block of a sharded campaign: the cells one
/// [`parallel::for_each_chunk_with`] call runs before their sinks fold
/// into the campaign result. It bounds how many finished cell sinks are
/// alive at once; it never changes a result.
const BLOCK_CELLS: usize = 256;

/// Partitions a scene into `n_cells` spatially contiguous cells: contiguous
/// runs of the scene's node order (balanced to within one node), each cell
/// a self-contained scene with its own AP frontend and the shared clutter.
/// Scenes built in azimuth order (e.g. a sector sweep) therefore shard into
/// azimuth-contiguous spatial cells.
///
/// `n_cells` is clamped to `[1, nodes]` so no cell is ever empty. With one
/// cell the partition is an identity clone of the scene — node order,
/// boresight, and clutter untouched — so a 1-cell sharded campaign is the
/// plain campaign.
///
/// The cells cover every node exactly once by construction, so the
/// result is always `Ok`.
pub fn partition_cells(scene: &Scene, n_cells: usize) -> Result<Vec<Scene>> {
    let cells = CellPartition::new(scene.nodes.len(), n_cells);
    Ok((0..cells.count)
        .map(|c| cell_scene(scene, cells.range(c)))
        .collect())
}

/// The node ranges of a [`partition_cells`] partition of `n` nodes:
/// `n_cells` clamped to `[1, n]`, then contiguous runs balanced to within
/// one node (the first `n % count` cells hold one node more), so the last
/// range ends at `count * base + rem == n`. Each range is computed on
/// demand, so a campaign over many cells holds no per-cell table.
#[derive(Debug, Clone, Copy)]
struct CellPartition {
    count: usize,
    base: usize,
    rem: usize,
}

impl CellPartition {
    /// The partition of `n` nodes into `n_cells` cells.
    fn new(n: usize, n_cells: usize) -> Self {
        let count = n_cells.clamp(1, n.max(1));
        Self {
            count,
            base: n / count,
            rem: n % count,
        }
    }

    /// The node indices of cell `c`.
    fn range(&self, c: usize) -> Range<usize> {
        let start = c * self.base + c.min(self.rem);
        start..start + self.base + usize::from(c < self.rem)
    }
}

/// One cell of `scene`: its AP frontend, the nodes in `nodes`, and the
/// shared clutter. The full range is an identity clone of the scene.
fn cell_scene(scene: &Scene, nodes: Range<usize>) -> Scene {
    Scene {
        ap: scene.ap,
        nodes: scene.nodes[nodes].to_vec(),
        clutter: scene.clutter.clone(),
    }
}

impl Network {
    /// Runs a sharded campaign: the scene splits into `n_cells` spatial
    /// cells ([`partition_cells`]), each cell runs `spec` on its own
    /// deterministic engine under a policy built by
    /// `policy_for_cell(cell_idx, cell_seed)` and on its own
    /// [`cell_seed`]-derived RNG stream, cells fan out over `threads`
    /// workers, and each cell's sink is folded into the result in cell
    /// index order as its block of cells finishes
    /// ([`CampaignSink::merge_cell`]). Every cell's AP runs its own service
    /// pipeline, and relay routes never cross a cell boundary. The first
    /// cell error (in cell order) aborts the campaign.
    ///
    /// Cells run in fixed blocks of 256: one
    /// [`parallel::for_each_chunk_with`] call per block, with one
    /// `CampaignScratch` per worker, so at most one block of finished cell
    /// sinks waits for the fold at a time. Each cell's [`Network`] is built
    /// inside its worker right before the cell runs and dropped right
    /// after.
    ///
    /// The result is bit-identical at any thread count. With
    /// `S = CampaignAggregate` no per-node `Vec` exists on this path, so
    /// peak report memory is O(block + buckets), whatever the cell count;
    /// with `S = SlottedRunReport` the result is one report per cell (node
    /// indices cell-local). A 1-cell campaign reproduces [`Network::run`]
    /// on `GaussianSource::new(campaign_seed)` bit-for-bit.
    pub fn run_sharded<S: CampaignSink>(
        &self,
        spec: &CampaignSpec<'_>,
        n_cells: usize,
        threads: usize,
        campaign_seed: u64,
        policy_for_cell: impl Fn(usize, u64) -> Box<dyn MacPolicy> + Sync,
    ) -> Result<S::Cells> {
        let cells = CellPartition::new(self.node_count(), n_cells);
        let mut total = S::Cells::default();
        let mut block: Vec<Option<Result<S>>> = Vec::with_capacity(BLOCK_CELLS.min(cells.count));
        for first in (0..cells.count).step_by(BLOCK_CELLS) {
            block.clear();
            block.resize_with(BLOCK_CELLS.min(cells.count - first), || None);
            parallel::for_each_chunk_with(
                &mut block,
                1,
                threads,
                CampaignScratch::default,
                |scratch, offset, out| {
                    let idx = first + offset;
                    let cell = Network {
                        config: self.config.clone(),
                        scene: cell_scene(&self.scene, cells.range(idx)),
                    };
                    let seed = cell_seed(campaign_seed, idx);
                    out[0] = Some(cell.run_in(
                        spec,
                        policy_for_cell(idx, seed),
                        &mut GaussianSource::new(seed),
                        &mut CampaignProbe::disabled(),
                        scratch,
                    ));
                },
            );
            for (offset, out) in block.drain(..).enumerate() {
                let cell = out.unwrap_or_else(|| {
                    Err(MilbackError::Engine(format!(
                        "cell {} was never run",
                        first + offset
                    )))
                })?;
                S::merge_cell(&mut total, cell);
            }
        }
        Ok(total)
    }

    /// [`run_sharded`](Self::run_sharded) into a [`CampaignAggregate`],
    /// under positional arguments. Kept, signature untouched, because the
    /// frozen `perfbench` harness calls it.
    #[allow(clippy::too_many_arguments)]
    pub fn run_sharded_mac_relay<F>(
        &self,
        n_cells: usize,
        threads: usize,
        campaign_seed: u64,
        frames: usize,
        payload: &[u8],
        plan: &SlotPlan,
        sdm_threshold_db: f64,
        service: &ApServiceConfig,
        relay: &RelayConfig,
        policy_for_cell: F,
    ) -> Result<CampaignAggregate>
    where
        F: Fn(usize, u64) -> Box<dyn MacPolicy> + Sync,
    {
        let spec = CampaignSpec::new(frames, payload, *plan)
            .with_sdm_threshold_db(sdm_threshold_db)
            .with_service(*service)
            .with_relay(*relay);
        self.run_sharded::<CampaignAggregate>(
            &spec,
            n_cells,
            threads,
            campaign_seed,
            policy_for_cell,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::network::{SlottedAloha, SlottedRunReport};
    use crate::protocol::Packet;

    fn aloha(_: usize, seed: u64) -> Box<dyn MacPolicy> {
        Box::new(SlottedAloha::new(seed))
    }

    /// A nine-node ±40° arc at 4 m — node order is azimuth order, so the
    /// partition's contiguous runs are spatial cells. Built on the shared
    /// guarded constructor, so `n == 1` stays finite.
    fn arc_scene(n: usize) -> Scene {
        Scene::arc(n, 4.0, 80f64.to_radians(), 12f64.to_radians())
    }

    fn plan_for(net: &Network, slots: usize, payload: &[u8]) -> SlotPlan {
        SlotPlan::for_packet(
            slots,
            &Packet::uplink(payload.to_vec()),
            &net.config.fmcw,
            net.config.uplink_symbol_rate_hz,
            5e-6,
        )
        .unwrap()
    }

    #[test]
    fn cell_zero_seed_is_the_campaign_seed() {
        assert_eq!(cell_seed(0xFACE, 0), 0xFACE);
        let seeds: Vec<u64> = (0..32).map(|i| cell_seed(0xFACE, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 32, "cell seed collision");
    }

    #[test]
    fn partition_covers_every_node_in_order() {
        let scene = arc_scene(10);
        for cells in [1usize, 2, 3, 4, 7, 10, 25] {
            let parts = partition_cells(&scene, cells).unwrap();
            assert_eq!(parts.len(), cells.clamp(1, 10));
            let flattened: Vec<_> = parts.iter().flat_map(|c| c.nodes.iter()).collect();
            assert_eq!(flattened.len(), 10, "{cells} cells");
            for (a, b) in flattened.iter().zip(&scene.nodes) {
                assert_eq!(**a, *b);
            }
            // Balanced to within one node, nothing empty.
            let sizes: Vec<usize> = parts.iter().map(|c| c.nodes.len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(*min >= 1 && max - min <= 1, "unbalanced: {sizes:?}");
            for p in &parts {
                assert_eq!(p.clutter.len(), scene.clutter.len());
            }
        }
    }

    #[test]
    fn partition_coverage_is_checked_in_release() {
        // Coverage holds by construction, not by a `debug_assert`, so it
        // holds in release builds too. Sweep enough shapes to hit every
        // base/rem split.
        for n in [1usize, 2, 3, 5, 9, 16, 31] {
            let scene = arc_scene(n);
            for cells in 1..=n + 2 {
                let parts = partition_cells(&scene, cells)
                    .unwrap_or_else(|e| panic!("{n} nodes / {cells} cells: {e}"));
                let covered: usize = parts.iter().map(|c| c.nodes.len()).sum();
                assert_eq!(covered, n, "{n} nodes / {cells} cells");
            }
        }
    }

    #[test]
    fn one_cell_partition_is_an_identity_clone() {
        let scene = arc_scene(5);
        let parts = partition_cells(&scene, 1).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].nodes, scene.nodes);
        assert_eq!(
            parts[0].ap.boresight_rad.to_bits(),
            scene.ap.boresight_rad.to_bits()
        );
    }

    #[test]
    fn one_cell_sharded_run_reproduces_run_bit_for_bit() {
        let net = Network::new(SystemConfig::milback_default(), arc_scene(5)).unwrap();
        let payload = [0x42u8; 8];
        let spec = CampaignSpec::new(5, &payload, plan_for(&net, 4, &payload));
        let seed = 0xC17Fu64;
        let reports = net
            .run_sharded::<SlottedRunReport>(&spec, 1, 4, seed, aloha)
            .unwrap();
        assert_eq!(reports.len(), 1);
        let mut rng = GaussianSource::new(seed);
        let plain: SlottedRunReport = net
            .run(
                &spec,
                aloha(0, seed),
                &mut rng,
                &mut CampaignProbe::disabled(),
            )
            .unwrap();
        assert_eq!(reports[0], plain);
        for (a, b) in reports[0].nodes.iter().zip(&plain.nodes) {
            assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
            assert_eq!(
                a.mean_snr_db.map(f64::to_bits),
                b.mean_snr_db.map(f64::to_bits)
            );
        }
    }

    #[test]
    fn sharded_aggregate_is_thread_count_invariant() {
        let net = Network::new(SystemConfig::milback_default(), arc_scene(9)).unwrap();
        let payload = [0x42u8; 8];
        let spec = CampaignSpec::new(4, &payload, plan_for(&net, 4, &payload));
        let run = |threads: usize| {
            net.run_sharded::<CampaignAggregate>(&spec, 3, threads, 0xBEEF, aloha)
                .unwrap()
        };
        let baseline = run(1);
        assert_eq!(baseline.cells, 3);
        assert_eq!(baseline.nodes, 9);
        for threads in [2usize, 4, 8] {
            let agg = run(threads);
            assert_eq!(agg, baseline, "{threads} threads");
            assert_eq!(agg.energy_j.to_bits(), baseline.energy_j.to_bits());
            assert_eq!(agg.snr_sum_db.to_bits(), baseline.snr_sum_db.to_bits());
        }
    }

    #[test]
    fn multi_block_fold_is_the_serial_fold_at_any_thread_count() {
        // 600 two-node cells span three blocks, the last one partial.
        let net = Network::new(SystemConfig::milback_default(), arc_scene(1200)).unwrap();
        let payload = [0x42u8; 8];
        let spec = CampaignSpec::new(2, &payload, plan_for(&net, 4, &payload));
        let reports = net
            .run_sharded::<SlottedRunReport>(&spec, 600, 1, 0xB10C, aloha)
            .unwrap();
        assert_eq!(reports.len(), 600);
        let mut folded = CampaignAggregate::new();
        for r in &reports {
            folded.merge_from(&CampaignAggregate::from_report(r));
        }
        for threads in [1usize, 2, 3, 8] {
            let agg = net
                .run_sharded::<CampaignAggregate>(&spec, 600, threads, 0xB10C, aloha)
                .unwrap();
            assert_eq!(agg, folded, "{threads} threads");
            assert_eq!(agg.energy_j.to_bits(), folded.energy_j.to_bits());
            assert_eq!(agg.snr_sum_db.to_bits(), folded.snr_sum_db.to_bits());
        }
    }

    #[test]
    fn a_cell_error_in_a_later_block_aborts_the_campaign() {
        /// Schedules a slot beyond the plan, which the coordinator rejects.
        struct Overrun;
        impl MacPolicy for Overrun {
            fn name(&self) -> &'static str {
                "overrun"
            }
            fn schedule_frame(
                &mut self,
                _frame: usize,
                ctx: &crate::network::MacContext<'_>,
            ) -> crate::network::FrameSchedule {
                vec![(ctx.plan.slots_per_frame, vec![0])]
            }
        }
        let net = Network::new(SystemConfig::milback_default(), arc_scene(600)).unwrap();
        let payload = [0x42u8; 8];
        let spec = CampaignSpec::new(1, &payload, plan_for(&net, 4, &payload));
        let policy = |idx: usize, seed: u64| -> Box<dyn MacPolicy> {
            if idx == 300 {
                Box::new(Overrun)
            } else {
                aloha(idx, seed)
            }
        };
        for threads in [1usize, 2] {
            match net.run_sharded::<CampaignAggregate>(&spec, 600, threads, 3, policy) {
                Err(MilbackError::Engine(msg)) => assert!(msg.contains("overrun"), "{msg}"),
                other => panic!("expected the cell's engine error, got {other:?}"),
            }
        }
    }

    #[test]
    fn streaming_aggregate_matches_report_fold_exactly() {
        let net = Network::new(SystemConfig::milback_default(), arc_scene(8)).unwrap();
        let payload = [0x42u8; 8];
        let spec = CampaignSpec::new(3, &payload, plan_for(&net, 4, &payload));
        let streamed = net
            .run_sharded::<CampaignAggregate>(&spec, 4, 2, 0xA66, aloha)
            .unwrap();
        let reports = net
            .run_sharded::<SlottedRunReport>(&spec, 4, 2, 0xA66, aloha)
            .unwrap();
        let mut folded = CampaignAggregate::new();
        for r in &reports {
            folded.merge_from(&CampaignAggregate::from_report(r));
        }
        assert_eq!(streamed, folded);
        assert_eq!(streamed.energy_j.to_bits(), folded.energy_j.to_bits());
        assert_eq!(streamed.snr_sum_db.to_bits(), folded.snr_sum_db.to_bits());
    }

    #[test]
    fn sharded_service_ledger_folds_and_is_thread_invariant() {
        // A backlogged Defer pipeline (capacity 0, capture slower than the
        // slot width) serves every grant late but in FIFO order, so the
        // trial RNG stream is consumed exactly as in the instantaneous
        // campaign: the node ledgers match bit-for-bit, only the service
        // counters differ — and the whole aggregate is thread invariant.
        let net = Network::new(SystemConfig::milback_default(), arc_scene(9)).unwrap();
        let payload = [0x42u8; 8];
        let plan = plan_for(&net, 4, &payload);
        let instant_spec = CampaignSpec::new(4, &payload, plan);
        let spec = instant_spec.with_service(
            crate::pipeline::ApServiceConfig::instantaneous()
                .with_stage_latencies(3 * plan.slot_ps, 0, 0)
                .with_queue(0, crate::pipeline::OverflowPolicy::Defer),
        );
        let run = |threads: usize| {
            net.run_sharded::<CampaignAggregate>(&spec, 3, threads, 0xBEEF, aloha)
                .unwrap()
        };
        let deferred = run(1);
        assert!(deferred.service.offered > 0);
        assert_eq!(deferred.service.served, deferred.service.offered);
        assert!(deferred.service.deferred > 0, "capacity 0 must spill");
        assert_eq!(deferred.service.dropped, 0);
        for threads in [2usize, 4, 8] {
            assert_eq!(run(threads), deferred, "{threads} threads");
        }
        let instant = net
            .run_sharded::<CampaignAggregate>(&instant_spec, 3, 1, 0xBEEF, aloha)
            .unwrap();
        assert_eq!(instant.service.deferred, 0);
        assert_eq!(deferred.attempts, instant.attempts);
        assert_eq!(deferred.delivered, instant.delivered);
        assert_eq!(deferred.collisions, instant.collisions);
        assert_eq!(deferred.energy_j.to_bits(), instant.energy_j.to_bits());
        assert_eq!(deferred.snr_sum_db.to_bits(), instant.snr_sum_db.to_bits());
    }

    #[test]
    fn aggregate_footprint_is_node_count_independent() {
        let payload = [0x42u8; 8];
        let run = |n: usize| {
            let net = Network::new(SystemConfig::milback_default(), arc_scene(n)).unwrap();
            let spec = CampaignSpec::new(2, &payload, plan_for(&net, 4, &payload));
            net.run_sharded::<CampaignAggregate>(&spec, 2, 2, 7, aloha)
                .unwrap()
        };
        let small = run(4);
        let big = run(16);
        assert_eq!(small.bucket_footprint(), big.bucket_footprint());
        assert_eq!(big.nodes, 16, "the campaign still covered every node");
    }

    #[test]
    fn sharded_run_rejects_oversized_packets_per_cell() {
        let net = Network::new(SystemConfig::milback_default(), arc_scene(4)).unwrap();
        let small = [0u8; 2];
        let plan = plan_for(&net, 2, &small);
        let spec = CampaignSpec::new(1, &[0u8; 4096], plan);
        let err = net.run_sharded::<CampaignAggregate>(&spec, 2, 1, 1, aloha);
        assert!(err.is_err());
    }
}

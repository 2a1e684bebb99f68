//! Multi-hop tag-to-tag relaying across AP coverage gaps.
//!
//! The paper's network section assumes every tag sits inside the AP's
//! serviceable range; a city-scale deployment does not — cell-edge nodes
//! beyond the coverage model's range (or sector) are **gap nodes** whose
//! direct uplinks the AP can never hear. This module adds the missing
//! delivery path: a gap node hands its packet to a geometric neighbor,
//! the packet hops tag-to-tag toward the covered region, and the last
//! (covered) tag uplinks it on the origin's behalf.
//!
//! Everything here is deterministic by construction:
//!
//! * **Neighbor discovery** ([`NeighborGraph::from_scene`]) is pure
//!   geometry — two tags are neighbors iff their distance is within the
//!   tag-to-tag range. No RNG.
//! * **Route selection** ([`select_routes`]) is a multi-source BFS from
//!   the covered set, visiting nodes in index order; the only freedom —
//!   which equal-distance neighbor a node picks as its parent — is
//!   resolved by a SplitMix64 draw keyed on `(seed, node)`, so the
//!   routing table is a pure function of the scene, the coverage model,
//!   and one seed drawn from the trial stream. Identical at any
//!   `MILBACK_THREADS`.
//! * **Scheduling** ([`RelayAwareMac`]) grants each routed gap node a
//!   relay chain in its hashed slot; routed gap nodes drop out of the
//!   direct contention set (their uplink would be wasted airtime), while
//!   *routeless* gap nodes keep contending blindly — they cannot know
//!   the AP is deaf — so their attempts stay in every delivery-rate
//!   denominator.
//!
//! A [`RelayConfig::disabled`] campaign classifies nothing, draws
//! nothing, and grants nothing: the parity suite proves it bit-exact
//! (`==` and `to_bits`) with the relay-free MAC paths.

use crate::lifecycle::DropReason;
use crate::network::{
    hash_into_slots, splitmix64, FrameSchedule, MacContext, MacPolicy, RelayGrant,
};
use crate::scene::{CoverageModel, Scene};
use mmwave_sigproc::random::GaussianSource;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Campaign-wide relay parameters: the AP coverage model that defines
/// gap nodes, and the chain geometry/budget used to bridge them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RelayConfig {
    /// Which nodes the AP can reach directly; everything outside is a
    /// gap node.
    pub coverage: CoverageModel,
    /// Maximum transmissions a packet may take end-to-end (tag hops plus
    /// the terminal uplink). `1` means direct-only: a gap node adjacent
    /// to coverage needs `2`.
    pub max_hops: usize,
    /// Maximum tag-to-tag distance for neighbor discovery, meters.
    pub tag_range_m: f64,
    /// Deterministic SNR penalty per tag hop, dB, subtracted from the
    /// reported SNR of a relayed delivery.
    pub hop_snr_penalty_db: f64,
}

impl RelayConfig {
    /// The parity configuration: unbounded coverage (no gap nodes), no
    /// hop budget beyond direct, no neighbor range. Campaigns run with
    /// this draw no relay RNG and post no relay events — bit-exact with
    /// the relay-free paths.
    pub fn disabled() -> Self {
        Self {
            coverage: CoverageModel::unbounded(),
            max_hops: 1,
            tag_range_m: 0.0,
            hop_snr_penalty_db: 0.0,
        }
    }

    /// Whether this configuration can never produce a gap node. With
    /// unbounded coverage relaying is moot whatever the other knobs
    /// say, and the relay machinery must stay fully dormant (no RNG
    /// draws) so the parity argument holds.
    pub fn is_disabled(&self) -> bool {
        self.coverage.is_unbounded()
    }
}

impl Default for RelayConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// The tag-to-tag adjacency of a scene: node `i` and `j` are neighbors
/// iff their positions lie within the configured tag range. Built once
/// per campaign by pairwise distance (O(n²) over a cell, which the
/// sharded runner keeps small), adjacency lists in ascending index
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborGraph {
    adj: Vec<Vec<usize>>,
}

impl NeighborGraph {
    /// Discovers neighbors among `scene`'s nodes within `tag_range_m`.
    pub fn from_scene(scene: &Scene, tag_range_m: f64) -> Self {
        let n = scene.nodes.len();
        let mut adj = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = scene.nodes[i].position.distance_to(scene.nodes[j].position);
                if d <= tag_range_m {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        Self { adj }
    }

    /// Nodes in the graph.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Node `idx`'s neighbors, in ascending index order.
    pub fn neighbors(&self, idx: usize) -> &[usize] {
        &self.adj[idx]
    }
}

/// Per-node distance to the covered set, in tag hops: `0` for covered
/// nodes, `usize::MAX` when unreachable.
fn hop_distances(graph: &NeighborGraph, covered: &[bool]) -> Vec<usize> {
    let mut dist = vec![usize::MAX; graph.len()];
    let mut queue = VecDeque::new();
    // Multi-source BFS seeded in index order: FIFO expansion makes the
    // distance field unique (it is anyway) and the traversal order a
    // pure function of the inputs.
    for (idx, &c) in covered.iter().enumerate() {
        if c {
            dist[idx] = 0;
            queue.push_back(idx);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in graph.neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Selects one relay route per routable gap node: `routes[idx]` is
/// `Some([idx, …, terminal])` — origin first, covered terminal last —
/// when `idx` is a gap node whose shortest path to coverage fits the
/// `max_hops` transmission budget (`tag hops + 1 ≤ max_hops`), `None`
/// for covered nodes and unroutable gap nodes.
///
/// Routes follow shortest paths; where a node has several equal-distance
/// parents the choice is a SplitMix64 draw keyed on `(seed, node)`, so
/// the full table is deterministic for a fixed seed at any thread count
/// while different trials spread load across parent candidates.
pub fn select_routes(
    graph: &NeighborGraph,
    covered: &[bool],
    max_hops: usize,
    seed: u64,
) -> Vec<Option<Vec<usize>>> {
    assert_eq!(graph.len(), covered.len(), "graph/coverage node counts");
    let dist = hop_distances(graph, covered);
    let n = graph.len();
    // Seeded parent choice per node, resolved before route assembly so a
    // shared prefix is shared in every route that crosses it.
    let mut parent = vec![usize::MAX; n];
    for idx in 0..n {
        let d = dist[idx];
        if d == 0 || d == usize::MAX {
            continue;
        }
        let candidates: Vec<usize> = graph
            .neighbors(idx)
            .iter()
            .copied()
            .filter(|&u| dist[u] == d - 1)
            .collect();
        debug_assert!(!candidates.is_empty(), "BFS distance without a parent");
        let mut state = seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        parent[idx] = candidates[(splitmix64(&mut state) % candidates.len() as u64) as usize];
    }
    (0..n)
        .map(|idx| {
            let d = dist[idx];
            if covered[idx] || d == usize::MAX || d + 1 > max_hops {
                return None;
            }
            let mut route = Vec::with_capacity(d + 1);
            let mut at = idx;
            route.push(at);
            while !covered[at] {
                at = parent[at];
                route.push(at);
            }
            Some(route)
        })
        .collect()
}

/// Classifies every gap node's drop attribution under `config`: the
/// [`DropReason`] its direct uplink earns when the AP cannot hear it.
/// `reasons[idx]` is `None` for covered nodes;
/// [`DropReason::HopBudgetExhausted`] when a tag-to-tag path to coverage
/// exists but its transmission count (`tag hops + 1`) exceeds
/// `config.max_hops`; and [`DropReason::NoRelayRoute`] otherwise — the
/// node is unreachable through the neighbor graph, or reachable within
/// budget but the campaign's policy granted it no chain.
///
/// Pure geometry (the same BFS route selection runs), no RNG, no clock:
/// safe to call from the lifecycle recorder without perturbing a run.
pub fn classify_gap_reasons(
    scene: &Scene,
    covered: &[bool],
    config: &RelayConfig,
) -> Vec<Option<DropReason>> {
    let graph = NeighborGraph::from_scene(scene, config.tag_range_m);
    let dist = hop_distances(&graph, covered);
    covered
        .iter()
        .zip(&dist)
        .map(|(&c, &d)| {
            if c {
                None
            } else if d != usize::MAX && d + 1 > config.max_hops {
                Some(DropReason::HopBudgetExhausted)
            } else {
                Some(DropReason::NoRelayRoute)
            }
        })
        .collect()
}

/// Relay-aware slotted ALOHA: covered nodes contend directly exactly as
/// [`SlottedAloha`](crate::network::SlottedAloha) does (same hash, same
/// seed), routed gap nodes are granted relay chains in their hashed
/// slots instead of contending, and routeless gap nodes keep contending
/// blindly so their (undeliverable) attempts stay in the denominators.
#[derive(Debug, Clone)]
pub struct RelayAwareMac {
    slot_seed: u64,
    config: RelayConfig,
    covered: Vec<bool>,
    routes: Vec<Option<Vec<usize>>>,
}

impl RelayAwareMac {
    /// Creates the policy over the direct-contention slot seed and the
    /// campaign relay configuration.
    pub fn new(slot_seed: u64, config: RelayConfig) -> Self {
        Self {
            slot_seed,
            config,
            covered: Vec::new(),
            routes: Vec::new(),
        }
    }

    /// The routing table computed in [`MacPolicy::begin`] (empty before).
    pub fn routes(&self) -> &[Option<Vec<usize>>] {
        &self.routes
    }
}

impl MacPolicy for RelayAwareMac {
    fn name(&self) -> &'static str {
        "relay"
    }

    fn begin(&mut self, ctx: &MacContext<'_>, rng: &mut GaussianSource) {
        let n = ctx.net.node_count();
        if self.config.is_disabled() {
            // Fully dormant: no classification, no graph, and — the part
            // parity depends on — no RNG draw.
            self.covered = vec![true; n];
            self.routes = vec![None; n];
            return;
        }
        // One route seed per campaign, drawn from the trial stream so
        // routing varies across trials but never across thread counts.
        // Drawn for every enabled configuration (even max_hops == 1)
        // so sweeping the hop budget leaves the noise stream aligned.
        let route_seed = u64::from_le_bytes(rng.bytes(8).try_into().expect("eight bytes"));
        self.covered = self.config.coverage.classify(&ctx.net.scene);
        let graph = NeighborGraph::from_scene(&ctx.net.scene, self.config.tag_range_m);
        self.routes = select_routes(&graph, &self.covered, self.config.max_hops, route_seed);
    }

    fn schedule_frame_into(&mut self, frame: usize, ctx: &MacContext<'_>, out: &mut FrameSchedule) {
        let covered = &self.covered;
        let routes = &self.routes;
        let contends = |idx: usize| covered[idx] || routes[idx].is_none();
        hash_into_slots(ctx, frame, self.slot_seed, contends, out);
    }

    fn relay_frame(&mut self, frame: usize, ctx: &MacContext<'_>) -> Vec<RelayGrant> {
        // A 0-slot plan has no slot to grant a chain, just as its direct
        // schedule is empty.
        if ctx.plan.slots_per_frame == 0 {
            return Vec::new();
        }
        self.routes
            .iter()
            .enumerate()
            .filter_map(|(idx, route)| {
                route.as_ref().map(|route| RelayGrant {
                    slot: ctx.plan.slot_for(idx, frame, self.slot_seed),
                    route: route.clone(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two arcs at the same azimuth spread: an inner (covered) ring and
    /// an outer ring `gap` of whose nodes sit past the coverage range.
    fn ringed_scene(inner: usize, outer: usize) -> Scene {
        let span = 60f64.to_radians();
        let mut scene = Scene::arc(inner, 4.0, span, 0.0);
        for k in 0..outer {
            scene = scene.with_node_at(8.0, Scene::arc_azimuth_rad(k, outer, span), 0.0);
        }
        scene
    }

    #[test]
    fn neighbor_graph_is_symmetric_and_sorted() {
        let scene = ringed_scene(4, 4);
        let g = NeighborGraph::from_scene(&scene, 4.5);
        assert_eq!(g.len(), 8);
        for i in 0..g.len() {
            assert!(g.neighbors(i).windows(2).all(|w| w[0] < w[1]));
            for &j in g.neighbors(i) {
                assert!(g.neighbors(j).contains(&i), "{i} <-> {j}");
            }
        }
        // Outer nodes reach inner nodes across the ~4 m radial spacing.
        assert!((4..8).all(|i| !g.neighbors(i).is_empty()));
    }

    #[test]
    fn zero_range_graph_has_no_edges() {
        let g = NeighborGraph::from_scene(&ringed_scene(3, 3), 0.0);
        assert!((0..g.len()).all(|i| g.neighbors(i).is_empty()));
    }

    #[test]
    fn routes_reach_coverage_within_budget() {
        let scene = ringed_scene(4, 4);
        let covered: Vec<bool> = CoverageModel::with_range(6.0).classify(&scene);
        assert_eq!(&covered[..4], &[true; 4]);
        assert_eq!(&covered[4..], &[false; 4]);
        let g = NeighborGraph::from_scene(&scene, 4.5);
        let routes = select_routes(&g, &covered, 2, 0xDEAD);
        for (idx, route) in routes.iter().enumerate() {
            if idx < 4 {
                assert!(route.is_none(), "covered node {idx} routed");
                continue;
            }
            let route = route.as_ref().expect("outer ring is adjacent");
            assert_eq!(route[0], idx);
            assert!(covered[*route.last().unwrap()]);
            assert!(route.len() <= 2);
        }
    }

    #[test]
    fn hop_budget_of_one_routes_nothing() {
        let scene = ringed_scene(4, 4);
        let covered = CoverageModel::with_range(6.0).classify(&scene);
        let g = NeighborGraph::from_scene(&scene, 4.5);
        let routes = select_routes(&g, &covered, 1, 0xDEAD);
        assert!(routes.iter().all(|r| r.is_none()));
    }

    #[test]
    fn isolated_gap_node_stays_routeless() {
        let scene = ringed_scene(4, 4).with_node_at(20.0, 0.0, 0.0);
        let covered = CoverageModel::with_range(6.0).classify(&scene);
        let g = NeighborGraph::from_scene(&scene, 4.5);
        let routes = select_routes(&g, &covered, 8, 0xDEAD);
        assert!(g.neighbors(8).is_empty());
        assert!(routes[8].is_none());
    }

    #[test]
    fn route_selection_is_a_pure_function_of_the_seed() {
        let scene = ringed_scene(6, 6);
        let covered = CoverageModel::with_range(6.0).classify(&scene);
        let g = NeighborGraph::from_scene(&scene, 5.0);
        let a = select_routes(&g, &covered, 3, 7);
        let b = select_routes(&g, &covered, 3, 7);
        assert_eq!(a, b);
        // A different seed is allowed to pick different equal-distance
        // parents; routes must still exist and stay shortest.
        let c = select_routes(&g, &covered, 3, 8);
        for (x, y) in a.iter().zip(&c) {
            assert_eq!(x.is_some(), y.is_some());
            if let (Some(x), Some(y)) = (x, y) {
                assert_eq!(x.len(), y.len(), "seeds must not change path length");
            }
        }
    }

    #[test]
    fn gap_reasons_partition_by_reachability_and_budget() {
        let scene = ringed_scene(4, 4).with_node_at(20.0, 0.0, 0.0);
        let covered = CoverageModel::with_range(6.0).classify(&scene);
        let cfg = RelayConfig {
            coverage: CoverageModel::with_range(6.0),
            max_hops: 1,
            tag_range_m: 4.5,
            hop_snr_penalty_db: 0.0,
        };
        // Direct-only budget: the outer ring is reachable but over
        // budget; the far node is unreachable outright.
        let reasons = classify_gap_reasons(&scene, &covered, &cfg);
        assert!(reasons[..4].iter().all(|r| r.is_none()), "covered nodes");
        assert!(reasons[4..8]
            .iter()
            .all(|r| *r == Some(DropReason::HopBudgetExhausted)));
        assert_eq!(reasons[8], Some(DropReason::NoRelayRoute));
        // A two-transmission budget makes the outer ring routable — any
        // remaining direct-uplink loss there is a missing grant, not a
        // budget violation.
        let reasons = classify_gap_reasons(&scene, &covered, &RelayConfig { max_hops: 2, ..cfg });
        assert!(reasons[4..8]
            .iter()
            .all(|r| *r == Some(DropReason::NoRelayRoute)));
    }

    #[test]
    fn disabled_config_is_dormant() {
        let cfg = RelayConfig::disabled();
        assert!(cfg.is_disabled());
        assert_eq!(cfg, RelayConfig::default());
        // Bounded coverage enables it even at the direct-only budget —
        // coverage gating alone changes delivery.
        let gapped = RelayConfig {
            coverage: CoverageModel::with_range(6.0),
            ..RelayConfig::disabled()
        };
        assert!(!gapped.is_disabled());
    }
}

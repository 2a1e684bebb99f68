//! Oracle for relay route selection: every route [`select_routes`] picks is
//! a shortest path to coverage.
//!
//! Over many seeded scenes with coverage gaps, a breadth-first search
//! written here, on the [`NeighborGraph`] the campaign builds, gives each
//! node's hop distance to the covered set. Against it:
//!
//! * every route starts at its gap node, ends at a covered node, steps only
//!   between neighbors, and has `1 +` the BFS distance nodes;
//! * every gap node whose shortest path fits the transmission budget
//!   (`hops + 1 ≤ max_hops`) has a route, and no other node has one;
//! * [`classify_gap_reasons`] blames the hop budget exactly for the gap
//!   nodes that are reachable but over budget.

use milback::core::{
    classify_gap_reasons, select_routes, CoverageModel, DropReason, NeighborGraph, RelayConfig,
    Scene,
};
use milback::sigproc::random::GaussianSource;
use std::collections::VecDeque;

const SCENES: u64 = 400;

/// Hop distance of every node to the covered set, `None` if unreachable.
fn bfs_hops(graph: &NeighborGraph, covered: &[bool]) -> Vec<Option<usize>> {
    let mut hops: Vec<Option<usize>> = covered.iter().map(|&c| c.then_some(0)).collect();
    let mut queue: VecDeque<usize> = (0..covered.len()).filter(|&i| covered[i]).collect();
    while let Some(u) = queue.pop_front() {
        let next = hops[u].map(|h| h + 1);
        for &v in graph.neighbors(u) {
            if hops[v].is_none() {
                hops[v] = next;
                queue.push_back(v);
            }
        }
    }
    hops
}

/// A scene of 4–24 nodes scattered over 1–12 m and ±60°, and a relay
/// configuration whose coverage range, tag range and hop budget are drawn
/// too.
fn gapped_scene(seed: u64) -> (Scene, RelayConfig) {
    let mut rng = GaussianSource::new(seed);
    let n = 4 + (rng.uniform(0.0, 21.0) as usize).min(20);
    let orient = 12f64.to_radians();
    let mut scene = Scene::single_node(rng.uniform(1.0, 12.0), orient);
    for _ in 1..n {
        let d = rng.uniform(1.0, 12.0);
        let az = rng.uniform(-60.0, 60.0).to_radians();
        scene = scene.with_node_at(d, az, orient);
    }
    let relay = RelayConfig {
        coverage: CoverageModel::with_range(rng.uniform(3.0, 8.0)),
        max_hops: 1 + (rng.uniform(0.0, 5.0) as usize).min(4),
        tag_range_m: rng.uniform(1.5, 5.0),
        hop_snr_penalty_db: 3.0,
    };
    (scene, relay)
}

#[test]
fn relay_routes_are_bfs_shortest_paths() {
    // How often each case came up, so the scenes are known to exercise it.
    let (mut multi_hop, mut over_budget, mut unreachable) = (0, 0, 0);
    for seed in 1..=SCENES {
        let (scene, relay) = gapped_scene(seed);
        let covered = relay.coverage.classify(&scene);
        let graph = NeighborGraph::from_scene(&scene, relay.tag_range_m);
        // The graph is the geometry: neighbors iff within the tag range.
        for i in 0..scene.nodes.len() {
            for j in 0..scene.nodes.len() {
                let d = scene.nodes[i].position.distance_to(scene.nodes[j].position);
                let linked = i != j && d <= relay.tag_range_m;
                assert_eq!(
                    graph.neighbors(i).contains(&j),
                    linked,
                    "seed {seed}: {i}–{j}"
                );
            }
        }
        let hops = bfs_hops(&graph, &covered);
        let routes = select_routes(&graph, &covered, relay.max_hops, seed ^ 0x5EED);
        let reasons = classify_gap_reasons(&scene, &covered, &relay);
        assert_eq!(routes.len(), scene.nodes.len());
        for (idx, route) in routes.iter().enumerate() {
            let routable = !covered[idx] && hops[idx].is_some_and(|h| h < relay.max_hops);
            let Some(route) = route else {
                assert!(
                    !routable,
                    "seed {seed}: routable gap node {idx} has no route"
                );
                if !covered[idx] {
                    let want = if hops[idx].is_some() {
                        over_budget += 1;
                        DropReason::HopBudgetExhausted
                    } else {
                        unreachable += 1;
                        DropReason::NoRelayRoute
                    };
                    assert_eq!(reasons[idx], Some(want), "seed {seed}: node {idx}");
                }
                continue;
            };
            assert!(
                routable,
                "seed {seed}: node {idx} got a route it cannot use"
            );
            assert_eq!(reasons[idx], Some(DropReason::NoRelayRoute));
            let h = hops[idx].unwrap();
            assert_eq!(
                route.len(),
                h + 1,
                "seed {seed}: route {route:?} is not shortest"
            );
            assert!(route.len() <= relay.max_hops);
            assert_eq!(route[0], idx);
            assert!(covered[*route.last().unwrap()]);
            for (k, pair) in route.windows(2).enumerate() {
                assert!(
                    graph.neighbors(pair[0]).contains(&pair[1]),
                    "seed {seed}: {route:?} steps off the graph"
                );
                // Each step closes one hop of distance.
                assert_eq!(hops[pair[1]], Some(h - k - 1));
            }
            multi_hop += usize::from(route.len() >= 3);
        }
    }
    assert!(
        multi_hop > 0 && over_budget > 0 && unreachable > 0,
        "cases seen: {multi_hop} multi-hop routes, {over_budget} over budget, \
         {unreachable} unreachable"
    );
}

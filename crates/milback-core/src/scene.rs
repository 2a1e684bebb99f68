//! Scenes: placements of the AP, node(s) and clutter, with exact ground
//! truth — the simulation's substitute for the paper's laser-meter and
//! protractor measurements (§9).

use crate::error::{MilbackError, Result};
use mmwave_rf::channel::{ApFrontend, NodePose, Reflector, Vec2};
use serde::{Deserialize, Serialize};

/// A complete physical scene.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scene {
    /// The AP's frontend geometry.
    pub ap: ApFrontend,
    /// Node poses (one for most experiments; several for SDM).
    pub nodes: Vec<NodePose>,
    /// Static clutter reflectors.
    pub clutter: Vec<Reflector>,
}

impl Scene {
    /// A single node at `distance_m` on the AP boresight, board rotated by
    /// `orientation_rad`, in an empty room.
    pub fn single_node(distance_m: f64, orientation_rad: f64) -> Self {
        assert!(distance_m > 0.0, "node must be in front of the AP");
        Self {
            ap: ApFrontend::milback_default(),
            nodes: vec![NodePose::on_boresight(distance_m, orientation_rad)],
            clutter: Vec::new(),
        }
    }

    /// The paper's indoor evaluation environment: "tables, chairs, and
    /// shelves" (§9) — a few strong static reflectors around the link.
    pub fn indoor(distance_m: f64, orientation_rad: f64) -> Self {
        let mut s = Self::single_node(distance_m, orientation_rad);
        s.clutter = vec![
            // A desk edge near the AP.
            Reflector {
                position: Vec2::new(1.6, 0.4),
                rcs_m2: 0.3,
            },
            // A metal shelf to the side.
            Reflector {
                position: Vec2::new(3.5, -1.2),
                rcs_m2: 0.8,
            },
            // The back wall behind the node.
            Reflector {
                position: Vec2::new(distance_m + 3.0, 0.0),
                rcs_m2: 2.0,
            },
            // A chair.
            Reflector {
                position: Vec2::new(2.4, 1.1),
                rcs_m2: 0.15,
            },
        ];
        s
    }

    /// Adds a node at `distance_m` and absolute azimuth `azimuth_rad` (from
    /// the AP), facing the AP with `orientation_rad` offset.
    pub fn with_node_at(mut self, distance_m: f64, azimuth_rad: f64, orientation_rad: f64) -> Self {
        let position = Vec2::from_polar(distance_m, azimuth_rad);
        let facing = std::f64::consts::PI + azimuth_rad + orientation_rad;
        self.nodes.push(NodePose {
            position,
            facing_rad: facing,
        });
        self
    }

    /// Azimuth of node `k` among `n` evenly spaced across `span_rad`
    /// centered on boresight. A singleton (or empty) arc sits on
    /// boresight: the `k / (n - 1)` spacing division is guarded, so a
    /// 1-node grid never turns into NaN radians.
    pub fn arc_azimuth_rad(k: usize, n: usize, span_rad: f64) -> f64 {
        if n <= 1 {
            0.0
        } else {
            -span_rad / 2.0 + span_rad * k as f64 / (n - 1) as f64
        }
    }

    /// `n` nodes evenly spaced across a `span_rad`-wide arc at
    /// `radius_m`, all with the same board `orientation_rad` — the
    /// sector layout every MAC sweep and shard test places nodes on.
    pub fn arc(n: usize, radius_m: f64, span_rad: f64, orientation_rad: f64) -> Self {
        let mut scene = Scene::single_node(radius_m, orientation_rad);
        scene.nodes.clear();
        for k in 0..n {
            scene = scene.with_node_at(
                radius_m,
                Self::arc_azimuth_rad(k, n, span_rad),
                orientation_rad,
            );
        }
        scene
    }

    /// Ground truth for node `idx`: `(range_m, azimuth_rad, incidence_rad)`.
    ///
    /// # Panics
    /// Panics for an out-of-range index.
    pub fn ground_truth(&self, idx: usize) -> GroundTruth {
        let node = self.nodes[idx];
        GroundTruth {
            range_m: self.ap.position.distance_to(node.position),
            azimuth_rad: self.ap.azimuth_to(node.position),
            incidence_rad: node.incidence_from(self.ap.position),
        }
    }

    /// A single-node view of this scene serving node `idx`: that node
    /// becomes the primary, clutter is shared, other nodes are dropped,
    /// and the AP's horns are mechanically steered at the served node (§8
    /// — the beam-steering is what makes SDM possible at all). `None` for
    /// an out-of-range index.
    pub fn view_for_node(&self, idx: usize) -> Option<Scene> {
        // Copy exactly one pose instead of cloning the whole node list: this
        // runs once per node per frame, so an O(nodes) clone here would make
        // a campaign quadratic at city scale.
        let node = *self.nodes.get(idx)?;
        let mut ap = self.ap;
        ap.boresight_rad = ap.position.bearing_to(node.position);
        Some(Scene {
            ap,
            nodes: vec![node],
            clutter: self.clutter.clone(),
        })
    }

    /// [`view_for_node`](Self::view_for_node) with a typed error instead
    /// of an `Option`: an out-of-range index is a
    /// [`MilbackError::NodeOutOfScene`], never a panic — relay routes can
    /// carry arbitrary indices, so every engine-side caller goes through
    /// this bound.
    pub fn view_for_node_checked(&self, idx: usize) -> Result<Scene> {
        self.view_for_node(idx).ok_or(MilbackError::NodeOutOfScene {
            idx,
            nodes: self.nodes.len(),
        })
    }
}

/// Exact ground truth for one node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// True AP–node distance, meters.
    pub range_m: f64,
    /// True azimuth of the node from AP boresight, radians.
    pub azimuth_rad: f64,
    /// True incidence angle at the node (its "orientation"), radians.
    pub incidence_rad: f64,
}

/// AP coverage: which nodes the AP can reach directly, by range and
/// sector. The paper assumes every tag is AP-reachable; city-scale
/// scenes are not — a node past `ap_range_m` (or outside the served
/// sector) is a **gap node** whose only path is tag-to-tag relaying.
///
/// The [`unbounded`](Self::unbounded) model covers everything and is the
/// bit-exact parity configuration: classification is pure geometry (no
/// RNG draws), so an all-covered campaign is indistinguishable from one
/// that never classified at all.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverageModel {
    /// Maximum AP–node range the AP can serve, meters.
    pub ap_range_m: f64,
    /// Half-width of the served sector around boresight, radians.
    pub sector_half_rad: f64,
}

impl CoverageModel {
    /// Full coverage: every node is AP-reachable (the parity default).
    pub fn unbounded() -> Self {
        Self {
            ap_range_m: f64::INFINITY,
            sector_half_rad: f64::INFINITY,
        }
    }

    /// Range-limited coverage over the full sector — the cell-edge dead
    /// zone model: nodes past `ap_range_m` are gap nodes.
    pub fn with_range(ap_range_m: f64) -> Self {
        Self {
            ap_range_m,
            sector_half_rad: f64::INFINITY,
        }
    }

    /// Whether this model covers every finite placement.
    pub fn is_unbounded(&self) -> bool {
        self.ap_range_m == f64::INFINITY && self.sector_half_rad == f64::INFINITY
    }

    /// Whether a node at `gt` is AP-reachable under this model.
    pub fn covers(&self, gt: &GroundTruth) -> bool {
        gt.range_m <= self.ap_range_m && gt.azimuth_rad.abs() <= self.sector_half_rad
    }

    /// Per-node coverage flags for `scene`, in node-index order.
    pub fn classify(&self, scene: &Scene) -> Vec<bool> {
        (0..scene.nodes.len())
            .map(|idx| self.covers(&scene.ground_truth(idx)))
            .collect()
    }
}

impl Default for CoverageModel {
    fn default() -> Self {
        Self::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_ground_truth() {
        let s = Scene::single_node(4.0, 10f64.to_radians());
        let gt = s.ground_truth(0);
        assert!((gt.range_m - 4.0).abs() < 1e-12);
        assert!(gt.azimuth_rad.abs() < 1e-12);
        assert!((gt.incidence_rad + 10f64.to_radians()).abs() < 1e-12);
    }

    #[test]
    fn indoor_scene_has_clutter() {
        let s = Scene::indoor(5.0, 0.0);
        assert_eq!(s.clutter.len(), 4);
        // Back wall sits behind the node.
        assert!(s.clutter[2].position.x > 5.0);
        // Clutter RCS values are physical.
        assert!(s.clutter.iter().all(|c| c.rcs_m2 > 0.0));
    }

    #[test]
    fn with_node_at_geometry() {
        let s = Scene::single_node(3.0, 0.0).with_node_at(5.0, 0.3, 0.05);
        assert_eq!(s.nodes.len(), 2);
        let gt = s.ground_truth(1);
        assert!((gt.range_m - 5.0).abs() < 1e-12);
        assert!((gt.azimuth_rad - 0.3).abs() < 1e-12);
        assert!((gt.incidence_rad + 0.05).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "in front of the AP")]
    fn rejects_zero_distance() {
        Scene::single_node(0.0, 0.0);
    }

    #[test]
    fn singleton_arc_is_finite_on_boresight() {
        // Regression: `k / (n - 1)` used to divide by zero for n == 1 and
        // park the node at NaN radians.
        assert_eq!(Scene::arc_azimuth_rad(0, 1, 120f64.to_radians()), 0.0);
        assert_eq!(Scene::arc_azimuth_rad(0, 0, 1.0), 0.0);
        let s = Scene::arc(1, 4.0, 120f64.to_radians(), 0.1);
        let gt = s.ground_truth(0);
        assert!(gt.range_m.is_finite() && gt.azimuth_rad.is_finite());
        assert!(gt.azimuth_rad.abs() < 1e-12);
    }

    #[test]
    fn arc_spreads_nodes_across_the_span() {
        let span = 120f64.to_radians();
        let s = Scene::arc(5, 4.0, span, 0.0);
        assert_eq!(s.nodes.len(), 5);
        let first = s.ground_truth(0).azimuth_rad;
        let mid = s.ground_truth(2).azimuth_rad;
        let last = s.ground_truth(4).azimuth_rad;
        assert!((first + span / 2.0).abs() < 1e-9);
        assert!(mid.abs() < 1e-9);
        assert!((last - span / 2.0).abs() < 1e-9);
    }

    #[test]
    fn view_for_node_checked_reports_the_bound() {
        let s = Scene::single_node(4.0, 0.0);
        assert!(s.view_for_node_checked(0).is_ok());
        match s.view_for_node_checked(3) {
            Err(MilbackError::NodeOutOfScene { idx: 3, nodes: 1 }) => {}
            other => panic!("expected NodeOutOfScene, got {other:?}"),
        }
    }

    #[test]
    fn coverage_classifies_by_range_and_sector() {
        let span = 120f64.to_radians();
        let mut s = Scene::arc(3, 4.0, span, 0.0);
        s = s.with_node_at(9.0, 0.0, 0.0);
        let unbounded = CoverageModel::unbounded();
        assert!(unbounded.is_unbounded());
        assert_eq!(unbounded.classify(&s), vec![true; 4]);
        let ranged = CoverageModel::with_range(6.0);
        assert!(!ranged.is_unbounded());
        assert_eq!(ranged.classify(&s), vec![true, true, true, false]);
        let sectored = CoverageModel {
            ap_range_m: 6.0,
            sector_half_rad: 10f64.to_radians(),
        };
        // Only the on-boresight arc node stays covered; the far node
        // fails on range even though it sits on boresight.
        assert_eq!(sectored.classify(&s), vec![false, true, false, false]);
    }

    #[test]
    fn view_for_node_steers_and_isolates() {
        let s = Scene::indoor(3.0, 0.1).with_node_at(5.0, 0.3, 0.05);
        let v = s.view_for_node(1).unwrap();
        assert_eq!(v.nodes.len(), 1);
        assert_eq!(v.nodes[0], s.nodes[1]);
        assert_eq!(v.clutter.len(), s.clutter.len());
        // Boresight points at the served node: its azimuth in the view is 0.
        assert!(v.ground_truth(0).azimuth_rad.abs() < 1e-12);
        // Range and incidence are preserved from the parent scene.
        let gt = s.ground_truth(1);
        assert!((v.ground_truth(0).range_m - gt.range_m).abs() < 1e-12);
        assert!(s.view_for_node(2).is_none());
    }
}

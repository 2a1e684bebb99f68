//! The AP service pipeline: **Capture → Plan → Transmit** as explicit
//! stages of the discrete-event engine.
//!
//! The paper's MAC results treat the AP as an instantaneous oracle: a
//! granted slot is captured, planned, and served inside one event, so AP
//! compute contention is invisible no matter how many nodes a cell holds.
//! This module turns the AP into the staged reader the DragonFly /
//! full-duplex ISAC line of work models: every grant flows through three
//! serial service stages, each with its own integer-picosecond processing
//! latency and a bounded FIFO queue, so "heavy traffic" becomes a
//! measurable quantity — offered load vs served load vs overflow.
//!
//! # Determinism contract
//!
//! The [`ApServiceConfig::instantaneous`] configuration (zero latency per
//! stage, unbounded queues, zero jitter) reproduces the pre-pipeline
//! campaign **bit-for-bit**: no stage ever queues behind another, every
//! grant completes its three stages at the instant it was offered (engine
//! `seq` ordering keeps same-instant chains in posting order), and no
//! randomness is drawn. With jitter enabled, every latency draw comes from
//! a SplitMix64 state seeded once from the trial RNG stream — the same
//! discipline the backoff policies use — so runs stay bit-identical at any
//! `MILBACK_THREADS` setting.
//!
//! # Overflow policies
//!
//! A bounded stage queue must decide what to do with a grant that arrives
//! while the stage is busy and its queue is full ([`OverflowPolicy`]):
//!
//! * [`Drop`](OverflowPolicy::Drop) — the grant is discarded; the AP never
//!   captures the transmission, so it reaches no ledger.
//! * [`Defer`](OverflowPolicy::Defer) — the grant is still admitted (the
//!   backlog spills past the bound, modeling a slower external buffer) but
//!   every such admission is counted as a deferral.
//! * [`Degrade`](OverflowPolicy::Degrade) — the grant is admitted with a
//!   *cheaper plan*: its Plan stage costs zero latency and the AP skips
//!   SDM arbitration at transmit (a multi-node group degrades to a
//!   collision), trading concurrency for pipeline relief.

use crate::engine::TimePs;
use serde::{Deserialize, Serialize};

/// What a bounded stage queue does with a grant that finds it full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverflowPolicy {
    /// Discard the grant; it reaches no ledger.
    Drop,
    /// Admit past the bound, counting each spill as a deferral.
    Defer,
    /// Admit with a cheaper plan (zero-latency Plan stage, no SDM
    /// arbitration), counting each admission as a degradation.
    Degrade,
}

/// The three AP service stages, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageKind {
    /// Front-end capture of the granted transmission.
    Capture,
    /// Carrier/beam plan computation.
    Plan,
    /// The transmission itself: SDM arbitration plus channel service.
    Transmit,
}

impl StageKind {
    /// A stable label for event traces and metric names.
    pub fn label(self) -> &'static str {
        match self {
            StageKind::Capture => "stage_capture",
            StageKind::Plan => "stage_plan",
            StageKind::Transmit => "stage_transmit",
        }
    }

    /// The metric name of this stage's queue-occupancy histogram.
    pub fn occupancy_metric(self) -> &'static str {
        match self {
            StageKind::Capture => "ap_queue_capture",
            StageKind::Plan => "ap_queue_plan",
            StageKind::Transmit => "ap_queue_transmit",
        }
    }

    /// The next stage downstream, if any.
    pub fn next(self) -> Option<StageKind> {
        match self {
            StageKind::Capture => Some(StageKind::Plan),
            StageKind::Plan => Some(StageKind::Transmit),
            StageKind::Transmit => None,
        }
    }
}

/// Configuration of the AP service pipeline: per-stage processing
/// latencies (integer picoseconds), the per-stage queue bound, the
/// overflow policy, and an optional uniform latency jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApServiceConfig {
    /// Capture-stage processing latency, picoseconds.
    pub capture_ps: TimePs,
    /// Plan-stage processing latency, picoseconds.
    pub plan_ps: TimePs,
    /// Transmit-stage processing latency, picoseconds.
    pub transmit_ps: TimePs,
    /// Per-stage queue bound (jobs waiting behind the one in service);
    /// `None` is unbounded.
    pub queue_capacity: Option<usize>,
    /// What a full stage queue does with a new grant.
    pub overflow: OverflowPolicy,
    /// Uniform latency jitter bound, picoseconds: each stage service adds
    /// `draw % (jitter_ps + 1)` from a SplitMix64 state seeded once from
    /// the trial stream. Zero draws nothing (the parity configuration).
    pub jitter_ps: TimePs,
}

impl ApServiceConfig {
    /// The pre-pipeline AP: zero latency per stage, unbounded queues, no
    /// jitter. Every grant is served at its slot instant and nothing is
    /// drawn; `tests/campaign_digest.rs` pins campaigns under it.
    pub fn instantaneous() -> Self {
        Self {
            capture_ps: 0,
            plan_ps: 0,
            transmit_ps: 0,
            queue_capacity: None,
            overflow: OverflowPolicy::Drop,
            jitter_ps: 0,
        }
    }

    /// Whether this is the bit-exact parity configuration (no latency, no
    /// bound, no jitter — the pipeline collapses to the inline service).
    /// A campaign serves a relay-free frame under it in one pass, with no
    /// slot or stage events; a zero-latency config with a queue bound is
    /// not instantaneous and keeps the event path.
    pub fn is_instantaneous(&self) -> bool {
        self.capture_ps == 0
            && self.plan_ps == 0
            && self.transmit_ps == 0
            && self.queue_capacity.is_none()
            && self.jitter_ps == 0
    }

    /// Sets the three stage latencies, picoseconds.
    pub fn with_stage_latencies(
        mut self,
        capture_ps: TimePs,
        plan_ps: TimePs,
        transmit_ps: TimePs,
    ) -> Self {
        self.capture_ps = capture_ps;
        self.plan_ps = plan_ps;
        self.transmit_ps = transmit_ps;
        self
    }

    /// Bounds every stage queue at `capacity` waiting jobs under `overflow`.
    pub fn with_queue(mut self, capacity: usize, overflow: OverflowPolicy) -> Self {
        self.queue_capacity = Some(capacity);
        self.overflow = overflow;
        self
    }

    /// Adds uniform latency jitter up to `jitter_ps` per stage service.
    pub fn with_jitter(mut self, jitter_ps: TimePs) -> Self {
        self.jitter_ps = jitter_ps;
        self
    }

    /// The base latency of one stage, picoseconds (jitter excluded).
    pub fn stage_latency_ps(&self, stage: StageKind) -> TimePs {
        match stage {
            StageKind::Capture => self.capture_ps,
            StageKind::Plan => self.plan_ps,
            StageKind::Transmit => self.transmit_ps,
        }
    }
}

impl Default for ApServiceConfig {
    fn default() -> Self {
        Self::instantaneous()
    }
}

/// Campaign-wide AP service accounting: what was offered to the pipeline
/// and what became of it. Carried by every campaign report and folded into
/// the streaming [`CampaignAggregate`](crate::network::CampaignAggregate),
/// so city-scale runs report pipeline saturation without per-grant memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ApServiceStats {
    /// Grants offered to the Capture stage (one per fired slot).
    pub offered: u64,
    /// Grants that completed all three stages.
    pub served: u64,
    /// Grants discarded by a full queue under [`OverflowPolicy::Drop`].
    pub dropped: u64,
    /// Grants admitted past a full queue under [`OverflowPolicy::Defer`].
    pub deferred: u64,
    /// Grants degraded to a cheaper plan under [`OverflowPolicy::Degrade`].
    pub degraded: u64,
}

impl ApServiceStats {
    /// Sums another run's accounting into this one (exact u64 adds, so
    /// any merge order agrees).
    pub fn merge_from(&mut self, other: &Self) {
        self.offered += other.offered;
        self.served += other.served;
        self.dropped += other.dropped;
        self.deferred += other.deferred;
        self.degraded += other.degraded;
    }

    /// Grants that hit a full queue, regardless of policy.
    pub fn overflowed(&self) -> u64 {
        self.dropped + self.deferred + self.degraded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_instantaneous_parity_config() {
        let c = ApServiceConfig::default();
        assert!(c.is_instantaneous());
        assert_eq!(c, ApServiceConfig::instantaneous());
    }

    #[test]
    fn builders_leave_the_parity_config() {
        let c = ApServiceConfig::instantaneous().with_stage_latencies(10, 20, 30);
        assert!(!c.is_instantaneous());
        assert_eq!(c.stage_latency_ps(StageKind::Plan), 20);
        let c = ApServiceConfig::instantaneous().with_queue(4, OverflowPolicy::Defer);
        assert!(!c.is_instantaneous());
        assert_eq!(c.queue_capacity, Some(4));
        let c = ApServiceConfig::instantaneous().with_jitter(7);
        assert!(!c.is_instantaneous());
    }

    #[test]
    fn stage_order_and_labels_are_stable() {
        assert_eq!(StageKind::Capture.next(), Some(StageKind::Plan));
        assert_eq!(StageKind::Plan.next(), Some(StageKind::Transmit));
        assert_eq!(StageKind::Transmit.next(), None);
        let all = [StageKind::Capture, StageKind::Plan, StageKind::Transmit];
        let labels: Vec<_> = all.iter().map(|s| s.label()).collect();
        assert_eq!(labels, ["stage_capture", "stage_plan", "stage_transmit"]);
        let metrics: Vec<_> = all.iter().map(|s| s.occupancy_metric()).collect();
        assert_eq!(
            metrics,
            ["ap_queue_capture", "ap_queue_plan", "ap_queue_transmit"]
        );
    }

    #[test]
    fn stats_merge_is_exact_and_order_free() {
        let a = ApServiceStats {
            offered: 10,
            served: 7,
            dropped: 1,
            deferred: 2,
            degraded: 0,
        };
        let b = ApServiceStats {
            offered: 5,
            served: 5,
            dropped: 0,
            deferred: 0,
            degraded: 3,
        };
        let mut ab = a;
        ab.merge_from(&b);
        let mut ba = b;
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.offered, 15);
        assert_eq!(ab.overflowed(), 6);
    }
}

//! Packet-lifecycle flight recorder: deterministic packet identities, an
//! exhaustive drop-reason taxonomy, the conservation audit, and mergeable
//! latency sketches.
//!
//! The MAC stack has five places a packet can die — slot collisions,
//! SDM-inseparable groups, pipeline shedding, routeless gap nodes, and
//! decode failures — but campaign reports only carried aggregate delivery
//! rates. This module gives every offered packet an exhaustive terminal
//! outcome: it is counted **offered** once at its frame boundary and
//! resolves to exactly one of `delivered (direct | relayed)` or a
//! [`DropReason`], so the conservation invariant
//!
//! ```text
//! offered == delivered_direct + delivered_relayed + Σ drops
//! ```
//!
//! holds per run, per shard cell, and per merged campaign by construction.
//! [`LifecycleStats::audit`] turns a violation into a typed error
//! ([`MilbackError::Conservation`]); the sharded runner audits every cell.
//!
//! # Determinism and the non-perturbation contract
//!
//! Everything here obeys the telemetry module's contract: recorders copy
//! integers and already-computed latencies, draw no RNG, and read no
//! clocks. Latency sketches use fixed log-spaced buckets
//! ([`crate::telemetry::LATENCY_BUCKETS_US`]), so sharded campaigns merge
//! them bucket-by-bucket in cell-index order and report `p50/p95/p99`
//! bit-identically at any `MILBACK_THREADS`.

use crate::error::{MilbackError, Result};
use crate::pipeline::{OverflowPolicy, StageKind};
use crate::telemetry::{Histogram, LATENCY_BUCKETS_US};

/// A deterministic packet identity, used as the Perfetto flow id linking
/// one packet's Capture → Plan → Transmit (or relay-hop) spans. Direct
/// grants are keyed by `(frame, slot)` — unique because a frame schedule
/// holds strictly increasing slots — and relay chains by `(frame, origin)`
/// — unique because route selection grants at most one route per origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId(u64);

impl PacketId {
    /// High bit distinguishing relay-chain flows from direct-slot flows.
    const RELAY_BIT: u64 = 1 << 63;

    /// The flow id of a direct slot grant.
    pub fn direct(frame: usize, slot: usize) -> Self {
        Self(((frame as u64) << 20) | (slot as u64 & 0xF_FFFF))
    }

    /// The flow id of a granted relay chain, keyed by its origin node.
    pub fn relayed(frame: usize, origin: usize) -> Self {
        Self(Self::RELAY_BIT | ((frame as u64) << 20) | (origin as u64 & 0xF_FFFF))
    }

    /// The raw 64-bit id carried by trace records.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Why an offered packet failed to deliver. Every loss site in the MAC
/// stack maps to exactly one variant, so the reasons partition the
/// non-delivered packets — no double counting, no leaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// A multi-transmitter slot whose SDM arbitration was skipped (a
    /// pipeline-degraded grant): plain contention, nothing arbitrated.
    ContentionCollision,
    /// A multi-transmitter slot that SDM arbitration could not separate:
    /// some co-slotted pair fell below the separability threshold.
    SdmInseparable,
    /// The AP service pipeline shed the grant at a full stage queue.
    ServiceShed {
        /// The stage whose queue was full.
        stage: StageKind,
        /// The overflow policy that shed it (always
        /// [`OverflowPolicy::Drop`] today — `Defer`/`Degrade` admit).
        policy: OverflowPolicy,
    },
    /// A gap node with no tag-to-tag path to coverage (or a viable path
    /// the campaign's policy never granted): the AP can never hear it.
    NoRelayRoute,
    /// A gap node whose shortest path to coverage exists but exceeds the
    /// campaign's `max_hops` transmission budget.
    HopBudgetExhausted,
    /// The uplink reached a covered receiver but did not decode to the
    /// offered payload.
    DecodeFailure,
    /// The policy never put the node's packet in the frame's schedule
    /// (backoff deferral, polling rotation, waiting SDM group).
    NeverScheduled,
}

impl DropReason {
    /// Number of taxonomy variants (the length of [`Self::LABELS`]).
    pub const COUNT: usize = 7;

    /// Canonical snake_case labels, in [`Self::index`] order — the keys
    /// every serialized drop table carries (present even at zero).
    pub const LABELS: [&'static str; Self::COUNT] = [
        "contention_collision",
        "sdm_inseparable",
        "service_shed",
        "no_relay_route",
        "hop_budget_exhausted",
        "decode_failure",
        "never_scheduled",
    ];

    /// This reason's slot in a drop-count table (payload-independent).
    pub fn index(self) -> usize {
        match self {
            DropReason::ContentionCollision => 0,
            DropReason::SdmInseparable => 1,
            DropReason::ServiceShed { .. } => 2,
            DropReason::NoRelayRoute => 3,
            DropReason::HopBudgetExhausted => 4,
            DropReason::DecodeFailure => 5,
            DropReason::NeverScheduled => 6,
        }
    }

    /// The canonical label of this reason.
    pub fn label(self) -> &'static str {
        Self::LABELS[self.index()]
    }
}

/// One run's packet-lifecycle ledger: offered/delivered totals, drop
/// counts indexed by [`DropReason::index`], the shed-stage breakdown, and
/// three latency sketches. Exact `u64` adds plus fixed-bucket histograms,
/// so merging in cell-index order is bit-reproducible at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleStats {
    /// Packets offered: one per scheduled transmitter appearance, one per
    /// granted relay chain, one per node a frame never scheduled.
    pub offered: u64,
    /// Packets delivered over a direct uplink.
    pub delivered_direct: u64,
    /// Packets delivered over a granted relay chain.
    pub delivered_relayed: u64,
    /// Drop counts by [`DropReason::index`].
    pub drops: [u64; DropReason::COUNT],
    /// `ServiceShed` drops by shedding stage (`StageKind` discriminant).
    pub shed_by_stage: [u64; 3],
    /// Wait from frame start to slot airtime, microseconds, per packet.
    pub slot_wait_us: Histogram,
    /// AP pipeline residence (grant offer to Transmit completion),
    /// microseconds, per packet reaching the channel.
    pub service_residence_us: Histogram,
    /// Extra latency of a relayed delivery over a direct uplink,
    /// microseconds, per relayed delivery.
    pub relay_extra_us: Histogram,
}

impl LifecycleStats {
    /// An empty ledger over the canonical latency buckets.
    pub fn new() -> Self {
        Self {
            offered: 0,
            delivered_direct: 0,
            delivered_relayed: 0,
            drops: [0; DropReason::COUNT],
            shed_by_stage: [0; 3],
            slot_wait_us: Histogram::new(LATENCY_BUCKETS_US),
            service_residence_us: Histogram::new(LATENCY_BUCKETS_US),
            relay_extra_us: Histogram::new(LATENCY_BUCKETS_US),
        }
    }

    /// Counts `n` packets offered.
    #[inline]
    pub fn offer(&mut self, n: u64) {
        self.offered += n;
    }

    /// Counts `n` direct deliveries.
    #[inline]
    pub fn deliver_direct(&mut self, n: u64) {
        self.delivered_direct += n;
    }

    /// Counts `n` relayed deliveries.
    #[inline]
    pub fn deliver_relayed(&mut self, n: u64) {
        self.delivered_relayed += n;
    }

    /// Counts `n` packets dropped for `reason`. `ServiceShed` drops also
    /// land in the per-stage breakdown.
    #[inline]
    pub fn record_drops(&mut self, reason: DropReason, n: u64) {
        self.drops[reason.index()] += n;
        if let DropReason::ServiceShed { stage, .. } = reason {
            self.shed_by_stage[stage as usize] += n;
        }
    }

    /// Observes a slot wait for `packets` co-slotted packets.
    #[inline]
    pub fn observe_slot_wait_us(&mut self, us: f64, packets: usize) {
        for _ in 0..packets {
            self.slot_wait_us.observe(us);
        }
    }

    /// Observes an AP service residence for `packets` co-slotted packets.
    #[inline]
    pub fn observe_service_residence_us(&mut self, us: f64, packets: usize) {
        for _ in 0..packets {
            self.service_residence_us.observe(us);
        }
    }

    /// Observes one relayed delivery's extra latency.
    #[inline]
    pub fn observe_relay_extra_us(&mut self, us: f64) {
        self.relay_extra_us.observe(us);
    }

    /// Total deliveries, both paths.
    pub fn delivered(&self) -> u64 {
        self.delivered_direct + self.delivered_relayed
    }

    /// Total drops across the taxonomy.
    pub fn dropped(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// The conservation audit: every offered packet must have resolved to
    /// exactly one terminal outcome, and the shed-stage breakdown must sum
    /// to the `service_shed` drop count. Returns
    /// [`MilbackError::Conservation`] or [`MilbackError::ShedBreakdown`]
    /// on violation, in every build profile.
    pub fn audit(&self) -> Result<()> {
        let by_stage = self.shed_by_stage.iter().sum::<u64>();
        let service_shed = self.drops[2]; // the `service_shed` slot
        if by_stage != service_shed {
            return Err(MilbackError::ShedBreakdown {
                by_stage,
                service_shed,
            });
        }
        let delivered = self.delivered();
        let dropped = self.dropped();
        if self.offered != delivered + dropped {
            return Err(MilbackError::Conservation {
                offered: self.offered,
                delivered,
                dropped,
            });
        }
        Ok(())
    }

    /// Folds another ledger into this one: exact integer adds plus
    /// bucket-by-bucket histogram merges, so any fixed merge order (the
    /// sharded runner uses cell-index order) reproduces bit-identically.
    pub fn merge_from(&mut self, other: &Self) {
        self.offered += other.offered;
        self.delivered_direct += other.delivered_direct;
        self.delivered_relayed += other.delivered_relayed;
        for (a, b) in self.drops.iter_mut().zip(&other.drops) {
            *a += b;
        }
        for (a, b) in self.shed_by_stage.iter_mut().zip(&other.shed_by_stage) {
            *a += b;
        }
        self.slot_wait_us.merge_from(&other.slot_wait_us);
        self.service_residence_us
            .merge_from(&other.service_residence_us);
        self.relay_extra_us.merge_from(&other.relay_extra_us);
    }

    /// Histogram bucket slots held — the ledger's only heap footprint,
    /// folded into the aggregate's bounded-memory accounting.
    pub fn bucket_footprint(&self) -> usize {
        self.slot_wait_us.counts.len()
            + self.service_residence_us.counts.len()
            + self.relay_extra_us.counts.len()
    }

    /// JSON object for metrics documents: the totals, the drop table keyed
    /// by **every** canonical [`DropReason::LABELS`] entry (present even at
    /// zero, so consumers never probe for missing keys), the shed-stage
    /// breakdown, and the three latency sketches — each a
    /// [`Histogram::to_json`] object whose `p50/p95/p99` keys appear only
    /// when the sketch is non-empty. No `NaN`/`inf` token can appear: every
    /// float comes from the histogram serializer, which filters non-finite
    /// values at observation time.
    pub fn to_json(&self) -> String {
        use core::fmt::Write as _;
        let mut s = format!(
            "{{\"offered\":{},\"delivered_direct\":{},\"delivered_relayed\":{},\"drops\":{{",
            self.offered, self.delivered_direct, self.delivered_relayed
        );
        for (k, label) in DropReason::LABELS.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{label}\":{}", self.drops[k]);
        }
        s.push_str("},\"shed_by_stage\":{");
        for (k, label) in ["capture", "plan", "transmit"].iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{label}\":{}", self.shed_by_stage[k]);
        }
        let _ = write!(
            s,
            "}},\"slot_wait_us\":{},\"service_residence_us\":{},\"relay_extra_us\":{}}}",
            self.slot_wait_us.to_json(),
            self.service_residence_us.to_json(),
            self.relay_extra_us.to_json()
        );
        s
    }
}

impl Default for LifecycleStats {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_ids_are_unique_per_kind() {
        let a = PacketId::direct(3, 7);
        let b = PacketId::direct(3, 8);
        let c = PacketId::relayed(3, 7);
        assert_ne!(a, b);
        assert_ne!(a.raw(), c.raw(), "relay flows live in their own space");
        assert_eq!(a, PacketId::direct(3, 7));
    }

    #[test]
    fn labels_cover_every_variant_in_index_order() {
        let all = [
            DropReason::ContentionCollision,
            DropReason::SdmInseparable,
            DropReason::ServiceShed {
                stage: StageKind::Capture,
                policy: OverflowPolicy::Drop,
            },
            DropReason::NoRelayRoute,
            DropReason::HopBudgetExhausted,
            DropReason::DecodeFailure,
            DropReason::NeverScheduled,
        ];
        assert_eq!(all.len(), DropReason::COUNT);
        for (k, r) in all.iter().enumerate() {
            assert_eq!(r.index(), k);
            assert_eq!(r.label(), DropReason::LABELS[k]);
        }
    }

    #[test]
    fn conservation_audit_catches_leaks() {
        let mut s = LifecycleStats::new();
        s.offer(10);
        s.deliver_direct(4);
        s.deliver_relayed(1);
        s.record_drops(DropReason::SdmInseparable, 3);
        s.record_drops(
            DropReason::ServiceShed {
                stage: StageKind::Plan,
                policy: OverflowPolicy::Drop,
            },
            2,
        );
        assert_eq!(s.shed_by_stage, [0, 2, 0]);
        s.audit().expect("balanced ledger conserves");
        s.offer(1); // one packet offered, never resolved
        let err = s.audit().expect_err("a leak must surface");
        assert!(err.to_string().contains("conservation"), "{err}");
    }

    #[test]
    fn audit_rejects_a_shed_breakdown_that_disagrees() {
        let mut s = LifecycleStats::new();
        s.offer(3);
        s.record_drops(
            DropReason::ServiceShed {
                stage: StageKind::Transmit,
                policy: OverflowPolicy::Drop,
            },
            3,
        );
        s.audit().expect("a consistent breakdown passes");
        // Take one shed out of the per-stage breakdown but not out of the
        // drop table: offered still balances, the breakdown does not.
        s.shed_by_stage[StageKind::Transmit as usize] -= 1;
        assert_eq!(
            s.audit(),
            Err(MilbackError::ShedBreakdown {
                by_stage: 2,
                service_shed: 3,
            })
        );
    }

    #[test]
    fn merge_is_exact_and_order_free_on_counters() {
        let mut a = LifecycleStats::new();
        a.offer(5);
        a.deliver_direct(5);
        a.observe_slot_wait_us(45.0, 5);
        let mut b = LifecycleStats::new();
        b.offer(2);
        b.record_drops(DropReason::NeverScheduled, 2);
        b.observe_slot_wait_us(90.0, 2);
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab.offered, 7);
        assert_eq!(ab.slot_wait_us.count, 7);
        assert_eq!(ab.offered, ba.offered);
        assert_eq!(ab.drops, ba.drops);
        ab.audit().expect("merged ledgers conserve");
    }

    #[test]
    fn json_carries_every_drop_label_even_at_zero() {
        let doc = LifecycleStats::new().to_json();
        for label in DropReason::LABELS {
            assert!(doc.contains(&format!("\"{label}\":0")), "{label} missing");
        }
        for stage in ["capture", "plan", "transmit"] {
            assert!(doc.contains(&format!("\"{stage}\":0")), "{stage} missing");
        }
        // Empty sketches omit their percentile keys entirely.
        assert!(!doc.contains("\"p50\""));
        assert!(!doc.contains("NaN") && !doc.contains("inf"));
    }

    #[test]
    fn json_percentiles_appear_ordered_once_observed() {
        let mut s = LifecycleStats::new();
        s.offer(3);
        s.deliver_direct(3);
        for us in [10.0, 100.0, 5000.0] {
            s.observe_slot_wait_us(us, 1);
        }
        let doc = s.to_json();
        assert!(doc.contains("\"p50\""), "{doc}");
        let (p50, p95, p99) = (
            s.slot_wait_us.quantile(0.50).unwrap(),
            s.slot_wait_us.quantile(0.95).unwrap(),
            s.slot_wait_us.quantile(0.99).unwrap(),
        );
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
    }
}

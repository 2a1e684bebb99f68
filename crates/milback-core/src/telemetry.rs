//! Deterministic instrumentation: trace capture, campaign metrics, and the
//! probe that threads them through the engine, MAC stack, and session
//! pipeline.
//!
//! # Non-perturbation contract
//!
//! Instrumentation must never change what a simulation computes. Every
//! recording surface in this module is designed so that turning it on or
//! off cannot move a single bit of a campaign report:
//!
//! * **No randomness.** Nothing here draws from the trial RNG stream or
//!   owns a generator. Recorders only copy values the simulation already
//!   computed.
//! * **No simulated-time reads.** Timestamps are passed *in* by the code
//!   that already holds `now_ps`; telemetry never queries the clock, so it
//!   cannot reorder reads.
//! * **No wall clock.** Host-side wall-clock timing lives in the bench
//!   crate's span layer, outside the simulation entirely.
//! * **No panics on pressure.** The trace ring buffer drops its oldest
//!   records (and counts the drops) instead of growing or failing, so an
//!   instrumented run cannot abort where an uninstrumented one succeeded.
//!
//! The parity suite (`tests/telemetry_parity.rs`) enforces
//! the contract end-to-end: instrumented and uninstrumented campaigns are
//! bit-identical (`==` and `to_bits`) through the trial-parallel runner at
//! 1/2/4/8 threads for every MAC policy.
//!
//! # Recording is a per-run choice
//!
//! Whether a campaign records is decided per run by the probe it is
//! handed: [`CampaignProbe::disabled`] skips every recording site behind
//! one branch (trace records are not even built), while an enabled probe
//! appends into its sink/registry.
//!
//! # Serialization
//!
//! Trace records, histograms and registries write themselves through the
//! workspace's one JSON writer ([`crate::json`]): [`TraceBuffer::to_jsonl`]
//! renders a trace as JSONL and [`chrome_trace`] as a Chrome
//! `trace_event` document, both under the writer's float, string and
//! ordering rules.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::json::{self, Json};

/// Default trace ring-buffer capacity (records). At ~5 records per
/// occupied slot this holds several 64-node frames comfortably.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Fixed buckets for slot-occupancy histograms (transmitters per slot).
pub const OCCUPANCY_BUCKETS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Fixed buckets for per-attempt / per-packet node energy, joules.
pub const ENERGY_BUCKETS_J: &[f64] = &[1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2];

/// Fixed buckets for backoff contention windows, frames.
pub const BACKOFF_BUCKETS_FRAMES: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// Fixed buckets for delivered-packet SNR, dB.
pub const SNR_BUCKETS_DB: &[f64] = &[-10.0, 0.0, 10.0, 20.0, 30.0, 40.0];

/// Fixed buckets for relay route lengths (transmissions per delivered
/// relayed packet: tag hops + the terminal uplink, so direct == 1).
pub const RELAY_HOP_BUCKETS: &[f64] = &[1.0, 2.0, 3.0, 4.0, 6.0, 8.0];

/// Fixed log-spaced buckets for packet-latency sketches, microseconds:
/// a 1-2-5 decade ladder from one slot width (~tens of µs) out to a full
/// second. Fixed bounds are what make the sketches mergeable — sharded
/// cells fold bucket-by-bucket in cell-index order, so `p50/p95/p99` are
/// bit-identical at any `MILBACK_THREADS`.
pub const LATENCY_BUCKETS_US: &[f64] = &[
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5,
    5e5, 1e6,
];

/// One structured trace record. Timestamps are simulated integer
/// picoseconds, always supplied by the recording site (never read here).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// An engine dispatch: one event popped from the queue.
    Event {
        /// Dispatch time, picoseconds.
        time_ps: u64,
        /// The event's queue sequence number.
        seq: u64,
        /// Always 0: one coordinator handles every event. Kept so the
        /// JSONL `"actor"` field and the Chrome trace `tid` keep their
        /// schema.
        actor: usize,
        /// Event kind label (static, per event type).
        kind: &'static str,
        /// Events still queued after this one was popped.
        queue_depth: usize,
    },
    /// A MAC slot resolved: the group either collided or was served.
    Slot {
        /// Slot airtime start, picoseconds.
        time_ps: u64,
        /// Frame number.
        frame: usize,
        /// Slot within the frame.
        slot: usize,
        /// Transmitting nodes (collision participants when `collided`).
        group: Vec<usize>,
        /// Whether the slot was lost to an unseparable collision.
        collided: bool,
        /// Packet airtime, picoseconds.
        dur_ps: u64,
    },
    /// A node sat out a frame under backoff.
    Backoff {
        /// Frame-start time, picoseconds.
        time_ps: u64,
        /// Deferring node.
        node: usize,
        /// Its current contention window, frames.
        window_frames: u64,
    },
    /// An SDM-aware group grant rotated into a slot.
    SdmRotation {
        /// Frame-start time, picoseconds.
        time_ps: u64,
        /// Frame number.
        frame: usize,
        /// Index of the granted group in the partition.
        group_idx: usize,
        /// Size of the granted group.
        group_size: usize,
    },
    /// A node's cumulative energy ledger after a draw.
    Energy {
        /// Time of the draw, picoseconds.
        time_ps: u64,
        /// The node.
        node: usize,
        /// Cumulative energy spent so far, joules.
        cumulative_j: f64,
    },
    /// An AP pipeline stage began serving one granted slot's job — one
    /// span of the job's packet flow.
    Stage {
        /// Service start, picoseconds.
        time_ps: u64,
        /// Stage label (`stage_capture` / `stage_plan` / `stage_transmit`).
        stage: &'static str,
        /// The packet flow id ([`PacketId`](crate::lifecycle::PacketId)).
        flow: u64,
        /// Planned service time (base latency + jitter), picoseconds.
        dur_ps: u64,
    },
    /// One tag-to-tag hop of a granted relay chain.
    RelayHop {
        /// Chain resolution time, picoseconds.
        time_ps: u64,
        /// The relay packet flow id.
        flow: u64,
        /// Hop index along the route (0 = the origin's handoff).
        hop: usize,
        /// Transmitting node.
        from: usize,
        /// Receiving node.
        to: usize,
        /// Hop airtime, picoseconds.
        dur_ps: u64,
    },
    /// A packet flow reached its terminal outcome.
    FlowEnd {
        /// Resolution time, picoseconds.
        time_ps: u64,
        /// The packet flow id.
        flow: u64,
        /// Terminal outcome label (`served`, `collision`, `shed`,
        /// `relayed`, `relay_failed`).
        outcome: &'static str,
    },
}

impl TraceRecord {
    /// The record's simulated timestamp, picoseconds.
    pub fn time_ps(&self) -> u64 {
        match *self {
            TraceRecord::Event { time_ps, .. }
            | TraceRecord::Slot { time_ps, .. }
            | TraceRecord::Backoff { time_ps, .. }
            | TraceRecord::SdmRotation { time_ps, .. }
            | TraceRecord::Energy { time_ps, .. }
            | TraceRecord::Stage { time_ps, .. }
            | TraceRecord::RelayHop { time_ps, .. }
            | TraceRecord::FlowEnd { time_ps, .. } => time_ps,
        }
    }

    /// The packet flow this record belongs to, when it carries one.
    pub fn flow(&self) -> Option<u64> {
        match *self {
            TraceRecord::Stage { flow, .. }
            | TraceRecord::RelayHop { flow, .. }
            | TraceRecord::FlowEnd { flow, .. } => Some(flow),
            _ => None,
        }
    }
}

impl Json for TraceRecord {
    /// The record's JSONL object: its `type` label, `time_ps`, then its
    /// other fields in declaration order.
    fn write_json(&self, out: &mut String) {
        let label = match self {
            TraceRecord::Event { .. } => "event",
            TraceRecord::Slot { .. } => "slot",
            TraceRecord::Backoff { .. } => "backoff",
            TraceRecord::SdmRotation { .. } => "sdm_rotation",
            TraceRecord::Energy { .. } => "energy",
            TraceRecord::Stage { .. } => "stage",
            TraceRecord::RelayHop { .. } => "relay_hop",
            TraceRecord::FlowEnd { .. } => "flow_end",
        };
        json::object(out, |o| {
            o.field("type", label).field("time_ps", self.time_ps());
            match self {
                TraceRecord::Event {
                    seq,
                    actor,
                    kind,
                    queue_depth,
                    ..
                } => {
                    o.field("seq", seq)
                        .field("actor", actor)
                        .field("kind", kind)
                        .field("queue_depth", queue_depth);
                }
                TraceRecord::Slot {
                    frame,
                    slot,
                    group,
                    collided,
                    dur_ps,
                    ..
                } => {
                    o.field("frame", frame)
                        .field("slot", slot)
                        .field("group", group)
                        .field("collided", collided)
                        .field("dur_ps", dur_ps);
                }
                TraceRecord::Backoff {
                    node,
                    window_frames,
                    ..
                } => {
                    o.field("node", node).field("window_frames", window_frames);
                }
                TraceRecord::SdmRotation {
                    frame,
                    group_idx,
                    group_size,
                    ..
                } => {
                    o.field("frame", frame)
                        .field("group_idx", group_idx)
                        .field("group_size", group_size);
                }
                TraceRecord::Energy {
                    node, cumulative_j, ..
                } => {
                    o.field("node", node).field("cumulative_j", cumulative_j);
                }
                TraceRecord::Stage {
                    stage,
                    flow,
                    dur_ps,
                    ..
                } => {
                    o.field("stage", stage)
                        .field("flow", flow)
                        .field("dur_ps", dur_ps);
                }
                TraceRecord::RelayHop {
                    flow,
                    hop,
                    from,
                    to,
                    dur_ps,
                    ..
                } => {
                    o.field("flow", flow)
                        .field("hop", hop)
                        .field("from", from)
                        .field("to", to)
                        .field("dur_ps", dur_ps);
                }
                TraceRecord::FlowEnd { flow, outcome, .. } => {
                    o.field("flow", flow).field("outcome", outcome);
                }
            }
        });
    }
}

/// A bounded in-memory trace: a ring buffer that drops its **oldest**
/// records under pressure and counts the drops — it never grows without
/// bound and never panics.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBuffer {
    capacity: usize,
    records: VecDeque<TraceRecord>,
    dropped: u64,
}

impl TraceBuffer {
    /// A buffer holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            records: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&mut self, r: TraceRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(r);
    }

    /// The records currently held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the buffer holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// JSONL export: one record per line, oldest first, plus a trailing
    /// `meta` line carrying the drop counter. `time_ps` is monotone
    /// non-decreasing across record lines because records are appended in
    /// dispatch order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            r.write_json(&mut out);
            out.push('\n');
        }
        json::object(&mut out, |o| {
            o.field("type", "meta")
                .field("records", self.records.len())
                .field("dropped", self.dropped);
        });
        out.push('\n');
        out
    }
}

impl Default for TraceBuffer {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAPACITY)
    }
}

/// A shared, clonable handle to a [`TraceBuffer`]. One engine run is
/// single-threaded by construction, so the handle is a plain `Rc<RefCell>`
/// — the engine, medium, and coordinator can all hold one.
#[derive(Debug, Clone, Default)]
pub struct TraceSink(Rc<RefCell<TraceBuffer>>);

impl TraceSink {
    /// A sink over a fresh buffer of `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        Self(Rc::new(RefCell::new(TraceBuffer::new(capacity))))
    }

    /// Appends a record.
    #[inline]
    pub fn record(&self, r: TraceRecord) {
        self.0.borrow_mut().push(r);
    }

    /// Runs `f` over the underlying buffer (read-only snapshot access).
    pub fn with_buffer<T>(&self, f: impl FnOnce(&TraceBuffer) -> T) -> T {
        f(&self.0.borrow())
    }

    /// Consumes this handle, returning the buffer when this was the last
    /// clone (otherwise a deep copy of the current contents).
    pub fn into_buffer(self) -> TraceBuffer {
        match Rc::try_unwrap(self.0) {
            Ok(cell) => cell.into_inner(),
            Err(rc) => rc.borrow().clone(),
        }
    }
}

/// One fixed-bucket histogram: `counts[i]` holds observations in
/// `(bounds[i-1], bounds[i]]`, with one extra overflow bucket past the
/// last bound. Bucket bounds are fixed at creation so histograms merge
/// bucket-by-bucket without rebinning.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bucket bounds, ascending.
    pub bounds: &'static [f64],
    /// Per-bucket counts (`bounds.len() + 1` entries; last = overflow).
    pub counts: Vec<u64>,
    /// Total observations (finite values only).
    pub count: u64,
    /// Sum of observed values (finite values only).
    pub sum: f64,
}

impl Histogram {
    /// An empty histogram over fixed ascending `bounds`.
    pub fn new(bounds: &'static [f64]) -> Self {
        Self {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Counts a finite value into its bucket; non-finite values are
    /// ignored so they can never reach a serialized file.
    pub fn observe(&mut self, value: f64) {
        self.observe_n(value, 1);
    }

    /// Counts a finite value `n` times: one bucket lookup, while `sum`
    /// still adds the value `n` times in turn, so the histogram is
    /// bit-identical to `n` calls of [`observe`](Self::observe).
    pub(crate) fn observe_n(&mut self, value: f64, n: usize) {
        if !value.is_finite() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += n as u64;
        self.count += n as u64;
        for _ in 0..n {
            self.sum += value;
        }
    }

    /// Empties the histogram in place, keeping its bounds and bucket
    /// buffer: equal to `Histogram::new(self.bounds)` afterwards.
    pub(crate) fn reset(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0.0;
    }

    /// Folds another histogram's buckets into this one bucket-by-bucket
    /// (bounds must match).
    pub fn merge_from(&mut self, other: &Histogram) {
        debug_assert_eq!(self.bounds, other.bounds, "histogram buckets must match");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean of the observed values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The `q`-quantile estimate (`0 ≤ q ≤ 1`), by linear interpolation
    /// within the fixed buckets; `None` when empty or `q` is out of range.
    ///
    /// The estimate is a deterministic function of the bucket counts alone
    /// — no stored samples — so two histograms merged in the same order
    /// report bit-identical quantiles. Ranks landing in the first bucket
    /// report its upper bound, and ranks in the overflow bucket report the
    /// last bound, so estimates are clamped to `[bounds[0], bounds.last()]`
    /// and `quantile(a) <= quantile(b)` whenever `a <= b`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || self.bounds.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let target = q * self.count as f64;
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= target {
                if idx == 0 {
                    return Some(self.bounds[0]);
                }
                if idx == self.bounds.len() {
                    return Some(self.bounds[self.bounds.len() - 1]);
                }
                let lo = self.bounds[idx - 1];
                let hi = self.bounds[idx];
                let frac = ((target - below as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * frac);
            }
            below += c;
        }
        Some(self.bounds[self.bounds.len() - 1])
    }
}

impl Json for Histogram {
    /// `{"bounds":[..],"counts":[..],"count":N,"sum":S}`, plus
    /// `"p50"/"p95"/"p99"` quantile estimates when non-empty.
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("bounds", self.bounds)
                .field("counts", &self.counts)
                .field("count", self.count)
                .field("sum", self.sum);
            if let (Some(p50), Some(p95), Some(p99)) = (
                self.quantile(0.50),
                self.quantile(0.95),
                self.quantile(0.99),
            ) {
                o.field("p50", p50).field("p95", p95).field("p99", p99);
            }
        });
    }
}

/// A deterministic metrics registry: named counters and fixed-bucket
/// histograms, held in **first-registration order** so two runs that
/// record the same things serialize identically, and so cross-trial merges
/// (performed by the runner's caller in trial order) are reproducible.
///
/// Lookup is a linear scan — registries hold a handful of names, and a
/// `Vec` keeps ordering deterministic without a hasher.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Metrics {
    counters: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, Histogram)>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to counter `name`.
    #[inline]
    pub fn inc(&mut self, name: &'static str, by: u64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += by,
            None => self.counters.push((name, by)),
        }
    }

    /// Observes `value` into histogram `name` with the given fixed bucket
    /// bounds. Non-finite values are ignored — they can never reach a
    /// serialized file.
    #[inline]
    pub fn observe(&mut self, name: &'static str, bounds: &'static [f64], value: f64) {
        match self.histograms.iter_mut().find(|(n, _)| *n == name) {
            Some((_, h)) => h.observe(value),
            None => {
                let mut h = Histogram::new(bounds);
                h.observe(value);
                self.histograms.push((name, h));
            }
        }
    }

    /// Folds a whole pre-aggregated histogram into histogram `name`. This
    /// is how the engine's lossless per-label queue-depth tallies land in a
    /// campaign registry: the tally is built outside the registry and
    /// merged bucket-by-bucket, so no per-event registry lookup sits on the
    /// dispatch path.
    #[inline]
    pub(crate) fn merge_histogram(&mut self, name: &'static str, other: &Histogram) {
        match self.histograms.iter_mut().find(|(n, _)| *n == name) {
            Some((_, h)) => h.merge_from(other),
            None => self.histograms.push((name, other.clone())),
        }
    }

    /// A counter's current value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }

    /// Counters in first-registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().copied()
    }

    /// Histograms in first-registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(n, h)| (*n, h))
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Folds another registry into this one. Names the other registry
    /// knows and this one does not are appended in the other's order, so
    /// merging a trial sequence in trial order is deterministic.
    pub fn merge_from(&mut self, other: &Metrics) {
        for &(name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name, v)),
            }
        }
        for &(name, ref h) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| *n == name) {
                Some((_, mine)) => mine.merge_from(h),
                None => self.histograms.push((name, h.clone())),
            }
        }
    }
}

impl Json for Metrics {
    /// `{"counters":{..},"histograms":{name:{bounds,counts,count,sum}}}`,
    /// both in first-registration order.
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.object("counters", |c| {
                for (name, v) in &self.counters {
                    c.field(name, v);
                }
            })
            .object("histograms", |h| {
                for (name, hist) in &self.histograms {
                    h.field(name, hist);
                }
            });
        });
    }
}

/// The instrumentation surface a campaign run carries: an optional trace
/// sink and an optional metrics registry. A disabled probe (both `None`,
/// the default) is what every uninstrumented path passes — recording
/// helpers no-op on it, so the instrumented and uninstrumented code paths
/// are literally the same code.
#[derive(Debug, Clone, Default)]
pub struct CampaignProbe {
    /// Structured trace destination, when tracing.
    pub trace: Option<TraceSink>,
    /// Counter/histogram registry, when collecting metrics.
    pub metrics: Option<Metrics>,
}

impl CampaignProbe {
    /// A probe that records nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A probe collecting metrics only.
    pub fn with_metrics() -> Self {
        Self {
            trace: None,
            metrics: Some(Metrics::new()),
        }
    }

    /// A probe collecting metrics and tracing into a ring of `capacity`
    /// records.
    pub fn with_trace(capacity: usize) -> Self {
        Self {
            trace: Some(TraceSink::with_capacity(capacity)),
            metrics: Some(Metrics::new()),
        }
    }

    /// Whether anything is attached.
    pub fn is_enabled(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }

    /// Records a trace record, if tracing.
    #[inline]
    pub fn trace(&mut self, f: impl FnOnce() -> TraceRecord) {
        if let Some(sink) = &self.trace {
            sink.record(f());
        }
    }

    /// Adds to a counter, if collecting metrics.
    #[inline]
    pub fn inc(&mut self, name: &'static str, by: u64) {
        if let Some(m) = &mut self.metrics {
            m.inc(name, by);
        }
    }

    /// Observes into a histogram, if collecting metrics.
    #[inline]
    pub fn observe(&mut self, name: &'static str, bounds: &'static [f64], value: f64) {
        if let Some(m) = &mut self.metrics {
            m.observe(name, bounds, value);
        }
    }

    /// Takes the collected metrics out of the probe (leaves `None`).
    pub fn take_metrics(&mut self) -> Option<Metrics> {
        self.metrics.take()
    }

    /// Folds the engine's lossless per-label queue-depth tallies into the
    /// registry, if collecting metrics: each label lands under its
    /// `queue_depth_metric` name, and every label also merges into the
    /// combined `queue_depth` histogram. Unlike the retired
    /// trace-ring reconstruction, this path loses nothing when the bounded
    /// [`TraceBuffer`] evicts old records — the tallies were counted at
    /// dispatch, not replayed from the ring.
    pub fn merge_queue_depths<'a>(
        &mut self,
        tallies: impl Iterator<Item = (&'static str, &'a Histogram)>,
    ) {
        if self.metrics.is_none() {
            return;
        }
        if let Some(m) = &mut self.metrics {
            for (label, hist) in tallies {
                m.merge_histogram(queue_depth_metric(label), hist);
                m.merge_histogram("queue_depth", hist);
            }
        }
    }
}

/// The metric name of one event label's engine queue-depth histogram.
/// Known labels (the MAC pipeline's event kinds) get stable per-stage
/// names; anything else folds into the shared `queue_depth_other` bucket
/// so an unknown label can never mint an unbounded set of metric names.
pub(crate) fn queue_depth_metric(label: &'static str) -> &'static str {
    match label {
        "frame_start" => "queue_depth_frame_start",
        "slot_fire" => "queue_depth_slot_fire",
        "stage_capture" => "queue_depth_stage_capture",
        "stage_plan" => "queue_depth_stage_plan",
        "stage_transmit" => "queue_depth_stage_transmit",
        _ => "queue_depth_other",
    }
}

/// Renders one or more trace buffers as Chrome `trace_event` JSON (the
/// JSON-object format: `{"traceEvents":[...]}`), loadable in
/// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
///
/// Each `(name, buffer)` pair becomes its own trace "process" (`pid` = its
/// index, labelled by a metadata record), so several campaigns — e.g. the
/// four MAC policies — land side by side in one view. Simulated
/// picoseconds map to trace microseconds (`ts = time_ps / 1e6`), keeping a
/// 45 µs slot legible at Perfetto's default zoom.
///
/// Record mapping: engine events → instant (`"ph":"i"`), slots → complete
/// spans (`"ph":"X"` with `dur`), backoff/rotation → instants with args,
/// energy → counter tracks (`"ph":"C"`), and packet-lifecycle records
/// (stage service, relay hops, terminal outcomes) → spans/instants tied
/// together by Perfetto **flow events** (`"ph":"s"/"t"/"f"`).
///
/// Flow ids are namespaced per section (`"p{pid}.{flow}"`). A flow chain
/// is only rendered when at least two of its records survive in the ring
/// buffer — the first surviving record opens the flow (`s`), the last
/// closes it (`f`), any middle records step it (`t`) — so eviction can
/// never leave a dangling flow id (the tests' trace validator rejects
/// those).
pub fn chrome_trace(sections: &[(&str, &TraceBuffer)]) -> String {
    // The tid lane of a flow-bearing record: stages get one lane each,
    // relay hops stack by hop index, terminals share one lane.
    fn flow_tid(r: &TraceRecord) -> usize {
        match r {
            TraceRecord::Stage { stage, .. } => match *stage {
                "stage_plan" => 301,
                "stage_transmit" => 302,
                _ => 300,
            },
            TraceRecord::RelayHop { hop, .. } => 320 + hop,
            _ => 310,
        }
    }
    // The head every record's event starts with: `name`, `ph`, thread
    // scope for instants, `ts`, `dur` for spans, `pid`, `tid`.
    fn head(
        ev: &mut json::Object<'_>,
        name: &str,
        ph: &str,
        r: &TraceRecord,
        dur_ps: Option<u64>,
        pid: usize,
        tid: usize,
    ) {
        ev.field("name", name).field("ph", ph);
        if ph == "i" {
            ev.field("s", "t");
        }
        ev.field("ts", r.time_ps() as f64 / 1e6);
        if let Some(dur_ps) = dur_ps {
            ev.field("dur", dur_ps as f64 / 1e6);
        }
        ev.field("pid", pid).field("tid", tid);
    }
    let mut s = String::new();
    json::object(&mut s, |doc| {
        doc.array("traceEvents", |events| {
            for (pid, (name, buf)) in sections.iter().enumerate() {
                // Pre-pass: how many records each flow id keeps in the
                // buffer. Linear-scan map (flow counts are small) for
                // deterministic order.
                let mut chains: Vec<(u64, usize)> = Vec::new();
                for r in buf.records() {
                    if let Some(flow) = r.flow() {
                        match chains.iter_mut().find(|(f, _)| *f == flow) {
                            Some((_, n)) => *n += 1,
                            None => chains.push((flow, 1)),
                        }
                    }
                }
                let mut emitted: Vec<(u64, usize)> = Vec::new();
                events.object(|ev| {
                    ev.field("name", "process_name")
                        .field("ph", "M")
                        .field("pid", pid)
                        .field("tid", 0usize)
                        .object("args", |a| {
                            a.field("name", *name);
                        });
                });
                for r in buf.records() {
                    events.object(|ev| match r {
                        TraceRecord::Event {
                            actor,
                            kind,
                            seq,
                            queue_depth,
                            ..
                        } => {
                            head(ev, kind, "i", r, None, pid, *actor);
                            ev.object("args", |a| {
                                a.field("seq", seq).field("queue_depth", queue_depth);
                            });
                        }
                        TraceRecord::Slot {
                            frame,
                            slot,
                            group,
                            collided,
                            dur_ps,
                            ..
                        } => {
                            let name = if *collided { "collision" } else { "slot" };
                            head(ev, name, "X", r, Some(*dur_ps), pid, 100 + slot);
                            ev.object("args", |a| {
                                a.field("frame", frame)
                                    .field("group", group)
                                    .field("collided", collided);
                            });
                        }
                        TraceRecord::Backoff {
                            node,
                            window_frames,
                            ..
                        } => {
                            head(ev, "backoff", "i", r, None, pid, 200 + node);
                            ev.object("args", |a| {
                                a.field("node", node).field("window_frames", window_frames);
                            });
                        }
                        TraceRecord::SdmRotation {
                            frame,
                            group_idx,
                            group_size,
                            ..
                        } => {
                            head(ev, "sdm_rotation", "i", r, None, pid, 0);
                            ev.object("args", |a| {
                                a.field("frame", frame)
                                    .field("group_idx", group_idx)
                                    .field("group_size", group_size);
                            });
                        }
                        TraceRecord::Energy {
                            node, cumulative_j, ..
                        } => {
                            head(ev, &format!("energy_node{node}"), "C", r, None, pid, 0);
                            ev.object("args", |a| {
                                a.field("joules", cumulative_j);
                            });
                        }
                        TraceRecord::Stage {
                            stage,
                            flow,
                            dur_ps,
                            ..
                        } => {
                            head(ev, stage, "X", r, Some(*dur_ps), pid, flow_tid(r));
                            ev.object("args", |a| {
                                a.field("flow", flow);
                            });
                        }
                        TraceRecord::RelayHop {
                            flow,
                            hop,
                            from,
                            to,
                            dur_ps,
                            ..
                        } => {
                            head(ev, "relay_hop", "X", r, Some(*dur_ps), pid, flow_tid(r));
                            ev.object("args", |a| {
                                a.field("flow", flow)
                                    .field("hop", hop)
                                    .field("from", from)
                                    .field("to", to);
                            });
                        }
                        TraceRecord::FlowEnd { flow, outcome, .. } => {
                            head(ev, outcome, "i", r, None, pid, flow_tid(r));
                            ev.object("args", |a| {
                                a.field("flow", flow);
                            });
                        }
                    });
                    // Tie the packet's spans together with a flow event:
                    // only chains with ≥ 2 surviving records render, first
                    // record starts (`s`), last finishes (`f`), middles
                    // step (`t`).
                    if let Some(flow) = r.flow() {
                        let total = chains
                            .iter()
                            .find(|(f, _)| *f == flow)
                            .map(|(_, n)| *n)
                            .unwrap_or(0);
                        let pos = match emitted.iter_mut().find(|(f, _)| *f == flow) {
                            Some((_, p)) => {
                                *p += 1;
                                *p
                            }
                            None => {
                                emitted.push((flow, 0));
                                0
                            }
                        };
                        if total >= 2 {
                            let ph = if pos == 0 {
                                "s"
                            } else if pos + 1 == total {
                                "f"
                            } else {
                                "t"
                            };
                            events.object(|ev| {
                                ev.field("name", "packet")
                                    .field("cat", "flow")
                                    .field("ph", ph)
                                    .field("id", format!("p{pid}.{flow}"))
                                    .field("ts", r.time_ps() as f64 / 1e6)
                                    .field("pid", pid)
                                    .field("tid", flow_tid(r));
                            });
                        }
                    }
                }
            }
        })
        .field("displayTimeUnit", "ns");
    });
    s
}

/// A minimal structural validator for the Chrome traces [`chrome_trace`]
/// emits: checks the envelope, balanced braces/brackets, the absence of
/// `NaN`/`inf` tokens, that every event object carries the required
/// `ph`/`pid`/`ts`-or-metadata fields, and that **flow events pair up** —
/// every flow id appearing in a `"ph":"s"/"t"/"f"` event must both start
/// (`s`) and finish (`f`), so a dangling flow can never ship. Returns the
/// event count.
///
/// This is not a general JSON parser — it validates the subset this module
/// generates, which is exactly what the schema round-trip tests need
/// without a JSON dependency.
#[cfg(test)]
fn validate_chrome_trace(s: &str) -> Result<usize, String> {
    let body = s
        .strip_prefix("{\"traceEvents\":[")
        .ok_or("missing traceEvents envelope")?;
    if !s.ends_with('}') {
        return Err("unterminated trace object".into());
    }
    if s.contains("NaN") || s.contains("inf") {
        return Err("trace carries NaN/inf tokens".into());
    }
    let (mut depth_obj, mut depth_arr) = (1i64, 1i64);
    for c in body.chars() {
        match c {
            '{' => depth_obj += 1,
            '}' => depth_obj -= 1,
            '[' => depth_arr += 1,
            ']' => depth_arr -= 1,
            _ => {}
        }
        if depth_obj < 0 || depth_arr < 0 {
            return Err("unbalanced braces".into());
        }
    }
    if depth_obj != 0 || depth_arr != 0 {
        return Err(format!(
            "unbalanced trace: obj depth {depth_obj}, arr depth {depth_arr}"
        ));
    }
    let mut events = 0usize;
    // Flow-pairing ledger: (id, saw_start, saw_finish), first-seen order.
    let mut flows: Vec<(String, bool, bool)> = Vec::new();
    let marker = "{\"name\":";
    for (pos, _) in body.match_indices(marker) {
        // Skip nested objects (a metadata event's `"args":{"name":..}`).
        if body[..pos].ends_with("\"args\":") {
            continue;
        }
        let chunk = &body[pos + marker.len()..];
        let end = chunk.len().min(200);
        let head = &chunk[..end];
        if !(head.contains("\"ph\":\"M\"") || head.contains("\"ts\":")) {
            return Err(format!("event without ph/ts: {{\"name\":{head:.60}"));
        }
        if !head.contains("\"pid\":") {
            return Err("event without pid".into());
        }
        let phase = if head.starts_with("\"packet\",\"cat\":\"flow\"") {
            ["s", "t", "f"]
                .into_iter()
                .find(|p| head.contains(&format!("\"ph\":\"{p}\"")))
        } else {
            None
        };
        if let Some(phase) = phase {
            let id = head
                .split("\"id\":\"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .ok_or("flow event without an id")?;
            let entry = match flows.iter_mut().find(|(f, _, _)| f == id) {
                Some(e) => e,
                None => {
                    flows.push((id.to_string(), false, false));
                    flows.last_mut().expect("just pushed")
                }
            };
            match phase {
                "s" => entry.1 = true,
                "f" => entry.2 = true,
                _ => {}
            }
        }
        events += 1;
    }
    for &(ref id, started, finished) in &flows {
        if !(started && finished) {
            return Err(format!(
                "dangling flow id {id}: start={started}, finish={finished}"
            ));
        }
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(t: u64, seq: u64) -> TraceRecord {
        TraceRecord::Event {
            time_ps: t,
            seq,
            actor: 0,
            kind: "test",
            queue_depth: 3,
        }
    }

    #[test]
    fn ring_buffer_drops_oldest_and_counts_never_panics() {
        let mut buf = TraceBuffer::new(4);
        for k in 0..10 {
            buf.push(event(k * 100, k));
        }
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.dropped(), 6);
        let first = buf.records().next().unwrap().time_ps();
        assert_eq!(first, 600, "oldest records were evicted first");
        // The JSONL export records the drop count.
        let jsonl = buf.to_jsonl();
        assert!(jsonl.contains("\"dropped\":6"), "{jsonl}");
    }

    #[test]
    fn jsonl_lines_are_monotone_and_clean() {
        let mut buf = TraceBuffer::new(16);
        buf.push(event(100, 0));
        buf.push(TraceRecord::Slot {
            time_ps: 200,
            frame: 0,
            slot: 3,
            group: vec![1, 4],
            collided: true,
            dur_ps: 45_000_000,
        });
        buf.push(TraceRecord::Energy {
            time_ps: 250,
            node: 1,
            cumulative_j: 1.5e-5,
        });
        let jsonl = buf.to_jsonl();
        assert!(!jsonl.contains("NaN") && !jsonl.contains("inf"));
        let mut last = 0u64;
        for line in jsonl.lines().filter(|l| !l.contains("\"meta\"")) {
            let t: u64 = line
                .split("\"time_ps\":")
                .nth(1)
                .and_then(|s| s.split(&[',', '}'][..]).next())
                .and_then(|s| s.parse().ok())
                .expect("every record line carries time_ps");
            assert!(t >= last, "time went backwards in {line}");
            last = t;
        }
        assert!(jsonl.contains("\"group\":[1,4]"));
    }

    #[test]
    fn non_finite_observations_never_reach_json() {
        let mut m = Metrics::new();
        m.observe("e", ENERGY_BUCKETS_J, f64::NAN);
        m.observe("e", ENERGY_BUCKETS_J, f64::INFINITY);
        m.observe("e", ENERGY_BUCKETS_J, 1e-5);
        let h = m.histogram("e").unwrap();
        assert_eq!(h.count, 1, "non-finite values are ignored");
        let json = json::to_string(&m);
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let mut m = Metrics::new();
        for v in [0.5, 1.0, 3.0, 100.0] {
            m.observe("occ", OCCUPANCY_BUCKETS, v);
        }
        let h = m.histogram("occ").unwrap();
        assert_eq!(h.counts[0], 2, "0.5 and 1.0 land in the first bucket");
        assert_eq!(h.counts[2], 1, "3.0 lands in (2, 4]");
        assert_eq!(*h.counts.last().unwrap(), 1, "100.0 overflows");
        assert_eq!(h.count, 4);
        assert!((h.mean().unwrap() - 26.125).abs() < 1e-12);
    }

    #[test]
    fn metrics_merge_is_deterministic_and_ordered() {
        let mut a = Metrics::new();
        a.inc("slots", 3);
        a.observe("occ", OCCUPANCY_BUCKETS, 2.0);
        let mut b = Metrics::new();
        b.inc("collisions", 1);
        b.inc("slots", 2);
        b.observe("occ", OCCUPANCY_BUCKETS, 5.0);
        let merged = |order: &[&Metrics]| {
            let mut m = Metrics::new();
            for x in order {
                m.merge_from(x);
            }
            m
        };
        let ab = merged(&[&a, &b]);
        assert_eq!(ab.counter("slots"), 5);
        assert_eq!(ab.counter("collisions"), 1);
        assert_eq!(ab.histogram("occ").unwrap().count, 2);
        // Merging in a fixed order always serializes identically.
        assert_eq!(json::to_string(&ab), json::to_string(&merged(&[&a, &b])));
        // First-registration order is preserved: "slots" precedes
        // "collisions" when a merges first.
        let json = json::to_string(&ab);
        assert!(json.find("slots").unwrap() < json.find("collisions").unwrap());
    }

    #[test]
    fn chrome_trace_round_trips_through_the_validator() {
        let mut aloha = TraceBuffer::new(64);
        aloha.push(event(0, 0));
        aloha.push(TraceRecord::Slot {
            time_ps: 45_000_000,
            frame: 0,
            slot: 1,
            group: vec![0, 2],
            collided: false,
            dur_ps: 40_000_000,
        });
        let mut backoff = TraceBuffer::new(64);
        backoff.push(TraceRecord::Backoff {
            time_ps: 0,
            node: 2,
            window_frames: 8,
        });
        backoff.push(TraceRecord::SdmRotation {
            time_ps: 10,
            frame: 0,
            group_idx: 1,
            group_size: 3,
        });
        backoff.push(TraceRecord::Energy {
            time_ps: 20,
            node: 2,
            cumulative_j: 2.5e-6,
        });
        let json = chrome_trace(&[("aloha", &aloha), ("backoff", &backoff)]);
        let events = validate_chrome_trace(&json).expect("trace must validate");
        // 5 records + 2 process_name metadata events.
        assert_eq!(events, 7);
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
    }

    #[test]
    fn quantiles_interpolate_and_stay_monotone() {
        let mut h = Histogram::new(OCCUPANCY_BUCKETS);
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        for v in [1.0, 3.0, 3.5, 6.0, 100.0] {
            h.observe(v);
        }
        // Ranks in the first bucket clamp to its upper bound, overflow
        // ranks clamp to the last bound.
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(64.0));
        // p50: target rank 2.5 of 5 lands in the (2, 4] bucket (two
        // observations, one rank already below) → 2 + 2 * (1.5 / 2).
        assert!((h.quantile(0.5).unwrap() - 3.5).abs() < 1e-12);
        assert_eq!(h.quantile(1.5), None, "out-of-range q is rejected");
        let (p50, p95, p99) = (
            h.quantile(0.50).unwrap(),
            h.quantile(0.95).unwrap(),
            h.quantile(0.99).unwrap(),
        );
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        let json = json::to_string(&h);
        assert!(
            json.contains("\"p50\":") && json.contains("\"p99\":"),
            "{json}"
        );
        // Merging two histograms quantiles exactly like observing the
        // union — the sketch is a pure function of the bucket counts.
        let mut a = Histogram::new(OCCUPANCY_BUCKETS);
        let mut b = Histogram::new(OCCUPANCY_BUCKETS);
        for v in [1.0, 3.0, 3.5] {
            a.observe(v);
        }
        for v in [6.0, 100.0] {
            b.observe(v);
        }
        a.merge_from(&b);
        assert_eq!(a.quantile(0.5), h.quantile(0.5));
        assert_eq!(a.quantile(0.99), h.quantile(0.99));
    }

    #[test]
    fn empty_histogram_serializes_without_percentiles() {
        let h = Histogram::new(OCCUPANCY_BUCKETS);
        let json = json::to_string(&h);
        assert!(!json.contains("\"p50\""), "{json}");
        assert!(json.contains("\"count\":0"), "{json}");
    }

    #[test]
    fn flow_events_pair_and_round_trip() {
        let mut buf = TraceBuffer::new(64);
        buf.push(TraceRecord::Stage {
            time_ps: 0,
            stage: "stage_capture",
            flow: 42,
            dur_ps: 1_000,
        });
        buf.push(TraceRecord::Stage {
            time_ps: 1_000,
            stage: "stage_plan",
            flow: 42,
            dur_ps: 2_000,
        });
        buf.push(TraceRecord::RelayHop {
            time_ps: 2_000,
            flow: 42,
            hop: 0,
            from: 3,
            to: 1,
            dur_ps: 500,
        });
        buf.push(TraceRecord::FlowEnd {
            time_ps: 3_000,
            flow: 42,
            outcome: "served",
        });
        let json = chrome_trace(&[("audit", &buf)]);
        // 1 metadata + 4 record events + 4 flow events (s, t, t, f).
        assert_eq!(validate_chrome_trace(&json).unwrap(), 9);
        assert!(json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("\"ph\":\"f\""), "{json}");
        assert!(json.contains("\"id\":\"p0.42\""), "{json}");
        // A mangled finish leaves the flow dangling — the validator must
        // reject it, not just the emitter avoid it.
        let dangling = json.replace("\"ph\":\"f\"", "\"ph\":\"t\"");
        let err = validate_chrome_trace(&dangling).unwrap_err();
        assert!(err.contains("dangling flow"), "{err}");
        // JSONL lines for the new records carry no NaN/inf and parse the
        // flow field back out.
        let jsonl = buf.to_jsonl();
        assert!(jsonl.contains("\"type\":\"stage\""));
        assert!(jsonl.contains("\"type\":\"relay_hop\""));
        assert!(jsonl.contains("\"outcome\":\"served\""));
    }

    #[test]
    fn lone_flow_records_render_no_flow_events() {
        // A ring-evicted chain can leave a single record; the renderer
        // must not open a flow it cannot close.
        let mut buf = TraceBuffer::new(64);
        buf.push(TraceRecord::FlowEnd {
            time_ps: 0,
            flow: 7,
            outcome: "shed",
        });
        let json = chrome_trace(&[("x", &buf)]);
        assert_eq!(validate_chrome_trace(&json).unwrap(), 2);
        assert!(!json.contains("\"cat\":\"flow\""), "{json}");
    }

    #[test]
    fn validator_rejects_mangled_traces() {
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{]}").is_err());
        let mut buf = TraceBuffer::new(4);
        buf.push(event(0, 0));
        let good = chrome_trace(&[("x", &buf)]);
        let bad = good.replace("\"ts\":", "\"xs\":");
        assert!(validate_chrome_trace(&bad).is_err());
    }

    #[test]
    fn probe_helpers_no_op_when_disabled() {
        let mut p = CampaignProbe::disabled();
        assert!(!p.is_enabled());
        p.inc("slots", 1);
        p.observe("occ", OCCUPANCY_BUCKETS, 1.0);
        let mut called = false;
        p.trace(|| {
            called = true;
            TraceRecord::Event {
                time_ps: 0,
                seq: 0,
                actor: 0,
                kind: "x",
                queue_depth: 0,
            }
        });
        assert!(!called, "a disabled probe must not even build records");
        assert!(p.take_metrics().is_none());
    }

    #[test]
    fn probe_with_trace_collects_both() {
        let mut p = CampaignProbe::with_trace(8);
        assert!(p.is_enabled());
        p.inc("slots", 2);
        p.trace(|| event(5, 1));
        let m = p.take_metrics().unwrap();
        assert_eq!(m.counter("slots"), 2);
        let buf = p.trace.take().unwrap().into_buffer();
        assert_eq!(buf.len(), 1);
    }
}

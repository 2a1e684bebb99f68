//! The slotted campaign's event queue: one integer-picosecond clock and one
//! total order over `SlotEvent`s.
//!
//! The paper's §7 protocol is a *timeline*: frames, then slots, then the
//! AP's Capture → Plan → Transmit service per grant. A slotted campaign
//! turns that timeline into data. Its coordinator (`network.rs`) posts
//! timed `SlotEvent`s into one `EventQueue` and drives it in a single
//! `while let Some((now_ps, ev)) = queue.pop()` loop; a handler posts its
//! follow-ups straight back into the queue.
//!
//! # Determinism contract
//!
//! * Events are totally ordered by `(time_ps, seq)`. `seq` is a
//!   monotonically increasing counter assigned when the event is posted,
//!   so same-time events fire in exactly the order they were scheduled —
//!   there is no hash-map, thread, or allocation order anywhere in the
//!   dispatch path. Nothing pops while a handler runs, so a handler's
//!   posts take consecutive `seq`s in posting order.
//! * The queue is two containers with one order. An event posted *at the
//!   current instant* goes to a FIFO lane; every later event goes to a
//!   binary heap. Every lane entry fires at `now`, and the lane holds its
//!   entries in ascending `seq` (they are appended as posted), so the lane
//!   front is the least lane entry. A pop takes whichever of the lane
//!   front and the heap top is smaller by `(time_ps, seq)` — exactly the
//!   event one heap over both would pop. The lane is empty whenever the
//!   clock advances (an event later than `now` never beats a lane entry),
//!   so the invariant holds across instants. Zero-delay follow-ups, such
//!   as a zero-latency stage's hop or a slot-0 grant posted by its
//!   `FrameStart`, skip the heap's `O(log n)` sift. (A relay-free frame
//!   under an instantaneous pipeline posts no grant events at all: its
//!   `FrameStart` serves the frame in one pass.)
//! * Time is held in integer picoseconds ([`TimePs`]). Integer time makes
//!   `t1 == t2` meaningful (no float drift between "the slot boundary"
//!   computed two ways) and spans ~213 days, far beyond any simulated
//!   window.
//! * All randomness lives in the campaign medium (one
//!   [`mmwave_sigproc::random::GaussianSource`] stream per trial, per the
//!   runner's per-trial stream contract). Handlers draw from it only while
//!   handling a popped event, and events pop in a deterministic order, so
//!   a fixed seed reproduces every draw bit-for-bit — at any worker-thread
//!   count, because one campaign's queue is single-threaded by
//!   construction and trial-level parallelism composes around it.

use crate::network::SlotEvent;
use crate::telemetry::{Histogram, TraceRecord, TraceSink, OCCUPANCY_BUCKETS};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Simulation time in integer picoseconds.
pub type TimePs = u64;

/// Picoseconds per second.
pub(crate) const PS_PER_S: f64 = 1e12;

/// Converts seconds to picoseconds (rounded to the nearest tick).
///
/// Negative durations are a caller bug the queue cannot schedule;
/// they saturate to zero rather than wrapping.
pub fn secs_to_ps(s: f64) -> TimePs {
    if s <= 0.0 {
        0
    } else {
        (s * PS_PER_S).round() as TimePs
    }
}

/// Converts picoseconds back to seconds.
pub fn ps_to_secs(ps: TimePs) -> f64 {
    ps as f64 / PS_PER_S
}

/// One queued event, ordered by `(at_ps, seq)`.
#[derive(Debug, Clone)]
struct Scheduled {
    at_ps: TimePs,
    seq: u64,
    event: SlotEvent,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at_ps == other.at_ps && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at_ps, self.seq).cmp(&(other.at_ps, other.seq))
    }
}

/// Lossless per-label queue-depth tallies, counted at pop time. The depth
/// is the whole queue after the pop: heap and same-instant lane together.
///
/// The bounded [`TraceBuffer`](crate::telemetry::TraceBuffer) ring also
/// carries a depth per `Event` record, but a long campaign evicts its
/// oldest records, so any histogram *reconstructed* from the ring is
/// silently truncated. These tallies are aggregated as events pop — one
/// [`Histogram`] over [`OCCUPANCY_BUCKETS`] per event label — so they stay
/// exact for campaigns of any length, and a staged pipeline's per-stage
/// event kinds get per-stage depth distributions for free.
#[derive(Debug, Clone, Default)]
pub(crate) struct DepthStats {
    entries: Vec<(&'static str, Histogram)>,
}

impl DepthStats {
    fn observe(&mut self, label: &'static str, depth: usize) {
        let idx = match self.entries.iter().position(|(n, _)| *n == label) {
            Some(i) => i,
            None => {
                self.entries
                    .push((label, Histogram::new(OCCUPANCY_BUCKETS)));
                self.entries.len() - 1
            }
        };
        self.entries[idx].1.observe(depth as f64);
    }

    /// The tallies, one per label in first-pop order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.entries.iter().map(|(n, h)| (*n, h))
    }
}

/// The campaign's event queue: one clock, one `(time_ps, seq)` order.
#[derive(Default)]
pub(crate) struct EventQueue {
    now_ps: TimePs,
    seq: u64,
    /// Events later than `now_ps`, plus same-instant events posted before
    /// the clock reached their instant.
    heap: BinaryHeap<Reverse<Scheduled>>,
    /// Events posted at `now_ps` while the clock stood there, in `seq`
    /// order (see the module's determinism contract).
    lane: VecDeque<Scheduled>,
    /// Optional pop tracer. Recording happens *after* the pop, from values
    /// already computed for it, so tracing can never reorder or perturb
    /// the run.
    tracer: Option<TraceSink>,
    /// Optional lossless queue-depth tallies (see [`DepthStats`]), counted
    /// from the same values as the tracer, never from the trace ring.
    depth_stats: Option<DepthStats>,
}

impl EventQueue {
    /// Empties the queue for a new campaign, keeping its heap and lane
    /// buffers: equal to `EventQueue::default()` afterwards.
    pub(crate) fn reset(&mut self) {
        let Self {
            now_ps,
            seq,
            heap,
            lane,
            tracer,
            depth_stats,
        } = self;
        (*now_ps, *seq) = (0, 0);
        heap.clear();
        lane.clear();
        (*tracer, *depth_stats) = (None, None);
    }

    /// Records every popped event as a [`TraceRecord::Event`] with
    /// `(time_ps, seq, kind)` plus the queue depth after the pop.
    pub(crate) fn set_tracer(&mut self, sink: TraceSink) {
        self.tracer = Some(sink);
    }

    /// Enables lossless per-label queue-depth tallies: every popped event
    /// counts the post-pop queue depth into its label's [`Histogram`].
    pub(crate) fn enable_depth_stats(&mut self) {
        self.depth_stats = Some(DepthStats::default());
    }

    /// Takes the accumulated depth tallies out of the queue (`None` when
    /// [`enable_depth_stats`](Self::enable_depth_stats) was never called).
    pub(crate) fn take_depth_stats(&mut self) -> Option<DepthStats> {
        self.depth_stats.take()
    }

    /// Queues `event` at `at_ps` under the next `seq`: into the lane when
    /// it fires now, into the heap otherwise.
    ///
    /// Scheduling into the past is a protocol bug; it is clamped to `now`
    /// (the event still fires, after everything already queued for `now`).
    pub(crate) fn post(&mut self, at_ps: TimePs, event: SlotEvent) {
        let entry = Scheduled {
            at_ps: at_ps.max(self.now_ps),
            seq: self.seq,
            event,
        };
        self.seq += 1;
        if entry.at_ps == self.now_ps {
            self.lane.push_back(entry);
        } else {
            self.heap.push(Reverse(entry));
        }
    }

    /// Whether nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }

    /// Pops the least `(at_ps, seq)` event of lane and heap, advances the
    /// clock to it and records it (trace and depth tallies). `None` once
    /// the queue has drained.
    pub(crate) fn pop(&mut self) -> Option<(TimePs, SlotEvent)> {
        let from_lane = match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(Reverse(h))) => l < h,
            (l, _) => l.is_some(),
        };
        let entry = if from_lane {
            self.lane.pop_front()
        } else {
            self.heap.pop().map(|Reverse(e)| e)
        }?;
        debug_assert!(
            entry.at_ps >= self.now_ps,
            "queue delivered an event from the past"
        );
        self.now_ps = entry.at_ps;
        if self.tracer.is_some() || self.depth_stats.is_some() {
            let depth = self.heap.len() + self.lane.len();
            let kind = entry.event.label();
            if let Some(sink) = &self.tracer {
                sink.record(TraceRecord::Event {
                    time_ps: entry.at_ps,
                    seq: entry.seq,
                    actor: 0,
                    kind,
                    queue_depth: depth,
                });
            }
            if let Some(stats) = &mut self.depth_stats {
                stats.observe(kind, depth);
            }
        }
        Some((entry.at_ps, entry.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::StageKind;

    /// An event carrying `n` as its payload.
    fn ev(n: usize) -> SlotEvent {
        SlotEvent::FrameStart { frame: n }
    }

    /// The payload of an [`ev`] event.
    fn payload(e: SlotEvent) -> usize {
        match e {
            SlotEvent::FrameStart { frame } => frame,
            other => panic!("unexpected event {other:?}"),
        }
    }

    /// Drains `q`, posting `follow_ups(now, event)` after each pop as a
    /// handler would, and returns every `(time, event)` popped.
    fn drain(
        q: &mut EventQueue,
        mut follow_ups: impl FnMut(TimePs, SlotEvent) -> Vec<(TimePs, SlotEvent)>,
    ) -> Vec<(TimePs, SlotEvent)> {
        let mut log = Vec::new();
        while let Some((now_ps, e)) = q.pop() {
            log.push((now_ps, e));
            for (at_ps, next) in follow_ups(now_ps, e) {
                q.post(at_ps, next);
            }
        }
        log
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::default();
        q.post(secs_to_ps(3e-6), ev(30));
        q.post(secs_to_ps(1e-6), ev(10));
        q.post(secs_to_ps(2e-6), ev(20));
        let log = drain(&mut q, |_, _| Vec::new());
        let events: Vec<usize> = log.iter().map(|&(_, e)| payload(e)).collect();
        assert_eq!(events, vec![10, 20, 30]);
        assert_eq!(log.last().map(|l| l.0), Some(secs_to_ps(3e-6)));
    }

    #[test]
    fn same_time_events_fire_in_posting_order() {
        let mut q = EventQueue::default();
        for k in 0..8 {
            q.post(1000, ev(k));
        }
        let events: Vec<usize> = drain(&mut q, |_, _| Vec::new())
            .into_iter()
            .map(|(_, e)| payload(e))
            .collect();
        assert_eq!(
            events,
            (0..8).collect::<Vec<_>>(),
            "seq must break time ties"
        );
    }

    #[test]
    fn handler_posted_events_are_dispatched() {
        let mut q = EventQueue::default();
        q.post(0, ev(1));
        let log = drain(&mut q, |now_ps, e| {
            if payload(e) == 1 {
                vec![(now_ps + secs_to_ps(5e-6), ev(99))]
            } else {
                Vec::new()
            }
        });
        assert_eq!(log, vec![(0, ev(1)), (secs_to_ps(5e-6), ev(99))]);
    }

    #[test]
    fn past_posts_are_clamped_to_now() {
        let mut q = EventQueue::default();
        q.post(500, ev(1));
        q.post(500, ev(2));
        let log = drain(&mut q, |_, e| {
            if payload(e) == 1 {
                vec![(0, ev(7))]
            } else {
                Vec::new()
            }
        });
        // The follow-up posted into the past at t=500 fires at 500, after
        // everything already queued for 500.
        assert_eq!(log, vec![(500, ev(1)), (500, ev(2)), (500, ev(7))]);
    }

    #[test]
    fn depth_stats_tally_every_dispatch_per_label() {
        let mut q = EventQueue::default();
        q.enable_depth_stats();
        q.post(100, ev(1));
        q.post(200, ev(2));
        let slot = SlotEvent::SlotFire { frame: 0, slot: 0 };
        let log = drain(&mut q, |now_ps, e| {
            if matches!(e, SlotEvent::FrameStart { .. }) {
                vec![(now_ps + secs_to_ps(2e-6), slot)]
            } else {
                Vec::new()
            }
        });
        let depths = q.take_depth_stats().expect("enabled");
        let total: u64 = depths.entries().map(|(_, h)| h.count).sum();
        assert_eq!(total as usize, log.len());
        let labels: Vec<_> = depths.entries().map(|(n, _)| n).collect();
        assert_eq!(labels, ["frame_start", "slot_fire"]);
        assert!(q.take_depth_stats().is_none(), "take drains the tallies");
    }

    #[test]
    fn replays_are_bit_identical() {
        let run = || {
            let mut q = EventQueue::default();
            q.post(secs_to_ps(1e-6), ev(1));
            q.post(secs_to_ps(1e-6), ev(2));
            drain(&mut q, |now_ps, e| {
                if payload(e) == 1 {
                    vec![(now_ps + secs_to_ps(2e-6), ev(50))]
                } else {
                    Vec::new()
                }
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tracer_records_dispatches_without_changing_the_run() {
        let stage = SlotEvent::StageDone {
            stage: StageKind::Transmit,
        };
        let run = |trace: bool| {
            let mut q = EventQueue::default();
            let sink = TraceSink::with_capacity(16);
            if trace {
                q.set_tracer(sink.clone());
            }
            q.post(secs_to_ps(1e-6), ev(1));
            let log = drain(&mut q, |now_ps, e| {
                if e == ev(1) {
                    vec![(now_ps + secs_to_ps(2e-6), stage)]
                } else {
                    Vec::new()
                }
            });
            (log, sink.into_buffer())
        };
        let (plain, empty) = run(false);
        let (traced, buf) = run(true);
        assert_eq!(plain, traced, "tracing must not perturb the run");
        assert!(empty.is_empty());
        assert_eq!(buf.len(), 2, "one record per popped event");
        let kinds: Vec<_> = buf
            .records()
            .map(|r| match r {
                TraceRecord::Event { kind, .. } => *kind,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(kinds, ["frame_start", StageKind::Transmit.label()]);
    }

    /// One SplitMix64 step, the lane test's schedule generator.
    fn mix(state: &mut u64) -> u64 {
        crate::network::splitmix64(state)
    }

    /// The follow-ups a handler posts on popping payload `n` at `now_ps`:
    /// `(at_ps, payload)` pairs, a pure function of the payload, so the
    /// queue and the reference see the same schedule. Payloads carry a
    /// remaining-generation count in their low byte, so every schedule
    /// drains. Delays mix same-instant posts (0, and a clamped post into
    /// the past) with later ones.
    fn follow_ups(now_ps: TimePs, n: usize) -> Vec<(TimePs, usize)> {
        let generation = n & 0xFF;
        if generation == 0 {
            return Vec::new();
        }
        let mut state = n as u64;
        let posts = mix(&mut state) % 4;
        (0..posts)
            .map(|_| {
                let r = mix(&mut state);
                let at_ps = match r % 6 {
                    0 | 1 => now_ps,
                    2 => now_ps.saturating_sub(3),
                    3 => now_ps + 1,
                    4 => now_ps + 7,
                    _ => now_ps + 40,
                };
                (at_ps, (r as usize & !0xFF) | (generation - 1))
            })
            .collect()
    }

    /// One pop as the trace sees it: `(time, seq, payload, queue depth
    /// after the pop)`.
    type Pop = (TimePs, u64, usize, usize);

    /// The reference queue: a `Vec` kept sorted by `(time, seq)`, popped
    /// from the front.
    #[derive(Default)]
    struct Reference {
        now_ps: TimePs,
        seq: u64,
        queue: Vec<(TimePs, u64, usize)>,
        popped: Vec<Pop>,
    }

    impl Reference {
        fn post(&mut self, at_ps: TimePs, n: usize) {
            let entry = (at_ps.max(self.now_ps), self.seq, n);
            self.seq += 1;
            let at = self
                .queue
                .partition_point(|e| (e.0, e.1) < (entry.0, entry.1));
            self.queue.insert(at, entry);
        }

        /// Pops and handles up to `max` events.
        fn run(&mut self, max: usize) {
            for _ in 0..max {
                if self.queue.is_empty() {
                    return;
                }
                let (at_ps, seq, n) = self.queue.remove(0);
                self.now_ps = at_ps;
                self.popped.push((at_ps, seq, n, self.queue.len()));
                for (at, next) in follow_ups(at_ps, n) {
                    self.post(at, next);
                }
            }
        }
    }

    #[test]
    fn same_instant_lane_matches_a_sorted_reference() {
        for case in 0..64u64 {
            let mut state = 0x1A4E ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut q = EventQueue::default();
            let sink = TraceSink::with_capacity(1 << 16);
            q.set_tracer(sink.clone());
            q.enable_depth_stats();
            let mut reference = Reference::default();
            // A root event from outside: four generations of follow-ups.
            let post = |state: &mut u64, q: &mut EventQueue, r: &mut Reference, at_ps| {
                let n = (mix(state) as usize & !0xFF) | 4;
                q.post(at_ps, ev(n));
                r.post(at_ps, n);
            };
            for _ in 0..3 {
                let at_ps = mix(&mut state) % 50;
                post(&mut state, &mut q, &mut reference, at_ps);
            }
            // Pop part of the schedule, then post from outside at the
            // instant the clock stopped on: those posts take the lane.
            let handle = |q: &mut EventQueue, max: usize| {
                let mut log = Vec::new();
                for _ in 0..max {
                    let Some((now_ps, e)) = q.pop() else { break };
                    log.push(payload(e));
                    for (at_ps, next) in follow_ups(now_ps, payload(e)) {
                        q.post(at_ps, ev(next));
                    }
                }
                log
            };
            let head = (mix(&mut state) % 8) as usize;
            let mut log = handle(&mut q, head);
            reference.run(head);
            let now_ps = reference.now_ps;
            for at_ps in [now_ps, now_ps, now_ps + 2] {
                post(&mut state, &mut q, &mut reference, at_ps);
            }
            log.extend(handle(&mut q, usize::MAX));
            reference.run(usize::MAX);
            let traced: Vec<Pop> = sink
                .into_buffer()
                .records()
                .zip(&log)
                .map(|(r, &n)| match *r {
                    TraceRecord::Event {
                        time_ps,
                        seq,
                        actor,
                        queue_depth,
                        ..
                    } => {
                        assert_eq!(actor, 0, "one coordinator");
                        (time_ps, seq, n, queue_depth)
                    }
                    ref other => panic!("unexpected record {other:?}"),
                })
                .collect();
            assert_eq!(traced.len(), log.len(), "case {case}");
            assert_eq!(traced, reference.popped, "case {case}");
            let depths = q.take_depth_stats().expect("enabled");
            let (_, h) = depths.entries().next().expect("one label");
            let depth_sum: usize = reference.popped.iter().map(|d| d.3).sum();
            assert_eq!(h.count as usize, reference.popped.len(), "case {case}");
            assert_eq!(h.sum, depth_sum as f64, "case {case}");
        }
    }

    #[test]
    fn time_conversions_round_trip() {
        assert_eq!(secs_to_ps(1.0), 1_000_000_000_000);
        assert_eq!(secs_to_ps(45e-6), 45_000_000);
        assert_eq!(secs_to_ps(-1.0), 0, "negative durations saturate");
        let s = 635e-6;
        assert!((ps_to_secs(secs_to_ps(s)) - s).abs() < 1e-12);
    }
}

//! Deterministic discrete-event engine: the shared clock and medium every
//! orchestration layer (session, network rounds, tracking) runs on.
//!
//! The paper's §7 protocol is a *timeline* — Field 1 → Field 2 → payload
//! slots, across one or many nodes — but a synchronous call tree can only
//! express one fixed interleaving of it. This engine turns the timeline
//! into data: actors post timed events into one queue, the engine pops
//! them in a total order, and every layer (AP carrier planning, node
//! firmware, slot scheduling, trackers) reacts to the same clock.
//!
//! # Determinism contract
//!
//! * Events are totally ordered by `(time_ps, seq)`. `seq` is a
//!   monotonically increasing counter assigned when the event is posted,
//!   so same-time events fire in exactly the order they were scheduled —
//!   there is no hash-map, thread, or allocation order anywhere in the
//!   dispatch path.
//! * Time is held in integer picoseconds ([`TimePs`]). Integer time makes
//!   `t1 == t2` meaningful (no float drift between "the slot boundary"
//!   computed two ways) and spans ~213 days, far beyond any simulated
//!   window.
//! * All randomness lives in the medium (one [`mmwave_sigproc::random::GaussianSource`] stream per
//!   trial, per the runner's per-trial stream contract). Handlers draw
//!   from it only inside `on_event`, and events fire in a deterministic
//!   order, so a fixed seed reproduces every draw bit-for-bit — at any
//!   worker-thread count, because one engine run is single-threaded by
//!   construction and trial-level parallelism composes around it.
//!
//! # Actor lifecycle
//!
//! Actors are registered up front with [`Engine::add_actor`] and live for
//! the whole run. A handler receives the current time, the event, mutable
//! access to the shared medium, and an [`Outbox`] for posting follow-up
//! events; it never sees the queue or other actors directly, so all
//! inter-actor communication is timed events through the queue. The run
//! ends when the queue drains ([`Engine::run`]).

use crate::error::{MilbackError, Result};
use crate::telemetry::{Histogram, TraceRecord, TraceSink, OCCUPANCY_BUCKETS};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation time in integer picoseconds.
pub type TimePs = u64;

/// Picoseconds per second.
pub(crate) const PS_PER_S: f64 = 1e12;

/// Converts seconds to picoseconds (rounded to the nearest tick).
///
/// Negative durations are a caller bug the engine cannot schedule;
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

/// Identifies a registered actor within one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ActorId(pub usize);

/// One scheduled event: destination plus payload, ordered by `(at_ps, seq)`.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    at_ps: TimePs,
    seq: u64,
    dst: ActorId,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at_ps == other.at_ps && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at_ps, self.seq).cmp(&(other.at_ps, other.seq))
    }
}

/// The posting surface handed to actors while they handle an event.
///
/// Events posted here are merged into the queue *after* the handler
/// returns, in posting order, each with its own fresh `seq` — so a
/// handler that posts A then B at the same instant always sees A fire
/// first.
#[derive(Debug)]
pub struct Outbox<E> {
    now_ps: TimePs,
    posted: Vec<(TimePs, ActorId, E)>,
}

impl<E> Outbox<E> {
    /// The instant the current event fired.
    pub fn now_ps(&self) -> TimePs {
        self.now_ps
    }

    /// Posts `event` to `dst` at absolute time `at_ps`.
    ///
    /// Scheduling into the past is a protocol bug; it is clamped to `now`
    /// (the event still fires, after everything already queued for `now`).
    pub fn post_at(&mut self, at_ps: TimePs, dst: ActorId, event: E) {
        self.posted.push((at_ps.max(self.now_ps), dst, event));
    }

    /// Posts `event` to `dst` after a delay of `delay_s` seconds.
    pub fn post_after(&mut self, delay_s: f64, dst: ActorId, event: E) {
        self.post_at(self.now_ps + secs_to_ps(delay_s), dst, event);
    }
}

/// A timed actor: anything that consumes events against the shared medium.
///
/// `M` is the medium type (channel, RNG stream, shared state); `E` the
/// event payload the engine routes.
pub trait Actor<M, E> {
    /// Reacts to one event addressed to this actor.
    fn on_event(
        &mut self,
        now_ps: TimePs,
        event: &E,
        medium: &mut M,
        out: &mut Outbox<E>,
    ) -> Result<()>;
}

/// Statistics of one engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Events dispatched.
    pub events_dispatched: usize,
    /// The time of the last dispatched event, picoseconds.
    pub end_time_ps: TimePs,
}

/// Labels an event kind for trace capture; must be a pure function of
/// the event value.
pub(crate) type EventLabeler<E> = fn(&E) -> &'static str;

/// Lossless per-label queue-depth tallies, counted at dispatch.
///
/// The bounded [`TraceBuffer`](crate::telemetry::TraceBuffer) ring also
/// carries a depth per `Event` record, but a long campaign evicts its
/// oldest records, so any histogram *reconstructed* from the ring is
/// silently truncated. These tallies are aggregated as events pop — one
/// [`Histogram`] over [`OCCUPANCY_BUCKETS`] per event label — so they stay
/// exact for campaigns of any length, and a staged pipeline's per-stage
/// event kinds get per-stage depth distributions for free.
#[derive(Debug, Clone, Default)]
pub struct DepthStats {
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

    /// The tallies, one per label in first-dispatch order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.entries.iter().map(|(n, h)| (*n, h))
    }
}

/// The discrete-event engine: one queue, one clock, one shared medium.
pub struct Engine<M, E> {
    now_ps: TimePs,
    seq: u64,
    queue: BinaryHeap<Reverse<Scheduled<E>>>,
    actors: Vec<Box<dyn Actor<M, E>>>,
    /// Optional dispatch tracer: the sink plus a labeler naming each
    /// event kind. Stored as a plain `fn` pointer so `E` needs no trait
    /// bound and an un-traced engine is unchanged. Recording happens
    /// *after* the pop, from values already computed for dispatch, so
    /// tracing can never reorder or perturb the run.
    tracer: Option<(TraceSink, EventLabeler<E>)>,
    /// Optional lossless queue-depth tallies (see [`DepthStats`]): counted
    /// from values already computed for dispatch, never from the trace
    /// ring, so they cannot truncate or perturb the run.
    depth_stats: Option<(DepthStats, EventLabeler<E>)>,
    /// The posting buffer lent to every dispatch's [`Outbox`] and drained
    /// into the queue after the handler returns, so a dispatch that posts
    /// allocates nothing past the buffer's high-water mark.
    posted: Vec<(TimePs, ActorId, E)>,
    /// The shared medium every handler sees (`&mut` during dispatch).
    pub medium: M,
}

impl<M, E> Engine<M, E> {
    /// Creates an engine at `t = 0` over a medium.
    pub fn new(medium: M) -> Self {
        Self {
            now_ps: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            actors: Vec::new(),
            tracer: None,
            depth_stats: None,
            posted: Vec::new(),
            medium,
        }
    }

    /// Attaches a dispatch tracer: every popped event is recorded as a
    /// [`TraceRecord::Event`] with `(time_ps, seq, actor, kind)` plus the
    /// queue depth after the pop. `label` names the event kind and must be
    /// a pure function of the event value.
    pub fn set_tracer(&mut self, sink: TraceSink, label: EventLabeler<E>) {
        self.tracer = Some((sink, label));
    }

    /// Enables lossless per-label queue-depth tallies: every popped event
    /// counts the post-pop queue depth into its label's [`Histogram`].
    /// Unlike the trace ring, nothing is ever evicted — the tallies stay
    /// exact for campaigns of any length.
    pub fn enable_depth_stats(&mut self, label: EventLabeler<E>) {
        self.depth_stats = Some((DepthStats::default(), label));
    }

    /// Takes the accumulated depth tallies out of the engine (`None` when
    /// [`enable_depth_stats`](Self::enable_depth_stats) was never called).
    pub fn take_depth_stats(&mut self) -> Option<DepthStats> {
        self.depth_stats.take().map(|(stats, _)| stats)
    }

    /// Registers an actor and returns its id.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M, E>>) -> ActorId {
        self.actors.push(actor);
        ActorId(self.actors.len() - 1)
    }

    /// The engine clock (time of the most recently dispatched event).
    pub fn now_ps(&self) -> TimePs {
        self.now_ps
    }

    /// Posts an event from outside any handler (the initial script).
    pub fn post(&mut self, at_ps: TimePs, dst: ActorId, event: E) {
        let entry = Scheduled {
            at_ps: at_ps.max(self.now_ps),
            seq: self.seq,
            dst,
            event,
        };
        self.seq += 1;
        self.queue.push(Reverse(entry));
    }

    /// Immutable access to a registered actor (for reading results out
    /// after a run).
    pub fn actor(&self, id: ActorId) -> Option<&dyn Actor<M, E>> {
        self.actors.get(id.0).map(|a| a.as_ref())
    }

    /// Runs until the queue drains. Returns the run statistics.
    ///
    /// A handler error aborts the run immediately with the queue state
    /// preserved (the caller can inspect `now_ps` for the failure time).
    pub fn run(&mut self) -> Result<EngineStats> {
        self.run_until(TimePs::MAX)
    }

    /// Runs until the queue drains or the next event would fire after
    /// `horizon_ps` (that event stays queued).
    pub(crate) fn run_until(&mut self, horizon_ps: TimePs) -> Result<EngineStats> {
        let mut stats = EngineStats {
            events_dispatched: 0,
            end_time_ps: self.now_ps,
        };
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at_ps > horizon_ps {
                break;
            }
            let Some(Reverse(entry)) = self.queue.pop() else {
                break;
            };
            debug_assert!(
                entry.at_ps >= self.now_ps,
                "queue delivered an event from the past"
            );
            self.now_ps = entry.at_ps;
            if let Some((sink, label)) = &self.tracer {
                sink.record(TraceRecord::Event {
                    time_ps: entry.at_ps,
                    seq: entry.seq,
                    actor: entry.dst.0,
                    kind: label(&entry.event),
                    queue_depth: self.queue.len(),
                });
            }
            if let Some((stats, label)) = &mut self.depth_stats {
                stats.observe(label(&entry.event), self.queue.len());
            }
            let actor = self.actors.get_mut(entry.dst.0).ok_or_else(|| {
                MilbackError::Engine(format!(
                    "event addressed to unregistered actor {}",
                    entry.dst.0
                ))
            })?;
            let mut out = Outbox {
                now_ps: entry.at_ps,
                posted: std::mem::take(&mut self.posted),
            };
            let handled = actor.on_event(entry.at_ps, &entry.event, &mut self.medium, &mut out);
            self.posted = out.posted;
            if let Err(e) = handled {
                self.posted.clear();
                return Err(e);
            }
            for (at_ps, dst, event) in self.posted.drain(..) {
                let seq = self.seq;
                self.seq += 1;
                self.queue.push(Reverse(Scheduled {
                    at_ps,
                    seq,
                    dst,
                    event,
                }));
            }
            stats.events_dispatched += 1;
            stats.end_time_ps = self.now_ps;
        }
        Ok(stats)
    }

    /// Consumes the engine, returning the medium (with whatever results
    /// the run deposited in it).
    pub fn into_medium(self) -> M {
        self.medium
    }
}

impl<M: std::fmt::Debug, E: std::fmt::Debug> std::fmt::Debug for Engine<M, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now_ps", &self.now_ps)
            .field("seq", &self.seq)
            .field("queued", &self.queue.len())
            .field("actors", &self.actors.len())
            .field("medium", &self.medium)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test actor: records `(time, tag)` pairs into a shared log and
    /// optionally posts follow-ups.
    struct Recorder {
        tag: u32,
        follow_up: Option<(f64, u32)>,
    }

    type Log = Vec<(TimePs, u32, u32)>;

    impl Actor<Log, u32> for Recorder {
        fn on_event(
            &mut self,
            now_ps: TimePs,
            event: &u32,
            log: &mut Log,
            out: &mut Outbox<u32>,
        ) -> Result<()> {
            log.push((now_ps, self.tag, *event));
            if let Some((delay_s, ev)) = self.follow_up.take() {
                out.post_after(delay_s, ActorId(0), ev);
            }
            Ok(())
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut e: Engine<Log, u32> = Engine::new(Vec::new());
        let a = e.add_actor(Box::new(Recorder {
            tag: 1,
            follow_up: None,
        }));
        e.post(secs_to_ps(3e-6), a, 30);
        e.post(secs_to_ps(1e-6), a, 10);
        e.post(secs_to_ps(2e-6), a, 20);
        let stats = e.run().unwrap();
        assert_eq!(stats.events_dispatched, 3);
        assert_eq!(stats.end_time_ps, secs_to_ps(3e-6));
        let events: Vec<u32> = e.medium.iter().map(|&(_, _, ev)| ev).collect();
        assert_eq!(events, vec![10, 20, 30]);
    }

    #[test]
    fn same_time_events_fire_in_posting_order() {
        let mut e: Engine<Log, u32> = Engine::new(Vec::new());
        let a = e.add_actor(Box::new(Recorder {
            tag: 1,
            follow_up: None,
        }));
        let b = e.add_actor(Box::new(Recorder {
            tag: 2,
            follow_up: None,
        }));
        for k in 0..8 {
            e.post(1000, if k % 2 == 0 { a } else { b }, k);
        }
        e.run().unwrap();
        let events: Vec<u32> = e.medium.iter().map(|&(_, _, ev)| ev).collect();
        assert_eq!(
            events,
            (0..8).collect::<Vec<_>>(),
            "seq must break time ties"
        );
    }

    #[test]
    fn handler_posted_events_are_dispatched() {
        let mut e: Engine<Log, u32> = Engine::new(Vec::new());
        let a = e.add_actor(Box::new(Recorder {
            tag: 1,
            follow_up: Some((5e-6, 99)),
        }));
        e.post(0, a, 1);
        e.run().unwrap();
        assert_eq!(e.medium.len(), 2);
        assert_eq!(e.medium[1], (secs_to_ps(5e-6), 1, 99));
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut e: Engine<Log, u32> = Engine::new(Vec::new());
        let a = e.add_actor(Box::new(Recorder {
            tag: 1,
            follow_up: None,
        }));
        e.post(100, a, 1);
        e.post(200, a, 2);
        e.post(300, a, 3);
        let stats = e.run_until(250).unwrap();
        assert_eq!(stats.events_dispatched, 2);
        // The third event survives and fires on the next run.
        let stats = e.run().unwrap();
        assert_eq!(stats.events_dispatched, 1);
        assert_eq!(e.medium.len(), 3);
    }

    #[test]
    fn run_until_dispatches_events_exactly_at_the_horizon() {
        // The horizon is inclusive: an event at precisely `horizon_ps`
        // fires in this run; only strictly-later events stay queued.
        let mut e: Engine<Log, u32> = Engine::new(Vec::new());
        let a = e.add_actor(Box::new(Recorder {
            tag: 1,
            follow_up: None,
        }));
        e.post(249, a, 1);
        e.post(250, a, 2);
        e.post(251, a, 3);
        let stats = e.run_until(250).unwrap();
        assert_eq!(stats.events_dispatched, 2);
        assert_eq!(stats.end_time_ps, 250, "the horizon event itself fired");
        let events: Vec<u32> = e.medium.iter().map(|&(_, _, ev)| ev).collect();
        assert_eq!(events, vec![1, 2]);
        // A second run at the same horizon is a no-op — nothing at or
        // before 250 remains.
        let stats = e.run_until(250).unwrap();
        assert_eq!(stats.events_dispatched, 0);
        let stats = e.run_until(251).unwrap();
        assert_eq!(stats.events_dispatched, 1);
        assert_eq!(e.medium.len(), 3);
    }

    #[test]
    fn run_until_zero_horizon_fires_only_time_zero_events() {
        let mut e: Engine<Log, u32> = Engine::new(Vec::new());
        let a = e.add_actor(Box::new(Recorder {
            tag: 1,
            follow_up: None,
        }));
        e.post(0, a, 1);
        e.post(1, a, 2);
        let stats = e.run_until(0).unwrap();
        assert_eq!(stats.events_dispatched, 1);
        assert_eq!(e.medium, vec![(0, 1, 1)]);
    }

    /// Test actor posting a burst of same-timestamp events to two targets
    /// from inside a handler — the cross-actor tie-break scenario.
    struct Burster {
        targets: Vec<(ActorId, u32)>,
        at_ps: TimePs,
    }

    impl Actor<Log, u32> for Burster {
        fn on_event(
            &mut self,
            now_ps: TimePs,
            event: &u32,
            log: &mut Log,
            out: &mut Outbox<u32>,
        ) -> Result<()> {
            log.push((now_ps, 0, *event));
            for &(dst, ev) in &self.targets {
                out.post_at(self.at_ps, dst, ev);
            }
            Ok(())
        }
    }

    #[test]
    fn same_timestamp_posts_from_multiple_actors_keep_seq_order() {
        // Two bursters each post interleaved same-timestamp events to two
        // recorders; (time, seq) must serialize them in exact posting
        // order: first burster's posts (in its posting order), then the
        // second's — regardless of destination actor.
        let mut e: Engine<Log, u32> = Engine::new(Vec::new());
        let ra = e.add_actor(Box::new(Recorder {
            tag: 1,
            follow_up: None,
        }));
        let rb = e.add_actor(Box::new(Recorder {
            tag: 2,
            follow_up: None,
        }));
        let b1 = e.add_actor(Box::new(Burster {
            targets: vec![(ra, 10), (rb, 11), (ra, 12)],
            at_ps: 500,
        }));
        let b2 = e.add_actor(Box::new(Burster {
            targets: vec![(rb, 20), (ra, 21), (rb, 22)],
            at_ps: 500,
        }));
        e.post(100, b1, 0);
        e.post(100, b2, 1);
        e.run().unwrap();
        let tagged: Vec<(u32, u32)> = e
            .medium
            .iter()
            .filter(|&&(t, _, _)| t == 500)
            .map(|&(_, tag, ev)| (tag, ev))
            .collect();
        assert_eq!(
            tagged,
            vec![(1, 10), (2, 11), (1, 12), (2, 20), (1, 21), (2, 22)],
            "same-time events must fire in global posting (seq) order"
        );
    }

    #[test]
    fn depth_stats_tally_every_dispatch_per_label() {
        let mut e: Engine<Log, u32> = Engine::new(Vec::new());
        e.enable_depth_stats(|ev| if *ev < 50 { "low" } else { "high" });
        let a = e.add_actor(Box::new(Recorder {
            tag: 1,
            follow_up: Some((2e-6, 99)),
        }));
        e.post(100, a, 1);
        e.post(200, a, 2);
        let stats = e.run().unwrap();
        let depths = e.take_depth_stats().expect("enabled");
        let total: u64 = depths.entries().map(|(_, h)| h.count).sum();
        assert_eq!(total as usize, stats.events_dispatched);
        let labels: Vec<_> = depths.entries().map(|(n, _)| n).collect();
        assert_eq!(labels, ["low", "high"]);
        assert!(e.take_depth_stats().is_none(), "take drains the tallies");
    }

    #[test]
    fn unregistered_actor_is_an_engine_error() {
        let mut e: Engine<Log, u32> = Engine::new(Vec::new());
        e.post(0, ActorId(7), 1);
        let err = e.run().unwrap_err();
        assert!(matches!(err, MilbackError::Engine(_)));
        assert!(err.to_string().contains("unregistered"));
    }

    #[test]
    fn past_posts_are_clamped_to_now() {
        let mut e: Engine<Log, u32> = Engine::new(Vec::new());
        let a = e.add_actor(Box::new(Recorder {
            tag: 1,
            follow_up: Some((0.0, 7)),
        }));
        e.post(500, a, 1);
        e.run().unwrap();
        // The follow-up posted "now" at t=500 fires at 500, not before.
        assert_eq!(e.medium, vec![(500, 1, 1), (500, 1, 7)]);
    }

    #[test]
    fn replays_are_bit_identical() {
        let run = || {
            let mut e: Engine<Log, u32> = Engine::new(Vec::new());
            let a = e.add_actor(Box::new(Recorder {
                tag: 1,
                follow_up: Some((2e-6, 50)),
            }));
            let b = e.add_actor(Box::new(Recorder {
                tag: 2,
                follow_up: None,
            }));
            e.post(secs_to_ps(1e-6), a, 1);
            e.post(secs_to_ps(1e-6), b, 2);
            e.run().unwrap();
            e.into_medium()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tracer_records_dispatches_without_changing_the_run() {
        use crate::telemetry::TraceSink;
        let run = |trace: bool| {
            let mut e: Engine<Log, u32> = Engine::new(Vec::new());
            let sink = TraceSink::with_capacity(16);
            if trace {
                e.set_tracer(sink.clone(), |ev| if *ev < 50 { "low" } else { "high" });
            }
            let a = e.add_actor(Box::new(Recorder {
                tag: 1,
                follow_up: Some((2e-6, 50)),
            }));
            e.post(secs_to_ps(1e-6), a, 1);
            e.run().unwrap();
            (e.into_medium(), sink.into_buffer())
        };
        let (plain, empty) = run(false);
        let (traced, buf) = run(true);
        assert_eq!(plain, traced, "tracing must not perturb the run");
        assert!(empty.is_empty());
        assert_eq!(buf.len(), 2, "one record per dispatched event");
        let kinds: Vec<_> = buf
            .records()
            .map(|r| match r {
                crate::telemetry::TraceRecord::Event { kind, .. } => *kind,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(kinds, ["low", "high"]);
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

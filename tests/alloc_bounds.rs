//! Allocation bounds of the campaign hot paths, counted by a global
//! allocator.
//!
//! The counters are `const`-initialised thread-locals: each test reads
//! only what its own thread allocated and freed, so tests running in
//! parallel cannot perturb one another. Every campaign here runs on the
//! calling thread (`threads = 1`), so all of its heap traffic lands in the
//! counters.
//!
//! - A warm `UplinkBudget::run` touches the heap not at all — no
//!   allocation, reallocation or free — for payloads of any size up to its
//!   buffers' high-water mark, whether it rebuilds its symbol plan
//!   (alternating payloads) or reuses it (a repeated payload).
//! - A frame served in one pass (instantaneous AP, no relay grants)
//!   allocates nothing once the campaign's buffers are warm, under every
//!   MAC policy: the schedule's group buffers are refilled in place and
//!   every budget comes from the row cache or the pose memo.
//! - A steady-state sharded slotted-ALOHA cell allocates at most
//!   [`MAX_ALLOCS_PER_SHARDED_CELL`] times: its policy's box, and nothing
//!   for its network, scratch, ledger or sink.
//! - A sharded campaign's live heap stays under [`MAX_SHARDED_PEAK_BYTES`]
//!   above its entry level, however many cells it folds.

use milback::core::link::UplinkScratch;
use milback::core::protocol::{Packet, SlotPlan};
use milback::core::{
    BackoffAloha, CampaignAggregate, CampaignProbe, CampaignSpec, FrameSchedule, LinkSimulator,
    MacContext, MacPolicy, Network, RelayAwareMac, RelayConfig, RelayGrant, RoundRobinPolling,
    Scene, SdmAwareAssignment, SlottedAloha, SlottedRunReport, SystemConfig, TimePs,
};
use milback::sigproc::random::GaussianSource;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Allocations a steady-state sharded slotted-ALOHA cell may make: the
/// `Box` its policy comes in, with room for the per-worker scratch each
/// block of 256 cells builds.
const MAX_ALLOCS_PER_SHARDED_CELL: f64 = 1.25;

/// Live-heap high-water a 16 384-cell sharded aggregate campaign may reach
/// above its entry level: one block of cell sinks, never one per cell.
const MAX_SHARDED_PEAK_BYTES: i64 = 2 << 20;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations (a
/// reallocation counts as one), frees and live bytes.
struct Counting;

impl Counting {
    fn grow(bytes: i64, allocs: u64, frees: u64) {
        // `try_with`: the slots may already be gone while a thread exits.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + allocs));
        let _ = FREES.try_with(|n| n.set(n.get() + frees));
        let _ = LIVE.try_with(|live| {
            let now = live.get() + bytes;
            live.set(now);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
        });
    }
}

// SAFETY: delegates every operation verbatim to `System`; the counters are
// const-initialised thread-locals that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::grow(layout.size() as i64, 1, 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::grow(layout.size() as i64, 1, 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::grow(-(layout.size() as i64), 0, 1);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::grow(new_size as i64 - layout.size() as i64, 1, 0);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The heap traffic of one call on this thread.
struct Counted<R> {
    out: R,
    /// Allocations, reallocations included.
    allocs: u64,
    frees: u64,
    /// Live-heap high-water above the level at entry, bytes.
    peak: i64,
}

fn counted<R>(f: impl FnOnce() -> R) -> Counted<R> {
    let (allocs, frees) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    let entry = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(entry));
    let out = f();
    Counted {
        out,
        allocs: ALLOCS.with(Cell::get) - allocs,
        frees: FREES.with(Cell::get) - frees,
        peak: PEAK.with(Cell::get) - entry,
    }
}

fn slot_plan(config: &SystemConfig, slots: usize, payload: &[u8]) -> SlotPlan {
    SlotPlan::for_packet(
        slots,
        &Packet::uplink(payload.to_vec()),
        &config.fmcw,
        config.uplink_symbol_rate_hz,
        5e-6,
    )
    .unwrap()
}

fn aloha(_: usize, seed: u64) -> Box<dyn MacPolicy> {
    Box::new(SlottedAloha::new(seed))
}

#[test]
fn uplink_kernel_is_allocation_free_past_warm_up() {
    let sim = LinkSimulator::new(
        SystemConfig::milback_default(),
        Scene::single_node(4.0, 12f64.to_radians()),
    )
    .unwrap();
    let budget = sim.uplink_budget().unwrap();
    let mut rng = GaussianSource::new(5);
    let payloads: Vec<Vec<u8>> = (1..=16).map(|len| rng.bytes(8 * len)).collect();
    let mut scratch = UplinkScratch::default();
    // Warm up on the largest payload so every buffer reaches its
    // high-water mark.
    budget.run(&payloads[15], &mut rng, &mut scratch).unwrap();
    let warm = counted(|| {
        let mut delivered = 0;
        for _ in 0..20 {
            for payload in &payloads {
                let m = budget.run(payload, &mut rng, &mut scratch).unwrap();
                delivered += usize::from(scratch.decoded() == &payload[..] && m.ber == 0.0);
            }
        }
        delivered
    });
    let ops = warm.allocs + warm.frees;
    assert_eq!(ops, 0, "the uplink kernel touched the heap {ops} times");
    // The kernel really ran: 4 m is well inside the link budget.
    assert_eq!(warm.out, 20 * payloads.len());
    // Alternating payloads above rebuild the symbol plan every transfer; a
    // campaign repeats one payload, which reuses it.
    let repeated = counted(|| {
        let mut delivered = 0;
        for payload in &payloads {
            for _ in 0..20 {
                let m = budget.run(payload, &mut rng, &mut scratch).unwrap();
                delivered += usize::from(scratch.decoded() == &payload[..] && m.ber == 0.0);
            }
        }
        delivered
    });
    let ops = repeated.allocs + repeated.frees;
    assert_eq!(
        ops, 0,
        "the cached-plan kernel touched the heap {ops} times"
    );
    assert_eq!(repeated.out, 20 * payloads.len());
    // And the counters see heap traffic: a one-shot transfer returns an
    // owned outcome and drops its simulator-side buffers.
    let cold = counted(|| drop(sim.uplink(&payloads[0], &mut rng).unwrap()));
    assert!(
        cold.allocs > 0 && cold.frees > 0,
        "the counting allocator saw {} allocations and {} frees",
        cold.allocs,
        cold.frees
    );
}

/// One frame as [`FrameMarks`] saw it.
#[derive(Clone, Copy)]
struct FrameMark {
    /// This thread's allocation count as the frame began.
    allocs: u64,
    /// Reallocations that growing the schedule's group buffers can
    /// account for: the doubling steps from each buffer's capacity before
    /// the frame's schedule to its capacity after.
    grown: u64,
}

/// A policy wrapper marking every frame boundary: this thread's
/// allocation count, and the growth of the schedule's group buffers. Its
/// buffers are reserved up front, so marking allocates nothing.
struct FrameMarks {
    inner: Box<dyn MacPolicy>,
    /// The group buffer capacities the frame's schedule arrived with.
    capacities: Vec<usize>,
    marks: Rc<RefCell<Vec<FrameMark>>>,
}

impl MacPolicy for FrameMarks {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn begin(&mut self, ctx: &MacContext<'_>, rng: &mut GaussianSource) {
        self.inner.begin(ctx, rng);
    }

    fn schedule_frame_into(&mut self, frame: usize, ctx: &MacContext<'_>, out: &mut FrameSchedule) {
        let allocs = ALLOCS.with(Cell::get);
        self.capacities.clear();
        self.capacities
            .extend(out.iter().map(|(_, group)| group.capacity()));
        self.inner.schedule_frame_into(frame, ctx, out);
        let before = |k: usize| self.capacities.get(k).copied().unwrap_or(0);
        let grown = out
            .iter()
            .enumerate()
            .map(|(k, (_, group))| doubling_steps(before(k), group.capacity()))
            .sum();
        self.marks.borrow_mut().push(FrameMark { allocs, grown });
    }

    fn on_slot_outcome(&mut self, frame: usize, slot: usize, group: &[usize], collided: bool) {
        self.inner.on_slot_outcome(frame, slot, group, collided);
    }

    fn record_frame(
        &self,
        frame: usize,
        now_ps: TimePs,
        ctx: &MacContext<'_>,
        probe: &mut CampaignProbe,
    ) {
        self.inner.record_frame(frame, now_ps, ctx, probe);
    }

    fn relay_frame(&mut self, frame: usize, ctx: &MacContext<'_>) -> Vec<RelayGrant> {
        self.inner.relay_frame(frame, ctx)
    }
}

/// Doubling steps from a buffer capacity of `from` (0 is none) to `to`,
/// starting at 4: at least as many as the reallocations growing a `Vec`
/// that far takes, since each of those at least doubles.
fn doubling_steps(from: usize, to: usize) -> u64 {
    let (mut cap, mut steps) = (from, 0);
    while cap < to {
        cap = (2 * cap).max(4);
        steps += 1;
    }
    steps
}

/// A warm frame served in one pass allocates only where its schedule
/// puts more transmitters in a slot than that slot's buffer has ever
/// held: each such buffer reallocates, at least doubling, so a slot grows
/// at most log2(nodes) times in a whole campaign. Everything else a
/// frame touches (rows, budgets, flags, the uplink kernel) is recycled,
/// so most warm frames allocate nothing at all.
#[test]
fn one_pass_frames_allocate_nothing_past_warm_up() {
    let config = SystemConfig::milback_default();
    let net = Network::new(
        config.clone(),
        Scene::arc(64, 4.0, 120f64.to_radians(), 12f64.to_radians()),
    )
    .unwrap();
    let payload = [0x42u8; 8];
    let plan = slot_plan(&config, 8, &payload);
    // Warm-up: the frames over which the ledger, the budget memo and the
    // uplink kernel's buffers are first filled.
    let (warm_up, frames) = (8, 160);
    let spec = CampaignSpec::new(frames, &payload, plan);
    type Factory = fn() -> Box<dyn MacPolicy>;
    let policies: [(&str, Factory); 5] = [
        ("aloha", || Box::new(SlottedAloha::new(0xA110C))),
        ("backoff", || {
            Box::new(BackoffAloha::new(0xA110C, 4).unwrap())
        }),
        ("polling", || Box::new(RoundRobinPolling::new())),
        ("sdm", || Box::new(SdmAwareAssignment::new())),
        ("relay", || {
            Box::new(RelayAwareMac::new(0xA110C, RelayConfig::disabled()))
        }),
    ];
    for (name, policy) in policies {
        let marks = Rc::new(RefCell::new(Vec::with_capacity(frames)));
        let policy = Box::new(FrameMarks {
            inner: policy(),
            capacities: Vec::with_capacity(plan.slots_per_frame),
            marks: Rc::clone(&marks),
        });
        let report: SlottedRunReport = net
            .run(
                &spec,
                policy,
                &mut GaussianSource::new(0xA110C),
                &mut CampaignProbe::disabled(),
            )
            .unwrap();
        assert!(report.nodes.iter().any(|r| r.attempts > 0), "{name}");
        let marks = marks.borrow();
        assert_eq!(marks.len(), frames, "{name}");
        // Frame k spans from its mark to the next one.
        let unexplained: Vec<(usize, u64)> = marks
            .windows(2)
            .enumerate()
            .skip(warm_up)
            .map(|(k, w)| (k, w[1].allocs - w[0].allocs))
            .filter(|&(k, n)| n > marks[k].grown)
            .collect();
        assert!(
            unexplained.is_empty(),
            "{name}: (frame, allocations) beyond growing group buffers {unexplained:?}"
        );
        // Recycled buffers only ever grow: from none to 64 nodes is at most
        // log2(64) = 6 doublings per slot over the whole campaign.
        let grown: u64 = marks.iter().map(|m| m.grown).sum();
        let bound = plan.slots_per_frame as u64 * u64::from(net.node_count().ilog2());
        assert!(grown <= bound, "{name}: group buffers grew {grown} times");
    }
}

#[test]
fn sharded_aloha_cells_allocate_only_their_policy() {
    let config = SystemConfig::milback_default();
    let payload = [0x42u8; 8];
    let spec = CampaignSpec::new(4, &payload, slot_plan(&config, 8, &payload));
    // City-shaped cells: 32 nodes each, on a ±60° sector at 6 m.
    let allocs_for = |cells: usize| {
        let net = Network::new(
            config.clone(),
            Scene::arc(32 * cells, 6.0, 120f64.to_radians(), 12f64.to_radians()),
        )
        .unwrap();
        let run = counted(|| {
            net.run_sharded::<CampaignAggregate>(&spec, cells, 1, 0xC17E, aloha)
                .unwrap()
        });
        assert_eq!(run.out.cells, cells as u64);
        assert!(run.out.delivered > 0);
        run.allocs
    };
    // The difference of two campaigns leaves the steady state: what the
    // first block's cells spend building their sinks cancels out.
    let (short, long) = (allocs_for(320), allocs_for(640));
    let per_cell = (long as f64 - short as f64) / 320.0;
    assert!(
        per_cell <= MAX_ALLOCS_PER_SHARDED_CELL,
        "{per_cell:.2} allocations per cell ({short} over 320 cells, {long} over 640)"
    );
}

#[test]
fn sharded_campaign_live_heap_is_bounded_by_a_block() {
    let config = SystemConfig::milback_default();
    let net = Network::new(
        config.clone(),
        Scene::arc(65_536, 6.0, 120f64.to_radians(), 12f64.to_radians()),
    )
    .unwrap();
    let payload = [0x42u8; 8];
    let spec = CampaignSpec::new(2, &payload, slot_plan(&config, 4, &payload));
    let run = counted(|| {
        net.run_sharded::<CampaignAggregate>(&spec, 16_384, 1, 0x5EED, aloha)
            .unwrap()
    });
    assert_eq!((run.out.cells, run.out.nodes), (16_384, 65_536));
    assert!(
        run.peak < MAX_SHARDED_PEAK_BYTES,
        "live heap rose {:.2} MiB above entry",
        run.peak as f64 / (1 << 20) as f64
    );
}

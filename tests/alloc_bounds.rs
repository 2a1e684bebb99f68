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
//!   buffers' high-water mark.
//! - A 64-node slotted-ALOHA campaign allocates at most
//!   [`MAX_ALLOCS_PER_FRAME`] times per frame once its budgets are warm.
//! - A sharded campaign's live heap stays under [`MAX_SHARDED_PEAK_BYTES`]
//!   above its entry level, however many cells it folds.

use milback::core::link::UplinkScratch;
use milback::core::protocol::{Packet, SlotPlan};
use milback::core::{
    CampaignAggregate, CampaignProbe, CampaignSpec, LinkSimulator, MacPolicy, Network, Scene,
    SlottedAloha, SlottedRunReport, SystemConfig,
};
use milback::sigproc::random::GaussianSource;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations per frame a warm 64-node, 8-slot slotted-ALOHA campaign
/// may make: the policy's per-frame schedule (one `Vec` per occupied
/// slot, at most 8) plus 4 for the schedule itself and the slot hash's
/// temporaries.
const MAX_ALLOCS_PER_FRAME: f64 = 12.0;

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

#[test]
fn slotted_campaign_allocations_per_frame_are_bounded() {
    let config = SystemConfig::milback_default();
    let net = Network::new(
        config.clone(),
        Scene::arc(64, 4.0, 120f64.to_radians(), 12f64.to_radians()),
    )
    .unwrap();
    let payload = [0x42u8; 8];
    let plan = slot_plan(&config, 8, &payload);
    let allocs_for = |frames: usize| {
        let spec = CampaignSpec::new(frames, &payload, plan);
        let run = counted(|| {
            net.run::<SlottedRunReport>(
                &spec,
                aloha(0, 0xA110C),
                &mut GaussianSource::new(0xA110C),
                &mut CampaignProbe::disabled(),
            )
            .unwrap()
        });
        assert!(run.out.nodes.iter().any(|r| r.delivered > 0));
        run.allocs
    };
    let (short, long) = (allocs_for(24), allocs_for(48));
    let per_frame = (long as f64 - short as f64) / 24.0;
    assert!(
        per_frame <= MAX_ALLOCS_PER_FRAME,
        "{per_frame:.1} allocations per frame ({short} at 24 frames, {long} at 48)"
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

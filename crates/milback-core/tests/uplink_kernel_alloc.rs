//! Proof that the uplink kernel, `UplinkBudget::run`, performs no heap
//! allocation once its scratch buffers have grown: a counting global
//! allocator counts this thread's heap operations around repeated
//! transfers of campaign-sized payloads.
//!
//! An integration test (its own crate), so the counting allocator — which
//! needs `unsafe impl GlobalAlloc` — stays out of the library crates. The
//! count is per thread, so tests running on other threads cannot move it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use milback_core::link::UplinkScratch;
use milback_core::{LinkSimulator, Scene, SystemConfig};
use mmwave_sigproc::random::GaussianSource;

/// System allocator that counts every allocation, deallocation and
/// reallocation made by the current thread.
struct CountingAlloc;

thread_local! {
    static HEAP_OPS: Cell<u64> = const { Cell::new(0) };
}

fn count_op() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = HEAP_OPS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates every operation verbatim to `System`; the counter is a
// const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_op();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_op();
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_op();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn heap_ops() -> u64 {
    HEAP_OPS.with(Cell::get)
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

    let before = heap_ops();
    let mut delivered = 0;
    for _ in 0..20 {
        for payload in &payloads {
            let m = budget.run(payload, &mut rng, &mut scratch).unwrap();
            delivered += usize::from(scratch.decoded() == &payload[..] && m.ber == 0.0);
        }
    }
    let ops = heap_ops() - before;
    assert_eq!(ops, 0, "the uplink kernel touched the heap {ops} times");
    // The kernel really ran: 4 m is well inside the link budget.
    assert_eq!(delivered, 20 * payloads.len());
    // And the counter sees heap traffic: a one-shot transfer returns an
    // owned outcome.
    let before = heap_ops();
    sim.uplink(&payloads[0], &mut rng).unwrap();
    assert!(heap_ops() > before, "the counting allocator saw nothing");
}

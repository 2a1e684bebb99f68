//! Proof that the node firmware's packet hot path performs **zero heap
//! allocations**: a counting global allocator wraps the system allocator
//! and the test asserts the counter does not move across full firmware
//! packet walks.
//!
//! This is an integration test (its own crate) so the counting allocator
//! — which needs `unsafe impl GlobalAlloc` — stays out of the
//! `#![forbid(unsafe_code)]` library crates. Together with the
//! `--no-default-features` (`no_std`) build of `milback-node` in CI, it
//! pins the "allocation-free node core" property the batching PR
//! established: an MCU port of `firmware`/`mode`/`power` needs no heap at
//! all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use milback_node::firmware::{Direction, Event, Firmware, State};
use milback_node::power::NodePowerModel;

/// System allocator that counts every allocation, deallocation and
/// reallocation made by the current thread — the hot path must not touch
/// the heap in any way. The count is per thread, so tests running in
/// parallel on other threads cannot move it.
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

/// Runs `f` and returns how many heap operations this thread performed
/// meanwhile.
fn alloc_ops_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = HEAP_OPS.with(Cell::get);
    let out = f();
    let after = HEAP_OPS.with(Cell::get);
    (after - before, out)
}

/// Drives one full packet through the firmware state machine with dwell
/// ticks — the MCU main-loop body.
fn walk_packet(fw: &mut Firmware, direction: Direction) {
    let bursts = match direction {
        Direction::Uplink => 3,
        Direction::Downlink => 2,
    };
    for _ in 0..bursts {
        fw.step(Event::BurstStart, 45e-6).unwrap();
    }
    fw.step(Event::Field1GapTimeout, 20e-6).unwrap();
    fw.step(Event::BurstStart, 500e-6).unwrap(); // Field 2 begins
    fw.step(Event::Field2Complete, 2e-3).unwrap();
    fw.step(Event::PayloadComplete, 1e-6).unwrap();
    assert_eq!(fw.state(), State::PacketDone);
    fw.step(Event::Reset, 1e-6).unwrap();
    assert_eq!(fw.state(), State::Idle);
}

#[test]
fn firmware_packet_walk_is_allocation_free() {
    // Construct outside the measured window (construction may allocate;
    // the steady-state loop must not).
    let mut fw = Firmware::new(NodePowerModel::milback_default());
    // Warm up once so any lazy one-time setup is out of the way.
    walk_packet(&mut fw, Direction::Downlink);

    let (ops, ()) = alloc_ops_during(|| {
        for k in 0..100 {
            let dir = if k % 2 == 0 {
                Direction::Downlink
            } else {
                Direction::Uplink
            };
            walk_packet(&mut fw, dir);
        }
    });
    assert_eq!(ops, 0, "firmware step path touched the heap {ops} times");
    // The ledger really ran: energy accumulated across the packets.
    assert!(fw.energy_j() > 0.0);
    assert_eq!(fw.packet_counts().0 + fw.packet_counts().1, 101);
    // And the per-thread counter does see this thread's heap traffic.
    let (ops, v) = alloc_ops_during(|| std::hint::black_box(vec![0u8; 64]));
    assert!(
        ops >= 1 && v.len() == 64,
        "the counting allocator saw nothing"
    );
}

#[test]
fn rejected_transitions_are_allocation_free_too() {
    let mut fw = Firmware::new(NodePowerModel::milback_default());
    let (ops, err) = alloc_ops_during(|| fw.step(Event::PayloadComplete, 1e-6).unwrap_err());
    assert_eq!(ops, 0, "the error path must not allocate (it is `Copy`)");
    assert_eq!(err.event, Event::PayloadComplete);
}

//! The message layer's memory contract, checked with a counting allocator:
//! a reused world runs without touching the heap, and the state a message
//! occupies is bounded by what is in flight, not by what was ever sent.
//!
//! One test function on purpose: the counter is process-wide, and the test
//! harness runs the functions of one file on parallel threads.

use mpisim::workload::{test_world, NeighborExchange};
use mpisim::NoiseConfig;
use netmodel::Platform;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts allocations (and growing reallocations) made while `COUNTING`.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// side effect that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`; the size contract is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations made by `f`.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn a_reset_world_runs_without_allocating_and_arenas_stay_bounded() {
    const RANKS: usize = 16;
    // Eager and rendezvous rounds alternate, so both protocols are covered.
    let exchange = |rounds| NeighborExchange::new(RANKS, rounds, 2048, 1 << 20);

    let mut w = test_world(Platform::whale(), RANKS);
    let mut first = exchange(24);
    let (t1, cold) = allocations_in(|| w.run(&mut first).expect("first run"));
    let (digest, slots) = (w.event_digest(), w.msg_slots_max());
    assert!(cold > 0, "a cold world has to allocate its arenas");

    // `NeighborExchange` pre-sizes its own handle vectors, so whatever a
    // second run allocates inside `World::run` is the message layer's:
    // records, channel windows, match queues, event queue, wire arena.
    w.reset(NoiseConfig::none());
    let mut second = exchange(24);
    let (t2, warm) = allocations_in(|| w.run(&mut second).expect("second run"));
    assert_eq!(
        (t2, w.event_digest()),
        (t1, digest),
        "a reused world replays"
    );
    assert_eq!(warm, 0, "the second run on a reset world allocated");

    // One send, one receive and one receiver-side half per round: a rank
    // needs three records, and a neighbour running a round ahead can park
    // one more message on it. 1 000 rounds must not need more than 24 did.
    w.reset(NoiseConfig::none());
    let mut long = exchange(1000);
    w.run(&mut long).expect("long run");
    assert_eq!(w.msg_slots_max(), slots, "arena size depends on run length");
    assert!(slots <= 6, "{slots} records on one rank for 3 per round");
}

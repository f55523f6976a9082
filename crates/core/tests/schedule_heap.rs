//! A stored schedule's memory contract, checked with a counting allocator:
//! a schedule as a tuned operation stores it — built through a default
//! function-set builder, shrunk once, shared behind an `Arc` — occupies a
//! fixed number of heap blocks, its `Arc` and four flat arrays, however
//! many rounds and sends it has.
//!
//! One test function on purpose: the counter is process-wide, and the test
//! harness runs the functions of one file on parallel threads.

use adcl::function::FunctionSet;
use adcl::runner::TuningSession;
use adcl::tuner::TunerConfig;
use nbc::schedule::CollSpec;
use nbc::AlltoallAlgo;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// Counts live heap blocks: an allocation adds one, a free removes one, a
/// reallocation moves a block and leaves the count alone.
struct Counting;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// side effect that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; the size contract is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn an_interned_schedule_is_five_heap_blocks() {
    const P: usize = 64;
    /// The `Arc` plus the op, round-end, block and block-end arrays.
    const PER_SCHEDULE: i64 = 5;
    let fnset = FunctionSet::ialltoall_default(CollSpec::new(P, 4096));
    let mut session = TuningSession::new(P);
    // The op's table of schedule slots is sized when the op is added.
    let op = session.add_op("ialltoall", fnset, TunerConfig::default());
    let op = &mut session.ops[op];
    for (f, algo) in AlltoallAlgo::all().into_iter().enumerate() {
        assert_eq!(op.fnset.functions[f].name, algo.name());
        let live = LIVE.load(Ordering::Relaxed);
        for rank in 0..P {
            drop(op.schedule(f, rank));
        }
        let blocks = LIVE.load(Ordering::Relaxed) - live;
        assert!(
            blocks <= PER_SCHEDULE * P as i64,
            "{algo:?}: {blocks} live heap blocks for {P} stored schedules"
        );
        // A second start on every rank shares what the first stored.
        for rank in 0..P {
            drop(op.schedule(f, rank));
        }
        assert_eq!(
            LIVE.load(Ordering::Relaxed) - live,
            blocks,
            "{algo:?}: a reuse allocated"
        );
    }
}

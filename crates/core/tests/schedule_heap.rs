//! A stored schedule's memory contract, checked with a counting allocator:
//! a schedule as a tuned operation stores it — built through a default
//! function-set builder, written once into exactly sized arrays, shared
//! behind an `Arc` — occupies a fixed number of heap blocks, its `Arc` and
//! two flat arrays, however many rounds and sends it has. A rank-symmetric
//! function stores one such schedule for all ranks, and building it
//! allocates as often at 32 ranks as at 16.
//!
//! One test function on purpose: the counters are process-wide, and the
//! test harness runs the functions of one file on parallel threads.

use adcl::function::FunctionSet;
use adcl::runner::{TunedOp, TuningSession};
use adcl::tuner::TunerConfig;
use nbc::schedule::CollSpec;
use nbc::AlltoallAlgo;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// Counts live heap blocks: an allocation adds one, a free removes one, a
/// reallocation moves a block and leaves the count alone. Also counts
/// calls: every allocation and every reallocation.
struct Counting;

static LIVE: AtomicI64 = AtomicI64::new(0);
static CALLS: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// side effect that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(1, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; the size contract is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` leaves live on the heap, and how many allocation calls it
/// makes.
fn heap_of(f: impl FnOnce()) -> (i64, i64) {
    let (live, calls) = (LIVE.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed));
    f();
    (
        LIVE.load(Ordering::Relaxed) - live,
        CALLS.load(Ordering::Relaxed) - calls,
    )
}

/// Every schedule of function `f` of `op`: one start per rank, then a
/// second one that must share what the first stored.
fn start_every_rank(op: &mut TunedOp, f: usize, p: usize) -> (i64, i64) {
    let first = heap_of(|| {
        for rank in 0..p {
            drop(op.schedule(f, rank));
        }
    });
    let again = heap_of(|| {
        for rank in 0..p {
            drop(op.schedule(f, rank));
        }
    });
    let name = &op.fnset.functions[f].name;
    assert_eq!(again, (0, 0), "{name}: a reuse allocated");
    first
}

#[test]
fn a_stored_schedule_is_three_heap_blocks() {
    const P: usize = 64;
    /// The `Arc` plus the op and round-end arrays.
    const PER_SCHEDULE: i64 = 3;
    // (a) All-to-all is rank-symmetric: one schedule serves all P ranks.
    // The op's table of schedule slots is sized when the op is added.
    let mut session = TuningSession::new(P);
    let fnset = FunctionSet::ialltoall_default(CollSpec::new(P, 4096));
    let op = session.add_op("ialltoall", fnset, TunerConfig::default());
    let op = &mut session.ops[op];
    for (f, algo) in AlltoallAlgo::all().into_iter().enumerate() {
        assert_eq!(op.fnset.functions[f].name, algo.name());
        let (blocks, _) = start_every_rank(op, f, P);
        assert_eq!(
            blocks, PER_SCHEDULE,
            "{algo:?}: live heap blocks for {P} ranks"
        );
    }

    // (b) A broadcast tree is not: every rank stores its own.
    let fnset = FunctionSet::ibcast_default(CollSpec::new(P, 256 * 1024));
    let op = session.add_op("ibcast", fnset, TunerConfig::default());
    let op = &mut session.ops[op];
    for f in 0..op.fnset.len() {
        let (blocks, _) = start_every_rank(op, f, P);
        let name = &op.fnset.functions[f].name;
        assert_eq!(blocks, PER_SCHEDULE * P as i64, "{name}: live heap blocks");
    }

    // (c) Building a symmetric function's schedule allocates as often at
    // 32 ranks as at 16: its builder writes into arrays sized in advance.
    let builds = |p: usize| {
        let spec = CollSpec::new(p, 4096);
        let sets = [
            FunctionSet::ialltoall_default(spec),
            FunctionSet::iallgather_default(spec),
            FunctionSet::iallreduce_default(spec),
        ];
        let mut session = TuningSession::new(p);
        let mut calls = Vec::new();
        for set in sets {
            let op = session.add_op(&set.name.clone(), set, TunerConfig::default());
            let op = &mut session.ops[op];
            for f in 0..op.fnset.len() {
                if op.fnset.functions[f].symmetric {
                    let name = op.fnset.functions[f].name.clone();
                    calls.push((name, start_every_rank(op, f, p).1));
                }
            }
        }
        calls
    };
    let (p16, p32) = (builds(16), builds(32));
    assert_eq!(p16.len(), 7, "symmetric functions: {p16:?}");
    assert_eq!(p16, p32, "allocation calls at 16 and at 32 ranks");
}

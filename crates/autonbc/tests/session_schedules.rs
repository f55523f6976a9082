//! Schedules belong to the tuning session that runs them, checked with a
//! counting allocator: a brute-force decision builds each schedule once per
//! rank — once for all ranks, for a rank-symmetric function — and reuses it
//! on every later start, and a finished decision keeps none of them — a
//! second decision on another message size leaves the heap where the first
//! one left it.
//!
//! One test function on purpose: the counter is process-wide, and the test
//! harness runs the functions of one file on parallel threads.

use autonbc::driver::{CollectiveOp, MicrobenchSpec};
use autonbc::prelude::*;
use nbc::schedule::CollSpec;
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

fn spec(op: CollectiveOp, msg_bytes: usize) -> MicrobenchSpec {
    let iters = 4 * op.fnset(CollSpec::new(8, msg_bytes)).len() + 20;
    MicrobenchSpec {
        platform: Platform::whale(),
        nprocs: 8,
        op,
        msg_bytes,
        iters,
        compute_total: SimTime::from_millis(iters as u64),
        num_progress: 5,
        noise: NoiseConfig::light(40),
        reps: 3,
        placement: Placement::Block,
        imbalance: Imbalance::None,
    }
}

/// `nbc.cache.{hits, misses}` of one brute-force decision of `s`.
fn cache_counts(s: &MicrobenchSpec) -> (u64, u64) {
    let scope = simcore::metrics::Scope::begin();
    let out = s.run(SelectionLogic::BruteForce);
    assert!(out.winner.is_some(), "{:?} did not converge", s.op);
    drop(out);
    let d = scope.delta();
    let get = |name: &str| d.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v);
    (get("nbc.cache.hits"), get("nbc.cache.misses"))
}

#[test]
fn a_decision_builds_each_schedule_once_and_keeps_none() {
    /// Live blocks a second decision may leave beyond the first: one
    /// decision's schedules are 21 functions × 8 ranks × 3 blocks.
    const SLACK: i64 = 16;
    // (a) Brute force starts every function on every rank at least once:
    // each (function, rank) pair of a broadcast tree is one build, every
    // other start a reuse.
    let a = spec(CollectiveOp::Ibcast, 1024);
    let nfuncs = a.op.fnset(a.coll_spec()).len() as u64;
    let (hits, misses) = cache_counts(&a);
    let starts = (a.nprocs * a.iters) as u64;
    assert_eq!(
        misses,
        nfuncs * a.nprocs as u64,
        "one build per (function, rank)"
    );
    assert_eq!(hits, starts - misses, "every other start reuses");

    // (b) Decision B on the same world shape with another message size:
    // with schedules owned by the session, nothing of B's stays behind.
    let after_a = LIVE.load(Ordering::Relaxed);
    let b = spec(CollectiveOp::Ibcast, 2048);
    let out = b.run(SelectionLogic::BruteForce);
    assert!(out.winner.is_some(), "decision B did not converge");
    drop(out);
    let after_b = LIVE.load(Ordering::Relaxed);
    assert!(
        (after_b - after_a).abs() <= SLACK,
        "live heap blocks {after_a} after decision A, {after_b} after decision B"
    );

    // (c) All-to-all is rank-symmetric: one build per function, not one
    // per (function, rank).
    let c = spec(CollectiveOp::Ialltoall, 1024);
    let nfuncs = c.op.fnset(c.coll_spec()).len() as u64;
    let (hits, misses) = cache_counts(&c);
    let starts = (c.nprocs * c.iters) as u64;
    assert_eq!((nfuncs, misses), (3, 3), "one build per function");
    assert_eq!(hits, starts - misses, "every other start reuses");
}

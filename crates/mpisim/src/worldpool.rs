//! Thread-local reuse of [`World`] allocations across consecutive
//! simulations.
//!
//! A sweep runs thousands of independent microbenchmarks, and each one used
//! to build a `World` from scratch: rank vectors, message-record arenas,
//! channel tables and the event-queue heap, all torn down microseconds
//! later. This module keeps a small per-thread cache of recently used
//! worlds keyed on their immutable shape — `(platform, nranks,
//! placement)` — and hands them back through [`World::reset`], which
//! zeroes all logical state in place: every container keeps its
//! allocation, so a reused world runs without touching the allocator
//! (staged payloads aside, which are off by default). A lease moves the
//! cache entry out and the release puts the same entry back, so a hit
//! copies nothing either — not even the platform description it is keyed
//! on.
//!
//! The cache is strictly thread-local, so it adds no locks to the sweep hot
//! path. A thread keeps its warm worlds for as long as it lives: the
//! calling thread across every sweep it issues, a `simcore::par` helper
//! thread for the one sweep it serves (coarse chunking hands it long runs
//! of one shape, so it still reuses its worlds within that sweep).
//!
//! Determinism: `World::reset` guarantees a reused world is observationally
//! identical to a fresh one (same noise seeds, same fault model from the
//! process-global config, same virtual-time behaviour), so simulation
//! output never depends on which thread ran a point or how many points it
//! ran before — the `jobs`-invariance contract is preserved by
//! construction. The oracle is in `world::tests`:
//! `reset_reproduces_fresh_world_byte_identically` and
//! `reset_reseeds_noise_like_a_fresh_world`.

use crate::types::NoiseConfig;
use crate::world::World;
use netmodel::{Placement, Platform};
use std::cell::RefCell;

/// Worlds cached per thread. Sweeps alternate between a handful of shapes
/// (one per platform × rank-count in the sweep grid); beyond that, the
/// least recently used entry is evicted — a miss only costs what it always
/// cost: `World::new`.
/// Sized for the bench sweep grids (up to 2 platforms × 4 rank counts) so
/// coarse per-worker batches never thrash shapes out mid-sweep.
const MAX_CACHED_PER_THREAD: usize = 8;

struct CachedWorld {
    platform: Platform,
    nranks: usize,
    placement: Placement,
    world: World,
}

thread_local! {
    static CACHE: RefCell<Vec<CachedWorld>> = const { RefCell::new(Vec::new()) };
}

/// Take the calling thread's cached world of this shape out of the cache,
/// reset for a new run, or build a fresh entry.
fn lease(
    platform: &Platform,
    nranks: usize,
    placement: Placement,
    noise: NoiseConfig,
) -> CachedWorld {
    let hit = CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        let i = cache.iter().position(|w| {
            w.nranks == nranks && w.placement == placement && w.platform == *platform
        })?;
        // `remove`, not `swap_remove`: the vector is in least-recently-used
        // order and `release` evicts from the front.
        Some(cache.remove(i))
    });
    match hit {
        Some(mut entry) => {
            entry.world.reset(noise);
            entry
        }
        None => CachedWorld {
            platform: platform.clone(),
            nranks,
            placement,
            world: World::new(platform.clone(), nranks, placement, noise),
        },
    }
}

fn release(mut entry: CachedWorld) {
    // Traces must not wait for the cache entry's destructor: the main
    // thread's thread-local destructors may never run, and a helper's run
    // only when its sweep ends.
    entry.world.publish_trace();
    CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        cache.push(entry);
        if cache.len() > MAX_CACHED_PER_THREAD {
            cache.remove(0); // evict the least recently used
        }
    });
}

/// Run `f` with a world of the given shape, drawn from (and returned to)
/// the calling thread's cache. The world `f` sees is indistinguishable from
/// a freshly built one; see the module docs for the determinism argument.
///
/// If `f` panics the world is dropped, not recycled.
pub fn with_world<R>(
    platform: &Platform,
    nranks: usize,
    placement: Placement,
    noise: NoiseConfig,
    f: impl FnOnce(&mut World) -> R,
) -> R {
    let mut entry = lease(platform, nranks, placement, noise);
    let out = f(&mut entry.world);
    release(entry);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cached_on_this_thread() -> usize {
        CACHE.with(|c| c.borrow().len())
    }

    fn clear_this_thread() {
        CACHE.with(|c| c.borrow_mut().clear());
    }

    fn shape() -> (Platform, usize, Placement, NoiseConfig) {
        (
            Platform::whale(),
            4,
            Placement::RoundRobin,
            NoiseConfig::none(),
        )
    }

    #[test]
    fn with_world_caches_and_reuses() {
        let (p, n, pl, noise) = shape();
        clear_this_thread();
        with_world(&p, n, pl, noise, |w| assert_eq!(w.nranks(), 4));
        assert_eq!(cached_on_this_thread(), 1);
        // Second lease of the same shape must not grow the cache.
        with_world(&p, n, pl, noise, |w| assert_eq!(w.events_processed(), 0));
        assert_eq!(cached_on_this_thread(), 1);
        // A different shape coexists.
        with_world(&p, 8, pl, noise, |w| assert_eq!(w.nranks(), 8));
        assert_eq!(cached_on_this_thread(), 2);
        clear_this_thread();
    }

    #[test]
    fn cache_is_bounded() {
        let (p, _, pl, noise) = shape();
        clear_this_thread();
        for n in 2..2 + MAX_CACHED_PER_THREAD + 3 {
            with_world(&p, n, pl, noise, |_| ());
        }
        assert_eq!(cached_on_this_thread(), MAX_CACHED_PER_THREAD);
        clear_this_thread();
    }

    #[test]
    fn eviction_takes_the_least_recently_used() {
        let (p, _, pl, noise) = shape();
        clear_this_thread();
        // Shapes A..H are 2..=9 ranks, oldest first.
        for n in 2..2 + MAX_CACHED_PER_THREAD {
            with_world(&p, n, pl, noise, |_| ());
        }
        with_world(&p, 2, pl, noise, |_| ()); // touch A, the oldest
        with_world(&p, 10, pl, noise, |_| ()); // a 9th shape
        let now: Vec<usize> = CACHE.with(|c| c.borrow().iter().map(|w| w.nranks).collect());
        assert!(!now.contains(&3), "B was least recently used: {now:?}");
        for kept in [2, 9, 10] {
            assert!(now.contains(&kept), "{kept} ranks evicted: {now:?}");
        }
        clear_this_thread();
    }
}

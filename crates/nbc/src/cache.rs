//! Global schedule cache.
//!
//! Schedules are pure functions of `(collective, algorithm, nranks,
//! msg_bytes, segsize, root, rank)` — yet the tuning runtime used to
//! rebuild them for every rank on every iteration of every simulated run,
//! and a verification sweep repeats the same few hundred shapes thousands
//! of times. This cache interns built schedules as `Arc<Schedule>` so a
//! given shape is constructed once per process and then shared across
//! ranks, iterations, runs and sweep threads.
//!
//! The cache is one `Mutex<HashMap>`: a lookup holds the lock for one
//! hash probe and an `Arc` clone. A miss builds outside the lock, and the
//! first insert wins — a racing builder adopts the winner's `Arc`, so
//! `ptr_eq` holds across racers. Hits and misses bump the
//! `simcore::metrics` counters `nbc.cache.hits` / `nbc.cache.misses` on
//! the spot, so totals are exact whenever they are read.
//!
//! Correctness: entries are immutable once inserted, and the key captures
//! every input of the builders, so a cached schedule is structurally
//! identical to a fresh build (regression-tested in
//! `tests/integration_par.rs`).

use crate::allgather::{build_allgather, AllgatherAlgo};
use crate::allreduce::{build_allreduce, AllreduceAlgo};
use crate::alltoall::{build_alltoall, AlltoallAlgo};
use crate::barrier::build_barrier;
use crate::bcast::{build_bcast, BcastAlgo};
use crate::gather::{build_gather, build_scatter, GatherAlgo};
use crate::neighbor::{build_neighbor, Cart2d, NeighborAlgo};
use crate::reduce::{build_reduce, ReduceAlgo};
use crate::schedule::{CollSpec, Schedule};
use mpisim::RankId;
use simcore::metrics::{self, Counter};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Cache key: every input that influences a builder's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    /// Collective family (one code per `cached_*` entry point).
    coll: u8,
    /// Algorithm code within the family (tree fan-outs are folded in).
    algo: u32,
    /// Segment size in bytes (0 where not applicable).
    seg: u64,
    nprocs: u64,
    msg_bytes: u64,
    root: u64,
    rank: u64,
    /// Extra structure parameter (e.g. the y-extent of a neighbor grid).
    extra: u64,
}

struct ScheduleCache {
    map: Mutex<HashMap<Key, Arc<Schedule>>>,
    hits: &'static Counter,
    misses: &'static Counter,
}

fn cache() -> &'static ScheduleCache {
    static CACHE: OnceLock<ScheduleCache> = OnceLock::new();
    CACHE.get_or_init(|| ScheduleCache {
        map: Mutex::new(HashMap::new()),
        hits: metrics::counter("nbc.cache.hits"),
        misses: metrics::counter("nbc.cache.misses"),
    })
}

impl ScheduleCache {
    /// Lock the map, recovering from poison: cached schedules are immutable
    /// once inserted, so a panic in some unrelated `par_map` participant
    /// that held the lock mid-`get`/`insert` leaves the map usable. Without
    /// this, one panicking test poisons the global cache and cascades
    /// spurious failures through every later in-process cache user.
    fn map(&self) -> MutexGuard<'_, HashMap<Key, Arc<Schedule>>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn get_or_build(key: Key, build: impl FnOnce() -> Schedule) -> Arc<Schedule> {
    let c = cache();
    let hit = c.map().get(&key).cloned();
    if let Some(found) = hit {
        c.hits.inc();
        return found;
    }
    // Build outside the lock: schedule construction can be expensive at
    // large scale, and two threads racing on the same key just means one
    // redundant build whose result loses the insert race below.
    c.misses.inc();
    let mut built = build();
    built.shrink_to_fit();
    let built = Arc::new(built);
    Arc::clone(c.map().entry(key).or_insert(built))
}

/// Number of distinct schedules currently interned.
pub fn len() -> usize {
    cache().map().len()
}

/// Drop every cached schedule (for tests and memory-bounded sweeps).
pub fn clear() {
    cache().map().clear();
}

fn base_key(coll: u8, algo: u32, seg: u64, rank: RankId, spec: &CollSpec) -> Key {
    Key {
        coll,
        algo,
        seg,
        nprocs: spec.nprocs as u64,
        msg_bytes: spec.msg_bytes as u64,
        root: spec.root as u64,
        rank: rank as u64,
        extra: 0,
    }
}

/// Cached [`build_bcast`].
pub fn cached_bcast(algo: BcastAlgo, seg: usize, rank: RankId, spec: &CollSpec) -> Arc<Schedule> {
    let code = match algo {
        BcastAlgo::Linear => 0,
        BcastAlgo::Chain => 1,
        BcastAlgo::Binomial => 2,
        BcastAlgo::Tree(k) => 100 + k as u32,
    };
    get_or_build(base_key(1, code, seg as u64, rank, spec), || {
        build_bcast(algo, seg, rank, spec)
    })
}

/// Cached [`build_alltoall`].
pub fn cached_alltoall(algo: AlltoallAlgo, rank: RankId, spec: &CollSpec) -> Arc<Schedule> {
    let code = match algo {
        AlltoallAlgo::Linear => 0,
        AlltoallAlgo::Pairwise => 1,
        AlltoallAlgo::Dissemination => 2,
    };
    get_or_build(base_key(2, code, 0, rank, spec), || {
        build_alltoall(algo, rank, spec)
    })
}

/// Cached [`build_allgather`].
pub fn cached_allgather(algo: AllgatherAlgo, rank: RankId, spec: &CollSpec) -> Arc<Schedule> {
    let code = match algo {
        AllgatherAlgo::Linear => 0,
        AllgatherAlgo::Ring => 1,
        AllgatherAlgo::Bruck => 2,
    };
    get_or_build(base_key(3, code, 0, rank, spec), || {
        build_allgather(algo, rank, spec)
    })
}

/// Cached [`build_reduce`].
pub fn cached_reduce(algo: ReduceAlgo, rank: RankId, spec: &CollSpec) -> Arc<Schedule> {
    let code = match algo {
        ReduceAlgo::Binomial => 0,
        ReduceAlgo::Chain => 1,
        ReduceAlgo::Linear => 2,
    };
    get_or_build(base_key(4, code, 0, rank, spec), || {
        build_reduce(algo, rank, spec)
    })
}

/// Cached [`build_allreduce`].
pub fn cached_allreduce(algo: AllreduceAlgo, rank: RankId, spec: &CollSpec) -> Arc<Schedule> {
    let code = match algo {
        AllreduceAlgo::RecursiveDoubling => 0,
        AllreduceAlgo::Ring => 1,
        AllreduceAlgo::ReduceBcast => 2,
    };
    get_or_build(base_key(5, code, 0, rank, spec), || {
        build_allreduce(algo, rank, spec)
    })
}

/// Cached [`build_gather`].
pub fn cached_gather(algo: GatherAlgo, rank: RankId, spec: &CollSpec) -> Arc<Schedule> {
    let code = match algo {
        GatherAlgo::Linear => 0,
        GatherAlgo::Binomial => 1,
    };
    get_or_build(base_key(6, code, 0, rank, spec), || {
        build_gather(algo, rank, spec)
    })
}

/// Cached [`build_scatter`].
pub fn cached_scatter(algo: GatherAlgo, rank: RankId, spec: &CollSpec) -> Arc<Schedule> {
    let code = match algo {
        GatherAlgo::Linear => 0,
        GatherAlgo::Binomial => 1,
    };
    get_or_build(base_key(7, code, 0, rank, spec), || {
        build_scatter(algo, rank, spec)
    })
}

/// Cached [`build_barrier`].
pub fn cached_barrier(rank: RankId, spec: &CollSpec) -> Arc<Schedule> {
    get_or_build(base_key(8, 0, 0, rank, spec), || build_barrier(rank, spec))
}

/// Cached [`build_neighbor`].
pub fn cached_neighbor(
    algo: NeighborAlgo,
    grid: Cart2d,
    rank: RankId,
    msg_bytes: usize,
) -> Arc<Schedule> {
    let code = match algo {
        NeighborAlgo::PostAll => 0,
        NeighborAlgo::PairwiseDim => 1,
        NeighborAlgo::Ordered => 2,
    };
    let key = Key {
        coll: 9,
        algo: code,
        seg: 0,
        nprocs: grid.gx as u64,
        msg_bytes: msg_bytes as u64,
        root: 0,
        rank: rank as u64,
        extra: grid.gy as u64,
    };
    get_or_build(key, || build_neighbor(algo, grid, rank, msg_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `clear_drops_entries` wipes the process-global cache;
    /// every test that asserts Arc identity across two lookups (or counts
    /// its own hits) must not interleave with it.
    static CLEAR_LOCK: Mutex<()> = Mutex::new(());

    fn clear_lock() -> MutexGuard<'static, ()> {
        CLEAR_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn hit_returns_same_arc() {
        let _g = clear_lock();
        let spec = CollSpec::new(6, 4096);
        let a = cached_alltoall(AlltoallAlgo::Pairwise, 3, &spec);
        let b = cached_alltoall(AlltoallAlgo::Pairwise, 3, &spec);
        assert!(Arc::ptr_eq(&a, &b));
        // Another thread's lookup converges on the same interned Arc.
        let c = std::thread::spawn(move || cached_alltoall(AlltoallAlgo::Pairwise, 3, &spec))
            .join()
            .unwrap();
        assert!(Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn distinct_keys_distinct_schedules() {
        let spec = CollSpec::new(6, 4096);
        let a = cached_alltoall(AlltoallAlgo::Pairwise, 0, &spec);
        let b = cached_alltoall(AlltoallAlgo::Pairwise, 1, &spec);
        assert!(!Arc::ptr_eq(&a, &b));
        let c = cached_alltoall(AlltoallAlgo::Linear, 0, &spec);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn cached_matches_fresh_build() {
        let spec = CollSpec {
            nprocs: 9,
            msg_bytes: 300_000,
            root: 4,
        };
        for algo in BcastAlgo::all() {
            for rank in 0..spec.nprocs {
                let cached = cached_bcast(algo, 64 * 1024, rank, &spec);
                let fresh = build_bcast(algo, 64 * 1024, rank, &spec);
                assert_eq!(cached.render(), fresh.render(), "{algo:?} rank {rank}");
            }
        }
    }

    #[test]
    fn tree_fanout_distinguished() {
        let spec = CollSpec::new(12, 1 << 20);
        let t2 = cached_bcast(BcastAlgo::Tree(2), 32 * 1024, 0, &spec);
        let t3 = cached_bcast(BcastAlgo::Tree(3), 32 * 1024, 0, &spec);
        assert_ne!(t2.render(), t3.render());
    }

    #[test]
    fn poisoned_map_recovers() {
        let _g = clear_lock();
        // Poison the map by panicking while holding its lock, then verify
        // the cache keeps serving lookups, inserts and len() instead of
        // cascading PoisonError panics.
        let res = std::panic::catch_unwind(|| {
            let _g = cache().map();
            panic!("poison the map");
        });
        assert!(res.is_err());
        let spec = CollSpec::new(23, 555);
        let a = cached_barrier(11, &spec);
        let b = cached_barrier(11, &spec);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(len() >= 1);
    }

    #[test]
    fn clear_drops_entries() {
        let _g = clear_lock();
        let spec = CollSpec::new(17, 9999);
        let a = cached_barrier(3, &spec);
        clear();
        // Nothing resurrects the dropped entry: the next lookup rebuilds
        // and interns a fresh Arc.
        let b = cached_barrier(3, &spec);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn concurrent_stress_no_lost_inserts() {
        let _g = clear_lock();
        // Hammer one shape set from many threads: every thread must end up
        // with the interned schedule for each key (same render), and the
        // map must contain every key exactly once.
        let spec = CollSpec::new(19, 123_456);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    (0..spec.nprocs)
                        .map(|rank| cached_reduce(ReduceAlgo::Binomial, rank, &spec))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let per_thread: Vec<Vec<Arc<Schedule>>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for t in &per_thread[1..] {
            for (a, b) in per_thread[0].iter().zip(t) {
                // Racing builders may briefly hold distinct Arcs, but the
                // content is identical and later lookups converge.
                assert_eq!(a.render(), b.render());
            }
        }
        for rank in 0..spec.nprocs {
            let again = cached_reduce(ReduceAlgo::Binomial, rank, &spec);
            assert!(per_thread
                .iter()
                .any(|t| Arc::ptr_eq(&t[rank], &again) || t[rank].render() == again.render()));
        }
    }

    #[test]
    fn stats_count() {
        let _g = clear_lock();
        // Use a shape no other test uses so counters are attributable.
        let spec = CollSpec::new(31, 777);
        let scope = metrics::Scope::begin();
        let counted = || {
            let d = scope.delta();
            let get = |name| d.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v);
            (get("nbc.cache.hits"), get("nbc.cache.misses"))
        };
        assert_eq!(counted(), (0, 0));
        let _ = cached_barrier(17, &spec);
        let _ = cached_barrier(17, &spec);
        let (h, m) = counted();
        // Other tests may run concurrently; at minimum our miss + hit landed.
        assert!(m >= 1, "misses {m}");
        assert!(h >= 1, "hits {h}");
    }
}

//! Global schedule cache.
//!
//! Schedules are pure functions of `(collective, algorithm, nranks,
//! msg_bytes, segsize, root, rank)` — yet the tuning runtime used to
//! rebuild them for every rank on every iteration of every simulated run,
//! and a verification sweep repeats the same few hundred shapes thousands
//! of times. This cache interns built schedules as `Arc<Schedule>` so a
//! given shape is constructed once per process and then shared across
//! ranks, iterations, runs and sweep worker threads.
//!
//! Steady-state reads are contention-free: every thread keeps a bounded
//! thread-local *front cache* of `Arc<Schedule>` clones, validated against
//! a global epoch ([`clear`] bumps it), so the hot path of a sweep touches
//! no shared memory beyond one relaxed-ordering epoch load. Only front
//! misses fall through to the sharded map (cheap SplitMix64 field mix, one
//! `RwLock` per shard), and only a genuinely new shape takes the write
//! lock (double-checked, so racing builders converge on one entry). The
//! shared map stays the single source of truth — front caches are
//! populated exclusively from it, never the other way around, so no
//! insert can be lost to a thread-local copy.
//!
//! Hit/miss counts live on the `simcore::metrics` registry
//! (`nbc.cache.hits` / `nbc.cache.misses`). Front-cache hits are tallied
//! thread-locally and flushed into the registry at sweep barriers (via
//! `simcore::par::register_sweep_flush`), so totals observed between
//! sweeps are exact for every `jobs` value.
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
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

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

const SHARDS: usize = 64;

/// Shard selector: a SplitMix64-style mix over the key's fields. Much
/// cheaper than hashing the whole struct through SipHash on every lookup,
/// and it decorrelates the low bits so consecutive ranks (the common access
/// pattern: every rank of a world queries the same shape) land on different
/// shards.
fn shard_index(k: &Key) -> usize {
    let mut h = (k.coll as u64) ^ ((k.algo as u64) << 8);
    for v in [k.seg, k.nprocs, k.msg_bytes, k.root, k.rank, k.extra] {
        h = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
    }
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 32;
    (h as usize) % SHARDS
}

struct ScheduleCache {
    shards: Vec<RwLock<HashMap<Key, Arc<Schedule>>>>,
    hits: &'static Counter,
    misses: &'static Counter,
}

fn cache() -> &'static ScheduleCache {
    static CACHE: OnceLock<ScheduleCache> = OnceLock::new();
    CACHE.get_or_init(|| {
        // Front-cache tallies must reach the registry at sweep barriers;
        // registration is idempotent (fn-pointer dedup).
        simcore::par::register_sweep_flush(flush_front_stats);
        ScheduleCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            hits: metrics::counter("nbc.cache.hits"),
            misses: metrics::counter("nbc.cache.misses"),
        }
    })
}

/// Global front-cache epoch: [`clear`] bumps it, invalidating every
/// thread's front cache on its next lookup.
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// Bound on per-thread front-cache entries. A verification sweep touches a
/// few hundred distinct shapes; the cap only matters for degenerate
/// workloads and keeps a long-lived worker from pinning unbounded Arcs.
const FRONT_CAP: usize = 4096;

thread_local! {
    /// Per-thread front cache: key → Arc clone, valid while `epoch`
    /// matches the global epoch. Reads here are the contention-free hot
    /// path — no lock, no shared cache line.
    static FRONT: RefCell<(u64, HashMap<Key, Arc<Schedule>>)> =
        RefCell::new((0, HashMap::new()));
    /// Front-cache hits not yet flushed to the registry counter.
    static FRONT_HITS: Cell<u64> = const { Cell::new(0) };
}

/// Flush this thread's front-cache hit tally into the registry counter.
/// Runs on every sweep participant at sweep barriers, so cross-thread
/// totals are exact at observation points.
fn flush_front_stats() {
    let pending = FRONT_HITS.with(|h| h.replace(0));
    if pending > 0 {
        cache().hits.add(pending);
    }
}

/// Front-cache lookup. `epoch` is the global epoch observed by the caller;
/// a stale front cache is dropped wholesale before the lookup.
fn front_get(key: &Key, epoch: u64) -> Option<Arc<Schedule>> {
    FRONT.with(|f| {
        let mut f = f.borrow_mut();
        if f.0 != epoch {
            f.0 = epoch;
            f.1.clear();
        }
        f.1.get(key).cloned()
    })
}

/// Populate the front cache from a shared-map result (never from a build
/// directly — the shared map is the source of truth).
fn front_put(key: Key, val: Arc<Schedule>, epoch: u64) {
    FRONT.with(|f| {
        let mut f = f.borrow_mut();
        if f.0 != epoch {
            f.0 = epoch;
            f.1.clear();
        }
        if f.1.len() < FRONT_CAP {
            f.1.insert(key, val);
        }
    });
}

/// Read-lock a shard, recovering from poison: cached schedules are
/// immutable once inserted, so a panic in some unrelated `par_map` worker
/// that held a lock mid-`get`/`insert` leaves the map in a usable state.
/// Without this, one panicking test poisons a global shard and cascades
/// spurious failures through every later in-process cache user.
fn read_shard(
    s: &RwLock<HashMap<Key, Arc<Schedule>>>,
) -> std::sync::RwLockReadGuard<'_, HashMap<Key, Arc<Schedule>>> {
    s.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-lock a shard (insert path only), with the same poison recovery.
fn write_shard(
    s: &RwLock<HashMap<Key, Arc<Schedule>>>,
) -> std::sync::RwLockWriteGuard<'_, HashMap<Key, Arc<Schedule>>> {
    s.write().unwrap_or_else(|e| e.into_inner())
}

fn get_or_build(key: Key, build: impl FnOnce() -> Schedule) -> Arc<Schedule> {
    // Hot path: thread-local front cache — no locks, no shared cache
    // lines, just one relaxed epoch load. This is what sweep workers hit
    // in steady state.
    let epoch = EPOCH.load(Ordering::Acquire);
    if let Some(found) = front_get(&key, epoch) {
        FRONT_HITS.with(|h| h.set(h.get() + 1));
        return found;
    }
    let c = cache();
    let shard = &c.shards[shard_index(&key)];
    // Front miss: shared read lock on the backing map.
    if let Some(found) = read_shard(shard).get(&key) {
        c.hits.inc();
        let found = Arc::clone(found);
        front_put(key, Arc::clone(&found), epoch);
        return found;
    }
    // Build outside any lock: schedule construction can be expensive at
    // large scale, and two threads racing on the same key just means one
    // redundant build whose result loses the insert race below.
    c.misses.inc();
    let built = Arc::new(build());
    // Double-checked insert: whoever wins the write race defines the entry;
    // losers adopt the winner's Arc so `ptr_eq` holds across racers.
    let adopted = Arc::clone(write_shard(shard).entry(key).or_insert(built));
    front_put(key, Arc::clone(&adopted), epoch);
    adopted
}

/// Number of distinct schedules currently interned.
pub fn len() -> usize {
    cache().shards.iter().map(|s| read_shard(s).len()).sum()
}

/// Drop every cached schedule (for tests and memory-bounded sweeps).
/// Bumping the epoch invalidates every thread's front cache on its next
/// lookup; the stale thread-local Arcs are released at that point.
pub fn clear() {
    EPOCH.fetch_add(1, Ordering::Release);
    for s in &cache().shards {
        write_shard(s).clear();
    }
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
    use std::sync::{Mutex, MutexGuard};

    /// `clear_invalidates_front_caches` wipes the process-global cache;
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
    fn shard_mix_spreads_consecutive_ranks() {
        // Every rank of a world queries the same shape back-to-back; the
        // field mix must not funnel them into a handful of shards.
        let spec = CollSpec::new(64, 4096);
        let mut used = std::collections::HashSet::new();
        for rank in 0..64 {
            used.insert(shard_index(&base_key(1, 0, 0, rank, &spec)));
        }
        assert!(used.len() >= SHARDS / 2, "only {} shards used", used.len());
    }

    #[test]
    fn poisoned_shards_recover() {
        let _g = clear_lock();
        // Poison every shard by panicking while holding each lock, then
        // verify the cache keeps serving lookups, inserts, len() and
        // clear() instead of cascading PoisonError panics.
        for s in &cache().shards {
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _g = s.write().unwrap_or_else(|e| e.into_inner());
                panic!("poison this shard");
            }));
            assert!(res.is_err());
        }
        let spec = CollSpec::new(23, 555);
        let a = cached_barrier(11, &spec);
        let b = cached_barrier(11, &spec);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(len() >= 1);
    }

    #[test]
    fn front_cache_serves_same_arc_as_shared_map() {
        // Second lookup is a front-cache hit and must hand back the very
        // same interned Arc the shared map holds.
        let _g = clear_lock();
        let spec = CollSpec::new(13, 2048);
        let a = cached_allgather(AllgatherAlgo::Bruck, 5, &spec);
        let b = cached_allgather(AllgatherAlgo::Bruck, 5, &spec);
        assert!(Arc::ptr_eq(&a, &b));
        // And a third thread-fresh lookup (no front entry) also converges.
        let c = std::thread::spawn(move || cached_allgather(AllgatherAlgo::Bruck, 5, &spec))
            .join()
            .unwrap();
        assert!(Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn clear_invalidates_front_caches() {
        let _g = clear_lock();
        let spec = CollSpec::new(17, 9999);
        let a = cached_barrier(3, &spec);
        clear();
        // The front cache must not resurrect the dropped entry: the next
        // lookup rebuilds and interns a fresh Arc.
        let b = cached_barrier(3, &spec);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn concurrent_stress_no_lost_inserts() {
        let _g = clear_lock();
        // Hammer one shape set from many threads: every thread must end up
        // with the interned schedule for each key (same render), and the
        // shared map must contain every key exactly once.
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
        simcore::par::run_sweep_flush_hooks();
        let scope = metrics::Scope::begin();
        let counted = || {
            simcore::par::run_sweep_flush_hooks();
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

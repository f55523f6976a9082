//! Deterministic simulation-result memoization.
//!
//! Every simulation in this workspace is a pure function of its
//! configuration: `SimTime` is integer nanoseconds, noise is driven by
//! seeds derived from the spec, and rank scheduling is fixed by the
//! deterministic event queue. Running the same (platform, collective,
//! algorithm, nranks, msglen, segsize, seed) twice therefore produces the
//! same outcome bit for bit — so the second run can be *replayed* from a
//! cache instead of re-simulated.
//!
//! [`get_or_run`] is the entry point: callers build a fingerprint string
//! covering every input that can influence the outcome (see
//! `autonbc::driver::memo_key`) and pass a closure that runs the
//! simulation on a miss. [`get`] peeks without running anything, and
//! [`get_or_run_all`] answers a sweep's replays on the calling thread and
//! fans only its misses out to the worker pool. Results are stored as
//! `Arc<dyn Any>` so one process-wide cache serves any outcome type; a
//! downcast mismatch is treated as a miss and overwritten.
//!
//! Soundness caveats (see DESIGN.md "Simulator memory model"): memoization
//! must be bypassed for runs that mutate global state as a side effect, or
//! whose inputs are not fully captured by the fingerprint — e.g.
//! fault-injection experiments or externally perturbed runs. Callers opt
//! out per-run by not routing through [`get_or_run`], or globally via
//! [`set_enabled`] / `NBC_MEMO=off`.
//!
//! Warm-cache replays are contention-free: each thread keeps a bounded
//! thread-local front cache of fingerprint → outcome clones, validated
//! against a global epoch ([`clear`] — and the rare cross-type overwrite —
//! bumps it), so steady-state replay touches no shared state beyond one
//! atomic epoch load. Front misses fall through to the backing map,
//! sharded 64 ways behind `RwLock`s (same shape as `nbc::cache`): a
//! shared read lock on a shard picked by an FNV-1a/SplitMix64 hash of the
//! fingerprint. The closure runs *outside* any lock, and a lost insert
//! race just adopts the winner's value. The sharded map remains the sole
//! source of truth — front caches are filled only from it, so inserts are
//! never lost to a thread-local copy. Front-cache hit tallies flush to
//! the registry (`adcl.simmemo.*`) at sweep barriers
//! (`simcore::par::register_sweep_flush`).

use simcore::metrics::{self, Counter};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

const NSHARDS: usize = 64;

type Shard = RwLock<HashMap<String, Arc<dyn Any + Send + Sync>>>;

/// Read-lock a shard, tolerating poison (entries are immutable once
/// inserted, so a panicking worker cannot leave a shard inconsistent).
fn read_shard(
    s: &Shard,
) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<dyn Any + Send + Sync>>> {
    s.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-lock a shard (insert path only), with the same poison recovery.
fn write_shard(
    s: &Shard,
) -> std::sync::RwLockWriteGuard<'_, HashMap<String, Arc<dyn Any + Send + Sync>>> {
    s.write().unwrap_or_else(|e| e.into_inner())
}

struct Memo {
    shards: Vec<Shard>,
    hits: &'static Counter,
    misses: &'static Counter,
    replayed_events: &'static Counter,
}

fn memo() -> &'static Memo {
    static MEMO: OnceLock<Memo> = OnceLock::new();
    MEMO.get_or_init(|| {
        // Front-cache tallies must reach the registry at sweep barriers;
        // registration is idempotent (fn-pointer dedup).
        simcore::par::register_sweep_flush(flush_front_stats);
        Memo {
            shards: (0..NSHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            hits: metrics::counter("adcl.simmemo.hits"),
            misses: metrics::counter("adcl.simmemo.misses"),
            replayed_events: metrics::counter("adcl.simmemo.replayed_events"),
        }
    })
}

/// Global front-cache epoch: bumped by [`clear`] and by a cross-type
/// overwrite (fingerprint collision), invalidating every thread's front
/// cache on its next lookup.
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// Bound on per-thread front-cache entries (memoized outcomes are small —
/// an `Arc` each — but long-lived workers should not pin an unbounded set).
const FRONT_CAP: usize = 4096;

/// Key → type-erased memoized outcome, as stored in both the shared
/// shards and the per-thread front caches.
type FrontMap = HashMap<String, Arc<dyn Any + Send + Sync>>;

thread_local! {
    /// Per-thread front cache, valid while its epoch tag matches the
    /// global epoch. The contention-free replay hot path.
    static FRONT: RefCell<(u64, FrontMap)> = RefCell::new((0, HashMap::new()));
    /// Front-cache hits not yet flushed to the registry counter.
    static FRONT_HITS: Cell<u64> = const { Cell::new(0) };
}

/// Flush this thread's front-cache hit tally into the registry counter.
fn flush_front_stats() {
    let pending = FRONT_HITS.with(|h| h.replace(0));
    if pending > 0 {
        memo().hits.add(pending);
    }
}

fn front_get(key: &str, epoch: u64) -> Option<Arc<dyn Any + Send + Sync>> {
    FRONT.with(|f| {
        let mut f = f.borrow_mut();
        if f.0 != epoch {
            f.0 = epoch;
            f.1.clear();
        }
        f.1.get(key).cloned()
    })
}

/// Populate the front cache from a shared-map outcome (never from a fresh
/// run directly — the shared map is the source of truth).
fn front_put(key: &str, val: Arc<dyn Any + Send + Sync>, epoch: u64) {
    FRONT.with(|f| {
        let mut f = f.borrow_mut();
        if f.0 != epoch {
            f.0 = epoch;
            f.1.clear();
        }
        if f.1.len() < FRONT_CAP {
            f.1.insert(key.to_owned(), val);
        }
    });
}

/// FNV-1a over the fingerprint bytes with a SplitMix64-style finalizer:
/// cheaper than SipHash for the long human-readable keys the drivers build,
/// and the finalizer spreads structurally similar fingerprints (which share
/// long prefixes) across shards.
fn shard_of(key: &str) -> usize {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in key.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    (h as usize) % NSHARDS
}

/// Process-wide enable override: 0 = unset (consult `NBC_MEMO`),
/// 1 = forced off, 2 = forced on.
static ENABLED_OVERRIDE: AtomicU8 = AtomicU8::new(0);
static ENABLED_ENV: OnceLock<bool> = OnceLock::new();

/// Programmatically force memoization on or off (takes precedence over
/// `NBC_MEMO`). Tests use this because the environment is read once.
pub fn set_enabled(on: bool) {
    ENABLED_OVERRIDE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Drop a [`set_enabled`] override, reverting to the environment default.
pub fn clear_enabled_override() {
    ENABLED_OVERRIDE.store(0, Ordering::Relaxed);
}

/// True when [`get_or_run`] consults the cache: the programmatic override
/// if set, else `NBC_MEMO` (`off`/`0` disables), else on.
pub fn enabled() -> bool {
    match ENABLED_OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => *ENABLED_ENV.get_or_init(|| {
            !matches!(
                std::env::var("NBC_MEMO").ok().as_deref(),
                Some("off") | Some("0")
            )
        }),
    }
}

/// The hit path shared by [`get`] and [`get_or_run`]: the stored outcome
/// of `key` if it has type `T`, counted as one hit. A miss counts nothing.
fn lookup<T: Any + Send + Sync>(key: &str, epoch: u64) -> Option<Arc<T>> {
    // Hot path: thread-local front cache — no locks, one relaxed epoch
    // load. Warm parallel sweeps replay from here without touching any
    // shared cache line.
    if let Some(found) = front_get(key, epoch) {
        if let Ok(typed) = found.downcast::<T>() {
            FRONT_HITS.with(|h| h.set(h.get() + 1));
            return Some(typed);
        }
        // Type mismatch in the front copy: fall through to the shared map,
        // which resolves the collision and refreshes the front entry.
    }
    let m = memo();
    // Front miss: shared read lock on the backing map. Same key with a
    // different outcome type is a fingerprint collision across call sites:
    // a miss, which `get_or_run` overwrites.
    let found = Arc::clone(read_shard(&m.shards[shard_of(key)]).get(key)?);
    let typed = Arc::clone(&found).downcast::<T>().ok()?;
    m.hits.inc();
    front_put(key, found, epoch);
    Some(typed)
}

/// Peek: the memoized outcome of `key`, if there is one of type `T`. A hit
/// is counted exactly as on [`get_or_run`]'s hit path; a miss counts
/// nothing and runs nothing. Always `None` when memoization is disabled.
pub fn get<T: Any + Send + Sync>(key: &str) -> Option<Arc<T>> {
    if !enabled() {
        return None;
    }
    lookup(key, EPOCH.load(Ordering::Acquire))
}

/// Look up `key`; on a miss (or a type mismatch) run `run` outside the
/// lock and cache its result. Returns the shared outcome and whether it
/// was a replay (`true` = served from cache without running `run`).
///
/// When memoization is disabled the closure always runs and nothing is
/// cached or counted.
pub fn get_or_run<T, F>(key: &str, run: F) -> (Arc<T>, bool)
where
    T: Any + Send + Sync,
    F: FnOnce() -> T,
{
    if !enabled() {
        return (Arc::new(run()), false);
    }
    let epoch = EPOCH.load(Ordering::Acquire);
    if let Some(typed) = lookup(key, epoch) {
        return (typed, true);
    }
    let m = memo();
    let shard = &m.shards[shard_of(key)];
    m.misses.inc();
    let fresh: Arc<T> = Arc::new(run());
    let mut g = write_shard(shard);
    match g.get(key) {
        // Lost an insert race to an identically-keyed run: adopt the
        // winner (results are deterministic, so the values are equal).
        Some(existing) => {
            if let Ok(typed) = Arc::clone(existing).downcast::<T>() {
                front_put(key, Arc::clone(existing), epoch);
                return (typed, false);
            }
            g.insert(key.to_owned(), fresh.clone());
            drop(g);
            // Cross-type overwrite: other threads may hold the stale-typed
            // outcome in their front caches; bump the epoch so they drop it.
            let new_epoch = EPOCH.fetch_add(1, Ordering::Release) + 1;
            front_put(key, fresh.clone(), new_epoch);
            (fresh, false)
        }
        None => {
            g.insert(key.to_owned(), fresh.clone());
            drop(g);
            front_put(key, fresh.clone(), epoch);
            (fresh, false)
        }
    }
}

/// A memoized sweep: every key the memo holds is answered on the calling
/// thread, and only the misses fan out over `jobs` workers
/// (`simcore::par::par_map_costed`, `est_nanos_per_run` each), where
/// `run(i)` computes the outcome of `keys[i]` through [`get_or_run`].
/// Returns `(outcome, replayed)` per key, in key order. A sweep with no
/// misses never reaches the pool; it flushes the caller's sweep hooks
/// itself, so totals are exact on return exactly as after a `par_map`.
/// The caller's front cache adopts every miss, so replaying the same sweep
/// from this thread is all front hits.
pub fn get_or_run_all<T, F>(
    jobs: usize,
    keys: &[String],
    est_nanos_per_run: u64,
    run: F,
) -> Vec<(Arc<T>, bool)>
where
    T: Any + Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<(Arc<T>, bool)>> =
        keys.iter().map(|k| get(k).map(|v| (v, true))).collect();
    let misses: Vec<usize> = (0..keys.len()).filter(|&i| out[i].is_none()).collect();
    if misses.is_empty() {
        simcore::par::run_sweep_flush_hooks();
    } else {
        let fresh = simcore::par::par_map_costed(jobs, &misses, est_nanos_per_run, |_, &i| {
            get_or_run(&keys[i], || run(i))
        });
        let (m, epoch, adopt) = (memo(), EPOCH.load(Ordering::Acquire), enabled());
        for (i, r) in misses.into_iter().zip(fresh) {
            // The caller is the thread that asks for this sweep again: copy
            // what a worker's run stored into the caller's front cache, so
            // that replay is a front hit too. The copy comes from the shared
            // map, which stays the source of truth.
            if adopt {
                if let Some(stored) = read_shard(&m.shards[shard_of(&keys[i])]).get(&keys[i]) {
                    front_put(&keys[i], Arc::clone(stored), epoch);
                }
            }
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.expect("every key answered"))
        .collect()
}

/// Credit `events` simulation events to the replay counter: a cache hit
/// stood in for a run that would have processed this many events.
pub fn credit_replay(events: u64) {
    memo().replayed_events.add(events);
}

/// Number of memoized outcomes.
pub fn len() -> usize {
    memo().shards.iter().map(|s| read_shard(s).len()).sum()
}

/// Drop every memoized outcome (counters are kept). Bumping the epoch
/// invalidates every thread's front cache on its next lookup.
pub fn clear() {
    EPOCH.fetch_add(1, Ordering::Release);
    for s in &memo().shards {
        write_shard(s).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The cache and the enable override are process-global; tests that
    /// toggle them must not interleave.
    static LOCK: StdMutex<()> = StdMutex::new(());

    /// `(hits, misses, replayed_events)` the registry gained since `scope`
    /// began, this thread's front-cache tally included.
    fn counted(scope: &metrics::Scope) -> (u64, u64, u64) {
        simcore::par::run_sweep_flush_hooks();
        let d = scope.delta();
        let get = |name| d.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v);
        (
            get("adcl.simmemo.hits"),
            get("adcl.simmemo.misses"),
            get("adcl.simmemo.replayed_events"),
        )
    }

    /// A scope that starts with nothing of this thread's left to flush.
    fn begin_scope() -> metrics::Scope {
        simcore::par::run_sweep_flush_hooks();
        metrics::Scope::begin()
    }

    fn with_memo_on<R>(f: impl FnOnce() -> R) -> R {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(true);
        clear();
        let r = f();
        clear_enabled_override();
        r
    }

    #[test]
    fn second_lookup_is_a_replay() {
        with_memo_on(|| {
            let scope = begin_scope();
            let mut runs = 0;
            let (a, replay_a) = get_or_run("k/test/1", || {
                runs += 1;
                42u64
            });
            let (b, replay_b) = get_or_run("k/test/1", || {
                runs += 1;
                42u64
            });
            assert_eq!(runs, 1, "closure must run once");
            assert_eq!(*a, *b);
            assert!(!replay_a);
            assert!(replay_b);
            let (hits, misses, _) = counted(&scope);
            assert_eq!((hits, misses), (1, 1));
        });
    }

    #[test]
    fn peek_counts_a_hit_like_get_or_run_and_a_miss_not_at_all() {
        with_memo_on(|| {
            let scope = begin_scope();
            assert!(get::<u64>("k/peek").is_none());
            assert_eq!(counted(&scope), (0, 0, 0), "a peek miss counts nothing");
            let (stored, _) = get_or_run("k/peek", || 5u64);
            let scope = begin_scope();
            // One front-cache hit, one shared-map hit (a fresh thread has no
            // front copy), and a wrong-type peek that is a miss.
            let front = get::<u64>("k/peek").expect("stored");
            let shared = std::thread::scope(|s| s.spawn(|| get::<u64>("k/peek")).join().unwrap());
            assert!(get::<String>("k/peek").is_none());
            assert!(Arc::ptr_eq(&front, &stored));
            assert!(Arc::ptr_eq(&shared.expect("stored"), &stored));
            assert_eq!(counted(&scope), (2, 0, 0));
        });
    }

    #[test]
    fn sweep_replays_inline_and_runs_only_the_misses() {
        with_memo_on(|| {
            let keys: Vec<String> = (0..6).map(|i| format!("k/sweep/{i}")).collect();
            for i in [1usize, 4] {
                get_or_run(&keys[i], || i as u64 * 10);
            }
            let scope = begin_scope();
            let ran = std::sync::atomic::AtomicUsize::new(0);
            let out = get_or_run_all(4, &keys, simcore::par::COST_UNKNOWN, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                // Slow enough that pool workers wake and take some misses
                // before the caller has drained them all.
                std::thread::sleep(std::time::Duration::from_millis(5));
                i as u64 * 10
            });
            let got: Vec<(u64, bool)> = out.iter().map(|(v, r)| (**v, *r)).collect();
            let want: Vec<(u64, bool)> = (0..6u64).map(|i| (i * 10, i == 1 || i == 4)).collect();
            assert_eq!(got, want);
            assert_eq!(ran.into_inner(), 4);
            assert_eq!(counted(&scope), (2, 4, 0));
            // Misses that ran on pool workers replay from this thread's
            // front cache: every hit stays a pending tally until the flush.
            let scope = begin_scope();
            for k in &keys {
                assert!(get::<u64>(k).is_some());
            }
            let unflushed = scope.delta();
            let shared_hits = unflushed.iter().find(|(n, _)| *n == "adcl.simmemo.hits");
            assert_eq!(shared_hits.map_or(0, |&(_, v)| v), 0);
            assert_eq!(counted(&scope), (6, 0, 0));
        });
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        with_memo_on(|| {
            // Fingerprints differing in exactly one field must hit distinct
            // entries — this is the memo-key collision test: a key that
            // dropped any of these fields would alias them.
            let keys = [
                "whale/ibcast/binomial/p16/m262144/s32768/seed2015",
                "whale/ibcast/binomial/p16/m262144/s32768/seed2016",
                "whale/ibcast/binomial/p16/m262144/s65536/seed2015",
                "whale/ibcast/binomial/p16/m524288/s32768/seed2015",
                "whale/ibcast/binomial/p32/m262144/s32768/seed2015",
                "whale/ibcast/chain/p16/m262144/s32768/seed2015",
                "whale/ialltoall/binomial/p16/m262144/s32768/seed2015",
                "crill/ibcast/binomial/p16/m262144/s32768/seed2015",
            ];
            for (i, k) in keys.iter().enumerate() {
                let (v, _) = get_or_run(k, || i as u64);
                assert_eq!(*v, i as u64);
            }
            assert_eq!(len(), keys.len());
            for (i, k) in keys.iter().enumerate() {
                let (v, replay) = get_or_run(k, || u64::MAX);
                assert_eq!(*v, i as u64, "key {k} aliased another entry");
                assert!(replay);
            }
        });
    }

    #[test]
    fn type_mismatch_is_a_miss() {
        with_memo_on(|| {
            let (_, _) = get_or_run("k/typed", || 7u64);
            // Same key, different type: must not panic, must re-run.
            let (v, replay) = get_or_run("k/typed", || "seven".to_owned());
            assert_eq!(&*v, "seven");
            assert!(!replay);
        });
    }

    #[test]
    fn disabled_cache_always_runs() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(false);
        let scope = begin_scope();
        let mut runs = 0;
        for _ in 0..3 {
            let (v, replay) = get_or_run("k/disabled", || {
                runs += 1;
                1u8
            });
            assert_eq!(*v, 1);
            assert!(!replay);
        }
        assert_eq!(runs, 3);
        assert_eq!(
            counted(&scope),
            (0, 0, 0),
            "disabled runs must not touch counters"
        );
        clear_enabled_override();
    }

    #[test]
    fn fingerprint_hash_spreads_shards() {
        // Driver fingerprints share long prefixes; the finalizer must still
        // spread them across most shards.
        let mut used = std::collections::HashSet::new();
        for i in 0..256 {
            used.insert(shard_of(&format!(
                "ub/whale/ibcast/p16/m{i}/i10/c0/g4/r25/Block/F-/Tuned"
            )));
        }
        assert!(used.len() >= NSHARDS / 2, "only {} shards used", used.len());
    }

    #[test]
    fn front_cache_replays_and_flushes_hits_through_stats() {
        with_memo_on(|| {
            let scope = begin_scope();
            let (_, _) = get_or_run("k/front/1", || 11u64);
            // These replays come from the thread-local front cache; their
            // tallies must appear once the calling thread's hooks flush.
            for _ in 0..5 {
                let (v, replay) = get_or_run("k/front/1", || -> u64 { unreachable!() });
                assert_eq!(*v, 11u64);
                assert!(replay);
            }
            let (hits, misses, _) = counted(&scope);
            assert_eq!((hits, misses), (5, 1));
        });
    }

    #[test]
    fn clear_invalidates_front_cache() {
        with_memo_on(|| {
            let (_, _) = get_or_run("k/front/clear", || 1u64);
            let (_, replay) = get_or_run("k/front/clear", || 2u64);
            assert!(replay);
            clear();
            // The front copy must not survive a clear: the closure re-runs
            // and the new outcome is cached.
            let (v, replay) = get_or_run("k/front/clear", || 3u64);
            assert!(!replay);
            assert_eq!(*v, 3u64);
        });
    }

    #[test]
    fn concurrent_threads_converge_with_no_lost_inserts() {
        with_memo_on(|| {
            // 8 threads × 16 keys, every thread runs every key: each key's
            // closure result is deterministic, so all threads must observe
            // the same value, and the map must hold exactly 16 entries.
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    std::thread::spawn(|| {
                        (0..16u64)
                            .map(|k| *get_or_run(&format!("k/stress/{k}"), || k * 7 + 1).0)
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            for h in handles {
                let vals = h.join().unwrap();
                let expect: Vec<u64> = (0..16).map(|k| k * 7 + 1).collect();
                assert_eq!(vals, expect);
            }
            assert_eq!(len(), 16);
        });
    }

    #[test]
    fn replay_crediting_accumulates() {
        with_memo_on(|| {
            let scope = begin_scope();
            credit_replay(100);
            credit_replay(23);
            assert_eq!(counted(&scope).2, 123);
        });
    }
}

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
//! fans only its misses out over `simcore::par`. Results are stored as
//! `Arc<dyn Any>` so one process-wide cache serves any outcome type; a
//! downcast mismatch is treated as a miss and overwritten.
//!
//! Soundness caveats (see DESIGN.md "Simulator memory model"): memoization
//! must be bypassed for runs that mutate global state as a side effect, or
//! whose inputs are not fully captured by the fingerprint — e.g.
//! externally perturbed runs. Callers opt
//! out per-run by not routing through [`get_or_run`], or globally via
//! [`set_enabled`] / `NBC_MEMO=off`.
//!
//! The memo is one `Mutex<HashMap>`: a lookup holds the lock for one hash
//! probe and an `Arc` clone. The closure runs *outside* the lock, and the
//! first insert wins — a lost insert race adopts the winner's value. Hits
//! and misses bump the `adcl.simmemo.*` registry counters on the spot, so
//! totals are exact whenever they are read.

use simcore::metrics::{self, Counter};
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// A type-erased memoized outcome.
type Outcome = Arc<dyn Any + Send + Sync>;

struct Memo {
    map: Mutex<HashMap<String, Outcome>>,
    hits: &'static Counter,
    misses: &'static Counter,
    replayed_events: &'static Counter,
}

fn memo() -> &'static Memo {
    static MEMO: OnceLock<Memo> = OnceLock::new();
    MEMO.get_or_init(|| Memo {
        map: Mutex::new(HashMap::new()),
        hits: metrics::counter("adcl.simmemo.hits"),
        misses: metrics::counter("adcl.simmemo.misses"),
        replayed_events: metrics::counter("adcl.simmemo.replayed_events"),
    })
}

impl Memo {
    /// Lock the map, tolerating poison (entries are immutable once
    /// inserted, so a panicking run cannot leave the map inconsistent).
    fn map(&self) -> MutexGuard<'_, HashMap<String, Outcome>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }
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
/// Same key with a different outcome type is a fingerprint collision
/// across call sites: a miss, which `get_or_run` overwrites.
fn lookup<T: Any + Send + Sync>(key: &str) -> Option<Arc<T>> {
    let m = memo();
    let found = m.map().get(key).cloned()?;
    let typed = found.downcast::<T>().ok()?;
    m.hits.inc();
    Some(typed)
}

/// Peek: the memoized outcome of `key`, if there is one of type `T`. A hit
/// is counted exactly as on [`get_or_run`]'s hit path; a miss counts
/// nothing and runs nothing. Always `None` when memoization is disabled.
pub fn get<T: Any + Send + Sync>(key: &str) -> Option<Arc<T>> {
    if !enabled() {
        return None;
    }
    lookup(key)
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
    if let Some(typed) = lookup(key) {
        return (typed, true);
    }
    let m = memo();
    m.misses.inc();
    let fresh: Arc<T> = Arc::new(run());
    let mut map = m.map();
    // Lost an insert race to an identically-keyed run: adopt the winner
    // (results are deterministic, so the values are equal). An entry of
    // another type is overwritten.
    if let Some(existing) = map.get(key) {
        if let Ok(typed) = Arc::clone(existing).downcast::<T>() {
            return (typed, false);
        }
    }
    map.insert(key.to_owned(), fresh.clone());
    (fresh, false)
}

/// A memoized sweep: every key the memo holds is answered on the calling
/// thread, and only the misses fan out over `jobs` participants
/// (`simcore::par::par_map_costed`, `est_nanos_per_run` each), where
/// `run(i)` computes the outcome of `keys[i]` through [`get_or_run`].
/// Returns `(outcome, replayed)` per key, in key order. A sweep with no
/// misses never spawns a thread.
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
    let fresh = simcore::par::par_map_costed(jobs, &misses, est_nanos_per_run, |_, &i| {
        get_or_run(&keys[i], || run(i))
    });
    for (i, r) in misses.into_iter().zip(fresh) {
        out[i] = Some(r);
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
    memo().map().len()
}

/// Drop every memoized outcome (counters are kept).
pub fn clear() {
    memo().map().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The cache and the enable override are process-global; tests that
    /// toggle them must not interleave.
    static LOCK: StdMutex<()> = StdMutex::new(());

    /// `(hits, misses, replayed_events)` the registry gained since `scope`
    /// began.
    fn counted(scope: &metrics::Scope) -> (u64, u64, u64) {
        let d = scope.delta();
        let get = |name| d.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v);
        (
            get("adcl.simmemo.hits"),
            get("adcl.simmemo.misses"),
            get("adcl.simmemo.replayed_events"),
        )
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
            let scope = metrics::Scope::begin();
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
            let scope = metrics::Scope::begin();
            assert!(get::<u64>("k/peek").is_none());
            assert_eq!(counted(&scope), (0, 0, 0), "a peek miss counts nothing");
            let (stored, _) = get_or_run("k/peek", || 5u64);
            let scope = metrics::Scope::begin();
            // A hit on this thread, a hit on another thread, and a
            // wrong-type peek that is a miss.
            let here = get::<u64>("k/peek").expect("stored");
            let there = std::thread::scope(|s| s.spawn(|| get::<u64>("k/peek")).join().unwrap());
            assert!(get::<String>("k/peek").is_none());
            assert!(Arc::ptr_eq(&here, &stored));
            assert!(Arc::ptr_eq(&there.expect("stored"), &stored));
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
            let scope = metrics::Scope::begin();
            let ran = std::sync::atomic::AtomicUsize::new(0);
            let out = get_or_run_all(4, &keys, simcore::par::COST_UNKNOWN, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                // Slow enough that helpers start and take some misses
                // before the caller has drained them all.
                std::thread::sleep(std::time::Duration::from_millis(5));
                i as u64 * 10
            });
            let got: Vec<(u64, bool)> = out.iter().map(|(v, r)| (**v, *r)).collect();
            let want: Vec<(u64, bool)> = (0..6u64).map(|i| (i * 10, i == 1 || i == 4)).collect();
            assert_eq!(got, want);
            assert_eq!(ran.into_inner(), 4);
            assert_eq!(counted(&scope), (2, 4, 0));
            // Misses that ran on helper threads replay from this thread, and
            // every hit is counted at once.
            let scope = metrics::Scope::begin();
            for k in &keys {
                assert!(get::<u64>(k).is_some());
            }
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
        let scope = metrics::Scope::begin();
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
    fn replays_count_as_hits() {
        with_memo_on(|| {
            let scope = metrics::Scope::begin();
            let (_, _) = get_or_run("k/replay/1", || 11u64);
            // Every replay is counted as a hit the moment it is served.
            for _ in 0..5 {
                let (v, replay) = get_or_run("k/replay/1", || -> u64 { unreachable!() });
                assert_eq!(*v, 11u64);
                assert!(replay);
            }
            let (hits, misses, _) = counted(&scope);
            assert_eq!((hits, misses), (5, 1));
        });
    }

    #[test]
    fn clear_forgets_outcomes() {
        with_memo_on(|| {
            let (_, _) = get_or_run("k/clear", || 1u64);
            let (_, replay) = get_or_run("k/clear", || 2u64);
            assert!(replay);
            clear();
            // Nothing survives a clear: the closure re-runs and the new
            // outcome is cached.
            let (v, replay) = get_or_run("k/clear", || 3u64);
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
            let scope = metrics::Scope::begin();
            credit_replay(100);
            credit_replay(23);
            assert_eq!(counted(&scope).2, 123);
        });
    }
}

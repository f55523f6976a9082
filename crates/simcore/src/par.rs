//! Dependency-free parallel sweep engine.
//!
//! The experiment surface of this repo is thousands of *independent*
//! deterministic simulations (every figure binary, the §IV-A verification
//! sweep, the §IV-B FFT sweep). Each simulation owns its `World` and derives
//! its own seed from the scenario parameters, so they can run on any number
//! of OS threads as long as results are merged back in input order — which
//! is exactly what [`par_map`] guarantees. There is no rayon here (the
//! workspace has no external dependencies): each parallel sweep is one
//! `std::thread::scope` in which the caller and a few scoped helper
//! threads pull chunks off a shared atomic cursor.
//!
//! Helpers live for one sweep. A sweep's items are whole simulations
//! (milliseconds each), so spawning and joining a helper (tens of
//! microseconds) is noise next to the work it takes on.
//!
//! Determinism contract: `par_map(jobs, items, f)` returns bit-identical
//! output for every `jobs` value, including 1, provided `f(i, &items[i])`
//! itself is deterministic and does not depend on global mutable state.
//! Simulations satisfy this by construction (integer-nanosecond virtual
//! time, per-simulation seeds from [`derive_seed`]).

use crate::rng::SplitMix64;
use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// Resolve a requested worker count to an actual one.
///
/// Priority: an explicit positive request (e.g. `--jobs N`), then the
/// `NBC_JOBS` environment variable, then `std::thread::available_parallelism`.
/// `Some(0)` and `None` both mean "auto".
pub fn effective_jobs(requested: Option<usize>) -> usize {
    effective_jobs_from(requested, |key| std::env::var(key).ok())
}

/// [`effective_jobs`] with an injected environment lookup, so the resolution
/// order is testable without mutating the process environment (which races
/// against every other test in the same binary).
pub fn effective_jobs_from(
    requested: Option<usize>,
    env: impl Fn(&str) -> Option<String>,
) -> usize {
    if let Some(n) = requested {
        if n > 0 {
            return n;
        }
    }
    if let Some(v) = env("NBC_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Derive an independent simulation seed for work item `idx` from a master
/// seed. Two levels of SplitMix64 mixing keep adjacent indices decorrelated
/// and make the result independent of how the sweep is partitioned across
/// threads.
pub fn derive_seed(master: u64, idx: u64) -> u64 {
    SplitMix64::split(master, idx).next_u64()
}

/// Test/bench override for [`hardware_parallelism`]: 0 = use detection.
static ASSUMED_PARALLELISM: AtomicUsize = AtomicUsize::new(0);

/// Force [`hardware_parallelism`] to report `n` (for tests and A/B
/// comparisons of the serial-cutoff heuristic); `None` restores detection.
pub fn set_assumed_parallelism(n: Option<usize>) {
    ASSUMED_PARALLELISM.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// Best estimate of the host's real hardware parallelism.
///
/// `std::thread::available_parallelism` honors the process's CPU affinity
/// mask and cgroup quota — which is what sweeps should respect — but it can
/// error out, and on some containers it underreports relative to the
/// physical topology. The detector takes the affinity-aware value when
/// available and falls back to counting `processor` lines in
/// `/proc/cpuinfo`, flooring at 1. The result is detected once and cached;
/// [`set_assumed_parallelism`] overrides it.
pub fn hardware_parallelism() -> usize {
    let forced = ASSUMED_PARALLELISM.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        if let Ok(n) = thread::available_parallelism() {
            return n.get();
        }
        // Fallback: physical topology (affinity information unavailable).
        std::fs::read_to_string("/proc/cpuinfo")
            .map(|s| {
                s.lines()
                    .filter(|l| l.starts_with("processor"))
                    .count()
                    .max(1)
            })
            .unwrap_or(1)
    })
}

/// Per-item cost marker for [`par_map`]: "unknown, assume the work is
/// heavy enough to parallelize". Only the hardware clamp applies.
pub const COST_UNKNOWN: u64 = u64::MAX;

/// The hand-off cost the serial cutoff weighs parallel savings against,
/// in nanoseconds per participant. A scoped spawn-and-join of one helper
/// measures ~28 µs on a 2-CPU host; the floor sits well above it so only
/// sweeps that clearly win fan out.
pub fn handoff_floor_nanos() -> u64 {
    120_000
}

/// The serial-cutoff decision, exposed pure for testing: how many
/// participants (caller included) should a sweep of `n` items use, given
/// the requested `jobs`, the host's usable parallelism `hw`, an estimated
/// per-item cost (`COST_UNKNOWN` = assume heavy) and the estimated
/// per-participant hand-off cost?
///
/// Returns 1 (run serially) when:
/// * `jobs`, `n` or `hw` is ≤ 1 — extra threads cannot help, and on a
///   single-CPU host they *cost*: oversubscribed helpers serialize on the
///   one core and pay the hand-off on top (the measured
///   `fft_windowtiled_pair` 0.54× regression);
/// * the estimated parallel saving, `total * (p-1)/p`, does not clear the
///   estimated hand-off cost `p * handoff` — tiny sweeps finish faster on
///   the calling thread than a helper can even start.
pub fn plan_participants(
    jobs: usize,
    n: usize,
    hw: usize,
    est_nanos_per_item: u64,
    handoff_nanos: u64,
) -> usize {
    let p = jobs.min(n).min(hw.max(1));
    if p <= 1 {
        return 1;
    }
    if est_nanos_per_item != COST_UNKNOWN && handoff_nanos > 0 {
        let total = est_nanos_per_item.saturating_mul(n as u64);
        let saving = total / p as u64 * (p as u64 - 1);
        if saving < handoff_nanos.saturating_mul(p as u64) {
            return 1;
        }
    }
    p
}

thread_local! {
    /// Set on every participant of a parallel sweep, the caller included,
    /// while it takes part. A sweep issued from inside a sweep sees it and
    /// runs serially, so nested sweeps never multiply threads.
    static IN_SWEEP: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread a sweep participant until dropped. The drop
/// restores the previous value, so a panicking participant cannot leave
/// its thread marked and serialize every later sweep.
struct Participant(bool);

impl Participant {
    fn enter() -> Self {
        Participant(IN_SWEEP.with(|f| f.replace(true)))
    }
}

impl Drop for Participant {
    fn drop(&mut self) {
        IN_SWEEP.with(|f| f.set(self.0));
    }
}

/// Sweeps that spawned at least one helper thread.
static SPAWNED_SWEEPS: AtomicU64 = AtomicU64::new(0);

/// Sweeps since the process started that spawned at least one helper
/// thread. Tests read it to show a sweep stayed on the calling thread. It
/// is not a registry metric: how often a sweep fans out depends on `jobs`
/// and the host, and registry deltas must not.
pub fn pool_sweeps() -> u64 {
    SPAWNED_SWEEPS.load(Ordering::Relaxed)
}

/// Does nothing. Schedule tables and the run memo count every hit and
/// miss on the spot, so there is nothing left to flush at a sweep
/// boundary; the function stays for callers built against it.
pub fn run_sweep_flush_hooks() {}

/// Map `f` over `items` on up to `jobs` threads, returning results in
/// input order. Equivalent to [`par_map_costed`] with [`COST_UNKNOWN`]:
/// only the hardware clamp and the tiny-sweep floor can serialize it.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_costed(jobs, items, COST_UNKNOWN, f)
}

/// Map `f` over `items` on up to `jobs` threads, returning results in
/// input order, with a serial cutoff informed by `est_nanos_per_item`.
///
/// The participant count is planned by [`plan_participants`]: `jobs` is
/// clamped to the item count *and the host's usable parallelism* (threads
/// beyond physical cores only add hand-off and contention — the cause of
/// the historical jobs=2 regressions on 1-CPU hosts), and sweeps whose
/// estimated total work cannot pay for the hand-off run serially on the
/// calling thread. Pass [`COST_UNKNOWN`] when no estimate exists.
///
/// A parallel sweep is one [`std::thread::scope`]: the caller plus up to
/// `participants - 1` scoped helper threads drain a coarsely chunked
/// atomic cursor. Each participant claims a contiguous block of about
/// `n / (participants * 2)` indices at a time — at most ~2 claims per
/// participant, so cursor traffic stays negligible. Each participant
/// returns its `(index, result)` pairs and the caller places them in input
/// order. A helper that cannot
/// be spawned just means fewer helpers.
///
/// `jobs <= 1` (or a single item) short-circuits to a plain serial loop on
/// the calling thread, which keeps `--jobs 1` a true serial baseline. So
/// does a sweep issued from inside a parallel sweep (nested parallelism):
/// output never depends on who runs which index, so serial is always
/// correct.
///
/// A panic in `f` propagates to the caller after every participant has
/// finished.
pub fn par_map_costed<T, R, F>(jobs: usize, items: &[T], est_nanos_per_item: u64, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let participants = plan_participants(
        jobs,
        n,
        hardware_parallelism(),
        est_nanos_per_item,
        handoff_floor_nanos(),
    );
    if participants <= 1 || IN_SWEEP.with(Cell::get) {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    // Coarse blocks: ~half a fair share per claim, so every participant
    // claims at most about twice and a slow block still load-balances
    // across the rest.
    let chunk = n.div_ceil(participants * 2).max(1);
    let drain = || {
        let _marked = Participant::enter();
        let mut done = Vec::new();
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                return done;
            }
            let end = (start + chunk).min(n);
            for (i, item) in items.iter().enumerate().take(end).skip(start) {
                done.push((i, f(i, item)));
            }
        }
    };

    // A panic on the caller, or one a join re-raises, unwinds out of the
    // scope only after every helper has finished.
    let parts = thread::scope(|s| {
        let helpers: Vec<_> = (1..participants)
            .map_while(|k| {
                thread::Builder::new()
                    .name(format!("nbc-sweep-{k}"))
                    .spawn_scoped(s, drain)
                    .ok()
            })
            .collect();
        if !helpers.is_empty() {
            SPAWNED_SWEEPS.fetch_add(1, Ordering::Relaxed);
        }
        let mut parts = vec![drain()];
        parts.extend(
            helpers
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))),
        );
        parts
    });
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("the cursor hands out every index once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Fan-out tests must actually spawn helpers, which the hardware
    /// clamp prevents on a 1-CPU host. This guard forces a fake
    /// hardware width for the test's duration (serialized so concurrent
    /// tests don't fight over the global override) and restores detection
    /// on drop.
    struct ForcedHw(#[allow(dead_code)] MutexGuard<'static, ()>);

    fn force_hw(n: usize) -> ForcedHw {
        static HW_LOCK: Mutex<()> = Mutex::new(());
        let g = HW_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_assumed_parallelism(Some(n));
        ForcedHw(g)
    }

    impl Drop for ForcedHw {
        fn drop(&mut self) {
            set_assumed_parallelism(None);
        }
    }

    #[test]
    fn plan_respects_hardware_clamp() {
        // jobs=8 on a 1-wide host must run serially: oversubscription only
        // adds handoff cost (the measured jobs=2 regression).
        assert_eq!(plan_participants(8, 64, 1, COST_UNKNOWN, 120_000), 1);
        assert_eq!(plan_participants(8, 64, 2, COST_UNKNOWN, 120_000), 2);
        assert_eq!(plan_participants(8, 64, 16, COST_UNKNOWN, 120_000), 8);
        // And never more participants than items.
        assert_eq!(plan_participants(8, 3, 16, COST_UNKNOWN, 120_000), 3);
        assert_eq!(plan_participants(1, 64, 16, COST_UNKNOWN, 120_000), 1);
        assert_eq!(plan_participants(8, 0, 16, COST_UNKNOWN, 120_000), 1);
        // hw=0 (detection failure) behaves like hw=1.
        assert_eq!(plan_participants(8, 64, 0, COST_UNKNOWN, 120_000), 1);
    }

    #[test]
    fn plan_serial_cutoff_weighs_cost_against_handoff() {
        // 2 items × 100µs each on 8-wide hw: parallel saves ~100µs but the
        // handoff costs 2×120µs — run serially (the fft_windowtiled_pair
        // case).
        assert_eq!(plan_participants(2, 2, 8, 100_000, 120_000), 1);
        // 2 items × 10ms each: saving (10ms) dwarfs handoff — parallelize.
        assert_eq!(plan_participants(2, 2, 8, 10_000_000, 120_000), 2);
        // Unknown cost: assume heavy, only the clamp applies.
        assert_eq!(plan_participants(2, 2, 8, COST_UNKNOWN, 120_000), 2);
        // Zero handoff estimate disables the cutoff entirely.
        assert_eq!(plan_participants(2, 2, 8, 1, 0), 2);
        // Huge per-item cost must not overflow the saving computation.
        assert_eq!(plan_participants(8, 64, 8, u64::MAX - 1, 120_000), 8);
    }

    #[test]
    fn costed_map_serial_cutoff_matches_parallel_results() {
        let _hw = force_hw(8);
        let items: Vec<u64> = (0..16).collect();
        // est=1ns: far below the handoff floor — runs serially.
        let cheap = par_map_costed(8, &items, 1, |i, &x| x * 5 + i as u64);
        // COST_UNKNOWN: parallelizes. Results must be identical.
        let heavy = par_map_costed(8, &items, COST_UNKNOWN, |i, &x| x * 5 + i as u64);
        assert_eq!(cheap, heavy);
    }

    #[test]
    fn matches_serial_for_any_job_count() {
        let items: Vec<u64> = (0..257).collect();
        let serial = par_map(1, &items, |i, &x| x * 3 + i as u64);
        for jobs in [2, 3, 8, 64, 1000] {
            let par = par_map(jobs, &items, |i, &x| x * 3 + i as u64);
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(8, &[41], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn preserves_input_order_not_completion_order() {
        // Make early items slow so later items finish first.
        let items: Vec<usize> = (0..16).collect();
        let out = par_map(4, &items, |_, &x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn pool_reuse_across_many_sweeps() {
        // Back-to-back sweeps, each with its own helpers: every one must
        // merge correctly.
        let _hw = force_hw(8);
        let items: Vec<u64> = (0..64).collect();
        for round in 0..200u64 {
            let out = par_map(8, &items, |i, &x| x * 7 + round + i as u64);
            let expect: Vec<u64> = (0..64).map(|x| x * 7 + round + x).collect();
            assert_eq!(out, expect, "round={round}");
        }
    }

    #[test]
    fn nested_par_map_does_not_deadlock() {
        let _hw = force_hw(8);
        let outer: Vec<u64> = (0..16).collect();
        let out = par_map(4, &outer, |_, &x| {
            // Every participant, the caller included, runs its inner
            // sweeps serially: each inner item runs on the issuing thread.
            let issuer = thread::current().id();
            let inner: Vec<u64> = (0..8).collect();
            let runs = par_map(4, &inner, |_, &y| {
                // Slow enough that a helper would take some items.
                std::thread::sleep(std::time::Duration::from_millis(1));
                (y + x, thread::current().id())
            });
            assert!(runs.iter().all(|&(_, id)| id == issuer));
            runs.iter().map(|&(v, _)| v).sum::<u64>()
        });
        let expect: Vec<u64> = (0..16).map(|x| (0..8).map(|y| y + x).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn concurrent_submitters_do_not_deadlock() {
        // Several plain threads all driving par_map at once, each with its
        // own helpers: all must be correct.
        let _hw = force_hw(8);
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                thread::spawn(move || {
                    let items: Vec<u64> = (0..128).collect();
                    let out = par_map(8, &items, |_, &x| x * 2 + t);
                    let expect: Vec<u64> = (0..128).map(|x| x * 2 + t).collect();
                    assert_eq!(out, expect);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..8).collect();
        par_map(4, &items, |_, &x| {
            if x == 5 {
                panic!("worker failure");
            }
            x
        });
    }

    #[test]
    fn pool_survives_a_panicked_sweep() {
        // A sweep that panics must leave later sweeps free to fan out: a
        // participant flag leaked by the panic would serialize them all.
        let _hw = force_hw(8);
        let items: Vec<usize> = (0..32).collect();
        let poisoned = std::panic::catch_unwind(|| {
            par_map(4, &items, |_, &x| {
                // One panic in every claimed block of 4, so the caller's
                // own share panics too.
                if x % 4 == 3 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(poisoned.is_err());
        let out = par_map(4, &items, |_, &x| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            (x + 1, thread::current().id())
        });
        let expect: Vec<usize> = (1..33).collect();
        assert_eq!(out.iter().map(|&(v, _)| v).collect::<Vec<_>>(), expect);
        let ids: std::collections::HashSet<_> = out.iter().map(|&(_, id)| id).collect();
        assert!(ids.len() >= 2, "the sweep after a panic ran serially");
    }

    #[test]
    fn derive_seed_decorrelates_indices() {
        let seeds: Vec<u64> = (0..100).map(|i| derive_seed(7, i)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
        // And is independent of any other master seed's stream.
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }

    #[test]
    fn effective_jobs_resolution() {
        // Injected environment: no process-global set_var, so this cannot
        // race against other tests reading NBC_JOBS.
        let with = |val: Option<&str>| {
            let owned = val.map(str::to_string);
            move |key: &str| {
                assert_eq!(key, "NBC_JOBS");
                owned.clone()
            }
        };
        assert_eq!(effective_jobs_from(Some(5), with(Some("3"))), 5);
        assert_eq!(effective_jobs_from(None, with(Some("3"))), 3);
        assert_eq!(effective_jobs_from(Some(0), with(Some("3"))), 3);
        assert_eq!(effective_jobs_from(None, with(Some(" 12 "))), 12);
        assert!(effective_jobs_from(None, with(Some("not a number"))) >= 1);
        assert!(effective_jobs_from(None, with(Some("0"))) >= 1);
        assert!(effective_jobs_from(None, with(None)) >= 1);
        // The public wrapper resolves explicit requests without consulting
        // the environment at all.
        assert_eq!(effective_jobs(Some(9)), 9);
    }
}

//! Dependency-free parallel sweep engine.
//!
//! The experiment surface of this repo is thousands of *independent*
//! deterministic simulations (every figure binary, the §IV-A verification
//! sweep, the §IV-B FFT sweep). Each simulation owns its `World` and derives
//! its own seed from the scenario parameters, so they can run on any number
//! of OS threads as long as results are merged back in input order — which
//! is exactly what [`par_map`] guarantees. There is no rayon here (the
//! build environment is offline): workers are persistent pool threads
//! pulling chunks off a shared atomic cursor.
//!
//! The pool is lazily spawned on the first parallel call and reused for the
//! rest of the process, so a figure binary that issues hundreds of sweeps
//! pays thread-creation cost once instead of once per sweep. Results are
//! written directly into their input-order output slot (each index is
//! claimed by exactly one worker), so there is no per-item channel send and
//! no reassembly pass.
//!
//! Determinism contract: `par_map(jobs, items, f)` returns bit-identical
//! output for every `jobs` value, including 1, provided `f(i, &items[i])`
//! itself is deterministic and does not depend on global mutable state.
//! Simulations satisfy this by construction (integer-nanosecond virtual
//! time, per-simulation seeds from [`derive_seed`]).

use crate::rng::SplitMix64;
use std::cell::{Cell, UnsafeCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
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

/// Default estimated pool-handoff cost per participating worker, in
/// nanoseconds: one condvar wake plus one barrier ack on a warm pool.
/// `NBC_PAR_CUTOFF_NS` overrides it (0 disables the cost-based cutoff).
const DEFAULT_HANDOFF_NANOS: u64 = 120_000;

/// Per-item cost marker for [`par_map`]: "unknown, assume the work is
/// heavy enough to parallelize". Only the hardware clamp applies.
pub const COST_UNKNOWN: u64 = u64::MAX;

/// The pool-handoff cost estimate the serial cutoff weighs parallel
/// savings against (`NBC_PAR_CUTOFF_NS` override, else the default).
pub fn handoff_floor_nanos() -> u64 {
    static FLOOR: OnceLock<u64> = OnceLock::new();
    *FLOOR.get_or_init(|| {
        std::env::var("NBC_PAR_CUTOFF_NS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(DEFAULT_HANDOFF_NANOS)
    })
}

/// The serial-cutoff decision, exposed pure for testing: how many
/// participants (caller included) should a sweep of `n` items use, given
/// the requested `jobs`, the host's usable parallelism `hw`, an estimated
/// per-item cost (`COST_UNKNOWN` = assume heavy) and the estimated
/// per-worker pool-handoff cost?
///
/// Returns 1 (run serially) when:
/// * `jobs`, `n` or `hw` is ≤ 1 — extra threads cannot help, and on a
///   single-CPU host they *cost*: oversubscribed workers serialize on the
///   one core and pay the handoff on top (the measured
///   `fft_windowtiled_pair` 0.54× regression);
/// * the estimated parallel saving, `total * (p-1)/p`, does not clear the
///   estimated handoff cost `p * handoff` — tiny sweeps finish faster on
///   the calling thread than the pool can even wake up.
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

/// Hard ceiling on persistent pool threads. Sweeps routinely request
/// `jobs` values far above the host's core count (the determinism tests go
/// to 1000); capping the pool keeps that from pinning a thousand idle OS
/// threads for the life of the process.
const MAX_POOL_THREADS: usize = 32;

/// One input-order output cell. Each index is claimed by exactly one worker
/// (via the chunked cursor), written once, and only read by the caller after
/// the completion barrier — so unsynchronized interior mutability is sound.
struct Slot<R>(UnsafeCell<Option<R>>);

// SAFETY: see the `Slot` doc comment — disjoint writes, then a barrier,
// then reads. The pool's mutex hand-off provides the happens-before edge.
unsafe impl<R: Send> Sync for Slot<R> {}

thread_local! {
    /// Set for the lifetime of every pool worker thread. A `par_map` issued
    /// from inside a worker (nested parallelism) must not wait on the pool —
    /// the pool is busy running *us* — so it degrades to the serial path.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

struct PoolState {
    /// Bumped once per submitted job; workers idle until it changes.
    generation: u64,
    /// The type-erased job body for the current generation.
    job: Option<&'static (dyn Fn() + Sync)>,
    /// How many workers may run the current job (jobs - 1; the caller is
    /// the remaining participant).
    run_limit: usize,
    /// Workers that claimed a run slot this generation.
    started: usize,
    /// Workers that finished with this generation (ran or declined).
    acked: usize,
    /// Pool threads spawned so far.
    threads: usize,
    /// First panic payload captured from a worker this generation.
    panic: Option<Box<dyn std::any::Any + Send + 'static>>,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Workers wait here for a new generation.
    work_cv: Condvar,
    /// The submitter waits here for all workers to ack the generation.
    done_cv: Condvar,
    /// Single-submitter guard: only one `par_map` drives the pool at a
    /// time; concurrent calls fall back to running serially on their own
    /// thread (still correct — the cursor/slot protocol does not care how
    /// many threads participate).
    busy: AtomicBool,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            generation: 0,
            job: None,
            run_limit: 0,
            started: 0,
            acked: 0,
            threads: 0,
            panic: None,
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        busy: AtomicBool::new(false),
    })
}

/// Jobs handed to the worker pool since the process started (its
/// generation count; `par_map` and [`on_all_workers`] both count). Tests
/// read it to show a sweep stayed on the calling thread. It is not a
/// registry metric: how often the pool is used depends on `jobs` and the
/// host, and registry deltas must not.
pub fn pool_sweeps() -> u64 {
    lock_state(pool()).generation
}

/// Sweep-barrier flush hooks.
///
/// Hot-path caches (`nbc::cache`, `adcl::simmemo`) keep per-thread state —
/// front caches and hit tallies — so steady-state reads touch no shared
/// memory at all. That local state must still become globally visible at
/// deterministic points, or totals would depend on which threads happened
/// to run which items. The contract: every registered hook runs on every
/// participant (workers *and* the caller) after it finishes its share of a
/// sweep, before the completion barrier releases the caller. Totals
/// observed after `par_map` returns are therefore exact and independent of
/// `jobs`.
///
/// Hooks are plain `fn()` so registration is idempotent and duplicate
/// registrations are dropped. The registry is append-only: a slot, once
/// set, never changes, so running the hooks takes no lock and allocates
/// nothing — it reads the published count and the slots below it.
const MAX_FLUSH_HOOKS: usize = 8;
static FLUSH_HOOKS: [OnceLock<fn()>; MAX_FLUSH_HOOKS] =
    [const { OnceLock::new() }; MAX_FLUSH_HOOKS];
/// Slots published so far; a slot is set before the count covers it.
static FLUSH_HOOK_COUNT: AtomicUsize = AtomicUsize::new(0);
/// Serializes registrations (the duplicate check and the append).
static FLUSH_REGISTER: Mutex<()> = Mutex::new(());

/// Register `hook` to run on every sweep participant at sweep barriers.
pub fn register_sweep_flush(hook: fn()) {
    let _g = FLUSH_REGISTER.lock().unwrap_or_else(|e| e.into_inner());
    let n = FLUSH_HOOK_COUNT.load(Ordering::Relaxed);
    let mut hooks = FLUSH_HOOKS[..n].iter().filter_map(OnceLock::get);
    if hooks.any(|h| std::ptr::fn_addr_eq(*h, hook)) {
        return;
    }
    assert!(
        n < MAX_FLUSH_HOOKS,
        "more than {MAX_FLUSH_HOOKS} sweep-flush hooks"
    );
    let _ = FLUSH_HOOKS[n].set(hook);
    FLUSH_HOOK_COUNT.store(n + 1, Ordering::Release);
}

/// Run every registered sweep-flush hook on the calling thread.
pub fn run_sweep_flush_hooks() {
    let n = FLUSH_HOOK_COUNT.load(Ordering::Acquire);
    for h in FLUSH_HOOKS[..n].iter().filter_map(OnceLock::get) {
        h();
    }
}

/// Lock the pool state, tolerating poison: the state machine is left
/// consistent at every await point, and worker panics are routed through
/// `PoolState::panic`, never through an unwind while holding the lock.
fn lock_state(p: &'static Pool) -> MutexGuard<'static, PoolState> {
    p.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Body of every persistent worker thread: wait for a generation bump,
/// claim a run slot if any remain, run the job (capturing panics), ack.
fn worker_loop(p: &'static Pool) {
    IN_POOL_WORKER.with(|f| f.set(true));
    let mut seen = 0u64;
    loop {
        let job = {
            let mut s = lock_state(p);
            while s.generation == seen {
                s = p.work_cv.wait(s).unwrap_or_else(|e| e.into_inner());
            }
            seen = s.generation;
            if s.started < s.run_limit {
                s.started += 1;
                Some(s.job.expect("job must be set while generation is live"))
            } else {
                s.acked += 1;
                if s.acked == s.threads {
                    p.done_cv.notify_all();
                }
                None
            }
        };
        if let Some(body) = job {
            let result = catch_unwind(AssertUnwindSafe(body));
            let mut s = lock_state(p);
            if let Err(payload) = result {
                if s.panic.is_none() {
                    s.panic = Some(payload);
                }
            }
            s.acked += 1;
            if s.acked == s.threads {
                p.done_cv.notify_all();
            }
        }
    }
}

/// Run `body` on up to `extra` pool workers plus the calling thread.
/// Returns `false` without running anything if the pool could not be used
/// (busy with another submitter, or no worker thread could be spawned);
/// the caller then runs the whole job serially itself.
fn run_on_pool(body: &(dyn Fn() + Sync), extra: usize) -> bool {
    let p = pool();
    if p.busy
        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        return false;
    }

    // SAFETY: the job reference is only dereferenced by pool workers between
    // the generation bump below and the `acked == threads` barrier, and this
    // function does not return until that barrier is reached — so the
    // erased borrow never outlives `body`.
    let job: &'static (dyn Fn() + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(body) };

    {
        let mut s = lock_state(p);
        let want = extra.min(MAX_POOL_THREADS);
        while s.threads < want {
            let spawned = thread::Builder::new()
                .name(format!("nbc-sweep-{}", s.threads))
                .spawn(|| worker_loop(pool()));
            match spawned {
                Ok(_) => s.threads += 1,
                Err(_) => break,
            }
        }
        if s.threads == 0 {
            drop(s);
            p.busy.store(false, Ordering::Release);
            return false;
        }
        s.generation += 1;
        s.job = Some(job);
        s.run_limit = extra.min(s.threads);
        s.started = 0;
        s.acked = 0;
        s.panic = None;
        p.work_cv.notify_all();
    }

    // The caller participates instead of idling: it is `jobs`-th worker.
    let caller_result = catch_unwind(AssertUnwindSafe(body));

    let worker_panic = {
        let mut s = lock_state(p);
        while s.acked < s.threads {
            s = p.done_cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        s.job = None;
        s.panic.take()
    };
    p.busy.store(false, Ordering::Release);

    if let Err(payload) = caller_result {
        resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
    true
}

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
/// Work is distributed through a coarsely chunked atomic cursor: each
/// participant claims a contiguous block of about `n / (participants * 2)`
/// indices at a time — at most ~2 claims per worker per sweep. Coarse
/// blocks matter beyond cursor traffic: consecutive sweep points usually
/// share a `World` shape, so a worker that runs a long contiguous run of
/// configs serves them all from one reset world (`mpisim::worldpool`)
/// instead of bouncing shapes between threads. Each result is written
/// directly into its input-order slot — no channels, no reassembly pass.
///
/// The participant count is planned by [`plan_participants`]: `jobs` is
/// clamped to the item count *and the host's usable parallelism* (threads
/// beyond physical cores only add handoff and contention — the cause of
/// the historical jobs=2 regressions on 1-CPU hosts), and sweeps whose
/// estimated total work cannot pay for the pool handoff run serially on
/// the calling thread. Pass [`COST_UNKNOWN`] when no estimate exists.
///
/// Threads come from a lazily-spawned persistent pool shared by the whole
/// process (capped at 32), so back-to-back sweeps reuse warm workers
/// instead of paying `thread::spawn` per call. The calling thread always
/// participates as one of the planned workers. If the pool is already
/// driven by another thread — or this call is issued from *inside* a pool
/// worker (nested parallelism) — the call degrades to the serial path,
/// which is always correct because output never depends on who runs which
/// index.
///
/// `jobs <= 1` (or a single item) short-circuits to a plain serial loop on
/// the calling thread, which keeps `--jobs 1` a true serial baseline.
///
/// Every participant (including the caller, including the serial path)
/// runs the registered sweep-flush hooks after finishing its share, so
/// thread-local cache statistics are globally visible — and identical for
/// every `jobs` value — when this function returns.
///
/// A panic in `f` propagates to the caller after all participants have
/// quiesced (never deadlocks the pool).
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
    if participants <= 1 || IN_POOL_WORKER.with(|w| w.get()) {
        let out = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        run_sweep_flush_hooks();
        return out;
    }

    let slots: Vec<Slot<R>> = (0..n).map(|_| Slot(UnsafeCell::new(None))).collect();
    let cursor = AtomicUsize::new(0);
    // Coarse per-worker blocks: ~half a fair share per claim, so every
    // participant claims at most about twice and a slow block still
    // load-balances across the rest.
    let chunk = n.div_ceil(participants * 2).max(1);

    let body = || {
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + chunk).min(n);
            for (i, item) in items.iter().enumerate().take(end).skip(start) {
                let r = f(i, item);
                // SAFETY: index `i` is claimed by exactly this participant —
                // the cursor hands out each index once — and readers wait for
                // the completion barrier. See `Slot`.
                unsafe { *slots[i].0.get() = Some(r) };
            }
        }
        run_sweep_flush_hooks();
    };

    if !run_on_pool(&body, participants - 1) {
        // Pool unavailable: drain the same cursor serially on this thread.
        body();
    }

    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.0.into_inner()
                .unwrap_or_else(|| panic!("missing result for index {i}"))
        })
        .collect()
}

/// Run `f` once on up to `extra` pool workers *and* once on the calling
/// thread — the pre-warm primitive: per-thread state (cached worlds,
/// payload slabs, front caches) can be populated on every thread a
/// following sweep will use, outside that sweep's timed region.
///
/// Workers are spawned up to `extra` (within the pool cap) if they do not
/// exist yet. Degrades gracefully: if the pool is busy or unavailable, or
/// this is called from inside a pool worker, only the calling thread runs
/// `f`. Returns the number of pool workers that ran it.
pub fn on_all_workers(extra: usize, f: impl Fn() + Sync) -> usize {
    let ran = AtomicUsize::new(0);
    if extra > 0 && !IN_POOL_WORKER.with(|w| w.get()) {
        // Each woken worker claims one run slot and runs `f` exactly once.
        // The caller also executes `body` inside `run_on_pool`, but the
        // worker-flag check makes that a no-op — its own warm-up is the
        // unconditional call below, so pool-busy fallback warms it too.
        let body = || {
            if IN_POOL_WORKER.with(|w| w.get()) {
                f();
                ran.fetch_add(1, Ordering::Relaxed);
            }
        };
        run_on_pool(&body, extra);
    }
    f();
    ran.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pool-behavior tests must actually reach the pool, which the
    /// hardware clamp prevents on a 1-CPU host. This guard forces a fake
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
        // Hammer the pool with back-to-back sweeps; every one must merge
        // correctly on warm (reused) workers.
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
            let inner: Vec<u64> = (0..8).collect();
            par_map(4, &inner, |_, &y| y + x).iter().sum::<u64>()
        });
        let expect: Vec<u64> = (0..16).map(|x| (0..8).map(|y| y + x).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn concurrent_submitters_do_not_deadlock() {
        // Several plain threads all driving par_map at once: at most one
        // gets the pool, the rest run serially — all must be correct.
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
        // A sweep that panics must leave the pool reusable for later sweeps.
        let _hw = force_hw(8);
        let items: Vec<usize> = (0..32).collect();
        let poisoned = std::panic::catch_unwind(|| {
            par_map(4, &items, |_, &x| {
                if x == 7 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(poisoned.is_err());
        let out = par_map(4, &items, |_, &x| x + 1);
        let expect: Vec<usize> = (1..33).collect();
        assert_eq!(out, expect);
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
    fn flush_hooks_run_on_every_path_and_participant() {
        use std::sync::atomic::AtomicUsize;
        // NOTE: hooks are process-global and permanent; this one only
        // touches its own counter, so other tests in this binary are
        // unaffected beyond a relaxed increment per sweep.
        static FLUSHES: AtomicUsize = AtomicUsize::new(0);
        fn tally() {
            FLUSHES.fetch_add(1, Ordering::Relaxed);
        }
        register_sweep_flush(tally);
        register_sweep_flush(tally); // duplicate registration is dropped

        let items: Vec<u64> = (0..8).collect();

        // Serial path: at least the caller's flush lands before return.
        // (Other tests in this binary sweep concurrently and bump the same
        // counter, so the lower bound is the race-safe assertion.)
        let before = FLUSHES.load(Ordering::Relaxed);
        par_map(1, &items, |_, &x| x);
        assert!(FLUSHES.load(Ordering::Relaxed) > before);

        // Parallel path: flushes land before par_map returns here too.
        let _hw = force_hw(4);
        let before = FLUSHES.load(Ordering::Relaxed);
        par_map(4, &items, |_, &x| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            x
        });
        assert!(FLUSHES.load(Ordering::Relaxed) > before);
    }

    #[test]
    fn on_all_workers_reaches_workers_and_caller() {
        let _hw = force_hw(8);
        use std::collections::HashSet;
        let ids: Mutex<HashSet<thread::ThreadId>> = Mutex::new(HashSet::new());
        let ran = on_all_workers(3, || {
            ids.lock().unwrap().insert(thread::current().id());
        });
        let ids = ids.into_inner().unwrap();
        // The caller always runs it; `ran` counts pool workers only.
        assert!(ids.contains(&thread::current().id()));
        assert_eq!(ids.len(), ran + 1);
        assert!(ran <= 3);
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

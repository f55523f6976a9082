//! Integration tests for the parallel sweep engine: sweeps executed on
//! worker threads produce bit-identical results to the serial baseline,
//! and the schedules a session stores never change simulated outcomes.

use autonbc::adcl::runner::TuningSession;
use autonbc::adcl::tuner::TunerConfig;
use autonbc::driver::{CollectiveOp, MicrobenchSpec};
use autonbc::prelude::*;
use nbc::bcast::{build_bcast, BcastAlgo};
use nbc::schedule::CollSpec;
use std::sync::{Mutex, MutexGuard};

/// Every test in this binary runs simulations, and simulations flush into
/// the process-global metrics registry. Tests that compare registry deltas
/// need an exclusive window, so all tests serialize on this lock.
static REG_LOCK: Mutex<()> = Mutex::new(());

fn reg_lock() -> MutexGuard<'static, ()> {
    REG_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn spec(op: CollectiveOp, msg_bytes: usize) -> MicrobenchSpec {
    MicrobenchSpec {
        platform: Platform::whale(),
        nprocs: 8,
        op,
        msg_bytes,
        iters: 15,
        compute_total: SimTime::from_millis(15),
        num_progress: 4,
        noise: NoiseConfig::light(77),
        reps: 3,
        placement: Placement::Block,
        imbalance: Imbalance::None,
    }
}

#[test]
fn fixed_sweep_invariant_under_jobs() {
    let _g = reg_lock();
    let s = spec(CollectiveOp::Ialltoall, 32 * 1024);
    let serial = s.run_all_fixed_jobs(1);
    for jobs in [2, 4, 8] {
        let par = s.run_all_fixed_jobs(jobs);
        assert_eq!(serial.len(), par.len(), "jobs={jobs}");
        for ((n1, t1), (n2, t2)) in serial.iter().zip(&par) {
            assert_eq!(n1, n2, "jobs={jobs}");
            // Bit-identical, not approximately equal: the simulations are
            // integer-time and own their seeds, so threading must not
            // perturb them at all.
            assert_eq!(t1.to_bits(), t2.to_bits(), "jobs={jobs} impl {n1}");
        }
    }
}

#[test]
fn tuned_runs_invariant_under_parallel_fanout() {
    let _g = reg_lock();
    // Whole tuned runs (learning phase included) fanned out across
    // threads match the same runs executed one by one.
    let specs = [
        spec(CollectiveOp::Ialltoall, 1024),
        spec(CollectiveOp::Iallgather, 4096),
        spec(CollectiveOp::Ireduce, 64 * 1024),
    ];
    let serial: Vec<_> = specs
        .iter()
        .map(|s| s.run(SelectionLogic::BruteForce))
        .collect();
    let par = simcore::par::par_map(3, &specs, |_, s| s.run(SelectionLogic::BruteForce));
    for (a, b) in serial.iter().zip(&par) {
        assert_eq!(a.history, b.history);
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.converged_at, b.converged_at);
    }
}

#[test]
fn par_map_merges_in_input_order() {
    let _g = reg_lock();
    let items: Vec<usize> = (0..32).collect();
    let out = simcore::par::par_map(4, &items, |i, &x| {
        assert_eq!(i, x);
        x * 10
    });
    assert_eq!(out, items.iter().map(|x| x * 10).collect::<Vec<_>>());
}

#[test]
fn schedule_cache_matches_fresh_builds_end_to_end() {
    // A session stores each schedule on its first start and shares it
    // with every later one; a stored schedule must render identically to
    // a fresh build for shapes the microbenchmark actually uses.
    let _g = reg_lock();
    let s = spec(CollectiveOp::Ibcast, 256 * 1024);
    let coll = s.coll_spec();
    let mut session = TuningSession::new(s.nprocs);
    let op = session.add_op("ibcast", s.op.fnset(coll), TunerConfig::default());
    let op = &mut session.ops[op];
    let mut f = 0;
    for algo in BcastAlgo::all() {
        for seg in [32 * 1024, 64 * 1024, 128 * 1024] {
            for rank in 0..s.nprocs {
                let stored = op.schedule(f, rank);
                let fresh = build_bcast(algo, seg, rank, &coll);
                assert_eq!(
                    stored.render(rank),
                    fresh.render(rank),
                    "{algo:?} seg={seg} rank={rank}"
                );
                assert!(std::sync::Arc::ptr_eq(&stored, &op.schedule(f, rank)));
            }
            f += 1;
        }
    }
}

#[test]
fn cached_run_equals_cold_run() {
    // A second run of a scenario (in a world of its own) must time out
    // identically to the first.
    let _g = reg_lock();
    let s = spec(CollectiveOp::Iallreduce, 16 * 1024);
    let cold = s.run(SelectionLogic::BruteForce);
    let warm = s.run(SelectionLogic::BruteForce);
    assert_eq!(cold.history, warm.history);
    assert_eq!(cold.winner, warm.winner);
}

/// The registry metrics whose per-sweep deltas must be identical for every
/// `jobs` value: they count simulation events, and the simulations are
/// bit-identical under threading. (Cache hit/miss splits and payload-pool
/// allocations are deliberately excluded — warm caches and per-thread pools
/// shift *where* work lands without changing simulated outcomes.)
const JOBS_INVARIANT_METRICS: &[&str] = &[
    "mpisim.polls",
    "mpisim.rdv_stall_ns",
    "mpisim.rdv_stalls",
    "mpisim.sim_events",
    "mpisim.unexpected_msgs",
];

/// Read the jobs-invariant metrics as `(name, values)` rows. Counters yield
/// one value; histograms yield `[count, sum, max]`. `max` is monotone and
/// workload-determined, so comparing absolute values across identical
/// back-to-back sweeps is sound even without resetting the registry.
fn registry_probe() -> Vec<(&'static str, Vec<u64>)> {
    simcore::metrics::snapshot()
        .into_iter()
        .filter(|(name, _)| JOBS_INVARIANT_METRICS.contains(name))
        .map(|(name, r)| match r {
            simcore::metrics::Reading::Counter(v) | simcore::metrics::Reading::Gauge(v) => {
                (name, vec![v])
            }
            simcore::metrics::Reading::Histogram { count, sum, max } => {
                (name, vec![count, sum, max])
            }
        })
        .collect()
}

/// Per-metric deltas between two probes (histogram `max` carried absolute).
fn probe_delta(
    before: &[(&'static str, Vec<u64>)],
    after: &[(&'static str, Vec<u64>)],
) -> Vec<(&'static str, Vec<u64>)> {
    after
        .iter()
        .map(|(name, vals)| {
            let base = before
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_slice())
                .unwrap_or(&[]);
            let d = vals
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    // Index 2 is a histogram max: monotone, not a flow.
                    if i == 2 {
                        v
                    } else {
                        v - base.get(i).copied().unwrap_or(0)
                    }
                })
                .collect();
            (*name, d)
        })
        .collect()
}

fn metrics_probe_points() -> Vec<MicrobenchSpec> {
    let sizes = [8 * 1024, 32 * 1024, 128 * 1024, 512 * 1024];
    (0..8)
        .map(|k| {
            let mut s = spec(CollectiveOp::Ibcast, sizes[k % sizes.len()]);
            s.iters = 6;
            s.reps = 2;
            s.noise = NoiseConfig::light(simcore::par::derive_seed(500, k as u64));
            s
        })
        .collect()
}

#[test]
fn metrics_registry_flush_is_jobs_invariant() {
    // Worker threads accumulate per-world metric state locally and flush at
    // sweep boundaries; after the flush, the registry deltas for one sweep
    // must be byte-identical no matter how the sweep was threaded.
    let _g = reg_lock();
    adcl::simmemo::set_enabled(false);
    let points = metrics_probe_points();
    let nfuncs = CollectiveOp::Ibcast
        .fnset(CollSpec::new(8, 128 * 1024))
        .len();
    let run_sweep = |jobs: usize| {
        let before = registry_probe();
        let totals = simcore::par::par_map(jobs, &points, |i, s| {
            s.run(SelectionLogic::Fixed(i % nfuncs)).total.to_bits()
        });
        (probe_delta(&before, &registry_probe()), totals)
    };
    let (serial_delta, serial_totals) = run_sweep(1);
    assert!(
        serial_delta
            .iter()
            .any(|(n, v)| *n == "mpisim.sim_events" && v[0] > 0),
        "probe sweep produced no simulation events: {serial_delta:?}"
    );
    for jobs in [2, 8] {
        let (delta, totals) = run_sweep(jobs);
        assert_eq!(serial_totals, totals, "jobs={jobs}");
        assert_eq!(serial_delta, delta, "jobs={jobs}");
    }
    adcl::simmemo::clear_enabled_override();
}

/// FNV-1a over result bit patterns: order-sensitive digest for the
/// cross-`jobs` byte-identity checks below.
fn digest64(totals: &[u64]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &t in totals {
        for b in t.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[test]
fn session_schedules_jobs_invariant() {
    // Every run builds its own schedules on whichever thread runs it: the
    // sweep results must stay byte-identical at every jobs value.
    let _g = reg_lock();
    adcl::simmemo::set_enabled(false);
    let points = metrics_probe_points();
    let nfuncs = CollectiveOp::Ibcast
        .fnset(CollSpec::new(8, 128 * 1024))
        .len();
    let sweep_digest = |jobs: usize| -> u64 {
        let totals = simcore::par::par_map(jobs, &points, |i, s| {
            s.run(SelectionLogic::Fixed(i % nfuncs)).total.to_bits()
        });
        digest64(&totals)
    };
    let serial = sweep_digest(1);
    for jobs in [2, 8] {
        assert_eq!(sweep_digest(jobs), serial, "jobs={jobs}");
    }
    adcl::simmemo::clear_enabled_override();
}

#[test]
fn memoized_replay_is_jobs_invariant() {
    // The sim memo replays outcomes that any participant stored on repeat
    // passes. Priming on one thread layout and replaying on another must
    // produce the same digests as the serial prime/replay pair.
    let _g = reg_lock();
    adcl::simmemo::set_enabled(true);
    let points = metrics_probe_points();
    let nfuncs = CollectiveOp::Ibcast
        .fnset(CollSpec::new(8, 128 * 1024))
        .len();
    let pass = |jobs: usize| -> u64 {
        let totals = simcore::par::par_map(jobs, &points, |i, s| {
            s.run(SelectionLogic::Fixed(i % nfuncs)).total.to_bits()
        });
        digest64(&totals)
    };
    let run = |jobs: usize| -> (u64, u64) {
        adcl::simmemo::clear();
        (pass(jobs), pass(jobs)) // prime, then replay from the memo
    };
    let (serial_prime, serial_replay) = run(1);
    assert_eq!(serial_prime, serial_replay, "replay changed outcomes");
    for jobs in [2, 8] {
        let (prime, replay) = run(jobs);
        assert_eq!(prime, serial_prime, "jobs={jobs} prime");
        assert_eq!(replay, serial_prime, "jobs={jobs} replay");
    }
    adcl::simmemo::clear_enabled_override();
}

/// `adcl.simmemo.{hits, misses, replayed_events}` added since `scope`
/// began.
fn memo_counts(scope: &simcore::metrics::Scope) -> [u64; 3] {
    let d = scope.delta();
    ["hits", "misses", "replayed_events"].map(|n| {
        let name = format!("adcl.simmemo.{n}");
        d.iter().find(|(k, _)| *k == name).map_or(0, |&(_, v)| v)
    })
}

#[test]
fn cache_and_memo_counts_are_exact_without_a_flush() {
    // Hits and misses land in the registry the moment they happen: no
    // sweep boundary or flush is needed before a reading is exact.
    let _g = reg_lock();
    adcl::simmemo::set_enabled(true);
    let mut s = spec(CollectiveOp::Ialltoall, 1024);
    s.iters = 5;
    let key = "integration_par/exact-counts";
    adcl::simmemo::clear();
    let scope = simcore::metrics::Scope::begin();
    // One fixed-logic session: all-to-all is rank-symmetric, so the first
    // start of any rank builds the one schedule and every other start
    // reuses it.
    let _ = s.run(SelectionLogic::Fixed(1));
    for _ in 0..2 {
        adcl::simmemo::get_or_run(key, || 7u64);
    }
    let d = scope.delta();
    adcl::simmemo::clear_enabled_override();
    let get = |name: &str| d.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v);
    let starts = (s.nprocs * s.iters) as u64;
    assert_eq!(
        (
            (get("nbc.cache.hits"), get("nbc.cache.misses")),
            (get("adcl.simmemo.hits"), get("adcl.simmemo.misses")),
        ),
        ((starts - 1, 1), (1, 1))
    );
}

#[test]
fn memoized_sweep_never_reaches_the_pool() {
    let _g = reg_lock();
    adcl::simmemo::set_enabled(true);
    simcore::par::set_assumed_parallelism(Some(4));
    let s = spec(CollectiveOp::Ialltoall, 8 * 1024);
    adcl::simmemo::clear();
    let before = simcore::par::pool_sweeps();
    let (cold, replayed) = s.run_all_fixed_jobs_flagged(4);
    // Three fresh runs are worth a fan-out: this sweep does spawn helpers.
    assert_eq!(replayed, 0);
    assert!(
        simcore::par::pool_sweeps() > before,
        "cold sweep ran serially"
    );
    let before = simcore::par::pool_sweeps();
    let warm = s.run_all_fixed_jobs(4);
    assert_eq!(
        simcore::par::pool_sweeps(),
        before,
        "a replay spawned helpers"
    );
    simcore::par::set_assumed_parallelism(None);
    adcl::simmemo::clear_enabled_override();
    assert_eq!(warm, cold);
}

#[test]
fn half_memoized_sweep_is_jobs_invariant() {
    let _g = reg_lock();
    simcore::par::set_assumed_parallelism(Some(8));
    adcl::simmemo::set_enabled(false);
    let s = spec(CollectiveOp::IalltoallExtended, 16 * 1024);
    let reference = s.run_all_fixed_jobs(1);
    assert_eq!(reference.len(), 6);
    adcl::simmemo::set_enabled(true);
    let sweep = |jobs: usize| {
        adcl::simmemo::clear();
        for i in [0, 3, 4] {
            s.run_memo(SelectionLogic::Fixed(i));
        }
        let scope = simcore::metrics::Scope::begin();
        let (rows, replayed) = s.run_all_fixed_jobs_flagged(jobs);
        (rows, replayed, memo_counts(&scope))
    };
    let serial = sweep(1);
    assert_eq!(serial.0, reference, "rows differ from a cold run");
    assert_eq!(serial.1, 3);
    assert_eq!(&serial.2[..2], &[3, 3], "three hits, three misses");
    assert!(serial.2[2] > 0, "replays credit their events");
    for jobs in [2, 8] {
        assert_eq!(sweep(jobs), serial, "jobs={jobs}");
    }
    simcore::par::set_assumed_parallelism(None);
    adcl::simmemo::clear_enabled_override();
}

#[test]
fn concurrent_sweeps_share_caches_without_corruption() {
    // Stress the shared state through the full driver: eight OS threads
    // race identical sweeps, each building its own sessions' schedules.
    // Every thread must see the same results as an uncontended reference
    // run — cross-thread corruption would perturb some thread's totals.
    let _g = reg_lock();
    adcl::simmemo::set_enabled(false);
    let points = metrics_probe_points();
    let run_all = || -> Vec<u64> {
        points
            .iter()
            .map(|s| s.run(SelectionLogic::Fixed(0)).total.to_bits())
            .collect()
    };
    let reference = run_all();
    let outs: Vec<Vec<u64>> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..8).map(|_| sc.spawn(run_all)).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, o) in outs.iter().enumerate() {
        assert_eq!(o, &reference, "thread {i} diverged");
    }
    adcl::simmemo::clear_enabled_override();
}

#[test]
fn worker_reuse_flushes_every_sweep_fully() {
    // The calling thread keeps its cached worlds across sweeps, and each
    // sweep's helpers start cold. Every count must land in the registry
    // by the time a sweep returns: two identical back-to-back sweeps must
    // each add the same registry delta, with nothing retained or dropped
    // between them.
    let _g = reg_lock();
    adcl::simmemo::set_enabled(false);
    let points = metrics_probe_points();
    let sweep = || {
        let before = registry_probe();
        simcore::par::par_map(4, &points, |i, s| {
            s.run(SelectionLogic::Fixed(i % 3)).total.to_bits()
        });
        probe_delta(&before, &registry_probe())
    };
    let first = sweep();
    let second = sweep();
    assert!(
        first
            .iter()
            .any(|(n, v)| *n == "mpisim.sim_events" && v[0] > 0),
        "probe sweep produced no simulation events: {first:?}"
    );
    assert_eq!(first, second);
    adcl::simmemo::clear_enabled_override();
}

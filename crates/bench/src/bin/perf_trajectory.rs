//! Perf trajectory of the simulation engine itself.
//!
//! Measures wall-clock and simulator-event throughput of representative
//! workloads (the building blocks of every figure binary), both serial
//! and through the parallel sweep engine, and writes the results to
//! `BENCH_engine.json` so engine performance can be tracked across
//! commits. Run via `scripts/verify.sh` or directly:
//!
//! ```text
//! cargo run --release -p bench --bin perf_trajectory [--quick] [--jobs N]
//! ```
//!
//! The large-message sweep is measured twice: raw (memoization disabled —
//! every simulation runs fresh, isolating engine throughput) and memoized
//! (repeated passes over the sweep replay cached outcomes, the mode the
//! figure binaries run in; `events_per_sec` then counts replayed events).

use autonbc::driver::{CollectiveOp, MicrobenchSpec};
use autonbc::prelude::*;
use bench::perf::PerfReport;
use bench::{banner, Args};
use fft3d::patterns::run_fft_kernel;
use std::hint::black_box;
use std::time::Instant;

/// The large-message sweep: every Ibcast implementation, fixed selection,
/// across several message sizes (all >= 256 KiB, the rendezvous regime the
/// payload engine targets).
fn sweep_specs(args: &Args) -> Vec<MicrobenchSpec> {
    let sizes: &[usize] = if args.quick {
        &[256 * 1024]
    } else {
        &[256 * 1024, 512 * 1024, 1024 * 1024]
    };
    let iters = args.pick3(10, 30, 60);
    sizes
        .iter()
        .map(|&msg_bytes| MicrobenchSpec {
            platform: Platform::whale(),
            nprocs: args.pick3(8, 16, 32),
            op: CollectiveOp::Ibcast,
            msg_bytes,
            iters,
            compute_total: SimTime::from_millis(iters as u64),
            num_progress: 5,
            noise: NoiseConfig::light(2015),
            reps: 3,
            placement: Placement::Block,
            imbalance: Imbalance::None,
        })
        .collect()
}

fn run_sweep(specs: &[MicrobenchSpec], jobs: usize) {
    for spec in specs {
        black_box(spec.run_all_fixed_jobs(jobs));
    }
}

/// The sweep-scale workload: 64 independent sweep points (4 message sizes
/// × 2 process counts × 8 noise seeds) at realistic `World` sizes, each
/// running one fixed Ibcast implementation (rotated per point). Large
/// enough that pool startup, metrics flushing and world construction are
/// amortized — the entry measures engine scaling, not thread-spawn
/// overhead.
fn sweep_scale_points(args: &Args) -> Vec<MicrobenchSpec> {
    let iters = args.pick3(4, 8, 16);
    let sizes: [usize; 4] = [128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024];
    // Quick mode keeps all 64 points but at 8 ranks; standard mixes in
    // 16-rank worlds.
    let nprocs: [usize; 2] = if args.quick { [8, 8] } else { [8, 16] };
    let mut points = Vec::with_capacity(64);
    for (k, &np) in nprocs.iter().enumerate() {
        for (m, &msg_bytes) in sizes.iter().enumerate() {
            for s in 0..8u64 {
                points.push(MicrobenchSpec {
                    platform: Platform::whale(),
                    nprocs: np,
                    op: CollectiveOp::Ibcast,
                    msg_bytes,
                    iters,
                    compute_total: SimTime::from_millis(iters as u64),
                    num_progress: 5,
                    noise: NoiseConfig::light(simcore::par::derive_seed(
                        4000 + k as u64,
                        (m as u64) * 8 + s,
                    )),
                    reps: 2,
                    placement: Placement::Block,
                    imbalance: Imbalance::None,
                });
            }
        }
    }
    points
}

/// FNV-1a over a list of result bit patterns: a stable order-sensitive
/// digest for the cross-`jobs` byte-identity check.
fn digest64(totals: &[u64]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &t in totals {
        for b in t.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The tiny-sweep workload: many consecutive sub-millisecond sweeps (each
/// spec's fixed-implementation fan-out lasts ~100 µs, far below the
/// pool-handoff floor), so `par_map_costed` must keep every one on the
/// serial path at every `jobs` value (the serial cutoff). Its BENCH rows
/// assert speedup >= 0.95x at jobs 2 and 8: before the cutoff existed,
/// sweeps this small *lost* time to pool handoff at every parallel jobs
/// value. Several specs per pass so the measured wall is ~10 ms — noise
/// at the single-sweep scale would swamp the parity gate.
fn tiny_sweep_specs() -> Vec<MicrobenchSpec> {
    (0..12u64)
        .map(|s| MicrobenchSpec {
            platform: Platform::whale(),
            nprocs: 4,
            op: CollectiveOp::Ibcast,
            msg_bytes: 4 * 1024,
            iters: 6,
            compute_total: SimTime::from_millis(1),
            num_progress: 2,
            noise: NoiseConfig::light(simcore::par::derive_seed(4100, s)),
            reps: 1,
            placement: Placement::Block,
            imbalance: Imbalance::None,
        })
        .collect()
}

fn fft_cfg(args: &Args) -> FftKernelConfig {
    FftKernelConfig {
        n: args.pick3(48, 96, 192),
        planes_per_rank: 4,
        iters: args.pick3(6, 12, 40),
        tile: 2,
        progress_per_tile: 2,
        reps: 2,
        placement: Placement::Block,
    }
}

fn main() {
    let args = Args::parse();
    let jobs = args.effective_jobs();
    banner(
        "BENCH_engine",
        "engine perf trajectory: events/sec, serial vs parallel sweep",
    );
    println!(
        "worker threads: {jobs} (host hardware parallelism {})",
        simcore::par::hardware_parallelism()
    );

    let mut report = PerfReport::new();
    // Per-phase wall-time accounting for `--profile`: "build" is the
    // untimed pre-warm/pre-build work, "sim" the measured regions, and
    // "merge" the digesting, stats and report rendering at the end.
    let t_main = Instant::now();
    let mut build_secs = 0.0f64;

    // Each workload is sampled a few times and the fastest pass is kept
    // (the workloads are deterministic, so only wall-clock varies): the
    // quick-sized runs finish in milliseconds and a single sample on a
    // shared host is too noisy for the verify.sh regression guard.
    const SAMPLES: usize = 3;

    // 1. Event-queue hot loop (no simulation: measures the packed-key
    // heap). No `World::run` happens here, so `sim_events` stays 0; the
    // entry reports raw queue operations per second instead (one push +
    // one pop per item per round).
    const QUEUE_ROUNDS: u64 = 200;
    const QUEUE_ITEMS: u64 = 1024;
    const QUEUE_OPS: u64 = QUEUE_ROUNDS * QUEUE_ITEMS * 2;
    // This row is the shortest in the suite (~10 ms) and the regression
    // guard's noisiest: on a shared host, best-of-3 still swings ±30%.
    // More samples are nearly free at this size and pin the fastest pass.
    const QUEUE_SAMPLES: usize = 9;
    let e = report.measure_best_of_ops("event_queue_push_pop", 1, QUEUE_SAMPLES, QUEUE_OPS, || {
        let mut q = simcore::EventQueue::with_capacity(QUEUE_ITEMS as usize);
        let mut acc = 0u64;
        for round in 0..QUEUE_ROUNDS {
            // Times must stay ahead of the queue's watermark (popping
            // advances "now"), so each round occupies its own window.
            let base = round * 4096;
            for i in 0..QUEUE_ITEMS {
                q.push(simcore::SimTime::from_nanos(base + (i * 7919) % 4096), i);
            }
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
        }
        black_box(acc);
    });
    println!(
        "event_queue_push_pop : {:.3} s, {} queue ops, {:.0} ops/s",
        e.wall_secs, e.queue_ops, e.events_per_sec
    );

    // 2. Verification sweep: every Ibcast implementation, fixed selection,
    // multiple large message sizes. Raw engine throughput first — memo
    // disabled so every simulation runs fresh. Serial baseline, then the
    // parallel sweep engine.
    let specs = sweep_specs(&args);
    adcl::simmemo::set_enabled(false);
    // Untimed pre-build: before any clock starts, every thread the sweep
    // will use leases warm worlds, pre-warms payload slabs and interns
    // the schedules, so the measured region below is simulation only.
    let t = Instant::now();
    MicrobenchSpec::prewarm_sweep(jobs, &specs);
    build_secs += t.elapsed().as_secs_f64();
    let e1 = report.measure_best_of("ibcast_all_fixed", 1, SAMPLES, || run_sweep(&specs, 1));
    println!(
        "ibcast_all_fixed @1  : {:.3} s, {} events, {:.0} ev/s ({} sweep points)",
        e1.wall_secs,
        e1.sim_events,
        e1.events_per_sec,
        specs.len()
    );
    if jobs > 1 {
        let ej = report.measure_best_of("ibcast_all_fixed", jobs, SAMPLES, || {
            run_sweep(&specs, jobs)
        });
        println!(
            "ibcast_all_fixed @{jobs} : {:.3} s, {:.0} ev/s  (speedup {:.2}x)",
            ej.wall_secs,
            ej.events_per_sec,
            report.speedup("ibcast_all_fixed").unwrap_or(0.0)
        );
    }

    // 2b. The same sweep, memoized: repeated passes replay cached outcomes
    // instead of re-simulating (deterministic runs are pure functions of
    // their fingerprint). Pass 1 primes the cache; passes 2..n replay.
    // `events_per_sec` counts replayed events, so this row shows the
    // effective throughput the figure binaries see on re-runs.
    adcl::simmemo::set_enabled(true);
    const MEMO_PASSES: usize = 4;
    let em = report.measure_best_of("ibcast_sweep_memoized", 1, SAMPLES, || {
        // Start every sample from a cold cache so each one measures the
        // same prime-then-replay composition.
        adcl::simmemo::clear();
        for _ in 0..MEMO_PASSES {
            run_sweep(&specs, 1);
        }
    });
    println!(
        "ibcast_sweep_memoized: {:.3} s, {} fresh + {} replayed events, {:.0} ev/s effective",
        em.wall_secs, em.sim_events, em.replayed_events, em.events_per_sec
    );
    adcl::simmemo::clear_enabled_override();

    // 2c. Sweep-scale workload: 64 independent sweep points at realistic
    // World sizes, the workload class the parallel engine exists for. The
    // small entries above finish in milliseconds and mostly measure
    // fixed costs; this one is large enough to amortize pool startup, so
    // its `speedup_vs_serial` reflects engine scaling (on multi-core
    // hosts — a 1-CPU container reports ~1x by construction). Memo stays
    // off so every point simulates fresh, and the per-point totals are
    // digested and compared across jobs values: any cross-thread state
    // leak that broke the determinism contract fails the run here.
    adcl::simmemo::set_enabled(false);
    let points = sweep_scale_points(&args);
    // Untimed pre-build for the scale sweep, covering every jobs value
    // measured below (the @2 row runs even when --jobs 1).
    let t = Instant::now();
    MicrobenchSpec::prewarm_sweep(jobs.max(2), &points);
    build_secs += t.elapsed().as_secs_f64();
    let nfuncs = CollectiveOp::Ibcast
        .fnset(nbc::schedule::CollSpec::new(8, 128 * 1024))
        .len();
    let run_points = |jobs: usize| -> Vec<u64> {
        simcore::par::par_map(jobs, &points, |i, spec| {
            spec.run(SelectionLogic::Fixed(i % nfuncs)).total.to_bits()
        })
    };
    const SS_SAMPLES: usize = 3;
    let totals = std::cell::RefCell::new(Vec::new());
    let e1 = report.measure_best_of("sweep_scale", 1, SS_SAMPLES, || {
        *totals.borrow_mut() = run_points(1);
    });
    let serial_digest = digest64(&totals.borrow());
    println!(
        "sweep_scale @1       : {:.3} s, {} events, {:.0} ev/s ({} points, digest {serial_digest:#018x})",
        e1.wall_secs,
        e1.sim_events,
        e1.events_per_sec,
        points.len()
    );
    let mut par_jobs = vec![2];
    if jobs > 2 {
        par_jobs.push(jobs);
    }
    for j in par_jobs {
        let ej = report.measure_best_of("sweep_scale", j, SS_SAMPLES, || {
            *totals.borrow_mut() = run_points(j);
        });
        let d = digest64(&totals.borrow());
        if d != serial_digest {
            eprintln!(
                "FAIL: sweep_scale digest differs at jobs={j}: {d:#018x} != {serial_digest:#018x}"
            );
            std::process::exit(1);
        }
        println!(
            "sweep_scale @{j}       : {:.3} s, {:.0} ev/s  (speedup {:.2}x, digest matches serial)",
            ej.wall_secs,
            ej.events_per_sec,
            ej.speedup_vs_serial.unwrap_or(0.0)
        );
    }
    println!("sweep_scale: jobs-invariance OK ({} points)", points.len());
    adcl::simmemo::clear_enabled_override();

    // 2d. Tiny sweep: sub-millisecond total, so the serial-cutoff
    // heuristic must keep every jobs value on the serial path — pool
    // handoff would cost more than the sweep itself. The rows double as a
    // hard regression gate: any parallel jobs value slower than 0.95x of
    // serial means the cutoff stopped protecting small sweeps.
    adcl::simmemo::set_enabled(false);
    let tiny = tiny_sweep_specs();
    let run_tiny = |j: usize| {
        for spec in &tiny {
            black_box(spec.run_all_fixed_jobs(j));
        }
    };
    // Sub-ms wall times are noisy even as best-of, and host-load drift
    // between measurement blocks would bias whichever jobs value runs
    // last. Warm up once (worlds, schedules) outside any measurement,
    // then interleave the samples round-robin across jobs values so
    // drift hits every row equally, keeping the per-row minimum.
    run_tiny(1);
    const TINY_SAMPLES: usize = 5;
    const TINY_JOBS: [usize; 3] = [1, 2, 8];
    // All three rows run the identical serial code path (that is the
    // point of the cutoff), so their true costs are equal and the gate
    // is purely a noise-rejection problem. The per-row *median* of
    // interleaved samples is the estimator: interleaving spreads host-
    // load drift across all rows equally, and the median — unlike the
    // minimum the other entries use — cannot be faked by one lucky fast
    // serial sample during a CPU burst on a loaded single-core host.
    // A genuine cutoff regression (pool handoff re-entering the sweep)
    // shifts the parallel medians persistently, which still fails. Up to
    // 3 sampling rounds before declaring failure.
    fn median(samples: &mut [f64]) -> f64 {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    }
    let mut samples: [Vec<f64>; TINY_JOBS.len()] = Default::default();
    let mut events = [0u64; TINY_JOBS.len()];
    let mut med = [0.0f64; TINY_JOBS.len()];
    for round in 0..3 {
        for _ in 0..TINY_SAMPLES {
            for (k, &j) in TINY_JOBS.iter().enumerate() {
                let ev0 = mpisim::sim_events_total();
                let t0 = Instant::now();
                run_tiny(j);
                samples[k].push(t0.elapsed().as_secs_f64());
                events[k] = mpisim::sim_events_total() - ev0;
            }
        }
        for k in 0..TINY_JOBS.len() {
            med[k] = median(&mut samples[k]);
        }
        if med.iter().all(|&w| w <= med[0] / 0.95) {
            break;
        }
        eprintln!("tiny_sweep: round {round} below parity, resampling (host noise?)");
    }
    let e1 = report.record_timed("tiny_sweep", 1, med[0], events[0]);
    println!(
        "tiny_sweep @1        : {:.3} s, {} events ({} sweep points)",
        e1.wall_secs,
        e1.sim_events,
        tiny.len()
    );
    for (k, &j) in TINY_JOBS.iter().enumerate().skip(1) {
        let ej = report.record_timed("tiny_sweep", j, med[k], events[k]);
        let sp = ej.speedup_vs_serial.unwrap_or(0.0);
        println!(
            "tiny_sweep @{j}        : {:.3} s  (speedup {sp:.2}x, serial cutoff)",
            ej.wall_secs
        );
        if sp < 0.95 {
            eprintln!(
                "FAIL: tiny_sweep speedup at jobs={j} is {sp:.2}x < 0.95x: the serial \
                 cutoff must keep sub-ms sweeps at parity with jobs=1"
            );
            std::process::exit(1);
        }
    }
    println!("tiny_sweep: serial-cutoff parity OK (>= 0.95x at jobs = 2 and 8)");
    adcl::simmemo::clear_enabled_override();

    // 2e. world_scale: one 4096-rank world on the synthetic HPC machine
    // (synth-hpc: 512 nodes x 32 cores) — the only large-world timing. Its
    // quick shape is pinned in crates/mpisim/tests/golden_digest.rs.
    let ws_ranks = 4096usize;
    let ws_rounds = args.pick3(3, 6, 10);
    let (ws_small, ws_large) = (2 * 1024usize, 64 * 1024usize);
    let ws_platform = Platform::synth_hpc();
    const WS_SAMPLES: usize = 2;
    let mut ws_wall = f64::INFINITY;
    let mut ws_events = 0;
    for _ in 0..WS_SAMPLES {
        let mut world = mpisim::World::new(
            ws_platform.clone(),
            ws_ranks,
            Placement::RoundRobin,
            NoiseConfig::none(),
        );
        let mut b = mpisim::NeighborExchange::new(ws_ranks, ws_rounds, ws_small, ws_large);
        let t0 = Instant::now();
        world.run(&mut b).expect("world_scale run failed");
        ws_wall = ws_wall.min(t0.elapsed().as_secs_f64());
        ws_events = world.events_processed();
    }
    let e = report.record_timed("world_scale", 1, ws_wall, ws_events);
    println!(
        "world_scale @1       : {:.3} s, {} events, {:.0} ev/s",
        e.wall_secs, e.sim_events, e.events_per_sec
    );

    // 3. FFT kernel point: the §IV-B unit of work (one pattern, two modes).
    let cfg = fft_cfg(&args);
    let procs = args.pick3(8, 8, 16);
    let run_pair = |jobs: usize, est_nanos: u64| {
        let work = [FftMode::LibNbc, FftMode::Adcl(SelectionLogic::BruteForce)];
        black_box(simcore::par::par_map_costed(
            jobs,
            &work,
            est_nanos,
            |_, &mode| {
                run_fft_kernel(
                    &Platform::crill(),
                    procs,
                    &cfg,
                    FftPattern::WindowTiled,
                    mode,
                    NoiseConfig::none(),
                )
                .total_time
            },
        ));
    };
    let e1 = report.measure_best_of("fft_windowtiled_pair", 1, SAMPLES, || {
        run_pair(1, simcore::par::COST_UNKNOWN)
    });
    println!(
        "fft_windowtiled @1   : {:.3} s, {} events, {:.0} ev/s",
        e1.wall_secs, e1.sim_events, e1.events_per_sec
    );
    if jobs > 1 {
        let j = jobs.min(2);
        // Self-calibrated per-item cost from the serial pass (two items,
        // so one costs about half the serial wall time): quick-sized
        // pairs fall under the handoff floor and stay serial; full-sized
        // pairs clear it and split across the pool.
        let est = ((e1.wall_secs / 2.0) * 1e9) as u64;
        let ej = report.measure_best_of("fft_windowtiled_pair", j, SAMPLES, || run_pair(j, est));
        println!(
            "fft_windowtiled @{j}   : {:.3} s, {:.0} ev/s  (speedup {:.2}x)",
            ej.wall_secs,
            ej.events_per_sec,
            report.speedup("fft_windowtiled_pair").unwrap_or(0.0)
        );
    }

    // 4. adcld_serve: the tuning daemon under closed-loop cold/warm/mixed
    // client load (in-process server, real TCP loopback). The warm phase
    // doubles as a hard gate: repeat queries must be answered from the
    // history store or the sim memo — any fresh sweep on warm traffic
    // means the daemon's durable-learning path regressed.
    println!();
    let serve = adcld::loadgen::bench_serve(args.quick, jobs, 4, None).expect("adcld_serve bench");
    for p in &serve.phases {
        println!(
            "adcld_serve {:<6}: {:>4} req, {:>8.1} req/s, p50 {:>6} us, p99 {:>6} us \
             (hist {}, memo {}, fresh {}, err {})",
            p.name,
            p.requests,
            p.rps,
            p.p50_us,
            p.p99_us,
            p.history_hits,
            p.memo_replays,
            p.fresh_sweeps + p.guideline_flagged,
            p.errors
        );
    }
    let warm = serve.phase("warm").expect("warm phase present");
    if warm.errors > 0 || warm.warm_served() != warm.requests {
        eprintln!(
            "FAIL: adcld_serve warm traffic re-simulated {} of {} requests \
             (expected history/memo hits only)",
            warm.requests - warm.warm_served(),
            warm.requests
        );
        std::process::exit(1);
    }
    println!(
        "adcld_serve: warm traffic served from history/memo only ({} requests)",
        warm.requests
    );
    report.set_section("adcld_serve", serve.render_section());

    // 5. Racing selection vs brute force: the cold-decision accelerator.
    // Each config runs fresh (no memo) under both logics with a hard
    // decision-parity gate: the racing winner must equal the brute-force
    // winner. "Events per decision" is the cost of *deciding*: each run
    // is then re-run truncated at its convergence iteration (identical
    // prefix — per-iteration compute and noise seeds are unchanged), and
    // the truncated `sim_events` is the decision cost. Racing must save
    // >= 30% of those events in aggregate. Configs use the collectives
    // with well-separated implementations (the regime racing targets;
    // near-tie families like the 21 Ibcast tree variants are sampled at
    // different iterations under interleaving and may legitimately break
    // ties the other way).
    println!();
    let block = 2usize;
    let racing_reps = 6usize;
    let mut racing_rows = Vec::new();
    let (mut brute_total, mut raced_total) = (0u64, 0u64);
    let mut parity_ok = true;
    for (platform, op, nprocs, msg_bytes, seed) in [
        (Platform::whale(), CollectiveOp::Ialltoall, 8, 4096, 11u64),
        (Platform::whale(), CollectiveOp::Ireduce, 8, 16384, 12),
        (Platform::crill(), CollectiveOp::Iallgather, 8, 8192, 13),
        (
            Platform::bluegene_p(),
            CollectiveOp::Iallreduce,
            8,
            8192,
            14,
        ),
    ] {
        let label = format!("{:?}/{}/m{}", op, platform.name, msg_bytes);
        let spec_with_iters = |iters: usize| MicrobenchSpec {
            platform: platform.clone(),
            nprocs,
            op,
            msg_bytes,
            iters,
            // Keep per-iteration compute at 1 ms regardless of length so
            // a truncated run replays the full run's prefix exactly.
            compute_total: SimTime::from_millis(iters as u64),
            num_progress: 4,
            noise: NoiseConfig::light(seed),
            reps: racing_reps,
            placement: Placement::Block,
            imbalance: Imbalance::None,
        };
        let k = spec_with_iters(1)
            .op
            .fnset(spec_with_iters(1).coll_spec())
            .len();
        let full_iters = k * racing_reps + 2;
        let brute = spec_with_iters(full_iters).run(SelectionLogic::BruteForce);
        let scope = simcore::metrics::Scope::begin();
        let raced = spec_with_iters(full_iters).run(SelectionLogic::Racing(block));
        let eliminated = scope
            .delta()
            .into_iter()
            .find(|(n, _)| *n == "adcl.sweep.eliminated_candidates")
            .map_or(0, |(_, v)| v);
        if raced.winner != brute.winner {
            eprintln!(
                "FAIL: racing winner {:?} != brute-force winner {:?} on {label}",
                raced.winner, brute.winner
            );
            parity_ok = false;
            continue;
        }
        // Decision cost: replay each logic truncated right after commit.
        let decide = |logic: SelectionLogic, converged_at: Option<usize>| {
            let c = converged_at.expect("full run converged");
            spec_with_iters(c + 1).run(logic)
        };
        let brute_dec = decide(SelectionLogic::BruteForce, brute.converged_at);
        let raced_dec = decide(SelectionLogic::Racing(block), raced.converged_at);
        if brute_dec.winner != brute.winner || raced_dec.winner != raced.winner {
            eprintln!("FAIL: truncated decision replay diverged on {label}");
            parity_ok = false;
            continue;
        }
        let saved =
            100.0 * (1.0 - raced_dec.sim_events as f64 / brute_dec.sim_events.max(1) as f64);
        println!(
            "racing {label:<32}: brute {:>5} ev, raced {:>5} ev (-{saved:.1}%), \
             {eliminated}/{k} eliminated, winner {}",
            brute_dec.sim_events,
            raced_dec.sim_events,
            raced.winner.as_deref().unwrap_or("-")
        );
        brute_total += brute_dec.sim_events;
        raced_total += raced_dec.sim_events;
        racing_rows.push(format!(
            "{{ \"config\": \"{label}\", \"candidates\": {k}, \"brute_events\": {}, \
             \"raced_events\": {}, \"eliminated\": {eliminated}, \
             \"winner\": \"{}\", \"parity\": true }}",
            brute_dec.sim_events,
            raced_dec.sim_events,
            raced.winner.as_deref().unwrap_or("")
        ));
    }
    if !parity_ok {
        std::process::exit(1);
    }
    println!("racing: decision parity OK ({} configs)", racing_rows.len());
    let saved_total = 100.0 * (1.0 - raced_total as f64 / brute_total.max(1) as f64);
    if saved_total < 30.0 {
        eprintln!(
            "FAIL: racing saved only {saved_total:.1}% simulated events per decision \
             (>= 30% required): brute {brute_total}, raced {raced_total}"
        );
        std::process::exit(1);
    }
    println!("racing: sim events/decision -{saved_total:.1}% vs brute force (>= 30% required) OK");
    report.set_section(
        "racing",
        format!(
            "{{ \"block\": {block}, \"brute_events\": {brute_total}, \
             \"raced_events\": {raced_total}, \"saved_pct\": {saved_total:.2}, \
             \"parity\": true, \"configs\": [{}] }}",
            racing_rows.join(", ")
        ),
    );

    let t_merge = Instant::now();
    let (hits, misses) = nbc::cache::stats();
    let memo = adcl::simmemo::stats();
    println!();
    println!(
        "schedule cache: {hits} hits / {misses} misses ({:.1}% hit rate)",
        if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64 * 100.0
        } else {
            0.0
        }
    );
    println!(
        "sim memo      : {} hits / {} misses ({:.1}% hit rate), {} events replayed",
        memo.hits,
        memo.misses,
        memo.hit_rate() * 100.0,
        memo.replayed_events
    );
    println!(
        "payload allocs: {} (pool misses)",
        simcore::stats::payload_allocs()
    );

    // Full registry snapshot (process-lifetime totals; also embedded in the
    // JSON report's "metrics" block).
    println!();
    println!("metrics registry:");
    for (name, reading) in simcore::metrics::snapshot() {
        match reading {
            simcore::metrics::Reading::Counter(v) => println!("  {name:<28} {v}"),
            simcore::metrics::Reading::Gauge(v) => println!("  {name:<28} {v} (gauge)"),
            simcore::metrics::Reading::Histogram { count, sum, max } => {
                let mean = sum.checked_div(count).unwrap_or(0);
                println!("  {name:<28} n={count} mean={mean} max={max}");
            }
        }
    }

    let path = "BENCH_engine.json";
    report.write(path).expect("write BENCH_engine.json");
    println!("wrote {path}");

    if args.profile {
        // Per-phase wall-time breakdown next to the main report: "build"
        // is the untimed pre-warm/pre-build, "merge" the digest/stats/
        // report tail, "sim" everything in between (the measured regions
        // and their sampling overhead).
        let merge_secs = t_merge.elapsed().as_secs_f64();
        let sim_secs = (t_main.elapsed().as_secs_f64() - merge_secs - build_secs).max(0.0);
        let ppath = "BENCH_profile.json";
        let body = format!(
            "{{\n  \"schema\": \"adcl-bench-profile-v3\",\n  \"jobs\": {jobs},\n  \
             \"phases\": [\n    {{ \"name\": \"build\", \"wall_secs\": {build_secs:.6} }},\n    \
             {{ \"name\": \"sim\", \"wall_secs\": {sim_secs:.6} }},\n    \
             {{ \"name\": \"merge\", \"wall_secs\": {merge_secs:.6} }}\n  ]\n}}\n",
        );
        std::fs::write(ppath, body).expect("write BENCH_profile.json");
        println!(
            "wrote {ppath} (build {build_secs:.3}s, sim {sim_secs:.3}s, merge {merge_secs:.3}s)"
        );
    }
    bench::write_trace_if_requested();
}

//! Integration tests for the zero-copy payload engine and the
//! simulation-result memo cache: neither layer may change *what* the
//! simulator computes, only how fast the host gets there.
//!
//! Payload mode and memo enablement are process-global toggles, so every
//! test here serializes on one mutex and restores the defaults before
//! releasing it.

use autonbc::driver::{CollectiveOp, MicrobenchSpec};
use autonbc::prelude::*;
use nbc::PayloadMode;
use std::sync::Mutex;

static GLOBAL_TOGGLES: Mutex<()> = Mutex::new(());

fn spec() -> MicrobenchSpec {
    MicrobenchSpec {
        platform: Platform::whale(),
        nprocs: 16,
        op: CollectiveOp::Ibcast,
        msg_bytes: 256 * 1024,
        iters: 12,
        compute_total: SimTime::from_millis(12),
        num_progress: 5,
        noise: NoiseConfig::light(2015),
        reps: 2,
        placement: Placement::Block,
        imbalance: Imbalance::None,
    }
}

/// The verification-table rows with every float reduced to its exact bit
/// pattern — the figure binaries print these with fixed formatting, so
/// bit equality here implies byte-identical table output.
fn table_rows_bits(s: &MicrobenchSpec) -> Vec<(String, u64)> {
    s.run_all_fixed()
        .into_iter()
        .map(|(name, total)| (name, total.to_bits()))
        .collect()
}

/// What a table prints from one tuned run: total and post-learning time
/// and the per-iteration history as bit patterns, and the winner.
type RunBits = (u64, u64, Vec<u64>, Option<String>);

fn run_bits(total: f64, post: f64, history: &[f64], winner: &Option<String>) -> RunBits {
    let history = history.iter().map(|h| h.to_bits()).collect();
    (total.to_bits(), post.to_bits(), history, winner.clone())
}

/// `fft_app`'s Tiny configuration: 8 ranks on crill.
fn fft_tiny() -> (Platform, usize, FftKernelConfig) {
    let cfg = FftKernelConfig {
        n: 32,
        planes_per_rank: 4,
        iters: 10,
        tile: 2,
        progress_per_tile: 2,
        reps: 2,
        placement: Placement::Block,
    };
    (Platform::crill(), 8, cfg)
}

/// Every run the payload-mode comparison covers, under the current
/// default mode: the fixed rows of the verification table, tuned runs at
/// an eager and a rendezvous size for Ialltoall and Ibcast, and the FFT
/// kernel in all four patterns — whose windows of outstanding collectives
/// fan one staged buffer out to many sends — fixed and tuned.
fn payload_mode_runs() -> (Vec<(String, u64)>, Vec<RunBits>) {
    let fixed = table_rows_bits(&spec());
    let mut runs = Vec::new();
    for op in [CollectiveOp::Ialltoall, CollectiveOp::Ibcast] {
        for msg_bytes in [1024, 256 * 1024] {
            let s = MicrobenchSpec {
                op,
                msg_bytes,
                ..spec()
            };
            assert_eq!(s.platform.inter.is_eager(msg_bytes), msg_bytes == 1024);
            for logic in [
                SelectionLogic::BruteForce,
                SelectionLogic::AttributeHeuristic,
            ] {
                let o = s.run(logic);
                runs.push(run_bits(o.total, o.post_learning, &o.history, &o.winner));
            }
        }
    }
    let (platform, p, cfg) = fft_tiny();
    for pattern in FftPattern::all() {
        for mode in [FftMode::LibNbc, FftMode::Adcl(SelectionLogic::BruteForce)] {
            let noise = NoiseConfig::light(2015);
            let r = run_fft_kernel(&platform, p, &cfg, pattern, mode, noise);
            runs.push(run_bits(
                r.total_time,
                r.post_learning_time,
                &r.history,
                &r.winner,
            ));
        }
    }
    (fixed, runs)
}

#[test]
fn payload_modes_produce_byte_identical_tables() {
    let _g = GLOBAL_TOGGLES.lock().unwrap_or_else(|p| p.into_inner());
    adcl::simmemo::set_enabled(false);
    nbc::set_default_payload_mode(PayloadMode::Off);
    let off = payload_mode_runs();
    nbc::set_default_payload_mode(PayloadMode::Pooled);
    let pooled = payload_mode_runs();
    nbc::clear_default_payload_mode();
    adcl::simmemo::clear_enabled_override();
    assert_eq!(
        off.0, pooled.0,
        "pooled payload staging changed the fixed rows"
    );
    assert!(!off.0.is_empty());
    assert_eq!(off.1.len(), 8 + 8);
    for (i, (a, b)) in off.1.iter().zip(&pooled.1).enumerate() {
        assert_eq!(a, b, "pooled payload staging changed tuned run {i}");
    }
}

/// `(staged, heap allocations)` of payload buffers during `f`: what every
/// world of the process staged, as each flushes at the end of its run.
fn payload_work(f: impl FnOnce()) -> (u64, u64) {
    let staged0 = mpisim::payloads_staged_total();
    let alloc0 = simcore::stats::payload_allocs();
    f();
    let staged = mpisim::payloads_staged_total() - staged0;
    (staged, simcore::stats::payload_allocs() - alloc0)
}

#[test]
fn default_mode_stages_no_payloads() {
    let _g = GLOBAL_TOGGLES.lock().unwrap_or_else(|p| p.into_inner());
    let s = spec();
    assert!(!s.platform.inter.is_eager(s.msg_bytes), "want rendezvous");
    let (platform, p, cfg) = fft_tiny();
    let tuned = || {
        s.run(SelectionLogic::BruteForce);
    };
    let fft = || {
        let mode = FftMode::Adcl(SelectionLogic::BruteForce);
        run_fft_kernel(&platform, p, &cfg, FftPattern::WindowTiled, mode, s.noise);
    };
    nbc::clear_default_payload_mode();
    let tuned_off = payload_work(tuned);
    let fft_off = payload_work(fft);
    nbc::set_default_payload_mode(PayloadMode::Pooled);
    let tuned_pooled = payload_work(tuned);
    let fft_pooled = payload_work(fft);
    nbc::clear_default_payload_mode();
    assert_eq!(tuned_off, (0, 0), "default-mode tuning run staged payloads");
    assert_eq!(fft_off, (0, 0), "default-mode FFT kernel staged payloads");
    assert!(tuned_pooled.0 > 0, "Pooled tuning run staged nothing");
    assert!(fft_pooled.0 > 0, "Pooled FFT kernel staged nothing");
}

#[test]
fn memoized_table_is_byte_identical_to_fresh() {
    let _g = GLOBAL_TOGGLES.lock().unwrap_or_else(|p| p.into_inner());
    let mut s = spec();
    // A distinct configuration so entries primed by other tests in this
    // binary cannot mask a fresh-vs-replay difference.
    s.msg_bytes = 384 * 1024;
    adcl::simmemo::set_enabled(false);
    let fresh = table_rows_bits(&s);
    adcl::simmemo::set_enabled(true);
    let primed = table_rows_bits(&s); // misses: runs and caches
    let scope = simcore::metrics::Scope::begin();
    let replayed = table_rows_bits(&s); // hits: pure replay
    let delta = scope.delta();
    let gained = |name| {
        delta
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    };
    adcl::simmemo::clear_enabled_override();
    assert_eq!(fresh, primed, "priming pass diverged from fresh run");
    assert_eq!(fresh, replayed, "replayed table diverged from fresh run");
    assert!(
        gained("adcl.simmemo.hits") >= fresh.len() as u64,
        "third pass should have replayed every row ({delta:?})"
    );
    assert!(
        gained("adcl.simmemo.replayed_events") > 0,
        "replays must credit avoided events"
    );
}

#[test]
fn memo_disabled_runs_do_not_populate_cache() {
    let _g = GLOBAL_TOGGLES.lock().unwrap_or_else(|p| p.into_inner());
    adcl::simmemo::set_enabled(false);
    let mut s = spec();
    s.msg_bytes = 320 * 1024;
    s.nprocs = 8;
    let key = s.memo_key(SelectionLogic::Fixed(0));
    let before = adcl::simmemo::len();
    let out = s.run_memo(SelectionLogic::Fixed(0));
    assert!(out.total > 0.0);
    assert_eq!(
        adcl::simmemo::len(),
        before,
        "disabled memo must not cache (key {key})"
    );
    adcl::simmemo::clear_enabled_override();
}

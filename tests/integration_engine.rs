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

#[test]
fn payload_modes_produce_byte_identical_tables() {
    let _g = GLOBAL_TOGGLES.lock().unwrap_or_else(|p| p.into_inner());
    adcl::simmemo::set_enabled(false);
    let s = spec();
    nbc::set_default_payload_mode(PayloadMode::Off);
    let off = table_rows_bits(&s);
    nbc::set_default_payload_mode(PayloadMode::Pooled);
    let pooled = table_rows_bits(&s);
    nbc::clear_default_payload_mode();
    adcl::simmemo::clear_enabled_override();
    assert_eq!(
        off, pooled,
        "pooled payload staging changed simulated times"
    );
    assert!(!off.is_empty());
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
    simcore::par::run_sweep_flush_hooks();
    let scope = simcore::metrics::Scope::begin();
    let replayed = table_rows_bits(&s); // hits: pure replay
    simcore::par::run_sweep_flush_hooks();
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
fn pooled_sweep_allocates_far_less_than_it_sends() {
    let _g = GLOBAL_TOGGLES.lock().unwrap_or_else(|p| p.into_inner());
    adcl::simmemo::set_enabled(false);
    let s = spec();
    nbc::set_default_payload_mode(PayloadMode::Pooled);
    let a0 = simcore::stats::payload_allocs();
    let e0 = mpisim::sim_events_total();
    s.run_all_fixed();
    let allocs = simcore::stats::payload_allocs() - a0;
    let events = mpisim::sim_events_total() - e0;
    nbc::clear_default_payload_mode();
    adcl::simmemo::clear_enabled_override();
    // A message is at most ten events (rendezvous: RTS, CTS, drain, payload,
    // delivery, and the wake-ups they cause) and every one of this sweep's
    // sends stages a payload, which without recycling is one slab
    // allocation each. With it, a world allocates its peak in-flight set
    // once.
    assert!(events > 50_000, "sweep too small to judge: {events} events");
    assert!(
        allocs * 100 < events,
        "{allocs} slab allocations for {events} events: pool is not recycling"
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

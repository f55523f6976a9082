//! Determinism matrix for racing selection (`SelectionLogic::Racing`):
//! winners, decision audit logs, and racing metric deltas must be
//! byte-identical across worker counts and reruns — and the racing winner
//! must agree with brute force.
//!
//! The trace switch and the audit/metrics registries are process-global,
//! so the tests here take [`GLOBALS`] and never overlap.

use autonbc::driver::{CollectiveOp, MicrobenchSpec};
use autonbc::prelude::*;
use std::sync::{Mutex, MutexGuard};

static GLOBALS: Mutex<()> = Mutex::new(());

fn globals() -> MutexGuard<'static, ()> {
    GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
}

fn specs() -> Vec<MicrobenchSpec> {
    let mk = |platform: Platform, op, nprocs, msg_bytes, seed| MicrobenchSpec {
        platform,
        nprocs,
        op,
        msg_bytes,
        iters: 12,
        compute_total: SimTime::from_millis(12),
        num_progress: 4,
        noise: NoiseConfig::light(seed),
        reps: 3,
        placement: Placement::Block,
        imbalance: Imbalance::None,
    };
    vec![
        mk(Platform::whale(), CollectiveOp::Ialltoall, 8, 4096, 11),
        mk(Platform::crill(), CollectiveOp::Iallgather, 6, 2048, 22),
        mk(Platform::bluegene_p(), CollectiveOp::Ibcast, 8, 8192, 33),
    ]
}

/// Run every spec under `Racing(2)` with `jobs` workers and render one
/// canonical string: per-spec outcome bits, then the decision audit
/// records sorted by label (worker append order is scheduling-dependent,
/// the *contents* must not be), then the racing metric deltas.
fn fingerprint(jobs: usize, specs: &[MicrobenchSpec]) -> String {
    adcl::audit::clear();
    let scope = simcore::metrics::Scope::begin();
    let outs = simcore::par::par_map(jobs, specs, |_, s| s.run(SelectionLogic::Racing(2)));
    let mut fp = String::new();
    for out in &outs {
        fp.push_str(&format!(
            "winner={:?} total={:016x} margin={:016x} events={}\n",
            out.winner,
            out.total.to_bits(),
            out.margin.to_bits(),
            out.sim_events,
        ));
    }
    let mut recs = adcl::audit::records();
    recs.sort_by(|a, b| a.label.cmp(&b.label));
    for r in &recs {
        fp.push_str(&r.to_json());
        fp.push('\n');
    }
    let mut deltas: Vec<(&str, u64)> = scope
        .delta()
        .into_iter()
        .filter(|(name, _)| name.starts_with("adcl.sweep."))
        .collect();
    deltas.sort();
    for (name, v) in deltas {
        fp.push_str(&format!("{name}={v}\n"));
    }
    fp
}

#[test]
fn racing_is_byte_identical_across_jobs_and_reruns() {
    let _g = globals();
    // Audit records only flow when tracing is on; restore on exit.
    simcore::trace::set_enabled(true);

    // Parity: racing must pick the same winner brute force picks, on
    // every matrix spec.
    for spec in &specs() {
        let brute = spec.run(SelectionLogic::BruteForce);
        let raced = spec.run(SelectionLogic::Racing(2));
        assert_eq!(
            raced.winner, brute.winner,
            "racing winner diverged from brute force on {:?}/{}",
            spec.op, spec.msg_bytes
        );
        // Interleaving shifts noise-dependent event counts a little even
        // when nothing is eliminated; racing must never cost materially
        // more. (The >=30% *savings* gate is the test below, on configs
        // where elimination fires.)
        assert!(
            raced.sim_events as f64 <= brute.sim_events as f64 * 1.10,
            "racing simulated materially more than brute force: {} vs {}",
            raced.sim_events,
            brute.sim_events
        );
    }

    // Full matrix: worker count x rerun.
    let specs = specs();
    let base = fingerprint(1, &specs);
    assert!(base.contains("winner=Some"), "no decision");
    for jobs in [2usize, 8] {
        let fp = fingerprint(jobs, &specs);
        assert_eq!(fp, base, "jobs={jobs} diverged");
    }
    let rerun = fingerprint(1, &specs);
    assert_eq!(rerun, base, "rerun diverged");

    simcore::trace::clear_enabled_override();
    adcl::audit::clear();
}

/// Racing on well-separated candidates: the regime it exists for. Four
/// three-candidate configs, each run fresh under brute force and
/// `Racing(2)`; the cost of *deciding* is the `sim_events` of the same run
/// truncated right after its convergence iteration (per-iteration compute
/// and noise seeds do not depend on the run's length, so the truncated run
/// replays the full run's prefix). Near-tie families such as the 21 Ibcast
/// tree variants are left out on purpose: interleaving samples them at
/// different iterations and may legitimately break a tie the other way.
#[test]
fn racing_eliminates_and_saves_events_on_separated_candidates() {
    let _g = globals();
    const BLOCK: usize = 2;
    const REPS: usize = 6;
    let (mut brute_total, mut raced_total) = (0u64, 0u64);
    for (platform, op, msg_bytes, seed) in [
        (Platform::whale(), CollectiveOp::Ialltoall, 4096, 11u64),
        (Platform::whale(), CollectiveOp::Ireduce, 16384, 12),
        (Platform::crill(), CollectiveOp::Iallgather, 8192, 13),
        (Platform::bluegene_p(), CollectiveOp::Iallreduce, 8192, 14),
    ] {
        let label = format!("{op:?}/{}/m{msg_bytes}", platform.name);
        let spec_with_iters = |iters: usize| MicrobenchSpec {
            platform: platform.clone(),
            nprocs: 8,
            op,
            msg_bytes,
            iters,
            // 1 ms of compute per iteration whatever the length, so a
            // truncated run is a prefix of the full one.
            compute_total: SimTime::from_millis(iters as u64),
            num_progress: 4,
            noise: NoiseConfig::light(seed),
            reps: REPS,
            placement: Placement::Block,
            imbalance: Imbalance::None,
        };
        let k = op.fnset(spec_with_iters(1).coll_spec()).len();
        let full = spec_with_iters(k * REPS + 2);
        let brute = full.run(SelectionLogic::BruteForce);
        let scope = simcore::metrics::Scope::begin();
        let raced = full.run(SelectionLogic::Racing(BLOCK));
        let eliminated = scope
            .delta()
            .into_iter()
            .find(|(n, _)| *n == "adcl.sweep.eliminated_candidates")
            .map_or(0, |(_, v)| v);
        assert!(brute.winner.is_some(), "no brute-force decision on {label}");
        assert_eq!(raced.winner, brute.winner, "winner parity on {label}");
        assert!(eliminated > 0, "nothing eliminated on {label}");
        let decide = |logic: SelectionLogic, converged_at: Option<usize>| {
            let c = converged_at.unwrap_or_else(|| panic!("{label} never converged"));
            spec_with_iters(c + 1).run(logic)
        };
        let brute_dec = decide(SelectionLogic::BruteForce, brute.converged_at);
        let raced_dec = decide(SelectionLogic::Racing(BLOCK), raced.converged_at);
        assert_eq!(brute_dec.winner, brute.winner, "truncated brute on {label}");
        assert_eq!(
            raced_dec.winner, raced.winner,
            "truncated racing on {label}"
        );
        brute_total += brute_dec.sim_events;
        raced_total += raced_dec.sim_events;
    }
    let saved = 1.0 - raced_total as f64 / brute_total as f64;
    assert!(
        saved >= 0.30,
        "racing saved {:.1}% of the events per decision (>= 30% required): \
         brute {brute_total}, raced {raced_total}",
        saved * 100.0
    );
}

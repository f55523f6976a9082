//! `sweep_memo`: the simulator used the way the figure binaries use it.
//!
//! A figure-shaped grid (the message-size axis of Fig. 4 and the process
//! axis of Fig. 5, `ialltoall` on crill and whale). Per point the harness
//! calls `run_all_fixed_jobs(nproc)` (the verification runs, fanned out on
//! `simcore::par`) and `run_memo(BruteForce)`, with `adcl::simmemo` on.
//! One repetition clears the memo, primes it with one pass over the grid
//! and replays it three times, so memo and schedule-cache reads sit beside
//! writes in the same measurement.

use super::decide::digest_outcome;
use super::{shuffle, Check, Digest, Rep, Scale, Workload};
use crate::host::nproc;
use crate::spans::Recorder;
use autonbc::adcl::simmemo;
use autonbc::driver::{CollectiveOp, MicrobenchSpec};
use autonbc::prelude::*;
use autonbc::simcore::json::Json;
use autonbc::simcore::par::derive_seed;
use autonbc::simcore::rng::SplitMix64;
use std::time::Instant;

/// Passes over the grid per repetition: one priming, three replaying.
pub const PASSES: usize = 4;

/// The figure-shaped grid, shared with the `simcore.par_speedup` kernel.
pub fn grid_specs(seed: u64, scale: Scale) -> Vec<MicrobenchSpec> {
    let (nprocs, sizes): (&[usize], Vec<usize>) = match scale {
        // 2 platforms x 4 process counts x 12 sizes (1 KiB .. 64 KiB): 96
        // points in 8 world shapes, which is what one thread's world pool
        // holds; a ninth shape would evict and rebuild worlds in an order
        // the seed decides.
        Scale::Full => (
            &[4, 8, 16, 32],
            (0..12).map(|k| 1024 << (k * 6 / 11)).collect(),
        ),
        Scale::Tiny => (&[4], vec![1024, 65536]),
    };
    let mut sizes = sizes;
    // The shift above repeats some powers of two; spread those apart so
    // all sizes on the axis are distinct memo keys.
    for k in 1..sizes.len() {
        if sizes[k] <= sizes[k - 1] {
            sizes[k] = sizes[k - 1] + sizes[k - 1] / 2;
        }
    }
    let mut specs = Vec::new();
    for platform in [Platform::crill(), Platform::whale()] {
        for &p in nprocs {
            for &msg_bytes in &sizes {
                let idx = specs.len() as u64;
                specs.push(MicrobenchSpec {
                    platform: platform.clone(),
                    nprocs: p,
                    op: CollectiveOp::Ialltoall,
                    msg_bytes,
                    iters: 12,
                    compute_total: SimTime::from_millis(24),
                    num_progress: 5,
                    noise: NoiseConfig::light(derive_seed(seed, idx)),
                    reps: 3,
                    placement: Placement::Block,
                    imbalance: Imbalance::None,
                });
            }
        }
    }
    specs
}

/// One pass over `specs` in `order`: the per-point call pair, timed per
/// point. Returns the canonical-order digest of everything the calls
/// returned, plus the number of points whose tuned run had no winner.
pub fn pass(
    specs: &[MicrobenchSpec],
    order: &[usize],
    jobs: usize,
    rec: &mut Recorder,
    lat_us: &mut Vec<f64>,
) -> (u64, u64) {
    let mut per_point = vec![0u64; specs.len()];
    let mut failed = 0;
    for &i in order {
        rec.set_op(i as u64);
        let t = Instant::now();
        let fixed = rec.span("run_all_fixed_jobs", |_| specs[i].run_all_fixed_jobs(jobs));
        let tuned = rec.span("run_memo", |_| {
            specs[i].run_memo(SelectionLogic::BruteForce)
        });
        let lat = t.elapsed();
        let mut d = Digest::new();
        for (name, total) in &fixed {
            d.bytes(name.as_bytes());
            d.u64(total.to_bits());
        }
        digest_outcome(&mut d, &tuned);
        per_point[i] = d.finish();
        if tuned.winner.is_some() {
            lat_us.push(lat.as_secs_f64() * 1e6);
        } else {
            failed += 1;
        }
    }
    let mut d = Digest::new();
    for v in per_point {
        d.u64(v);
    }
    (d.finish(), failed)
}

pub struct SweepMemo {
    specs: Vec<MicrobenchSpec>,
    order: Vec<usize>,
}

impl SweepMemo {
    pub fn new(seed: u64, scale: Scale) -> SweepMemo {
        let specs = grid_specs(seed, scale);
        let mut order: Vec<usize> = (0..specs.len()).collect();
        shuffle(&mut order, &mut SplitMix64::new(seed));
        SweepMemo { specs, order }
    }
}

impl Workload for SweepMemo {
    fn setup(&mut self, rec: &mut Recorder) -> Result<(), String> {
        simmemo::set_enabled(true);
        // What the figure binaries do before their sweeps: warm worlds and
        // schedules on every thread the fan-out will use.
        rec.span("prewarm_sweep", |_| {
            MicrobenchSpec::prewarm_sweep(nproc(), &self.specs)
        });
        Ok(())
    }

    fn rep(&mut self, rec: &mut Recorder) -> Result<Rep, String> {
        simmemo::clear();
        let mut rep = Rep::default();
        let t0 = Instant::now();
        let mut digests = Vec::with_capacity(PASSES);
        for _ in 0..PASSES {
            let (digest, failed) = pass(&self.specs, &self.order, nproc(), rec, &mut rep.lat_us);
            rep.attempted += self.specs.len() as u64;
            rep.failed += failed;
            digests.push(digest);
        }
        rep.wall_s = t0.elapsed().as_secs_f64();
        rep.digest = digests[0];
        // A replay that differs from the priming pass is a wrong answer for
        // every point of that pass.
        let wrong = digests.iter().filter(|&&d| d != digests[0]).count() as u64;
        rep.failed += wrong * self.specs.len() as u64;
        Ok(rep)
    }

    fn checks(&mut self) -> Result<Vec<Check>, String> {
        let mut sink = Vec::new();
        let mut off = Recorder::new(false, Instant::now(), 0);
        simmemo::clear();
        let (serial, _) = pass(&self.specs, &self.order, 1, &mut off, &mut sink);
        simmemo::clear();
        let (parallel, _) = pass(&self.specs, &self.order, nproc(), &mut off, &mut sink);
        Ok(vec![Check::new(
            "jobs_invariant_digest",
            serial == parallel,
            format!("jobs=1 {serial:016x} vs jobs={} {parallel:016x}", nproc()),
        )])
    }

    fn sizes(&self) -> Json {
        Json::obj([
            ("points", Json::num(self.specs.len() as f64)),
            ("passes_per_rep", Json::num(PASSES as f64)),
            ("ops_per_rep", Json::num((self.specs.len() * PASSES) as f64)),
            ("jobs", Json::num(nproc() as f64)),
            ("loop", Json::str("closed, 1 caller + pool workers")),
        ])
    }
}

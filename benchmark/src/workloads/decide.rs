//! `decide_eager` and `decide_rdv`: fresh tuning decisions, memo off.
//!
//! One operation is one `MicrobenchSpec::run(BruteForce)`: the tuner tries
//! every implementation of a collective inside one simulated benchmark loop
//! and picks a winner. The two workloads differ only in message size, which
//! decides what the simulator spends its time on: event count (eager) or
//! rendezvous handshakes, round staging and payload slabs (rendezvous).

use super::{shuffle, Check, Digest, Rep, Scale, Workload};
use crate::spans::Recorder;
use autonbc::driver::{CollectiveOp, MicrobenchOutcome, MicrobenchSpec};
use autonbc::prelude::*;
use autonbc::simcore::json::Json;
use autonbc::simcore::par::derive_seed;
use autonbc::simcore::rng::SplitMix64;
use std::time::Instant;

/// One point of a decision grid.
#[derive(Debug, Clone, Copy)]
pub struct Key {
    pub platform: &'static str,
    pub nprocs: usize,
    pub op: CollectiveOp,
    pub msg_bytes: usize,
}

impl Key {
    /// The benchmark loop the tuner decides in: long enough for brute force
    /// to measure every candidate (`reps` 3, one warm-up each) and still
    /// run 20 iterations on the winner; 1 ms of simulated compute per
    /// iteration; light noise seeded per key from the workload seed.
    pub fn spec(&self, noise_seed: u64) -> MicrobenchSpec {
        let coll = CollSpec::new(self.nprocs, self.msg_bytes);
        let iters = 4 * self.op.fnset(coll).len() + 20;
        MicrobenchSpec {
            platform: Platform::by_name(self.platform).expect("grid names a preset"),
            nprocs: self.nprocs,
            op: self.op,
            msg_bytes: self.msg_bytes,
            iters,
            compute_total: SimTime::from_millis(iters as u64),
            num_progress: 5,
            noise: NoiseConfig::light(noise_seed),
            reps: 3,
            placement: Placement::Block,
            imbalance: Imbalance::None,
        }
    }
}

fn grid(shapes: &[(&'static str, usize)], ops: &[CollectiveOp], sizes: &[usize]) -> Vec<Key> {
    let mut keys = Vec::new();
    for &(platform, nprocs) in shapes {
        for &op in ops {
            for &msg_bytes in sizes {
                keys.push(Key {
                    platform,
                    nprocs,
                    op,
                    msg_bytes,
                });
            }
        }
    }
    keys
}

/// Small messages: 4 shapes x 4 collectives x {256 B, 4 KiB}, plus three
/// 1 KiB keys, 35 in all. Keys differ tenfold in cost, so pooled latencies
/// form one cluster per key; with 35 keys the p50 and p90 ranks (17.5 and
/// 31.5 keys up) fall inside a cluster, not on the gap between two.
fn eager_grid(scale: Scale) -> Vec<Key> {
    use CollectiveOp::*;
    match scale {
        Scale::Full => {
            let mut keys = grid(
                &[
                    ("whale", 32),
                    ("whale", 64),
                    ("crill", 48),
                    ("bluegene-p", 64),
                ],
                &[Ialltoall, Iallgather, Ibcast, Iallreduce],
                &[256, 4096],
            );
            keys.extend(grid(
                &[("whale", 32)],
                &[Ialltoall, Iallgather, Iallreduce],
                &[1024],
            ));
            keys
        }
        Scale::Tiny => grid(&[("whale", 8)], &[Ialltoall, Ibcast], &[256]),
    }
}

/// Large messages (256 KiB - 1 MiB), 35 keys (see [`eager_grid`] for why
/// 35). All-to-all holds p(p-1) payload slabs at once, so it runs at 16
/// ranks; the tree and ring collectives run at 32-48. `ireduce` is kept
/// only where brute force converges inside its 32-iteration loop (not on
/// bluegene-p, not at whale/p48/1 MiB).
fn rdv_grid(scale: Scale) -> Vec<Key> {
    use CollectiveOp::*;
    const K: usize = 1024;
    match scale {
        Scale::Full => {
            let mut keys = grid(
                &[("whale", 32), ("crill", 48), ("bluegene-p", 32)],
                &[Ibcast, Iallreduce],
                &[256 * K, 512 * K, 1024 * K],
            );
            keys.extend(grid(
                &[("whale", 16), ("crill", 16), ("bluegene-p", 16)],
                &[Ialltoall],
                &[256 * K, 512 * K, 1024 * K],
            ));
            keys.extend(grid(
                &[("whale", 32), ("crill", 48)],
                &[Ireduce],
                &[256 * K, 512 * K, 1024 * K],
            ));
            keys.extend(grid(&[("whale", 48)], &[Ibcast, Iallreduce], &[1024 * K]));
            keys
        }
        Scale::Tiny => grid(&[("whale", 8)], &[Ibcast, Ialltoall], &[256 * K]),
    }
}

pub struct Decide {
    name: &'static str,
    /// Canonical order; `order` indexes into it.
    keys: Vec<Key>,
    specs: Vec<MicrobenchSpec>,
    order: Vec<usize>,
}

impl Decide {
    fn new(name: &'static str, keys: Vec<Key>, seed: u64) -> Decide {
        let specs = keys
            .iter()
            .enumerate()
            .map(|(i, k)| k.spec(derive_seed(seed, i as u64)))
            .collect();
        let mut order: Vec<usize> = (0..keys.len()).collect();
        shuffle(&mut order, &mut SplitMix64::new(seed));
        Decide {
            name,
            keys,
            specs,
            order,
        }
    }

    pub fn eager(seed: u64, scale: Scale) -> Decide {
        Decide::new("decide_eager", eager_grid(scale), seed)
    }

    pub fn rdv(seed: u64, scale: Scale) -> Decide {
        Decide::new("decide_rdv", rdv_grid(scale), seed)
    }
}

/// What `sim_digest` covers of one decision.
pub fn digest_outcome(d: &mut Digest, out: &MicrobenchOutcome) {
    d.u64(out.total.to_bits());
    d.u64(out.sim_events);
    d.bytes(out.winner.as_deref().unwrap_or("-").as_bytes());
}

impl Workload for Decide {
    fn setup(&mut self, rec: &mut Recorder) -> Result<(), String> {
        // Every decision must be simulated, not replayed.
        autonbc::adcl::simmemo::set_enabled(false);
        for spec in &self.specs {
            rec.span("prebuild_schedules", |_| spec.prebuild_schedules());
            // Lease once so the world exists in this thread's pool; payload
            // slabs are first touched by the warm-up repetition.
            rec.span("worldpool::with_world", |_| {
                autonbc::mpisim::worldpool::with_world(
                    &spec.platform,
                    spec.nprocs,
                    spec.placement,
                    spec.noise,
                    |_| (),
                )
            });
        }
        Ok(())
    }

    fn rep(&mut self, rec: &mut Recorder) -> Result<Rep, String> {
        let mut outs: Vec<Option<MicrobenchOutcome>> = vec![None; self.specs.len()];
        let mut rep = Rep::default();
        let t0 = Instant::now();
        for &i in &self.order {
            rec.set_op(i as u64);
            let t = Instant::now();
            let out = rec.span("spec.run", |_| {
                self.specs[i].run(SelectionLogic::BruteForce)
            });
            let lat = t.elapsed();
            rep.attempted += 1;
            if out.winner.is_some() {
                rep.lat_us.push(lat.as_secs_f64() * 1e6);
            } else {
                rep.failed += 1;
            }
            outs[i] = Some(out);
        }
        rep.wall_s = t0.elapsed().as_secs_f64();
        let mut d = Digest::new();
        for out in outs.iter().flatten() {
            digest_outcome(&mut d, out);
        }
        rep.digest = d.finish();
        Ok(rep)
    }

    fn checks(&mut self) -> Result<Vec<Check>, String> {
        // Re-running a key gives a bit-identical total and event count.
        let i = self.order[0];
        let a = self.specs[i].run(SelectionLogic::BruteForce);
        let b = self.specs[i].run(SelectionLogic::BruteForce);
        let same = a.total.to_bits() == b.total.to_bits()
            && a.sim_events == b.sim_events
            && a.winner == b.winner;
        Ok(vec![Check::new(
            "rerun_bit_identical",
            same,
            format!(
                "{:?}: total {:e} vs {:e}, events {} vs {}",
                self.keys[i], a.total, b.total, a.sim_events, b.sim_events
            ),
        )])
    }

    fn sizes(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.name)),
            ("keys", Json::num(self.keys.len() as f64)),
            ("ops_per_rep", Json::num(self.keys.len() as f64)),
            ("loop", Json::str("closed, 1 thread")),
        ])
    }
}

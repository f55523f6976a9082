//! `fft_app`: the paper's 3-D FFT application kernel (section IV-B).
//!
//! The only path with windows of concurrently outstanding collectives and
//! multi-operation `adcl::runner` sessions. One operation is one
//! `run_fft_kernel` call in the window-tiled pattern on crill: per
//! repetition one run on LibNBC's fixed algorithm and two under ADCL
//! brute-force tuning. The two modes cost differently, and a 1:2 mix keeps
//! the median inside one mode and the 90th percentile inside the other; a
//! 1:1 mix would put the median on the edge between them.

use super::{Check, Digest, Rep, Scale, Workload};
use crate::spans::Recorder;
use autonbc::prelude::*;
use autonbc::simcore::json::Json;
use autonbc::simcore::par::derive_seed;
use std::time::Instant;

pub struct FftApp {
    platform: Platform,
    nprocs: usize,
    cfg: FftKernelConfig,
    /// `(mode, noise)` per operation.
    ops: Vec<(FftMode, NoiseConfig)>,
}

/// The kernel configuration, shared with the `fft3d.*` kernels.
pub fn kernel_config(scale: Scale) -> (usize, FftKernelConfig) {
    match scale {
        Scale::Full => (
            64,
            FftKernelConfig {
                n: 256,
                planes_per_rank: 8,
                iters: 10,
                tile: 4,
                progress_per_tile: 2,
                reps: 2,
                placement: Placement::Block,
            },
        ),
        Scale::Tiny => (
            8,
            FftKernelConfig {
                n: 32,
                planes_per_rank: 4,
                iters: 10,
                tile: 2,
                progress_per_tile: 2,
                reps: 2,
                placement: Placement::Block,
            },
        ),
    }
}

impl FftApp {
    pub fn new(seed: u64, scale: Scale) -> FftApp {
        let (nprocs, cfg) = kernel_config(scale);
        let tuned = FftMode::Adcl(SelectionLogic::BruteForce);
        let ops = [FftMode::LibNbc, tuned, tuned]
            .into_iter()
            .enumerate()
            .map(|(i, mode)| (mode, NoiseConfig::light(derive_seed(seed, i as u64))))
            .collect();
        FftApp {
            platform: Platform::crill(),
            nprocs,
            cfg,
            ops,
        }
    }

    fn run(&self, mode: FftMode, noise: NoiseConfig) -> autonbc::fft3d::patterns::FftRunResult {
        run_fft_kernel(
            &self.platform,
            self.nprocs,
            &self.cfg,
            FftPattern::WindowTiled,
            mode,
            noise,
        )
    }
}

impl Workload for FftApp {
    fn setup(&mut self, rec: &mut Recorder) -> Result<(), String> {
        autonbc::adcl::simmemo::set_enabled(false);
        rec.span("worldpool::with_world", |_| {
            autonbc::mpisim::worldpool::with_world(
                &self.platform,
                self.nprocs,
                self.cfg.placement,
                NoiseConfig::none(),
                |_| (),
            )
        });
        Ok(())
    }

    fn rep(&mut self, rec: &mut Recorder) -> Result<Rep, String> {
        let mut rep = Rep::default();
        let mut d = Digest::new();
        let t0 = Instant::now();
        for (i, &(mode, noise)) in self.ops.iter().enumerate() {
            rec.set_op(i as u64);
            let t = Instant::now();
            let out = rec.span("run_fft_kernel", |_| self.run(mode, noise));
            let lat = t.elapsed();
            rep.attempted += 1;
            let tuned = matches!(mode, FftMode::Adcl(_));
            if out.total_time.is_finite() && (!tuned || out.winner.is_some()) {
                rep.lat_us.push(lat.as_secs_f64() * 1e6);
            } else {
                rep.failed += 1;
            }
            d.u64(out.total_time.to_bits());
            d.bytes(out.winner.as_deref().unwrap_or("-").as_bytes());
        }
        rep.wall_s = t0.elapsed().as_secs_f64();
        rep.digest = d.finish();
        Ok(rep)
    }

    fn checks(&mut self) -> Result<Vec<Check>, String> {
        let (mode, noise) = self.ops[self.ops.len() - 1];
        let a = self.run(mode, noise);
        let b = self.run(mode, noise);
        Ok(vec![Check::new(
            "rerun_bit_identical",
            a.total_time.to_bits() == b.total_time.to_bits() && a.winner == b.winner,
            format!("total {:e} vs {:e}", a.total_time, b.total_time),
        )])
    }

    fn sizes(&self) -> Json {
        Json::obj([
            ("platform", Json::str(self.platform.name.to_string())),
            ("nprocs", Json::num(self.nprocs as f64)),
            ("n", Json::num(self.cfg.n as f64)),
            ("iters", Json::num(self.cfg.iters as f64)),
            ("ops_per_rep", Json::num(self.ops.len() as f64)),
            ("loop", Json::str("closed, 1 thread")),
        ])
    }
}

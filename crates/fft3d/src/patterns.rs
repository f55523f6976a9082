//! The paper's 3-D FFT application kernel (§IV-B) as simulated ADCL
//! scripts.
//!
//! The kernel transforms an `N × N × (p · planes)` complex grid distributed
//! over `p` processes along z. Each iteration performs the per-plane 2-D
//! transforms, redistributes the grid with an all-to-all (the distributed
//! transpose), and finishes with the z-direction 1-D transforms. The
//! computation/communication sequence is subdivided into *tiles* of planes
//! and a *window* of outstanding all-to-alls (Fig. 8 of the paper):
//!
//! * **pipelined** — window 2, tile 1 (two alternating buffers),
//! * **tiled** — window 2, tile > 1 (coarser compute),
//! * **windowed** — window 3, tile 1 (more outstanding operations),
//! * **window-tiled** — window 3, tile > 1.
//!
//! Each pattern can run with the communication provided by
//!
//! * ADCL (run-time tuned non-blocking all-to-all, optionally the extended
//!   function-set that also contains blocking variants),
//! * LibNBC (fixed linear non-blocking all-to-all — its default and only
//!   implementation, as the paper notes), or
//! * blocking `MPI_Alltoall` (no overlap at all).

use crate::cost::{fft_flops, flops_time, plane_flops, BYTES_PER_POINT};
use adcl::filter::FilterKind;
use adcl::function::FunctionSet;
use adcl::runner::{Instr, Runner, Script, TuningSession};
use adcl::strategy::SelectionLogic;
use adcl::tuner::TunerConfig;
use mpisim::{NoiseConfig, World};
use nbc::schedule::CollSpec;
use netmodel::{Placement, Platform};
use simcore::SimTime;
use std::collections::VecDeque;

/// The four computation/communication interleavings of the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FftPattern {
    /// Window 2, tile 1.
    Pipelined,
    /// Window 2, tile > 1.
    Tiled,
    /// Window 3, tile 1.
    Windowed,
    /// Window 3, tile > 1.
    WindowTiled,
}

impl FftPattern {
    /// All four patterns, in the paper's reporting order.
    pub fn all() -> Vec<FftPattern> {
        vec![
            FftPattern::Pipelined,
            FftPattern::Tiled,
            FftPattern::Windowed,
            FftPattern::WindowTiled,
        ]
    }

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            FftPattern::Pipelined => "pipelined",
            FftPattern::Tiled => "tiled",
            FftPattern::Windowed => "windowed",
            FftPattern::WindowTiled => "window-tiled",
        }
    }

    /// `(window, tile_planes)` defaults; `tile` is the benchmark's default
    /// tile size for the tiled variants.
    pub fn window_tile(self, tile: usize) -> (usize, usize) {
        match self {
            FftPattern::Pipelined => (2, 1),
            FftPattern::Tiled => (2, tile),
            FftPattern::Windowed => (3, 1),
            FftPattern::WindowTiled => (3, tile),
        }
    }
}

/// Which communication library backs the kernel's all-to-alls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FftMode {
    /// ADCL with the default non-blocking function-set and the given
    /// selection logic.
    Adcl(SelectionLogic),
    /// ADCL with the §IV-B extended function-set (blocking variants
    /// included).
    AdclExtended(SelectionLogic),
    /// LibNBC's single default implementation: non-blocking linear.
    LibNbc,
    /// Blocking `MPI_Alltoall`: no overlap.
    BlockingMpi,
}

impl FftMode {
    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            FftMode::Adcl(_) => "adcl",
            FftMode::AdclExtended(_) => "adcl-ext",
            FftMode::LibNbc => "libnbc",
            FftMode::BlockingMpi => "mpi-blocking",
        }
    }
}

/// Kernel workload description.
#[derive(Debug, Clone, Copy)]
pub struct FftKernelConfig {
    /// Plane extent: planes are `n × n`.
    pub n: usize,
    /// Planes owned by each process.
    pub planes_per_rank: usize,
    /// Iterations of the full 3-D FFT.
    pub iters: usize,
    /// Default tile size for the tiled patterns (the paper uses 10).
    pub tile: usize,
    /// Progress calls inserted per tile's compute phase.
    pub progress_per_tile: usize,
    /// Measurements per tested implementation.
    pub reps: usize,
    /// Rank placement policy.
    pub placement: Placement,
}

impl Default for FftKernelConfig {
    fn default() -> Self {
        FftKernelConfig {
            n: 256,
            planes_per_rank: 8,
            iters: 30,
            tile: 4,
            progress_per_tile: 2,
            reps: 3,
            placement: Placement::Block,
        }
    }
}

impl FftKernelConfig {
    /// Number of tiles for a pattern at `p` processes.
    pub fn ntiles(&self, pattern: FftPattern) -> usize {
        let (_, tile) = pattern.window_tile(self.tile);
        let tile = tile.min(self.planes_per_rank).max(1);
        self.planes_per_rank.div_ceil(tile)
    }

    /// Per-pair all-to-all message size for one tile.
    pub fn tile_msg_bytes(&self, pattern: FftPattern, p: usize) -> usize {
        let (_, tile) = pattern.window_tile(self.tile);
        let tile = tile.min(self.planes_per_rank).max(1);
        (tile * self.n * self.n * BYTES_PER_POINT / p).max(1)
    }

    /// 2-D compute time for one tile on a platform.
    pub fn tile_2d_time(&self, pattern: FftPattern, gflops: f64) -> SimTime {
        let (_, tile) = pattern.window_tile(self.tile);
        let tile = tile.min(self.planes_per_rank).max(1);
        flops_time(tile as f64 * plane_flops(self.n), gflops)
    }

    /// Order-of-magnitude estimate of one kernel run's host wall-clock
    /// cost in nanoseconds, for the serial-cutoff heuristic
    /// (`simcore::par::plan_participants`): roughly 2µs of host time per
    /// rank per tile per FFT iteration per measurement rep, the measured
    /// scale of the quick-sized kernels. Only the comparison against the
    /// 120µs hand-off floor matters, so being off by a few× either
    /// way does not change any sensible decision.
    pub fn est_run_nanos(&self, pattern: FftPattern, p: usize) -> u64 {
        2_000u64
            .saturating_mul(p as u64)
            .saturating_mul(self.iters.max(1) as u64)
            .saturating_mul(self.ntiles(pattern) as u64)
            .saturating_mul(self.reps.max(1) as u64)
    }

    /// z-direction compute time attributable to one tile's redistributed
    /// data: the rank owns `n²/p` pencils of length `p · planes_per_rank`.
    pub fn tile_z_time(&self, pattern: FftPattern, p: usize, gflops: f64) -> SimTime {
        let (_, tile) = pattern.window_tile(self.tile);
        let tile = tile.min(self.planes_per_rank).max(1);
        let nz = p * self.planes_per_rank;
        let pencils = self.n as f64 * self.n as f64 / p as f64;
        let share = tile as f64 / self.planes_per_rank as f64;
        flops_time(pencils * share * fft_flops(nz), gflops)
    }
}

/// Lazy per-rank script implementing one pattern.
pub struct FftPatternScript {
    buf: VecDeque<Instr>,
    iter: usize,
    iters: usize,
    template: Vec<Instr>,
}

impl FftPatternScript {
    /// Build the script for one rank.
    pub fn new(
        cfg: &FftKernelConfig,
        pattern: FftPattern,
        p: usize,
        gflops: f64,
        op: usize,
        timer: usize,
    ) -> FftPatternScript {
        let (window, _) = pattern.window_tile(cfg.tile);
        let ntiles = cfg.ntiles(pattern);
        let window = window.min(ntiles).max(1);
        let t2d = cfg.tile_2d_time(pattern, gflops);
        let tz = cfg.tile_z_time(pattern, p, gflops);
        let chunks = cfg.progress_per_tile.max(1);
        let chunk = t2d / chunks as u64;

        let mut template = Vec::new();
        template.push(Instr::TimerStart(timer));
        for t in 0..ntiles {
            if t >= window {
                // The slot we are about to reuse must be drained first;
                // its z-FFT share can then be computed.
                template.push(Instr::Wait {
                    op,
                    slot: t % window,
                });
                template.push(Instr::Compute(tz));
            }
            for _ in 0..chunks {
                template.push(Instr::Compute(chunk));
                template.push(Instr::Progress { op });
            }
            template.push(Instr::Start {
                op,
                slot: t % window,
            });
        }
        // Drain the window.
        for t in ntiles.saturating_sub(window)..ntiles {
            template.push(Instr::Wait {
                op,
                slot: t % window,
            });
            template.push(Instr::Compute(tz));
        }
        template.push(Instr::TimerStop(timer));

        FftPatternScript {
            buf: VecDeque::new(),
            iter: 0,
            iters: cfg.iters,
            template,
        }
    }
}

impl Script for FftPatternScript {
    fn next(&mut self) -> Option<Instr> {
        if self.buf.is_empty() {
            if self.iter >= self.iters {
                return None;
            }
            self.iter += 1;
            self.buf.extend(self.template.iter().cloned());
        }
        self.buf.pop_front()
    }
}

/// Outcome of one kernel run.
#[derive(Debug, Clone)]
pub struct FftRunResult {
    /// Pattern executed.
    pub pattern: &'static str,
    /// Communication mode.
    pub mode: &'static str,
    /// Sum of per-iteration times (seconds) — what the paper plots.
    pub total_time: f64,
    /// Sum excluding the learning phase (Fig. 11's second series).
    pub post_learning_time: f64,
    /// Iteration at which the selection logic converged.
    pub converged_at: Option<usize>,
    /// Winning implementation name, if converged.
    pub winner: Option<String>,
    /// Per-iteration times.
    pub history: Vec<f64>,
    /// Number of iterations executed.
    pub iters: usize,
}

/// Run the kernel once and collect the result.
pub fn run_fft_kernel(
    platform: &Platform,
    p: usize,
    cfg: &FftKernelConfig,
    pattern: FftPattern,
    mode: FftMode,
    noise: NoiseConfig,
) -> FftRunResult {
    mpisim::worldpool::with_world(platform, p, cfg.placement, noise, |world| {
        run_fft_kernel_in(world, platform, p, cfg, pattern, mode)
    })
}

fn run_fft_kernel_in(
    world: &mut World,
    platform: &Platform,
    p: usize,
    cfg: &FftKernelConfig,
    pattern: FftPattern,
    mode: FftMode,
) -> FftRunResult {
    if world.tracing() {
        world.set_trace_label(&format!(
            "fft/{}/{}/{}/p{p}",
            platform.name,
            pattern.name(),
            mode.name()
        ));
    }
    let mut session = TuningSession::new(p);
    let msg = cfg.tile_msg_bytes(pattern, p);
    let spec = CollSpec::new(p, msg);
    let (fnset, logic) = match mode {
        FftMode::Adcl(logic) => (FunctionSet::ialltoall_default(spec), logic),
        FftMode::AdclExtended(logic) => (FunctionSet::ialltoall_extended(spec), logic),
        FftMode::LibNbc => {
            let set = FunctionSet::ialltoall_default(spec).pinned("linear");
            (set, SelectionLogic::Fixed(0))
        }
        FftMode::BlockingMpi => {
            let set = FunctionSet::ialltoall_extended(spec).pinned("linear-blocking");
            (set, SelectionLogic::Fixed(0))
        }
    };
    let op = session.add_op(
        "ialltoall",
        fnset,
        TunerConfig {
            logic,
            reps: cfg.reps,
            warmup: 1,
            filter: FilterKind::default(),
        },
    );
    let timer = session.add_timer(vec![op]);
    let scripts: Vec<Box<dyn Script>> = (0..p)
        .map(|_| {
            Box::new(FftPatternScript::new(
                cfg,
                pattern,
                p,
                platform.gflops_per_core,
                op,
                timer,
            )) as Box<dyn Script>
        })
        .collect();
    let mut runner = Runner::new(session, scripts);
    world.run(&mut runner).expect("fft kernel deadlocked");
    let s = runner.session;
    let tuner = &s.ops[op].tuner;
    let converged = tuner.converged_at();
    let winner = tuner
        .winner()
        .map(|w| s.ops[op].fnset.functions[w].name.clone());
    FftRunResult {
        pattern: pattern.name(),
        mode: mode.name(),
        total_time: s.timers[timer].total(),
        post_learning_time: s.timers[timer].total_from(converged.unwrap_or(0)),
        converged_at: converged,
        winner,
        history: s.timers[timer].history().to_vec(),
        iters: cfg.iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> FftKernelConfig {
        FftKernelConfig {
            n: 64,
            planes_per_rank: 4,
            iters: 12,
            tile: 2,
            progress_per_tile: 2,
            reps: 2,
            placement: Placement::Block,
        }
    }

    #[test]
    fn tile_math() {
        let cfg = small_cfg();
        assert_eq!(cfg.ntiles(FftPattern::Pipelined), 4);
        assert_eq!(cfg.ntiles(FftPattern::Tiled), 2);
        assert!(
            cfg.tile_msg_bytes(FftPattern::Tiled, 8) > cfg.tile_msg_bytes(FftPattern::Pipelined, 8)
        );
    }

    #[test]
    fn script_shape_per_iteration() {
        let cfg = small_cfg();
        let mut s = FftPatternScript::new(&cfg, FftPattern::Pipelined, 8, 2.0, 0, 0);
        let mut starts = 0;
        let mut waits = 0;
        let mut stops = 0;
        while let Some(i) = s.next() {
            match i {
                Instr::Start { .. } => starts += 1,
                Instr::Wait { .. } => waits += 1,
                Instr::TimerStop(_) => stops += 1,
                _ => {}
            }
        }
        // 4 tiles per iteration x 12 iterations.
        assert_eq!(starts, 4 * 12);
        assert_eq!(waits, 4 * 12); // every start eventually waited
        assert_eq!(stops, 12);
    }

    #[test]
    fn kernel_runs_all_patterns_libnbc() {
        let cfg = small_cfg();
        for pattern in FftPattern::all() {
            let r = run_fft_kernel(
                &Platform::whale(),
                8,
                &cfg,
                pattern,
                FftMode::LibNbc,
                NoiseConfig::none(),
            );
            assert_eq!(r.history.len(), cfg.iters, "{pattern:?}");
            assert!(r.total_time > 0.0);
        }
    }

    #[test]
    fn adcl_converges_in_kernel() {
        let cfg = small_cfg();
        let r = run_fft_kernel(
            &Platform::whale(),
            8,
            &cfg,
            FftPattern::WindowTiled,
            FftMode::Adcl(SelectionLogic::BruteForce),
            NoiseConfig::none(),
        );
        assert!(r.winner.is_some(), "3 fns x 2 reps = 6 < 12 iters");
        assert!(r.post_learning_time <= r.total_time);
    }

    #[test]
    fn blocking_mpi_slower_than_overlapped_libnbc() {
        // With real compute to hide communication behind, the blocking
        // version must not be faster than the non-blocking one by more
        // than noise (usually it is strictly slower).
        let mut cfg = small_cfg();
        cfg.iters = 8;
        let nb = run_fft_kernel(
            &Platform::whale(),
            8,
            &cfg,
            FftPattern::WindowTiled,
            FftMode::LibNbc,
            NoiseConfig::none(),
        );
        let bl = run_fft_kernel(
            &Platform::whale(),
            8,
            &cfg,
            FftPattern::WindowTiled,
            FftMode::BlockingMpi,
            NoiseConfig::none(),
        );
        assert!(
            bl.total_time >= nb.total_time * 0.95,
            "blocking {} vs non-blocking {}",
            bl.total_time,
            nb.total_time
        );
    }

    #[test]
    fn extended_set_runs() {
        let cfg = small_cfg();
        let r = run_fft_kernel(
            &Platform::whale(),
            4,
            &cfg,
            FftPattern::Pipelined,
            FftMode::AdclExtended(SelectionLogic::BruteForce),
            NoiseConfig::none(),
        );
        assert_eq!(r.history.len(), cfg.iters);
    }
}

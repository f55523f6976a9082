//! `autonbc` — the public facade of the auto-tuned non-blocking collective
//! stack.
//!
//! This crate re-exports the full layer cake in one place and adds the
//! [`driver`] module: ready-made experiment drivers for the paper's §IV-A
//! micro-benchmark, shared by the examples, the integration tests and the
//! figure-generation benchmarks.
//!
//! # Layer overview
//!
//! | layer | crate | role |
//! |---|---|---|
//! | tuning runtime | [`adcl`] | function-sets, timers, selection logics |
//! | collective engine | [`nbc`] | LibNBC-style schedules + executor |
//! | message passing | [`mpisim`] | non-blocking p2p, progress engine |
//! | network model | [`netmodel`] | LogGP + contention, platform presets |
//! | simulation core | [`simcore`] | virtual time, events, statistics |
//! | application kernel | [`fft3d`] | real FFT + the 3-D FFT patterns |
//!
//! # Quickstart
//!
//! ```
//! use autonbc::driver::{CollectiveOp, MicrobenchSpec};
//! use autonbc::prelude::*;
//!
//! let spec = MicrobenchSpec {
//!     platform: Platform::whale(),
//!     nprocs: 8,
//!     op: CollectiveOp::Ialltoall,
//!     msg_bytes: 1024,
//!     iters: 20,
//!     compute_total: SimTime::from_millis(20),
//!     num_progress: 5,
//!     noise: NoiseConfig::none(),
//!     reps: 3,
//!     placement: Placement::Block,
//!     imbalance: Imbalance::None,
//! };
//! let outcome = spec.run(SelectionLogic::BruteForce);
//! assert!(outcome.winner.is_some());
//! ```

#![forbid(unsafe_code)]

pub use adcl;
pub use fft3d;
pub use mpisim;
pub use nbc;
pub use netmodel;
pub use simcore;

pub mod driver;
pub mod traceout;

/// Commonly used items in one import.
pub mod prelude {
    pub use adcl::filter::FilterKind;
    pub use adcl::function::FunctionSet;
    pub use adcl::history::{HistoryKey, HistoryStore};
    pub use adcl::microbench::{Imbalance, MicroBenchConfig, MicroBenchScript};
    pub use adcl::runner::{Instr, Runner, Script, TuningSession, VecScript};
    pub use adcl::strategy::SelectionLogic;
    pub use adcl::timer::Timer;
    pub use adcl::tuner::{Tuner, TunerConfig};
    pub use fft3d::patterns::{run_fft_kernel, FftKernelConfig, FftMode, FftPattern};
    pub use mpisim::{NoiseConfig, World};
    pub use nbc::schedule::CollSpec;
    pub use netmodel::{Placement, Platform};
    pub use simcore::SimTime;
}

//! `adcl` — run-time auto-tuning of (non-blocking) collective communication
//! operations.
//!
//! This crate is the Rust reimplementation of the paper's contribution: the
//! extensions made to the Abstract Data and Communication Library (ADCL) to
//! tune *non-blocking* collectives at run time. The key ideas, mapped to
//! modules:
//!
//! * **Function-sets and attributes** ([`function`], [`attr`]) — an
//!   operation (e.g. `Ialltoall`) is a *function-set* containing many
//!   alternative *functions* (implementations), each characterized by a
//!   vector of attribute values (algorithm, fan-out, segment size, blocking
//!   vs non-blocking, ...).
//! * **Timer objects** ([`timer`]) — non-blocking operations cannot be
//!   timed directly (the operation is only partially visible to the
//!   application), so ADCL measures a user-bracketed code section instead
//!   and attributes the elapsed time to the function used in it.
//! * **Runtime selection logics** ([`strategy`], [`tuner`]) — brute-force
//!   search, the attribute-based heuristic, and a 2^k factorial screening
//!   design, fed by statistically filtered measurements ([`filter`]).
//! * **The progress interface** ([`runner`]) — an `ADCL_Progress`-style
//!   call that drives the underlying LibNBC-like schedules, whose
//!   count/frequency is itself a tunable property of the application.
//! * **Historic learning** ([`history`]) — winners persisted across runs.
//! * **The decision audit log** ([`audit`]) — when `NBC_TRACE` is set,
//!   every live tuning decision is recorded with its full evidence
//!   (candidate scores, filtered sample counts, winner margin).
//! * **The micro-benchmark** ([`microbench`]) — the paper's §IV-A loop:
//!   initiate, compute in chunks with interleaved progress calls, wait.
//!
//! Everything executes against the simulated cluster ([`mpisim::World`]),
//! so experiments from the paper can be reproduced deterministically on a
//! laptop; see `DESIGN.md` for the substitution rationale.

#![forbid(unsafe_code)]

pub mod attr;
pub mod audit;
pub mod filter;
pub mod function;
pub mod guidelines;
pub mod history;
pub mod microbench;
pub mod runner;
pub mod simmemo;
pub mod strategy;
pub mod timer;
pub mod tuner;

pub use function::{Function, FunctionSet};
pub use runner::{Instr, Runner, Script, TunedOp, TuningSession};
pub use strategy::SelectionLogic;
pub use timer::Timer;
pub use tuner::{Tuner, TunerConfig};

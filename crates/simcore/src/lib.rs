//! `simcore` — deterministic discrete-event simulation substrate.
//!
//! This crate provides the low-level building blocks used by the simulated
//! cluster in which the ADCL auto-tuning runtime is evaluated:
//!
//! * [`SimTime`] — integer-nanosecond virtual time (exact, reproducible),
//! * [`EventQueue`] — a monotone priority queue with stable FIFO tie-breaking,
//! * [`FifoResource`] — a serializing resource (NIC link, memory bus) with
//!   backlog accounting, used for contention/incast modelling,
//! * [`stats`] — robust statistics (median, IQR outlier filtering, trimmed
//!   means) used by the ADCL measurement filter,
//! * [`rng`] — small deterministic PRNGs for noise injection and workload
//!   generation,
//! * [`par`] — a dependency-free parallel sweep engine (`std::thread::scope`
//!   with a chunked work queue) that runs independent simulations on many
//!   cores while keeping output bit-identical to a serial run,
//! * [`check`] — a tiny deterministic property-test harness so the test
//!   suite needs no external crates,
//! * [`metrics`] — a process-wide registry of named counters/gauges/
//!   histograms, read by name by the `benchmark/` ledger,
//! * [`trace`] — a zero-overhead-when-off span/instant recorder stamped
//!   with simulated time, exportable as Chrome `trace_event` JSON,
//! * [`json`] — a minimal JSON parser so trace consumers need no deps.
//!
//! Nothing in this crate knows about MPI, networks or collectives; it is the
//! bottom layer of the stack described in `DESIGN.md`.

#![forbid(unsafe_code)]

pub mod check;
pub mod json;
pub mod metrics;
pub mod par;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use queue::EventQueue;
pub use resource::FifoResource;
pub use time::SimTime;

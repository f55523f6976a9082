//! `adcld` — tuning-as-a-service for the ADCL runtime.
//!
//! The paper's runtime selection (§III–IV) and historic learning (§IV-B)
//! are strictly per-process: every application run re-learns or re-loads
//! winners itself. This crate provides the production shape — a
//! long-running daemon that answers *"which implementation for
//! (collective, platform, nprocs, msgsize)?"* for many concurrent clients
//! (ROADMAP open item 2, in the spirit of MPI Advance's reusable
//! optimization layer):
//!
//! * [`protocol`] — the newline-delimited JSON wire format, parsed and
//!   rendered with `simcore::json` (the workspace stays dependency-free).
//! * [`service`] — the scheduler: coalesces duplicate in-flight queries
//!   onto one sweep, consults the persistent [`adcl::history`] store and
//!   the `adcl::simmemo` replay cache before simulating, and runs missing
//!   points through a `simcore::par` sweep via
//!   `autonbc::driver::MicrobenchSpec`.
//! * [`server`] — TCP (localhost) transport: thread-per-connection framing
//!   over the service, plus graceful / abortive shutdown for tests.
//! * [`loadgen`] — the `adcld_bench` load generator: N concurrent clients,
//!   cold/warm/mixed phases, requests/sec and p50/p99 latency.
//!
//! Every served decision carries a `source` tag — `history-hit`,
//! `memo-replay`, `fresh-sweep` or `guideline-flagged` — so clients (and
//! the `adclServed` trace section) can tell a warm O(1) answer from a
//! fresh measurement, and durability comes from the hardened
//! `HistoryStore` (atomic renames, periodic checkpoints, context-stamped
//! staleness).

#![forbid(unsafe_code)]

pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod service;

pub use protocol::{Decision, Request, RequestError};
pub use server::{Server, ServerHandle};
pub use service::{Query, Served, Service, ServiceConfig, ServiceStats};

//! The fault context a simulation runs under: always healthy.
//!
//! The simulator models no network faults; the only disturbances are the
//! seeded skew and noise of [`crate::NoiseConfig`]. This module survives
//! only so that callers which stamp stored results with a context string
//! (the ledger's `serve` workload seeds the daemon's history file with
//! `fault::current().describe()`) keep building and keep writing the
//! context the daemon serves under, [`CONTEXT`].

/// The context string of every run: the history files and the daemon
/// compare it byte for byte, so it must stay `"off"`.
pub const CONTEXT: &str = "off";

/// The fault context of this process (there is only one).
#[derive(Debug, Clone, Copy)]
pub struct FaultContext;

impl FaultContext {
    /// The context string, [`CONTEXT`].
    pub fn describe(&self) -> String {
        CONTEXT.to_string()
    }
}

/// The fault context new runs use: always healthy.
pub fn current() -> FaultContext {
    FaultContext
}

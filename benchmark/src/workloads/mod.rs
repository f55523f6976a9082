//! The six workloads. Each is a fixed, seed-generated batch of operations
//! that the generic runner in `run.rs` repeats: one untimed warm-up
//! repetition (the end of set-up), then timed repetitions.

pub mod decide;
pub mod fft;
pub mod serve;
pub mod sweep;

use crate::spans::Recorder;
use autonbc::simcore::json::Json;
use std::collections::BTreeMap;

/// Workload names, in ledger order. `BENCHMARK.json` declares the same set.
pub const NAMES: [&str; 6] = [
    "decide_eager",
    "decide_rdv",
    "sweep_memo",
    "fft_app",
    "serve_warm",
    "serve_mixed",
];

/// What one repetition of a workload's batch produced.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds from the first operation's start to the last one's end.
    pub wall_s: f64,
    /// Latency of every operation that succeeded, in microseconds.
    pub lat_us: Vec<f64>,
    pub attempted: u64,
    /// No winner, an error reply, an I/O error, or a reply that is wrong.
    pub failed: u64,
    /// Digest of the program's outputs in canonical (seed-independent
    /// order-independent) form; equal across repetitions and across
    /// commits that leave the simulation unchanged.
    pub digest: u64,
    /// Per-layer observations only this workload can make (daemon
    /// counters, generator lateness, ...), by per-layer metric name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Harness-side counts the reconciliation needs (requests by kind).
    pub counts: BTreeMap<&'static str, u64>,
    /// `serve_mixed` only: median latency of cold requests under load,
    /// which the unloaded `adcld.cold_decision_ms_p50` is compared with.
    pub cold_loaded_ms_p50: Option<f64>,
}

/// One named correctness check.
#[derive(Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

pub trait Workload {
    /// Everything before the warm-up repetition: worlds, schedules,
    /// history seeding, daemon start.
    fn setup(&mut self, rec: &mut Recorder) -> Result<(), String>;
    /// Run the batch once.
    fn rep(&mut self, rec: &mut Recorder) -> Result<Rep, String>;
    /// Workload-specific correctness checks, run after the timed
    /// repetitions by the same command.
    fn checks(&mut self) -> Result<Vec<Check>, String>;
    /// The calibrated sizes, for the record.
    fn sizes(&self) -> Json;
}

/// Sizes are either the calibrated ones or, under `--check`, tiny ones that
/// run every code path in well under a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

pub fn build(name: &str, seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "decide_eager" => Box::new(decide::Decide::eager(seed, scale)),
        "decide_rdv" => Box::new(decide::Decide::rdv(seed, scale)),
        "sweep_memo" => Box::new(sweep::SweepMemo::new(seed, scale)),
        "fft_app" => Box::new(fft::FftApp::new(seed, scale)),
        "serve_warm" => Box::new(serve::Serve::warm(seed, scale)),
        "serve_mixed" => Box::new(serve::Serve::mixed(seed, scale)),
        other => {
            return Err(format!(
                "unknown workload {other:?} (one of {})",
                NAMES.join(", ")
            ))
        }
    })
}

/// FNV-1a over a byte stream: the `sim_digest` accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fisher-Yates with the harness's own generator: the seed decides the
/// order operations are issued in, never which operations exist.
pub fn shuffle<T>(items: &mut [T], rng: &mut autonbc::simcore::rng::SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

//! Self-checking performance guidelines: the decision-quality observatory.
//!
//! PR 3 made the simulator's *mechanics* observable; this module watches
//! whether ADCL's *decisions* are any good. Following Hunold &
//! Carpen-Amarie ("Tuning MPI Collectives by Verifying Performance
//! Guidelines"), tuning quality is expressed as checkable invariants over
//! measured collective times:
//!
//! * **monotonicity** — a fixed algorithm must not get faster when the
//!   message (or the communicator) grows: `T(m₁) ≤ T(m₂)` for `m₁ ≤ m₂`;
//! * **pattern dominance** — an operation that moves strictly less data
//!   must not be slower than one that moves more: `Iscatter(n) ≤
//!   Ibcast(n)`, `Igather(s) ≤ Iallgather(s)`, `Ireduce(n) ≤
//!   Iallreduce(n)` (each side taken as the best of its function-set);
//! * **composition** — a collective must not lose to a *mock-up* stitched
//!   from other builders via [`nbc::schedule::sequence`]: `Ibcast(n) ≤
//!   Iscatter(n) + Iallgather(n)`, `Iallreduce(n) ≤ Ireduce(n) +
//!   Ibcast(n)`, `Ibarrier ≤ Iallgather(1 B)`.
//!
//! A violated monotonicity guideline compares a *fixed* algorithm with
//! itself, so it is a schedule-builder or cost-model bug and escalates to
//! **severe** above its threshold. Dominance and composition guidelines
//! compare the best of two *different* sets; a violation there means the
//! lhs set lacks an algorithm — a *tuning opportunity* (e.g. ring
//! allreduce beating every non-pipelined reduce at large messages, or the
//! van-de-Geijn scatter+allgather broadcast) — and stays informational at
//! any finite slack. An lhs that cannot complete at all (infinite time)
//! is severe under every guideline.
//! `scripts/verify.sh` gates on zero severe violations.
//!
//! Every probe is a pure function of its config fingerprint and runs in
//! a parallel sweep via [`simcore::par`], memoized through
//! [`crate::simmemo`] (`guide/…` keys), so repeat checks are cache hits
//! and the sweep report is byte-identical for any `--jobs` value.
//!
//! The same probe machinery cross-checks the tuner's audit log: a
//! committed winner that a clean fixed-schedule measurement proves
//! dominated by a sibling implementation becomes a [`GuidelineFlag`],
//! exported as the `guidelineFlags` section of the combined trace document
//! (see `autonbc::traceout`) and summarized by `trace_inspect`.

use crate::audit::DecisionAudit;
use crate::filter::FilterKind;
use crate::function::{Function, FunctionSet};
use crate::microbench::{MicroBenchConfig, MicroBenchScript};
use crate::runner::{Runner, TuningSession};
use crate::simmemo;
use crate::strategy::SelectionLogic;
use crate::tuner::TunerConfig;
use mpisim::NoiseConfig;
use nbc::allgather::{build_allgather, AllgatherAlgo};
use nbc::barrier::{self, build_barrier};
use nbc::bcast::{build_bcast, BcastAlgo};
use nbc::gather::{build_gather, build_scatter, GatherAlgo};
use nbc::reduce::{build_reduce, ReduceAlgo};
use nbc::schedule::{sequence, CollSpec};
use netmodel::{Placement, Platform};
use simcore::{metrics, trace, SimTime};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Loop shape shared by every probe, so totals are directly comparable:
/// a short §IV-A microbenchmark loop with a small compute phase.
const PROBE_ITERS: usize = 4;
const PROBE_PROGRESS: usize = 2;
const PROBE_COMPUTE_US_PER_ITER: u64 = 20;

/// Relative advantage a sibling implementation must show over the audit
/// winner before the winner counts as dominated (see [`cross_check_audit`]).
pub const FLAG_TOLERANCE: f64 = 0.10;

/// Segment size used by mock-up broadcast phases.
const MOCK_BCAST_SEG: usize = 128 * 1024;

// ---------------------------------------------------------------------------
// Probe operations
// ---------------------------------------------------------------------------

/// An operation (or mock-up) the guideline engine can measure: each value
/// names a function-set whose members are probed one at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProbeOp {
    /// Broadcast, full payload `m`.
    Ibcast,
    /// All-to-all, per-pair block `m`.
    Ialltoall,
    /// All-gather, per-rank block `m`.
    Iallgather,
    /// Reduce, full payload `m`.
    Ireduce,
    /// All-reduce, full payload `m`.
    Iallreduce,
    /// Gather, per-rank block `m`.
    Igather,
    /// Scatter, per-rank block `m`.
    Iscatter,
    /// Dissemination barrier (message size ignored).
    Ibarrier,
    /// Scatter moving `m` bytes *total* (per-rank block `⌈m/p⌉`) — the
    /// dominance counterpart of `Ibcast(m)`.
    IscatterOfTotal,
    /// Mock-up broadcast: scatter(⌈m/p⌉) then allgather(⌈m/p⌉), stitched.
    MockBcast,
    /// Mock-up all-reduce: reduce(m) then bcast(m), stitched.
    MockAllreduce,
    /// Mock-up barrier: a 1-byte all-gather.
    MockBarrier,
    /// Mock-up all-gather: gather(m) then bcast(p·m), stitched.
    MockAllgather,
}

impl ProbeOp {
    /// Report name of the operation / mock-up.
    pub fn name(self) -> &'static str {
        match self {
            ProbeOp::Ibcast => "ibcast",
            ProbeOp::Ialltoall => "ialltoall",
            ProbeOp::Iallgather => "iallgather",
            ProbeOp::Ireduce => "ireduce",
            ProbeOp::Iallreduce => "iallreduce",
            ProbeOp::Igather => "igather",
            ProbeOp::Iscatter => "iscatter",
            ProbeOp::Ibarrier => "ibarrier",
            ProbeOp::IscatterOfTotal => "iscatter-total",
            ProbeOp::MockBcast => "mock-ibcast",
            ProbeOp::MockAllreduce => "mock-iallreduce",
            ProbeOp::MockBarrier => "mock-ibarrier",
            ProbeOp::MockAllgather => "mock-iallgather",
        }
    }

    /// Whether the operation's cost depends on the sweep's message size
    /// (barriers are probed once per rank count).
    pub fn msg_sensitive(self) -> bool {
        !matches!(self, ProbeOp::Ibarrier | ProbeOp::MockBarrier)
    }

    /// The probe function-set for `nprocs` ranks at sweep message size
    /// `msg` (mapped to the op's native convention, see the variant docs).
    pub fn set(self, nprocs: usize, msg: usize) -> FunctionSet {
        let spec = CollSpec::new(nprocs, msg);
        match self {
            ProbeOp::Ibcast => FunctionSet::ibcast_default(spec),
            ProbeOp::Ialltoall => FunctionSet::ialltoall_default(spec),
            ProbeOp::Iallgather => FunctionSet::iallgather_default(spec),
            ProbeOp::Ireduce => FunctionSet::ireduce_default(spec),
            ProbeOp::Iallreduce => FunctionSet::iallreduce_default(spec),
            ProbeOp::Igather => FunctionSet::igather_default(spec),
            ProbeOp::Iscatter => FunctionSet::iscatter_default(spec),
            ProbeOp::Ibarrier => ibarrier_set(nprocs),
            ProbeOp::IscatterOfTotal => {
                FunctionSet::iscatter_default(CollSpec::new(nprocs, per_rank_block(msg, nprocs)))
            }
            ProbeOp::MockBcast => mock_bcast_set(spec),
            ProbeOp::MockAllreduce => mock_allreduce_set(spec),
            ProbeOp::MockBarrier => mock_barrier_set(nprocs),
            ProbeOp::MockAllgather => mock_allgather_set(spec),
        }
    }

    /// Map an audit-label operation name back to a probe op. Extended
    /// sets fold onto their non-blocking base (the schedules are
    /// identical; only the wait discipline differs).
    pub fn from_op_name(name: &str) -> Option<ProbeOp> {
        match name {
            "ibcast" => Some(ProbeOp::Ibcast),
            "ialltoall" | "ialltoall-ext" => Some(ProbeOp::Ialltoall),
            "iallgather" => Some(ProbeOp::Iallgather),
            "ireduce" => Some(ProbeOp::Ireduce),
            "iallreduce" => Some(ProbeOp::Iallreduce),
            "igather" => Some(ProbeOp::Igather),
            "iscatter" => Some(ProbeOp::Iscatter),
            "ibarrier" => Some(ProbeOp::Ibarrier),
            _ => None,
        }
    }
}

fn per_rank_block(total: usize, nprocs: usize) -> usize {
    total.div_ceil(nprocs.max(1)).max(1)
}

fn ibarrier_set(nprocs: usize) -> FunctionSet {
    let dissemination = ("dissemination", barrier::SYMMETRIC, build_barrier);
    FunctionSet::indexed(
        "ibarrier",
        "algorithm",
        CollSpec::new(nprocs, 1),
        [dissemination],
    )
}

/// Scatter × allgather mock-ups of a broadcast of `spec.msg_bytes` bytes:
/// both phases move per-rank blocks of `⌈m/p⌉`, so the stitched schedule
/// delivers the full payload everywhere (the van-de-Geijn construction).
fn mock_bcast_set(spec: CollSpec) -> FunctionSet {
    let pairs = GatherAlgo::all()
        .into_iter()
        .flat_map(|s| AllgatherAlgo::all().into_iter().map(move |a| (s, a)));
    let mocks = pairs.map(|(s_algo, a_algo)| {
        let build = move |rank, spec: &CollSpec| {
            let sub = CollSpec {
                nprocs: spec.nprocs,
                msg_bytes: per_rank_block(spec.msg_bytes, spec.nprocs),
                root: spec.root,
            };
            sequence(&[
                &build_scatter(s_algo, rank, &sub),
                &build_allgather(a_algo, rank, &sub),
            ])
        };
        let name = format!("scatter-{}+allgather-{}", s_algo.name(), a_algo.name());
        (name, false, build)
    });
    FunctionSet::indexed("mock-ibcast", "combination", spec, mocks)
}

/// Reduce-then-broadcast mock-ups of an all-reduce of `spec.msg_bytes`.
fn mock_allreduce_set(spec: CollSpec) -> FunctionSet {
    let mocks = ReduceAlgo::all().into_iter().map(|r_algo| {
        let build = move |rank, spec: &CollSpec| {
            sequence(&[
                &build_reduce(r_algo, rank, spec),
                &build_bcast(BcastAlgo::Binomial, MOCK_BCAST_SEG, rank, spec),
            ])
        };
        (
            format!("reduce-{}+bcast-binomial", r_algo.name()),
            false,
            build,
        )
    });
    FunctionSet::indexed("mock-iallreduce", "combination", spec, mocks)
}

/// 1-byte all-gather mock-ups of a barrier (the "zero-byte all-gather":
/// schedule builders reject zero-byte transfers, so the smallest legal
/// signal payload stands in).
fn mock_barrier_set(nprocs: usize) -> FunctionSet {
    let mut set = FunctionSet::iallgather_default(CollSpec::new(nprocs, 1));
    set.name = "mock-ibarrier".into();
    for f in &mut set.functions {
        f.name = format!("allgather-{}-1B", f.name);
    }
    set
}

/// Gather-then-broadcast mock-ups of an all-gather with per-rank block
/// `spec.msg_bytes`: gather the blocks at the root, broadcast all `p·m`
/// bytes back out.
fn mock_allgather_set(spec: CollSpec) -> FunctionSet {
    let mocks = GatherAlgo::all().into_iter().map(|g_algo| {
        let build = move |rank, spec: &CollSpec| {
            let bcast_spec = CollSpec {
                nprocs: spec.nprocs,
                msg_bytes: spec.msg_bytes * spec.nprocs,
                root: spec.root,
            };
            sequence(&[
                &build_gather(g_algo, rank, spec),
                &build_bcast(BcastAlgo::Binomial, MOCK_BCAST_SEG, rank, &bcast_spec),
            ])
        };
        (
            format!("gather-{}+bcast-binomial", g_algo.name()),
            false,
            build,
        )
    });
    FunctionSet::indexed("mock-iallgather", "combination", spec, mocks)
}

// ---------------------------------------------------------------------------
// The probe engine
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct ProbeOutcome {
    secs: f64,
    sim_events: u64,
}

/// The memo fingerprint of probing implementation `func` of `set` on
/// `platform`: it covers every input that can influence the result, so a
/// repeat probe is a cache hit and byte-identical by construction.
fn probe_key(platform: &Platform, set: &FunctionSet, func: usize) -> String {
    format!(
        "guide/{plat}/{set_name}/{func_name}/p{np}/m{mb}/i{it}/g{g}/c{c}",
        plat = platform.name,
        set_name = set.name,
        func_name = set.functions[func].name,
        np = set.spec.nprocs,
        mb = set.spec.msg_bytes,
        it = PROBE_ITERS,
        g = PROBE_PROGRESS,
        c = PROBE_COMPUTE_US_PER_ITER,
    )
}

/// Measure each implementation `reqs[i]` names under the fixed probe loop,
/// memoized under `keys[i]`, its [`probe_key`]. Replays are answered on
/// the calling thread without building anything; only the misses fan out
/// over `jobs` workers, each building its function set. Returns
/// `(seconds, replayed)` per request, in request order.
fn probe_all(
    jobs: usize,
    platforms: &[Platform],
    reqs: &[ProbeReq],
    keys: &[String],
) -> Vec<(f64, bool)> {
    let est_nanos = 2_000u64 * PROBE_ITERS as u64 * 8;
    simmemo::get_or_run_all(jobs, keys, est_nanos, |i| {
        let r = &reqs[i];
        run_probe(&platforms[r.plat], &r.op.set(r.nprocs, r.msg), r.func)
    })
    .into_iter()
    .map(|(out, replayed): (Arc<ProbeOutcome>, bool)| {
        if replayed {
            simmemo::credit_replay(out.sim_events);
        }
        (out.secs, replayed)
    })
    .collect()
}

fn run_probe(platform: &Platform, set: &FunctionSet, func: usize) -> ProbeOutcome {
    let nprocs = set.spec.nprocs;
    let f = &set.functions[func];
    let single = FunctionSet {
        name: set.name.clone(),
        attr_names: vec!["probe".into()],
        functions: vec![Function {
            name: f.name.clone(),
            attrs: vec![0],
            blocking: false,
            symmetric: f.symmetric,
            builder: f.builder.clone(),
        }],
        spec: set.spec,
    };
    mpisim::worldpool::with_world(
        platform,
        nprocs,
        Placement::Block,
        NoiseConfig::none(),
        |world| {
            let mut session = TuningSession::new(nprocs);
            let op_name = single.name.clone();
            let op = session.add_op(
                &op_name,
                single,
                TunerConfig {
                    logic: SelectionLogic::Fixed(0),
                    reps: 1,
                    warmup: 0,
                    filter: FilterKind::default(),
                },
            );
            let timer = session.add_timer(vec![op]);
            let cfg = MicroBenchConfig {
                iters: PROBE_ITERS,
                compute_total: SimTime::from_micros_f64(
                    (PROBE_COMPUTE_US_PER_ITER * PROBE_ITERS as u64) as f64,
                ),
                num_progress: PROBE_PROGRESS,
            };
            let scripts = MicroBenchScript::per_rank(cfg, op, timer, nprocs);
            let mut runner = Runner::new(session, scripts);
            if let Err(err) = world.run(&mut runner) {
                panic!("guideline probe deadlocked: {err}");
            }
            ProbeOutcome {
                secs: runner.session.timers[timer].total(),
                sim_events: world.events_processed(),
            }
        },
    )
}

/// Probe every implementation of `op` at one config; returns
/// `(name, seconds)` in function-set order. Used by the audit cross-check
/// and exposed for tests.
pub fn op_probe_times(
    platform: &Platform,
    op: ProbeOp,
    nprocs: usize,
    msg: usize,
) -> Vec<(String, f64)> {
    let set = op.set(nprocs, msg);
    let reqs: Vec<ProbeReq> = (0..set.len())
        .map(|func| ProbeReq {
            plat: 0,
            op,
            nprocs,
            msg,
            func,
        })
        .collect();
    let keys: Vec<String> = (0..set.len())
        .map(|i| probe_key(platform, &set, i))
        .collect();
    let times = probe_all(1, std::slice::from_ref(platform), &reqs, &keys);
    set.functions
        .into_iter()
        .zip(times)
        .map(|(f, (secs, _))| (f.name, secs))
        .collect()
}

// ---------------------------------------------------------------------------
// The guideline registry
// ---------------------------------------------------------------------------

/// How a guideline compares probe measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Per implementation: `T(m₁) ≤ T(m₂)` for consecutive sweep sizes.
    MonotoneMsg(ProbeOp),
    /// Per implementation: `T(p₁) ≤ T(p₂)` for consecutive rank counts.
    MonotoneRanks(ProbeOp),
    /// Best-of-set: `best(lhs) ≤ best(rhs)` at the same config.
    Dominance {
        /// The operation that moves less (or equal) data.
        lhs: ProbeOp,
        /// The operation whose work strictly contains the left side's.
        rhs: ProbeOp,
    },
    /// Best-of-set: `best(op) ≤ best(mock-up)` at the same config.
    Composition {
        /// The native collective.
        lhs: ProbeOp,
        /// Its stitched mock-up.
        mock: ProbeOp,
    },
}

/// One declarative performance guideline.
#[derive(Debug, Clone, Copy)]
pub struct Guideline {
    /// Stable identifier, e.g. `"mono-msg/ibcast"`.
    pub id: &'static str,
    /// The comparison it performs.
    pub kind: Kind,
    /// Relative slack allowed before a check counts as violated.
    pub tolerance: f64,
    /// Slack beyond which a violation is severe (`INFINITY` = never:
    /// composition violations are tuning opportunities, not bugs).
    pub severe_at: f64,
    /// One-line rationale.
    pub why: &'static str,
}

/// The full registry, in evaluation (and report) order.
pub fn registry() -> Vec<Guideline> {
    use Kind::*;
    use ProbeOp::*;
    let mono_msg = |id, op, why| Guideline {
        id,
        kind: MonotoneMsg(op),
        tolerance: 0.02,
        severe_at: 0.25,
        why,
    };
    let mono_ranks = |id, op, why| Guideline {
        id,
        kind: MonotoneRanks(op),
        tolerance: 0.05,
        severe_at: 0.50,
        why,
    };
    // Dominance compares the *best of two different sets*: a violation
    // means the lhs set lacks an algorithm (e.g. no ring/pipelined reduce
    // while allreduce has one), which is a tuning opportunity like the
    // mock-ups, not a schedule bug — only an unmeasurable lhs escalates.
    let dom = |id, lhs, rhs, why| Guideline {
        id,
        kind: Dominance { lhs, rhs },
        tolerance: 0.05,
        severe_at: f64::INFINITY,
        why,
    };
    let mock = |id, lhs, mock, why| Guideline {
        id,
        kind: Composition { lhs, mock },
        tolerance: 0.10,
        severe_at: f64::INFINITY,
        why,
    };
    vec![
        mono_msg(
            "mono-msg/ibcast",
            Ibcast,
            "more payload cannot broadcast faster",
        ),
        mono_msg(
            "mono-msg/ialltoall",
            Ialltoall,
            "larger per-pair blocks cannot exchange faster",
        ),
        mono_msg(
            "mono-msg/iallgather",
            Iallgather,
            "larger blocks cannot gather faster",
        ),
        mono_msg(
            "mono-msg/ireduce",
            Ireduce,
            "more payload cannot reduce faster",
        ),
        mono_msg(
            "mono-msg/iallreduce",
            Iallreduce,
            "more payload cannot allreduce faster",
        ),
        mono_msg(
            "mono-msg/igather",
            Igather,
            "larger blocks cannot gather faster",
        ),
        mono_msg(
            "mono-msg/iscatter",
            Iscatter,
            "larger blocks cannot scatter faster",
        ),
        mono_ranks(
            "mono-ranks/ibcast",
            Ibcast,
            "more ranks cannot broadcast faster",
        ),
        mono_ranks(
            "mono-ranks/ialltoall",
            Ialltoall,
            "more ranks exchange strictly more data",
        ),
        mono_ranks(
            "mono-ranks/ibarrier",
            Ibarrier,
            "more ranks cannot synchronize faster",
        ),
        dom(
            "dom/iscatter<=ibcast",
            IscatterOfTotal,
            Ibcast,
            "scatter of n bytes moves a subset of a broadcast of n bytes",
        ),
        dom(
            "dom/igather<=iallgather",
            Igather,
            Iallgather,
            "gather delivers to one rank what allgather delivers to all",
        ),
        dom(
            "dom/ireduce<=iallreduce",
            Ireduce,
            Iallreduce,
            "reduce's result at the root is a prefix of allreduce's work",
        ),
        mock(
            "mock/ibcast<=iscatter+iallgather",
            Ibcast,
            MockBcast,
            "a broadcast must not lose to its scatter+allgather mock-up",
        ),
        mock(
            "mock/iallreduce<=ireduce+ibcast",
            Iallreduce,
            MockAllreduce,
            "an allreduce must not lose to its reduce+bcast mock-up",
        ),
        mock(
            "mock/ibarrier<=iallgather1B",
            Ibarrier,
            MockBarrier,
            "a barrier must not lose to a 1-byte allgather",
        ),
        mock(
            "mock/iallgather<=igather+ibcast",
            Iallgather,
            MockAllgather,
            "an allgather must not lose to its gather+bcast mock-up",
        ),
    ]
}

// ---------------------------------------------------------------------------
// The sweep engine
// ---------------------------------------------------------------------------

/// The evaluation grid of one guideline sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Report tag (`"quick"`, `"full"`, or `"custom"`).
    pub mode: &'static str,
    /// Platform presets to evaluate (resolved via [`Platform::by_name`]).
    pub platforms: Vec<String>,
    /// Rank counts, ascending.
    pub ranks: Vec<usize>,
    /// Sweep message sizes, ascending.
    pub msgs: Vec<usize>,
}

impl SweepConfig {
    /// The verify-gate subset: 3 platforms × {4, 8} ranks × {1 KiB, 64 KiB}.
    pub fn quick() -> SweepConfig {
        SweepConfig {
            mode: "quick",
            platforms: vec!["crill".into(), "whale".into(), "bluegene-p".into()],
            ranks: vec![4, 8],
            msgs: vec![1024, 64 * 1024],
        }
    }

    /// The full sweep: every preset × {4, 8, 16} ranks × {1, 16, 256} KiB.
    pub fn full() -> SweepConfig {
        SweepConfig {
            mode: "full",
            platforms: Platform::preset_names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            ranks: vec![4, 8, 16],
            msgs: vec![1024, 16 * 1024, 256 * 1024],
        }
    }
}

/// One evaluated check (a guideline instantiated at one config).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckRecord {
    /// Guideline id from the registry.
    pub guideline: &'static str,
    /// Config fingerprint, e.g. `"whale/p8/m65536"`.
    pub config: String,
    /// Left-hand side (must be ≤), e.g. `"ibcast/binomial-seg32k@m1024"`.
    pub lhs: String,
    /// Right-hand side (the bound).
    pub rhs: String,
    /// Measured left time in seconds.
    pub lhs_secs: f64,
    /// Measured right time in seconds.
    pub rhs_secs: f64,
    /// Relative slack `lhs/rhs − 1` (positive = lhs slower).
    pub slack: f64,
    /// True when `slack` exceeds the guideline's tolerance.
    pub violated: bool,
    /// True when `slack` also exceeds the severe threshold.
    pub severe: bool,
}

impl CheckRecord {
    fn new(
        g: &Guideline,
        config: String,
        lhs: String,
        rhs: String,
        lhs_secs: f64,
        rhs_secs: f64,
    ) -> CheckRecord {
        let (slack, violated, unmeasurable) = if !rhs_secs.is_finite() {
            // No finite bound: the check cannot conclude anything.
            (0.0, false, false)
        } else if !lhs_secs.is_finite() {
            (f64::INFINITY, true, true)
        } else if rhs_secs > 0.0 {
            let s = lhs_secs / rhs_secs - 1.0;
            (s, s > g.tolerance, false)
        } else {
            (0.0, false, false)
        };
        CheckRecord {
            guideline: g.id,
            config,
            lhs,
            rhs,
            lhs_secs,
            rhs_secs,
            slack,
            violated,
            // An lhs that cannot complete at all is severe under every
            // guideline, even ones whose finite violations stay
            // informational.
            severe: violated && (slack > g.severe_at || unmeasurable),
        }
    }
}

/// Per-guideline rollup of a sweep.
#[derive(Debug, Clone)]
pub struct GuidelineRollup {
    /// Guideline id.
    pub id: &'static str,
    /// Checks evaluated.
    pub checked: usize,
    /// Violations (any severity).
    pub violations: usize,
    /// Severe violations.
    pub severe: usize,
    /// Largest slack observed (negative = all comfortably inside).
    pub worst_slack: f64,
}

/// The result of one guideline sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The grid that was evaluated.
    pub config: SweepConfig,
    /// Every check, in deterministic registry × grid order.
    pub checks: Vec<CheckRecord>,
    /// Distinct probe measurements taken.
    pub probes: usize,
    /// Probes answered from the sim-memo cache.
    pub probe_replays: usize,
}

#[derive(Clone, Copy)]
struct ProbeReq {
    plat: usize,
    op: ProbeOp,
    nprocs: usize,
    msg: usize,
    func: usize,
}

type ProbeKey = (usize, ProbeOp, usize, usize, usize);
type ProbeMap = BTreeMap<ProbeKey, f64>;

/// Best (minimum) probe time of `op`'s set at one config, with the name
/// of the winning implementation.
fn best_of(times: &ProbeMap, plat: usize, op: ProbeOp, nprocs: usize, msg: usize) -> (String, f64) {
    let set = op.set(nprocs, msg);
    let mut best = (String::new(), f64::INFINITY);
    for (i, f) in set.functions.iter().enumerate() {
        let t = times[&(plat, op, nprocs, msg, i)];
        if t < best.1 || best.0.is_empty() {
            best = (format!("{}/{}", op.name(), f.name), t);
        }
    }
    best
}

/// Evaluate every registered guideline over the grid. Probes run in a
/// parallel sweep (`jobs` as in the figure binaries); checks are
/// derived serially from the merged probe table, so the report — and its
/// JSON rendering — is byte-identical for any `jobs` value.
pub fn run_sweep(cfg: &SweepConfig, jobs: usize) -> SweepReport {
    let platforms: Vec<Platform> = cfg
        .platforms
        .iter()
        .map(|n| Platform::by_name(n).unwrap_or_else(|| panic!("unknown platform preset {n:?}")))
        .collect();
    let guidelines = registry();

    // Every distinct probe the checks below will read, in a stable order,
    // with its memo key.
    let mut reqs: Vec<ProbeReq> = Vec::new();
    let mut keys: Vec<String> = Vec::new();
    let mut seen: std::collections::BTreeSet<ProbeKey> = Default::default();
    let mut need = |plat: usize, op: ProbeOp, p: usize, m: usize| {
        let m = if op.msg_sensitive() { m } else { 0 };
        let set = op.set(p, m);
        for func in 0..set.len() {
            if seen.insert((plat, op, p, m, func)) {
                reqs.push(ProbeReq {
                    plat,
                    op,
                    nprocs: p,
                    msg: m,
                    func,
                });
                keys.push(probe_key(&platforms[plat], &set, func));
            }
        }
    };
    for (pi, _) in platforms.iter().enumerate() {
        for &p in &cfg.ranks {
            for &m in &cfg.msgs {
                for g in &guidelines {
                    match g.kind {
                        Kind::MonotoneMsg(op) | Kind::MonotoneRanks(op) => need(pi, op, p, m),
                        Kind::Dominance { lhs, rhs } => {
                            need(pi, lhs, p, m);
                            need(pi, rhs, p, m);
                        }
                        Kind::Composition { lhs, mock } => {
                            need(pi, lhs, p, m);
                            need(pi, mock, p, m);
                        }
                    }
                }
            }
        }
    }

    // Replays on this thread, misses fanned out; input order kept.
    let results = probe_all(jobs, &platforms, &reqs, &keys);
    let mut times: ProbeMap = BTreeMap::new();
    let mut replays = 0usize;
    for (r, &(secs, replayed)) in reqs.iter().zip(&results) {
        times.insert((r.plat, r.op, r.nprocs, r.msg, r.func), secs);
        replays += replayed as usize;
    }

    // Derive the checks serially in registry × platform × grid order.
    let mut checks: Vec<CheckRecord> = Vec::new();
    for g in &guidelines {
        for (pi, plat) in platforms.iter().enumerate() {
            match g.kind {
                Kind::MonotoneMsg(op) => {
                    if !op.msg_sensitive() {
                        continue;
                    }
                    for &p in &cfg.ranks {
                        let set = op.set(p, cfg.msgs[0]);
                        for (fi, f) in set.functions.iter().enumerate() {
                            for w in cfg.msgs.windows(2) {
                                let (m1, m2) = (w[0], w[1]);
                                checks.push(CheckRecord::new(
                                    g,
                                    format!("{}/p{p}", plat.name),
                                    format!("{}/{}@m{m1}", op.name(), f.name),
                                    format!("{}/{}@m{m2}", op.name(), f.name),
                                    times[&(pi, op, p, m1, fi)],
                                    times[&(pi, op, p, m2, fi)],
                                ));
                            }
                        }
                    }
                }
                Kind::MonotoneRanks(op) => {
                    let msgs: &[usize] = if op.msg_sensitive() {
                        &cfg.msgs
                    } else {
                        &cfg.msgs[..1]
                    };
                    for &m in msgs {
                        let m = if op.msg_sensitive() { m } else { 0 };
                        let set = op.set(cfg.ranks[0], m);
                        for (fi, f) in set.functions.iter().enumerate() {
                            for w in cfg.ranks.windows(2) {
                                let (p1, p2) = (w[0], w[1]);
                                checks.push(CheckRecord::new(
                                    g,
                                    format!("{}/m{m}", plat.name),
                                    format!("{}/{}@p{p1}", op.name(), f.name),
                                    format!("{}/{}@p{p2}", op.name(), f.name),
                                    times[&(pi, op, p1, m, fi)],
                                    times[&(pi, op, p2, m, fi)],
                                ));
                            }
                        }
                    }
                }
                Kind::Dominance { lhs, rhs } | Kind::Composition { lhs, mock: rhs } => {
                    let msg_dep = lhs.msg_sensitive() || rhs.msg_sensitive();
                    let msgs: &[usize] = if msg_dep { &cfg.msgs } else { &cfg.msgs[..1] };
                    for &m in msgs {
                        for &p in &cfg.ranks {
                            let ml = if lhs.msg_sensitive() { m } else { 0 };
                            let mr = if rhs.msg_sensitive() { m } else { 0 };
                            let (ln, lt) = best_of(&times, pi, lhs, p, ml);
                            let (rn, rt) = best_of(&times, pi, rhs, p, mr);
                            checks.push(CheckRecord::new(
                                g,
                                format!("{}/p{p}/m{m}", plat.name),
                                ln,
                                rn,
                                lt,
                                rt,
                            ));
                        }
                    }
                }
            }
        }
    }

    let report = SweepReport {
        config: cfg.clone(),
        checks,
        probes: reqs.len(),
        probe_replays: replays,
    };
    metrics::counter("guidelines.checked").add(report.checks.len() as u64);
    metrics::counter("guidelines.violations").add(report.violation_count() as u64);
    let worst = report.worst_slack();
    if worst.is_finite() && worst > 0.0 {
        // The registry is integer-valued; slack is stored in parts/million.
        metrics::gauge("guidelines.worst_slack").record_max((worst * 1e6) as u64);
    }
    report
}

impl SweepReport {
    /// The violated checks, in evaluation order.
    pub fn violations(&self) -> Vec<&CheckRecord> {
        self.checks.iter().filter(|c| c.violated).collect()
    }

    /// Number of violated checks.
    pub fn violation_count(&self) -> usize {
        self.checks.iter().filter(|c| c.violated).count()
    }

    /// Number of severe violations (the verify gate).
    pub fn severe_count(&self) -> usize {
        self.checks.iter().filter(|c| c.severe).count()
    }

    /// Largest slack across all checks (`-INFINITY` when empty).
    pub fn worst_slack(&self) -> f64 {
        self.checks
            .iter()
            .map(|c| c.slack)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Number of distinct guidelines that produced at least one check.
    pub fn distinct_guidelines(&self) -> usize {
        let ids: std::collections::BTreeSet<&str> =
            self.checks.iter().map(|c| c.guideline).collect();
        ids.len()
    }

    /// Per-guideline rollup, in registry order.
    pub fn rollup(&self) -> Vec<GuidelineRollup> {
        registry()
            .iter()
            .map(|g| {
                let of_g: Vec<&CheckRecord> =
                    self.checks.iter().filter(|c| c.guideline == g.id).collect();
                GuidelineRollup {
                    id: g.id,
                    checked: of_g.len(),
                    violations: of_g.iter().filter(|c| c.violated).count(),
                    severe: of_g.iter().filter(|c| c.severe).count(),
                    worst_slack: of_g
                        .iter()
                        .map(|c| c.slack)
                        .fold(f64::NEG_INFINITY, f64::max),
                }
            })
            .collect()
    }

    /// Render the `BENCH_guidelines.json` document: schema tag, grid,
    /// summary rollup and the full violation list. Contains no wall-clock
    /// or job-count fields, so it is byte-identical across runs and
    /// `--jobs` values.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"adcl-guidelines-v1\",\n");
        let _ = writeln!(out, "  \"mode\": \"{}\",", self.config.mode);
        let plats: Vec<String> = self
            .config
            .platforms
            .iter()
            .map(|p| format!("\"{}\"", trace::escape(p)))
            .collect();
        let _ = writeln!(out, "  \"platforms\": [{}],", plats.join(", "));
        let _ = writeln!(
            out,
            "  \"ranks\": [{}],",
            self.config
                .ranks
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            out,
            "  \"msg_bytes\": [{}],",
            self.config
                .msgs
                .iter()
                .map(|m| m.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            out,
            "  \"summary\": {{\"guidelines\": {}, \"checked\": {}, \"violations\": {}, \
             \"severe\": {}, \"worst_slack\": {}, \"probes\": {}}},",
            self.distinct_guidelines(),
            self.checks.len(),
            self.violation_count(),
            self.severe_count(),
            json_num(self.worst_slack()),
            self.probes
        );
        out.push_str("  \"rollup\": [\n");
        let rollup = self.rollup();
        for (i, r) in rollup.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"id\": \"{}\", \"checked\": {}, \"violations\": {}, \"severe\": {}, \
                 \"worst_slack\": {}}}{}",
                trace::escape(r.id),
                r.checked,
                r.violations,
                r.severe,
                json_num(r.worst_slack),
                if i + 1 < rollup.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n  \"violations\": [\n");
        let viols = self.violations();
        for (i, c) in viols.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"guideline\": \"{}\", \"config\": \"{}\", \"lhs\": \"{}\", \
                 \"rhs\": \"{}\", \"lhs_secs\": {}, \"rhs_secs\": {}, \"slack\": {}, \
                 \"severity\": \"{}\"}}{}",
                trace::escape(c.guideline),
                trace::escape(&c.config),
                trace::escape(&c.lhs),
                trace::escape(&c.rhs),
                json_num(c.lhs_secs),
                json_num(c.rhs_secs),
                json_num(c.slack),
                if c.severe { "severe" } else { "info" },
                if i + 1 < viols.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_num(v: f64) -> String {
    // JSON has no Infinity literal; unbounded slacks serialize as null.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

// ---------------------------------------------------------------------------
// Audit cross-check
// ---------------------------------------------------------------------------

/// A tuner decision that clean fixed-schedule probes prove dominated: the
/// committed winner measured more than [`FLAG_TOLERANCE`] slower than a
/// sibling implementation of the same set at the decision's exact config.
#[derive(Debug, Clone, PartialEq)]
pub struct GuidelineFlag {
    /// The decision's audit label (`"whale/ibcast/p16/m262144/g4/…"`).
    pub label: String,
    /// Operation name.
    pub op: String,
    /// The committed winner.
    pub winner: String,
    /// Its clean probe time in seconds.
    pub winner_secs: f64,
    /// The fastest sibling implementation.
    pub best: String,
    /// Its clean probe time in seconds.
    pub best_secs: f64,
    /// Relative advantage the winner left on the table
    /// (`winner/best − 1`).
    pub advantage: f64,
}

impl GuidelineFlag {
    /// Render as one JSON object (single line, hand-written — the
    /// workspace is dependency-free).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"label\":\"{}\",\"op\":\"{}\",\"winner\":\"{}\",\"winner_secs\":{},\
             \"best\":\"{}\",\"best_secs\":{},\"advantage\":{}}}",
            trace::escape(&self.label),
            trace::escape(&self.op),
            trace::escape(&self.winner),
            json_num(self.winner_secs),
            trace::escape(&self.best),
            json_num(self.best_secs),
            json_num(self.advantage)
        )
    }
}

/// Render a flag list as the contents of a JSON array.
pub fn render_flags_json(flags: &[GuidelineFlag]) -> String {
    flags
        .iter()
        .map(|f| f.to_json())
        .collect::<Vec<_>>()
        .join(",\n")
}

/// Parse a driver audit label (`"platform/op/pN/mM/…"`) back into a probe
/// config. Returns `None` for labels without the full config (e.g. ops
/// the probe library does not cover, or bare op names set by tests).
fn parse_label(label: &str) -> Option<(Platform, ProbeOp, usize, usize)> {
    let mut parts = label.split('/');
    let platform = Platform::by_name(parts.next()?)?;
    let op = ProbeOp::from_op_name(parts.next()?)?;
    let p = parts.next()?.strip_prefix('p')?.parse().ok()?;
    let m = parts.next()?.strip_prefix('m')?.parse().ok()?;
    Some((platform, op, p, m))
}

/// Run `f` with span/audit recording suspended, so cross-check probes do
/// not leak synthetic runs into an in-flight trace collection.
fn untraced<R>(f: impl FnOnce() -> R) -> R {
    let was = trace::enabled();
    if was {
        trace::set_enabled(false);
    }
    let out = f();
    if was {
        trace::set_enabled(true);
    }
    out
}

/// Cross-check tuner decisions against clean probe measurements: for each
/// record whose label parses to a probe config, measure every sibling of
/// the decided set at that exact shape and flag the winner if a sibling
/// proves more than `tolerance` faster. At most `cap` records are checked
/// (the `quick` export mode bounds the work).
pub fn cross_check_audit(
    records: &[DecisionAudit],
    tolerance: f64,
    cap: usize,
) -> Vec<GuidelineFlag> {
    untraced(|| {
        let mut flags = Vec::new();
        for rec in records.iter().take(cap) {
            let Some((platform, op, p, m)) = parse_label(&rec.label) else {
                continue;
            };
            let times = op_probe_times(&platform, op, p, m);
            // The blocking variants of extended sets build the identical
            // schedule; fold them onto the non-blocking probe.
            let winner_name = rec
                .winner_name
                .strip_suffix("-blocking")
                .unwrap_or(&rec.winner_name);
            let Some(&(_, winner_secs)) = times.iter().find(|(n, _)| n == winner_name) else {
                continue;
            };
            let Some((best_name, best_secs)) =
                times.iter().min_by(|a, b| a.1.total_cmp(&b.1)).cloned()
            else {
                continue;
            };
            if winner_secs.is_finite()
                && best_secs > 0.0
                && winner_secs > best_secs * (1.0 + tolerance)
            {
                flags.push(GuidelineFlag {
                    label: rec.label.clone(),
                    op: rec.op.clone(),
                    winner: rec.winner_name.clone(),
                    winner_secs,
                    best: format!("{}/{}", op.name(), best_name),
                    best_secs,
                    advantage: winner_secs / best_secs - 1.0,
                });
            }
        }
        flags
    })
}

// ---------------------------------------------------------------------------
// Mode switch (NBC_GUIDELINES)
// ---------------------------------------------------------------------------

/// How much guideline work the audit export performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No cross-check; `guidelineFlags` exports empty (the default).
    Off,
    /// Cross-check the first 32 decisions.
    Quick,
    /// Cross-check every decision.
    Full,
}

impl Mode {
    /// Decision-record cap for this mode.
    pub fn cap(self) -> usize {
        match self {
            Mode::Off => 0,
            Mode::Quick => 32,
            Mode::Full => usize::MAX,
        }
    }
}

const MODE_UNSET: u8 = 0;
static MODE_OVERRIDE: AtomicU8 = AtomicU8::new(MODE_UNSET);

/// Programmatic override of the `NBC_GUIDELINES` mode (tests and drivers);
/// `None` reverts to the environment.
pub fn set_mode_override(mode: Option<Mode>) {
    let v = match mode {
        None => MODE_UNSET,
        Some(Mode::Off) => 1,
        Some(Mode::Quick) => 2,
        Some(Mode::Full) => 3,
    };
    MODE_OVERRIDE.store(v, Ordering::Release);
}

/// The active mode: the programmatic override if set, else
/// `NBC_GUIDELINES` (`off` | `quick` | `full`; unknown values and unset
/// mean `off`).
pub fn mode() -> Mode {
    match MODE_OVERRIDE.load(Ordering::Acquire) {
        1 => return Mode::Off,
        2 => return Mode::Quick,
        3 => return Mode::Full,
        _ => {}
    }
    match std::env::var("NBC_GUIDELINES").as_deref() {
        Ok("quick") => Mode::Quick,
        Ok("full") => Mode::Full,
        _ => Mode::Off,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_rich_and_distinct() {
        let reg = registry();
        assert!(reg.len() >= 8, "at least 8 guidelines required");
        let ids: std::collections::BTreeSet<&str> = reg.iter().map(|g| g.id).collect();
        assert_eq!(ids.len(), reg.len(), "guideline ids must be distinct");
        // Only monotonicity of a *fixed* algorithm can escalate on a
        // finite slack — a cross-set comparison (dominance, composition)
        // that fails means the lhs set lacks an algorithm, which is a
        // tuning opportunity, not a bug.
        for g in &reg {
            let self_consistency = matches!(g.kind, Kind::MonotoneMsg(_) | Kind::MonotoneRanks(_));
            assert_eq!(
                g.severe_at.is_finite(),
                self_consistency,
                "{} severity class does not match its kind",
                g.id
            );
        }
    }

    #[test]
    fn quick_grid_covers_three_platforms() {
        let q = SweepConfig::quick();
        assert!(q.platforms.len() >= 3);
        for p in &q.platforms {
            assert!(Platform::by_name(p).is_some(), "unknown preset {p}");
        }
        assert!(q.ranks.windows(2).all(|w| w[0] < w[1]));
        assert!(q.msgs.windows(2).all(|w| w[0] < w[1]));
        let f = SweepConfig::full();
        assert_eq!(f.platforms.len(), Platform::preset_names().len());
    }

    #[test]
    fn mockup_sets_construct_and_validate() {
        for p in [4usize, 8] {
            for op in [
                ProbeOp::MockBcast,
                ProbeOp::MockAllreduce,
                ProbeOp::MockBarrier,
                ProbeOp::MockAllgather,
            ] {
                let set = op.set(p, 4096);
                assert!(!set.is_empty(), "{op:?}");
                {
                    let (r, f) = (0usize, &set.functions[0]);
                    let sched = (f.builder)(r, &set.spec);
                    sched
                        .validate()
                        .unwrap_or_else(|e| panic!("{op:?}/{} invalid at rank {r}: {e}", f.name));
                    assert!(sched.num_rounds() > 0, "{op:?}/{}", f.name);
                }
            }
        }
    }

    #[test]
    fn mock_bcast_has_two_phases_worth_of_rounds() {
        let set = ProbeOp::MockBcast.set(8, 64 * 1024);
        let spec = set.spec;
        for f in &set.functions {
            let stitched = (f.builder)(3, &spec);
            // A stitched mock-up must be strictly deeper than either phase
            // alone (rounds concatenate).
            assert!(stitched.num_rounds() >= 2, "{}", f.name);
            assert!(stitched.bytes_sent() > 0 || stitched.bytes_received() > 0);
        }
    }

    #[test]
    fn probe_is_memoized() {
        simmemo::set_enabled(true);
        let plat = [Platform::whale()];
        let req = [ProbeReq {
            plat: 0,
            op: ProbeOp::Ialltoall,
            nprocs: 4,
            msg: 256,
            func: 0,
        }];
        let key = [probe_key(&plat[0], &ProbeOp::Ialltoall.set(4, 256), 0)];
        let (a, _) = probe_all(1, &plat, &req, &key)[0];
        let (b, replayed) = probe_all(1, &plat, &req, &key)[0];
        assert!(a.is_finite() && a > 0.0);
        assert_eq!(a, b, "memoized probe must replay bit-identically");
        assert!(replayed, "second probe must come from the memo cache");
        simmemo::clear_enabled_override();
    }

    #[test]
    fn label_parsing_roundtrip() {
        let (plat, op, p, m) =
            parse_label("whale/ibcast/p16/m262144/g4/BruteForce").expect("parses");
        assert_eq!(plat.name, "whale");
        assert_eq!(op, ProbeOp::Ibcast);
        assert_eq!((p, m), (16, 262144));
        assert!(parse_label("ibcast").is_none(), "bare op labels skip");
        assert!(parse_label("nosuch/ibcast/p4/m64/g4/X").is_none());
        assert!(parse_label("whale/ineighbor/p4/m64/g4/X").is_none());
    }

    #[test]
    fn check_record_severity_math() {
        let g = Guideline {
            id: "test",
            kind: Kind::Dominance {
                lhs: ProbeOp::Ireduce,
                rhs: ProbeOp::Iallreduce,
            },
            tolerance: 0.05,
            severe_at: 0.50,
            why: "",
        };
        let mk = |l: f64, r: f64| CheckRecord::new(&g, "c".into(), "l".into(), "r".into(), l, r);
        assert!(!mk(1.0, 1.0).violated);
        assert!(!mk(1.04, 1.0).violated, "inside tolerance");
        let v = mk(1.2, 1.0);
        assert!(v.violated && !v.severe);
        assert!((v.slack - 0.2).abs() < 1e-12);
        let s = mk(1.6, 1.0);
        assert!(s.violated && s.severe);
        assert!(!mk(1.0, f64::INFINITY).violated, "no finite bound");
        let inf = mk(f64::INFINITY, 1.0);
        assert!(
            inf.violated && inf.severe,
            "unmeasurable lhs vs finite bound"
        );

        // Informational guidelines (severe_at = INF) never escalate on a
        // finite slack, but an unmeasurable lhs still does.
        let info = Guideline {
            severe_at: f64::INFINITY,
            ..g
        };
        let big = CheckRecord::new(&info, "c".into(), "l".into(), "r".into(), 10.0, 1.0);
        assert!(big.violated && !big.severe);
        let dead = CheckRecord::new(
            &info,
            "c".into(),
            "l".into(),
            "r".into(),
            f64::INFINITY,
            1.0,
        );
        assert!(dead.violated && dead.severe);
    }

    #[test]
    fn mode_override_wins_over_env() {
        set_mode_override(Some(Mode::Full));
        assert_eq!(mode(), Mode::Full);
        assert_eq!(Mode::Full.cap(), usize::MAX);
        set_mode_override(Some(Mode::Off));
        assert_eq!(mode(), Mode::Off);
        set_mode_override(None);
    }
}

//! Experiment drivers for the §IV-A micro-benchmark.
//!
//! A [`MicrobenchSpec`] describes one benchmark scenario (platform, process
//! count, operation, message length, compute time, progress-call count);
//! [`MicrobenchSpec::run`] executes it under a chosen selection logic, and
//! [`MicrobenchSpec::run_all_fixed`] produces the per-implementation
//! reference data the paper calls the *verification runs*.

use adcl::filter::FilterKind;
use adcl::function::FunctionSet;
use adcl::microbench::{Imbalance, MicroBenchConfig, MicroBenchScript};
use adcl::runner::TuningSession;
use adcl::runner::{Runner, Script};
use adcl::strategy::SelectionLogic;
use adcl::tuner::TunerConfig;
use mpisim::{NoiseConfig, World};
use nbc::schedule::CollSpec;
use netmodel::{Placement, Platform};
use simcore::SimTime;
use std::fmt::Write;

/// Which collective the benchmark exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveOp {
    /// Non-blocking all-to-all (3 implementations).
    Ialltoall,
    /// Non-blocking all-to-all, extended with blocking variants (6).
    IalltoallExtended,
    /// Non-blocking broadcast (21 implementations).
    Ibcast,
    /// Non-blocking all-gather (3 implementations).
    Iallgather,
    /// Non-blocking reduce (3 implementations).
    Ireduce,
    /// Non-blocking all-reduce (3 implementations).
    Iallreduce,
    /// Non-blocking gather (2 implementations).
    Igather,
    /// Non-blocking scatter (2 implementations).
    Iscatter,
}

impl CollectiveOp {
    /// Operation name for reports and history keys.
    pub fn name(self) -> &'static str {
        match self {
            CollectiveOp::Ialltoall => "ialltoall",
            CollectiveOp::IalltoallExtended => "ialltoall-ext",
            CollectiveOp::Ibcast => "ibcast",
            CollectiveOp::Iallgather => "iallgather",
            CollectiveOp::Ireduce => "ireduce",
            CollectiveOp::Iallreduce => "iallreduce",
            CollectiveOp::Igather => "igather",
            CollectiveOp::Iscatter => "iscatter",
        }
    }

    /// Inverse of [`CollectiveOp::name`]: look an operation up by its
    /// report/history name (used by the `adcld` daemon to resolve query
    /// strings). Returns `None` for unknown names.
    pub fn by_name(name: &str) -> Option<CollectiveOp> {
        let all = [
            CollectiveOp::Ialltoall,
            CollectiveOp::IalltoallExtended,
            CollectiveOp::Ibcast,
            CollectiveOp::Iallgather,
            CollectiveOp::Ireduce,
            CollectiveOp::Iallreduce,
            CollectiveOp::Igather,
            CollectiveOp::Iscatter,
        ];
        all.into_iter().find(|op| op.name() == name)
    }

    /// Build the default function-set for this operation.
    pub fn fnset(self, spec: CollSpec) -> FunctionSet {
        match self {
            CollectiveOp::Ialltoall => FunctionSet::ialltoall_default(spec),
            CollectiveOp::IalltoallExtended => FunctionSet::ialltoall_extended(spec),
            CollectiveOp::Ibcast => FunctionSet::ibcast_default(spec),
            CollectiveOp::Iallgather => FunctionSet::iallgather_default(spec),
            CollectiveOp::Ireduce => FunctionSet::ireduce_default(spec),
            CollectiveOp::Iallreduce => FunctionSet::iallreduce_default(spec),
            CollectiveOp::Igather => FunctionSet::igather_default(spec),
            CollectiveOp::Iscatter => FunctionSet::iscatter_default(spec),
        }
    }
}

/// One micro-benchmark scenario.
#[derive(Debug, Clone)]
pub struct MicrobenchSpec {
    /// The simulated machine.
    pub platform: Platform,
    /// Number of processes.
    pub nprocs: usize,
    /// The collective under test.
    pub op: CollectiveOp,
    /// Message size (full payload for bcast/reduce; per-pair block for
    /// alltoall/allgather — the paper's convention).
    pub msg_bytes: usize,
    /// Benchmark loop iterations.
    pub iters: usize,
    /// Total compute time across the loop (the paper uses 10–100 s).
    pub compute_total: SimTime,
    /// Progress calls per iteration.
    pub num_progress: usize,
    /// Compute-noise model.
    pub noise: NoiseConfig,
    /// Measurements per implementation during learning.
    pub reps: usize,
    /// Rank placement policy (`Block` fills nodes first; `RoundRobin`
    /// scatters one rank per node, maximizing network traffic).
    pub placement: Placement,
    /// Systematic load imbalance across ranks (process arrival patterns).
    pub imbalance: Imbalance,
}

/// Result of one micro-benchmark run.
#[derive(Debug, Clone)]
pub struct MicrobenchOutcome {
    /// Total measured loop time in seconds (the paper's y-axis).
    pub total: f64,
    /// Loop time excluding the learning phase.
    pub post_learning: f64,
    /// Name of the winning implementation, if the logic converged.
    pub winner: Option<String>,
    /// Iteration at which learning finished.
    pub converged_at: Option<usize>,
    /// Per-iteration times.
    pub history: Vec<f64>,
    /// Name of the strategy used.
    pub strategy: &'static str,
    /// Aggregate time accounting across ranks (compute / library /
    /// blocked) — `blocked + library` is the exposed communication cost.
    pub accounting: mpisim::RankAccounting,
    /// Discrete events this run's world processed; a memo replay credits
    /// this many avoided events to `adcl::simmemo`.
    pub sim_events: u64,
    /// Winner margin over the best credible alternative (filtered score
    /// for survivors, filtered lower bound for racing-eliminated
    /// candidates). `0.0` when no tuning decision was made.
    pub margin: f64,
}

impl MicrobenchSpec {
    /// The collective-operation parameters implied by this spec.
    pub fn coll_spec(&self) -> CollSpec {
        CollSpec::new(self.nprocs, self.msg_bytes)
    }

    /// Benchmark-loop parameters.
    pub fn bench_config(&self) -> MicroBenchConfig {
        MicroBenchConfig {
            iters: self.iters,
            compute_total: self.compute_total,
            num_progress: self.num_progress,
        }
    }

    /// Run the benchmark under `logic`.
    pub fn run(&self, logic: SelectionLogic) -> MicrobenchOutcome {
        let fnset = self.op.fnset(self.coll_spec());
        self.run_with_fnset(fnset, logic)
    }

    /// Run the benchmark with an explicit function-set (e.g. a pinned
    /// baseline), in a world of its own (`mpisim::worldpool::with_world`):
    /// built for the run and dropped with it, so a finished run keeps
    /// nothing.
    pub fn run_with_fnset(&self, fnset: FunctionSet, logic: SelectionLogic) -> MicrobenchOutcome {
        mpisim::worldpool::with_world(
            &self.platform,
            self.nprocs,
            self.placement,
            self.noise,
            |world| self.run_in(world, fnset, logic),
        )
    }

    /// The label naming this run in traces and audit records.
    fn trace_label(&self, logic: SelectionLogic) -> String {
        format!(
            "{}/{}/p{}/m{}/g{}/{:?}",
            self.platform.name,
            self.op.name(),
            self.nprocs,
            self.msg_bytes,
            self.num_progress,
            logic
        )
    }

    fn run_in(
        &self,
        world: &mut World,
        fnset: FunctionSet,
        logic: SelectionLogic,
    ) -> MicrobenchOutcome {
        let mut session = TuningSession::new(self.nprocs);
        let op = session.add_op(
            self.op.name(),
            fnset,
            TunerConfig {
                logic,
                reps: self.reps,
                warmup: 1,
                filter: FilterKind::default(),
            },
        );
        if world.tracing() {
            // One label names both the timeline (process row in the Chrome
            // trace) and the tuner's audit records for this run.
            let label = self.trace_label(logic);
            world.set_trace_label(&label);
            session.ops[op].tuner.set_label(&label);
        }
        let timer = session.add_timer(vec![op]);
        let scripts: Vec<Box<dyn Script>> = MicroBenchScript::per_rank_imbalanced(
            self.bench_config(),
            op,
            timer,
            self.nprocs,
            self.imbalance,
        );
        let mut runner = Runner::new(session, scripts);
        if let Err(err) = world.run(&mut runner) {
            panic!("microbenchmark deadlocked: {err}");
        }
        let accounting = world.accounting_total();
        let sim_events = world.events_processed();
        let s = runner.session;
        let tuner = &s.ops[op].tuner;
        let converged = tuner.converged_at();
        if tuner.winner().is_some() && !matches!(logic, SelectionLogic::Fixed(_)) {
            // Per-decision measurement economy: how many simulated events
            // this *fresh* tuning decision cost (memo replays credit
            // `adcl.simmemo` instead and never reach this path).
            simcore::metrics::histogram("adcl.sweep.sim_events_per_decision").record(sim_events);
        }
        MicrobenchOutcome {
            total: s.timers[timer].total(),
            post_learning: s.timers[timer].total_from(converged.unwrap_or(0)),
            winner: tuner
                .winner()
                .map(|w| s.ops[op].fnset.functions[w].name.clone()),
            converged_at: converged,
            history: s.timers[timer].history().to_vec(),
            strategy: tuner.strategy_name(),
            accounting,
            sim_events,
            margin: tuner.decision_margin(),
        }
    }

    /// Fingerprint covering every input that can influence this spec's
    /// outcome under `logic`: platform preset, collective, process count,
    /// message length, loop shape, noise seeds, placement, imbalance, and
    /// the selection logic itself.
    /// The simulation is a pure function of this string (see
    /// `adcl::simmemo`), so two specs with equal keys produce bit-identical
    /// outcomes. A sweep over several logics builds the logic-free prefix
    /// once and appends each logic to it.
    pub fn memo_key(&self, logic: SelectionLogic) -> String {
        memo_key_with(self.memo_key_prefix(), logic)
    }

    /// Everything in [`MicrobenchSpec::memo_key`] but the selection logic.
    /// Numbers are written exactly: times in integer nanoseconds, floats as
    /// their bit patterns in hex, so no two distinct inputs share a key.
    fn memo_key_prefix(&self) -> String {
        let n = &self.noise;
        // One buffer sized for the whole key: reallocating it costs more
        // than writing the fields.
        let mut key = String::with_capacity(192);
        let _ = write!(
            key,
            "ub/{plat}/{op}/p{np}/m{mb}/i{it}/c{ct}/g{npg}/n{seed:x}.{jit:x}.{sp:x}.{ss:x}/r{reps}/{pl:?}/",
            plat = self.platform.name,
            op = self.op.name(),
            np = self.nprocs,
            mb = self.msg_bytes,
            it = self.iters,
            ct = self.compute_total.as_nanos(),
            npg = self.num_progress,
            seed = n.seed,
            jit = n.jitter.to_bits(),
            sp = n.spike_prob.to_bits(),
            ss = n.spike_scale.to_bits(),
            reps = self.reps,
            pl = self.placement,
        );
        let _ = match self.imbalance {
            Imbalance::None => write!(key, "even"),
            Imbalance::Ramp { spread } => write!(key, "ramp{:x}", spread.to_bits()),
            Imbalance::Straggler { rank, factor } => {
                write!(key, "straggler{rank}x{:x}", factor.to_bits())
            }
        };
        key
    }

    /// Memoized [`MicrobenchSpec::run`]: consult `adcl::simmemo` before
    /// simulating. On a replay the run's event count is credited to the
    /// memo's replayed-events counter (the work a fresh run would have
    /// done). With memoization disabled this is exactly `run`.
    pub fn run_memo(&self, logic: SelectionLogic) -> std::sync::Arc<MicrobenchOutcome> {
        self.run_memo_flagged(logic).0
    }

    /// [`MicrobenchSpec::run_memo`] that also reports whether the outcome
    /// was replayed from the memo (`true`) or freshly simulated (`false`).
    /// The `adcld` daemon uses the flag to tag served decisions as
    /// `memo-replay` vs `fresh-sweep`.
    pub fn run_memo_flagged(
        &self,
        logic: SelectionLogic,
    ) -> (std::sync::Arc<MicrobenchOutcome>, bool) {
        let key = self.memo_key(logic);
        let (out, replayed) = adcl::simmemo::get_or_run(&key, || self.run(logic));
        if replayed {
            adcl::simmemo::credit_replay(out.sim_events);
        }
        (out, replayed)
    }

    /// Does nothing. Schedules belong to the tuning session that runs them
    /// (`adcl::runner::TunedOp` builds each on its first start and frees it
    /// with the session), so there is nothing to build ahead of a run. Kept
    /// only for callers written when a process-wide cache was warmed here.
    pub fn prebuild_schedules(&self) {}

    /// Order-of-magnitude estimate of one run's wall-clock cost in
    /// nanoseconds, for the serial-cutoff heuristic
    /// (`simcore::par::plan_participants`): roughly 2µs of host time per
    /// rank per benchmark iteration, which matches the measured scale of
    /// the 8-rank microbenchmarks (hundreds of microseconds). Only the
    /// comparison against the hand-off floor matters
    /// (`simcore::par::handoff_floor_nanos`, 120µs — a deliberately high
    /// bar, several times what spawning and joining a helper thread
    /// costs), so being off by 2–3× either way does not change any
    /// sensible decision. It prices a
    /// fresh simulation; a memo replay never reaches `par_map`.
    pub fn est_run_nanos(&self) -> u64 {
        2_000u64
            .saturating_mul(self.nprocs as u64)
            .saturating_mul(self.iters as u64)
    }

    /// Does nothing. Every run builds its own world and its own schedules
    /// (`mpisim::worldpool::with_world`, `adcl::runner::TunedOp`) and drops
    /// them when it ends, so there is nothing to warm ahead of a sweep.
    /// Kept only for callers written when a per-thread world pool was
    /// filled here.
    pub fn prewarm_sweep(_jobs: usize, _specs: &[MicrobenchSpec]) {}

    /// The verification runs: execute every implementation of the
    /// function-set with the selection logic bypassed. Returns
    /// `(name, total_seconds)` per implementation, in function-set order.
    pub fn run_all_fixed(&self) -> Vec<(String, f64)> {
        self.run_all_fixed_jobs(1)
    }

    /// Parallel [`MicrobenchSpec::run_all_fixed`]: runs the memo already
    /// holds are answered on the calling thread, and each remaining fixed
    /// run — an independent simulation — fans out over `jobs`
    /// threads (`adcl::simmemo::get_or_run_all`, with this spec's estimated
    /// run cost feeding the serial cutoff — a sub-handoff sweep stays on
    /// the calling thread). The output is bit-identical to the serial
    /// method for every `jobs` value — results merge in input order and
    /// each simulation owns its world and noise streams.
    pub fn run_all_fixed_jobs(&self, jobs: usize) -> Vec<(String, f64)> {
        self.run_all_fixed_jobs_flagged(jobs).0
    }

    /// [`MicrobenchSpec::run_all_fixed_jobs`] that also counts how many of
    /// the fixed runs were memo replays (0 = everything freshly simulated,
    /// `len()` = the whole sweep was answered from the memo).
    pub fn run_all_fixed_jobs_flagged(&self, jobs: usize) -> (Vec<(String, f64)>, usize) {
        // Function sets hold `Rc` builders, so build one locally for the
        // names and let every fresh run build its own.
        let fnset = self.op.fnset(self.coll_spec());
        let prefix = self.memo_key_prefix();
        let keys: Vec<String> = (0..fnset.len())
            .map(|i| memo_key_with(prefix.clone(), SelectionLogic::Fixed(i)))
            .collect();
        let outs = adcl::simmemo::get_or_run_all(jobs, &keys, self.est_run_nanos(), |i| {
            self.run(SelectionLogic::Fixed(i))
        });
        let mut replayed = 0;
        let rows = fnset
            .functions
            .into_iter()
            .zip(outs)
            .map(|(f, (out, replay))| {
                if replay {
                    adcl::simmemo::credit_replay(out.sim_events);
                    replayed += 1;
                }
                (f.name, out.total)
            })
            .collect();
        (rows, replayed)
    }

    /// The implementation a fully informed oracle would pick: the name and
    /// total time of the fastest fixed run.
    pub fn oracle(&self) -> (String, f64) {
        self.run_all_fixed()
            .into_iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN time"))
            .expect("nonempty function set")
    }
}

/// The memo key of a run under `logic`, from its spec's
/// [`MicrobenchSpec::memo_key_prefix`].
fn memo_key_with(mut prefix: String, logic: SelectionLogic) -> String {
    let _ = write!(prefix, "/{logic:?}");
    prefix
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> MicrobenchSpec {
        MicrobenchSpec {
            platform: Platform::whale(),
            nprocs: 8,
            op: CollectiveOp::Ialltoall,
            msg_bytes: 1024,
            iters: 15,
            compute_total: SimTime::from_millis(15),
            num_progress: 4,
            noise: NoiseConfig::none(),
            reps: 3,
            placement: Placement::Block,
            imbalance: Imbalance::None,
        }
    }

    #[test]
    fn tuned_run_converges() {
        let out = spec().run(SelectionLogic::BruteForce);
        assert!(out.winner.is_some());
        assert_eq!(out.history.len(), 15);
        assert!(out.total >= 15e-3, "cannot beat the compute floor");
        assert!(out.post_learning <= out.total);
    }

    #[test]
    fn accounting_reported() {
        let out = spec().run(SelectionLogic::Fixed(0));
        // 8 ranks x 15 ms of compute each.
        assert!(out.accounting.compute >= SimTime::from_millis(8 * 15));
        assert!(out.accounting.library > SimTime::ZERO);
        assert!(out.accounting.exposed_fraction() < 0.5);
    }

    #[test]
    fn fixed_runs_cover_all_functions() {
        let rows = spec().run_all_fixed();
        assert_eq!(rows.len(), 3);
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["linear", "pairwise", "dissemination"]);
        assert!(rows.iter().all(|(_, t)| *t > 0.0));
    }

    #[test]
    fn adcl_close_to_oracle_after_learning() {
        let s = spec();
        let tuned = s.run(SelectionLogic::BruteForce);
        let (oracle_name, oracle_total) = s.oracle();
        // ADCL pays the learning phase, so compare steady-state rates: its
        // post-learning per-iteration cost should be within 10% of the
        // oracle's per-iteration cost.
        let learn = tuned
            .converged_at
            .expect("tuner did not converge within the benchmark loop");
        let tuned_rate = tuned.post_learning / (s.iters - learn) as f64;
        let oracle_rate = oracle_total / s.iters as f64;
        assert!(
            tuned_rate <= oracle_rate * 1.10,
            "tuned {tuned_rate} vs oracle {oracle_rate} ({oracle_name})"
        );
    }

    #[test]
    fn memo_key_distinguishes_every_field() {
        let base = spec();
        let k0 = base.memo_key(SelectionLogic::Fixed(0));
        let mut variants = Vec::new();
        let mut s = base.clone();
        s.nprocs = 16;
        variants.push(s.memo_key(SelectionLogic::Fixed(0)));
        let mut s = base.clone();
        s.msg_bytes = 2048;
        variants.push(s.memo_key(SelectionLogic::Fixed(0)));
        let mut s = base.clone();
        s.noise = NoiseConfig::light(7);
        variants.push(s.memo_key(SelectionLogic::Fixed(0)));
        let mut s = base.clone();
        s.placement = Placement::RoundRobin;
        variants.push(s.memo_key(SelectionLogic::Fixed(0)));
        let mut s = base.clone();
        s.platform = Platform::crill();
        variants.push(s.memo_key(SelectionLogic::Fixed(0)));
        variants.push(base.memo_key(SelectionLogic::Fixed(1)));
        variants.push(base.memo_key(SelectionLogic::BruteForce));
        for v in &variants {
            assert_ne!(&k0, v, "memo key failed to capture a varied field");
        }
        // And the key is stable for an identical spec.
        assert_eq!(k0, base.clone().memo_key(SelectionLogic::Fixed(0)));
    }

    #[test]
    fn keys_from_the_shared_prefix_equal_memo_key() {
        let s = spec();
        let prefix = s.memo_key_prefix();
        let logics = [
            SelectionLogic::BruteForce,
            SelectionLogic::AttributeHeuristic,
            SelectionLogic::TwoKFactorial,
            SelectionLogic::Racing(2),
            SelectionLogic::Fixed(0),
            SelectionLogic::Fixed(2),
        ];
        for logic in logics {
            assert_eq!(memo_key_with(prefix.clone(), logic), s.memo_key(logic));
        }
    }

    #[test]
    fn memo_key_tells_floats_one_ulp_apart() {
        let light = MicrobenchSpec {
            noise: NoiseConfig::light(7),
            ..spec()
        };
        let mut variants = vec![spec(), light.clone()];
        let bumps: [fn(&mut NoiseConfig); 3] = [
            |n| n.jitter = n.jitter.next_up(),
            |n| n.spike_prob = n.spike_prob.next_up(),
            |n| n.spike_scale = n.spike_scale.next_up(),
        ];
        for bump in bumps {
            let mut v = light.clone();
            bump(&mut v.noise);
            variants.push(v);
        }
        for (rank, factor) in [(1, 2.0), (1, 2.0f64.next_up()), (2, 2.0)] {
            let imbalance = Imbalance::Straggler { rank, factor };
            variants.push(MicrobenchSpec {
                imbalance,
                ..spec()
            });
        }
        for spread in [0.2, 0.2f64.next_up()] {
            let imbalance = Imbalance::Ramp { spread };
            variants.push(MicrobenchSpec {
                imbalance,
                ..spec()
            });
        }
        let keys: Vec<String> = variants
            .iter()
            .map(|v| v.memo_key(SelectionLogic::Fixed(0)))
            .collect();
        let distinct: std::collections::HashSet<&String> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "aliased keys: {keys:#?}");
    }

    #[test]
    fn compute_totals_a_fraction_of_a_microsecond_apart_do_not_alias() {
        // `SimTime`'s display rounds to three decimals: both print as
        // "24.000ms", and a key built from it would replay the first
        // spec's outcome for the second.
        let mut a = spec();
        a.compute_total = SimTime::from_nanos(24_000_100);
        let mut b = a.clone();
        b.compute_total = SimTime::from_nanos(24_000_400);
        let logic = SelectionLogic::Fixed(0);
        assert_ne!(a.memo_key(logic), b.memo_key(logic));
        let fresh = (a.run(logic).total, b.run(logic).total);
        assert_ne!(fresh.0, fresh.1, "the two loops must differ in time");
        adcl::simmemo::set_enabled(true);
        let memo = (a.run_memo(logic).total, b.run_memo(logic).total);
        adcl::simmemo::clear_enabled_override();
        assert_eq!(memo, fresh);
    }

    #[test]
    fn memoized_run_replays_identically() {
        let s = spec();
        let fresh = s.run(SelectionLogic::Fixed(1));
        adcl::simmemo::set_enabled(true);
        let a = s.run_memo(SelectionLogic::Fixed(1));
        let b = s.run_memo(SelectionLogic::Fixed(1));
        adcl::simmemo::clear_enabled_override();
        assert_eq!(a.total, fresh.total);
        assert_eq!(a.history, fresh.history);
        assert!(a.sim_events > 0);
        // The replay is the same shared outcome, not a re-simulation.
        assert!(std::sync::Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn prebuild_then_run_is_identical() {
        let s = spec();
        let fresh = s.run(SelectionLogic::Fixed(0));
        s.prebuild_schedules();
        let warm = s.run(SelectionLogic::Fixed(0));
        assert_eq!(fresh.total.to_bits(), warm.total.to_bits());
        assert_eq!(fresh.history, warm.history);
    }

    #[test]
    fn prewarm_sweep_then_parallel_run_is_identical() {
        let specs: Vec<MicrobenchSpec> = (0..4)
            .map(|k| {
                let mut s = spec();
                s.msg_bytes = 1024 << k;
                s
            })
            .collect();
        let serial: Vec<f64> = specs
            .iter()
            .map(|s| s.run(SelectionLogic::Fixed(1)).total)
            .collect();
        MicrobenchSpec::prewarm_sweep(4, &specs);
        let warm = simcore::par::par_map(4, &specs, |_, s| s.run(SelectionLogic::Fixed(1)).total);
        for (a, b) in serial.iter().zip(&warm) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn est_run_nanos_scales_with_work() {
        let s = spec();
        let small = s.est_run_nanos();
        let mut big = s.clone();
        big.iters *= 10;
        big.nprocs *= 2;
        assert!(big.est_run_nanos() > small * 10);
        assert!(small > 0);
    }

    #[test]
    fn all_ops_run() {
        for op in [
            CollectiveOp::Ialltoall,
            CollectiveOp::IalltoallExtended,
            CollectiveOp::Iallgather,
            CollectiveOp::Ireduce,
            CollectiveOp::Iallreduce,
            CollectiveOp::Igather,
            CollectiveOp::Iscatter,
        ] {
            let mut s = spec();
            s.op = op;
            s.iters = 8;
            s.reps = 1;
            let out = s.run(SelectionLogic::BruteForce);
            assert_eq!(out.history.len(), 8, "{:?}", op);
        }
        // Ibcast has 21 functions; use heuristic with few reps.
        let mut s = spec();
        s.op = CollectiveOp::Ibcast;
        s.msg_bytes = 64 * 1024;
        s.iters = 25;
        s.reps = 2;
        let out = s.run(SelectionLogic::AttributeHeuristic);
        assert!(out.winner.is_some(), "heuristic should finish in 20 iters");
    }
}

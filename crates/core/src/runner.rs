//! The ADCL runtime: persistent requests, the progress interface, and the
//! behaviour that drives application scripts inside the simulated world.
//!
//! The public high-level API of ADCL 2.0 (Fig. 1 of the paper) maps onto
//! this module as follows:
//!
//! | paper API | here |
//! |---|---|
//! | `ADCL_Ialltoall_init(...)` | [`TunedOp`] added to a [`TuningSession`] |
//! | `ADCL_Timer_create(req, &timer)` | [`TuningSession::add_timer`] |
//! | `ADCL_Timer_start/_end` | [`Instr::TimerStart`] / [`Instr::TimerStop`] |
//! | `ADCL_Request_init` (start op) | [`Instr::Start`] |
//! | `ADCL_Progress` | [`Instr::Progress`] |
//! | `ADCL_Request_wait` | [`Instr::Wait`] |
//!
//! Application code is expressed as a per-rank [`Script`] — a lazy stream
//! of instructions — and the [`Runner`] interprets it as a
//! [`mpisim::RankBehavior`], charging realistic CPU costs for every
//! library visit. Operations support multiple concurrently outstanding
//! instances (slots), which the windowed FFT patterns rely on.

use crate::function::FunctionSet;
use crate::timer::Timer;
use crate::tuner::{Tuner, TunerConfig};
use mpisim::{RankBehavior, RankId, Step, Tag, World};
use nbc::executor::ScheduleExec;
use nbc::schedule::Schedule;
use simcore::metrics::{self, Counter};
use simcore::SimTime;
use std::rc::Rc;
use std::sync::Arc;

/// One instruction of an application script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// Compute (application work) for the given duration.
    Compute(SimTime),
    /// Open timer `timer`'s measurement window.
    TimerStart(usize),
    /// Close timer `timer`'s measurement window.
    TimerStop(usize),
    /// Initiate operation `op` into instance slot `slot`.
    Start { op: usize, slot: usize },
    /// Invoke the ADCL progress engine for operation `op` (all outstanding
    /// instances). Costs the platform's progress-call overhead.
    Progress { op: usize },
    /// Wait for instance `slot` of operation `op` to complete.
    Wait { op: usize, slot: usize },
}

/// A lazy per-rank instruction stream.
pub trait Script {
    /// The next instruction, or `None` when the rank's program ends.
    fn next(&mut self) -> Option<Instr>;
}

/// A persistent, tuned collective operation (the ADCL request plus its
/// selection state).
///
/// Like the paper's request it owns its schedules: the first start of a
/// function on a rank builds that rank's schedule, and every later start
/// shares it; a symmetric function has one schedule for all ranks. They
/// are freed with the op, so a finished session keeps none. Builds count
/// as `nbc.cache.misses` and reuses as `nbc.cache.hits`.
pub struct TunedOp {
    /// Operation name for reports.
    pub name: String,
    /// The implementation pool.
    pub fnset: FunctionSet,
    /// Selection state (shared across ranks — the simulation equivalent of
    /// ADCL's agreed decision schedule).
    pub tuner: Tuner,
    /// Timer this operation is measured/co-tuned under, if any.
    pub timer: Option<usize>,
    /// Sub-communicator (global ranks, in local-rank order); `None` means
    /// the world communicator.
    comm: Option<Rc<Vec<RankId>>>,
    base_tag: u64,
    per_rank: Vec<RankOpState>,
    /// Schedule of function `f` on communicator-local rank `r` at
    /// `f * fnset.spec.nprocs + r`, built on its first start (a symmetric
    /// function uses only its rank-0 slot).
    schedules: Vec<Option<Arc<Schedule>>>,
    hits: &'static Counter,
    misses: &'static Counter,
}

struct RankOpState {
    /// Outstanding instances, ordered by slot (a window holds a handful).
    instances: Vec<Instance>,
    /// Monotone per-rank instance counter (tags); identical across ranks
    /// because all ranks start instances in the same order.
    instance_count: u64,
    /// Iteration counter used when the op has no timer.
    own_iter: usize,
    /// This rank's communicator-local rank; `None` off the communicator.
    local: Option<RankId>,
}

struct Instance {
    slot: usize,
    exec: ScheduleExec,
}

impl RankOpState {
    /// Index of `slot`'s instance, or where it would be inserted.
    fn find(&self, slot: usize) -> Result<usize, usize> {
        self.instances.binary_search_by_key(&slot, |i| i.slot)
    }
}

impl TunedOp {
    fn new(name: &str, fnset: FunctionSet, tuner: Tuner, base_tag: u64, nranks: usize) -> TunedOp {
        TunedOp {
            name: name.to_string(),
            tuner,
            timer: None,
            comm: None,
            base_tag,
            per_rank: (0..nranks)
                .map(|rank| RankOpState {
                    instances: Vec::new(),
                    instance_count: 0,
                    own_iter: 0,
                    local: Some(rank),
                })
                .collect(),
            schedules: vec![None; fnset.len() * fnset.spec.nprocs],
            fnset,
            hits: metrics::counter("nbc.cache.hits"),
            misses: metrics::counter("nbc.cache.misses"),
        }
    }

    /// Run the op on sub-communicator `comm` (global ranks, in local-rank
    /// order) instead of the world.
    fn set_comm(&mut self, comm: Vec<RankId>) {
        for st in &mut self.per_rank {
            st.local = None;
        }
        for (local, &rank) in comm.iter().enumerate() {
            self.per_rank[rank].local = Some(local);
        }
        self.comm = Some(Rc::new(comm));
    }

    /// The schedule of function `f` on communicator-local rank `local`:
    /// built on the first call, shared by every later one. A symmetric
    /// function's schedule is the same on every rank, so it is built once,
    /// as rank 0's, and shared by all of them.
    pub fn schedule(&mut self, f: usize, local: RankId) -> Arc<Schedule> {
        let func = &self.fnset.functions[f];
        let local = if func.symmetric { 0 } else { local };
        let slot = &mut self.schedules[f * self.fnset.spec.nprocs + local];
        if let Some(sched) = slot {
            self.hits.inc();
            return Arc::clone(sched);
        }
        self.misses.inc();
        let built = (func.builder)(local, &self.fnset.spec);
        Arc::clone(slot.insert(Arc::new(built)))
    }

    /// Start one instance. `iter` is the tuning iteration; `active` says
    /// whether this op is the one currently learning under its timer.
    /// Returns `(cpu_cost, blocking)`.
    fn start_instance(
        &mut self,
        w: &mut World,
        rank: RankId,
        slot: usize,
        iter: usize,
        active: bool,
    ) -> (SimTime, bool) {
        let f_idx = if active {
            self.tuner.function_for_iter(iter)
        } else {
            self.tuner.frozen_for_iter(iter)
        };
        // Schedules are built against communicator-local ranks.
        let local = self.per_rank[rank]
            .local
            .unwrap_or_else(|| panic!("op {}: rank {rank} not in communicator", self.name));
        let sched = self.schedule(f_idx, local);
        let blocking = self.fnset.functions[f_idx].blocking;
        let st = &mut self.per_rank[rank];
        let tag = Tag((self.base_tag << 40) | st.instance_count);
        st.instance_count += 1;
        st.own_iter = iter + 1;
        let mut exec = match &self.comm {
            Some(c) => ScheduleExec::new_on_comm(c.clone(), local, tag, sched),
            None => ScheduleExec::new(rank, tag, sched),
        };
        let now = w.rank_now(rank);
        let cost = exec.start(w, now);
        match st.find(slot) {
            Ok(_) => panic!("op {}: slot {slot} already in use", self.name),
            Err(at) => st.instances.insert(at, Instance { slot, exec }),
        }
        (cost, blocking)
    }

    /// Progress every outstanding instance on `rank`. `explicit` adds the
    /// platform's progress-call overhead (an `ADCL_Progress` visit);
    /// wait-loop polling passes `false`.
    fn progress_all(&mut self, w: &mut World, rank: RankId, explicit: bool) -> SimTime {
        let outstanding: usize = self.per_rank[rank]
            .instances
            .iter()
            .map(|i| i.exec.outstanding_actions())
            .sum();
        let mut cost = if explicit {
            w.platform().progress_cost(outstanding)
        } else {
            SimTime::ZERO
        };
        // Slot order: each instance starts where the previous one's CPU
        // cost ended, so the order is part of the simulated timeline.
        for inst in &mut self.per_rank[rank].instances {
            let now = w.rank_now(rank) + cost;
            let (c, _done) = inst.exec.try_progress(w, now);
            cost += c;
        }
        cost
    }

    /// Progress only instance `slot`; returns `(cost, done)`.
    fn progress_instance(&mut self, w: &mut World, rank: RankId, slot: usize) -> (SimTime, bool) {
        let now = w.rank_now(rank);
        let st = &mut self.per_rank[rank];
        let at = st
            .find(slot)
            .unwrap_or_else(|_| panic!("op {}: wait on empty slot {slot}", self.name));
        st.instances[at].exec.try_progress(w, now)
    }

    fn finish_instance(&mut self, rank: RankId, slot: usize) {
        let st = &mut self.per_rank[rank];
        if let Ok(at) = st.find(slot) {
            st.instances.remove(at);
        }
    }

    /// True if `slot` holds an outstanding instance on `rank`.
    fn has_instance(&self, rank: RankId, slot: usize) -> bool {
        self.per_rank[rank].find(slot).is_ok()
    }

    /// Iteration counter for ops without a timer.
    fn own_iter(&self, rank: RankId) -> usize {
        self.per_rank[rank].own_iter
    }
}

/// A set of tuned operations and timers forming one tuning run.
#[derive(Default)]
pub struct TuningSession {
    /// The operations, indexed by the ids scripts refer to.
    pub ops: Vec<TunedOp>,
    /// The timers, indexed likewise.
    pub timers: Vec<Timer>,
    nranks: usize,
}

impl TuningSession {
    /// A session over `nranks` ranks.
    pub fn new(nranks: usize) -> TuningSession {
        TuningSession {
            ops: Vec::new(),
            timers: Vec::new(),
            nranks,
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Register a tuned operation; returns its op id.
    pub fn add_op(&mut self, name: &str, fnset: FunctionSet, cfg: TunerConfig) -> usize {
        let tuner = Tuner::new(&fnset, cfg);
        self.add_op_with_tuner(name, fnset, tuner)
    }

    /// Register an operation with a pre-built tuner (e.g. seeded from the
    /// history store).
    pub fn add_op_with_tuner(&mut self, name: &str, fnset: FunctionSet, mut tuner: Tuner) -> usize {
        let id = self.ops.len();
        // Default audit-log context; drivers overwrite it with a richer
        // label (platform/shape/strategy) when one is known.
        tuner.set_label(name);
        self.ops
            .push(TunedOp::new(name, fnset, tuner, id as u64 + 1, self.nranks));
        id
    }

    /// Register an operation on a sub-communicator: `comm` lists the
    /// participating global ranks in local-rank order; the function-set's
    /// `spec.nprocs` must equal `comm.len()`. Only members may start or
    /// wait on this op.
    pub fn add_op_on_comm(
        &mut self,
        name: &str,
        fnset: FunctionSet,
        cfg: TunerConfig,
        comm: Vec<RankId>,
    ) -> usize {
        assert_eq!(
            fnset.spec.nprocs,
            comm.len(),
            "function-set sized for {} ranks but communicator has {}",
            fnset.spec.nprocs,
            comm.len()
        );
        assert!(
            comm.iter().all(|&r| r < self.nranks),
            "communicator rank out of range"
        );
        let id = self.add_op(name, fnset, cfg);
        self.ops[id].set_comm(comm);
        id
    }

    /// Create a timer over only the member ranks of `ops`' communicators
    /// (they must share one membership). Use for sections executed by a
    /// sub-communicator.
    pub fn add_timer_subset(&mut self, ops: Vec<usize>, members: &[RankId]) -> usize {
        let id = self.timers.len();
        for &op in &ops {
            assert!(op < self.ops.len(), "timer refers to unknown op {op}");
            self.ops[op].timer = Some(id);
        }
        self.timers
            .push(Timer::new_subset(self.nranks, members, ops));
        id
    }

    /// Create a timer measuring (and co-tuning) the given operations;
    /// returns its timer id.
    pub fn add_timer(&mut self, ops: Vec<usize>) -> usize {
        let id = self.timers.len();
        for &op in &ops {
            assert!(op < self.ops.len(), "timer refers to unknown op {op}");
            self.ops[op].timer = Some(id);
        }
        self.timers.push(Timer::new(self.nranks, ops));
        id
    }

    /// The op among `timer`'s attached ops that is currently learning
    /// (first unconverged, in attachment order).
    fn active_op_now(&self, timer: usize) -> Option<usize> {
        self.timers[timer]
            .ops
            .iter()
            .copied()
            .find(|&op| self.ops[op].tuner.winner().is_none())
    }
}

/// Interprets per-rank scripts against a [`TuningSession`] inside the
/// simulated world.
pub struct Runner {
    /// The session being executed (holds all results after the run).
    pub session: TuningSession,
    scripts: Vec<Box<dyn Script>>,
    waiting: Vec<Option<(usize, usize)>>,
}

impl Runner {
    /// Pair a session with one script per rank.
    ///
    /// # Panics
    /// Panics if the script count differs from the session's rank count.
    pub fn new(session: TuningSession, scripts: Vec<Box<dyn Script>>) -> Runner {
        assert_eq!(
            scripts.len(),
            session.nranks(),
            "one script per rank required"
        );
        let n = scripts.len();
        Runner {
            session,
            scripts,
            waiting: vec![None; n],
        }
    }

    /// Tuning iteration for `op` as seen by `rank` (its timer's window
    /// count, or the op's own start counter when untimed).
    fn iter_for(&self, op: usize, rank: RankId) -> usize {
        match self.session.ops[op].timer {
            Some(t) => self.session.timers[t].iter_of(rank),
            None => self.session.ops[op].own_iter(rank),
        }
    }

    /// Whether `op` is actively learning in iteration `iter` (memoized per
    /// timer so racing ranks agree).
    fn is_active(&mut self, op: usize, iter: usize) -> bool {
        let Some(t) = self.session.ops[op].timer else {
            return true;
        };
        let active = {
            let memo = &self.session.timers[t].active_memo;
            if iter < memo.len() {
                memo[iter]
            } else {
                let a = self.session.active_op_now(t);
                let memo = &mut self.session.timers[t].active_memo;
                while memo.len() <= iter {
                    memo.push(a);
                }
                a
            }
        };
        active == Some(op) || active.is_none()
    }

    fn record_iteration(&mut self, timer: usize, iter: usize, elapsed: f64) {
        let active = self.session.timers[timer]
            .active_memo
            .get(iter)
            .copied()
            .flatten();
        // Attribute the measurement to the op that was learning in this
        // iteration; if all ops had converged, record to each winner's
        // sample set (harmless, keeps statistics flowing).
        match active {
            Some(op) => self.session.ops[op].tuner.record(iter, elapsed),
            None => {
                let ops = self.session.timers[timer].ops.clone();
                for op in ops {
                    self.session.ops[op].tuner.record(iter, elapsed);
                }
            }
        }
    }
}

impl RankBehavior for Runner {
    fn step(&mut self, w: &mut World, rank: RankId) -> Step {
        loop {
            // Finish an in-progress wait before consuming instructions.
            if let Some((op, slot)) = self.waiting[rank] {
                let (cost, done) = self.session.ops[op].progress_instance(w, rank, slot);
                if done {
                    self.session.ops[op].finish_instance(rank, slot);
                    self.waiting[rank] = None;
                    if cost > SimTime::ZERO {
                        return Step::Busy(cost);
                    }
                    continue;
                }
                if cost > SimTime::ZERO {
                    return Step::Busy(cost);
                }
                return Step::Block;
            }
            let Some(instr) = self.scripts[rank].next() else {
                return Step::Done;
            };
            match instr {
                Instr::Compute(d) => return Step::Compute(d),
                Instr::TimerStart(t) => {
                    let now = w.rank_now(rank);
                    self.session.timers[t].start(rank, now);
                }
                Instr::TimerStop(t) => {
                    let now = w.rank_now(rank);
                    if let Some((iter, elapsed)) = self.session.timers[t].stop(rank, now) {
                        self.record_iteration(t, iter, elapsed);
                    }
                }
                Instr::Start { op, slot } => {
                    let iter = self.iter_for(op, rank);
                    let active = self.is_active(op, iter);
                    let (cost, blocking) =
                        self.session.ops[op].start_instance(w, rank, slot, iter, active);
                    if blocking {
                        // Blocking variant: the operation completes inside
                        // the call — the request's wait pointer is NULL.
                        self.waiting[rank] = Some((op, slot));
                    }
                    if cost > SimTime::ZERO {
                        return Step::Busy(cost);
                    }
                }
                Instr::Progress { op } => {
                    let cost = self.session.ops[op].progress_all(w, rank, true);
                    if cost > SimTime::ZERO {
                        return Step::Busy(cost);
                    }
                }
                Instr::Wait { op, slot } => {
                    // A wait on an empty slot is a no-op: this is exactly
                    // the "blocking function = NULL wait pointer" case —
                    // the operation already completed inside `start`.
                    if self.session.ops[op].has_instance(rank, slot) {
                        self.waiting[rank] = Some((op, slot));
                    }
                }
            }
        }
    }
}

/// A pre-materialized instruction list (convenient for tests and short
/// scripts).
pub struct VecScript {
    instrs: std::vec::IntoIter<Instr>,
}

impl VecScript {
    /// Wrap an instruction vector.
    pub fn new(instrs: Vec<Instr>) -> VecScript {
        VecScript {
            instrs: instrs.into_iter(),
        }
    }

    /// Box a vector of instruction vectors into per-rank scripts.
    pub fn boxed(per_rank: Vec<Vec<Instr>>) -> Vec<Box<dyn Script>> {
        per_rank
            .into_iter()
            .map(|v| Box::new(VecScript::new(v)) as Box<dyn Script>)
            .collect()
    }
}

impl Script for VecScript {
    fn next(&mut self) -> Option<Instr> {
        self.instrs.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterKind;
    use crate::strategy::SelectionLogic;
    use mpisim::NoiseConfig;
    use nbc::schedule::CollSpec;
    use netmodel::{Placement, Platform};

    fn simple_loop(op: usize, timer: usize, iters: usize, compute: SimTime) -> Vec<Instr> {
        let mut v = Vec::new();
        for _ in 0..iters {
            v.push(Instr::TimerStart(timer));
            v.push(Instr::Start { op, slot: 0 });
            v.push(Instr::Compute(compute));
            v.push(Instr::Progress { op });
            v.push(Instr::Wait { op, slot: 0 });
            v.push(Instr::TimerStop(timer));
        }
        v
    }

    fn run_session(nranks: usize, logic: SelectionLogic, iters: usize) -> (TuningSession, SimTime) {
        let mut w = World::new(
            Platform::whale(),
            nranks,
            Placement::Block,
            NoiseConfig::none(),
        );
        let mut session = TuningSession::new(nranks);
        let fnset = FunctionSet::ialltoall_default(CollSpec::new(nranks, 1024));
        let cfg = TunerConfig {
            logic,
            reps: 3,
            warmup: 1,
            filter: FilterKind::default(),
        };
        let op = session.add_op("ialltoall", fnset, cfg);
        let timer = session.add_timer(vec![op]);
        let scripts = VecScript::boxed(
            (0..nranks)
                .map(|_| simple_loop(op, timer, iters, SimTime::from_micros(200)))
                .collect(),
        );
        let mut runner = Runner::new(session, scripts);
        let makespan = w.run(&mut runner).expect("no deadlock");
        (runner.session, makespan)
    }

    #[test]
    fn brute_force_converges_in_benchmark_loop() {
        let (session, makespan) = run_session(8, SelectionLogic::BruteForce, 20);
        let op = &session.ops[0];
        assert!(op.tuner.winner().is_some(), "should converge after 9 iters");
        assert_eq!(session.timers[0].history().len(), 20);
        assert!(makespan >= SimTime::from_micros(200) * 20);
        // Convergence right after the 3 functions x 3 reps learning phase,
        // plus at most a couple of provisional iterations while the last
        // measurements are reported by lagging ranks.
        let conv = op
            .tuner
            .converged_at()
            .expect("tuner did not converge within 20 iters");
        assert!((9..=11).contains(&conv), "converged at {conv}");
    }

    #[test]
    fn non_convergence_is_reported_not_a_panic() {
        // Too few iterations for the 3 functions x 3 reps learning phase:
        // the tuner must report "no winner yet" rather than panicking when
        // the caller asks where it converged.
        let (session, _) = run_session(4, SelectionLogic::BruteForce, 4);
        let op = &session.ops[0];
        assert!(op.tuner.winner().is_none(), "4 iters cannot converge");
        assert!(
            op.tuner.converged_at().is_none(),
            "converged_at must stay None without a winner"
        );
    }

    #[test]
    fn fixed_logic_never_switches() {
        let (session, _) = run_session(4, SelectionLogic::Fixed(2), 6);
        let op = &session.ops[0];
        assert!(op.tuner.assignments().iter().all(|&f| f == 2));
    }

    #[test]
    fn timer_history_reflects_compute_floor() {
        let (session, _) = run_session(4, SelectionLogic::Fixed(0), 5);
        for &t in session.timers[0].history() {
            assert!(t >= 200e-6, "iteration can't beat its compute time: {t}");
        }
    }

    #[test]
    fn winner_is_plausible() {
        // On whale with 8 ranks / 1 KiB the tuned result must be at least
        // as good as the worst fixed choice.
        let (tuned, _) = run_session(8, SelectionLogic::BruteForce, 30);
        let winner = tuned.ops[0].tuner.winner().unwrap();
        let mut scores = Vec::new();
        for f in 0..3 {
            let (fixed, _) = run_session(8, SelectionLogic::Fixed(f), 30);
            scores.push(fixed.timers[0].total_from(10));
        }
        let best = scores.iter().cloned().fold(f64::INFINITY, f64::min);
        let worst = scores.iter().cloned().fold(0.0f64, f64::max);
        let winner_score = scores[winner];
        assert!(
            winner_score <= best * 1.10 || winner_score < worst,
            "winner {winner} score {winner_score} vs best {best}"
        );
    }

    #[test]
    fn blocking_function_completes_inside_start() {
        let nranks = 4;
        let mut w = World::new(
            Platform::whale(),
            nranks,
            Placement::Block,
            NoiseConfig::none(),
        );
        let mut session = TuningSession::new(nranks);
        let fnset = FunctionSet::ialltoall_extended(CollSpec::new(nranks, 2048));
        let blocking_idx = fnset.index_of("linear-blocking").unwrap();
        let op = session.add_op(
            "ialltoall-ext",
            fnset,
            TunerConfig {
                logic: SelectionLogic::Fixed(blocking_idx),
                reps: 1,
                warmup: 0,
                filter: FilterKind::default(),
            },
        );
        let timer = session.add_timer(vec![op]);
        let scripts = VecScript::boxed(
            (0..nranks)
                .map(|_| simple_loop(op, timer, 3, SimTime::from_micros(50)))
                .collect(),
        );
        let mut runner = Runner::new(session, scripts);
        w.run(&mut runner).expect("no deadlock");
        assert_eq!(runner.session.timers[0].history().len(), 3);
    }

    #[test]
    fn multiple_outstanding_instances() {
        // Window of 2 concurrent alltoalls per iteration.
        let nranks = 4;
        let mut w = World::new(
            Platform::whale(),
            nranks,
            Placement::Block,
            NoiseConfig::none(),
        );
        let mut session = TuningSession::new(nranks);
        let fnset = FunctionSet::ialltoall_default(CollSpec::new(nranks, 512));
        let op = session.add_op(
            "ialltoall",
            fnset,
            TunerConfig {
                logic: SelectionLogic::Fixed(0),
                reps: 1,
                warmup: 0,
                filter: FilterKind::default(),
            },
        );
        let timer = session.add_timer(vec![op]);
        let mk = || {
            let mut v = Vec::new();
            for _ in 0..4 {
                v.push(Instr::TimerStart(timer));
                v.push(Instr::Start { op, slot: 0 });
                v.push(Instr::Start { op, slot: 1 });
                v.push(Instr::Compute(SimTime::from_micros(100)));
                v.push(Instr::Progress { op });
                v.push(Instr::Wait { op, slot: 0 });
                v.push(Instr::Wait { op, slot: 1 });
                v.push(Instr::TimerStop(timer));
            }
            v
        };
        let scripts = VecScript::boxed((0..nranks).map(|_| mk()).collect());
        let mut runner = Runner::new(session, scripts);
        w.run(&mut runner).expect("no deadlock");
        assert_eq!(runner.session.timers[0].history().len(), 4);
    }

    #[test]
    #[should_panic(expected = "slot 0 already in use")]
    fn double_start_same_slot_panics() {
        let mut w = World::new(Platform::whale(), 2, Placement::Block, NoiseConfig::none());
        let mut session = TuningSession::new(2);
        let fnset = FunctionSet::ialltoall_default(CollSpec::new(2, 64));
        let op = session.add_op(
            "a2a",
            fnset,
            TunerConfig {
                logic: SelectionLogic::Fixed(0),
                reps: 1,
                warmup: 0,
                filter: FilterKind::default(),
            },
        );
        let scripts = VecScript::boxed(vec![
            vec![Instr::Start { op, slot: 0 }, Instr::Start { op, slot: 0 }],
            vec![],
        ]);
        let mut runner = Runner::new(session, scripts);
        let _ = w.run(&mut runner);
    }

    #[test]
    #[should_panic(expected = "unknown op")]
    fn timer_with_unknown_op_panics() {
        let mut session = TuningSession::new(2);
        session.add_timer(vec![3]);
    }

    #[test]
    #[should_panic(expected = "one script per rank")]
    fn script_count_mismatch_panics() {
        let session = TuningSession::new(4);
        Runner::new(session, VecScript::boxed(vec![vec![], vec![]]));
    }

    #[test]
    fn untimed_op_uses_own_iteration_counter() {
        // No timer: the op's own start counter drives the tuner, so the
        // brute-force learning still cycles functions.
        let nranks = 4;
        let mut w = World::new(
            Platform::whale(),
            nranks,
            Placement::Block,
            NoiseConfig::none(),
        );
        let mut session = TuningSession::new(nranks);
        let fnset = FunctionSet::ialltoall_default(CollSpec::new(nranks, 256));
        let op = session.add_op(
            "a2a",
            fnset,
            TunerConfig {
                logic: SelectionLogic::BruteForce,
                reps: 1,
                warmup: 0,
                filter: FilterKind::default(),
            },
        );
        let mk = || {
            let mut v = Vec::new();
            for _ in 0..6 {
                v.push(Instr::Start { op, slot: 0 });
                v.push(Instr::Wait { op, slot: 0 });
            }
            v
        };
        let scripts = VecScript::boxed((0..nranks).map(|_| mk()).collect());
        let mut runner = Runner::new(session, scripts);
        w.run(&mut runner).expect("no deadlock");
        // All three functions were assigned during the first three starts.
        let assigned: Vec<usize> = runner.session.ops[op].tuner.assignments()[..3].to_vec();
        assert_eq!(assigned, vec![0, 1, 2]);
    }

    #[test]
    fn ibcast_runs_through_runner() {
        // A rooted, segmented operation through the full runtime.
        let nranks = 8;
        let mut w = World::new(
            Platform::whale(),
            nranks,
            Placement::Block,
            NoiseConfig::none(),
        );
        let mut session = TuningSession::new(nranks);
        let fnset = FunctionSet::ibcast_default(CollSpec::new(nranks, 256 * 1024));
        let op = session.add_op(
            "ibcast",
            fnset,
            TunerConfig {
                logic: SelectionLogic::Fixed(6), // tree2-seg32k region
                reps: 1,
                warmup: 0,
                filter: FilterKind::default(),
            },
        );
        let timer = session.add_timer(vec![op]);
        let scripts = VecScript::boxed(
            (0..nranks)
                .map(|_| simple_loop(op, timer, 4, SimTime::from_micros(300)))
                .collect(),
        );
        let mut runner = Runner::new(session, scripts);
        w.run(&mut runner).expect("no deadlock");
        assert_eq!(runner.session.timers[timer].history().len(), 4);
    }

    #[test]
    fn subcommunicators_tune_independently() {
        // Two disjoint halves of an 8-rank world each tune their own
        // all-to-all with different message sizes; the winners may differ
        // and the runs do not interfere.
        let nranks = 8;
        let mut w = World::new(
            Platform::whale(),
            nranks,
            Placement::Block,
            NoiseConfig::none(),
        );
        let mut session = TuningSession::new(nranks);
        let comm_a: Vec<usize> = (0..4).collect();
        let comm_b: Vec<usize> = (4..8).collect();
        let cfg = TunerConfig {
            logic: SelectionLogic::BruteForce,
            reps: 2,
            warmup: 0,
            filter: FilterKind::default(),
        };
        let op_a = session.add_op_on_comm(
            "a2a-small",
            FunctionSet::ialltoall_default(CollSpec::new(4, 512)),
            cfg,
            comm_a.clone(),
        );
        let op_b = session.add_op_on_comm(
            "a2a-large",
            FunctionSet::ialltoall_default(CollSpec::new(4, 256 * 1024)),
            cfg,
            comm_b.clone(),
        );
        let timer_a = session.add_timer_subset(vec![op_a], &comm_a);
        let timer_b = session.add_timer_subset(vec![op_b], &comm_b);
        let iters = 12;
        let mk = |op: usize, timer: usize| {
            let mut v = Vec::new();
            for _ in 0..iters {
                v.push(Instr::TimerStart(timer));
                v.push(Instr::Start { op, slot: 0 });
                v.push(Instr::Compute(SimTime::from_micros(500)));
                v.push(Instr::Progress { op });
                v.push(Instr::Wait { op, slot: 0 });
                v.push(Instr::TimerStop(timer));
            }
            v
        };
        let scripts = VecScript::boxed(
            (0..nranks)
                .map(|r| {
                    if r < 4 {
                        mk(op_a, timer_a)
                    } else {
                        mk(op_b, timer_b)
                    }
                })
                .collect(),
        );
        let mut runner = Runner::new(session, scripts);
        w.run(&mut runner).expect("no deadlock");
        let s = runner.session;
        assert!(s.ops[op_a].tuner.winner().is_some(), "half A converged");
        assert!(s.ops[op_b].tuner.winner().is_some(), "half B converged");
        assert_eq!(s.timers[timer_a].history().len(), iters);
        assert_eq!(s.timers[timer_b].history().len(), iters);
    }

    #[test]
    #[should_panic(expected = "not in communicator")]
    fn non_member_start_panics() {
        let mut w = World::new(Platform::whale(), 4, Placement::Block, NoiseConfig::none());
        let mut session = TuningSession::new(4);
        let op = session.add_op_on_comm(
            "a2a",
            FunctionSet::ialltoall_default(CollSpec::new(2, 64)),
            TunerConfig {
                logic: SelectionLogic::Fixed(0),
                reps: 1,
                warmup: 0,
                filter: FilterKind::default(),
            },
            vec![0, 1],
        );
        // Rank 3 (not a member) tries to start the op.
        let scripts = VecScript::boxed(vec![
            vec![],
            vec![],
            vec![],
            vec![Instr::Start { op, slot: 0 }],
        ]);
        let mut runner = Runner::new(session, scripts);
        let _ = w.run(&mut runner);
    }

    #[test]
    #[should_panic(expected = "function-set sized for")]
    fn comm_size_mismatch_panics() {
        let mut session = TuningSession::new(8);
        session.add_op_on_comm(
            "a2a",
            FunctionSet::ialltoall_default(CollSpec::new(4, 64)),
            TunerConfig::default(),
            vec![0, 1, 2],
        );
    }

    #[test]
    fn cotuning_two_ops_sequentially() {
        let nranks = 4;
        let mut w = World::new(
            Platform::whale(),
            nranks,
            Placement::Block,
            NoiseConfig::none(),
        );
        let mut session = TuningSession::new(nranks);
        let cfg = TunerConfig {
            logic: SelectionLogic::BruteForce,
            reps: 2,
            warmup: 1,
            filter: FilterKind::default(),
        };
        let op_a = session.add_op(
            "alltoall",
            FunctionSet::ialltoall_default(CollSpec::new(nranks, 512)),
            cfg,
        );
        let op_b = session.add_op(
            "allgather",
            FunctionSet::iallgather_default(CollSpec::new(nranks, 512)),
            cfg,
        );
        let timer = session.add_timer(vec![op_a, op_b]);
        let iters = 20;
        let mk = || {
            let mut v = Vec::new();
            for _ in 0..iters {
                v.push(Instr::TimerStart(timer));
                v.push(Instr::Start { op: op_a, slot: 0 });
                v.push(Instr::Compute(SimTime::from_micros(50)));
                v.push(Instr::Progress { op: op_a });
                v.push(Instr::Wait { op: op_a, slot: 0 });
                v.push(Instr::Start { op: op_b, slot: 0 });
                v.push(Instr::Compute(SimTime::from_micros(50)));
                v.push(Instr::Progress { op: op_b });
                v.push(Instr::Wait { op: op_b, slot: 0 });
                v.push(Instr::TimerStop(timer));
            }
            v
        };
        let scripts = VecScript::boxed((0..nranks).map(|_| mk()).collect());
        let mut runner = Runner::new(session, scripts);
        w.run(&mut runner).expect("no deadlock");
        let s = runner.session;
        // op A learns first (3 functions x 2 reps = 6 iterations), then B.
        assert!(s.ops[0].tuner.winner().is_some(), "op A converged");
        assert!(s.ops[1].tuner.winner().is_some(), "op B converged");
        let a_conv = s.ops[0]
            .tuner
            .converged_at()
            .expect("tuner A did not converge within 20 iters");
        let b_conv = s.ops[1]
            .tuner
            .converged_at()
            .expect("tuner B did not converge within 20 iters");
        assert!(a_conv <= b_conv, "A ({a_conv}) tunes before B ({b_conv})");
    }
}

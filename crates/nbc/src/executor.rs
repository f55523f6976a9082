//! Schedule execution against the simulated MPI world.
//!
//! [`ScheduleExec`] is the non-blocking state of one collective operation on
//! one rank: a cursor into the schedule's rounds plus the point-to-point
//! handles of the current round. Its round-advance rule encodes the
//! LibNBC/progress semantics the paper revolves around:
//!
//! * posting a round costs CPU (`o_send`/`o_recv` per message, memcpy time
//!   for pack/unpack actions) — this is the non-overlappable part,
//! * a round *completes* when all its sends have drained and all its
//!   receives have been delivered,
//! * the next round is posted **only when the progress engine is invoked**
//!   ([`ScheduleExec::try_progress`]) — between progress calls a completed
//!   round just sits there, which is why multi-round algorithms need
//!   frequent progress calls to overlap (paper §IV, Fig. 7).
//!
//! Two pieces of bookkeeping keep the executor's host cost per round rather
//! than per message:
//!
//! * **Fan-out staging.** In [`PayloadMode::Pooled`] (opt-in; the default
//!   stages nothing) a round acquires and stamps one buffer per distinct
//!   send size and hands every send of that size a [`Payload::clone`] of
//!   it: the stamp, `(rank, round)`, is the same for all of them, so
//!   receivers observe the same bytes as with one buffer per send.
//! * **Completion cursor.** A progress visit asks only the handles past
//!   the prefix of `sends`/`recvs` already seen complete; posting a round
//!   resets the cursors. This is sound because the `now` passed to
//!   [`ScheduleExec::try_progress`] never decreases for one instance (the
//!   tuner's runner passes the rank clock plus the cost already charged)
//!   and a completion time, once set, never changes — so a handle
//!   complete at `t ≤ now` stays complete at every later visit. Debug
//!   builds check the cursor's answer against a full rescan on every
//!   visit.

use crate::schedule::{Op, OpKind, Schedule};
use mpisim::{Payload, RankId, RecvHandle, SendHandle, Tag, World};
use simcore::SimTime;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How the executor stages message payloads alongside the timing model.
///
/// Payloads never influence simulated time — only `bytes` feeds the network
/// model — so both modes produce byte-identical figure output (and event
/// digests: `payload_modes_are_timing_invariant` below). They differ only
/// in *host* cost:
///
/// * [`PayloadMode::Off`] — no payload engine at all. The default: tuning,
///   figure and daemon runs read byte counts, never byte contents.
/// * [`PayloadMode::Pooled`] — each round stages one shared buffer per
///   distinct send size ([`World::acquire_payload`]); delivery moves a
///   handle, never the bytes, and the buffer is freed when its last
///   handle drops. Opt in for a reader of the delivered bytes (a
///   value-checking test or verifier) with
///   [`ScheduleExec::set_payload_mode`] or [`set_default_payload_mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadMode {
    Off,
    Pooled,
}

/// Process-wide override installed by [`set_default_payload_mode`]:
/// whether new [`ScheduleExec`]s start in [`PayloadMode::Pooled`].
static DEFAULT_POOLED: AtomicBool = AtomicBool::new(false);

/// Override the payload mode new [`ScheduleExec`]s start in, process-wide
/// — for a caller whose collectives are built out of its reach (a whole
/// sweep or tuning session) and that wants their payloads staged.
pub fn set_default_payload_mode(mode: PayloadMode) {
    DEFAULT_POOLED.store(mode == PayloadMode::Pooled, Ordering::Relaxed);
}

/// Clear a [`set_default_payload_mode`] override, back to
/// [`PayloadMode::Off`].
pub fn clear_default_payload_mode() {
    DEFAULT_POOLED.store(false, Ordering::Relaxed);
}

/// The payload mode new [`ScheduleExec`]s start in: the
/// [`set_default_payload_mode`] override if set, else [`PayloadMode::Off`].
pub fn default_payload_mode() -> PayloadMode {
    if DEFAULT_POOLED.load(Ordering::Relaxed) {
        PayloadMode::Pooled
    } else {
        PayloadMode::Off
    }
}

/// Execution state of one collective operation instance on one rank.
#[derive(Debug)]
pub struct ScheduleExec {
    /// Global rank executing the schedule.
    rank: RankId,
    /// The executing rank in the schedule's communicator: its relative
    /// peers are taken from here.
    local: RankId,
    /// Communicator: maps the schedule's local peer indices to global
    /// ranks. `None` means the schedule already uses global ranks.
    comm: Option<std::rc::Rc<Vec<RankId>>>,
    tag: Tag,
    /// The schedule, shared: the operation that owns it starts it again
    /// on every iteration without copying any rounds.
    sched: Arc<Schedule>,
    /// Index of the next round to post.
    next_round: usize,
    /// Send handles of the currently outstanding round.
    sends: Vec<SendHandle>,
    /// Receive handles of the currently outstanding round.
    recvs: Vec<RecvHandle>,
    /// Lengths of the prefixes of `sends`/`recvs` already seen complete:
    /// the completion cursor (see the module docs).
    sends_seen: usize,
    recvs_seen: usize,
    /// The round's staged payloads, one per distinct send size, while
    /// `post_round` fans them out; empty between rounds.
    staged: Vec<(usize, Payload)>,
    started: bool,
    /// Payload staging strategy (see [`PayloadMode`]).
    payload_mode: PayloadMode,
    /// When the outstanding round was posted (start of its trace span).
    round_posted_at: SimTime,
    /// The round in `sends`/`recvs` has completed and been retired: its
    /// span emitted and its handles (with the delivered payloads) handed
    /// back to the world. The handles stay listed (they still count as this
    /// operation's [`outstanding_actions`](Self::outstanding_actions) until
    /// the next round replaces them) but must not be dereferenced again.
    round_retired: bool,
}

impl ScheduleExec {
    /// Wrap a schedule for execution by `rank` using `tag`. Accepts either
    /// an owned `Schedule` or a shared `Arc<Schedule>` (e.g. one an
    /// operation stored on its first start).
    pub fn new(rank: RankId, tag: Tag, sched: impl Into<Arc<Schedule>>) -> Self {
        ScheduleExec {
            rank,
            local: rank,
            comm: None,
            tag,
            sched: sched.into(),
            next_round: 0,
            sends: Vec::new(),
            recvs: Vec::new(),
            sends_seen: 0,
            recvs_seen: 0,
            staged: Vec::new(),
            started: false,
            payload_mode: default_payload_mode(),
            round_posted_at: SimTime::ZERO,
            round_retired: true,
        }
    }

    /// Wrap a schedule built against communicator-local ranks for the
    /// rank `local` of `comm`: the peers in the schedule index into `comm`,
    /// which maps them to global ranks.
    ///
    /// # Panics
    /// Panics if `local` is outside `comm`.
    pub fn new_on_comm(
        comm: std::rc::Rc<Vec<RankId>>,
        local: RankId,
        tag: Tag,
        sched: impl Into<Arc<Schedule>>,
    ) -> Self {
        let mut exec = ScheduleExec::new(comm[local], tag, sched);
        exec.local = local;
        exec.comm = Some(comm);
        exec
    }

    /// Override the payload staging mode for this instance.
    pub fn set_payload_mode(&mut self, mode: PayloadMode) {
        self.payload_mode = mode;
    }

    /// The payload staging mode in effect for this instance.
    pub fn payload_mode(&self) -> PayloadMode {
        self.payload_mode
    }

    /// The rank executing this schedule.
    pub fn rank(&self) -> RankId {
        self.rank
    }

    /// The schedule being executed.
    pub fn schedule(&self) -> &Schedule {
        &self.sched
    }

    /// Number of outstanding point-to-point actions in the current round
    /// (drives the per-action progress-call overhead).
    pub fn outstanding_actions(&self) -> usize {
        self.sends.len() + self.recvs.len()
    }

    /// True once every round has been posted and completed.
    pub fn is_done(&self, w: &World, now: SimTime) -> bool {
        self.started && self.next_round >= self.sched.num_rounds() && self.round_complete(w, now)
    }

    /// True if `start` has been called.
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// Whether the outstanding round has completed by `now`, asking every
    /// one of its handles.
    fn round_complete(&self, w: &World, now: SimTime) -> bool {
        self.round_retired
            || (self.sends.iter().all(|&h| w.send_done(h, now))
                && self.recvs.iter().all(|&h| w.recv_done(h, now)))
    }

    /// [`round_complete`](Self::round_complete) for a progress visit:
    /// asks only the handles past the completion cursors and advances them.
    fn advance_round(&mut self, w: &World, now: SimTime) -> bool {
        let done = self.round_retired || {
            let sends = &self.sends[self.sends_seen..];
            self.sends_seen += sends.iter().take_while(|&&h| w.send_done(h, now)).count();
            self.sends_seen == self.sends.len() && {
                let recvs = &self.recvs[self.recvs_seen..];
                self.recvs_seen += recvs.iter().take_while(|&&h| w.recv_done(h, now)).count();
                self.recvs_seen == self.recvs.len()
            }
        };
        debug_assert_eq!(
            done,
            self.round_complete(w, now),
            "rank {}: completion cursor disagrees with a full rescan at {now}",
            self.rank
        );
        done
    }

    /// Retire the completed round: emit its span and hand its
    /// point-to-point records back to the world. Releasing a receive drops
    /// its delivered payload handle.
    fn retire_round(&mut self, w: &mut World) {
        if self.round_retired {
            return;
        }
        self.round_retired = true;
        self.trace_round_end(w);
        for &h in &self.recvs {
            w.release_recv(h);
        }
        for &h in &self.sends {
            w.release_send(h);
        }
    }

    /// Post the actions of round `self.next_round`, charging CPU time for
    /// each. Returns the CPU time consumed; the caller must advance the
    /// rank clock by it (e.g. via `Step::Busy`).
    fn post_round(&mut self, w: &mut World, now: SimTime) -> SimTime {
        self.sends.clear();
        self.recvs.clear();
        self.sends_seen = 0;
        self.recvs_seen = 0;
        self.round_posted_at = now;
        self.round_retired = false;
        // Field-by-field borrows: the round is read out of `self.sched`
        // while its handles are pushed onto `self.sends`/`self.recvs`.
        let round = self.sched.round(self.next_round);
        // The header stamp models the sender touching its buffer.
        let stamp = (((self.rank as u64) << 32) | self.next_round as u64).to_le_bytes();
        self.next_round += 1;
        let (rank, tag) = (self.rank, self.tag);
        let stage = self.payload_mode == PayloadMode::Pooled;
        let comm = self.comm.as_deref();
        let (local, p) = (self.local, self.sched.nprocs());
        debug_assert!(local < p, "rank {local} runs a schedule of {p} ranks");
        let global = |op: &Op| {
            let peer = op.peer(local, p);
            comm.map_or(peer, |c| c[peer])
        };
        let mut t = now;
        for op in round {
            let bytes = op.bytes();
            match op.kind() {
                OpKind::Send => {
                    let peer = global(op);
                    t += w.o_send(rank, peer);
                    // The handle itself never affects simulated time.
                    let payload = stage.then(|| fan_out(&mut self.staged, w, bytes, &stamp));
                    if payload.is_some() && w.tracing() {
                        // Payload staged into the send buffer just before
                        // posting.
                        let args = [("bytes", bytes as u64), ("", 0)];
                        w.trace_instant(rank, "stage", "exec", t, args);
                    }
                    self.sends
                        .push(w.isend_payload(rank, peer, tag, bytes, t, payload));
                }
                OpKind::Recv => {
                    let peer = global(op);
                    t += w.o_recv(rank, peer);
                    self.recvs.push(w.irecv(rank, peer, tag, bytes, t));
                }
                OpKind::Copy => {
                    t += w.platform().intra.serialize(bytes);
                }
                OpKind::Calc => {
                    // Reduction arithmetic: modelled as two passes over the
                    // data (load + combine/store).
                    t += w.platform().intra.serialize(bytes).scale(2.0);
                }
            }
        }
        // The messages hold the staged buffers now; the last of them to be
        // released frees each one.
        self.staged.clear();
        // Posting happens inside the library: flush protocol actions
        // (answer RTSs for receives just posted, act on pending CTSs).
        w.poll(rank, t);
        t - now
    }

    /// Initiate the operation: post round 0. Returns the CPU cost.
    ///
    /// # Panics
    /// Panics if called twice.
    pub fn start(&mut self, w: &mut World, now: SimTime) -> SimTime {
        assert!(!self.started, "schedule started twice");
        self.started = true;
        if self.sched.num_rounds() == 0 {
            return SimTime::ZERO;
        }
        self.post_round(w, now)
    }

    /// Emit the completed round's span: from its posting to the latest
    /// send-drain / receive-delivery among its handles. No-op when tracing
    /// is off or the round had no point-to-point actions.
    fn trace_round_end(&self, w: &mut World) {
        if !w.tracing() || (self.sends.is_empty() && self.recvs.is_empty()) {
            return;
        }
        let mut end = self.round_posted_at;
        for &h in &self.sends {
            if let Some(t) = w.send_complete_time(h) {
                end = end.max(t);
            }
        }
        for &h in &self.recvs {
            if let Some(t) = w.recv_complete_time(h) {
                end = end.max(t);
            }
        }
        let args = [
            ("round", (self.next_round - 1) as u64),
            ("actions", (self.sends.len() + self.recvs.len()) as u64),
        ];
        w.trace_span(self.rank, "round", "exec", self.round_posted_at, end, args);
    }

    /// One progress-engine visit at time `now`: run the rendezvous protocol
    /// engine, then post as many follow-up rounds as have become ready.
    /// Returns `(cpu_cost, done)`.
    pub fn try_progress(&mut self, w: &mut World, now: SimTime) -> (SimTime, bool) {
        assert!(self.started, "progress before start");
        let mut cost = SimTime::ZERO;
        w.poll(self.rank, now);
        loop {
            let t = now + cost;
            if !self.advance_round(w, t) {
                return (cost, false);
            }
            self.retire_round(w);
            if self.next_round >= self.sched.num_rounds() {
                return (cost, true);
            }
            cost += self.post_round(w, t);
        }
    }
}

/// A handle on the round's staged `bytes`-byte payload: the first send of
/// that size acquires a buffer and writes the sender's `(rank, round)`
/// stamp into it, every later one shares it.
fn fan_out(
    staged: &mut Vec<(usize, Payload)>,
    w: &mut World,
    bytes: usize,
    stamp: &[u8],
) -> Payload {
    if let Some((_, p)) = staged.iter().find(|(b, _)| *b == bytes) {
        return p.clone();
    }
    let mut buf = w.acquire_payload(bytes);
    let n = buf.len().min(stamp.len());
    buf.as_mut_slice()[..n].copy_from_slice(&stamp[..n]);
    let p = buf.share();
    staged.push((bytes, p.clone()));
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alltoall::{build_alltoall, AlltoallAlgo};
    use crate::barrier::build_barrier;
    use crate::bcast::{build_bcast, BcastAlgo};
    use crate::schedule::CollSpec;
    use mpisim::{NoiseConfig, RankBehavior, Step};
    use netmodel::{Placement, Platform};

    /// Behaviour that starts one collective per rank and waits for it.
    struct OneShot {
        execs: Vec<Option<ScheduleExec>>,
        started: Vec<bool>,
        finish: Vec<SimTime>,
    }

    impl OneShot {
        fn new(execs: Vec<ScheduleExec>) -> Self {
            let n = execs.len();
            OneShot {
                execs: execs.into_iter().map(Some).collect(),
                started: vec![false; n],
                finish: vec![SimTime::ZERO; n],
            }
        }
    }

    impl RankBehavior for OneShot {
        fn step(&mut self, w: &mut World, r: RankId) -> Step {
            let Some(exec) = self.execs[r].as_mut() else {
                return Step::Done;
            };
            let now = w.rank_now(r);
            if !self.started[r] {
                self.started[r] = true;
                let cost = exec.start(w, now);
                return Step::Busy(cost);
            }
            let (cost, done) = exec.try_progress(w, now);
            if done {
                self.finish[r] = w.rank_now(r) + cost;
                self.execs[r] = None;
                return Step::Done;
            }
            if cost > SimTime::ZERO {
                return Step::Busy(cost);
            }
            Step::Block
        }
    }

    fn run_collective(
        platform: Platform,
        nranks: usize,
        build: impl Fn(usize) -> Schedule,
    ) -> (SimTime, Vec<SimTime>) {
        let mut w = World::new(platform, nranks, Placement::Block, NoiseConfig::none());
        let tag = w.alloc_tag();
        let execs = (0..nranks)
            .map(|r| ScheduleExec::new(r, tag, build(r)))
            .collect();
        let mut b = OneShot::new(execs);
        let makespan = w.run(&mut b).expect("no deadlock");
        (makespan, b.finish)
    }

    #[test]
    fn barrier_runs_to_completion() {
        for p in [2usize, 5, 16, 64] {
            let spec = CollSpec::new(p, 0);
            let (makespan, _) = run_collective(Platform::whale(), p, |r| build_barrier(r, &spec));
            assert!(makespan > SimTime::ZERO, "p={p}");
        }
    }

    #[test]
    fn alltoall_all_algorithms_complete() {
        for p in [2usize, 7, 16] {
            for algo in AlltoallAlgo::all() {
                let spec = CollSpec::new(p, 1024);
                let (makespan, _) =
                    run_collective(Platform::whale(), p, |r| build_alltoall(algo, r, &spec));
                assert!(makespan > SimTime::ZERO, "{algo:?} p={p}");
            }
        }
    }

    #[test]
    fn alltoall_large_rendezvous_completes() {
        // 128 KiB per pair forces rendezvous on InfiniBand.
        let p = 8;
        let spec = CollSpec::new(p, 128 * 1024);
        for algo in AlltoallAlgo::all() {
            let (makespan, _) =
                run_collective(Platform::whale(), p, |r| build_alltoall(algo, r, &spec));
            let floor = Platform::whale().inter.serialize(128 * 1024);
            assert!(makespan > floor, "{algo:?}: {makespan} <= {floor}");
        }
    }

    #[test]
    fn bcast_all_fanouts_complete() {
        let p = 16;
        for algo in BcastAlgo::all() {
            for seg in [32 * 1024usize, 64 * 1024, 128 * 1024] {
                let spec = CollSpec::new(p, 256 * 1024);
                let (makespan, _) =
                    run_collective(Platform::whale(), p, |r| build_bcast(algo, seg, r, &spec));
                assert!(makespan > SimTime::ZERO, "{algo:?} seg={seg}");
            }
        }
    }

    #[test]
    fn binomial_beats_chain_for_small_messages() {
        // Latency-bound regime: binomial depth log2(p) vs chain depth p.
        let p = 32;
        let spec = CollSpec::new(p, 1024);
        let (chain, _) = run_collective(Platform::whale(), p, |r| {
            build_bcast(BcastAlgo::Chain, 32 * 1024, r, &spec)
        });
        let (binom, _) = run_collective(Platform::whale(), p, |r| {
            build_bcast(BcastAlgo::Binomial, 32 * 1024, r, &spec)
        });
        assert!(binom < chain, "binomial {binom} vs chain {chain}");
    }

    #[test]
    fn dissemination_beats_linear_small_messages_many_ranks() {
        // Latency-bound: log2(p) rounds vs p-1 per-message overheads.
        let p = 64;
        let spec = CollSpec::new(p, 64);
        let (lin, _) = run_collective(Platform::whale(), p, |r| {
            build_alltoall(AlltoallAlgo::Linear, r, &spec)
        });
        let (diss, _) = run_collective(Platform::whale(), p, |r| {
            build_alltoall(AlltoallAlgo::Dissemination, r, &spec)
        });
        assert!(diss < lin, "dissemination {diss} vs linear {lin}");
    }

    #[test]
    fn linear_beats_dissemination_large_messages() {
        // Bandwidth-bound: Bruck moves (p/2)*log2(p)*s bytes vs (p-1)*s.
        let p = 16;
        let spec = CollSpec::new(p, 128 * 1024);
        let (lin, _) = run_collective(Platform::crill(), p, |r| {
            build_alltoall(AlltoallAlgo::Linear, r, &spec)
        });
        let (diss, _) = run_collective(Platform::crill(), p, |r| {
            build_alltoall(AlltoallAlgo::Dissemination, r, &spec)
        });
        assert!(lin < diss, "linear {lin} vs dissemination {diss}");
    }

    fn run_collective_world(
        platform: Platform,
        nranks: usize,
        mode: PayloadMode,
        build: impl Fn(usize) -> Schedule,
    ) -> (SimTime, World) {
        let mut w = World::new(platform, nranks, Placement::Block, NoiseConfig::none());
        let tag = w.alloc_tag();
        let execs = (0..nranks)
            .map(|r| {
                let mut e = ScheduleExec::new(r, tag, build(r));
                e.set_payload_mode(mode);
                e
            })
            .collect();
        let mut b = OneShot::new(execs);
        let makespan = w.run(&mut b).expect("no deadlock");
        (makespan, w)
    }

    #[test]
    fn one_shared_symmetric_schedule_runs_like_per_rank_builds() {
        // Relative peers let every rank run rank 0's all-to-all: the run is
        // the one per-rank builds give, event for event, on communicators
        // that keep and that reverse the world's rank order.
        let p = 12;
        let spec = CollSpec::new(p, 4096);
        for (algo, reversed) in AlltoallAlgo::all()
            .into_iter()
            .flat_map(|a| [(a, false), (a, true)])
        {
            let mut comm: Vec<RankId> = (0..p).collect();
            if reversed {
                comm.reverse();
            }
            let comm = std::rc::Rc::new(comm);
            let run = |build: &dyn Fn(usize) -> Arc<Schedule>| {
                let mut w = World::new(Platform::whale(), p, Placement::Block, NoiseConfig::none());
                let tag = w.alloc_tag();
                let mut execs: Vec<_> = (0..p)
                    .map(|l| ScheduleExec::new_on_comm(comm.clone(), l, tag, build(l)))
                    .collect();
                // `OneShot` indexes by global rank.
                execs.sort_by_key(|e| e.rank());
                let makespan = w.run(&mut OneShot::new(execs)).expect("no deadlock");
                (makespan, w.event_digest())
            };
            let shared = Arc::new(build_alltoall(algo, 0, &spec));
            let own = run(&|l| build_alltoall(algo, l, &spec).into());
            assert_eq!(
                own,
                run(&|_| shared.clone()),
                "{algo:?} reversed: {reversed}"
            );
        }
    }

    #[test]
    fn payload_modes_are_timing_invariant() {
        // The whole point of the payload engine: host-side staging strategy
        // must be invisible to the simulated clock.
        let p = 16;
        let spec = CollSpec::new(p, 64 * 1024);
        let build = |r: usize| build_bcast(BcastAlgo::Binomial, 32 * 1024, r, &spec);
        let (off, w_off) = run_collective_world(Platform::whale(), p, PayloadMode::Off, build);
        let (pooled, w_pooled) =
            run_collective_world(Platform::whale(), p, PayloadMode::Pooled, build);
        assert_eq!(off, pooled);
        assert_eq!(w_off.event_digest(), w_pooled.event_digest());
        assert_eq!(w_off.events_processed(), w_pooled.events_processed());
        // Pooled mode actually staged payloads; off mode staged none.
        assert!(w_pooled.payloads_staged() > 0);
        assert_eq!(w_off.payloads_staged(), 0);
    }

    #[test]
    fn rounds_hand_their_records_back() {
        // A pairwise exchange is one send and one receive per round, and
        // rendezvous keeps the ranks in step. With every retired round's
        // records recycled a rank holds a few rounds' worth at its busiest,
        // where it used to keep every round's three (45 and up).
        let p = 16;
        let spec = CollSpec::new(p, 128 * 1024);
        let build = |r: usize| build_alltoall(AlltoallAlgo::Pairwise, r, &spec);
        assert!(build(1).num_rounds() >= p - 1);
        let (_, w) = run_collective_world(Platform::whale(), p, PayloadMode::Pooled, build);
        assert!(
            w.msg_slots_max() <= 6,
            "{} record slots on one rank",
            w.msg_slots_max()
        );
    }

    /// One collective as the commit before message records were recycled
    /// ran it: retiring rounds must not move any of these.
    struct Golden {
        coll: &'static str,
        digest: u64,
        makespan_ns: u64,
        events: u64,
    }

    const fn golden(coll: &'static str, digest: u64, makespan_ns: u64, events: u64) -> Golden {
        Golden {
            coll,
            digest,
            makespan_ns,
            events,
        }
    }

    #[rustfmt::skip]
    const GOLDEN: [Golden; 4] = [
        golden("bcast", 0x84e5_9293_7da8_50b6, 279_670, 392),
        golden("a2a-eager", 0x728d_b8f4_abe2_2548, 6_248, 176),
        golden("a2a-rdv", 0x15fd_f16c_abc7_ccfe, 265_994, 288),
        golden("a2a-diss", 0x78ec_4241_bea2_f1b1, 34_568, 80),
    ];

    #[test]
    fn executor_runs_match_the_parent_commit() {
        for g in &GOLDEN {
            let coll = g.coll;
            let p = if coll == "bcast" { 16 } else { 8 };
            let build = |r: usize| match coll {
                "bcast" => build_bcast(
                    BcastAlgo::Binomial,
                    32 * 1024,
                    r,
                    &CollSpec::new(p, 256 * 1024),
                ),
                "a2a-eager" => build_alltoall(AlltoallAlgo::Pairwise, r, &CollSpec::new(p, 1024)),
                "a2a-rdv" => build_alltoall(AlltoallAlgo::Linear, r, &CollSpec::new(p, 128 * 1024)),
                _ => build_alltoall(AlltoallAlgo::Dissemination, r, &CollSpec::new(p, 4096)),
            };
            let (makespan, w) =
                run_collective_world(Platform::whale(), p, PayloadMode::Pooled, build);
            assert_eq!(w.event_digest(), g.digest, "{coll}: event digest");
            assert_eq!(makespan.as_nanos(), g.makespan_ns, "{coll}: makespan");
            assert_eq!(w.events_processed(), g.events, "{coll}: events");
        }
    }

    /// [`OneShot`] that, before each progress visit, collects the payload
    /// of every receive already complete and checks it against the
    /// sender's stamp for a single-round schedule.
    struct PayloadProbe {
        inner: OneShot,
        checked: usize,
    }

    impl RankBehavior for PayloadProbe {
        fn step(&mut self, w: &mut World, r: RankId) -> Step {
            let now = w.rank_now(r);
            if let Some(exec) = self.inner.execs[r].as_ref().filter(|e| !e.round_retired) {
                assert_eq!(exec.sched.num_rounds(), 1, "probe expects one round");
                let recvs = exec.sched.round(0).iter().filter_map(|op| match op.kind() {
                    OpKind::Recv => Some((op.peer(r, exec.sched.nprocs()), op.bytes())),
                    _ => None,
                });
                for (&h, (peer, bytes)) in exec.recvs.iter().zip(recvs) {
                    if !w.recv_done(h, now) {
                        continue;
                    }
                    let Some(p) = w.take_recv_payload(h) else {
                        continue;
                    };
                    assert_eq!(p.len(), bytes, "rank {r} from {peer}");
                    let stamp = ((peer as u64) << 32).to_le_bytes();
                    assert_eq!(p.as_slice()[..8], stamp, "rank {r} from {peer}");
                    self.checked += 1;
                }
            }
            self.inner.step(w, r)
        }
    }

    #[test]
    fn pooled_rounds_stage_one_slab_and_fan_it_out() {
        let p = 16;
        for bytes in [1024, 128 * 1024] {
            let spec = CollSpec::new(p, bytes);
            let build = |r: usize| build_alltoall(AlltoallAlgo::Linear, r, &spec);
            let mut w = World::new(Platform::whale(), p, Placement::Block, NoiseConfig::none());
            assert_eq!(w.platform().inter.is_eager(bytes), bytes == 1024);
            let tag = w.alloc_tag();
            let execs = (0..p)
                .map(|r| {
                    let mut e = ScheduleExec::new(r, tag, build(r));
                    e.set_payload_mode(PayloadMode::Pooled);
                    e
                })
                .collect();
            let mut b = PayloadProbe {
                inner: OneShot::new(execs),
                checked: 0,
            };
            w.run(&mut b).expect("no deadlock");
            // One buffer per rank and round with sends (the linear
            // exchange is one round of p - 1 equal-sized sends), where a
            // buffer per send took p·(p - 1).
            assert_eq!(w.payloads_staged(), p as u64, "{bytes} B");
            assert_eq!(b.checked, p * (p - 1), "{bytes} B: receives checked");
        }
    }

    #[test]
    fn default_payload_mode_override_round_trips() {
        set_default_payload_mode(PayloadMode::Pooled);
        assert_eq!(default_payload_mode(), PayloadMode::Pooled);
        set_default_payload_mode(PayloadMode::Off);
        assert_eq!(default_payload_mode(), PayloadMode::Off);
        clear_default_payload_mode();
        assert_eq!(default_payload_mode(), PayloadMode::Off);
    }

    #[test]
    fn start_twice_panics() {
        let spec = CollSpec::new(2, 16);
        let mut w = World::new(Platform::whale(), 2, Placement::Block, NoiseConfig::none());
        let tag = w.alloc_tag();
        let mut e = ScheduleExec::new(0, tag, build_barrier(0, &spec));
        e.start(&mut w, SimTime::ZERO);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.start(&mut w, SimTime::ZERO)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn empty_schedule_done_immediately() {
        let mut w = World::new(Platform::whale(), 1, Placement::Block, NoiseConfig::none());
        let tag = w.alloc_tag();
        let mut e = ScheduleExec::new(0, tag, Schedule::new());
        let cost = e.start(&mut w, SimTime::ZERO);
        assert_eq!(cost, SimTime::ZERO);
        assert!(e.is_done(&w, SimTime::ZERO));
    }
}

//! The discrete-event world: rank scheduling, point-to-point messaging and
//! the progress engine, drained by one event loop on the calling thread.
//!
//! # Event order
//!
//! Every scheduled event carries a *content-derived* key
//! `(time, (acting_rank, per-rank counter))` instead of a global insertion
//! counter: ties in time break by which rank's handler scheduled the event
//! and how many events that rank had scheduled before. The order — and with
//! it every RNG draw, metrics delta and trace — is therefore a function of
//! the simulated program alone. [`World::event_digest`] folds the dispatched
//! keys per rank; the golden tables in `tests/golden_digest.rs` and
//! `nbc::executor` pin it.

use crate::bufpool::{Payload, PooledBuf};
use crate::chan::{ChanTable, Seen};
use crate::message::{Arena, DstMsg, Protocol, RecvReq, RecvState, SendMsg, SendState};
use crate::types::{NoiseConfig, RankId, RecvHandle, SendHandle, Tag};
use netmodel::{NetworkState, Placement, Platform};
use simcore::metrics::{self, Counter, Gauge, Histogram};
use simcore::rng::NoiseModel;
use simcore::trace::{self, WorldTrace};
use simcore::{EventQueue, SimTime};
use std::sync::OnceLock;

// Registry-backed engine metrics. Handles are cached in `OnceLock`s so the
// registry lock is taken once per metric, not per update; the hot counts
// (events, polls, unexpected matches) accumulate in plain per-world fields
// and flush here once per `World::run` so parallel sweeps never contend on
// a shared cache line inside the event loop.
fn m_sim_events() -> &'static Counter {
    static M: OnceLock<&'static Counter> = OnceLock::new();
    M.get_or_init(|| metrics::counter("mpisim.sim_events"))
}

fn m_polls() -> &'static Counter {
    static M: OnceLock<&'static Counter> = OnceLock::new();
    M.get_or_init(|| metrics::counter("mpisim.polls"))
}

fn m_unexpected() -> &'static Counter {
    static M: OnceLock<&'static Counter> = OnceLock::new();
    M.get_or_init(|| metrics::counter("mpisim.unexpected_msgs"))
}

fn m_rdv_stalls() -> &'static Counter {
    static M: OnceLock<&'static Counter> = OnceLock::new();
    M.get_or_init(|| metrics::counter("mpisim.rdv_stalls"))
}

fn m_payloads_staged() -> &'static Counter {
    static M: OnceLock<&'static Counter> = OnceLock::new();
    M.get_or_init(|| metrics::counter("mpisim.payloads_staged"))
}

fn m_msg_slots_max() -> &'static Gauge {
    static M: OnceLock<&'static Gauge> = OnceLock::new();
    M.get_or_init(|| metrics::gauge("mpisim.msg_slots_max"))
}

fn m_rdv_stall_ns() -> &'static Histogram {
    static M: OnceLock<&'static Histogram> = OnceLock::new();
    M.get_or_init(|| metrics::histogram("mpisim.rdv_stall_ns"))
}

/// Total simulator events processed by completed runs in this process (the
/// `mpisim.sim_events` registry counter; flushed at the end of each
/// [`World::run`], successful or deadlocked).
pub fn sim_events_total() -> u64 {
    m_sim_events().get()
}

/// Payload buffers staged by the worlds of this process (the
/// `mpisim.payloads_staged` registry counter; [`World::payloads_staged`]
/// flushed at the end of each [`World::run`]).
pub fn payloads_staged_total() -> u64 {
    m_payloads_staged().get()
}

/// What a rank does next, as decided by its [`RankBehavior`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Compute (application work) for the given duration. Compute noise is
    /// applied by the world. While computing, eager messages still flow, but
    /// the rank does not enter the progress engine.
    Compute(SimTime),
    /// Spend CPU time inside the library (posting messages, progress-call
    /// overhead). No noise is applied. The behaviour is stepped again
    /// immediately afterwards.
    Busy(SimTime),
    /// Block until *any* network event involving this rank fires, then step
    /// again (this is how `wait` polls: each event re-runs the behaviour,
    /// which re-checks completion).
    Block,
    /// This rank's program is finished.
    Done,
}

/// A program driving every rank of the simulation.
///
/// `step` is called whenever rank `rank` is runnable; the implementation
/// typically keeps per-rank program state and uses the [`World`] API
/// (`isend` / `irecv` / `poll` / completion queries) to do message passing.
pub trait RankBehavior {
    /// Decide the next action for `rank` at its current local time
    /// (`world.rank_now(rank)`).
    fn step(&mut self, world: &mut World, rank: RankId) -> Step;
}

/// Why a simulation run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No pending events but some ranks have not finished: every remaining
    /// rank is blocked on a message that can never arrive.
    Deadlock {
        /// Ranks still blocked.
        blocked: Vec<RankId>,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { blocked } => {
                write!(f, "simulation deadlock; blocked ranks: {blocked:?}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankStatus {
    /// Wake event pending (computing or about to start).
    Scheduled,
    /// Waiting for a network event.
    Blocked,
    /// Program finished.
    Done,
}

/// An event a rank scheduled for itself: indices resolve against that
/// rank's arenas.
#[derive(Debug, Clone, Copy)]
enum LocalEv {
    /// The source buffer of send `sidx` (on the target rank) drained.
    SendDrained(u32),
    /// Eager payload `dmid` finished draining into the target's receive
    /// engine (or its unexpected-match copy finished).
    DeliverEager(u32),
    /// Rendezvous payload `dmid` fully delivered at the target.
    DeliverData(u32),
}

/// A message crossing the wire between two ranks. Carries everything the
/// destination needs, so its handler reads no state of the sending rank.
enum WireMsg {
    /// An eager payload's leading edge reached the destination.
    Eager {
        src: RankId,
        sidx: u32,
        seq: u64,
        tag: Tag,
        bytes: usize,
        posted_at: SimTime,
        /// Arrival fully priced at the source (intra-node copy).
        priced: bool,
        /// Earliest possible full delivery (sender-side floor).
        floor: SimTime,
        payload: Option<Payload>,
    },
    /// Rendezvous request-to-send (full arrival time; control messages
    /// bypass the payload queues).
    Rts {
        src: RankId,
        sidx: u32,
        seq: u64,
        tag: Tag,
        bytes: usize,
        posted_at: SimTime,
    },
    /// Rendezvous clear-to-send, answering send `sidx` on the target;
    /// carries the receiver-side record so the payload can route back.
    Cts { sidx: u32, dmid: u32 },
    /// A rendezvous payload's leading edge reached the destination.
    Data {
        dmid: u32,
        bytes: usize,
        priced: bool,
        floor: SimTime,
        payload: Option<Payload>,
    },
}

/// A queued event. Kept `Copy`-small (the heap sifts entries by value on
/// every push/pop): wire-message bodies live in the world's `wire_pool`
/// arena and the event carries only the slot index. Rank ids are stored as
/// `u32` so the whole event packs into 12 bytes.
#[derive(Clone, Copy)]
enum Event {
    Wake(u32),
    Local(u32, LocalEv),
    Wire(u32, u32),
}

impl Event {
    fn wake(r: RankId) -> Event {
        Event::Wake(r as u32)
    }

    fn local(r: RankId, le: LocalEv) -> Event {
        Event::Local(r as u32, le)
    }

    /// The rank whose handler processes this event.
    fn target(&self) -> RankId {
        match self {
            Event::Wake(r) | Event::Local(r, _) | Event::Wire(r, _) => *r as RankId,
        }
    }
}

/// Mix one event key into a rank's running digest (an FNV/xorshift hybrid;
/// order-sensitive, so identical sequences are required, not just identical
/// sets).
fn fold_digest(d: u64, t_ns: u64, subkey: u64) -> u64 {
    let h = d ^ t_ns.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let h = h.rotate_left(23) ^ subkey.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    h.wrapping_mul(0x0000_0100_0000_01B3)
}

/// What a rank was doing during a [`TraceSegment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Application compute phase.
    Compute,
    /// CPU inside the communication library.
    Library,
    /// Blocked in a wait.
    Blocked,
}

impl SegmentKind {
    /// Label used in trace exports.
    pub fn label(self) -> &'static str {
        match self {
            SegmentKind::Compute => "compute",
            SegmentKind::Library => "library",
            SegmentKind::Blocked => "blocked",
        }
    }
}

/// One interval of a rank's timeline (recorded when tracing is enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSegment {
    /// The rank.
    pub rank: RankId,
    /// What it was doing.
    pub kind: SegmentKind,
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
}

/// Where a rank's (virtual) time went, for overlap analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankAccounting {
    /// Time spent in application compute phases.
    pub compute: SimTime,
    /// CPU time spent inside the communication library (posting, progress
    /// calls, copies) — the non-overlappable communication cost.
    pub library: SimTime,
    /// Time spent blocked in waits — communication *exposed* to the
    /// application.
    pub blocked: SimTime,
}

impl RankAccounting {
    /// Fraction of non-compute time (library + blocked) relative to the
    /// total; 0 means perfect overlap.
    pub fn exposed_fraction(&self) -> f64 {
        let total = (self.compute + self.library + self.blocked).as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        (self.library + self.blocked).as_secs_f64() / total
    }
}

/// Everything one rank owns. All messaging state a handler mutates lives on
/// the rank the event targets.
struct RankState {
    now: SimTime,
    status: RankStatus,
    noise: NoiseModel,
    acct: RankAccounting,
    /// When the current blocked interval began, if blocked.
    block_since: Option<SimTime>,
    /// Sends posted by this rank (handles index here).
    sends: Arena<SendMsg>,
    /// Receiver-side halves of messages addressed to this rank.
    dmsgs: Arena<DstMsg>,
    /// Receives posted by this rank (handles index here).
    recvs: Arena<RecvReq>,
    /// Messages that ever reached this rank (the next [`DstMsg::mid`]).
    msgs_seen: u32,
    /// Per-peer sequence numbers, envelope ordering and arrival dedup.
    chans: ChanTable,
    /// Posted, unmatched receive requests (ids into `recvs`), post order.
    posted_recvs: Vec<u32>,
    /// Unmatched arrived messages (ids into `dmsgs`), arrival order.
    unexpected: Vec<u32>,
    /// Matched rendezvous messages awaiting a CTS from this rank (dst side).
    pending_cts: Vec<u32>,
    /// Sends whose CTS arrived, awaiting payload injection (src side).
    pending_data_start: Vec<u32>,
    /// Per-rank event-key counter: the content-derived tie-breaker used
    /// instead of the queue's global insertion counter.
    key_seq: u64,
    /// Running digest of every event key dispatched to this rank.
    digest: u64,
    /// Events dispatched to this rank.
    ev_count: u64,
    /// Timeline segments (only filled when segment tracing is on).
    tseg: Vec<TraceSegment>,
}

impl RankState {
    fn fresh(r: usize, noise: &NoiseConfig) -> RankState {
        RankState {
            now: SimTime::ZERO,
            status: RankStatus::Scheduled,
            noise: if noise.is_none() {
                NoiseModel::none()
            } else {
                NoiseModel::for_rank(
                    noise.seed,
                    r,
                    noise.jitter,
                    noise.spike_prob,
                    noise.spike_scale,
                )
            },
            acct: RankAccounting::default(),
            block_since: None,
            sends: Arena::new(),
            dmsgs: Arena::new(),
            recvs: Arena::new(),
            msgs_seen: 0,
            chans: ChanTable::new(),
            posted_recvs: Vec::new(),
            unexpected: Vec::new(),
            pending_cts: Vec::new(),
            pending_data_start: Vec::new(),
            key_seq: 0,
            digest: 0,
            ev_count: 0,
            tseg: Vec::new(),
        }
    }

    /// Return to the state of `RankState::fresh(r, cfg)` without giving
    /// up a single allocation: containers are emptied in place. The
    /// destructuring makes a field added later a compile error here rather
    /// than state that silently survives a reset.
    fn reset(&mut self, r: usize, cfg: &NoiseConfig) {
        let fresh = RankState::fresh(r, cfg);
        let RankState {
            now,
            status,
            noise,
            acct,
            block_since,
            sends,
            dmsgs,
            recvs,
            msgs_seen,
            chans,
            posted_recvs,
            unexpected,
            pending_cts,
            pending_data_start,
            key_seq,
            digest,
            ev_count,
            tseg,
        } = self;
        *now = fresh.now;
        *status = fresh.status;
        *noise = fresh.noise;
        *acct = fresh.acct;
        *block_since = fresh.block_since;
        // Dropping in-flight records releases their payload handles.
        sends.clear();
        dmsgs.clear();
        recvs.clear();
        *msgs_seen = 0;
        chans.reset();
        posted_recvs.clear();
        unexpected.clear();
        pending_cts.clear();
        pending_data_start.clear();
        *key_seq = 0;
        *digest = 0;
        *ev_count = 0;
        tseg.clear();
    }
}

/// The simulated machine: ranks, network, in-flight messages and the event
/// queue.
pub struct World {
    net: NetworkState,
    ranks: Vec<RankState>,
    events: EventQueue<Event>,
    /// Scratch buffers reused across [`World::poll`] calls so the progress
    /// engine does not allocate per invocation.
    scratch_cts: Vec<u32>,
    scratch_starts: Vec<u32>,
    /// Arena of in-flight wire-message bodies (including payload handles),
    /// indexed by `Event::Wire`'s slot. Slots are recycled via `wire_free`,
    /// so steady-state runs never grow the arena past the peak number of
    /// simultaneously in-flight messages.
    wire_pool: Vec<WireMsg>,
    wire_free: Vec<u32>,
    next_tag: u64,
    polls: u64,
    protocol_actions: u64,
    /// Polls already flushed to the metrics registry (delta tracking).
    polls_flushed: u64,
    /// Unexpected-message arrivals this run, flushed at the end of `run`.
    unexpected_msgs: u64,
    /// Rendezvous handshake stalls this run, flushed at the end of `run` —
    /// the shared registry counter/histogram must never be touched on the
    /// poll hot path (parallel sweeps would serialize on its cache line).
    rdv_stalls: u64,
    rdv_stall_ns: metrics::LocalHistogram,
    /// `events.popped()` at the last [`World::reset`]: the queue's lifetime
    /// counter survives reuse, so per-world accounting is a delta from here.
    popped_at_reset: u64,
    /// Record per-rank timeline segments into `RankState::tseg`?
    trace_on: bool,
    /// Span/instant timeline for the observability layer (`NBC_TRACE`);
    /// `None` when tracing is off, making every instrumentation site a
    /// single branch. Published to the global collector on drop.
    otrace: Option<Box<WorldTrace>>,
    /// Payload buffers staged by [`World::acquire_payload`] over this
    /// world's lifetime; [`World::reset`] keeps it.
    payloads_staged: u64,
    /// The portion of `payloads_staged` already flushed to the registry.
    payloads_flushed: u64,
}

impl World {
    /// Create a world of `nranks` ranks on `platform`.
    pub fn new(
        platform: Platform,
        nranks: usize,
        placement: Placement,
        noise: NoiseConfig,
    ) -> Self {
        let ranks = (0..nranks).map(|r| RankState::fresh(r, &noise)).collect();
        World {
            net: NetworkState::new(platform, nranks, placement),
            ranks,
            events: EventQueue::with_capacity(nranks * 4),
            scratch_cts: Vec::new(),
            scratch_starts: Vec::new(),
            wire_pool: Vec::new(),
            wire_free: Vec::new(),
            next_tag: 0,
            polls: 0,
            protocol_actions: 0,
            polls_flushed: 0,
            unexpected_msgs: 0,
            rdv_stalls: 0,
            rdv_stall_ns: metrics::LocalHistogram::new(),
            popped_at_reset: 0,
            trace_on: false,
            otrace: trace::enabled().then(|| Box::new(WorldTrace::new(nranks))),
            payloads_staged: 0,
            payloads_flushed: 0,
        }
    }

    /// Order-sensitive digest of every event dispatched so far, folded
    /// per-rank then combined in rank order. Two runs that processed the
    /// same per-rank event sequences produce the same digest; any ordering
    /// or content divergence shows up with overwhelming probability.
    pub fn event_digest(&self) -> u64 {
        let mut d = 0xcbf2_9ce4_8422_2325u64;
        for rs in &self.ranks {
            d = fold_digest(d, rs.digest, rs.ev_count);
        }
        d
    }

    /// A zeroed, writable `bytes`-byte payload buffer, counted in
    /// [`World::payloads_staged`]. Fill it, [`PooledBuf::share`] it and
    /// pass the handle to [`World::isend_payload`]; it is freed when the
    /// last handle drops.
    pub fn acquire_payload(&mut self, bytes: usize) -> PooledBuf {
        self.payloads_staged += 1;
        PooledBuf::unpooled(bytes)
    }

    /// Payload buffers [`World::acquire_payload`] has handed out over this
    /// world's lifetime (not zeroed by [`World::reset`]).
    pub fn payloads_staged(&self) -> u64 {
        self.payloads_staged
    }

    /// Largest number of message records (sends, receives and receiver-side
    /// message halves together) any one rank has held at once since the
    /// last [`World::reset`]. Bounded by what a rank keeps in flight as
    /// long as handle owners release what they complete.
    pub fn msg_slots_max(&self) -> usize {
        self.ranks
            .iter()
            .map(|rs| rs.sends.len() + rs.dmsgs.len() + rs.recvs.len())
            .max()
            .unwrap_or(0)
    }

    /// Events applied by this world so far (the per-run analogue of the
    /// process-wide [`sim_events_total`] — exact even when other worlds run
    /// concurrently on other threads).
    pub fn events_processed(&self) -> u64 {
        self.events.popped() - self.popped_at_reset
    }

    /// Publish the observability timeline to the global trace collector. A
    /// no-op when tracing is off or the trace was already published.
    fn publish_trace(&mut self) {
        if let Some(t) = self.otrace.take() {
            trace::publish(*t);
        }
    }

    /// Reset this world for a fresh simulation on the *same* platform,
    /// rank count and placement, keeping every allocation (per-rank record
    /// arenas and their free lists, channel tables and windows, match
    /// queues, the event-queue heap, the wire arena) warm: containers are
    /// emptied in place, never replaced. A second run of the same workload
    /// on a reset world allocates nothing (staged payloads aside: each is
    /// a fresh buffer).
    ///
    /// The post-state is observationally identical to
    /// `World::new(platform, nranks, placement, noise)` with the same
    /// process-global trace configuration: noise models are re-seeded from
    /// `noise`, and all logical state (clocks, tags, sequence numbers, in-flight
    /// messages, event digests) is zeroed. Only allocation capacity and
    /// the lifetime [`World::payloads_staged`] tally differ — neither is
    /// observable in simulated time or simulation output, so results stay
    /// byte-identical whether a world is fresh or reused.
    pub fn reset(&mut self, noise: NoiseConfig) {
        self.publish_trace();
        let nranks = self.ranks.len();
        for (r, rs) in self.ranks.iter_mut().enumerate() {
            rs.reset(r, &noise);
        }
        self.net.reset();
        self.events.reset();
        self.popped_at_reset = self.events.popped();
        self.scratch_cts.clear();
        self.scratch_starts.clear();
        // Dropping undelivered wire bodies releases their payload handles,
        // like the per-rank arenas above.
        self.wire_pool.clear();
        self.wire_free.clear();
        self.next_tag = 0;
        self.polls = 0;
        self.protocol_actions = 0;
        self.polls_flushed = 0;
        self.unexpected_msgs = 0;
        self.rdv_stalls = 0;
        self.rdv_stall_ns = metrics::LocalHistogram::new();
        self.trace_on = false;
        self.otrace = trace::enabled().then(|| Box::new(WorldTrace::new(nranks)));
    }

    /// Start recording per-rank timeline segments (compute / library /
    /// blocked intervals). Costs memory proportional to the number of
    /// phases; off by default.
    pub fn enable_trace(&mut self) {
        self.trace_on = true;
    }

    /// The recorded timeline, flattened rank-major (empty unless
    /// [`World::enable_trace`] was called before the run). Within one rank,
    /// segments are in chronological order.
    pub fn trace(&self) -> Vec<TraceSegment> {
        let total = self.ranks.iter().map(|r| r.tseg.len()).sum();
        let mut out = Vec::with_capacity(total);
        for rs in &self.ranks {
            out.extend_from_slice(&rs.tseg);
        }
        out
    }

    /// Is the observability timeline (`NBC_TRACE`) being recorded? Callers
    /// with expensive-to-compute span attributes can skip the work when off.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.otrace.is_some()
    }

    /// Name this run in the exported timeline (the Perfetto process name).
    /// No-op when tracing is off.
    pub fn set_trace_label(&mut self, label: &str) {
        if let Some(t) = self.otrace.as_mut() {
            t.label = label.to_string();
        }
    }

    /// Record a span on the observability timeline (no-op when off). Used
    /// by the schedule executor for round and staging spans; all times are
    /// simulated, so recording never perturbs the run.
    #[inline]
    pub fn trace_span(
        &mut self,
        rank: RankId,
        name: &'static str,
        cat: &'static str,
        start: SimTime,
        end: SimTime,
        args: [(&'static str, u64); 2],
    ) {
        if let Some(t) = self.otrace.as_mut() {
            t.span(rank, name, cat, start, end, args);
        }
    }

    /// Record an instant event on the observability timeline (no-op when
    /// off).
    #[inline]
    pub fn trace_instant(
        &mut self,
        rank: RankId,
        name: &'static str,
        cat: &'static str,
        ts: SimTime,
        args: [(&'static str, u64); 2],
    ) {
        if let Some(t) = self.otrace.as_mut() {
            t.instant(rank, name, cat, ts, args);
        }
    }

    fn record(&mut self, rank: RankId, kind: SegmentKind, start: SimTime, end: SimTime) {
        if end > start {
            if self.trace_on {
                self.ranks[rank].tseg.push(TraceSegment {
                    rank,
                    kind,
                    start,
                    end,
                });
            }
            if let Some(t) = self.otrace.as_mut() {
                t.span(rank, kind.label(), "rank", start, end, trace::NO_ARGS);
            }
        }
    }

    /// Write the recorded timeline in the Chrome trace-event JSON format
    /// (loadable in `chrome://tracing` or Perfetto; timestamps in
    /// microseconds of *virtual* time).
    pub fn write_chrome_trace(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(w, "[")?;
        let segs = self.trace();
        for (i, s) in segs.iter().enumerate() {
            let comma = if i + 1 == segs.len() { "" } else { "," };
            writeln!(
                w,
                "  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}}}{}",
                s.kind.label(),
                s.rank,
                s.start.as_micros_f64(),
                (s.end - s.start).as_micros_f64(),
                comma
            )?;
        }
        writeln!(w, "]")
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.ranks.len()
    }

    /// The platform description.
    pub fn platform(&self) -> &Platform {
        self.net.platform()
    }

    /// The network state (topology queries, statistics).
    pub fn network(&self) -> &NetworkState {
        &self.net
    }

    /// Local clock of `rank`.
    pub fn rank_now(&self, rank: RankId) -> SimTime {
        self.ranks[rank].now
    }

    /// Allocate a fresh tag for a collective-operation instance. All ranks
    /// creating operations in the same order observe the same tag sequence.
    pub fn alloc_tag(&mut self) -> Tag {
        let t = Tag(self.next_tag);
        self.next_tag += 1;
        t
    }

    /// Total progress-engine invocations so far.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Total rendezvous protocol actions (CTS sends + payload starts).
    pub fn protocol_actions(&self) -> u64 {
        self.protocol_actions
    }

    /// Time accounting for `rank` (compute / library / blocked).
    pub fn accounting(&self, rank: RankId) -> RankAccounting {
        self.ranks[rank].acct
    }

    /// Aggregate accounting over all ranks.
    pub fn accounting_total(&self) -> RankAccounting {
        let mut total = RankAccounting::default();
        for r in &self.ranks {
            total.compute += r.acct.compute;
            total.library += r.acct.library;
            total.blocked += r.acct.blocked;
        }
        total
    }

    /// CPU overhead for posting one send to `dst`.
    pub fn o_send(&self, src: RankId, dst: RankId) -> SimTime {
        self.net.params(src, dst).o_send
    }

    /// CPU overhead for posting one receive from `src`.
    pub fn o_recv(&self, dst: RankId, src: RankId) -> SimTime {
        self.net.params(dst, src).o_recv
    }

    // ------------------------------------------------------------------
    // Event scheduling
    // ------------------------------------------------------------------

    /// Next content-derived tie-break key for an event scheduled by
    /// `acting`'s handler. The sequence depends only on the order of
    /// `acting`'s own events, never on how other ranks' events interleave.
    #[inline]
    fn next_subkey(&mut self, acting: RankId) -> u64 {
        let ks = &mut self.ranks[acting].key_seq;
        debug_assert!(*ks < 1 << 40, "per-rank key counter overflow");
        let subkey = ((acting as u64) << 40) | *ks;
        *ks += 1;
        subkey
    }

    /// Intern a wire-message body, returning its arena slot.
    fn intern_wire(&mut self, wm: WireMsg) -> u32 {
        match self.wire_free.pop() {
            Some(i) => {
                self.wire_pool[i as usize] = wm;
                i
            }
            None => {
                debug_assert!(self.wire_pool.len() < u32::MAX as usize);
                self.wire_pool.push(wm);
                (self.wire_pool.len() - 1) as u32
            }
        }
    }

    /// Move a wire-message body out of its arena slot and recycle the slot.
    fn take_wire(&mut self, idx: u32) -> WireMsg {
        self.wire_free.push(idx);
        std::mem::replace(
            &mut self.wire_pool[idx as usize],
            WireMsg::Cts { sidx: 0, dmid: 0 },
        )
    }

    /// Schedule a rank-local event (`Wake`/`Local`) for `acting` itself at
    /// `t`.
    fn push_ev(&mut self, acting: RankId, t: SimTime, ev: Event) {
        let subkey = self.next_subkey(acting);
        debug_assert_eq!(ev.target(), acting, "only wire events cross ranks");
        self.events.push_at(t, subkey, ev);
    }

    /// Schedule wire message `wm` for `dst` at `t`, keyed by `acting`'s
    /// counter. The body is interned so the heap entry stays small.
    fn push_wire(&mut self, acting: RankId, t: SimTime, dst: RankId, wm: WireMsg) {
        let subkey = self.next_subkey(acting);
        let idx = self.intern_wire(wm);
        self.events.push_at(t, subkey, Event::Wire(dst as u32, idx));
    }

    // ------------------------------------------------------------------
    // Point-to-point API (used by the collective-schedule executor)
    // ------------------------------------------------------------------

    /// Post a non-blocking send from `src` to `dst` at local time `at`.
    ///
    /// The *caller* is responsible for charging `o_send` CPU time; `at`
    /// should already include it.
    ///
    /// The returned handle names a record in `src`'s send arena. Its owner
    /// should hand it back with [`World::release_send`] once
    /// [`World::send_done`] holds; a handle that is never released keeps
    /// its record (and the arena grows by one) until [`World::reset`].
    pub fn isend(
        &mut self,
        src: RankId,
        dst: RankId,
        tag: Tag,
        bytes: usize,
        at: SimTime,
    ) -> SendHandle {
        self.isend_payload(src, dst, tag, bytes, at, None)
    }

    /// [`World::isend`] carrying a payload handle. The handle rides on the
    /// in-flight message — eager delivery and rendezvous injection move it,
    /// never copy it — and transfers to the matched receive at completion
    /// ([`World::take_recv_payload`]). Timing is identical with or without
    /// a payload: only `bytes` feeds the network model.
    pub fn isend_payload(
        &mut self,
        src: RankId,
        dst: RankId,
        tag: Tag,
        bytes: usize,
        at: SimTime,
        payload: Option<Payload>,
    ) -> SendHandle {
        assert_ne!(src, dst, "self-sends are expressed as schedule copies");
        let seq = self.ranks[src].chans.next_send_seq(dst);
        let sidx;
        if self.net.is_eager(src, dst, bytes) {
            let plan = self.net.tx_plan(at, src, dst, bytes);
            sidx = self.ranks[src]
                .sends
                .alloc(SendMsg::new(dst, tag, bytes, Protocol::Eager));
            self.push_ev(
                src,
                plan.src_drain,
                Event::local(src, LocalEv::SendDrained(sidx)),
            );
            // The payload handle moves into the wire event (O(1)).
            self.push_wire(
                src,
                plan.wire_at,
                dst,
                WireMsg::Eager {
                    src,
                    sidx,
                    seq,
                    tag,
                    bytes,
                    posted_at: at,
                    priced: plan.priced,
                    floor: plan.floor,
                    payload,
                },
            );
        } else {
            let rts = self.net.ctrl_arrival(at, src, dst);
            let mut m = SendMsg::new(dst, tag, bytes, Protocol::Rendezvous);
            m.payload = payload;
            sidx = self.ranks[src].sends.alloc(m);
            self.push_wire(
                src,
                rts,
                dst,
                WireMsg::Rts {
                    src,
                    sidx,
                    seq,
                    tag,
                    bytes,
                    posted_at: at,
                },
            );
        }
        SendHandle {
            rank: src as u32,
            idx: sidx,
        }
    }

    /// Post a non-blocking receive on `rank` for a message from `src`.
    ///
    /// The returned handle names a record in `rank`'s receive arena. Its
    /// owner should collect the payload ([`World::take_recv_payload`]) and
    /// hand the handle back with [`World::release_recv`] once
    /// [`World::recv_done`] holds; a handle that is never released keeps
    /// its record and its matched message until [`World::reset`].
    pub fn irecv(
        &mut self,
        rank: RankId,
        src: RankId,
        tag: Tag,
        bytes: usize,
        at: SimTime,
    ) -> RecvHandle {
        let rid = self.ranks[rank].recvs.alloc(RecvReq::new(src, tag, bytes));
        // Try to match an already-arrived (unexpected) message, FIFO.
        let pos = self.ranks[rank].unexpected.iter().position(|&m| {
            let dm = &self.ranks[rank].dmsgs[m as usize];
            dm.src == src && dm.tag == tag
        });
        if let Some(pos) = pos {
            let dmid = self.ranks[rank].unexpected.remove(pos);
            if self.otrace.is_some() {
                // The message sat in the unexpected queue from its arrival
                // until this receive was posted: a match-queue stall.
                let dm = &self.ranks[rank].dmsgs[dmid as usize];
                let arrived = dm.data_arrival.or(dm.rts_arrival).unwrap_or(at);
                let args = [("src", dm.src as u64), ("bytes", dm.bytes as u64)];
                self.trace_span(rank, "unexpected", "match", arrived, at, args);
            }
            self.match_pair(rank, dmid, rid, at, true);
        } else {
            self.ranks[rank].posted_recvs.push(rid);
        }
        RecvHandle {
            rank: rank as u32,
            idx: rid,
        }
    }

    /// Complete receive `rid` on `rank` at time `t`: set its state and move
    /// the payload handle off the matched message (an O(1) pointer move —
    /// this is the zero-copy delivery step for both eager and rendezvous
    /// paths).
    fn complete_recv(&mut self, rank: RankId, rid: u32, t: SimTime) {
        let rs = &mut self.ranks[rank];
        // A completion time, once set, is final: `nbc::executor` never asks
        // a handle again after seeing it complete.
        debug_assert!(
            !matches!(rs.recvs[rid as usize].state, RecvState::Complete(t0) if t0 != t),
            "receive {rid} on rank {rank} re-completed at {t}: {:?}",
            rs.recvs[rid as usize].state
        );
        rs.recvs[rid as usize].state = RecvState::Complete(t);
        // A receive can be completed twice on the eager fast path (match_pair
        // completes it, then the delivery event confirms); only move the
        // handle when the message still holds one so the second call is a
        // no-op.
        if let Some(dmid) = rs.recvs[rid as usize].msg {
            if let Some(p) = rs.dmsgs[dmid as usize].payload.take() {
                rs.recvs[rid as usize].payload = Some(p);
            }
        }
    }

    /// Take the delivered payload of a completed receive, if the sender
    /// staged one (and it has not been taken yet): the sender's buffer
    /// itself, not a copy, freed once the last clone drops.
    pub fn take_recv_payload(&mut self, h: RecvHandle) -> Option<Payload> {
        self.ranks[h.rank as usize].recvs[h.idx as usize]
            .payload
            .take()
    }

    /// Give back a drained send ([`World::send_done`] held for `h`): its
    /// record may be reused by a later [`World::isend`], and `h` must not
    /// be used again. Call it once per handle.
    ///
    /// # Panics
    /// Panics if the send has not drained (or was already released).
    pub fn release_send(&mut self, h: SendHandle) {
        let rs = &mut self.ranks[h.rank as usize];
        let sm = &mut rs.sends[h.idx as usize];
        assert!(
            matches!(sm.send_state, SendState::Drained(_)),
            "release of an undrained send"
        );
        // No event names a drained send: its drain event has fired and its
        // CTS (rendezvous) was consumed before the payload started.
        sm.send_state = SendState::Posted;
        sm.payload = None;
        rs.sends.release(h.idx);
    }

    /// Give back a completed receive ([`World::recv_done`] held for `h`)
    /// together with the message it matched: both records may be reused,
    /// and `h` must not be used again. Call it once per handle. A payload
    /// not collected with [`World::take_recv_payload`] is dropped. Once
    /// the payload has been delivered no event names the message any more.
    ///
    /// # Panics
    /// Panics if the receive has not completed (or was already released).
    pub fn release_recv(&mut self, h: RecvHandle) {
        let rs = &mut self.ranks[h.rank as usize];
        let req = &mut rs.recvs[h.idx as usize];
        assert!(
            matches!(req.state, RecvState::Complete(_)),
            "release of an incomplete receive"
        );
        req.state = RecvState::Posted;
        req.payload = None;
        let dmid = req.msg.take().expect("completed receive without message");
        debug_assert!(rs.dmsgs[dmid as usize].data_arrival.is_some());
        rs.dmsgs.release(dmid);
        rs.recvs.release(h.idx);
    }

    /// Bind message `dmid` to receive `rid` (both on `rank`). `on_post` is
    /// true when matching happens at receive-post time (the message was
    /// unexpected).
    fn match_pair(&mut self, rank: RankId, dmid: u32, rid: u32, now: SimTime, on_post: bool) {
        let rs = &mut self.ranks[rank];
        debug_assert_eq!(
            rs.dmsgs[dmid as usize].bytes, rs.recvs[rid as usize].bytes,
            "size mismatch in match"
        );
        rs.dmsgs[dmid as usize].matched_recv = Some(rid);
        rs.recvs[rid as usize].msg = Some(dmid);
        rs.recvs[rid as usize].state = RecvState::Matched;
        match rs.dmsgs[dmid as usize].protocol {
            Protocol::Eager => {
                if let Some(arr) = rs.dmsgs[dmid as usize].data_arrival {
                    if on_post {
                        // Payload already buffered: completion costs a copy
                        // out of the bounce buffer, finishing slightly after
                        // `now`. Schedule a delivery event so a subsequent
                        // wait is woken when the copy is done.
                        let src = rs.dmsgs[dmid as usize].src;
                        let bytes = rs.dmsgs[dmid as usize].bytes;
                        let copy = self.net.params(src, rank).unexpected_copy(bytes);
                        let done = now.max(arr) + copy;
                        self.push_ev(rank, done, Event::local(rank, LocalEv::DeliverData(dmid)));
                    } else {
                        self.complete_recv(rank, rid, arr);
                    }
                }
                // else: completion set when the delivery event fires.
            }
            Protocol::Rendezvous => {
                // Receiver must answer the RTS from inside the library.
                if rs.dmsgs[dmid as usize].rts_arrival.is_some()
                    && !rs.dmsgs[dmid as usize].cts_sent
                {
                    rs.pending_cts.push(dmid);
                }
            }
        }
    }

    /// Drive protocol progress for `rank` at local time `now`: answer
    /// pending RTSes with CTSes and start payload transfers for sends whose
    /// CTS has arrived. This models the MPI library's progress engine — the
    /// CPU-bound part of rendezvous that only runs while the application is
    /// inside the library. Returns the number of protocol actions taken.
    pub fn poll(&mut self, rank: RankId, now: SimTime) -> usize {
        self.polls += 1;
        let mut actions = 0usize;

        // Phase 1: answer RTSes. Swap the pending list out so we can call
        // &mut self helpers while iterating.
        let mut cts = std::mem::take(&mut self.scratch_cts);
        std::mem::swap(&mut cts, &mut self.ranks[rank].pending_cts);
        for &dmid in &cts {
            let dm = &self.ranks[rank].dmsgs[dmid as usize];
            if dm.cts_sent {
                continue;
            }
            let src = dm.src;
            let bytes = dm.bytes;
            let rts = dm.rts_arrival;
            self.ranks[rank].dmsgs[dmid as usize].cts_sent = true;
            if let Some(rts) = rts {
                if now > rts {
                    // The handshake sat unanswered while this rank was busy:
                    // that gap is exactly the rendezvous overhead the paper's
                    // auto-tuner reshapes schedules to hide.
                    let stall = now - rts;
                    self.rdv_stalls += 1;
                    self.rdv_stall_ns.record(stall.as_nanos());
                    let args = [("src", src as u64), ("bytes", bytes as u64)];
                    self.trace_span(rank, "rdv_stall", "msg", rts, now, args);
                }
            }
            let arr = self.net.ctrl_arrival(now, rank, src);
            let sidx = self.ranks[rank].dmsgs[dmid as usize].sidx;
            self.push_wire(rank, arr, src, WireMsg::Cts { sidx, dmid });
            actions += 1;
        }
        cts.clear();
        self.scratch_cts = cts;

        // Phase 2: act on CTSes — start the payload transfer.
        let mut starts = std::mem::take(&mut self.scratch_starts);
        std::mem::swap(&mut starts, &mut self.ranks[rank].pending_data_start);
        for &sidx in &starts {
            let sm = &self.ranks[rank].sends[sidx as usize];
            if !matches!(sm.send_state, SendState::CtsArrived(_)) {
                continue;
            }
            let dst = sm.dst;
            let bytes = sm.bytes;
            let dmid = sm.peer_dmid.expect("CTS recorded without peer dmid");
            let plan = self.net.tx_plan(now, rank, dst, bytes);
            self.ranks[rank].sends[sidx as usize].send_state = SendState::DataInFlight;
            self.push_ev(
                rank,
                plan.src_drain,
                Event::local(rank, LocalEv::SendDrained(sidx)),
            );
            let payload = self.ranks[rank].sends[sidx as usize].payload.take();
            self.push_wire(
                rank,
                plan.wire_at,
                dst,
                WireMsg::Data {
                    dmid,
                    bytes,
                    priced: plan.priced,
                    floor: plan.floor,
                    payload,
                },
            );
            actions += 1;
        }
        starts.clear();
        self.scratch_starts = starts;

        self.protocol_actions += actions as u64;
        if actions > 0 {
            self.trace_instant(
                rank,
                "progress",
                "prog",
                now,
                [("actions", actions as u64), ("", 0)],
            );
        }
        actions
    }

    /// True once the sender may reuse its buffer (observed at `now`).
    pub fn send_done(&self, h: SendHandle, now: SimTime) -> bool {
        self.send_complete_time(h).is_some_and(|t| t <= now)
    }

    /// Local completion time of a send, if drained.
    pub fn send_complete_time(&self, h: SendHandle) -> Option<SimTime> {
        self.ranks[h.rank as usize].sends[h.idx as usize].send_drained()
    }

    /// True once the receive's payload has fully arrived (observed at
    /// `now`).
    pub fn recv_done(&self, h: RecvHandle, now: SimTime) -> bool {
        self.recv_complete_time(h).is_some_and(|t| t <= now)
    }

    /// Completion time of a receive, if delivered.
    pub fn recv_complete_time(&self, h: RecvHandle) -> Option<SimTime> {
        self.ranks[h.rank as usize].recvs[h.idx as usize].complete_at()
    }

    // ------------------------------------------------------------------
    // Event application
    // ------------------------------------------------------------------

    /// Emit the lifecycle span of message `dmid` on `rank`'s track.
    fn trace_msg(
        &mut self,
        rank: RankId,
        name: &'static str,
        dmid: u32,
        start: SimTime,
        end: SimTime,
    ) {
        if self.otrace.is_none() {
            return;
        }
        let dm = &self.ranks[rank].dmsgs[dmid as usize];
        let args = [("src", dm.src as u64), ("bytes", dm.bytes as u64)];
        self.trace_span(rank, name, "msg", start, end, args);
    }

    /// Create the receiver-side record of a message whose wire event just
    /// reached `rank`, and enter it in its channel's arrival window.
    fn new_dmsg(&mut self, rank: RankId, make: impl FnOnce(u32) -> DstMsg) -> u32 {
        let rs = &mut self.ranks[rank];
        let dm = make(rs.msgs_seen);
        rs.msgs_seen += 1;
        let (src, seq) = (dm.src, dm.seq);
        let dmid = rs.dmsgs.alloc(dm);
        rs.chans.arrived(src, seq, dmid);
        dmid
    }

    /// Feed a newly arrived envelope into the per-channel reorder buffer.
    /// Envelopes reach the matching logic strictly in per-(src, dst)
    /// sequence order, which enforces MPI's non-overtaking rule.
    fn enqueue_envelope(&mut self, rank: RankId, dmid: u32, t: SimTime) {
        let (src, seq) = {
            let dm = &self.ranks[rank].dmsgs[dmid as usize];
            (dm.src, dm.seq)
        };
        let fresh = self.ranks[rank].chans.envelope_ready(src, seq);
        debug_assert!(fresh, "envelope {seq} from {src} entered matching twice");
        while let Some(d) = self.ranks[rank].chans.pop_in_order(src) {
            self.deliver_envelope(rank, d, t);
        }
    }

    /// Deliver one in-order envelope to the matching logic.
    fn deliver_envelope(&mut self, rank: RankId, dmid: u32, t: SimTime) {
        let (src, tag, protocol) = {
            let dm = &self.ranks[rank].dmsgs[dmid as usize];
            (dm.src, dm.tag, dm.protocol)
        };
        let pos = self.ranks[rank].posted_recvs.iter().position(|&rid| {
            let r = &self.ranks[rank].recvs[rid as usize];
            r.src == src && r.tag == tag
        });
        let _ = protocol;
        match pos {
            Some(pos) => {
                let rid = self.ranks[rank].posted_recvs.remove(pos);
                // For eager, match_pair completes the receive (the payload
                // always precedes its envelope here); rendezvous queues the
                // CTS answer for the next poll.
                self.match_pair(rank, dmid, rid, t, false);
            }
            None => {
                self.unexpected_msgs += 1;
                self.ranks[rank].unexpected.push(dmid);
            }
        }
    }

    /// Apply a wire event targeting `rank` at time `t`.
    fn apply_wire(&mut self, rank: RankId, wm: WireMsg, t: SimTime) {
        match wm {
            WireMsg::Eager {
                src,
                sidx,
                seq,
                tag,
                bytes,
                posted_at,
                priced,
                floor,
                payload,
            } => {
                debug_assert_eq!(self.ranks[rank].chans.seen(src, seq), Seen::New);
                let dmid = self.new_dmsg(rank, |mid| DstMsg {
                    mid,
                    src,
                    sidx,
                    seq,
                    tag,
                    bytes,
                    protocol: Protocol::Eager,
                    posted_at,
                    matched_recv: None,
                    data_arrival: None,
                    rts_arrival: None,
                    cts_sent: false,
                    payload,
                });
                let delivery = if priced {
                    floor
                } else {
                    self.net.rx_reserve(t, rank, bytes).drain.max(floor)
                };
                self.push_ev(
                    rank,
                    delivery,
                    Event::local(rank, LocalEv::DeliverEager(dmid)),
                );
            }
            WireMsg::Rts {
                src,
                sidx,
                seq,
                tag,
                bytes,
                posted_at,
            } => {
                debug_assert_eq!(self.ranks[rank].chans.seen(src, seq), Seen::New);
                let dmid = self.new_dmsg(rank, |mid| DstMsg {
                    mid,
                    src,
                    sidx,
                    seq,
                    tag,
                    bytes,
                    protocol: Protocol::Rendezvous,
                    posted_at,
                    matched_recv: None,
                    data_arrival: None,
                    rts_arrival: Some(t),
                    cts_sent: false,
                    payload: None,
                });
                self.trace_msg(rank, "rts", dmid, posted_at, t);
                self.enqueue_envelope(rank, dmid, t);
            }
            WireMsg::Cts { sidx, dmid } => {
                let sm = &self.ranks[rank].sends[sidx as usize];
                debug_assert_eq!(sm.send_state, SendState::Posted, "second CTS");
                let dst = sm.dst;
                self.ranks[rank].sends[sidx as usize].send_state = SendState::CtsArrived(t);
                self.ranks[rank].sends[sidx as usize].peer_dmid = Some(dmid);
                self.trace_instant(rank, "cts", "msg", t, [("dst", dst as u64), ("", 0)]);
                self.ranks[rank].pending_data_start.push(sidx);
            }
            WireMsg::Data {
                dmid,
                bytes,
                priced,
                floor,
                payload,
            } => {
                let _ = bytes;
                let delivery = if priced {
                    floor
                } else {
                    self.net
                        .rx_reserve(t, rank, self.ranks[rank].dmsgs[dmid as usize].bytes)
                        .drain
                        .max(floor)
                };
                self.ranks[rank].dmsgs[dmid as usize].payload = payload;
                self.push_ev(
                    rank,
                    delivery,
                    Event::local(rank, LocalEv::DeliverData(dmid)),
                );
            }
        }
    }

    /// Apply a rank-local event on `rank` at time `t`.
    fn apply_local(&mut self, rank: RankId, le: LocalEv, t: SimTime) {
        match le {
            LocalEv::SendDrained(sidx) => {
                self.ranks[rank].sends[sidx as usize].send_state = SendState::Drained(t);
            }
            LocalEv::DeliverEager(dmid) => {
                self.ranks[rank].dmsgs[dmid as usize].data_arrival = Some(t);
                let posted_at = self.ranks[rank].dmsgs[dmid as usize].posted_at;
                self.trace_msg(rank, "eager", dmid, posted_at, t);
                self.enqueue_envelope(rank, dmid, t);
            }
            LocalEv::DeliverData(dmid) => {
                self.ranks[rank].dmsgs[dmid as usize].data_arrival = Some(t);
                if self.ranks[rank].dmsgs[dmid as usize].protocol == Protocol::Rendezvous {
                    let posted_at = self.ranks[rank].dmsgs[dmid as usize].posted_at;
                    self.trace_msg(rank, "rdv", dmid, posted_at, t);
                }
                let rid = self.ranks[rank].dmsgs[dmid as usize]
                    .matched_recv
                    .expect("payload delivery for unmatched message");
                self.complete_recv(rank, rid, t);
            }
        }
    }

    // ------------------------------------------------------------------
    // Engine
    // ------------------------------------------------------------------

    /// Dispatch one popped event into its handler. The event's key is
    /// folded into the *target* rank's digest first, so the digest
    /// witnesses the dispatch order itself, not just the handler effects.
    fn dispatch(&mut self, behavior: &mut dyn RankBehavior, t: SimTime, subkey: u64, ev: Event) {
        let tgt = ev.target();
        let rs = &mut self.ranks[tgt];
        rs.digest = fold_digest(rs.digest, t.as_nanos(), subkey);
        rs.ev_count += 1;
        match ev {
            Event::Wake(r) => {
                let r = r as RankId;
                self.ranks[r].now = self.ranks[r].now.max(t);
                self.step_rank(behavior, r);
            }
            Event::Local(r, le) => {
                let r = r as RankId;
                self.apply_local(r, le, t);
                self.react(behavior, r, t);
            }
            Event::Wire(r, widx) => {
                let r = r as RankId;
                let wm = self.take_wire(widx);
                self.apply_wire(r, wm, t);
                self.react(behavior, r, t);
            }
        }
    }

    /// A message/local event touched `rank`: if it is blocked inside a
    /// wait, account the blocked interval and step it again.
    fn react(&mut self, behavior: &mut dyn RankBehavior, rank: RankId, t: SimTime) {
        if self.ranks[rank].status != RankStatus::Blocked {
            return;
        }
        self.ranks[rank].now = self.ranks[rank].now.max(t);
        if let Some(since) = self.ranks[rank].block_since.take() {
            let until = self.ranks[rank].now;
            self.ranks[rank].acct.blocked += until.saturating_sub(since);
            self.record(rank, SegmentKind::Blocked, since, until);
        }
        self.step_rank(behavior, rank);
    }

    fn step_rank(&mut self, behavior: &mut dyn RankBehavior, r: RankId) {
        loop {
            match behavior.step(self, r) {
                Step::Compute(d) => {
                    let factor = self.ranks[r].noise.factor();
                    let d = d.scale(factor);
                    self.ranks[r].acct.compute += d;
                    let wake = self.ranks[r].now + d;
                    self.record(r, SegmentKind::Compute, self.ranks[r].now, wake);
                    self.push_ev(r, wake, Event::wake(r));
                    self.ranks[r].status = RankStatus::Scheduled;
                    // Local clock advances when the wake event fires.
                    self.ranks[r].now = wake;
                    return;
                }
                Step::Busy(c) => {
                    let start = self.ranks[r].now;
                    self.ranks[r].now += c;
                    self.ranks[r].acct.library += c;
                    self.record(r, SegmentKind::Library, start, self.ranks[r].now);
                    // Immediately step again.
                }
                Step::Block => {
                    self.ranks[r].status = RankStatus::Blocked;
                    if self.ranks[r].block_since.is_none() {
                        self.ranks[r].block_since = Some(self.ranks[r].now);
                    }
                    return;
                }
                Step::Done => {
                    self.ranks[r].status = RankStatus::Done;
                    return;
                }
            }
        }
    }

    /// Seed the initial wake of every rank.
    fn seed_wakes(&mut self) {
        for r in 0..self.ranks.len() {
            self.ranks[r].status = RankStatus::Scheduled;
            let now = self.ranks[r].now;
            self.push_ev(r, now, Event::wake(r));
        }
    }

    /// Resolve the result of a fully drained run — a pure function of final
    /// state: a deadlock if any rank never finished, else the makespan.
    fn outcome(&self) -> Result<SimTime, SimError> {
        if self.ranks.iter().any(|r| r.status != RankStatus::Done) {
            let blocked: Vec<RankId> = self
                .ranks
                .iter()
                .enumerate()
                .filter(|(_, s)| s.status == RankStatus::Blocked)
                .map(|(r, _)| r)
                .collect();
            return Err(SimError::Deadlock { blocked });
        }
        Ok(self
            .ranks
            .iter()
            .map(|r| r.now)
            .max()
            .unwrap_or(SimTime::ZERO))
    }

    /// Run `behavior` to completion. Returns the largest rank local time
    /// (the makespan).
    pub fn run(&mut self, behavior: &mut dyn RankBehavior) -> Result<SimTime, SimError> {
        let popped_at_start = self.events.popped();
        self.seed_wakes();
        while let Some((t, k, ev)) = self.events.pop_keyed() {
            self.dispatch(behavior, t, k, ev);
        }
        let out = self.outcome();
        // Flush this run's per-world tallies to the registry in one shot —
        // the hot loop itself never touches shared cache lines.
        m_sim_events().add(self.events.popped() - popped_at_start);
        m_polls().add(self.polls - self.polls_flushed);
        self.polls_flushed = self.polls;
        m_unexpected().add(std::mem::take(&mut self.unexpected_msgs));
        m_rdv_stalls().add(std::mem::take(&mut self.rdv_stalls));
        m_rdv_stall_ns().absorb(&mut self.rdv_stall_ns);
        m_msg_slots_max().record_max(self.msg_slots_max() as u64);
        // Staged payloads flush only when there are some, so a run that
        // stages none never registers the counter.
        if self.payloads_staged > self.payloads_flushed {
            m_payloads_staged().add(self.payloads_staged - self.payloads_flushed);
            self.payloads_flushed = self.payloads_staged;
        }
        out
    }
}

impl Drop for World {
    fn drop(&mut self) {
        // Publish the observability timeline when the world goes away (not
        // at the end of `run`: a world can run multiple times, and a
        // deadlocked or panicked run should still surface its trace).
        self.publish_trace();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::NeighborExchange;

    fn world(nranks: usize) -> World {
        World::new(
            Platform::whale(),
            nranks,
            Placement::RoundRobin,
            NoiseConfig::none(),
        )
    }

    /// A tiny per-rank script interpreter for tests.
    enum Ins {
        Compute(SimTime),
        Send { dst: RankId, bytes: usize },
        Recv { src: RankId, bytes: usize },
        WaitAll,
    }

    struct Script {
        prog: Vec<Vec<Ins>>,
        pc: Vec<usize>,
        sends: Vec<Vec<SendHandle>>,
        recvs: Vec<Vec<RecvHandle>>,
        tag: Tag,
        finish: Vec<SimTime>,
    }

    impl Script {
        fn new(prog: Vec<Vec<Ins>>) -> Self {
            let n = prog.len();
            Script {
                prog,
                pc: vec![0; n],
                sends: vec![Vec::new(); n],
                recvs: vec![Vec::new(); n],
                tag: Tag(0),
                finish: vec![SimTime::ZERO; n],
            }
        }
    }

    impl RankBehavior for Script {
        fn step(&mut self, w: &mut World, r: RankId) -> Step {
            loop {
                let pc = self.pc[r];
                if pc >= self.prog[r].len() {
                    self.finish[r] = w.rank_now(r);
                    return Step::Done;
                }
                match self.prog[r][pc] {
                    Ins::Compute(d) => {
                        self.pc[r] += 1;
                        return Step::Compute(d);
                    }
                    Ins::Send { dst, bytes } => {
                        self.pc[r] += 1;
                        let at = w.rank_now(r) + w.o_send(r, dst);
                        let h = w.isend(r, dst, self.tag, bytes, at);
                        self.sends[r].push(h);
                        return Step::Busy(w.o_send(r, dst));
                    }
                    Ins::Recv { src, bytes } => {
                        self.pc[r] += 1;
                        let at = w.rank_now(r) + w.o_recv(r, src);
                        let h = w.irecv(r, src, self.tag, bytes, at);
                        self.recvs[r].push(h);
                        return Step::Busy(w.o_recv(r, src));
                    }
                    Ins::WaitAll => {
                        let now = w.rank_now(r);
                        w.poll(r, now);
                        let done = self.sends[r].iter().all(|&h| w.send_done(h, now))
                            && self.recvs[r].iter().all(|&h| w.recv_done(h, now));
                        if done {
                            self.pc[r] += 1;
                            // go round the loop for the next instruction
                        } else {
                            return Step::Block;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reset_reproduces_fresh_world_byte_identically() {
        let mb = 1 << 20;
        let prog = || {
            Script::new(vec![
                vec![Ins::Send { dst: 1, bytes: mb }, Ins::WaitAll],
                vec![
                    Ins::Compute(SimTime::from_millis(5)),
                    Ins::Recv { src: 0, bytes: mb },
                    Ins::WaitAll,
                ],
            ])
        };
        let mut fresh = world(2);
        let mut s1 = prog();
        let t1 = fresh.run(&mut s1).unwrap();

        // A reused world first runs a *different* workload (dirtying tags,
        // sequence numbers, message records, the event queue), then resets.
        let mut reused = world(2);
        let mut warm = Script::new(vec![
            vec![
                Ins::Send {
                    dst: 1,
                    bytes: 4096,
                },
                Ins::WaitAll,
            ],
            vec![
                Ins::Recv {
                    src: 0,
                    bytes: 4096,
                },
                Ins::WaitAll,
            ],
        ]);
        reused.run(&mut warm).unwrap();
        assert!(reused.events_processed() > 0);
        reused.reset(NoiseConfig::none());
        assert_eq!(reused.events_processed(), 0, "delta base must move");
        let mut s2 = prog();
        let t2 = reused.run(&mut s2).unwrap();

        assert_eq!(t1, t2, "makespan must not depend on reuse");
        assert_eq!(s1.finish, s2.finish, "per-rank finish times must match");
        assert_eq!(fresh.events_processed(), reused.events_processed());
        assert_eq!(fresh.protocol_actions(), reused.protocol_actions());
    }

    #[test]
    fn reset_reseeds_noise_like_a_fresh_world() {
        let noisy = NoiseConfig::light(99);
        let prog = || {
            Script::new(vec![
                vec![
                    Ins::Compute(SimTime::from_millis(2)),
                    Ins::Send {
                        dst: 1,
                        bytes: 4096,
                    },
                    Ins::WaitAll,
                ],
                vec![
                    Ins::Recv {
                        src: 0,
                        bytes: 4096,
                    },
                    Ins::WaitAll,
                ],
            ])
        };
        let mut fresh = World::new(Platform::whale(), 2, Placement::RoundRobin, noisy);
        let t1 = fresh.run(&mut prog()).unwrap();

        let mut reused = world(2); // built with *no* noise
        reused.run(&mut prog()).unwrap();
        reused.reset(noisy);
        let t2 = reused.run(&mut prog()).unwrap();
        assert_eq!(t1, t2, "reset must re-seed noise models identically");
    }

    #[test]
    fn eager_pingpong_completes() {
        let mut w = world(2);
        let mut s = Script::new(vec![
            vec![
                Ins::Send {
                    dst: 1,
                    bytes: 1024,
                },
                Ins::WaitAll,
            ],
            vec![
                Ins::Recv {
                    src: 0,
                    bytes: 1024,
                },
                Ins::WaitAll,
            ],
        ]);
        let makespan = w.run(&mut s).unwrap();
        assert!(makespan > SimTime::ZERO);
        // Receiver finishes after roughly o + G*s + L.
        let expect = w.platform().inter.uncontended_oneway(1024);
        let got = s.finish[1];
        assert!(
            got >= expect.scale(0.8) && got <= expect.scale(2.0),
            "got {got}, expected about {expect}"
        );
    }

    #[test]
    fn rendezvous_needs_both_sides() {
        // 1 MB message (rendezvous on whale). Both ranks post then wait;
        // wait polls continuously, so the handshake resolves inside it.
        let mut w = world(2);
        let mb = 1 << 20;
        let mut s = Script::new(vec![
            vec![Ins::Send { dst: 1, bytes: mb }, Ins::WaitAll],
            vec![Ins::Recv { src: 0, bytes: mb }, Ins::WaitAll],
        ]);
        let makespan = w.run(&mut s).unwrap();
        let min = w.platform().inter.serialize(mb);
        assert!(
            makespan > min,
            "payload must at least serialize: {makespan} <= {min}"
        );
        assert!(w.protocol_actions() >= 2, "CTS + data start");
    }

    #[test]
    fn rendezvous_stalls_while_receiver_computes() {
        // The receiver computes for 50 ms before waiting; the sender waits
        // immediately. The payload cannot start until the receiver's wait
        // begins, so the sender is also stuck for ~50 ms. This is the
        // progress problem at the heart of the paper.
        let mb = 1 << 20;
        let mut w = world(2);
        let mut s = Script::new(vec![
            vec![Ins::Send { dst: 1, bytes: mb }, Ins::WaitAll],
            vec![
                Ins::Recv { src: 0, bytes: mb },
                Ins::Compute(SimTime::from_millis(50)),
                Ins::WaitAll,
            ],
        ]);
        w.run(&mut s).unwrap();
        assert!(
            s.finish[0] >= SimTime::from_millis(50),
            "sender should stall on the unanswered RTS: {}",
            s.finish[0]
        );
    }

    #[test]
    fn eager_overlaps_with_compute() {
        // Eager message sent while the receiver computes: payload is already
        // buffered when the receiver finally posts+waits, so the receiver
        // finishes just after its compute phase.
        let bytes = 4096;
        let mut w = world(2);
        let mut s = Script::new(vec![
            vec![Ins::Send { dst: 1, bytes }, Ins::WaitAll],
            vec![
                Ins::Compute(SimTime::from_millis(10)),
                Ins::Recv { src: 0, bytes },
                Ins::WaitAll,
            ],
        ]);
        w.run(&mut s).unwrap();
        let slack = SimTime::from_micros(100);
        assert!(
            s.finish[1] < SimTime::from_millis(10) + slack,
            "eager payload should already be there: {}",
            s.finish[1]
        );
    }

    #[test]
    fn unexpected_eager_pays_copy() {
        // Same as above but compare with a pre-posted receive: the
        // unexpected path must not be faster.
        let bytes = 8192;
        let mut w1 = world(2);
        let mut pre = Script::new(vec![
            vec![Ins::Send { dst: 1, bytes }, Ins::WaitAll],
            vec![
                Ins::Recv { src: 0, bytes },
                Ins::Compute(SimTime::from_millis(5)),
                Ins::WaitAll,
            ],
        ]);
        w1.run(&mut pre).unwrap();
        let mut w2 = world(2);
        let mut unexp = Script::new(vec![
            vec![Ins::Send { dst: 1, bytes }, Ins::WaitAll],
            vec![
                Ins::Compute(SimTime::from_millis(5)),
                Ins::Recv { src: 0, bytes },
                Ins::WaitAll,
            ],
        ]);
        w2.run(&mut unexp).unwrap();
        assert!(unexp.finish[1] >= pre.finish[1]);
    }

    #[test]
    fn deadlock_detected() {
        // Both ranks wait for a message that is never sent.
        let mut w = world(2);
        let mut s = Script::new(vec![
            vec![Ins::Recv { src: 1, bytes: 64 }, Ins::WaitAll],
            vec![Ins::Recv { src: 0, bytes: 64 }, Ins::WaitAll],
        ]);
        match w.run(&mut s) {
            Err(SimError::Deadlock { blocked }) => assert_eq!(blocked, vec![0, 1]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn fifo_matching_two_messages_same_tag() {
        // Two sends with the same tag must match the two receives in order;
        // sizes confirm the pairing via the debug assertion in match_pair.
        let mut w = world(2);
        let mut s = Script::new(vec![
            vec![
                Ins::Send { dst: 1, bytes: 100 },
                Ins::Send { dst: 1, bytes: 100 },
                Ins::WaitAll,
            ],
            vec![
                Ins::Recv { src: 0, bytes: 100 },
                Ins::Recv { src: 0, bytes: 100 },
                Ins::WaitAll,
            ],
        ]);
        w.run(&mut s).unwrap();
    }

    #[test]
    fn determinism_same_seed_same_makespan() {
        let run = |seed| {
            let mut w = World::new(
                Platform::whale(),
                4,
                Placement::RoundRobin,
                NoiseConfig::light(seed),
            );
            let mut s = Script::new(
                (0..4)
                    .map(|r| {
                        vec![
                            Ins::Compute(SimTime::from_micros(100)),
                            Ins::Send {
                                dst: (r + 1) % 4,
                                bytes: 2048,
                            },
                            Ins::Recv {
                                src: (r + 3) % 4,
                                bytes: 2048,
                            },
                            Ins::WaitAll,
                        ]
                    })
                    .collect(),
            );
            w.run(&mut s).unwrap()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn non_overtaking_mixed_protocols() {
        // Rank 0 sends a large rendezvous message, then a small eager one,
        // same tag. The eager envelope physically arrives first (the RTS
        // answer takes progress round-trips), but MPI non-overtaking
        // requires recv #1 to match the rendezvous message and recv #2 the
        // eager one — the size assertions in match_pair verify it.
        let mut w = world(2);
        let big = 1 << 20; // rendezvous on whale
        let small = 64; // eager
        let mut s = Script::new(vec![
            vec![
                Ins::Send { dst: 1, bytes: big },
                Ins::Send {
                    dst: 1,
                    bytes: small,
                },
                Ins::WaitAll,
            ],
            vec![
                Ins::Recv { src: 0, bytes: big },
                Ins::Recv {
                    src: 0,
                    bytes: small,
                },
                Ins::WaitAll,
            ],
        ]);
        w.run(&mut s).expect("must match in send order");
    }

    #[test]
    fn accounting_splits_time() {
        let mut w = world(2);
        let mut s = Script::new(vec![
            vec![
                Ins::Compute(SimTime::from_millis(2)),
                Ins::Send {
                    dst: 1,
                    bytes: 1 << 20,
                },
                Ins::WaitAll,
            ],
            vec![
                Ins::Recv {
                    src: 0,
                    bytes: 1 << 20,
                },
                Ins::Compute(SimTime::from_millis(5)),
                Ins::WaitAll,
            ],
        ]);
        w.run(&mut s).unwrap();
        let a0 = w.accounting(0);
        assert_eq!(a0.compute, SimTime::from_millis(2));
        assert!(a0.library > SimTime::ZERO, "posting costs library time");
        // Rank 0 stalls on the unanswered RTS while rank 1 computes 5 ms.
        assert!(
            a0.blocked >= SimTime::from_millis(2),
            "sender must be blocked: {a0:?}"
        );
        let total = w.accounting_total();
        assert_eq!(total.compute, SimTime::from_millis(7));
        assert!(a0.exposed_fraction() > 0.3);
    }

    #[test]
    fn trace_segments_match_accounting() {
        let mut w = world(2);
        w.enable_trace();
        let mut s = Script::new(vec![
            vec![
                Ins::Compute(SimTime::from_millis(1)),
                Ins::Send {
                    dst: 1,
                    bytes: 1 << 20,
                },
                Ins::WaitAll,
            ],
            vec![
                Ins::Recv {
                    src: 0,
                    bytes: 1 << 20,
                },
                Ins::Compute(SimTime::from_millis(3)),
                Ins::WaitAll,
            ],
        ]);
        w.run(&mut s).unwrap();
        // Per-rank sums of traced segments equal the accounting.
        for r in 0..2 {
            let acct = w.accounting(r);
            let mut sums = [SimTime::ZERO; 3];
            let mut last_end = SimTime::ZERO;
            for seg in w.trace().iter().filter(|s| s.rank == r) {
                assert!(seg.start >= last_end, "segments must not overlap");
                last_end = seg.end;
                let idx = match seg.kind {
                    SegmentKind::Compute => 0,
                    SegmentKind::Library => 1,
                    SegmentKind::Blocked => 2,
                };
                sums[idx] += seg.end - seg.start;
            }
            assert_eq!(sums[0], acct.compute, "rank {r} compute");
            assert_eq!(sums[1], acct.library, "rank {r} library");
            assert_eq!(sums[2], acct.blocked, "rank {r} blocked");
        }
        // The Chrome export is valid-enough JSON: bracketed, one event per
        // segment.
        let mut buf = Vec::new();
        w.write_chrome_trace(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("[\n"));
        assert!(text.trim_end().ends_with(']'));
        assert_eq!(text.matches("\"ph\": \"X\"").count(), w.trace().len());
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut w = world(2);
        let mut s = Script::new(vec![
            vec![Ins::Send { dst: 1, bytes: 64 }, Ins::WaitAll],
            vec![Ins::Recv { src: 0, bytes: 64 }, Ins::WaitAll],
        ]);
        w.run(&mut s).unwrap();
        assert!(w.trace().is_empty());
    }

    #[test]
    fn tags_allocate_sequentially() {
        let mut w = world(2);
        assert_eq!(w.alloc_tag(), Tag(0));
        assert_eq!(w.alloc_tag(), Tag(1));
    }

    #[test]
    fn self_send_panics() {
        let mut w = world(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.isend(0, 0, Tag(0), 10, SimTime::ZERO)
        }));
        assert!(result.is_err());
    }

    /// Rank 0 sends `bytes` with a staged payload; rank 1 receives. Both
    /// wait to completion.
    struct PayloadPingPong {
        bytes: usize,
        payload: Option<Payload>,
        send: Option<SendHandle>,
        recv: Option<RecvHandle>,
        posted: [bool; 2],
    }

    impl RankBehavior for PayloadPingPong {
        fn step(&mut self, w: &mut World, r: RankId) -> Step {
            if !self.posted[r] {
                self.posted[r] = true;
                if r == 0 {
                    let at = w.rank_now(0) + w.o_send(0, 1);
                    self.send =
                        Some(w.isend_payload(0, 1, Tag(0), self.bytes, at, self.payload.take()));
                    return Step::Busy(w.o_send(0, 1));
                }
                let at = w.rank_now(1) + w.o_recv(1, 0);
                self.recv = Some(w.irecv(1, 0, Tag(0), self.bytes, at));
                return Step::Busy(w.o_recv(1, 0));
            }
            let now = w.rank_now(r);
            w.poll(r, now);
            let done = if r == 0 {
                w.send_done(self.send.unwrap(), now)
            } else {
                w.recv_done(self.recv.unwrap(), now)
            };
            if done {
                Step::Done
            } else {
                Step::Block
            }
        }
    }

    fn run_payload_pingpong(bytes: usize) {
        let mut w = world(2);
        let mut buf = w.acquire_payload(bytes);
        buf.as_mut_slice()[..8].copy_from_slice(&[9, 8, 7, 6, 5, 4, 3, 2]);
        let sent = buf.as_slice().as_ptr();
        let mut b = PayloadPingPong {
            bytes,
            payload: Some(buf.share()),
            send: None,
            recv: None,
            posted: [false; 2],
        };
        w.run(&mut b).unwrap();
        let got = w
            .take_recv_payload(b.recv.unwrap())
            .expect("payload delivered");
        assert_eq!(got.len(), bytes);
        assert_eq!(&got.as_slice()[..8], &[9, 8, 7, 6, 5, 4, 3, 2]);
        // Delivery moved the sender's buffer; the second take is empty.
        assert_eq!(got.as_slice().as_ptr(), sent, "payload was copied");
        assert!(w.take_recv_payload(b.recv.unwrap()).is_none());
        assert_eq!(w.payloads_staged(), 1);
    }

    #[test]
    fn payload_rides_eager_message() {
        run_payload_pingpong(1024);
    }

    #[test]
    fn payload_rides_rendezvous_message() {
        run_payload_pingpong(1 << 20);
    }

    #[test]
    fn payload_does_not_change_timing() {
        // Byte-identical makespans with and without staged payloads: the
        // network model never looks at the handle.
        let run = |with_payload: bool| {
            let mut w = world(2);
            let payload = with_payload.then(|| w.acquire_payload(4096).share());
            let mut b = PayloadPingPong {
                bytes: 4096,
                payload,
                send: None,
                recv: None,
                posted: [false; 2],
            };
            w.run(&mut b).unwrap()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn events_processed_counts_per_world() {
        let mut w = world(2);
        assert_eq!(w.events_processed(), 0);
        let mut s = Script::new(vec![
            vec![Ins::Send { dst: 1, bytes: 64 }, Ins::WaitAll],
            vec![Ins::Recv { src: 0, bytes: 64 }, Ins::WaitAll],
        ]);
        w.run(&mut s).unwrap();
        assert!(w.events_processed() > 0);
    }

    // ---- record reuse ---------------------------------------------------

    /// Rank 0 sends two rendezvous messages A then B to rank 1, each side
    /// releasing A's handle before posting B.
    struct TwoInARow {
        phase: [u8; 2],
        sends: Vec<SendHandle>,
        recvs: Vec<RecvHandle>,
    }

    const MB: usize = 1 << 20;

    impl TwoInARow {
        fn sender(&mut self, w: &mut World) -> Step {
            let now = w.rank_now(0);
            w.poll(0, now);
            match self.phase[0] {
                0 | 1 => {
                    if let Some(&a) = self.sends.last() {
                        if !w.send_done(a, now) {
                            return Step::Block;
                        }
                        w.release_send(a);
                    }
                    self.phase[0] += 1;
                    let at = now + w.o_send(0, 1);
                    self.sends.push(w.isend(0, 1, Tag(0), MB, at));
                    Step::Busy(w.o_send(0, 1))
                }
                _ => {
                    if !w.send_done(self.sends[1], now) {
                        return Step::Block;
                    }
                    Step::Done
                }
            }
        }

        fn receiver(&mut self, w: &mut World) -> Step {
            let now = w.rank_now(1);
            w.poll(1, now);
            if let Some(&h) = self.recvs.last() {
                if !w.recv_done(h, now) {
                    return Step::Block;
                }
                w.release_recv(h);
                if self.phase[1] == 2 {
                    return Step::Done;
                }
            }
            self.phase[1] += 1;
            let at = now + w.o_recv(1, 0);
            self.recvs.push(w.irecv(1, 0, Tag(0), MB, at));
            Step::Busy(w.o_recv(1, 0))
        }
    }

    impl RankBehavior for TwoInARow {
        fn step(&mut self, w: &mut World, r: RankId) -> Step {
            if r == 0 {
                self.sender(w)
            } else {
                self.receiver(w)
            }
        }
    }

    fn two_in_a_row() -> (World, TwoInARow) {
        let mut w = world(2);
        let mut b = TwoInARow {
            phase: [0; 2],
            sends: Vec::new(),
            recvs: Vec::new(),
        };
        w.run(&mut b).expect("both messages complete");
        (w, b)
    }

    #[test]
    fn released_records_are_reused_on_a_healthy_world() {
        let (w, b) = two_in_a_row();
        assert_eq!(b.sends[0], b.sends[1], "B reuses A's send record");
        assert_eq!(b.recvs[0], b.recvs[1], "B reuses A's receive record");
        assert_eq!(w.ranks[1].dmsgs.len(), 1, "and A's receiver-side half");
        assert_eq!(w.ranks[1].dmsgs[0].mid, 1, "trace ids do not recycle");
        assert_eq!(w.msg_slots_max(), 2);
    }

    #[test]
    #[should_panic(expected = "release of an incomplete receive")]
    fn releasing_a_receive_twice_panics() {
        let (mut w, b) = two_in_a_row();
        // The behaviour already released it.
        w.release_recv(b.recvs[1]);
    }

    #[test]
    #[should_panic(expected = "release of an undrained send")]
    fn releasing_a_send_before_it_drains_panics() {
        let mut w = world(2);
        let h = w.isend(0, 1, Tag(0), 64, SimTime::ZERO);
        w.release_send(h);
    }

    #[test]
    fn reset_keeps_capacity_and_forgets_contents() {
        let mut w = world(8);
        let mut b = NeighborExchange::new(8, 6, 2048, 1 << 20);
        w.run(&mut b).unwrap();
        let slots = w.msg_slots_max();
        assert!(slots > 0);
        w.reset(NoiseConfig::none());
        assert_eq!(w.msg_slots_max(), 0, "arenas are emptied");
        assert_eq!(w.event_digest(), world(8).event_digest());
        let mut b = NeighborExchange::new(8, 6, 2048, 1 << 20);
        w.run(&mut b).unwrap();
        assert_eq!(w.msg_slots_max(), slots, "same run, same footprint");
    }
}

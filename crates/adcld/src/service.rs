//! The tuning service: query scheduling, coalescing, and durable history.
//!
//! A [`Service`] owns one scheduler thread and one [`HistoryStore`].
//! [`Service::submit`] resolves a query in three tiers:
//!
//! 1. **history-hit** — the persistent store already has a decision for
//!    the key: answered synchronously under the state lock, O(1).
//! 2. **coalesce** — an identical query is already in flight: the caller
//!    is appended to that sweep's waiter list (no second sweep).
//! 3. **sweep** — the key is queued for the scheduler thread. Each
//!    scheduler wakeup drains *every* distinct queued key into one batch
//!    and submits the whole batch to `simcore::par` as a single
//!    cost-aware admission (`par_map_costed`), so N concurrent cold
//!    queries cost one parallel sweep instead of N serialized ones. A
//!    batch of one bypasses the outer fan-out so a lone cold query can
//!    fan out its own inner sweep. Per key, the default measurement
//!    is a racing-tuned probe (`SelectionLogic::Racing`, overridable via
//!    `NBC_RACING`); with racing off the probe runs every implementation
//!    through `MicrobenchSpec::run_all_fixed_jobs` exactly as before.
//!    `adcl::simmemo` sits under both paths, so a sweep whose points all
//!    replay is tagged `memo-replay`. Queue-wait (admission latency) and
//!    sweep execution are recorded in separate histograms, in
//!    microseconds (`adcld.queue_wait_us` / `adcld.sweep_us`).
//!
//! Durability contract: decisions enter the in-memory store immediately
//! and hit disk via atomic checkpoint saves every
//! [`ServiceConfig::checkpoint_every`] updates (and on graceful
//! shutdown). The update that makes a checkpoint due is answered only
//! after the file is renamed into place, so a killed daemon loses at most
//! the last `checkpoint_every - 1` decisions; everything checkpointed is
//! served byte-identically after a restart. The store is stamped with the
//! context it was measured under — a daemon that loads a file stamped
//! with a different context discards the stale entries instead of serving
//! them.
//!
//! Locks. `state` guards the store, the queue and the in-flight table and
//! is what every hit takes; nothing slow runs under it. A checkpoint
//! takes `checkpointing` first (one writer at a time, so an older
//! snapshot can never be renamed over a newer file), then `state` only to
//! copy the already-rendered lines out and reset `dirty`, and writes the
//! file with `state` released. The order is always `checkpointing` →
//! `state`. `adcld.checkpoint_us` records a whole checkpoint,
//! `adcld.checkpoint_lock_us` the part of it that held `state`.

use crate::protocol::{
    Decision, SOURCE_FRESH_SWEEP, SOURCE_GUIDELINE_FLAGGED, SOURCE_HISTORY_HIT, SOURCE_MEMO_REPLAY,
};
use adcl::history::{HistoryKey, HistoryStore};
use autonbc::driver::{CollectiveOp, MicrobenchSpec};
use mpisim::NoiseConfig;
use netmodel::{Placement, Platform};
use simcore::metrics::{self, Counter, Histogram};
use simcore::SimTime;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

// Registry-backed daemon metrics. Looking a name up locks the process-wide
// registry, which every request would otherwise take beside `state`; each
// handle is resolved once here instead, and still registered on first use.
fn m_requests() -> &'static Counter {
    static M: OnceLock<&'static Counter> = OnceLock::new();
    M.get_or_init(|| metrics::counter("adcld.requests"))
}

fn m_history_hits() -> &'static Counter {
    static M: OnceLock<&'static Counter> = OnceLock::new();
    M.get_or_init(|| metrics::counter("adcld.history_hits"))
}

fn m_coalesced() -> &'static Counter {
    static M: OnceLock<&'static Counter> = OnceLock::new();
    M.get_or_init(|| metrics::counter("adcld.coalesced"))
}

fn m_sweep_admissions() -> &'static Counter {
    static M: OnceLock<&'static Counter> = OnceLock::new();
    M.get_or_init(|| metrics::counter("adcld.sweep_admissions"))
}

fn m_queue_wait_us() -> &'static Histogram {
    static M: OnceLock<&'static Histogram> = OnceLock::new();
    M.get_or_init(|| metrics::histogram("adcld.queue_wait_us"))
}

fn m_sweep_us() -> &'static Histogram {
    static M: OnceLock<&'static Histogram> = OnceLock::new();
    M.get_or_init(|| metrics::histogram("adcld.sweep_us"))
}

fn m_checkpoint_lock_us() -> &'static Histogram {
    static M: OnceLock<&'static Histogram> = OnceLock::new();
    M.get_or_init(|| metrics::histogram("adcld.checkpoint_lock_us"))
}

fn m_checkpoint_us() -> &'static Histogram {
    static M: OnceLock<&'static Histogram> = OnceLock::new();
    M.get_or_init(|| metrics::histogram("adcld.checkpoint_us"))
}

/// Largest message size a query may ask for (bounds slab allocation).
pub const MAX_MSG_BYTES: usize = 16 * 1024 * 1024;

/// Daemon-side configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads for sweeps (0 = auto-detect, like `--jobs`).
    pub jobs: usize,
    /// History file; `None` = in-memory only (no persistence).
    pub history_path: Option<PathBuf>,
    /// Checkpoint after this many history updates (0 = only on shutdown).
    pub checkpoint_every: u64,
    /// Cross-check fresh winners against guideline probes and tag
    /// dominated ones `guideline-flagged` (costs one probe per cold key).
    pub guidelines: bool,
    /// Test hook: use this context string instead of
    /// [`mpisim::fault::CONTEXT`] when stamping / validating the history
    /// store.
    pub context_override: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            jobs: 0,
            history_path: None,
            checkpoint_every: 8,
            guidelines: false,
            context_override: None,
        }
    }
}

/// A tuning query (the coalescing key is the derived [`HistoryKey`] —
/// the daemon's context is fixed at start, so it is part of every key
/// implicitly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Operation name.
    pub op: String,
    /// Platform preset name.
    pub platform: String,
    /// Number of processes.
    pub nprocs: usize,
    /// Message size in bytes.
    pub msg_bytes: usize,
}

/// A successfully served decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// The decision.
    pub decision: Decision,
    /// Where it came from (`history-hit` / `memo-replay` / `fresh-sweep`
    /// / `guideline-flagged`).
    pub source: &'static str,
}

/// A typed serve failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeError {
    /// Error class (`bad-request`, `unmeasurable`, `shutting-down`).
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

/// Outcome delivered to each waiter.
pub type ServeResult = Result<Served, ServeError>;

/// Snapshot of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Tuning queries received (valid or not).
    pub requests: u64,
    /// Queries folded onto an already-in-flight sweep.
    pub coalesced: u64,
    /// Queries answered from the history store.
    pub history_hits: u64,
    /// Sweeps whose every point replayed from the memo.
    pub memo_replays: u64,
    /// Sweeps that freshly simulated at least one point.
    pub fresh_sweeps: u64,
    /// Fresh sweeps whose winner a guideline probe flagged as dominated.
    pub guideline_flagged: u64,
    /// Scheduler batches admitted to a parallel sweep (one per wakeup
    /// drain — N concurrent cold keys share a single admission).
    pub sweep_admissions: u64,
    /// Queries rejected or failed.
    pub errors: u64,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    coalesced: AtomicU64,
    history_hits: AtomicU64,
    memo_replays: AtomicU64,
    fresh_sweeps: AtomicU64,
    guideline_flagged: AtomicU64,
    sweep_admissions: AtomicU64,
    errors: AtomicU64,
}

struct SchedState {
    history: HistoryStore,
    dirty: u64,
    /// Cold keys awaiting a sweep, with their enqueue instant (feeds the
    /// `adcld.queue_wait_us` histogram at admission time).
    queue: VecDeque<(HistoryKey, Instant)>,
    in_flight: HashMap<HistoryKey, Vec<mpsc::Sender<ServeResult>>>,
    shutdown: bool,
}

/// The tuning service. Create with [`Service::start`]; always pair with
/// [`Service::shutdown`] (the scheduler thread is joined there).
pub struct Service {
    cfg: ServiceConfig,
    ctx: String,
    stale_dropped: usize,
    /// Racing block size for cold probes; `None` = classic per-candidate
    /// fixed sweeps (`NBC_RACING=off`). Resolved once at startup.
    racing: Option<usize>,
    state: Mutex<SchedState>,
    /// Held for the whole of a checkpoint; taken before `state`, never
    /// while holding it.
    checkpointing: Mutex<()>,
    wake: Condvar,
    counters: Counters,
    sched: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Service {
    /// Load (or create) the history store, stamp it with the current
    /// context, and start the scheduler thread.
    pub fn start(cfg: ServiceConfig) -> io::Result<Arc<Service>> {
        let ctx = cfg
            .context_override
            .clone()
            .unwrap_or_else(|| mpisim::fault::CONTEXT.to_string());
        let mut history = match &cfg.history_path {
            Some(p) => HistoryStore::load(p)?,
            None => HistoryStore::new(),
        };
        // Staleness-aware reuse: entries measured under a different
        // context describe different physics — drop them rather than serve
        // wrong answers, and re-stamp the store with the live context.
        let stale_dropped = if !history.is_empty() && history.context() != ctx {
            let n = history.len();
            history.clear();
            n
        } else {
            0
        };
        history
            .set_context(&ctx)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        // The daemon is the racing default's home: its cold path is the
        // bottleneck racing exists for, and the parity gate covers it.
        // `NBC_RACING=off` restores the classic fixed sweeps bit-exactly.
        let racing = match adcl::strategy::racing_env() {
            adcl::strategy::RacingEnv::Off => None,
            adcl::strategy::RacingEnv::On(block) => Some(block),
            adcl::strategy::RacingEnv::Unset => Some(adcl::strategy::DEFAULT_RACING_BLOCK),
        };
        let svc = Arc::new(Service {
            cfg,
            ctx,
            stale_dropped,
            racing,
            state: Mutex::new(SchedState {
                history,
                dirty: 0,
                queue: VecDeque::new(),
                in_flight: HashMap::new(),
                shutdown: false,
            }),
            checkpointing: Mutex::new(()),
            wake: Condvar::new(),
            counters: Counters::default(),
            sched: Mutex::new(None),
        });
        let worker = Arc::clone(&svc);
        let handle = std::thread::Builder::new()
            .name("adcld-sched".into())
            .spawn(move || worker.sched_loop())?;
        *svc.sched.lock().unwrap_or_else(|e| e.into_inner()) = Some(handle);
        Ok(svc)
    }

    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The context string this service serves under.
    pub fn context(&self) -> &str {
        &self.ctx
    }

    /// Entries discarded at startup because their context was stale.
    pub fn stale_dropped(&self) -> usize {
        self.stale_dropped
    }

    /// Number of decisions currently in the (in-memory) history store.
    pub fn history_len(&self) -> usize {
        self.lock().history.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        ServiceStats {
            requests: c.requests.load(Ordering::Relaxed),
            coalesced: c.coalesced.load(Ordering::Relaxed),
            history_hits: c.history_hits.load(Ordering::Relaxed),
            memo_replays: c.memo_replays.load(Ordering::Relaxed),
            fresh_sweeps: c.fresh_sweeps.load(Ordering::Relaxed),
            guideline_flagged: c.guideline_flagged.load(Ordering::Relaxed),
            sweep_admissions: c.sweep_admissions.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
        }
    }

    fn validate(&self, q: &Query) -> Result<HistoryKey, ServeError> {
        let bad = |message: String| ServeError {
            kind: "bad-request",
            message,
        };
        if CollectiveOp::by_name(&q.op).is_none() {
            return Err(bad(format!("unknown op {:?}", q.op)));
        }
        let Some(platform) = Platform::by_name(&q.platform) else {
            return Err(bad(format!("unknown platform {:?}", q.platform)));
        };
        let capacity = platform.nodes * platform.cores_per_node;
        if q.nprocs < 2 || q.nprocs > capacity {
            return Err(bad(format!(
                "nprocs {} out of range 2..={} for platform {:?}",
                q.nprocs, capacity, q.platform
            )));
        }
        if q.msg_bytes == 0 || q.msg_bytes > MAX_MSG_BYTES {
            return Err(bad(format!(
                "msg_bytes {} out of range 1..={MAX_MSG_BYTES}",
                q.msg_bytes
            )));
        }
        let key = HistoryKey {
            op: q.op.clone(),
            platform: q.platform.clone(),
            nprocs: q.nprocs,
            msg_bytes: q.msg_bytes,
        };
        key.validate().map_err(|e| bad(e.to_string())).map(|()| key)
    }

    /// Submit a query. The receiver yields exactly one [`ServeResult`]
    /// (immediately for history hits and invalid queries; after the sweep
    /// otherwise).
    pub fn submit(&self, q: &Query) -> mpsc::Receiver<ServeResult> {
        self.submit_batch(std::slice::from_ref(q))
            .pop()
            .expect("one receiver per query")
    }

    /// Submit several queries under one lock acquisition. Every cold key
    /// lands in the scheduler queue atomically, so a single wakeup drains
    /// them into one sweep admission — the deterministic N-cold-queries →
    /// one-sweep contract the admission gate checks (per-key [`submit`]
    /// calls batch only as well as thread timing allows).
    ///
    /// [`submit`]: Service::submit
    pub fn submit_batch(&self, qs: &[Query]) -> Vec<mpsc::Receiver<ServeResult>> {
        let mut rxs = Vec::with_capacity(qs.len());
        // History hits audit and respond outside the lock.
        let mut hits: Vec<(HistoryKey, Served, mpsc::Sender<ServeResult>)> = Vec::new();
        let mut queued = false;
        let mut st = self.lock();
        for q in qs {
            let (tx, rx) = mpsc::channel();
            rxs.push(rx);
            self.counters.requests.fetch_add(1, Ordering::Relaxed);
            m_requests().inc();
            let key = match self.validate(q) {
                Ok(key) => key,
                Err(e) => {
                    self.counters.errors.fetch_add(1, Ordering::Relaxed);
                    let _ = tx.send(Err(e));
                    continue;
                }
            };
            if st.shutdown {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(Err(ServeError {
                    kind: "shutting-down",
                    message: "service is shutting down".into(),
                }));
                continue;
            }
            if let Some(e) = st.history.get(&key) {
                self.counters.history_hits.fetch_add(1, Ordering::Relaxed);
                m_history_hits().inc();
                let served = Served {
                    decision: Decision {
                        winner: e.winner.clone(),
                        score: e.score,
                        margin: e.margin,
                    },
                    source: SOURCE_HISTORY_HIT,
                };
                hits.push((key, served, tx));
                continue;
            }
            if let Some(waiters) = st.in_flight.get_mut(&key) {
                waiters.push(tx);
                self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                m_coalesced().inc();
                continue;
            }
            st.in_flight.insert(key.clone(), vec![tx]);
            st.queue.push_back((key, Instant::now()));
            queued = true;
        }
        drop(st);
        for (key, served, tx) in hits {
            self.audit(&key, &served);
            let _ = tx.send(Ok(served));
        }
        if queued {
            self.wake.notify_one();
        }
        rxs
    }

    fn audit(&self, key: &HistoryKey, served: &Served) {
        // `record_served` drops the record unless tracing is on; do not
        // build it (a format and four clones per served hit) for that.
        if !simcore::trace::enabled() {
            return;
        }
        adcl::audit::record_served(adcl::audit::ServedAudit {
            key: key.to_string(),
            op: key.op.clone(),
            winner: served.decision.winner.clone(),
            score: served.decision.score,
            margin: served.decision.margin,
            source: served.source.to_string(),
        });
    }

    fn sched_loop(&self) {
        loop {
            let batch: Vec<(HistoryKey, Instant)> = {
                let mut st = self.lock();
                loop {
                    if !st.queue.is_empty() {
                        break st.queue.drain(..).collect();
                    }
                    if st.shutdown {
                        return;
                    }
                    st = self.wake.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            self.admit_batch(batch);
        }
    }

    /// One cost-aware sweep admission for every key drained this wakeup.
    /// A batch of one runs on the scheduler thread directly so the lone
    /// sweep can fan out its own inner runs; larger batches go through
    /// `par_map_costed` (sweeps nested inside it run serially), so N
    /// concurrent cold queries cost one parallel sweep instead of N
    /// serialized ones.
    fn admit_batch(&self, batch: Vec<(HistoryKey, Instant)>) {
        self.counters
            .sweep_admissions
            .fetch_add(1, Ordering::Relaxed);
        m_sweep_admissions().inc();
        for (_, enqueued) in &batch {
            m_queue_wait_us().record(enqueued.elapsed().as_micros() as u64);
        }
        if batch.len() == 1 {
            let (key, _) = batch.into_iter().next().expect("non-empty batch");
            let result = self.timed_compute(&key);
            self.respond(key, result);
            return;
        }
        let est = batch
            .iter()
            .map(|(k, _)| self.probe_spec(k).est_run_nanos().saturating_mul(3))
            .max()
            .unwrap_or(0);
        let results = simcore::par::par_map_costed(self.cfg.jobs, &batch, est, |_, (key, _)| {
            (key.clone(), self.timed_compute(key))
        });
        for (key, result) in results {
            self.respond(key, result);
        }
    }

    fn timed_compute(&self, key: &HistoryKey) -> ServeResult {
        let t0 = Instant::now();
        let result = self.compute(key);
        m_sweep_us().record(t0.elapsed().as_micros() as u64);
        result
    }

    /// Deterministic probe scenario for a query key: fixed loop shape, a
    /// noise seed derived from the key, block placement. Identical keys
    /// always map to identical specs (and thus identical memo keys), so
    /// decisions are reproducible across daemon restarts and `--jobs`
    /// settings.
    fn probe_spec(&self, key: &HistoryKey) -> MicrobenchSpec {
        let op = CollectiveOp::by_name(&key.op).expect("validated op");
        let platform = Platform::by_name(&key.platform).expect("validated platform");
        // FNV-1a over the encoded key: a stable, platform-independent seed.
        let label = key.to_string();
        let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            seed ^= b as u64;
            seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
        }
        MicrobenchSpec {
            platform,
            nprocs: key.nprocs,
            op,
            msg_bytes: key.msg_bytes,
            iters: 8,
            compute_total: SimTime::from_millis(8),
            num_progress: 4,
            noise: NoiseConfig::light(seed),
            reps: 2,
            placement: Placement::Block,
            imbalance: adcl::microbench::Imbalance::None,
        }
    }

    fn compute(&self, key: &HistoryKey) -> ServeResult {
        let spec = self.probe_spec(key);
        if let Some(block) = self.racing {
            let logic = adcl::strategy::SelectionLogic::Racing(block);
            let (out, replayed) = spec.run_memo_flagged(logic);
            let winner = out.winner.clone().ok_or_else(|| ServeError {
                kind: "unmeasurable",
                message: format!("no implementation of {:?} completed", key.op),
            })?;
            let mut source = if replayed {
                SOURCE_MEMO_REPLAY
            } else {
                SOURCE_FRESH_SWEEP
            };
            if self.cfg.guidelines && self.winner_dominated(key, &winner) {
                source = SOURCE_GUIDELINE_FLAGGED;
            }
            return Ok(Served {
                decision: Decision {
                    winner,
                    score: out.total,
                    margin: out.margin,
                },
                source,
            });
        }
        let (rows, replayed) = spec.run_all_fixed_jobs_flagged(self.cfg.jobs);
        let (best_name, best) = rows
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .cloned()
            .ok_or_else(|| ServeError {
                kind: "unmeasurable",
                message: "empty function set".into(),
            })?;
        if !best.is_finite() {
            return Err(ServeError {
                kind: "unmeasurable",
                message: format!("no implementation of {:?} completed", key.op),
            });
        }
        let second = rows
            .iter()
            .filter(|(n, _)| *n != best_name)
            .map(|(_, t)| *t)
            .fold(f64::INFINITY, f64::min);
        let margin = if second.is_finite() && best > 0.0 {
            (second - best) / best
        } else {
            0.0
        };
        let mut source = if replayed == rows.len() {
            SOURCE_MEMO_REPLAY
        } else {
            SOURCE_FRESH_SWEEP
        };
        if self.cfg.guidelines && self.winner_dominated(key, &best_name) {
            source = SOURCE_GUIDELINE_FLAGGED;
        }
        Ok(Served {
            decision: Decision {
                winner: best_name,
                score: best,
                margin,
            },
            source,
        })
    }

    /// Guideline cross-check (PR 8 observatory): probe every candidate
    /// with clean fixed schedules and report whether the sweep's winner is
    /// dominated by more than `FLAG_TOLERANCE`. Probes are memoized, so
    /// the cost is one probe sweep per cold key.
    fn winner_dominated(&self, key: &HistoryKey, winner: &str) -> bool {
        use adcl::guidelines;
        let Some(pop) = guidelines::ProbeOp::from_op_name(&key.op) else {
            return false;
        };
        let Some(platform) = Platform::by_name(&key.platform) else {
            return false;
        };
        let times = guidelines::op_probe_times(&platform, pop, key.nprocs, key.msg_bytes);
        let Some(&(_, winner_t)) = times.iter().find(|(n, _)| n == winner) else {
            return false;
        };
        let best = times.iter().map(|(_, t)| *t).fold(f64::INFINITY, f64::min);
        best.is_finite() && winner_t > best * (1.0 + guidelines::FLAG_TOLERANCE)
    }

    fn respond(&self, key: HistoryKey, result: ServeResult) {
        match &result {
            Ok(served) => {
                let counter = match served.source {
                    SOURCE_MEMO_REPLAY => &self.counters.memo_replays,
                    SOURCE_GUIDELINE_FLAGGED => {
                        self.counters.fresh_sweeps.fetch_add(1, Ordering::Relaxed);
                        &self.counters.guideline_flagged
                    }
                    _ => &self.counters.fresh_sweeps,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                self.audit(&key, served);
            }
            Err(_) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        // History insert and in-flight removal are one step under the lock:
        // a query for this key is either a waiter here or a hit afterwards.
        let (waiters, checkpoint_due) = {
            let mut st = self.lock();
            let due = match &result {
                Ok(served) => {
                    let d = &served.decision;
                    let _ = st
                        .history
                        .put_decision(key.clone(), &d.winner, d.score, d.margin);
                    st.dirty += 1;
                    self.cfg.checkpoint_every > 0 && st.dirty >= self.cfg.checkpoint_every
                }
                Err(_) => false,
            };
            (st.in_flight.remove(&key).unwrap_or_default(), due)
        };
        // The waiters hear of the decision only once it is on disk.
        if checkpoint_due {
            self.checkpoint();
        }
        for w in waiters {
            let _ = w.send(result.clone());
        }
    }

    /// Force a checkpoint now. Returns whether a file was written. A
    /// failed write is reported on stderr and leaves `dirty` as it was, so
    /// the next update retries.
    pub fn checkpoint(&self) -> bool {
        let Some(path) = &self.cfg.history_path else {
            return false;
        };
        let _one_writer = self.checkpointing.lock().unwrap_or_else(|e| e.into_inner());
        let started = Instant::now();
        let mut st = self.lock();
        let locked = Instant::now();
        let text = st.history.snapshot();
        let dirty = std::mem::take(&mut st.dirty);
        drop(st);
        m_checkpoint_lock_us().record(locked.elapsed().as_micros() as u64);
        let written = match HistoryStore::write_atomic(path, &text) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("adcld: checkpoint to {} failed: {e}", path.display());
                let mut st = self.lock();
                st.history.discard_snapshot();
                st.dirty += dirty;
                false
            }
        };
        m_checkpoint_us().record(started.elapsed().as_micros() as u64);
        written
    }

    /// Stop accepting queries, drain the in-flight queue, join the
    /// scheduler, and (when `save` is set) write a final checkpoint.
    /// Idempotent.
    pub fn shutdown(&self, save: bool) {
        {
            let mut st = self.lock();
            st.shutdown = true;
        }
        self.wake.notify_all();
        let handle = self.sched.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(h) = handle {
            let _ = h.join();
        }
        // Fail any waiter the scheduler did not get to.
        let leftovers: Vec<_> = self.lock().in_flight.drain().collect();
        for (_, waiters) in leftovers {
            for w in waiters {
                let _ = w.send(Err(ServeError {
                    kind: "shutting-down",
                    message: "service is shutting down".into(),
                }));
            }
        }
        if save {
            self.checkpoint();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(msg: usize) -> Query {
        Query {
            op: "ialltoall".into(),
            platform: "whale".into(),
            nprocs: 4,
            msg_bytes: msg,
        }
    }

    #[test]
    fn invalid_queries_fail_typed() {
        let svc = Service::start(ServiceConfig::default()).unwrap();
        for bad in [
            Query {
                op: "nope".into(),
                ..q(1024)
            },
            Query {
                platform: "atlantis".into(),
                ..q(1024)
            },
            Query {
                nprocs: 1,
                ..q(1024)
            },
            Query {
                nprocs: 1_000_000,
                ..q(1024)
            },
            q(0),
            q(MAX_MSG_BYTES + 1),
        ] {
            let r = svc.submit(&bad).recv().unwrap();
            assert_eq!(r.unwrap_err().kind, "bad-request", "query {bad:?}");
        }
        assert_eq!(svc.stats().errors, 6);
        svc.shutdown(false);
    }

    #[test]
    fn second_query_is_a_history_hit_with_identical_decision() {
        let svc = Service::start(ServiceConfig::default()).unwrap();
        let first = svc.submit(&q(2048)).recv().unwrap().unwrap();
        assert!(matches!(
            first.source,
            SOURCE_FRESH_SWEEP | SOURCE_MEMO_REPLAY
        ));
        let second = svc.submit(&q(2048)).recv().unwrap().unwrap();
        assert_eq!(second.source, SOURCE_HISTORY_HIT);
        assert_eq!(second.decision, first.decision);
        assert_eq!(svc.stats().history_hits, 1);
        svc.shutdown(false);
    }

    #[test]
    fn stale_context_discards_entries() {
        let dir = std::env::temp_dir().join(format!("adcld-stale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.tsv");
        let mut store = HistoryStore::new();
        store.set_context("old-context").unwrap();
        store
            .put(
                HistoryKey {
                    op: "ialltoall".into(),
                    platform: "whale".into(),
                    nprocs: 4,
                    msg_bytes: 2048,
                },
                "stale-winner",
                1.0,
            )
            .unwrap();
        store.save(&path).unwrap();
        let svc = Service::start(ServiceConfig {
            history_path: Some(path.clone()),
            context_override: Some("new-context".into()),
            ..ServiceConfig::default()
        })
        .unwrap();
        assert_eq!(svc.stale_dropped(), 1);
        assert_eq!(svc.history_len(), 0);
        // The stale winner must not be served: this is a sweep, not a hit.
        let r = svc.submit(&q(2048)).recv().unwrap().unwrap();
        assert_ne!(r.source, SOURCE_HISTORY_HIT);
        assert_ne!(r.decision.winner, "stale-winner");
        svc.shutdown(true);
        // The re-stamped file now carries the new context.
        let back = HistoryStore::load(&path).unwrap();
        assert_eq!(back.context(), "new-context");
        std::fs::remove_dir_all(&dir).ok();
    }
}

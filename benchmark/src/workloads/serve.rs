//! `serve_warm` and `serve_mixed`: the `adcld` daemon on loopback TCP.
//!
//! Both start an in-process `adcld::Server` whose history file was seeded
//! with [`HISTORY_KEYS`] decisions through `HistoryStore::put_decision` and
//! `save`. Requests are pre-rendered lines; a reply is correct only if it
//! is byte-identical to the line `render_ok` gives for the stored decision.
//!
//! * `serve_warm` - **closed loop, 1 client**: the next request leaves when
//!   the previous reply arrived. History hits only, keys uniform by seed.
//!   The process is held on one CPU while it runs ([`OneCpu`]).
//! * `serve_mixed` - **open loop at [`MIXED_RATE`] requests/s over 2
//!   connections**: requests leave on schedule whatever the daemon does,
//!   and latency runs from the time a request was *due*. Connection A
//!   carries hits; connection B carries 20 % distinct cold keys and a
//!   periodic `checkpoint`; a quarter of the cold keys are also sent on A
//!   at the same instant, so the daemon sees duplicates in flight.
//!
//! The daemon's `ibcast` and `ireduce` stay out of the op mix: its default
//! probe answers `unmeasurable` for them (see `adcld.op_coverage_share`).

use super::{Check, Digest, Rep, Scale, Workload};
use crate::host::{nproc, OneCpu};
use crate::spans::Recorder;
use crate::stats;
use adcld::protocol::{self, Decision};
use adcld::service::{Query, ServiceConfig};
use adcld::Server;
use autonbc::adcl::history::{HistoryKey, HistoryStore};
use autonbc::adcl::simmemo;
use autonbc::netmodel::Platform;
use autonbc::simcore::json::{self, Json};
use autonbc::simcore::rng::SplitMix64;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Decisions pre-seeded into the daemon's history file.
pub const HISTORY_KEYS: usize = 20_000;
/// Offered load of `serve_mixed`, requests per second over both connections.
pub const MIXED_RATE: f64 = 1500.0;
/// Operations the daemon's default probe can decide.
pub const SERVED_OPS: [&str; 5] = [
    "ialltoall",
    "iallgather",
    "iallreduce",
    "igather",
    "iscatter",
];

const WINNERS: [&str; 3] = ["linear", "pairwise", "bruck"];

/// The `i`-th seeded history key: a bijection from `0..` onto distinct
/// valid keys (nprocs 2..=32 fits every preset; sizes are multiples of 64).
pub fn history_key(i: usize) -> HistoryKey {
    let platforms = Platform::preset_names();
    let (i, op) = (i / SERVED_OPS.len(), SERVED_OPS[i % SERVED_OPS.len()]);
    let (i, platform) = (i / platforms.len(), platforms[i % platforms.len()]);
    let (i, nprocs) = (i / 31, 2 + i % 31);
    HistoryKey {
        op: op.to_string(),
        platform: platform.to_string(),
        nprocs,
        msg_bytes: 64 * (i + 1),
    }
}

/// The `j`-th cold key: never in the seeded history (odd sizes), cheap to
/// decide (4-16 ranks, at most a few KiB).
pub fn cold_key(j: usize) -> HistoryKey {
    let platforms = Platform::preset_names();
    let (j, op) = (j / SERVED_OPS.len(), SERVED_OPS[j % SERVED_OPS.len()]);
    let (j, platform) = (j / platforms.len(), platforms[j % platforms.len()]);
    let (j, nprocs) = (j / 4, [4, 8, 12, 16][j % 4]);
    HistoryKey {
        op: op.to_string(),
        platform: platform.to_string(),
        nprocs,
        msg_bytes: 1001 + 2 * j,
    }
}

pub fn query_line(id: u64, key: &HistoryKey) -> String {
    let mut line = protocol::render_query(id, &key.op, &key.platform, key.nprocs, key.msg_bytes);
    line.push('\n');
    line
}

/// Write a history file holding `n` seeded decisions, stamped with the
/// context the daemon will check it against.
pub fn seed_history(path: &Path, n: usize) -> Result<(), String> {
    let mut store = HistoryStore::new();
    store
        .set_context(&autonbc::mpisim::fault::current().describe())
        .map_err(|e| e.to_string())?;
    for i in 0..n {
        let score = 1e-3 * (1.0 + i as f64 / 7.0);
        store
            .put_decision(history_key(i), WINNERS[i % WINNERS.len()], score, 0.05)
            .map_err(|e| e.to_string())?;
    }
    store
        .save(path)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// A scratch directory inside the checkout, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        let dir = PathBuf::from(format!("benchmark/out/tmp-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A closed-loop line client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // A reply that never comes must fail the run, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer: stream,
            buf: String::new(),
        })
    }

    /// Send one line (newline included) and return the reply without its
    /// newline. The returned slice is valid until the next call.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.buf.trim_end())
    }
}

/// What a reply must look like.
enum Expect {
    /// Byte-identical to this line (a history hit).
    Exact(String),
    /// `status: ok`; the decision bytes are collected under this cold index.
    Cold(usize),
    /// A command acknowledgement.
    Ack,
}

struct Planned {
    due: Duration,
    line: String,
    expect: Expect,
}

/// What one open-loop connection observed.
#[derive(Default)]
struct ConnLog {
    /// `(latency from due time, was cold)` of correct replies, microseconds.
    ok_us: Vec<(f64, bool)>,
    failed: u64,
    /// How late each request left, microseconds.
    late_us: Vec<f64>,
    /// `(cold index, rendered decision)` per cold reply.
    cold_decisions: Vec<(usize, String)>,
}

fn decision_bytes(reply: &str) -> Option<String> {
    let doc = json::parse(reply).ok()?;
    (doc.get("status")?.as_str()? == "ok").then(|| doc.get("decision").map(Json::render))?
}

/// Drive one connection open loop: a sender thread that sleeps until each
/// request is due, and this thread reading replies in order.
fn open_loop_conn(addr: SocketAddr, epoch: Instant, plan: &[Planned]) -> Result<ConnLog, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut log = ConnLog::default();
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> Result<Vec<f64>, String> {
            let mut late_us = Vec::with_capacity(plan.len());
            for p in plan {
                if let Some(wait) = p.due.checked_sub(epoch.elapsed()) {
                    std::thread::sleep(wait);
                }
                late_us.push((epoch.elapsed().saturating_sub(p.due)).as_secs_f64() * 1e6);
                writer
                    .write_all(p.line.as_bytes())
                    .map_err(|e| format!("send: {e}"))?;
            }
            Ok(late_us)
        });
        let mut buf = String::new();
        for p in plan {
            buf.clear();
            let got = reader.read_line(&mut buf);
            let lat_us = (epoch.elapsed().saturating_sub(p.due)).as_secs_f64() * 1e6;
            if !matches!(got, Ok(n) if n > 0) {
                // Connection gone or daemon hung: this and every remaining
                // request failed. Do not wait out a timeout per request.
                log.failed = (plan.len() - log.ok_us.len()) as u64;
                break;
            }
            let reply = buf.trim_end();
            match &p.expect {
                Expect::Exact(want) if reply == want => log.ok_us.push((lat_us, false)),
                Expect::Ack if reply.contains("\"status\":\"ok\"") => {
                    log.ok_us.push((lat_us, false))
                }
                Expect::Cold(j) => match decision_bytes(reply) {
                    Some(d) => {
                        log.ok_us.push((lat_us, true));
                        log.cold_decisions.push((*j, d));
                    }
                    None => log.failed += 1,
                },
                _ => log.failed += 1,
            }
        }
        log.late_us = sender.join().map_err(|_| "sender panicked".to_string())??;
        Ok(log)
    })
}

pub struct Serve {
    mixed: bool,
    seed: u64,
    /// Requests per repetition.
    requests: usize,
    history_keys: usize,
    dir: Option<ScratchDir>,
    /// `(request line, expected reply)` per seeded key, id = key index.
    hits: Vec<(String, String)>,
    cold: Vec<HistoryKey>,
    server: Option<Server>,
    /// `serve_warm` only, while its daemon runs: see [`OneCpu`].
    one_cpu: Option<OneCpu>,
    /// Decision bytes each cold key was first answered with.
    cold_answers: Vec<Option<String>>,
}

impl Serve {
    pub fn warm(seed: u64, scale: Scale) -> Serve {
        let (requests, history_keys) = match scale {
            Scale::Full => (150_000, HISTORY_KEYS),
            Scale::Tiny => (2_000, 500),
        };
        Serve::new(false, seed, requests, history_keys)
    }

    pub fn mixed(seed: u64, scale: Scale) -> Serve {
        let (requests, history_keys) = match scale {
            Scale::Full => (2_250, HISTORY_KEYS),
            Scale::Tiny => (300, 500),
        };
        Serve::new(true, seed, requests, history_keys)
    }

    fn new(mixed: bool, seed: u64, requests: usize, history_keys: usize) -> Serve {
        Serve {
            mixed,
            seed,
            requests,
            history_keys,
            dir: None,
            hits: Vec::new(),
            cold: Vec::new(),
            server: None,
            one_cpu: None,
            cold_answers: Vec::new(),
        }
    }

    fn dir(&self) -> &Path {
        &self.dir.as_ref().expect("set up").0
    }

    fn seed_file(&self) -> PathBuf {
        self.dir().join("seed.tsv")
    }

    fn live_file(&self) -> PathBuf {
        self.dir().join("history.tsv")
    }

    fn config(&self) -> ServiceConfig {
        ServiceConfig {
            jobs: nproc(),
            history_path: Some(self.live_file()),
            // `serve_warm` never writes; `serve_mixed` checkpoints every 64
            // cold decisions, an O(history) save under the state lock.
            checkpoint_every: if self.mixed { 64 } else { 0 },
            ..ServiceConfig::default()
        }
    }

    /// Stop any daemon and start a fresh one on a fresh copy of the seeded
    /// history.
    fn restart_from_seed(&mut self, rec: &mut Recorder) -> Result<(), String> {
        self.stop();
        std::fs::copy(self.seed_file(), self.live_file()).map_err(|e| e.to_string())?;
        let cfg = self.config();
        let server = rec
            .span("Server::spawn", |_| Server::spawn(cfg, "127.0.0.1:0"))
            .map_err(|e| format!("daemon start: {e}"))?;
        self.server = Some(server);
        Ok(())
    }

    fn stop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }

    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("daemon running").addr()
    }

    /// The same request lines taken through the daemon's layers in process:
    /// `parse_request`, `Service::submit`, `render_ok`, each under a span.
    /// Traced repetitions only; not part of any end-to-end number.
    fn in_process_pass(&self, rec: &mut Recorder, picks: &[usize]) {
        let svc = self.server.as_ref().expect("daemon running").service();
        for (n, &k) in picks.iter().enumerate() {
            rec.set_op(n as u64);
            let line = self.hits[k].0.trim_end();
            let Ok(protocol::Request::Tune {
                id,
                op,
                platform,
                nprocs,
                msg_bytes,
                ..
            }) = rec.span("parse_request", |_| protocol::parse_request(line))
            else {
                continue;
            };
            let q = Query {
                op,
                platform,
                nprocs,
                msg_bytes,
            };
            if let Ok(Ok(served)) = rec.span("Service::submit", |_| svc.submit(&q).recv()) {
                rec.span("render_ok", |_| {
                    protocol::render_ok(&id, &served.decision, served.source)
                });
            }
        }
    }

    fn rep_warm(&mut self, rec: &mut Recorder) -> Result<Rep, String> {
        let mut rng = SplitMix64::split(self.seed, 1);
        let picks: Vec<usize> = (0..self.requests)
            .map(|_| rng.next_below(self.hits.len() as u64) as usize)
            .collect();
        let mut client = Client::connect(self.addr())?;
        let mut rep = Rep::default();
        let mut d = Digest::new();
        rep.lat_us.reserve(picks.len());
        let t0 = Instant::now();
        for (n, &k) in picks.iter().enumerate() {
            let (line, want) = &self.hits[k];
            rec.set_op(n as u64);
            let t = Instant::now();
            let reply = rec.span("socket write->read", |_| {
                client.roundtrip(line).map(|r| r == want)
            });
            let lat = t.elapsed();
            rep.attempted += 1;
            match reply {
                Ok(true) => rep.lat_us.push(lat.as_secs_f64() * 1e6),
                Ok(false) => rep.failed += 1,
                Err(e) => return Err(format!("request {n}: {e}")),
            }
        }
        rep.wall_s = t0.elapsed().as_secs_f64();
        // Every reply equalled its expected line, so the expected lines of
        // the distinct keys asked are the outputs.
        let mut asked = picks.clone();
        asked.sort_unstable();
        asked.dedup();
        for k in asked {
            d.bytes(self.hits[k].1.as_bytes());
        }
        rep.digest = d.finish();
        if let Some(p99) = stats::percentile(&rep.lat_us, 99.0) {
            rep.layer.insert("adcld.req_p99_us", p99);
        }
        self.daemon_counters(&mut rep);
        self.in_process_pass(rec, &picks[..picks.len().min(2_000)]);
        Ok(rep)
    }

    /// Shares of the daemon's own counters over this repetition's daemon.
    fn daemon_counters(&self, rep: &mut Rep) {
        let s = self
            .server
            .as_ref()
            .expect("daemon running")
            .service()
            .stats();
        let requests = s.requests.max(1) as f64;
        rep.layer
            .insert("adcld.coalesced_share", s.coalesced as f64 / requests);
        rep.layer
            .insert("adcld.sweep_admissions", s.sweep_admissions as f64);
        rep.layer
            .insert("adcld.history_hit_share", s.history_hits as f64 / requests);
        let sweeps = (s.memo_replays + s.fresh_sweeps).max(1) as f64;
        rep.layer
            .insert("adcld.memo_replay_share", s.memo_replays as f64 / sweeps);
    }

    /// The open-loop schedule: request `i` is due at `i / MIXED_RATE`,
    /// even `i` on connection A, odd `i` on connection B.
    fn mixed_plan(&self) -> [Vec<Planned>; 2] {
        let mut rng = SplitMix64::split(self.seed, 2);
        let mut plan: [Vec<Planned>; 2] = [Vec::new(), Vec::new()];
        let mut next_cold = 0;
        let mut dup_for_a: Option<usize> = None;
        // Connection B's slots: every fifth is cold (a tenth of all
        // requests), and twice a second one is a `checkpoint` command.
        let checkpoint_slots = (MIXED_RATE / 4.0) as usize;
        for i in 0..self.requests {
            let due = Duration::from_secs_f64(i as f64 / MIXED_RATE);
            let conn = i % 2;
            let hit = |rng: &mut SplitMix64| {
                let k = rng.next_below(self.hits.len() as u64) as usize;
                (
                    self.hits[k].0.clone(),
                    Expect::Exact(self.hits[k].1.clone()),
                )
            };
            let cold = |j: usize| (query_line(j as u64, &self.cold[j]), Expect::Cold(j));
            let (line, expect) = if conn == 0 {
                match dup_for_a.take() {
                    Some(j) => cold(j),
                    None => hit(&mut rng),
                }
            } else if (i / 2) % checkpoint_slots == checkpoint_slots - 1 {
                let mut line = protocol::render_command("checkpoint");
                line.push('\n');
                (line, Expect::Ack)
            } else if (i / 2) % 5 == 2 && next_cold < self.cold.len() {
                let j = next_cold;
                next_cold += 1;
                if j % 4 == 0 {
                    dup_for_a = Some(j);
                }
                cold(j)
            } else {
                hit(&mut rng)
            };
            // A duplicate goes out at the same instant as its original.
            let due = if conn == 0 && matches!(expect, Expect::Cold(_)) {
                plan[1].last().map_or(due, |p| p.due)
            } else {
                due
            };
            plan[conn].push(Planned { due, line, expect });
        }
        plan
    }

    fn rep_mixed(&mut self, rec: &mut Recorder) -> Result<Rep, String> {
        // Cold keys are cold again: fresh daemon, fresh history copy, empty
        // memo. The schedule cache stays warm, as in a long-lived daemon.
        simmemo::clear();
        self.restart_from_seed(rec)?;
        let plan = self.mixed_plan();
        let addr = self.addr();
        let epoch = Instant::now();
        let logs = std::thread::scope(|s| {
            let b = s.spawn(|| open_loop_conn(addr, epoch, &plan[1]));
            let a = open_loop_conn(addr, epoch, &plan[0]);
            let b = b
                .join()
                .map_err(|_| "connection thread panicked".to_string())?;
            Ok::<_, String>([a?, b?])
        })?;
        let mut rep = Rep {
            wall_s: epoch.elapsed().as_secs_f64(),
            attempted: self.requests as u64,
            ..Rep::default()
        };
        let kind = |want: fn(&Expect) -> bool| {
            plan.iter().flatten().filter(|p| want(&p.expect)).count() as u64
        };
        rep.counts = [
            ("requests.hit", kind(|e| matches!(e, Expect::Exact(_)))),
            ("requests.cold", kind(|e| matches!(e, Expect::Cold(_)))),
            ("requests.checkpoint", kind(|e| matches!(e, Expect::Ack))),
        ]
        .into();
        let mut cold_us = Vec::new();
        let mut late_us = Vec::new();
        let mut wrong_dups = 0;
        for log in logs {
            rep.failed += log.failed;
            for (us, was_cold) in log.ok_us {
                rep.lat_us.push(us);
                if was_cold {
                    cold_us.push(us);
                }
            }
            late_us.extend(log.late_us);
            for (j, d) in log.cold_decisions {
                match &self.cold_answers[j] {
                    None => self.cold_answers[j] = Some(d),
                    // A duplicate, a later repetition or a warm re-ask: the
                    // decision bytes must not differ.
                    Some(first) if *first == d => {}
                    Some(_) => wrong_dups += 1,
                }
            }
        }
        rep.failed += wrong_dups;
        let mut d = Digest::new();
        for a in self.cold_answers.iter().flatten() {
            d.bytes(a.as_bytes());
        }
        rep.digest = d.finish();
        if let Some(p99) = stats::percentile(&rep.lat_us, 99.0) {
            rep.layer.insert("adcld.req_p99_us", p99);
        }
        // Late = sent more than one inter-arrival gap after it was due.
        let gap_us = 1e6 / MIXED_RATE;
        let late = late_us.iter().filter(|&&us| us > gap_us).count();
        rep.layer.insert(
            "adcld.late_share",
            late as f64 / late_us.len().max(1) as f64,
        );
        if !cold_us.is_empty() {
            rep.cold_loaded_ms_p50 = Some(stats::median(&cold_us) / 1e3);
        }
        self.daemon_counters(&mut rep);
        let picks: Vec<usize> = (0..self.hits.len().min(500)).collect();
        self.in_process_pass(rec, &picks);
        Ok(rep)
    }

    /// Ask `keys` over a fresh connection; the reply lines.
    fn ask(&self, keys: &[(u64, HistoryKey)]) -> Result<Vec<String>, String> {
        let mut client = Client::connect(self.addr())?;
        keys.iter()
            .map(|(id, key)| {
                client
                    .roundtrip(&query_line(*id, key))
                    .map(str::to_string)
                    .map_err(|e| e.to_string())
            })
            .collect()
    }
}

impl Workload for Serve {
    fn setup(&mut self, rec: &mut Recorder) -> Result<(), String> {
        self.dir = Some(ScratchDir::new(if self.mixed { "mixed" } else { "warm" })?);
        simmemo::set_enabled(true);
        let seed_file = self.seed_file();
        rec.span("HistoryStore::put_decision+save", |_| {
            seed_history(&seed_file, self.history_keys)
        })?;
        // Expected replies come from the file the daemon will load, so they
        // hold exactly the numbers it holds.
        let store = HistoryStore::load(&seed_file).map_err(|e| e.to_string())?;
        self.hits = (0..self.history_keys)
            .map(|i| {
                let key = history_key(i);
                let e = store.get(&key).expect("seeded key present");
                let decision = Decision {
                    winner: e.winner.clone(),
                    score: e.score,
                    margin: e.margin,
                };
                let want = protocol::render_ok(
                    &Json::num(i as f64),
                    &decision,
                    protocol::SOURCE_HISTORY_HIT,
                );
                (query_line(i as u64, &key), want)
            })
            .collect();
        if self.mixed {
            // One request in ten is cold: a fifth of connection B's half.
            self.cold = (0..self.requests / 10).map(cold_key).collect();
            self.cold_answers = vec![None; self.cold.len()];
        } else {
            self.restart_from_seed(rec)?;
            // After the daemon's threads exist: they are pinned too, and
            // connection threads inherit the mask from the accept thread.
            self.one_cpu = Some(OneCpu::pin());
        }
        Ok(())
    }

    fn rep(&mut self, rec: &mut Recorder) -> Result<Rep, String> {
        if self.mixed {
            self.rep_mixed(rec)
        } else {
            self.rep_warm(rec)
        }
    }

    fn checks(&mut self) -> Result<Vec<Check>, String> {
        let mut checks = Vec::new();
        let mut keys: Vec<(u64, HistoryKey)> = (0..self.history_keys.min(20))
            .map(|i| (i as u64, history_key(i * 7 % self.history_keys)))
            .collect();
        if self.mixed {
            // Cold keys asked again are history hits now; their decision
            // bytes must equal what the cold sweep answered.
            let cold: Vec<(u64, HistoryKey)> = (0..self.cold.len().min(20))
                .map(|j| (j as u64, self.cold[j].clone()))
                .collect();
            let warm = self.ask(&cold)?;
            let mut same = 0;
            for ((j, _), reply) in cold.iter().zip(&warm) {
                let first = self.cold_answers[*j as usize].as_deref();
                if first.is_some() && decision_bytes(reply).as_deref() == first {
                    same += 1;
                }
            }
            checks.push(Check::new(
                "warm_equals_cold_decision",
                same == cold.len(),
                format!("{same} of {} re-asked cold keys", cold.len()),
            ));
            keys.extend(cold);
        }
        // A daemon restarted from its checkpoint serves byte-identical
        // replies (graceful stop writes the final checkpoint).
        let before = self.ask(&keys)?;
        self.stop();
        let server = Server::spawn(self.config(), "127.0.0.1:0").map_err(|e| e.to_string())?;
        self.server = Some(server);
        let after = self.ask(&keys)?;
        let all_ok = before.iter().all(|r| r.contains("\"status\":\"ok\""));
        checks.push(Check::new(
            "restart_byte_identical",
            all_ok && before == after,
            format!("{} replies compared", keys.len()),
        ));
        self.stop();
        Ok(checks)
    }

    fn sizes(&self) -> Json {
        Json::obj([
            ("history_keys", Json::num(self.history_keys as f64)),
            ("ops_per_rep", Json::num(self.requests as f64)),
            (
                "loop",
                Json::str(if self.mixed {
                    format!("open, {MIXED_RATE} req/s over 2 connections")
                } else {
                    "closed, 1 client".to_string()
                }),
            ),
            ("cold_keys_per_rep", Json::num(self.cold.len() as f64)),
        ])
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.stop();
        self.one_cpu = None;
    }
}

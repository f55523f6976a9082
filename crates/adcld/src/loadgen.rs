//! Load generator for `adcld`: N concurrent clients over real TCP,
//! measuring requests/sec and p50/p99 latency per traffic phase.
//!
//! Closed loop by default: a client sends its next request when the
//! previous reply arrived, so a slow daemon is offered less load and a
//! reply that waits for the *next request* (Nagle against delayed ACK)
//! can never be seen. With a rate, the phase is open loop: lines leave on
//! a fixed schedule whatever the daemon does, latency runs from the time a
//! line was *due*, and how late the generator itself ran is reported. The
//! schedule is a Poisson process of that rate from a fixed seed — the same
//! instants every run, but bunched the way independent callers are: a
//! strictly periodic schedule puts two requests in flight on a connection
//! (which is what starts the lockstep) only when something stalls by luck.
//!
//! The standard scenario drives three phases against one daemon:
//!
//! * **cold** — every key is new; each query pays for a full sweep.
//! * **warm** — the same keys again, many times, from several clients:
//!   every answer must come from the history store (or at worst the memo
//!   replay cache) — the acceptance bar for the tuning service.
//! * **mixed** — 50/50 interleave of new and repeat keys.
//!
//! `adcld_bench` prints the result; the `benchmark/` ledger measures the
//! same daemon as `serve_warm` / `serve_mixed`.

use crate::protocol;
use crate::server::Server;
use crate::service::ServiceConfig;
use simcore::rng::SplitMix64;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Offered seconds of the warm phase when it runs open loop (the
/// closed-loop request count would be over in a few dozen milliseconds).
const OPEN_LOOP_WARM_SECS: f64 = 2.0;
/// Seed of the open-loop arrival schedule.
const SCHEDULE_SEED: u64 = 0x0ade_5c4e_d01e;

/// Measured outcome of one traffic phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name (`cold` / `warm` / `mixed`).
    pub name: &'static str,
    /// Client threads used.
    pub clients: usize,
    /// Requests issued.
    pub requests: usize,
    /// Wall-clock seconds for the whole phase.
    pub wall_secs: f64,
    /// Requests per second.
    pub rps: f64,
    /// Median request latency in microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency in microseconds.
    pub p99_us: u64,
    /// Responses tagged `history-hit`.
    pub history_hits: usize,
    /// Responses tagged `memo-replay`.
    pub memo_replays: usize,
    /// Responses tagged `fresh-sweep`.
    pub fresh_sweeps: usize,
    /// Responses tagged `guideline-flagged`.
    pub guideline_flagged: usize,
    /// Error responses.
    pub errors: usize,
    /// Open loop only: share of requests the generator sent more than one
    /// inter-arrival gap after they were due.
    pub late_share: f64,
    /// Open loop only: the latest any request left, in microseconds.
    pub late_max_us: u64,
}

impl PhaseReport {
    /// Responses that required no fresh simulation.
    pub fn warm_served(&self) -> usize {
        self.history_hits + self.memo_replays
    }
}

/// All phases of one load run.
#[derive(Debug, Clone)]
pub struct LoadSummary {
    /// Per-phase reports, in execution order.
    pub phases: Vec<PhaseReport>,
}

impl LoadSummary {
    /// Find a phase by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseReport> {
        self.phases.iter().find(|p| p.name == name)
    }
}

fn percentile(sorted_us: &[u64], pct: u64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as u64 * pct / 100) as usize;
    sorted_us[idx]
}

/// One reply as a client saw it.
struct Sample {
    /// Latency in microseconds (from the send, or open loop from the due time).
    us: u64,
    /// How late the request left (0 in a closed loop).
    late_us: u64,
    source: String,
}

struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    resp: String,
}

impl Connection {
    fn open(addr: SocketAddr) -> io::Result<Connection> {
        let writer = TcpStream::connect(addr)?;
        // A pipelining client must not let Nagle hold a request back.
        writer.set_nodelay(true)?;
        Ok(Connection {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            resp: String::new(),
        })
    }

    /// The next reply's `source` tag (`"error"` for an error reply).
    fn read_source(&mut self) -> io::Result<String> {
        self.resp.clear();
        if self.reader.read_line(&mut self.resp)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(simcore::json::parse(self.resp.trim())
            .ok()
            .and_then(|d| d.get("source").and_then(|s| s.as_str().map(str::to_string)))
            .unwrap_or_else(|| "error".to_string()))
    }

    /// Closed loop: each line (newline included) leaves when the previous
    /// reply arrived.
    fn closed_loop(mut self, lines: &[String]) -> io::Result<Vec<Sample>> {
        let mut out = Vec::with_capacity(lines.len());
        for line in lines {
            let sent = Instant::now();
            self.writer.write_all(line.as_bytes())?;
            let source = self.read_source()?;
            out.push(Sample {
                us: sent.elapsed().as_micros() as u64,
                late_us: 0,
                source,
            });
        }
        Ok(out)
    }

    /// Open loop: a sender thread writes line `i` at `epoch + due[i]`
    /// whatever the daemon does; this thread reads the replies in order.
    fn open_loop(
        mut self,
        lines: &[String],
        due: &[Duration],
        epoch: Instant,
    ) -> io::Result<Vec<Sample>> {
        let mut writer = self.writer.try_clone()?;
        std::thread::scope(|s| {
            let sender = s.spawn(move || -> io::Result<Vec<u64>> {
                let mut late_us = Vec::with_capacity(lines.len());
                for (line, &due) in lines.iter().zip(due) {
                    if let Some(wait) = due.checked_sub(epoch.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    late_us.push(epoch.elapsed().saturating_sub(due).as_micros() as u64);
                    writer.write_all(line.as_bytes())?;
                }
                Ok(late_us)
            });
            let mut out = Vec::with_capacity(lines.len());
            for &due in due {
                let source = self.read_source();
                let us = epoch.elapsed().saturating_sub(due).as_micros() as u64;
                match source {
                    Ok(source) => out.push(Sample {
                        us,
                        late_us: 0,
                        source,
                    }),
                    // Unblock a sender stuck on a full socket before joining it.
                    Err(e) => {
                        let _ = self.writer.shutdown(std::net::Shutdown::Both);
                        let _ = sender.join();
                        return Err(e);
                    }
                }
            }
            let late = sender
                .join()
                .map_err(|_| io::Error::other("load sender thread panicked"))??;
            for (sample, late_us) in out.iter_mut().zip(late) {
                sample.late_us = late_us;
            }
            Ok(out)
        })
    }
}

/// Run one phase: split `lines` round-robin over `clients` persistent
/// connections and aggregate latencies and `source` tags. Closed loop
/// when `rate` is `None`; otherwise the phase's lines are due at the
/// arrivals of a seeded Poisson process of `rate` per second (so each
/// connection sees one request every `clients / rate` seconds on average).
pub fn run_phase(
    addr: SocketAddr,
    name: &'static str,
    clients: usize,
    lines: &[String],
    rate: Option<f64>,
) -> io::Result<PhaseReport> {
    let clients = clients.clamp(1, lines.len().max(1));
    let mut shards: Vec<(Vec<String>, Vec<Duration>)> = vec![Default::default(); clients];
    let mut rng = SplitMix64::new(SCHEDULE_SEED);
    let mut due_secs = 0.0;
    for (k, line) in lines.iter().enumerate() {
        let (shard, due) = &mut shards[k % clients];
        shard.push(format!("{line}\n"));
        if let Some(rate) = rate {
            due.push(Duration::from_secs_f64(due_secs));
            due_secs -= (1.0 - rng.next_f64()).ln() / rate;
        }
    }
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for (shard, due) in shards {
        handles.push(std::thread::spawn(move || -> io::Result<Vec<Sample>> {
            let conn = Connection::open(addr)?;
            if rate.is_some() {
                conn.open_loop(&shard, &due, t0)
            } else {
                conn.closed_loop(&shard)
            }
        }));
    }
    let mut latencies = Vec::new();
    let mut late = 0usize;
    let mut report = PhaseReport {
        name,
        clients,
        requests: 0,
        wall_secs: 0.0,
        rps: 0.0,
        p50_us: 0,
        p99_us: 0,
        history_hits: 0,
        memo_replays: 0,
        fresh_sweeps: 0,
        guideline_flagged: 0,
        errors: 0,
        late_share: 0.0,
        late_max_us: 0,
    };
    let gap_us = rate.map_or(f64::INFINITY, |r| 1e6 / r);
    for h in handles {
        let rows = h
            .join()
            .map_err(|_| io::Error::other("load client thread panicked"))??;
        for Sample {
            us,
            late_us,
            source,
        } in rows
        {
            latencies.push(us);
            report.requests += 1;
            report.late_max_us = report.late_max_us.max(late_us);
            if late_us as f64 > gap_us {
                late += 1;
            }
            match source.as_str() {
                protocol::SOURCE_HISTORY_HIT => report.history_hits += 1,
                protocol::SOURCE_MEMO_REPLAY => report.memo_replays += 1,
                protocol::SOURCE_FRESH_SWEEP => report.fresh_sweeps += 1,
                protocol::SOURCE_GUIDELINE_FLAGGED => report.guideline_flagged += 1,
                _ => report.errors += 1,
            }
        }
    }
    report.wall_secs = t0.elapsed().as_secs_f64();
    report.late_share = late as f64 / report.requests.max(1) as f64;
    latencies.sort_unstable();
    report.p50_us = percentile(&latencies, 50);
    report.p99_us = percentile(&latencies, 99);
    report.rps = if report.wall_secs > 0.0 {
        report.requests as f64 / report.wall_secs
    } else {
        0.0
    };
    Ok(report)
}

fn keys(quick: bool) -> Vec<(usize, usize)> {
    let nprocs: &[usize] = if quick { &[4, 8] } else { &[4, 8, 16] };
    let msgs: &[usize] = if quick {
        &[1024, 4096, 16384, 65536]
    } else {
        &[1024, 4096, 16384, 65536, 262144, 1048576]
    };
    let mut out = Vec::new();
    for &np in nprocs {
        for &m in msgs {
            out.push((np, m));
        }
    }
    out
}

fn query_lines(keys: &[(usize, usize)], repeat: usize, id0: u64) -> Vec<String> {
    let mut lines = Vec::new();
    let mut id = id0;
    for _ in 0..repeat {
        for &(np, m) in keys {
            lines.push(protocol::render_query(id, "ialltoall", "whale", np, m));
            id += 1;
        }
    }
    lines
}

/// Drive the standard cold/warm/mixed scenario against a running daemon,
/// closed loop or (with a `rate` in requests/s) open loop.
pub fn standard_load(
    addr: SocketAddr,
    quick: bool,
    clients: usize,
    rate: Option<f64>,
) -> io::Result<LoadSummary> {
    let base = keys(quick);
    let warm_reps = match rate {
        Some(rate) => ((OPEN_LOOP_WARM_SECS * rate) as usize).div_ceil(base.len()),
        None if quick => 8,
        None => 24,
    };
    // Cold: every key once (each pays for a sweep).
    let cold = run_phase(addr, "cold", clients, &query_lines(&base, 1, 1_000), rate)?;
    // Warm: the same keys, repeated from every client — pure lookups.
    let warm = run_phase(
        addr,
        "warm",
        clients,
        &query_lines(&base, warm_reps, 10_000),
        rate,
    )?;
    // Mixed: interleave repeat keys with a disjoint set of new keys.
    let fresh: Vec<(usize, usize)> = base.iter().map(|&(np, m)| (np, m * 3)).collect();
    let mut mixed_lines = Vec::new();
    for (i, (old, new)) in query_lines(&base, 1, 20_000)
        .into_iter()
        .zip(query_lines(&fresh, 1, 30_000))
        .enumerate()
    {
        if i % 2 == 0 {
            mixed_lines.push(old);
            mixed_lines.push(new);
        } else {
            mixed_lines.push(new);
            mixed_lines.push(old);
        }
    }
    let mixed = run_phase(addr, "mixed", clients, &mixed_lines, rate)?;
    Ok(LoadSummary {
        phases: vec![cold, warm, mixed],
    })
}

/// Spawn an in-process daemon on an ephemeral port with a throwaway
/// history file, run [`standard_load`], and shut it down. Returns the
/// summary; the daemon's history file is removed afterwards.
pub fn bench_serve(
    quick: bool,
    jobs: usize,
    clients: usize,
    rate: Option<f64>,
) -> io::Result<LoadSummary> {
    let dir = std::env::temp_dir().join(format!("adcld-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let history = dir.join("bench_history.tsv");
    let _ = std::fs::remove_file(&history);
    let server = Server::spawn(
        ServiceConfig {
            jobs,
            history_path: Some(history.clone()),
            checkpoint_every: 16,
            ..ServiceConfig::default()
        },
        "127.0.0.1:0",
    )?;
    let addr = server.addr();
    let result = standard_load(addr, quick, clients, rate);
    server.shutdown();
    let _ = std::fs::remove_file(&history);
    let _ = std::fs::remove_dir(&dir);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_sorted_ranks() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 99), 7);
    }
}

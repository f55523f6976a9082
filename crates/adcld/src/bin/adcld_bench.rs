//! `adcld_bench` — load generator and one-shot client for `adcld`.
//!
//! Bench mode (default): spawn an in-process daemon and drive the
//! cold/warm/mixed scenario, printing requests/sec and p50/p99 latency
//! per phase. Exits non-zero if warm traffic required any fresh
//! simulation — repeat queries must be history/memo hits only.
//!
//! ```text
//! adcld_bench [--quick|--full] [--jobs N] [--clients N] [--rate R]
//! ```
//!
//! With `--rate R` every phase is open loop: the phase's lines leave at `R`
//! requests/s (round-robin over the clients) whatever the daemon does,
//! latency runs from the time a line was due, the warm phase is sized to
//! two seconds of offered load, and a `late` line per phase says how far
//! behind its schedule the generator itself ran. Closed-loop clients
//! cannot see a reply that waits for the next request; this can.
//!
//! Admission-gate mode (used by `scripts/verify.sh`): spawn an
//! in-process service, submit 8 *distinct* cold queries before reading
//! any response, and exit non-zero unless they were admitted to the
//! worker pool in at most 2 batched sweeps (`adcld.sweep_admissions`).
//!
//! ```text
//! adcld_bench --admission-gate [--jobs N]
//! ```
//!
//! Client mode: talk to a running daemon (used by `scripts/verify.sh`).
//!
//! ```text
//! adcld_bench --connect ADDR --query '{"id":1,"op":...}'   # one request
//! adcld_bench --connect ADDR --shutdown                    # stop daemon
//! ```

use adcld::loadgen;
use adcld::protocol;
use adcld::service::{Query, Service, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::exit;

/// The daemon's own latency histograms, all in microseconds:
/// `adcld.queue_wait_us` is admission latency (submit → pool admission),
/// `adcld.sweep_us` per-key compute time inside the admission,
/// `adcld.checkpoint_us` a whole checkpoint and `adcld.checkpoint_lock_us`
/// the part of it that held the lock every hit needs.
fn print_latency_split() {
    for name in [
        "adcld.queue_wait_us",
        "adcld.sweep_us",
        "adcld.checkpoint_us",
        "adcld.checkpoint_lock_us",
    ] {
        let h = simcore::metrics::histogram(name);
        println!(
            "{name}: count={} mean={:.1}us max={}us",
            h.count(),
            h.mean(),
            h.max()
        );
    }
}

/// Concurrent-cold admission gate: 8 distinct cold keys submitted
/// before any response is read must coalesce into at most 2 pool
/// admissions (a primer key absorbs the scheduler-wakeup race; the
/// remaining 8 queue up behind it and drain as one batch).
fn admission_gate(jobs: usize) {
    let svc = match Service::start(ServiceConfig {
        jobs,
        ..ServiceConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("adcld_bench: admission gate: {e}");
            exit(1);
        }
    };
    let query = |msg_bytes: usize| Query {
        op: "ialltoall".into(),
        platform: "whale".into(),
        nprocs: 4,
        msg_bytes,
    };
    // Primer (served to completion first, so the scheduler is idle), then
    // 8 distinct gate keys enqueued atomically via submit_batch: all 8
    // are cold-concurrent and must drain as one pool admission.
    if let Err(e) = svc.submit(&query(256)).recv().expect("primer response") {
        eprintln!("adcld_bench: admission gate primer failed: {}", e.message);
        exit(1);
    }
    let sizes = [512usize, 1024, 2048, 4096, 8192, 16384, 32768, 65536];
    let queries: Vec<Query> = sizes.iter().map(|&b| query(b)).collect();
    for rx in svc.submit_batch(&queries) {
        if let Err(e) = rx.recv().expect("one response per query") {
            eprintln!("adcld_bench: admission gate query failed: {}", e.message);
            exit(1);
        }
    }
    let delta = svc.stats().sweep_admissions;
    svc.shutdown(false);
    print_latency_split();
    // Primer included: one admission for it, at most one for the batch.
    if delta > 2 {
        eprintln!(
            "adcld_bench: FAIL: 8 distinct cold queries took {delta} pool admissions \
             (expected <= 2 including the primer)"
        );
        exit(1);
    }
    println!(
        "adcld_admission: 8 distinct cold queries admitted in {delta} pool admission(s) (<= 2) OK"
    );
}

fn one_shot(addr: &str, line: &str) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    let mut resp = String::new();
    reader.read_line(&mut resp)?;
    Ok(resp.trim_end().to_string())
}

fn main() {
    let mut quick = true;
    let mut jobs = 0usize;
    let mut clients = 4usize;
    let mut rate: Option<f64> = None;
    let mut connect: Option<String> = None;
    let mut query: Option<String> = None;
    let mut shutdown = false;
    let mut gate = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("adcld_bench: {flag} needs a value");
                exit(2);
            })
        };
        match a.as_str() {
            "--quick" => quick = true,
            "--full" => quick = false,
            "--jobs" => {
                jobs = value("--jobs").parse().unwrap_or_else(|_| {
                    eprintln!("adcld_bench: --jobs needs an integer");
                    exit(2);
                })
            }
            "--clients" => {
                clients = value("--clients").parse().unwrap_or_else(|_| {
                    eprintln!("adcld_bench: --clients needs an integer");
                    exit(2);
                })
            }
            "--rate" => {
                rate = match value("--rate").parse::<f64>() {
                    Ok(r) if r.is_finite() && r > 0.0 => Some(r),
                    _ => {
                        eprintln!("adcld_bench: --rate needs a positive number of requests/s");
                        exit(2);
                    }
                }
            }
            "--connect" => connect = Some(value("--connect")),
            "--query" => query = Some(value("--query")),
            "--shutdown" => shutdown = true,
            "--admission-gate" => gate = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: adcld_bench [--quick|--full] [--jobs N] [--clients N] [--rate R]\n\
                     \x20      adcld_bench --admission-gate [--jobs N]\n\
                     \x20      adcld_bench --connect ADDR (--query JSON | --shutdown)"
                );
                exit(2);
            }
            other => {
                eprintln!("adcld_bench: unknown argument {other:?}");
                exit(2);
            }
        }
    }

    if let Some(addr) = connect {
        let line = if shutdown {
            protocol::render_command("shutdown")
        } else if let Some(q) = query {
            q
        } else {
            eprintln!("adcld_bench: --connect needs --query or --shutdown");
            exit(2);
        };
        match one_shot(&addr, &line) {
            Ok(resp) => println!("{resp}"),
            Err(e) => {
                eprintln!("adcld_bench: {addr}: {e}");
                exit(1);
            }
        }
        return;
    }

    if gate {
        admission_gate(jobs);
        return;
    }

    let summary = match loadgen::bench_serve(quick, jobs, clients, rate) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("adcld_bench: {e}");
            exit(1);
        }
    };
    println!(
        "{:<7} {:>9} {:>10} {:>10} {:>10} {:>6} {:>6} {:>6} {:>5}",
        "phase", "requests", "req/s", "p50_us", "p99_us", "hist", "memo", "fresh", "err"
    );
    for p in &summary.phases {
        println!(
            "{:<7} {:>9} {:>10.1} {:>10} {:>10} {:>6} {:>6} {:>6} {:>5}",
            p.name,
            p.requests,
            p.rps,
            p.p50_us,
            p.p99_us,
            p.history_hits,
            p.memo_replays,
            p.fresh_sweeps + p.guideline_flagged,
            p.errors
        );
    }
    if let Some(rate) = rate {
        for p in &summary.phases {
            println!(
                "late {:<7} open loop at {rate} req/s: {:.1}% sent over one gap late, max {} us",
                p.name,
                100.0 * p.late_share,
                p.late_max_us
            );
        }
    }
    let warm = summary.phase("warm").expect("warm phase present");
    if warm.errors > 0 || warm.warm_served() != warm.requests {
        eprintln!(
            "adcld_bench: FAIL: warm traffic re-simulated {} of {} requests \
             (expected history/memo hits only)",
            warm.requests - warm.warm_served(),
            warm.requests
        );
        exit(1);
    }
    print_latency_split();
    println!(
        "adcld_serve: warm traffic served from history/memo only ({} requests)",
        warm.requests
    );
}

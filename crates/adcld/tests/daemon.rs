//! End-to-end tests for the `adcld` tuning daemon: protocol robustness,
//! in-flight query coalescing, and checkpoint/restart durability.

use adcl::history::{HistoryKey, HistoryStore};
use adcld::service::{Query, Service, ServiceConfig};
use adcld::Server;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// One persistent connection: send every line, collect one response per
/// line. The connection must survive the whole exchange.
fn send_lines(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut out = Vec::new();
    for line in lines {
        writer.write_all(line.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write");
        writer.flush().expect("flush");
        let mut resp = String::new();
        let n = reader.read_line(&mut resp).expect("read");
        assert!(n > 0, "daemon dropped the connection after {line:?}");
        out.push(resp.trim_end().to_string());
    }
    out
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adcld-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn malformed_lines_get_typed_errors_on_a_surviving_connection() {
    let server = Server::spawn(ServiceConfig::default(), "127.0.0.1:0").expect("spawn");
    let responses = send_lines(
        server.addr(),
        &[
            "garbage",
            "[1,2,3]",
            r#"{"op":"ibcast"}"#,
            r#"{"op":"ibcast","platform":"whale","nprocs":"many","msg_bytes":64}"#,
            r#"{"op":"warp","platform":"whale","nprocs":4,"msg_bytes":64}"#,
            r#"{"op":"ialltoall","platform":"whale","nprocs":4,"msg_bytes":1536}"#,
            r#"{"cmd":"ping"}"#,
        ],
    );
    let kinds: Vec<Option<String>> = responses
        .iter()
        .map(|r| {
            let doc = simcore::json::parse(r).expect("every response is valid JSON");
            doc.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|k| k.as_str().map(str::to_string))
        })
        .collect();
    assert_eq!(kinds[0].as_deref(), Some("parse"));
    assert_eq!(kinds[1].as_deref(), Some("parse"));
    assert_eq!(kinds[2].as_deref(), Some("bad-request"));
    assert_eq!(kinds[3].as_deref(), Some("bad-request"));
    assert_eq!(kinds[4].as_deref(), Some("bad-request"), "unknown op");
    // After all that abuse the same connection still serves real queries.
    let ok = simcore::json::parse(&responses[5]).unwrap();
    assert_eq!(ok.get("status").and_then(|v| v.as_str()), Some("ok"));
    assert!(ok.get("decision").is_some(), "{}", responses[5]);
    let pong = simcore::json::parse(&responses[6]).unwrap();
    assert_eq!(pong.get("pong"), Some(&simcore::json::Json::Bool(true)));
    server.shutdown();
}

#[test]
fn duplicate_concurrent_queries_coalesce_to_one_sweep() {
    let svc = Service::start(ServiceConfig::default()).expect("start");
    let query = Query {
        op: "ialltoall".into(),
        platform: "whale".into(),
        nprocs: 4,
        msg_bytes: 3072,
    };
    const N: usize = 8;
    let barrier = Arc::new(Barrier::new(N));
    let mut handles = Vec::new();
    for _ in 0..N {
        let svc = Arc::clone(&svc);
        let query = query.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            svc.submit(&query)
                .recv()
                .expect("response")
                .expect("served")
        }));
    }
    let served: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Exactly one sweep ran; everyone else coalesced onto it or hit the
    // freshly stored history entry — and all N decisions are identical.
    let stats = svc.stats();
    assert_eq!(
        stats.fresh_sweeps + stats.memo_replays,
        1,
        "duplicate queries must share one sweep: {stats:?}"
    );
    assert_eq!(
        stats.coalesced + stats.history_hits,
        (N - 1) as u64,
        "{stats:?}"
    );
    assert_eq!(stats.requests, N as u64);
    for s in &served[1..] {
        assert_eq!(s.decision, served[0].decision);
    }
    svc.shutdown(false);
}

#[test]
fn concurrent_distinct_cold_queries_share_few_pool_admissions() {
    let svc = Service::start(ServiceConfig::default()).expect("start");
    // Primer (served first, leaving the scheduler idle), then 8 distinct
    // cold keys enqueued atomically with submit_batch: one wakeup must
    // drain them into a single batched admission (at most two total).
    let query = |msg_bytes: usize| Query {
        op: "ialltoall".into(),
        platform: "whale".into(),
        nprocs: 4,
        msg_bytes,
    };
    svc.submit(&query(320))
        .recv()
        .expect("primer response")
        .expect("primer served");
    let sizes = [640usize, 1280, 1792, 2304, 2816, 3328, 3840, 4352];
    let queries: Vec<Query> = sizes.iter().map(|&b| query(b)).collect();
    for rx in svc.submit_batch(&queries) {
        rx.recv().expect("response").expect("served");
    }
    let stats = svc.stats();
    assert!(
        stats.sweep_admissions <= 2,
        "8 distinct cold queries must batch into <= 2 pool admissions: {stats:?}"
    );
    assert_eq!(
        stats.fresh_sweeps + stats.memo_replays,
        1 + sizes.len() as u64,
        "every distinct key still gets its own decision: {stats:?}"
    );
    svc.shutdown(false);
}

#[test]
fn kill_and_restart_resumes_from_checkpoint_with_byte_identical_responses() {
    let dir = tmp_dir("restart");
    let history = dir.join("history.tsv");
    let _ = std::fs::remove_file(&history);
    let cfg = || ServiceConfig {
        history_path: Some(history.clone()),
        checkpoint_every: 1, // checkpoint after every decision
        ..ServiceConfig::default()
    };
    let query = r#"{"id":41,"op":"ialltoall","platform":"whale","nprocs":4,"msg_bytes":2560}"#;

    let server_a = Server::spawn(cfg(), "127.0.0.1:0").expect("spawn A");
    let responses = send_lines(server_a.addr(), &[query, query]);
    let (cold, warm_a) = (&responses[0], &responses[1]);
    let source = |r: &str| {
        simcore::json::parse(r)
            .unwrap()
            .get("source")
            .and_then(|s| s.as_str().map(str::to_string))
    };
    assert_eq!(source(cold).as_deref(), Some("fresh-sweep"), "{cold}");
    assert_eq!(source(warm_a).as_deref(), Some("history-hit"), "{warm_a}");
    // Same decision whether swept or replayed from history.
    let decision = |r: &str| {
        simcore::json::parse(r)
            .unwrap()
            .get("decision")
            .cloned()
            .expect("decision present")
    };
    assert_eq!(decision(cold), decision(warm_a));
    // Simulated kill: no graceful final save — only the periodic
    // checkpoint (checkpoint_every = 1) persisted the decision.
    server_a.abort();
    assert!(history.exists(), "checkpoint file must exist after kill");

    let server_b = Server::spawn(cfg(), "127.0.0.1:0").expect("spawn B");
    assert_eq!(server_b.service().history_len(), 1, "warm start");
    let warm_b = &send_lines(server_b.addr(), &[query])[0];
    assert_eq!(
        warm_b, warm_a,
        "restarted daemon must serve the identical bytes"
    );
    server_b.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pipelined_requests_are_answered_in_order_with_closed_loop_bytes() {
    let dir = tmp_dir("pipeline");
    let spawn = |name: &str| {
        let history = dir.join(name);
        let _ = std::fs::remove_file(&history);
        Server::spawn(
            ServiceConfig {
                history_path: Some(history),
                checkpoint_every: 1, // the cold reply waits for a rename
                ..ServiceConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("spawn")
    };
    // One cold query, then 50 hits on it, ids 1..=51.
    let lines: Vec<String> = (1..=51)
        .map(|id| {
            format!(
                r#"{{"id":{id},"op":"ialltoall","platform":"whale","nprocs":4,"msg_bytes":4864}}"#
            )
        })
        .collect();
    // Decide the key once outside any daemon, so that both daemons below
    // replay it from the process-wide memo and tag it alike.
    let primer = Service::start(ServiceConfig::default()).expect("start");
    primer
        .submit(&Query {
            op: "ialltoall".into(),
            platform: "whale".into(),
            nprocs: 4,
            msg_bytes: 4864,
        })
        .recv()
        .expect("primer response")
        .expect("primer served");
    primer.shutdown(false);

    // Pipelined: every line written before the first reply is read.
    let server = spawn("pipelined.tsv");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    for line in &lines {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
    }
    let pipelined: Vec<String> = BufReader::new(stream)
        .lines()
        .take(lines.len())
        .map(|l| l.expect("read"))
        .collect();
    server.shutdown();

    // Closed loop against a fresh daemon: the reference bytes.
    let server = spawn("closed.tsv");
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let closed = send_lines(server.addr(), &refs);
    server.shutdown();

    assert_eq!(pipelined.len(), lines.len(), "a reply per request");
    for (n, (got, want)) in pipelined.iter().zip(&closed).enumerate() {
        assert_eq!(got, want, "reply {n} differs from the closed-loop reply");
        let doc = simcore::json::parse(got).expect("reply is JSON");
        assert_eq!(
            doc.get("id").and_then(|v| v.as_u64()),
            Some(n as u64 + 1),
            "replies out of request order: {got}"
        );
        let hit = doc.get("source").and_then(|s| s.as_str()) == Some("history-hit");
        assert_eq!(hit, n > 0, "only the first request sweeps: {got}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoints_under_fire_are_whole_ordered_and_hold_the_lock_briefly() {
    const SEEDED: usize = 20_000;
    const COLD: usize = 10;
    const HITTERS: usize = 3;
    let dir = tmp_dir("hammer");
    let history = dir.join("history.tsv");
    let key = |msg_bytes: usize| HistoryKey {
        op: "ialltoall".into(),
        platform: "whale".into(),
        nprocs: 4,
        msg_bytes,
    };
    let query = |msg_bytes: usize| Query {
        op: "ialltoall".into(),
        platform: "whale".into(),
        nprocs: 4,
        msg_bytes,
    };
    // Seeded keys have even sizes, cold keys odd ones.
    let mut expected = HistoryStore::new();
    expected.set_context("hammer").unwrap();
    for i in 0..SEEDED {
        expected
            .put_decision(key(2 * (i + 1)), "pairwise", 1e-3 + i as f64 / 7e6, 0.05)
            .unwrap();
    }
    expected.save(&history).unwrap();
    let svc = Service::start(ServiceConfig {
        history_path: Some(history.clone()),
        checkpoint_every: 1,
        context_override: Some("hammer".into()),
        ..ServiceConfig::default()
    })
    .expect("start");
    assert_eq!(svc.history_len(), SEEDED);

    let done = AtomicBool::new(false);
    let start = Barrier::new(HITTERS + 3);
    let cold_decisions = std::thread::scope(|s| {
        for t in 0..HITTERS {
            let (svc, done, start) = (&svc, &done, &start);
            s.spawn(move || {
                start.wait();
                let mut i = t;
                while !done.load(Ordering::Relaxed) {
                    i = (i + 7919) % SEEDED;
                    let served = svc.submit(&query(2 * (i + 1))).recv().unwrap().unwrap();
                    assert_eq!(served.source, "history-hit");
                    assert_eq!(served.decision.score, 1e-3 + i as f64 / 7e6);
                }
            });
        }
        s.spawn(|| {
            start.wait();
            while !done.load(Ordering::Relaxed) {
                assert!(svc.checkpoint(), "checkpoint failed");
            }
        });
        // Every load sees a whole file of a generation no older than the last.
        let loader = s.spawn(|| {
            start.wait();
            let (mut last_gen, mut last_len, mut loads) = (0, SEEDED, 0u32);
            while !done.load(Ordering::Relaxed) {
                let seen = HistoryStore::load(&history).expect("load");
                assert_eq!(seen.context(), "hammer");
                assert!(
                    seen.generation() >= last_gen && seen.len() >= last_len,
                    "file went back: gen {last_gen} -> {}, len {last_len} -> {}",
                    seen.generation(),
                    seen.len()
                );
                assert!(seen.len() <= SEEDED + COLD, "{} entries", seen.len());
                (last_gen, last_len) = (seen.generation(), seen.len());
                loads += 1;
            }
            loads
        });
        start.wait();
        let cold: Vec<_> = (0..COLD)
            .map(|j| {
                let served = svc.submit(&query(6145 + 2 * j)).recv().unwrap().unwrap();
                // At `checkpoint_every` 1 a cold reply follows its rename.
                let on_disk = HistoryStore::load(&history).expect("load");
                let e = on_disk
                    .get(&key(6145 + 2 * j))
                    .expect("answered before durable");
                assert_eq!(e.winner, served.decision.winner);
                served.decision
            })
            .collect();
        done.store(true, Ordering::Relaxed);
        assert!(loader.join().expect("loader") > 0, "loader never ran");
        cold
    });

    // The final file is the in-memory store: what was seeded plus what was
    // served, byte for byte below the generation line.
    svc.shutdown(true);
    for (j, d) in cold_decisions.iter().enumerate() {
        expected
            .put_decision(key(6145 + 2 * j), &d.winner, d.score, d.margin)
            .unwrap();
    }
    let body = |text: &str| -> String {
        text.lines()
            .filter(|l| !l.starts_with("# gen "))
            .map(|l| format!("{l}\n"))
            .collect()
    };
    let file = std::fs::read_to_string(&history).expect("read");
    assert_eq!(body(&file), body(&expected.to_string_repr()));

    // What a hit can be made to wait for is the state-lock hold inside a
    // checkpoint: the copy of 20 000 rendered lines, about 1 ms in release
    // (the old code held the lock through formatting and file write, 9 ms).
    // The bound is generous: this is a debug build on a shared host.
    let held = simcore::metrics::histogram("adcld.checkpoint_lock_us");
    let whole = simcore::metrics::histogram("adcld.checkpoint_us");
    println!(
        "adcld.checkpoint_lock_us: count {} mean {:.0} max {}; adcld.checkpoint_us: mean {:.0} max {}",
        held.count(),
        held.mean(),
        held.max(),
        whole.mean(),
        whole.max()
    );
    assert!(held.count() > COLD as u64);
    assert!(held.max() < 250_000, "a hit could wait {} us", held.max());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_command_stops_the_daemon_and_checkpoints() {
    let dir = tmp_dir("shutdown");
    let history = dir.join("history.tsv");
    let _ = std::fs::remove_file(&history);
    let server = Server::spawn(
        ServiceConfig {
            history_path: Some(history.clone()),
            checkpoint_every: 0, // only the shutdown checkpoint persists
            ..ServiceConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn");
    let responses = send_lines(
        server.addr(),
        &[
            r#"{"op":"ialltoall","platform":"whale","nprocs":4,"msg_bytes":3584}"#,
            r#"{"cmd":"stats"}"#,
            r#"{"cmd":"shutdown"}"#,
        ],
    );
    let stats = simcore::json::parse(&responses[1]).unwrap();
    assert_eq!(
        stats
            .get("stats")
            .and_then(|s| s.get("requests"))
            .and_then(|v| v.as_u64()),
        Some(1)
    );
    let ack = simcore::json::parse(&responses[2]).unwrap();
    assert_eq!(ack.get("shutdown"), Some(&simcore::json::Json::Bool(true)));
    server.wait(); // returns once the remote shutdown completes
    assert!(
        history.exists(),
        "graceful shutdown must write the final checkpoint"
    );
    let store = adcl::history::HistoryStore::load(&history).unwrap();
    assert_eq!(store.len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance bar for the tuning service: once every key has been
/// swept, repeat traffic is answered from the history store (or at worst
/// the memo) and never re-simulates.
#[test]
fn warm_traffic_never_resimulates() {
    let summary = adcld::loadgen::bench_serve(true, 2, 2, None).expect("bench_serve");
    let warm = summary.phase("warm").expect("warm phase present");
    assert!(warm.requests > 0);
    assert_eq!(warm.errors, 0);
    assert_eq!(warm.fresh_sweeps, 0);
    assert_eq!(warm.warm_served(), warm.requests);
}

/// The `faults` field of a tune request names the context the client
/// assumes. Runs have exactly one, `"off"`: a request naming it (or one of
/// its old spellings) is served the bytes an in-process service decides,
/// and a request naming any other is refused, never silently answered.
#[test]
fn faults_field_is_served_only_when_it_names_the_one_context() {
    let line = |faults: &str| {
        format!(
            r#"{{"id":7,"op":"ialltoall","platform":"whale","nprocs":4,"msg_bytes":41472{faults}}}"#
        )
    };
    let offline = Service::start(ServiceConfig::default()).expect("start");
    let decided = offline
        .submit(&Query {
            op: "ialltoall".into(),
            platform: "whale".into(),
            nprocs: 4,
            msg_bytes: 41472,
        })
        .recv()
        .expect("response")
        .expect("served");
    offline.shutdown(false);
    let id = simcore::json::Json::num(7.0);
    let hit = adcld::protocol::render_ok(&id, &decided.decision, "history-hit");

    let server = Server::spawn(ServiceConfig::default(), "127.0.0.1:0").expect("spawn");
    let served = [
        r#","faults":"off""#,
        r#","faults":"""#,
        r#","faults":"0""#,
        r#","faults":"false""#,
    ];
    let refused = [r#","faults":"light:1""#, r#","faults":"heavy""#];
    let lines: Vec<String> = std::iter::once("")
        .chain(served)
        .chain(refused)
        .map(line)
        .collect();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let replies = send_lines(server.addr(), &refs);
    server.shutdown();

    // The first request decides the key; every "off" spelling then hits it.
    let cold = simcore::json::parse(&replies[0]).expect("reply is JSON");
    let cold_source = cold.get("source").and_then(|s| s.as_str()).unwrap_or("");
    assert_eq!(
        replies[0],
        adcld::protocol::render_ok(&id, &decided.decision, cold_source),
        "no faults field"
    );
    for (reply, faults) in replies[1..=served.len()].iter().zip(served) {
        assert_eq!(reply, &hit, "{faults}");
    }
    for (reply, faults) in replies[served.len() + 1..].iter().zip(refused) {
        let doc = simcore::json::parse(reply).expect("reply is JSON");
        let error = doc.get("error").expect("refused");
        assert_eq!(
            error.get("kind").and_then(|k| k.as_str()),
            Some("bad-request"),
            "{faults}"
        );
        let message = error.get("message").and_then(|m| m.as_str()).unwrap_or("");
        assert!(
            message.contains("fault context mismatch"),
            "{faults}: {message}"
        );
    }
}

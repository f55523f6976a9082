//! Input limits of the `adcld` daemon. A file (so a process) of its own:
//! one test reads this process's resident set size, which the sweeps of
//! the other daemon tests would move by far more than the payload, so the
//! tests here also run one at a time.

use adcld::server::MAX_LINE_BYTES;
use adcld::service::ServiceConfig;
use adcld::Server;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;

/// Held for the whole of each test, so no other test's daemon moves the
/// resident set size one of them reads.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// Resident set size of this process in KiB (`None` off Linux).
fn rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let writer = TcpStream::connect(server.addr()).expect("connect");
        writer.set_nodelay(true).expect("nodelay");
        Client {
            reader: BufReader::new(writer.try_clone().expect("clone")),
            writer,
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        let mut reply = String::new();
        assert!(
            self.reader.read_line(&mut reply).expect("read") > 0,
            "daemon dropped a well-behaved connection"
        );
        reply
    }
}

#[test]
fn newline_free_megabyte_gets_one_typed_error_and_costs_no_memory() {
    const PAYLOAD: usize = 1 << 20;
    let _serial = one_at_a_time();
    let server = Server::spawn(ServiceConfig::default(), "127.0.0.1:0").expect("spawn");
    let query = r#"{"id":1,"op":"ialltoall","platform":"whale","nprocs":4,"msg_bytes":5376}"#;
    // The bystander connection decides its key (and so builds the
    // simulator's worlds) before memory is first read.
    let mut bystander = Client::connect(&server);
    assert!(bystander.roundtrip(query).contains(r#""status":"ok""#));
    // Exactly the cap before the newline is still a line: parsed (and
    // refused as JSON) on a connection that stays usable.
    let reply = bystander.roundtrip(&"y".repeat(MAX_LINE_BYTES));
    assert!(reply.contains(r#""kind":"parse""#), "{reply}");
    let payload = vec![b'x'; PAYLOAD];
    let before = rss_kib();

    let hostile = TcpStream::connect(server.addr()).expect("connect");
    let mut hostile_reader = BufReader::new(hostile.try_clone().expect("clone"));
    let hostile_writer = std::thread::spawn(move || {
        let mut hostile = hostile;
        // The daemon stops parsing after the cap but keeps discarding, so
        // the whole megabyte goes through.
        hostile.write_all(&payload).expect("write 1 MiB");
        hostile
    });
    // Served normally while the megabyte is in flight...
    assert!(bystander
        .roundtrip(query)
        .contains(r#""source":"history-hit""#));
    let mut reply = String::new();
    hostile_reader
        .read_line(&mut reply)
        .expect("read error reply");
    let doc = simcore::json::parse(reply.trim_end()).expect("reply is JSON");
    assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("error"));
    let kind = doc.get("error").and_then(|e| e.get("kind"));
    assert_eq!(kind.and_then(|k| k.as_str()), Some("too-large"), "{reply}");
    // ...exactly one reply, then the daemon's side is closed.
    let mut rest = Vec::new();
    hostile_reader.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "more than one reply: {rest:?}");
    let hostile = hostile_writer.join().expect("writer thread");
    let after = rss_kib();
    drop(hostile);

    // ...and afterwards.
    assert!(bystander.roundtrip(r#"{"cmd":"ping"}"#).contains("pong"));
    if let (Some(before), Some(after)) = (before, after) {
        let grown = after.saturating_sub(before) as usize * 1024;
        assert!(
            grown < PAYLOAD / 2,
            "daemon grew by {grown} bytes while reading a {PAYLOAD}-byte line \
             (cap {MAX_LINE_BYTES})"
        );
    }
    server.shutdown();
}

#[test]
fn deeply_nested_line_gets_one_typed_error_and_the_daemon_lives_on() {
    let _serial = one_at_a_time();
    let server = Server::spawn(ServiceConfig::default(), "127.0.0.1:0").expect("spawn");
    let mut bystander = Client::connect(&server);
    assert!(bystander.roundtrip(r#"{"cmd":"ping"}"#).contains("pong"));
    // Under the line cap, but nested far deeper than the parser's stack
    // could follow one level per frame.
    let line = "[".repeat(65_000);
    assert!(line.len() < MAX_LINE_BYTES);
    let mut hostile = Client::connect(&server);
    let reply = hostile.roundtrip(&line);
    let doc = simcore::json::parse(reply.trim_end()).expect("reply is JSON");
    assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("error"));
    let error = doc.get("error").expect("error object");
    assert_eq!(error.get("kind").and_then(|k| k.as_str()), Some("parse"));
    let message = error.get("message").and_then(|m| m.as_str()).unwrap();
    assert!(message.contains("nesting deeper than"), "{reply}");
    // The same connection, and everyone else's, is still served.
    assert!(hostile.roundtrip(r#"{"cmd":"ping"}"#).contains("pong"));
    assert!(bystander.roundtrip(r#"{"cmd":"ping"}"#).contains("pong"));
    server.shutdown();
}

//! TCP transport for the tuning service.
//!
//! One accept loop, one thread per connection, newline-delimited JSON in
//! both directions (see [`crate::protocol`]). A connection survives any
//! number of malformed lines — each maps to a typed error response — and
//! only closes when the client disconnects, the daemon stops, or a line
//! exceeds [`MAX_LINE_BYTES`] (one `too-large` error, then the daemon
//! stops listening to that client).
//!
//! What a reply waits for on this floor: nothing. Every accepted stream
//! has `TCP_NODELAY` set and every reply leaves as one `write` of reply
//! plus newline, so a reply is one segment sent at once; it never sits in
//! the kernel waiting for the ACK of the previous one (Nagle against the
//! client's delayed ACK costs a pipelining client one inter-arrival gap
//! per reply). Replies leave in request order per connection.
//!
//! Shutdown has two flavours: [`Server::shutdown`] (graceful: drains the
//! sweep queue, writes a final history checkpoint) and [`Server::abort`]
//! (test hook simulating a kill: stops without the final save, leaving
//! only what periodic checkpointing already wrote). A client can request
//! the graceful path remotely with `{"cmd":"shutdown"}`.

use crate::protocol::{self, Command, Request};
use crate::service::{Query, Served, Service, ServiceConfig};
use simcore::json::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Longest request line the daemon reads, newline excluded (the largest
/// legal request is about 200 bytes). A longer line is answered with one
/// `too-large` error and the connection is closed, so a newline-free
/// client cannot make the daemon buffer without bound.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

struct Shared {
    service: Arc<Service>,
    addr: SocketAddr,
    stop: AtomicBool,
    save_on_exit: AtomicBool,
}

impl Shared {
    /// First caller wins; stops the service (joining the scheduler) and
    /// unblocks the accept loop.
    fn initiate_shutdown(self: &Arc<Shared>) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.service
            .shutdown(self.save_on_exit.load(Ordering::SeqCst));
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running daemon: bound listener + accept thread + service.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

/// Cheap handle for observing a [`Server`] from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The underlying service (stats, history length, ...).
    pub fn service(&self) -> &Arc<Service> {
        &self.shared.service
    }
}

impl Server {
    /// Start the service and listen on `listen` (e.g. `"127.0.0.1:0"`
    /// for an ephemeral port).
    pub fn spawn(cfg: ServiceConfig, listen: &str) -> io::Result<Server> {
        let service = Service::start(cfg)?;
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service,
            addr,
            stop: AtomicBool::new(false),
            save_on_exit: AtomicBool::new(true),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("adcld-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let conn_shared = Arc::clone(&accept_shared);
                    let _ =
                        std::thread::Builder::new()
                            .name("adcld-conn".into())
                            .spawn(move || {
                                let _ = serve_connection(&conn_shared, stream);
                            });
                }
            })?;
        Ok(Server {
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The underlying service.
    pub fn service(&self) -> &Arc<Service> {
        &self.shared.service
    }

    /// A cloneable observer handle.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    fn stop_inner(&mut self, save: bool) {
        self.shared.save_on_exit.store(save, Ordering::SeqCst);
        self.shared.initiate_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Graceful stop: drain, final checkpoint, join.
    pub fn shutdown(mut self) {
        self.stop_inner(true);
    }

    /// Abortive stop (simulated kill): no final checkpoint — only what
    /// periodic checkpointing already persisted survives.
    pub fn abort(mut self) {
        self.stop_inner(false);
    }

    /// Block until the daemon stops (e.g. a client sent
    /// `{"cmd":"shutdown"}`).
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_inner(true);
        }
    }
}

/// Socket options of an accepted stream, and its two halves.
fn configure(stream: TcpStream) -> io::Result<(BufReader<TcpStream>, TcpStream)> {
    stream.set_nodelay(true)?;
    Ok((BufReader::new(stream.try_clone()?), stream))
}

fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    let (mut reader, mut writer) = configure(stream)?;
    // Both buffers live as long as the connection: no allocation per
    // request for the line, and reply + newline leave in one write.
    let mut line = String::new();
    let mut out = String::new();
    loop {
        line.clear();
        let mut capped = (&mut reader).take(MAX_LINE_BYTES as u64 + 1);
        let got = capped.read_line(&mut line);
        // The cap ran out before a newline did (a read error empties `line`).
        let too_large = capped.limit() == 0 && !line.ends_with('\n');
        out.clear();
        let shutdown = if too_large {
            out.push_str(&protocol::render_error(
                &Json::Null,
                "too-large",
                &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            ));
            false
        } else {
            if got? == 0 {
                break;
            }
            let request = line.trim();
            if request.is_empty() {
                continue;
            }
            let (reply, shutdown) = handle_line(shared, request);
            out.push_str(&reply);
            shutdown
        };
        out.push('\n');
        writer.write_all(out.as_bytes())?;
        if too_large {
            // Close our side, then discard what the client still sends: a
            // close with unread input would reset the connection and could
            // take the error reply with it.
            writer.shutdown(Shutdown::Write)?;
            io::copy(&mut reader, &mut io::sink())?;
            break;
        }
        if shutdown {
            shared.initiate_shutdown();
            break;
        }
    }
    Ok(())
}

/// Map one request line to one response line (and whether the daemon
/// should stop afterwards). Never panics.
fn handle_line(shared: &Arc<Shared>, line: &str) -> (String, bool) {
    let svc = &shared.service;
    match protocol::parse_request(line) {
        Err(e) => (protocol::render_error(&e.id, e.kind, &e.message), false),
        Ok(Request::Command { id, cmd }) => match cmd {
            Command::Ping => (
                protocol::render_ack(&id, [("pong", Json::Bool(true))]),
                false,
            ),
            Command::Stats => {
                let s = svc.stats();
                let stats = Json::obj([
                    ("coalesced", Json::num(s.coalesced as f64)),
                    ("context", Json::str(svc.context())),
                    ("errors", Json::num(s.errors as f64)),
                    ("fresh_sweeps", Json::num(s.fresh_sweeps as f64)),
                    ("guideline_flagged", Json::num(s.guideline_flagged as f64)),
                    ("history_hits", Json::num(s.history_hits as f64)),
                    ("history_len", Json::num(svc.history_len() as f64)),
                    ("memo_replays", Json::num(s.memo_replays as f64)),
                    ("requests", Json::num(s.requests as f64)),
                    ("sweep_admissions", Json::num(s.sweep_admissions as f64)),
                ]);
                (protocol::render_ack(&id, [("stats", stats)]), false)
            }
            Command::Checkpoint => {
                let written = svc.checkpoint();
                (
                    protocol::render_ack(&id, [("checkpointed", Json::Bool(written))]),
                    false,
                )
            }
            Command::Shutdown => (
                protocol::render_ack(&id, [("shutdown", Json::Bool(true))]),
                true,
            ),
        },
        Ok(Request::Tune {
            id,
            op,
            platform,
            nprocs,
            msg_bytes,
            faults,
        }) => {
            if let Some(spec) = faults {
                // Every spelling of "no faults" names the one context runs
                // have; anything else assumes physics the daemon lacks.
                let theirs = match spec.trim() {
                    "" | "0" | "false" => "off",
                    s => s,
                };
                if theirs != svc.context() {
                    return (
                        protocol::render_error(
                            &id,
                            "bad-request",
                            &format!(
                                "fault context mismatch: daemon serves {:?}, request assumes {:?}",
                                svc.context(),
                                theirs
                            ),
                        ),
                        false,
                    );
                }
            }
            let rx = svc.submit(&Query {
                op,
                platform,
                nprocs,
                msg_bytes,
            });
            match rx.recv() {
                Ok(Ok(Served { decision, source })) => {
                    (protocol::render_ok(&id, &decision, source), false)
                }
                Ok(Err(e)) => (protocol::render_error(&id, e.kind, &e.message), false),
                Err(_) => (
                    protocol::render_error(&id, "internal", "scheduler unavailable"),
                    false,
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_streams_have_nodelay_set() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let _client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        assert!(!accepted.nodelay().expect("getsockopt"), "kernel default");
        let (reader, writer) = configure(accepted).expect("configure");
        assert!(writer.nodelay().expect("getsockopt"));
        assert!(reader.get_ref().nodelay().expect("getsockopt"));
    }
}

//! The `adcld` wire format: one JSON object per line, both directions.
//!
//! Requests are either tuning queries
//!
//! ```text
//! {"id":1,"op":"ialltoall","platform":"whale","nprocs":8,"msg_bytes":4096}
//! ```
//!
//! or control commands (`{"cmd":"ping"}`, `stats`, `checkpoint`,
//! `shutdown`). Responses echo the request `id` verbatim and are rendered
//! through [`simcore::json::Json::render`], which is deterministic (object
//! keys sort, `f64`s use shortest-round-trip formatting), so the *same
//! decision always serializes to the same bytes* — the property the
//! restart-identity gate in `scripts/verify.sh` checks.
//!
//! Malformed input never kills a connection: every parse or validation
//! failure maps to a typed error response
//!
//! ```text
//! {"error":{"kind":"parse","message":"..."},"id":null,"status":"error"}
//! ```
//!
//! with `kind` ∈ {`parse`, `bad-request`, `unmeasurable`, `internal`,
//! `shutting-down`}. The one exception is a line longer than
//! [`crate::server::MAX_LINE_BYTES`]: it is answered with kind `too-large`
//! and the connection is closed.

use simcore::json::{self, Json};

/// `source` tag: answered from the persistent history store.
pub const SOURCE_HISTORY_HIT: &str = "history-hit";
/// `source` tag: sweep ran but every point replayed from `adcl::simmemo`.
pub const SOURCE_MEMO_REPLAY: &str = "memo-replay";
/// `source` tag: at least one point was freshly simulated.
pub const SOURCE_FRESH_SWEEP: &str = "fresh-sweep";
/// `source` tag: fresh sweep whose winner a guideline probe found
/// dominated by more than `adcl::guidelines::FLAG_TOLERANCE`.
pub const SOURCE_GUIDELINE_FLAGGED: &str = "guideline-flagged";

/// A served tuning decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Winning implementation name.
    pub winner: String,
    /// The winner's total time in seconds.
    pub score: f64,
    /// Relative gap to the runner-up, `(second - best) / best`
    /// (`0.0` for single-candidate sets or unmeasured runner-ups).
    pub margin: f64,
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A tuning query.
    Tune {
        /// Client correlation id, echoed verbatim (Null if absent).
        id: Json,
        /// Operation name (`autonbc::driver::CollectiveOp::name`).
        op: String,
        /// Platform preset name.
        platform: String,
        /// Number of processes.
        nprocs: usize,
        /// Message size in bytes.
        msg_bytes: usize,
        /// Optional context the client assumes (`"off"`, the only one runs
        /// have); a request naming any other is refused.
        faults: Option<String>,
    },
    /// A control command.
    Command {
        /// Client correlation id, echoed verbatim.
        id: Json,
        /// The command.
        cmd: Command,
    },
}

/// Control commands a client can issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Liveness check.
    Ping,
    /// Service counters snapshot.
    Stats,
    /// Force a history checkpoint now.
    Checkpoint,
    /// Graceful daemon shutdown (checkpoints first).
    Shutdown,
}

/// A typed request failure (becomes an `"status":"error"` response).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// Echoed correlation id (Null when the line did not even parse).
    pub id: Json,
    /// Error class: `"parse"` or `"bad-request"`.
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    fn parse(message: impl Into<String>) -> RequestError {
        RequestError {
            id: Json::Null,
            kind: "parse",
            message: message.into(),
        }
    }

    fn bad(id: Json, message: impl Into<String>) -> RequestError {
        RequestError {
            id,
            kind: "bad-request",
            message: message.into(),
        }
    }
}

fn usize_field(obj: &Json, id: &Json, key: &str) -> Result<usize, RequestError> {
    let v = obj
        .get(key)
        .ok_or_else(|| RequestError::bad(id.clone(), format!("missing field {key:?}")))?;
    let n = v
        .as_f64()
        .ok_or_else(|| RequestError::bad(id.clone(), format!("field {key:?} must be a number")))?;
    if !(n.is_finite() && n >= 1.0 && n.fract() == 0.0 && n <= (1u64 << 53) as f64) {
        return Err(RequestError::bad(
            id.clone(),
            format!("field {key:?} must be a positive integer"),
        ));
    }
    Ok(n as usize)
}

fn str_field(obj: &Json, id: &Json, key: &str) -> Result<String, RequestError> {
    obj.get(key)
        .ok_or_else(|| RequestError::bad(id.clone(), format!("missing field {key:?}")))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| RequestError::bad(id.clone(), format!("field {key:?} must be a string")))
}

/// Parse one request line. Never panics: anything that is not a valid
/// request comes back as a typed [`RequestError`].
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let doc = json::parse(line).map_err(|e| RequestError::parse(e.to_string()))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(RequestError::parse("request must be a JSON object"));
    }
    let id = doc.get("id").cloned().unwrap_or(Json::Null);
    if let Some(cmd) = doc.get("cmd") {
        let Some(name) = cmd.as_str() else {
            return Err(RequestError::bad(id, "field \"cmd\" must be a string"));
        };
        let cmd = match name {
            "ping" => Command::Ping,
            "stats" => Command::Stats,
            "checkpoint" => Command::Checkpoint,
            "shutdown" => Command::Shutdown,
            other => {
                return Err(RequestError::bad(id, format!("unknown command {other:?}")));
            }
        };
        return Ok(Request::Command { id, cmd });
    }
    let op = str_field(&doc, &id, "op")?;
    let platform = str_field(&doc, &id, "platform")?;
    let nprocs = usize_field(&doc, &id, "nprocs")?;
    let msg_bytes = usize_field(&doc, &id, "msg_bytes")?;
    let faults =
        match doc.get("faults") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_str().map(str::to_string).ok_or_else(|| {
                RequestError::bad(id.clone(), "field \"faults\" must be a string")
            })?),
        };
    Ok(Request::Tune {
        id,
        op,
        platform,
        nprocs,
        msg_bytes,
        faults,
    })
}

/// Render a successful tuning response.
pub fn render_ok(id: &Json, decision: &Decision, source: &str) -> String {
    Json::obj([
        (
            "decision",
            Json::obj([
                ("margin", Json::num(decision.margin)),
                ("score", Json::num(decision.score)),
                ("winner", Json::str(decision.winner.clone())),
            ]),
        ),
        ("id", id.clone()),
        ("source", Json::str(source)),
        ("status", Json::str("ok")),
    ])
    .render()
}

/// Render a typed error response.
pub fn render_error(id: &Json, kind: &str, message: &str) -> String {
    Json::obj([
        (
            "error",
            Json::obj([("kind", Json::str(kind)), ("message", Json::str(message))]),
        ),
        ("id", id.clone()),
        ("status", Json::str("error")),
    ])
    .render()
}

/// Render a command acknowledgement carrying extra fields.
pub fn render_ack(id: &Json, extra: impl IntoIterator<Item = (&'static str, Json)>) -> String {
    let mut pairs: Vec<(&'static str, Json)> =
        vec![("id", id.clone()), ("status", Json::str("ok"))];
    pairs.extend(extra);
    Json::obj(pairs).render()
}

/// Render a tuning query line (client side).
pub fn render_query(id: u64, op: &str, platform: &str, nprocs: usize, msg_bytes: usize) -> String {
    Json::obj([
        ("id", Json::num(id as f64)),
        ("msg_bytes", Json::num(msg_bytes as f64)),
        ("nprocs", Json::num(nprocs as f64)),
        ("op", Json::str(op)),
        ("platform", Json::str(platform)),
    ])
    .render()
}

/// Render a command line (client side).
pub fn render_command(cmd: &str) -> String {
    Json::obj([("cmd", Json::str(cmd))]).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_tune_request() {
        let r = parse_request(
            r#"{"id":7,"op":"ialltoall","platform":"whale","nprocs":8,"msg_bytes":4096}"#,
        )
        .unwrap();
        match r {
            Request::Tune {
                id,
                op,
                platform,
                nprocs,
                msg_bytes,
                faults,
            } => {
                assert_eq!(id, Json::Num(7.0));
                assert_eq!(op, "ialltoall");
                assert_eq!(platform, "whale");
                assert_eq!(nprocs, 8);
                assert_eq!(msg_bytes, 4096);
                assert_eq!(faults, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_commands() {
        for (name, want) in [
            ("ping", Command::Ping),
            ("stats", Command::Stats),
            ("checkpoint", Command::Checkpoint),
            ("shutdown", Command::Shutdown),
        ] {
            let r = parse_request(&format!("{{\"cmd\":\"{name}\"}}")).unwrap();
            assert_eq!(
                r,
                Request::Command {
                    id: Json::Null,
                    cmd: want
                }
            );
        }
    }

    #[test]
    fn malformed_lines_become_typed_errors() {
        // Invalid JSON → parse.
        for line in ["", "not json", "{", "[1,2", "\"just a string"] {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.kind, "parse", "line {line:?}");
        }
        // Valid JSON, wrong shape → parse (non-objects) or bad-request.
        assert_eq!(parse_request("42").unwrap_err().kind, "parse");
        assert_eq!(parse_request("[1,2]").unwrap_err().kind, "parse");
        for line in [
            r#"{"op":"ibcast"}"#,
            r#"{"op":"ibcast","platform":"whale","nprocs":"eight","msg_bytes":64}"#,
            r#"{"op":"ibcast","platform":"whale","nprocs":0,"msg_bytes":64}"#,
            r#"{"op":"ibcast","platform":"whale","nprocs":1.5,"msg_bytes":64}"#,
            r#"{"op":"ibcast","platform":"whale","nprocs":-4,"msg_bytes":64}"#,
            r#"{"cmd":"reboot"}"#,
            r#"{"cmd":3}"#,
        ] {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.kind, "bad-request", "line {line:?}");
        }
        // The id is echoed when the envelope was readable.
        let e = parse_request(r#"{"id":"x9","op":"ibcast"}"#).unwrap_err();
        assert_eq!(e.id, Json::Str("x9".into()));
    }

    #[test]
    fn responses_are_deterministic_and_parse_back() {
        let d = Decision {
            winner: "pairwise".into(),
            score: 2.5e-4 * std::f64::consts::PI,
            margin: 0.125,
        };
        let id = Json::Num(3.0);
        let a = render_ok(&id, &d, SOURCE_FRESH_SWEEP);
        let b = render_ok(&id, &d, SOURCE_FRESH_SWEEP);
        assert_eq!(a, b, "rendering must be deterministic");
        let doc = json::parse(&a).unwrap();
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("ok"));
        let dec = doc.get("decision").unwrap();
        assert_eq!(
            dec.get("score").and_then(|v| v.as_f64()).map(f64::to_bits),
            Some(d.score.to_bits()),
            "score must round-trip bit-exactly"
        );
        let e = render_error(&Json::Null, "parse", "nope");
        let doc = json::parse(&e).unwrap();
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("error"));
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|v| v.as_str()),
            Some("parse")
        );
    }

    #[test]
    fn query_lines_round_trip() {
        let line = render_query(9, "ibcast", "crill", 16, 65536);
        match parse_request(&line).unwrap() {
            Request::Tune {
                op,
                platform,
                nprocs,
                msg_bytes,
                ..
            } => {
                assert_eq!((op.as_str(), platform.as_str()), ("ibcast", "crill"));
                assert_eq!((nprocs, msg_bytes), (16, 65536));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

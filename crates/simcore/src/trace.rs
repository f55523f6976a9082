//! Deterministic span/instant event recorder for the simulation engine.
//!
//! When enabled (`NBC_TRACE` or [`set_enabled`]), the simulator and the NBC
//! executor record spans (named intervals) and instant events stamped with
//! **simulated** time plus rank attribution, buffered per rank inside each
//! `World` and published to a process-wide collector when the run finishes.
//! The collected timeline renders as Chrome `trace_event` JSON (the format
//! Perfetto and `chrome://tracing` open directly): each simulation run
//! becomes one "process" (pid) and each rank one "thread" (tid).
//!
//! Determinism and zero overhead when off are the two hard guarantees:
//!
//! * Events carry only simulated time — recording them never advances the
//!   clock, takes no locks on the hot path (buffers are world-local), and
//!   figure outputs are byte-identical with tracing on or off.
//! * With `NBC_TRACE` unset every instrumentation site reduces to one load
//!   of a cached boolean (`Option::is_none` on the world's buffer); the
//!   environment is read once per process.
//!
//! Volume control: a single microbenchmark at `num_progress = 1000` emits
//! millions of library-call spans, so each world truncates its buffers at
//! [`world_event_cap`] events split evenly across ranks (dropping each
//! rank's tail, counting the drops) and the global collector stops
//! accepting whole runs past a fixed budget — better a truncated trace
//! than an OOM on a 512-rank sweep. The cap is enforced *per rank* rather
//! than per world so the keep/drop decision for an event depends only on
//! that rank's own history, not on how ranks interleave.

use crate::time::SimTime;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Env var controlling tracing: unset/`""`/`"0"`/`"off"`/`"false"` disable;
/// `"1"`/`"on"`/`"true"` enable without choosing an output path; any other
/// value enables *and* names the output file.
pub const ENV_VAR: &str = "NBC_TRACE";

/// Env var overriding the per-world event cap (default [`DEFAULT_WORLD_CAP`]).
pub const CAP_ENV_VAR: &str = "NBC_TRACE_CAP";

/// Default cap on events buffered by one world (across all ranks).
pub const DEFAULT_WORLD_CAP: usize = 1_000_000;

/// Cap on events held by the global collector; runs arriving after the
/// budget is spent are dropped whole (and counted).
pub const GLOBAL_EVENT_CAP: u64 = 8_000_000;

// 0 = follow the environment, 1 = forced off, 2 = forced on.
static ENABLED_OVERRIDE: AtomicU8 = AtomicU8::new(0);
static ENABLED_ENV: OnceLock<bool> = OnceLock::new();
static ENV_PATH: OnceLock<Option<String>> = OnceLock::new();

fn env_value() -> Option<String> {
    std::env::var(ENV_VAR).ok().filter(|v| !v.is_empty())
}

fn env_enabled() -> bool {
    *ENABLED_ENV
        .get_or_init(|| env_value().is_some_and(|v| !matches!(v.as_str(), "0" | "off" | "false")))
}

fn env_path() -> Option<&'static str> {
    ENV_PATH
        .get_or_init(|| {
            env_value()
                .filter(|v| !matches!(v.as_str(), "0" | "off" | "false" | "1" | "on" | "true"))
        })
        .as_deref()
}

/// Is tracing enabled? One relaxed atomic load plus (after first use) one
/// `OnceLock` read — the only cost instrumentation pays when off.
#[inline]
pub fn enabled() -> bool {
    match ENABLED_OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => env_enabled(),
    }
}

/// Force tracing on or off, overriding `NBC_TRACE` (tests, `--trace-out`).
pub fn set_enabled(on: bool) {
    ENABLED_OVERRIDE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Drop the [`set_enabled`] override and follow the environment again.
pub fn clear_enabled_override() {
    ENABLED_OVERRIDE.store(0, Ordering::Relaxed);
}

fn out_path_override() -> &'static Mutex<Option<String>> {
    static P: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    P.get_or_init(|| Mutex::new(None))
}

/// Set the trace output path programmatically (the `--trace-out` flag) and
/// enable tracing. Takes precedence over a path given via `NBC_TRACE`.
pub fn set_out_path(path: &str) {
    *out_path_override().lock().unwrap() = Some(path.to_string());
    set_enabled(true);
}

/// Where to write the combined trace, if anywhere: the [`set_out_path`]
/// override, else a path-valued `NBC_TRACE`.
pub fn out_path() -> Option<String> {
    if let Some(p) = out_path_override().lock().unwrap().clone() {
        return Some(p);
    }
    env_path().map(str::to_string)
}

/// Per-world event cap (`NBC_TRACE_CAP`, default [`DEFAULT_WORLD_CAP`]).
pub fn world_event_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var(CAP_ENV_VAR)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_WORLD_CAP)
    })
}

/// One recorded event. Spans have a duration; instants don't. The two arg
/// slots hold small numeric attributes (an empty key marks an unused slot);
/// names and keys are `&'static str` so recording never allocates per event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Event name (e.g. `"compute"`, `"rdv_stall"`).
    pub name: &'static str,
    /// Category, used by trace viewers to group/filter (e.g. `"msg"`).
    pub cat: &'static str,
    /// Start time (spans) or the instant itself.
    pub ts: SimTime,
    /// Span duration; `None` makes this an instant event.
    pub dur: Option<SimTime>,
    /// Up to two numeric attributes; an empty key means the slot is unused.
    pub args: [(&'static str, u64); 2],
}

/// No attributes, for the common case.
pub const NO_ARGS: [(&str, u64); 2] = [("", 0), ("", 0)];

/// The timeline of one simulation run: per-rank event buffers plus a label
/// naming the run (platform/op/config) for the trace viewer.
#[derive(Debug)]
pub struct WorldTrace {
    /// Human-readable run label, shown as the Perfetto process name.
    pub label: String,
    /// Events per rank, in recording order.
    pub ranks: Vec<Vec<Event>>,
    /// Events dropped after a rank's share of the cap was hit.
    pub dropped: u64,
    events: usize,
    rank_cap: usize,
}

impl WorldTrace {
    /// Fresh empty trace for `nranks` ranks. The per-world event budget
    /// ([`world_event_cap`]) is divided evenly into per-rank caps.
    pub fn new(nranks: usize) -> WorldTrace {
        WorldTrace {
            label: String::new(),
            ranks: vec![Vec::new(); nranks],
            dropped: 0,
            events: 0,
            rank_cap: (world_event_cap() / nranks.max(1)).max(1),
        }
    }

    /// Record a span `[start, end)` on `rank`. `end < start` is clamped to
    /// a zero-length span at `start`.
    ///
    /// Kept out of line (like [`WorldTrace::instant`]) so the simulator's
    /// hot functions, whose instrumentation sites are dead branches when
    /// tracing is off, don't grow by the inlined recording body.
    #[inline(never)]
    pub fn span(
        &mut self,
        rank: usize,
        name: &'static str,
        cat: &'static str,
        start: SimTime,
        end: SimTime,
        args: [(&'static str, u64); 2],
    ) {
        self.push(
            rank,
            Event {
                name,
                cat,
                ts: start,
                dur: Some(end.saturating_sub(start)),
                args,
            },
        );
    }

    /// Record an instant event on `rank` at `ts`.
    #[inline(never)]
    pub fn instant(
        &mut self,
        rank: usize,
        name: &'static str,
        cat: &'static str,
        ts: SimTime,
        args: [(&'static str, u64); 2],
    ) {
        self.push(
            rank,
            Event {
                name,
                cat,
                ts,
                dur: None,
                args,
            },
        );
    }

    #[inline]
    fn push(&mut self, rank: usize, ev: Event) {
        if self.ranks[rank].len() >= self.rank_cap {
            self.dropped += 1;
            return;
        }
        self.events += 1;
        self.ranks[rank].push(ev);
    }

    /// Total events recorded (across ranks).
    pub fn len(&self) -> usize {
        self.events
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }
}

static COLLECTED_EVENTS: AtomicU64 = AtomicU64::new(0);
static DROPPED_RUNS: AtomicU64 = AtomicU64::new(0);

fn collector() -> &'static Mutex<Vec<WorldTrace>> {
    static C: OnceLock<Mutex<Vec<WorldTrace>>> = OnceLock::new();
    C.get_or_init(|| Mutex::new(Vec::new()))
}

/// Publish a finished world's trace to the global collector. Runs arriving
/// after [`GLOBAL_EVENT_CAP`] total events are dropped whole (and counted)
/// to bound memory on huge sweeps. Publish order — and therefore pid
/// assignment in the export — follows run *completion* order, which is
/// deterministic for serial runs; under `--jobs N` the per-run content is
/// still deterministic but the pid numbering may vary.
pub fn publish(trace: WorldTrace) {
    if trace.is_empty() {
        return;
    }
    let n = trace.len() as u64;
    if COLLECTED_EVENTS.fetch_add(n, Ordering::Relaxed) + n > GLOBAL_EVENT_CAP {
        COLLECTED_EVENTS.fetch_sub(n, Ordering::Relaxed);
        DROPPED_RUNS.fetch_add(1, Ordering::Relaxed);
        return;
    }
    collector().lock().unwrap().push(trace);
}

/// Remove and return everything collected so far (the writer calls this
/// once at exit; tests use it for isolation).
pub fn take_all() -> Vec<WorldTrace> {
    COLLECTED_EVENTS.store(0, Ordering::Relaxed);
    std::mem::take(&mut *collector().lock().unwrap())
}

/// Number of runs dropped whole because the collector was full.
pub fn dropped_runs() -> u64 {
    DROPPED_RUNS.load(Ordering::Relaxed)
}

/// Number of published (collected) runs currently held.
pub fn collected_runs() -> usize {
    collector().lock().unwrap().len()
}

fn push_ts(out: &mut String, t: SimTime) {
    // Chrome trace timestamps are microseconds; keep nanosecond precision
    // with three decimals. Integer formatting keeps this exact.
    let ns = t.as_nanos();
    out.push_str(&format!("{}.{:03}", ns / 1_000, ns % 1_000));
}

fn push_event_json(out: &mut String, pid: usize, tid: usize, ev: &Event) {
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":",
        ev.name, ev.cat, pid, tid
    ));
    push_ts(out, ev.ts);
    match ev.dur {
        Some(d) => {
            out.push_str(",\"ph\":\"X\",\"dur\":");
            push_ts(out, d);
        }
        None => out.push_str(",\"ph\":\"i\",\"s\":\"t\""),
    }
    let args: Vec<String> = ev
        .args
        .iter()
        .filter(|(k, _)| !k.is_empty())
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    if !args.is_empty() {
        out.push_str(",\"args\":{");
        out.push_str(&args.join(","));
        out.push('}');
    }
    out.push('}');
}

/// Escape `s` for embedding inside a JSON string literal (quotes,
/// backslashes, and control characters). Shared by every hand-written JSON
/// emitter in the workspace that deals with dynamic strings.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render collected traces as the *contents* of a Chrome `traceEvents`
/// array (one event object per line, comma-separated). Each trace becomes
/// one pid (1-based, in `traces` order) with a `process_name` metadata
/// record carrying its label; each rank is a tid.
pub fn render_trace_events(traces: &[WorldTrace]) -> String {
    let mut out = String::new();
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
    };
    for (i, t) in traces.iter().enumerate() {
        let pid = i + 1;
        sep(&mut out);
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            pid,
            escape(if t.label.is_empty() { "run" } else { &t.label })
        ));
        for (tid, evs) in t.ranks.iter().enumerate() {
            for ev in evs {
                sep(&mut out);
                push_event_json(&mut out, pid, tid, ev);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_without_env() {
        // The test runner may set NBC_TRACE; exercise the override paths.
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        clear_enabled_override();
    }

    #[test]
    fn world_trace_caps_and_counts() {
        let mut t = WorldTrace::new(2);
        t.rank_cap = 2;
        // Ranks receive 3 (rank 0) and 2 (rank 1) events; rank 0's third is
        // dropped by its per-rank cap, independent of rank 1's history.
        for i in 0..5u64 {
            t.instant(
                (i % 2) as usize,
                "tick",
                "test",
                SimTime::from_nanos(i),
                NO_ARGS,
            );
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped, 1);
        assert_eq!(t.ranks[0].len(), 2);
        assert_eq!(t.ranks[1].len(), 2);
    }

    #[test]
    fn render_emits_spans_and_instants() {
        let mut t = WorldTrace::new(1);
        t.label = "unit \"test\"".to_string();
        t.span(
            0,
            "compute",
            "rank",
            SimTime::from_nanos(1500),
            SimTime::from_micros(3),
            [("bytes", 64), ("", 0)],
        );
        t.instant(0, "poll", "prog", SimTime::from_nanos(10), NO_ARGS);
        let s = render_trace_events(&[t]);
        assert!(s.contains("\"ph\":\"M\""));
        assert!(s.contains("unit \\\"test\\\""));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"ts\":1.500"));
        assert!(s.contains("\"dur\":1.500"));
        assert!(s.contains("\"bytes\":64"));
        assert!(s.contains("\"ph\":\"i\""));
    }

    #[test]
    fn span_clamps_negative_duration() {
        let mut t = WorldTrace::new(1);
        t.span(
            0,
            "x",
            "test",
            SimTime::from_nanos(10),
            SimTime::from_nanos(5),
            NO_ARGS,
        );
        assert_eq!(t.ranks[0][0].dur, Some(SimTime::ZERO));
    }
}

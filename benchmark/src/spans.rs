//! Harness-side spans: one around every call the harness makes into a layer.
//!
//! Spans live in memory and are written once, at exit, as a Chrome-trace
//! file. The per-name table (count, total, self time) covers every span;
//! the file keeps only the first [`KEEP`] of each recorder so that a
//! 100 000-request serving run stays loadable.
//!
//! A span's self time is its duration minus the part its child spans cover.

use autonbc::simcore::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Span records kept verbatim per recorder for the Chrome-trace file.
const KEEP: usize = 20_000;

/// One finished span, for the trace file.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span within the same recorder, if any.
    pub parent: Option<usize>,
    /// The operation (decision, point, request) the span belongs to.
    pub op: u64,
}

/// Per-name totals over every span of a recorder.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    index: Option<usize>,
}

/// A single-threaded span recorder. Disabled recorders cost one branch per
/// call, so workloads call them unconditionally and the untraced run stays
/// the reference for tracing overhead.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    op: u64,
    stack: Vec<Open>,
    kept: Vec<Span>,
    totals: BTreeMap<&'static str, NameTotals>,
}

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant, tid: u32) -> Recorder {
        Recorder {
            enabled,
            epoch,
            tid,
            op: 0,
            stack: Vec::new(),
            kept: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Switch recording on or off between repetitions.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty());
        self.enabled = on;
    }

    /// The operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = (self.kept.len() < KEEP).then(|| {
            self.kept.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().and_then(|o| o.index),
                op: self.op,
            });
            self.kept.len() - 1
        });
        let start_ns = self.now_ns();
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            index,
        });
        let out = f(self);
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("span stack underflow");
        let dur = end_ns - open.start_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let t = self.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(i) = open.index {
            self.kept[i].start_ns = open.start_ns;
            self.kept[i].end_ns = end_ns;
        }
        out
    }

    #[cfg(test)]
    pub fn totals(&self) -> &BTreeMap<&'static str, NameTotals> {
        &self.totals
    }

    /// The per-name layer table for `result.json`.
    pub fn table_json(&self) -> Json {
        Json::Obj(
            self.totals
                .iter()
                .map(|(name, t)| {
                    let row = Json::obj([
                        ("count", Json::num(t.count as f64)),
                        ("total_ms", Json::num(t.total_ns as f64 / 1e6)),
                        ("self_ms", Json::num(t.self_ns as f64 / 1e6)),
                    ]);
                    (name.to_string(), row)
                })
                .collect(),
        )
    }

    /// Chrome-trace "complete" events (`ph: X`) for the kept spans; `pid`
    /// names the workload.
    pub fn chrome_events(&self, pid: u32, workload: &str) -> Vec<Json> {
        let mut out = vec![Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::num(pid as f64)),
            ("args", Json::obj([("name", Json::str(workload))])),
        ])];
        for (i, s) in self.kept.iter().enumerate() {
            out.push(Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("pid", Json::num(pid as f64)),
                ("tid", Json::num(self.tid as f64)),
                ("ts", Json::num(s.start_ns as f64 / 1e3)),
                ("dur", Json::num((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    Json::obj([
                        ("op", Json::num(s.op as f64)),
                        ("span", Json::num(i as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                        ),
                    ]),
                ),
            ]));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut r = Recorder::new(true, Instant::now(), 0);
        r.set_op(7);
        r.span("outer", |r| {
            std::thread::sleep(Duration::from_millis(2));
            r.span("inner", |_| std::thread::sleep(Duration::from_millis(4)));
        });
        let outer = r.totals()["outer"];
        let inner = r.totals()["inner"];
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total_ns >= 4_000_000);
        assert!(outer.total_ns >= inner.total_ns + 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        let ev = r.chrome_events(1, "w");
        assert_eq!(ev.len(), 3); // metadata + two spans
        let inner_ev = &ev[2];
        let args = inner_ev.get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(args.get("op").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false, Instant::now(), 0);
        assert_eq!(r.span("x", |_| 5), 5);
        assert!(r.totals().is_empty());
        assert_eq!(r.chrome_events(1, "w").len(), 1);
    }
}

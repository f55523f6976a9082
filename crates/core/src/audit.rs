//! Tuner decision audit log.
//!
//! Every time a [`crate::tuner::Tuner`] commits a winner during *live*
//! learning, it records what it saw at the moment of the decision: every
//! candidate's raw sample count, how many samples survived the outlier
//! filter, the robust score each candidate earned, the committed winner and
//! its margin over the runner-up. The record answers the question the
//! paper's evaluation keeps returning to — *why* did the library pick this
//! implementation, and how close was the call?
//!
//! Recording is gated on [`simcore::trace::enabled`] (the `NBC_TRACE`
//! switch): with tracing off, [`record`] is a single branch and the
//! collector stays empty, so figure binaries are bit-identical to the
//! untraced build. Records are exported as the `adclAudit` array alongside
//! `traceEvents` in the combined trace file (see `autonbc::traceout`) and
//! summarized by the `trace_inspect` binary.
//!
//! Historic-learning tuners ([`crate::tuner::Tuner::with_known_winner`])
//! never emit a record: they skip the learning phase, so there is no live
//! decision to audit.

use simcore::trace;
use std::sync::Mutex;

/// What the tuner knew about one candidate implementation at decision time.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateAudit {
    /// Function index within the set.
    pub func: usize,
    /// Human-readable implementation name (e.g. `"binomial-seg32k"`).
    pub name: String,
    /// Raw measurements taken (post-warm-up).
    pub samples: usize,
    /// Measurements surviving the outlier filter.
    pub kept: usize,
    /// Robust score in seconds (`f64::INFINITY` if never measured).
    pub score: f64,
    /// 1-based racing block after which the candidate was permanently
    /// eliminated; `None` for survivors and for non-racing strategies.
    pub eliminated_at_block: Option<usize>,
}

/// One committed tuning decision.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionAudit {
    /// Context label set by the driver (e.g.
    /// `"whale/ibcast/p16/m262144/g4/BruteForce"`); empty if never set.
    pub label: String,
    /// Operation name from the function set (e.g. `"ibcast"`).
    pub op: String,
    /// Selection strategy that made the call.
    pub strategy: &'static str,
    /// Outlier filter in effect (e.g. `"iqr(1.5)"`).
    pub filter: String,
    /// Iteration index at which the strategy committed.
    pub decided_at_iter: usize,
    /// Winning function index.
    pub winner: usize,
    /// Winning function name.
    pub winner_name: String,
    /// Relative margin over the runner-up: `(runner_up - winner) / winner`
    /// on robust scores. `0.0` when there is no measured runner-up.
    pub margin: f64,
    /// Per-candidate evidence, indexed by function.
    pub candidates: Vec<CandidateAudit>,
}

fn number(v: f64) -> String {
    // JSON has no Infinity/NaN literal; unmeasured candidates score
    // infinite and serialize as null.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

impl DecisionAudit {
    /// Render this record as one JSON object (single line, hand-written —
    /// the workspace is dependency-free).
    pub fn to_json(&self) -> String {
        let cands: Vec<String> = self
            .candidates
            .iter()
            .map(|c| {
                format!(
                    "{{\"func\":{},\"name\":\"{}\",\"samples\":{},\"kept\":{},\"score\":{},\
                     \"eliminated_at_block\":{}}}",
                    c.func,
                    trace::escape(&c.name),
                    c.samples,
                    c.kept,
                    number(c.score),
                    c.eliminated_at_block
                        .map(|b| b.to_string())
                        .unwrap_or_else(|| "null".into())
                )
            })
            .collect();
        format!(
            "{{\"label\":\"{}\",\"op\":\"{}\",\"strategy\":\"{}\",\"filter\":\"{}\",\
             \"decided_at_iter\":{},\"winner\":{},\"winner_name\":\"{}\",\"margin\":{},\
             \"candidates\":[{}]}}",
            trace::escape(&self.label),
            trace::escape(&self.op),
            trace::escape(self.strategy),
            trace::escape(&self.filter),
            self.decided_at_iter,
            self.winner,
            trace::escape(&self.winner_name),
            number(self.margin),
            cands.join(",")
        )
    }
}

/// One decision served by the `adcld` tuning daemon, with where the answer
/// came from: a history-store hit, a memo replay, a fresh sweep, or a
/// fresh sweep whose winner the guideline observatory flagged as
/// dominated. Exported as the `adclServed` array in the combined trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedAudit {
    /// Encoded query key (e.g. `"ialltoall|whale|8|4096"`).
    pub key: String,
    /// Operation name.
    pub op: String,
    /// Winning function name.
    pub winner: String,
    /// Winner's robust score in seconds.
    pub score: f64,
    /// Relative margin over the runner-up.
    pub margin: f64,
    /// `"history-hit"` / `"memo-replay"` / `"fresh-sweep"` /
    /// `"guideline-flagged"`.
    pub source: String,
}

impl ServedAudit {
    /// Render this record as one JSON object (single line, hand-written —
    /// the workspace is dependency-free).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"key\":\"{}\",\"op\":\"{}\",\"winner\":\"{}\",\"score\":{},\
             \"margin\":{},\"source\":\"{}\"}}",
            trace::escape(&self.key),
            trace::escape(&self.op),
            trace::escape(&self.winner),
            number(self.score),
            number(self.margin),
            trace::escape(&self.source)
        )
    }
}

fn collector() -> &'static Mutex<Vec<DecisionAudit>> {
    static LOG: Mutex<Vec<DecisionAudit>> = Mutex::new(Vec::new());
    &LOG
}

fn served_collector() -> &'static Mutex<Vec<ServedAudit>> {
    static LOG: Mutex<Vec<ServedAudit>> = Mutex::new(Vec::new());
    &LOG
}

fn served_lock() -> std::sync::MutexGuard<'static, Vec<ServedAudit>> {
    served_collector().lock().unwrap_or_else(|e| e.into_inner())
}

fn lock() -> std::sync::MutexGuard<'static, Vec<DecisionAudit>> {
    collector().lock().unwrap_or_else(|e| e.into_inner())
}

/// Append `rec` to the process-wide audit log. A no-op (one branch) unless
/// tracing is enabled.
pub fn record(rec: DecisionAudit) {
    if !trace::enabled() {
        return;
    }
    lock().push(rec);
}

/// Snapshot of every decision recorded so far, in commit order.
pub fn records() -> Vec<DecisionAudit> {
    lock().clone()
}

/// Number of decisions recorded.
pub fn len() -> usize {
    lock().len()
}

/// Drop all recorded decisions and served decisions (tests and
/// multi-experiment binaries).
pub fn clear() {
    lock().clear();
    served_lock().clear();
}

/// Render the full log as the *contents* of a JSON array (comma-separated
/// objects, one per line).
pub fn render_json() -> String {
    lock()
        .iter()
        .map(|r| r.to_json())
        .collect::<Vec<_>>()
        .join(",\n")
}

/// Append `rec` to the process-wide served-decisions log. A no-op (one
/// branch) unless tracing is enabled.
pub fn record_served(rec: ServedAudit) {
    if !trace::enabled() {
        return;
    }
    served_lock().push(rec);
}

/// Snapshot of every served decision recorded so far, in serve order.
pub fn served() -> Vec<ServedAudit> {
    served_lock().clone()
}

/// Number of served decisions recorded.
pub fn served_len() -> usize {
    served_lock().len()
}

/// Render the served-decisions log as the *contents* of a JSON array
/// (comma-separated objects, one per line).
pub fn render_served_json() -> String {
    served_lock()
        .iter()
        .map(|r| r.to_json())
        .collect::<Vec<_>>()
        .join(",\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(winner: usize) -> DecisionAudit {
        DecisionAudit {
            label: "test/ibcast".into(),
            op: "ibcast".into(),
            strategy: "brute-force",
            filter: "iqr(1.5)".into(),
            decided_at_iter: 12,
            winner,
            winner_name: format!("f{winner}"),
            margin: 0.25,
            candidates: vec![
                CandidateAudit {
                    func: 0,
                    name: "f0".into(),
                    samples: 4,
                    kept: 3,
                    score: 0.002,
                    eliminated_at_block: None,
                },
                CandidateAudit {
                    func: 1,
                    name: "f1".into(),
                    samples: 4,
                    kept: 4,
                    score: f64::INFINITY,
                    eliminated_at_block: Some(2),
                },
            ],
        }
    }

    /// The trace-enabled override is process-global; tests toggling it
    /// must not interleave.
    static TOGGLE: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_record_is_dropped() {
        let _g = TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
        trace::set_enabled(false);
        record(sample_record(0));
        assert!(
            records().iter().all(|r| r.label != "test/ibcast"),
            "record landed despite tracing off"
        );
        trace::clear_enabled_override();
    }

    #[test]
    fn enabled_record_round_trips() {
        let _g = TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
        trace::set_enabled(true);
        record(sample_record(1));
        let recs = records();
        let ours: Vec<_> = recs.iter().filter(|r| r.label == "test/ibcast").collect();
        assert!(!ours.is_empty());
        assert_eq!(ours[0].winner, 1);
        trace::clear_enabled_override();
        clear();
    }

    #[test]
    fn served_records_gate_and_render() {
        let _g = TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
        trace::set_enabled(false);
        record_served(ServedAudit {
            key: "off|whale|8|64".into(),
            op: "ibcast".into(),
            winner: "linear".into(),
            score: 1.0e-3,
            margin: 0.0,
            source: "fresh-sweep".into(),
        });
        assert!(served().iter().all(|s| s.key != "off|whale|8|64"));
        trace::set_enabled(true);
        record_served(ServedAudit {
            key: "ialltoall|whale|8|4096".into(),
            op: "ialltoall".into(),
            winner: "pairwise".into(),
            score: 2.5e-4,
            margin: 0.125,
            source: "history-hit".into(),
        });
        let ours: Vec<_> = served()
            .into_iter()
            .filter(|s| s.key == "ialltoall|whale|8|4096")
            .collect();
        assert_eq!(ours.len(), 1);
        let doc = simcore::json::parse(&ours[0].to_json()).expect("served json parses");
        assert_eq!(
            doc.get("source").and_then(|v| v.as_str()),
            Some("history-hit")
        );
        assert_eq!(doc.get("margin").and_then(|v| v.as_f64()), Some(0.125));
        trace::clear_enabled_override();
        clear();
        assert_eq!(served_len(), 0);
    }

    #[test]
    fn json_encodes_infinity_as_null() {
        let j = sample_record(0).to_json();
        assert!(j.contains("\"score\":null"), "{j}");
        assert!(j.contains("\"winner\":0"), "{j}");
        // Must parse as a standalone JSON document.
        let doc = simcore::json::parse(&j).expect("audit json parses");
        assert_eq!(doc.get("winner_name").and_then(|v| v.as_str()), Some("f0"));
        let cands = doc.get("candidates").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(cands.len(), 2);
        assert!(matches!(
            cands[1].get("score"),
            Some(simcore::json::Json::Null)
        ));
        // Elimination records: null for survivors, the 1-based block for
        // racing-eliminated candidates.
        assert!(matches!(
            cands[0].get("eliminated_at_block"),
            Some(simcore::json::Json::Null)
        ));
        assert_eq!(
            cands[1].get("eliminated_at_block").and_then(|v| v.as_u64()),
            Some(2)
        );
    }
}

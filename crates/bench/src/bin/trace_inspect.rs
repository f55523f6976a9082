//! Offline trace analyzer for the observability layer.
//!
//! Reads a combined trace file written by any figure binary or `autonbc`
//! under `NBC_TRACE=<file>` / `--trace-out <file>` and prints a summary:
//! per-rank time accounting (compute / library / blocked and the overlap
//! ratio), the largest rendezvous stalls and unexpected-message waits, and
//! the tuner decision audit log. Exits non-zero if the file does not parse
//! as the expected document.
//!
//! ```text
//! NBC_TRACE=trace.json cargo run --release --bin fig6_progress_cost
//! cargo run --release --bin trace_inspect trace.json
//! ```

use simcore::json::{self, Json};
use std::collections::BTreeMap;
use std::process::exit;

/// One parsed Chrome trace event (only the fields the summary needs).
struct Ev {
    name: String,
    cat: String,
    ph: String,
    pid: u64,
    tid: u64,
    /// Microseconds, as written by the exporter.
    ts: f64,
    dur: f64,
}

fn field_str(obj: &Json, key: &str) -> String {
    obj.get(key)
        .and_then(|v| v.as_str())
        .unwrap_or_default()
        .to_string()
}

fn field_f64(obj: &Json, key: &str) -> f64 {
    obj.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
}

fn parse_events(doc: &Json) -> Option<Vec<Ev>> {
    let arr = doc.get("traceEvents")?.as_arr()?;
    Some(
        arr.iter()
            .map(|e| Ev {
                name: field_str(e, "name"),
                cat: field_str(e, "cat"),
                ph: field_str(e, "ph"),
                pid: field_f64(e, "pid") as u64,
                tid: field_f64(e, "tid") as u64,
                ts: field_f64(e, "ts"),
                dur: field_f64(e, "dur"),
            })
            .collect(),
    )
}

/// Process-name metadata records, by pid.
fn process_names(doc: &Json) -> BTreeMap<u64, String> {
    let mut names = BTreeMap::new();
    if let Some(arr) = doc.get("traceEvents").and_then(|v| v.as_arr()) {
        for e in arr {
            if field_str(e, "ph") == "M" && field_str(e, "name") == "process_name" {
                if let Some(label) = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
                {
                    names.insert(field_f64(e, "pid") as u64, label.to_string());
                }
            }
        }
    }
    names
}

fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.3} s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.2} ms", us / 1e3)
    } else {
        format!("{us:.1} us")
    }
}

const USAGE: &str = "usage: trace_inspect <trace.json>";

/// The one positional argument: the trace file.
fn parse_cli() -> String {
    let mut path = None;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            _ if path.is_none() && !a.starts_with("--") => path = Some(a),
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                exit(2);
            }
        }
    }
    path.unwrap_or_else(|| {
        eprintln!("{USAGE}");
        exit(2);
    })
}

fn main() {
    let path = &parse_cli();
    // Bad input files are a usage error (exit 2 + usage line), matching
    // the CLI hardening contract of the other binaries — never a panic,
    // never a bare failure code.
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("trace_inspect: cannot read {path}: {e}\n{USAGE}");
        exit(2);
    });
    let doc = json::parse(&text).unwrap_or_else(|e| {
        eprintln!("trace_inspect: {path} is not valid JSON: {e}\n{USAGE}");
        exit(2);
    });
    let Some(events) = parse_events(&doc) else {
        eprintln!("trace_inspect: {path} has no traceEvents array\n{USAGE}");
        exit(2);
    };
    let names = process_names(&doc);

    println!("{path}: {} events", events.len());

    // Per-(pid, tid) accounting from the cat="rank" state spans. The three
    // states tile each rank's active time, so the overlap ratio is
    // compute / (compute + library + blocked): 1.0 means communication was
    // fully hidden behind application work.
    let mut acct: BTreeMap<(u64, u64), [f64; 3]> = BTreeMap::new();
    for e in &events {
        if e.ph == "X" && e.cat == "rank" {
            let slot = match e.name.as_str() {
                "compute" => 0,
                "library" => 1,
                "blocked" => 2,
                _ => continue,
            };
            acct.entry((e.pid, e.tid)).or_default()[slot] += e.dur;
        }
    }
    let mut last_pid = u64::MAX;
    for (&(pid, tid), &[comp, lib, blk]) in &acct {
        if pid != last_pid {
            let label = names.get(&pid).cloned().unwrap_or_default();
            println!();
            println!("run {pid}: {label}");
            println!(
                "  {:>4}  {:>12} {:>12} {:>12} {:>8}",
                "rank", "compute", "library", "blocked", "overlap"
            );
            last_pid = pid;
        }
        let busy = comp + lib + blk;
        let overlap = if busy > 0.0 { comp / busy } else { 0.0 };
        println!(
            "  {:>4}  {:>12} {:>12} {:>12} {:>7.1}%",
            tid,
            fmt_us(comp),
            fmt_us(lib),
            fmt_us(blk),
            overlap * 100.0
        );
    }

    // Largest stall spans: rendezvous handshakes waiting for a progress
    // call, and receives matched against already-buffered messages.
    for (cat_name, title) in [
        (
            "rdv_stall",
            "top rendezvous stalls (RTS waiting for a progress call)",
        ),
        (
            "unexpected",
            "top unexpected-message waits (sender ahead of receiver)",
        ),
    ] {
        let mut stalls: Vec<&Ev> = events
            .iter()
            .filter(|e| e.ph == "X" && e.name == cat_name)
            .collect();
        // total_cmp: a hand-edited trace with a NaN duration must not
        // panic the analyzer (NaNs sort last).
        stalls.sort_by(|a, b| b.dur.total_cmp(&a.dur));
        println!();
        if stalls.is_empty() {
            println!("{title}: none");
            continue;
        }
        let total: f64 = stalls.iter().map(|e| e.dur).sum();
        println!("{title}: {} spans, {} total", stalls.len(), fmt_us(total));
        for e in stalls.iter().take(5) {
            println!(
                "  run {} rank {:>3}  at {:>12}  for {:>10}",
                e.pid,
                e.tid,
                fmt_us(e.ts),
                fmt_us(e.dur)
            );
        }
    }

    // Tuner decision audit log.
    println!();
    match doc.get("adclAudit").and_then(|v| v.as_arr()) {
        None => println!("no adclAudit section"),
        Some([]) => println!("adcl audit: no decisions recorded"),
        Some(audit) => {
            println!("adcl audit: {} decision(s)", audit.len());
            for d in audit {
                println!(
                    "  [{}] {} -> {} (iter {}, margin {:+.1}%, strategy {}, filter {})",
                    field_str(d, "label"),
                    field_str(d, "op"),
                    field_str(d, "winner_name"),
                    field_f64(d, "decided_at_iter") as u64,
                    field_f64(d, "margin") * 100.0,
                    field_str(d, "strategy"),
                    field_str(d, "filter"),
                );
                if let Some(cands) = d.get("candidates").and_then(|v| v.as_arr()) {
                    for c in cands {
                        let score = c.get("score").and_then(|v| v.as_f64());
                        let rendered = match score {
                            Some(s) => format!("{:.3} ms", s * 1e3),
                            None => "unmeasured".to_string(),
                        };
                        println!(
                            "      {:<24} {:>2}/{:<2} samples kept  score {}",
                            field_str(c, "name"),
                            field_f64(c, "kept") as u64,
                            field_f64(c, "samples") as u64,
                            rendered,
                        );
                    }
                }
            }
        }
    }

    // Guideline cross-check flags: decisions whose committed winner a
    // clean fixed-schedule probe proved dominated (written by the exporter
    // when NBC_GUIDELINES is quick/full).
    println!();
    match doc.get("guidelineFlags").and_then(|v| v.as_arr()) {
        None => println!("no guidelineFlags section"),
        Some([]) => println!("guideline flags: none (no dominated winners)"),
        Some(flags) => {
            println!("guideline flags: {} dominated decision(s)", flags.len());
            for f in flags {
                println!(
                    "  [{}] winner {} left {:+.1}% on the table vs {}",
                    field_str(f, "label"),
                    field_str(f, "winner"),
                    field_f64(f, "advantage") * 100.0,
                    field_str(f, "best"),
                );
            }
        }
    }
}

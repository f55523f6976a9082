//! `ledger`: the layered performance ledger of this repository.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line last
//! ledger [--seed N] [--seconds S] [--trace] [--check]    every workload -> benchmark/out/result.json
//! ledger compare A.json B.json                           two result files, metric by metric
//! ```
//!
//! Run it through `benchmark/run.sh`, from the root of the checkout: paths
//! (`BENCHMARK.json`, `benchmark/out/`) are relative to it.

mod compare;
mod host;
mod kernels;
mod names;
mod run;
mod spans;
mod stats;
mod workloads;

use autonbc::simcore::json::{self, Json};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::Scale;

pub const OUT_DIR: &str = "benchmark/out";
/// Micro-kernel samples of the full ledger's panel.
const FULL_KERNEL_SAMPLES: usize = 9;

/// Command-line arguments of every mode but `compare`.
#[derive(Debug, Clone)]
pub struct Args {
    /// Empty: run every workload.
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// A kernel panel measured earlier (the full ledger's), to use instead
    /// of running the panel inside this traced run.
    pub kernels: Option<PathBuf>,
    /// `K/N`: this process is worker K of an untraced run's N (internal).
    pub worker: Option<(usize, usize)>,
    /// Run the micro-kernel panel alone.
    pub kernels_only: bool,
    /// Where to write this run's full record.
    pub out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        scale: Scale::Full,
        kernels: None,
        worker: None,
        kernels_only: false,
        out: None,
    };
    let mut seconds = None;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value("a workload name")?,
            "--seed" => {
                a.seed = value("an integer")?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer".to_string())?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(0.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 0..=600".to_string());
                }
                seconds = Some(s);
            }
            // `--trace 0|1` for the driver, bare `--trace` by hand.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    a.trace = false;
                }
                Some("1") => {
                    it.next();
                    a.trace = true;
                }
                _ => a.trace = true,
            },
            "--check" => a.scale = Scale::Tiny,
            "--kernels" => a.kernels = Some(PathBuf::from(value("a file")?)),
            "--out" => a.out = Some(PathBuf::from(value("a file")?)),
            "--worker" => {
                let v = value("K/N")?;
                a.worker = v
                    .split_once('/')
                    .and_then(|(k, n)| Some((k.parse().ok()?, n.parse().ok()?)))
                    .map(Some)
                    .ok_or_else(|| "--worker needs K/N".to_string())?;
            }
            "--kernels-only" => a.kernels_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    // `--check` proves every path runs; it does not measure.
    a.seconds = match a.scale {
        Scale::Tiny => 0.0,
        Scale::Full => seconds.unwrap_or(default_seconds()),
    };
    Ok(a)
}

/// `run_seconds` of `BENCHMARK.json`, so that a run by hand measures as long
/// as the driver's.
fn default_seconds() -> f64 {
    std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| json::parse(&t).ok())
        .and_then(|j| j.get("run_seconds")?.as_f64())
        .unwrap_or(8.0)
}

pub fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn print_metrics(title: &str, metrics: &std::collections::BTreeMap<String, kernels::Metric>) {
    println!("{title}");
    for (name, m) in metrics {
        println!(
            "  {name:<42} {:>16.4} {:<7} (q1 {:.4}, q3 {:.4}, n {})",
            m.value,
            names::unit_of(name),
            m.q1,
            m.q3,
            m.n
        );
    }
}

/// One workload in this process; the contract's single JSON line last.
fn single(args: &Args, start: Instant) -> Result<bool, String> {
    if let Some((k, n)) = args.worker {
        return run::worker(args, start, k == n).map(|()| true);
    }
    let outcome = run::run(args, start)?;
    let kind = if args.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    print_metrics(
        &format!("{} seed {} ({kind})", args.workload, args.seed),
        &outcome.metrics,
    );
    if let Some(Json::Arr(checks)) = outcome.record.get("checks") {
        for c in checks {
            let field = |k: &str| c.get(k).and_then(Json::as_str).unwrap_or("");
            let ok = c.get("ok") == Some(&Json::Bool(true));
            println!(
                "  check {:<34} {} ({})",
                field("name"),
                if ok { "ok" } else { "FAILED" },
                field("detail")
            );
        }
    }
    let digest = outcome.record.get("sim_digest").and_then(Json::as_str);
    println!("  sim_digest {}", digest.unwrap_or("-"));
    if let Some(path) = &args.out {
        let mut record = outcome.record.clone();
        if let Json::Obj(m) = &mut record {
            m.insert(
                "trace_events".into(),
                Json::Arr(outcome.chrome_events.clone()),
            );
        }
        write_json(path, &record)?;
    } else if args.trace {
        let trace = Json::obj([("traceEvents", Json::Arr(outcome.chrome_events.clone()))]);
        write_json(&Path::new(OUT_DIR).join("trace.json"), &trace)?;
    }
    let metrics = Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|(name, m)| {
                let v = Json::obj([
                    ("value", Json::num(m.value)),
                    ("unit", Json::str(names::unit_of(name))),
                ]);
                (name.clone(), v)
            })
            .collect(),
    );
    let line = Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::num(outcome.attempted as f64)),
        ("failed", Json::num(outcome.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    Ok(outcome.correct)
}

/// Run this executable again with `extra` arguments, output passed through.
fn child(args: &Args, extra: &[&str]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--seed", &args.seed.to_string()]);
    cmd.args(["--seconds", &args.seconds.to_string()]);
    if args.scale == Scale::Tiny {
        cmd.arg("--check");
    }
    cmd.args(extra);
    let status = cmd.status().map_err(|e| format!("child: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("child {extra:?} exited with {status}"))
    }
}

pub fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every workload, each in its own child process, into `result.json`.
fn full(args: &Args) -> Result<bool, String> {
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let floor = stats::noise_floor();
    let traced = args.trace || args.scale == Scale::Tiny;
    let kernels_path = out.join("kernels.json");
    if traced {
        println!("== micro-kernel panel");
        child(
            args,
            &["--kernels-only", "--out", &kernels_path.to_string_lossy()],
        )?;
    }
    let mut workloads = std::collections::BTreeMap::new();
    let mut events = Vec::new();
    let mut all_correct = true;
    for name in workloads::NAMES {
        println!("== {name}");
        let e2e_path = out.join(format!("{name}.e2e.json"));
        child(
            args,
            &[
                "--workload",
                name,
                "--trace",
                "0",
                "--out",
                &e2e_path.to_string_lossy(),
            ],
        )?;
        let mut record = read_json(&e2e_path)?;
        let _ = std::fs::remove_file(&e2e_path);
        if traced {
            let trace_path = out.join(format!("{name}.trace.json"));
            child(
                args,
                &[
                    "--workload",
                    name,
                    "--trace",
                    "1",
                    "--kernels",
                    &kernels_path.to_string_lossy(),
                    "--out",
                    &trace_path.to_string_lossy(),
                ],
            )?;
            let traced_record = read_json(&trace_path)?;
            let _ = std::fs::remove_file(&trace_path);
            let ok = |r: &Json| r.get("correct") == Some(&Json::Bool(true));
            all_correct &= ok(&traced_record);
            if let (Json::Obj(into), Json::Obj(from)) = (&mut record, traced_record) {
                for (k, v) in from {
                    match k.as_str() {
                        "per_layer" | "reconciliation" | "spans" => {
                            into.insert(k, v);
                        }
                        "trace_events" => {
                            if let Json::Arr(ev) = v {
                                events.extend(ev);
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        all_correct &= record.get("correct") == Some(&Json::Bool(true));
        if let Json::Obj(m) = &mut record {
            m.remove("trace_events");
        }
        workloads.insert(name.to_string(), record);
    }
    let mut doc = vec![
        ("host", host::record(args.seed)),
        ("check_sizes", Json::Bool(args.scale == Scale::Tiny)),
        ("run_seconds", Json::num(args.seconds)),
        (
            "noise_floor",
            Json::obj([
                ("timer_resolution_ns", Json::num(floor.timer_resolution_ns)),
                ("timer_read_ns", Json::num(floor.timer_read_ns)),
                ("empty_loop_ns", Json::num(floor.empty_loop_ns)),
            ]),
        ),
        ("workloads", Json::Obj(workloads.clone())),
    ];
    if traced {
        doc.push(("kernel_panel", read_json(&kernels_path)?));
        let _ = std::fs::remove_file(&kernels_path);
        write_json(
            &out.join("trace.json"),
            &Json::obj([("traceEvents", Json::Arr(events))]),
        )?;
    }
    write_json(&out.join("result.json"), &Json::obj(doc))?;

    println!("== summary (seed {}, {OUT_DIR}/result.json)", args.seed);
    for name in workloads::NAMES {
        let record = &workloads[name];
        let text = |k: &str| record.get(k).map(Json::render).unwrap_or_default();
        println!(
            "{name:<13} correct {} failed {}/{} sim_digest {}",
            text("correct"),
            text("failed"),
            text("attempted"),
            text("sim_digest")
        );
        if let Some(Json::Obj(m)) = record.get("end_to_end") {
            for (metric, v) in m {
                println!(
                    "  {metric:<14} {:>16.4} {}",
                    v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    v.get("unit").and_then(Json::as_str).unwrap_or("")
                );
            }
        }
    }
    if args.scale == Scale::Tiny {
        check_names(&workloads)?;
        println!("check: emitted names equal BENCHMARK.json's, both ways");
    }
    Ok(all_correct)
}

/// `--check`: the names emitted, the names the harness declares and the
/// names `BENCHMARK.json` declares must be one set, and every name valid.
fn check_names(workloads: &std::collections::BTreeMap<String, Json>) -> Result<(), String> {
    let bench = read_json(Path::new("BENCHMARK.json"))?;
    let declared = |section: &str| -> Result<BTreeSet<String>, String> {
        bench
            .get(section)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json: no {section} list"))?
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json: {section} entry without a name"))
            })
            .collect()
    };
    let same = |what: &str, got: &BTreeSet<String>, want: &BTreeSet<String>| {
        if got == want {
            return Ok(());
        }
        let extra: Vec<_> = got.difference(want).collect();
        let missing: Vec<_> = want.difference(got).collect();
        Err(format!(
            "{what}: not in BENCHMARK.json {extra:?}; declared but not emitted {missing:?}"
        ))
    };
    let harness = |list: &[names::Declared]| list.iter().map(|d| d.0.to_string()).collect();
    let emitted_workloads: BTreeSet<String> = workloads.keys().cloned().collect();
    same("workloads", &emitted_workloads, &declared("workloads")?)?;
    same(
        "end_to_end (harness)",
        &harness(&names::END_TO_END),
        &declared("end_to_end")?,
    )?;
    same(
        "per_layer (harness)",
        &harness(&names::PER_LAYER),
        &declared("per_layer")?,
    )?;
    for (name, record) in workloads {
        for section in ["end_to_end", "per_layer"] {
            let Some(Json::Obj(m)) = record.get(section) else {
                return Err(format!("{name}: no {section} metrics emitted"));
            };
            let got: BTreeSet<String> = m.keys().cloned().collect();
            same(&format!("{name} {section}"), &got, &declared(section)?)?;
        }
    }
    for n in emitted_workloads
        .iter()
        .chain(&declared("end_to_end")?)
        .chain(&declared("per_layer")?)
    {
        if !names::valid_name(n) {
            return Err(format!(
                "name {n:?} does not match [A-Za-z0-9][A-Za-z0-9_.-]*"
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = (|| -> Result<bool, String> {
        if argv.first().map(String::as_str) == Some("compare") {
            let [_, a, b] = argv.as_slice() else {
                return Err("usage: ledger compare A.json B.json".to_string());
            };
            return compare::compare(Path::new(a), Path::new(b)).map(|failed| !failed);
        }
        host::refuse_nbc_env()?;
        let args = parse_args(&argv)?;
        if args.kernels_only {
            let record = run::kernels_record(FULL_KERNEL_SAMPLES, args.scale)?;
            let path = args
                .out
                .clone()
                .unwrap_or(Path::new(OUT_DIR).join("kernels.json"));
            write_json(&path, &record)?;
            if let Some(Json::Obj(m)) = record.get("kernels") {
                for (name, v) in m {
                    println!(
                        "  {name:<42} {:>16} {}",
                        v.get("value").map(Json::render).unwrap_or_default(),
                        names::unit_of(name)
                    );
                }
            }
            Ok(true)
        } else if args.workload.is_empty() {
            full(&args)
        } else {
            single(&args, start)
        }
    })();
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ledger: a correctness check or a comparison failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

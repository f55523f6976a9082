//! One workload: set-up, warm-up repetition, timed repetitions,
//! correctness checks, metrics.
//!
//! **Untraced** (`--trace 0`, the end-to-end numbers): the command spawns
//! [`WORKERS`] worker processes one after the other. Each sets the workload
//! up from nothing, runs the warm-up repetition, and times repetitions for
//! its share of `--seconds`. The values reported are medians over all
//! workers' repetitions (latency percentiles over their pooled samples,
//! `setup_s` and `peak_rss_mb` medians over the workers). On this host a
//! whole process runs up to 15 % faster or slower than its twin, run after
//! run, whatever it is pinned to; several short processes average that out
//! where one long process cannot, and set-up is sampled several times for
//! free.
//!
//! **Traced** (`--trace 1`, the per-layer numbers): one process measures one
//! untraced repetition as its own reference, then two repetitions with the
//! span recorder on, and adds the micro-kernel panel and the per-workload
//! counts.

use crate::kernels::{self, Metric, Table};
use crate::names;
use crate::spans::Recorder;
use crate::stats::{self, KernelTimer};
use crate::workloads::{self, Check, Rep, Scale};
use crate::{host, Args, OUT_DIR};
use autonbc::simcore::json::Json;
use autonbc::simcore::metrics::Scope;
use autonbc::simcore::par;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker processes per untraced run; also the number of set-up samples and
/// the least number of timed repetitions.
const WORKERS: usize = 3;
/// Traced repetitions per traced run.
const TRACED_REPS: usize = 2;
/// Micro-kernel samples when the panel runs inside a traced workload run.
/// The full ledger runs the panel once with 9 and hands it in.
const INLINE_KERNEL_SAMPLES: usize = 3;

/// One repetition with the registry counters it moved.
struct Measured {
    rep: Rep,
    counts: BTreeMap<&'static str, u64>,
}

fn measure(w: &mut dyn workloads::Workload, rec: &mut Recorder) -> Result<Measured, String> {
    let scope = Scope::begin();
    let rep = w.rep(rec)?;
    // Thread-local cache tallies become visible at sweep barriers only.
    par::run_sweep_flush_hooks();
    Ok(Measured {
        rep,
        counts: scope.delta().into_iter().collect(),
    })
}

/// Everything one run of one workload established.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the final line: end-to-end or per-layer.
    pub metrics: BTreeMap<String, Metric>,
    /// The full record, for `result.json`.
    pub record: Json,
    pub chrome_events: Vec<Json>,
}

fn metric_map_json(m: &BTreeMap<String, Metric>) -> Json {
    Json::Obj(
        m.iter()
            .map(|(k, v)| (k.clone(), v.to_json(names::unit_of(k))))
            .collect(),
    )
}

/// One timed repetition as a worker reports it.
struct TimedRep {
    wall_s: f64,
    attempted: u64,
    failed: u64,
    lat_us: Vec<f64>,
}

/// What one worker process measured.
struct WorkerReport {
    setup_s: f64,
    peak_rss_mb: f64,
    digest: u64,
    reps: Vec<TimedRep>,
    /// `(name, ok, detail)`; only the last worker runs the checks.
    checks: Vec<(String, bool, String)>,
    sizes: Json,
}

impl WorkerReport {
    /// Latencies go to `<path>.lat` as raw little-endian `f64`s: a serving
    /// run has hundreds of thousands of them.
    fn write(&self, path: &Path) -> Result<(), String> {
        let rep = |r: &TimedRep| {
            Json::obj([
                ("wall_s", Json::num(r.wall_s)),
                ("attempted", Json::num(r.attempted as f64)),
                ("failed", Json::num(r.failed as f64)),
                ("ok", Json::num(r.lat_us.len() as f64)),
            ])
        };
        let doc = Json::obj([
            ("setup_s", Json::num(self.setup_s)),
            ("peak_rss_mb", Json::num(self.peak_rss_mb)),
            ("digest", Json::str(format!("{:016x}", self.digest))),
            ("reps", Json::Arr(self.reps.iter().map(rep).collect())),
            ("checks", checks_json(&self.checks)),
            ("sizes", self.sizes.clone()),
        ]);
        crate::write_json(path, &doc)?;
        let bytes: Vec<u8> = self
            .reps
            .iter()
            .flat_map(|r| r.lat_us.iter().flat_map(|v| v.to_le_bytes()))
            .collect();
        let lat = path.with_extension("lat");
        std::fs::write(&lat, bytes).map_err(|e| format!("{}: {e}", lat.display()))
    }

    fn read(path: &Path) -> Result<WorkerReport, String> {
        let doc = crate::read_json(path)?;
        let lat_path = path.with_extension("lat");
        let bytes = std::fs::read(&lat_path).map_err(|e| format!("{}: {e}", lat_path.display()))?;
        let mut lat = bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        let bad = || format!("{}: malformed worker report", path.display());
        let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).ok_or_else(bad);
        let mut reps = Vec::new();
        for r in doc.get("reps").and_then(Json::as_arr).ok_or_else(bad)? {
            let ok = num(r, "ok")? as usize;
            let lat_us: Vec<f64> = lat.by_ref().take(ok).collect();
            if lat_us.len() != ok {
                return Err(bad());
            }
            reps.push(TimedRep {
                wall_s: num(r, "wall_s")?,
                attempted: num(r, "attempted")? as u64,
                failed: num(r, "failed")? as u64,
                lat_us,
            });
        }
        let mut checks = Vec::new();
        for c in doc.get("checks").and_then(Json::as_arr).ok_or_else(bad)? {
            let text = |k: &str| c.get(k).and_then(Json::as_str).map(str::to_string);
            checks.push((
                text("name").ok_or_else(bad)?,
                c.get("ok") == Some(&Json::Bool(true)),
                text("detail").unwrap_or_default(),
            ));
        }
        Ok(WorkerReport {
            setup_s: num(&doc, "setup_s")?,
            peak_rss_mb: num(&doc, "peak_rss_mb")?,
            digest: doc
                .get("digest")
                .and_then(Json::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(bad)?,
            reps,
            checks,
            sizes: doc.get("sizes").cloned().unwrap_or(Json::Null),
        })
    }
}

/// End-to-end metrics over every worker's timed repetitions, and a note for
/// every percentile that stands on fewer than ten samples beyond it.
fn end_to_end(workers: &[WorkerReport]) -> Result<(BTreeMap<String, Metric>, Vec<String>), String> {
    let summary = |xs: &[f64]| {
        let s = stats::summarize(xs);
        Metric {
            value: s.median,
            q1: s.q1,
            q3: s.q3,
            n: s.n,
        }
    };
    let reps: Vec<&TimedRep> = workers.iter().flat_map(|w| &w.reps).collect();
    let per_worker = |f: fn(&WorkerReport) -> f64| workers.iter().map(f).collect::<Vec<_>>();
    let mut out = BTreeMap::new();
    out.insert("setup_s".to_string(), summary(&per_worker(|w| w.setup_s)));
    out.insert(
        "peak_rss_mb".to_string(),
        summary(&per_worker(|w| w.peak_rss_mb)),
    );
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| (r.attempted - r.failed) as f64 / r.wall_s)
        .collect();
    out.insert("ops_per_s".to_string(), summary(&rates));
    let pool: Vec<f64> = reps.iter().flat_map(|r| r.lat_us.iter().copied()).collect();
    if pool.is_empty() {
        return Err("no operation succeeded: no latency to report".to_string());
    }
    let mut notes = Vec::new();
    for (name, p) in [("op_p50_us", 50.0), ("op_p90_us", 90.0)] {
        let own: Vec<f64> = reps
            .iter()
            .filter(|r| !r.lat_us.is_empty())
            .map(|r| stats::nearest_rank(&r.lat_us, p))
            .collect();
        let spread = stats::summarize(&own);
        let each_rep_supports_it = reps
            .iter()
            .all(|r| stats::percentile(&r.lat_us, p).is_some());
        let value = if each_rep_supports_it {
            // Thousands of operations per repetition (the serving
            // workloads): the median over the repetitions' own percentiles,
            // which one repetition in a bad patch cannot drag.
            spread.median
        } else {
            // Tens of operations per repetition (decisions, kernel runs):
            // the percentile of the pooled samples. Every workload must
            // report both percentiles, so one the pool cannot support either
            // is reported with a note, not dropped.
            stats::percentile(&pool, p).unwrap_or_else(|| {
                let beyond = pool.len() - (p / 100.0 * pool.len() as f64).ceil() as usize;
                notes.push(format!(
                    "{name}: {beyond} of {} samples lie beyond it; the rule asks for {}",
                    pool.len(),
                    stats::MIN_BEYOND
                ));
                stats::nearest_rank(&pool, p)
            })
        };
        out.insert(
            name.to_string(),
            Metric {
                value,
                q1: spread.q1,
                q3: spread.q3,
                n: pool.len(),
            },
        );
    }
    Ok((out, notes))
}

/// `(count, unit-cost metric, nanoseconds per unit)` terms whose sum is the
/// time the kernel panel predicts for one repetition.
fn explained_terms(workload: &str, m: &Measured, kernels: &Table) -> Vec<(f64, &'static str, f64)> {
    let count = |name: &str| m.counts.get(name).copied().unwrap_or(0) as f64;
    let harness = |name: &str| m.rep.counts.get(name).copied().unwrap_or(0) as f64;
    let unit = |name: &str| kernels.get(name).map_or(0.0, |k| k.value);
    let ops = m.rep.attempted as f64;
    let events = count("mpisim.sim_events");
    // A simulated event costs what executor, message layer, network model
    // and event queue cost together with the tuner pinned.
    let event_ns = unit("nbc.exec_ns_per_event.fixed");
    let reuse_ns = unit("mpisim.world_reuse_us.p64") * 1e3;
    let request = |n: f64| {
        vec![
            (n, "adcld.parse_ns", unit("adcld.parse_ns")),
            (n, "adcld.submit_hit_us", unit("adcld.submit_hit_us") * 1e3),
            (n, "adcld.render_ns", unit("adcld.render_ns")),
            (
                n,
                "adcld.loopback_rtt_us",
                unit("adcld.loopback_rtt_us") * 1e3,
            ),
        ]
    };
    match workload {
        "decide_eager" | "decide_rdv" | "fft_app" => vec![
            (events, "nbc.exec_ns_per_event.fixed", event_ns),
            (ops, "mpisim.world_reuse_us.p64", reuse_ns),
        ],
        "sweep_memo" => {
            let lookups = count("adcl.simmemo.hits") + count("adcl.simmemo.misses");
            // The verification runs fan out, so an event costs the caller
            // its serial price over the measured fan-out speed-up.
            let speedup = unit("simcore.par_speedup").max(1.0);
            vec![
                (events, "nbc.exec_ns_per_event.fixed", event_ns / speedup),
                (
                    count("adcl.simmemo.hits"),
                    "adcl.simmemo_hit_ns",
                    unit("adcl.simmemo_hit_ns"),
                ),
                (lookups, "autonbc.memo_key_ns", unit("autonbc.memo_key_ns")),
                (
                    ops,
                    "simcore.par_handoff_us",
                    unit("simcore.par_handoff_us") * 1e3,
                ),
            ]
        }
        "serve_warm" => request(ops),
        "serve_mixed" => {
            let mut terms = request(harness("requests.hit"));
            terms.push((
                harness("requests.cold"),
                "adcld.cold_decision_ms_p50",
                unit("adcld.cold_decision_ms_p50") * 1e6,
            ));
            terms.push((
                harness("requests.checkpoint"),
                "adcld.checkpoint_ms.h20k",
                unit("adcld.checkpoint_ms.h20k") * 1e6,
            ));
            terms
        }
        _ => Vec::new(),
    }
}

fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-workload block of the per-layer table, from the last traced
/// repetition's counters.
fn workload_layer(
    workload: &str,
    reference: &Measured,
    traced: &[Measured],
    kernels: &Table,
    kernel_samples: usize,
) -> (BTreeMap<String, Metric>, Json) {
    let last = traced.last().expect("at least one traced repetition");
    let count = |name: &str| last.counts.get(name).copied().unwrap_or(0) as f64;
    let events = count("mpisim.sim_events");
    let mut out: BTreeMap<String, Metric> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), Metric::exact(v));
    };
    put("mpisim.sim_events", events);
    put("mpisim.sim_events_per_s", share(events, last.rep.wall_s));
    put(
        "mpisim.polls_per_event",
        share(count("mpisim.polls"), events),
    );
    put("mpisim.rdv_stalls", count("mpisim.rdv_stalls"));
    put("mpisim.unexpected_msgs", count("mpisim.unexpected_msgs"));
    put("mpisim.payload_allocs", count("simcore.payload_allocs"));
    let (h, m) = (count("nbc.cache.hits"), count("nbc.cache.misses"));
    put("nbc.cache_hit_share", share(h, h + m));
    let (h, m) = (count("adcl.simmemo.hits"), count("adcl.simmemo.misses"));
    put("adcl.simmemo_hit_share", share(h, h + m));
    for name in [
        "adcld.req_p99_us",
        "adcld.late_share",
        "adcld.coalesced_share",
        "adcld.sweep_admissions",
        "adcld.history_hit_share",
        "adcld.memo_replay_share",
    ] {
        put(name, last.rep.layer.get(name).copied().unwrap_or(0.0));
    }
    // How much of a cold request's latency under load is waiting, not
    // deciding: loaded median against the unloaded kernel.
    let unloaded = kernels
        .get("adcld.cold_decision_ms_p50")
        .map_or(0.0, |m| m.value);
    put(
        "adcld.cold_wait_share",
        last.rep
            .cold_loaded_ms_p50
            .map_or(0.0, |loaded| (1.0 - share(unloaded, loaded)).max(0.0)),
    );
    put(
        "failed_share",
        share(last.rep.failed as f64, last.rep.attempted as f64),
    );

    // Reconciliation: counts times unit costs against the measured time.
    let measured_ns: f64 = last.rep.lat_us.iter().sum::<f64>() * 1e3;
    let mut predicted_ns = 0.0;
    let mut terms = Vec::new();
    for (n, unit_metric, unit_ns) in explained_terms(workload, last, kernels) {
        predicted_ns += n * unit_ns;
        terms.push(Json::obj([
            ("count", Json::num(n)),
            ("unit_cost", Json::str(unit_metric)),
            ("ms", Json::num(n * unit_ns / 1e6)),
        ]));
    }
    put("trace.explained_share", share(predicted_ns, measured_ns));
    let mean_lat = |m: &Measured| share(m.rep.lat_us.iter().sum(), m.rep.lat_us.len() as f64);
    let traced_lat = stats::median(&traced.iter().map(mean_lat).collect::<Vec<_>>());
    put(
        "trace.overhead_share",
        share(traced_lat, mean_lat(reference)) - 1.0,
    );
    put("trace.reps", traced.len() as f64);
    put("trace.kernel_samples", kernel_samples as f64);
    let reconciliation = Json::obj([
        ("measured_ms", Json::num(measured_ns / 1e6)),
        ("predicted_ms", Json::num(predicted_ns / 1e6)),
        ("terms", Json::Arr(terms)),
    ]);
    (out, reconciliation)
}

fn load_kernels(path: &std::path::Path) -> Result<(Table, usize), String> {
    let doc = crate::read_json(path)?;
    let Some(Json::Obj(map)) = doc.get("kernels") else {
        return Err(format!("{}: no \"kernels\" object", path.display()));
    };
    let table: Table = map
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), Metric::from_json(v)?)))
        .collect();
    let samples = doc.get("samples").and_then(Json::as_u64).unwrap_or(0) as usize;
    Ok((table, samples))
}

/// The panel as its own run (`--kernels-only`): the record the full ledger
/// hands to every traced workload run.
pub fn kernels_record(samples: usize, scale: Scale) -> Result<Json, String> {
    let timer = match scale {
        Scale::Full => KernelTimer::measuring(samples),
        Scale::Tiny => KernelTimer::smoke(),
    };
    let table = kernels::run_panel(timer, scale)?;
    #[allow(unused_mut)]
    let mut fields = vec![
        ("kernels", metric_map_json(&table)),
        ("samples", Json::num(timer.samples as f64)),
        ("measured", Json::Bool(timer.is_measuring())),
    ];
    #[cfg(feature = "worldpar-trial")]
    fields.push((
        "trial",
        Json::obj([(
            "mpisim.worldpar_speedup.p1024",
            kernels::worldpar_trial(timer).to_json("ratio"),
        )]),
    ));
    Ok(Json::obj(fields))
}

/// What one process measured of one workload, before any summarising.
struct Work {
    setup_s: f64,
    peak_rss_mb: f64,
    warmup: Measured,
    /// Untraced timed repetitions.
    timed: Vec<Measured>,
    traced: Vec<Measured>,
    checks: Vec<Check>,
    sizes: Json,
    rec: Recorder,
}

/// Set up, warm up, measure: `seconds` of untraced repetitions (at least
/// one), or with `--trace` one untraced and [`TRACED_REPS`] traced ones.
fn work(args: &Args, process_start: Instant, run_checks: bool) -> Result<Work, String> {
    let mut w = workloads::build(&args.workload, args.seed, args.scale)?;
    // Spans cover set-up too (`prebuild_schedules`, world leases); the
    // warm-up and the untraced reference repetition run with them off.
    let mut rec = Recorder::new(args.trace, process_start, 0);
    w.setup(&mut rec)?;
    rec.set_enabled(false);
    let warmup = measure(w.as_mut(), &mut rec)?;
    let setup_s = process_start.elapsed().as_secs_f64();

    let mut timed: Vec<Measured> = Vec::new();
    let mut traced: Vec<Measured> = Vec::new();
    let t0 = Instant::now();
    if args.trace {
        timed.push(measure(w.as_mut(), &mut rec)?);
        rec.set_enabled(true);
        for _ in 0..TRACED_REPS {
            traced.push(measure(w.as_mut(), &mut rec)?);
        }
        rec.set_enabled(false);
    } else {
        while timed.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
            timed.push(measure(w.as_mut(), &mut rec)?);
        }
    }
    let peak_rss_mb = host::peak_rss_mb();
    let mut checks = if run_checks { w.checks()? } else { Vec::new() };
    let digest = warmup.rep.digest;
    let all = || std::iter::once(&warmup).chain(&timed).chain(&traced);
    checks.push(Check::new(
        "digest_equal_across_repetitions",
        all().all(|m| m.rep.digest == digest),
        format!("{} repetitions in one process", all().count()),
    ));
    Ok(Work {
        setup_s,
        peak_rss_mb,
        sizes: w.sizes(),
        warmup,
        timed,
        traced,
        checks,
        rec,
    })
}

/// `--worker K`: one of the untraced run's worker processes.
pub fn worker(args: &Args, process_start: Instant, last: bool) -> Result<(), String> {
    let work = work(args, process_start, last)?;
    let report = WorkerReport {
        setup_s: work.setup_s,
        peak_rss_mb: work.peak_rss_mb,
        digest: work.warmup.rep.digest,
        reps: work
            .timed
            .into_iter()
            .map(|m| TimedRep {
                wall_s: m.rep.wall_s,
                attempted: m.rep.attempted,
                failed: m.rep.failed,
                lat_us: m.rep.lat_us,
            })
            .collect(),
        checks: work
            .checks
            .into_iter()
            .map(|c| (c.name.to_string(), c.ok, c.detail))
            .collect(),
        sizes: work.sizes,
    };
    report.write(args.out.as_deref().ok_or("--worker needs --out")?)
}

fn spawn_worker(args: &Args, k: usize, out: &Path) -> Result<WorkerReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &(args.seconds / WORKERS as f64).to_string()])
        .args(["--worker", &format!("{}/{WORKERS}", k + 1)])
        .arg("--out")
        .arg(out);
    if args.scale == Scale::Tiny {
        cmd.arg("--check");
    }
    let status = cmd.status().map_err(|e| format!("worker {k}: {e}"))?;
    if !status.success() {
        return Err(format!(
            "worker {} of {WORKERS} exited with {status}",
            k + 1
        ));
    }
    let report = WorkerReport::read(out);
    let _ = std::fs::remove_file(out);
    let _ = std::fs::remove_file(out.with_extension("lat"));
    report
}

fn checks_json(checks: &[(String, bool, String)]) -> Json {
    Json::Arr(
        checks
            .iter()
            .map(|(name, ok, detail)| {
                Json::obj([
                    ("name", Json::str(name.clone())),
                    ("ok", Json::Bool(*ok)),
                    ("detail", Json::str(detail.clone())),
                ])
            })
            .collect(),
    )
}

fn untraced(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let out: PathBuf = Path::new(OUT_DIR).join(format!(
        "worker-{}-{}.json",
        args.workload,
        std::process::id()
    ));
    let workers = (0..WORKERS)
        .map(|k| spawn_worker(args, k, &out))
        .collect::<Result<Vec<_>, _>>()?;
    let mut checks: Vec<_> = workers.iter().flat_map(|w| w.checks.clone()).collect();
    let digest = workers[0].digest;
    checks.push((
        "digest_equal_across_processes".to_string(),
        workers.iter().all(|w| w.digest == digest),
        format!("{WORKERS} processes"),
    ));
    let correct = checks.iter().all(|(_, ok, _)| *ok);
    let reps = || workers.iter().flat_map(|w| &w.reps);
    let attempted: u64 = reps().map(|r| r.attempted).sum();
    let failed: u64 = reps().map(|r| r.failed).sum();
    let (e2e, notes) = end_to_end(&workers)?;
    for note in &notes {
        eprintln!("ledger: note: {note}");
    }
    let record = Json::obj([
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::num(args.seed as f64)),
        ("sizes", workers[0].sizes.clone()),
        ("processes", Json::num(WORKERS as f64)),
        ("repetitions", Json::num(reps().count() as f64)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        (
            "failed_share",
            Json::num(share(failed as f64, attempted as f64)),
        ),
        ("correct", Json::Bool(correct)),
        ("sim_digest", Json::str(format!("{digest:016x}"))),
        ("checks", checks_json(&checks)),
        ("end_to_end", metric_map_json(&e2e)),
        (
            "notes",
            Json::Arr(notes.into_iter().map(Json::str).collect()),
        ),
    ]);
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: e2e,
        record,
        chrome_events: Vec::new(),
    })
}

fn traced(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let work = work(args, process_start, true)?;
    let (kernel_table, kernel_samples) = match &args.kernels {
        Some(path) => load_kernels(path)?,
        None => {
            let timer = match args.scale {
                Scale::Full => KernelTimer::measuring(INLINE_KERNEL_SAMPLES),
                Scale::Tiny => KernelTimer::smoke(),
            };
            (kernels::run_panel(timer, args.scale)?, timer.samples)
        }
    };
    let (mut layer, reconciliation) = workload_layer(
        &args.workload,
        &work.timed[0],
        &work.traced,
        &kernel_table,
        kernel_samples,
    );
    layer.extend(kernel_table);
    let measured = || work.timed.iter().chain(&work.traced);
    let attempted: u64 = measured().map(|m| m.rep.attempted).sum();
    let failed: u64 = measured().map(|m| m.rep.failed).sum();
    let correct = work.checks.iter().all(|c| c.ok);
    let checks: Vec<_> = work
        .checks
        .iter()
        .map(|c| (c.name.to_string(), c.ok, c.detail.clone()))
        .collect();
    let record = Json::obj([
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::num(args.seed as f64)),
        ("sizes", work.sizes.clone()),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("correct", Json::Bool(correct)),
        (
            "sim_digest",
            Json::str(format!("{:016x}", work.warmup.rep.digest)),
        ),
        ("checks", checks_json(&checks)),
        ("per_layer", metric_map_json(&layer)),
        ("reconciliation", reconciliation),
        ("spans", work.rec.table_json()),
    ]);
    let pid = workloads::NAMES
        .iter()
        .position(|n| *n == args.workload)
        .map_or(0, |i| i as u32 + 1);
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: layer,
        record,
        chrome_events: work.rec.chrome_events(pid, &args.workload),
    })
}

pub fn run(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    if args.trace {
        traced(args, process_start)
    } else {
        untraced(args)
    }
}

//! `ledger compare A.json B.json`: two result files, metric by metric.
//!
//! For every workload and end-to-end metric it prints both medians, how
//! much worse B is than A as a share of A, the bound `BENCHMARK.json` fixes,
//! and a verdict. A metric whose within-run spread (interquartile range
//! over median, either side) exceeds its bound is **unresolved**, not
//! passed or failed: the runs cannot tell. Any failed operation in B is a
//! fail (the bound on `failed_share` is absolute zero). Exact counts are
//! listed as identical or not.

use crate::read_json as load;
use autonbc::simcore::json::Json;
use std::path::Path;

struct Bound {
    name: String,
    better_lower: bool,
    bound: f64,
}

fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                better_lower: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

fn spread(m: &Json) -> f64 {
    let f = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let (v, q1, q3) = (f("value"), f("q1"), f("q3"));
    if v == 0.0 || !(q3 - q1).is_finite() {
        0.0
    } else {
        (q3 - q1) / v.abs()
    }
}

/// Exact per-layer counts worth comparing across two runs.
const EXACT: [&str; 7] = [
    "mpisim.sim_events",
    "adcl.sim_events_per_decision.brute",
    "adcl.sim_events_per_decision.heuristic",
    "adcl.sim_events_per_decision.factorial",
    "adcl.sim_events_per_decision.racing2",
    "fft3d.sim_gain_vs_libnbc",
    "adcl.oracle_match_share",
];

/// Returns whether any pairing failed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds(&load(Path::new("BENCHMARK.json"))?)?;
    let workloads = |doc: &Json| match doc.get("workloads") {
        Some(Json::Obj(m)) => Ok(m.clone()),
        _ => Err("result file has no \"workloads\" object".to_string()),
    };
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    let mut any_fail = false;
    println!(
        "{:<13} {:<12} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse_by", "bound"
    );
    for (name, ra) in &wa {
        let Some(rb) = wb.get(name) else {
            println!("{name:<13} missing from B: fail");
            any_fail = true;
            continue;
        };
        for bd in &bounds {
            let get = |r: &Json| r.get("end_to_end")?.get(&bd.name).cloned();
            let (Some(ma), Some(mb)) = (get(ra), get(rb)) else {
                continue;
            };
            let val = |m: &Json| m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let (va, vb) = (val(&ma), val(&mb));
            let worse_by = if bd.better_lower {
                (vb - va) / va
            } else {
                (va - vb) / va
            };
            let noisy = spread(&ma).max(spread(&mb)) > bd.bound;
            let verdict = if noisy {
                "unresolved"
            } else if worse_by > bd.bound {
                "fail"
            } else {
                "pass"
            };
            any_fail |= verdict == "fail";
            println!(
                "{name:<13} {:<12} {va:>14.4} {vb:>14.4} {:>8.2}% {:>5.0}%  {verdict}",
                bd.name,
                worse_by * 100.0,
                bd.bound * 100.0
            );
        }
        let failed = |r: &Json| r.get("failed").and_then(Json::as_u64).unwrap_or(0);
        let verdict = if failed(rb) > 0 { "fail" } else { "pass" };
        any_fail |= failed(rb) > 0;
        println!(
            "{name:<13} {:<12} {:>14} {:>14} {:>9} {:>6}  {verdict}",
            "failed",
            failed(ra),
            failed(rb),
            "",
            "0"
        );
        let text = |r: &Json, k: &str| r.get(k).and_then(Json::as_str).unwrap_or("-").to_string();
        let mut exact = vec![(
            "sim_digest".to_string(),
            text(ra, "sim_digest"),
            text(rb, "sim_digest"),
        )];
        for k in EXACT {
            let get = |r: &Json| r.get("per_layer")?.get(k)?.get("value").map(|v| v.render());
            if let (Some(x), Some(y)) = (get(ra), get(rb)) {
                exact.push((k.to_string(), x, y));
            }
        }
        for (k, x, y) in exact {
            let same = if x == y { "identical" } else { "DIFFERS" };
            println!("{name:<13} {k:<40} {x:>18} {y:>18}  {same}");
        }
    }
    Ok(any_fail)
}

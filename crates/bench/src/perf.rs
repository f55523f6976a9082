//! Self-timing harness for the sweep engine: measures wall-clock and
//! simulator-event throughput of representative workloads and writes the
//! perf trajectory to `BENCH_engine.json` at the repository root.
//!
//! The metrics:
//!
//! * `wall_secs` — wall-clock of the measured closure,
//! * `sim_events` — discrete events applied by every `mpisim::World::run`
//!   during the closure (via [`mpisim::sim_events_total`]), the natural
//!   unit of simulator work (independent of host speed),
//! * `replayed_events` — events a memo hit stood in for (credited by
//!   `adcl::simmemo` when a cached outcome replaces a fresh simulation),
//! * `queue_ops` — raw event-queue operations for entries that exercise
//!   the queue directly rather than through `World::run` (0 elsewhere),
//! * `events_per_sec` — *effective* throughput, `(sim_events +
//!   replayed_events + queue_ops) / wall_secs`; the figure tracked across
//!   commits,
//! * `allocs_per_event` — payload-buffer allocations (pool misses, from
//!   `simcore::stats::payload_allocs`) per fresh simulated event; the zero-copy payload engine drives this toward 0,
//! * `speedup_vs_serial` — wall-clock of the same-named `jobs = 1` row
//!   divided by this row's wall-clock (1 for the serial row itself),
//! * schedule-cache and sim-memo hit/miss totals over the session.
//!
//! JSON is written by hand — the workspace is dependency-free by design.

use std::time::Instant;

/// One measured workload.
#[derive(Debug, Clone)]
pub struct PerfEntry {
    /// Workload name (stable across commits; used as the JSON key).
    pub name: String,
    /// Worker threads used (1 = serial baseline).
    pub jobs: usize,
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// Simulator events applied during the measurement (fresh runs only).
    pub sim_events: u64,
    /// Events served from the sim-memo cache instead of re-simulated.
    pub replayed_events: u64,
    /// Raw event-queue operations (for microbenchmarks that drive the
    /// queue directly; 0 for full-simulation workloads).
    pub queue_ops: u64,
    /// `(sim_events + replayed_events + queue_ops) / wall_secs`.
    pub events_per_sec: f64,
    /// Payload-buffer allocations per fresh simulated event.
    pub allocs_per_event: f64,
    /// Wall-clock speedup vs the same workload's `jobs = 1` row, if one
    /// was measured earlier in the session.
    pub speedup_vs_serial: Option<f64>,
    /// True when the row requested more workers than the host has hardware
    /// threads, so the hardware clamp ran it at reduced or serial
    /// parallelism. Clamped rows measure host
    /// constraint, not engine scaling: consumers (the `verify.sh` scaling
    /// gate) must skip them instead of reading ~1x as a regression.
    pub clamped: bool,
}

/// Does a `jobs`-thread row exceed the host's real hardware parallelism?
fn clamped_on_this_host(jobs: usize) -> bool {
    jobs > simcore::par::hardware_parallelism()
}

/// A perf measurement session accumulating [`PerfEntry`] rows.
#[derive(Debug, Default)]
pub struct PerfReport {
    entries: Vec<PerfEntry>,
    sections: Vec<(String, String)>,
}

impl PerfReport {
    /// Empty report; also resets the schedule-cache and sim-memo counters
    /// so the final hit ratios describe exactly this session.
    pub fn new() -> PerfReport {
        nbc::cache::reset_stats();
        adcl::simmemo::reset_stats();
        PerfReport {
            entries: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Attach (or replace) an extra top-level JSON section, e.g.
    /// `adcld_serve`. `body` must be a rendered JSON value; it is embedded
    /// verbatim under `name` by [`PerfReport::to_json`].
    pub fn set_section(&mut self, name: &str, body: String) {
        if let Some(s) = self.sections.iter_mut().find(|(n, _)| n == name) {
            s.1 = body;
        } else {
            self.sections.push((name.to_string(), body));
        }
    }

    /// Time `body`, attributing all simulator events, memo replays and
    /// payload allocations it triggers. Returns the entry (also kept in
    /// the report).
    pub fn measure(&mut self, name: &str, jobs: usize, body: impl FnOnce()) -> PerfEntry {
        let mut body = Some(body);
        self.record_sample(name, jobs, 1, 0, &mut || (body.take().unwrap())())
    }

    /// Like [`PerfReport::measure`] but runs `body` `passes` times and
    /// keeps the fastest wall-clock sample (events and allocations are
    /// identical across passes for deterministic workloads). Sub-10 ms
    /// workloads on a loaded host are noisy enough that a single sample
    /// can swing ±40%; the minimum over a few passes is the standard
    /// stable estimator, and the regression guard in `scripts/verify.sh`
    /// depends on it.
    pub fn measure_best_of(
        &mut self,
        name: &str,
        jobs: usize,
        passes: usize,
        body: impl Fn(),
    ) -> PerfEntry {
        assert!(passes >= 1);
        self.record_sample(name, jobs, passes, 0, &mut || body())
    }

    /// Like [`PerfReport::measure_best_of`] for workloads that exercise
    /// the event queue directly (no `World::run`, so `sim_events` stays 0):
    /// `queue_ops` is the number of queue operations one pass performs, and
    /// it is folded into `events_per_sec` so the entry reports a meaningful
    /// throughput instead of 0.0.
    pub fn measure_best_of_ops(
        &mut self,
        name: &str,
        jobs: usize,
        passes: usize,
        queue_ops: u64,
        body: impl Fn(),
    ) -> PerfEntry {
        assert!(passes >= 1);
        self.record_sample(name, jobs, passes, queue_ops, &mut || body())
    }

    /// Record an entry whose wall-clock was measured externally — used
    /// when samples for several `jobs` values must be interleaved
    /// (round-robin) so slow host-load drift cancels across rows instead
    /// of biasing whichever row is measured last. `speedup_vs_serial` is
    /// resolved against the report's existing `jobs == 1` row of the same
    /// name, exactly as the internally timed paths do.
    pub fn record_timed(
        &mut self,
        name: &str,
        jobs: usize,
        wall_secs: f64,
        sim_events: u64,
    ) -> PerfEntry {
        let speedup_vs_serial = if jobs == 1 {
            Some(1.0)
        } else {
            self.entries
                .iter()
                .rev()
                .find(|e| e.name == name && e.jobs == 1)
                .filter(|_| wall_secs > 0.0)
                .map(|serial| serial.wall_secs / wall_secs)
        };
        let entry = PerfEntry {
            name: name.to_string(),
            jobs,
            wall_secs,
            sim_events,
            replayed_events: 0,
            queue_ops: 0,
            events_per_sec: if wall_secs > 0.0 {
                sim_events as f64 / wall_secs
            } else {
                0.0
            },
            allocs_per_event: 0.0,
            speedup_vs_serial,
            clamped: clamped_on_this_host(jobs),
        };
        self.entries.push(entry.clone());
        entry
    }

    fn record_sample(
        &mut self,
        name: &str,
        jobs: usize,
        passes: usize,
        queue_ops: u64,
        body: &mut dyn FnMut(),
    ) -> PerfEntry {
        let mut wall_secs = f64::INFINITY;
        let mut sim_events = 0;
        let mut allocs = 0;
        let mut replayed_events = 0;
        for _ in 0..passes {
            let ev0 = mpisim::sim_events_total();
            let alloc0 = simcore::stats::payload_allocs();
            let replay0 = adcl::simmemo::stats().replayed_events;
            let t0 = Instant::now();
            body();
            let wall = t0.elapsed().as_secs_f64();
            if wall < wall_secs {
                wall_secs = wall;
                sim_events = mpisim::sim_events_total() - ev0;
                allocs = simcore::stats::payload_allocs() - alloc0;
                replayed_events = adcl::simmemo::stats().replayed_events - replay0;
            }
        }
        let effective = sim_events + replayed_events + queue_ops;
        let speedup_vs_serial = if jobs == 1 {
            Some(1.0)
        } else {
            self.entries
                .iter()
                .rev()
                .find(|e| e.name == name && e.jobs == 1)
                .filter(|_| wall_secs > 0.0)
                .map(|serial| serial.wall_secs / wall_secs)
        };
        let entry = PerfEntry {
            name: name.to_string(),
            jobs,
            wall_secs,
            sim_events,
            replayed_events,
            queue_ops,
            events_per_sec: if wall_secs > 0.0 {
                effective as f64 / wall_secs
            } else {
                0.0
            },
            allocs_per_event: if sim_events > 0 {
                allocs as f64 / sim_events as f64
            } else {
                0.0
            },
            speedup_vs_serial,
            clamped: clamped_on_this_host(jobs),
        };
        self.entries.push(entry.clone());
        entry
    }

    /// Measured entries, in measurement order.
    pub fn entries(&self) -> &[PerfEntry] {
        &self.entries
    }

    /// Speedup of the last entry named `name` at `jobs` threads relative
    /// to the same workload at 1 thread, if both were measured.
    pub fn speedup(&self, name: &str) -> Option<f64> {
        let serial = self
            .entries
            .iter()
            .rev()
            .find(|e| e.name == name && e.jobs == 1)?;
        let par = self
            .entries
            .iter()
            .rev()
            .find(|e| e.name == name && e.jobs > 1)?;
        if par.wall_secs > 0.0 {
            Some(serial.wall_secs / par.wall_secs)
        } else {
            None
        }
    }

    /// Render the report as a JSON document (schedule-cache, sim-memo and
    /// registry stats are sampled at render time). Schema v3 added a
    /// `metrics` block (the full `simcore::metrics` registry snapshot —
    /// process-lifetime totals, not session deltas); v4 added the
    /// per-entry `queue_ops` field and folds it into `events_per_sec` for
    /// queue-microbenchmark entries; v5 makes `host_threads` the real
    /// detected hardware parallelism (`simcore::par::hardware_parallelism`,
    /// affinity-aware with a `/proc/cpuinfo` fallback — the old
    /// `available_parallelism().map_or(1, …)` silently reported 1 whenever
    /// detection errored) and adds `pool_threads`, the number of persistent
    /// sweep workers actually spawned this session. Consumers (the
    /// verify.sh scaling gate) use `host_threads` to decide which speedup
    /// expectations are physically meaningful on this host; v6 moves that
    /// decision into the report itself with the per-entry `clamped` flag
    /// (`jobs` exceeded the host's hardware threads), so gates skip
    /// clamped rows explicitly instead of by host heuristic; v7 adds
    /// optional named sections ([`PerfReport::set_section`]) — the first
    /// consumer is `adcld_serve`, the tuning-daemon load-generator results
    /// (requests/sec and p50/p99 latency for cold/warm/mixed traffic); v8
    /// adds the `racing` section (brute-force vs racing-selection sweep
    /// comparison: simulated events per decision, eliminated candidates,
    /// and the winner-parity verdict the verify.sh gate keys on).
    pub fn to_json(&self) -> String {
        let (hits, misses) = nbc::cache::stats();
        let memo = adcl::simmemo::stats();
        let mut s = String::from("{\n");
        s.push_str("  \"schema\": \"adcl-bench-engine-v8\",\n");
        s.push_str(&format!(
            "  \"host_threads\": {},\n",
            simcore::par::hardware_parallelism()
        ));
        s.push_str(&format!(
            "  \"pool_threads\": {},\n",
            simcore::par::pool_size()
        ));
        s.push_str(&format!(
            "  \"schedule_cache\": {{\"hits\": {hits}, \"misses\": {misses}}},\n"
        ));
        s.push_str(&format!(
            "  \"sim_memo\": {{\"hits\": {}, \"misses\": {}, \"replayed_events\": {}}},\n",
            memo.hits, memo.misses, memo.replayed_events
        ));
        s.push_str(&format!(
            "  \"payload_allocs\": {},\n",
            simcore::stats::payload_allocs()
        ));
        let snap = simcore::metrics::snapshot();
        s.push_str("  \"metrics\": {");
        for (i, (name, reading)) in snap.iter().enumerate() {
            let comma = if i + 1 == snap.len() { "" } else { "," };
            let rendered = match *reading {
                simcore::metrics::Reading::Counter(v) | simcore::metrics::Reading::Gauge(v) => {
                    v.to_string()
                }
                simcore::metrics::Reading::Histogram { count, sum, max } => {
                    format!("{{\"count\": {count}, \"sum\": {sum}, \"max\": {max}}}")
                }
            };
            s.push_str(&format!("\n    {}: {rendered}{comma}", json_str(name)));
        }
        s.push_str("\n  },\n");
        for (name, body) in &self.sections {
            s.push_str(&format!("  {}: {body},\n", json_str(name)));
        }
        s.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 == self.entries.len() { "" } else { "," };
            let speedup = match e.speedup_vs_serial {
                Some(v) => format!("{v:.3}"),
                None => "null".to_string(),
            };
            s.push_str(&format!(
                "    {{\"name\": {}, \"jobs\": {}, \"wall_secs\": {:.6}, \"sim_events\": {}, \"replayed_events\": {}, \"queue_ops\": {}, \"events_per_sec\": {:.1}, \"allocs_per_event\": {:.6}, \"speedup_vs_serial\": {}, \"clamped\": {}}}{}\n",
                json_str(&e.name),
                e.jobs,
                e.wall_secs,
                e.sim_events,
                e.replayed_events,
                e.queue_ops,
                e.events_per_sec,
                e.allocs_per_event,
                speedup,
                e.clamped,
                comma
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Write the JSON report to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Minimal JSON string escaping (names are ASCII identifiers in practice).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_records_entry() {
        let mut r = PerfReport::new();
        let e = r.measure("noop", 1, || {});
        assert_eq!(e.name, "noop");
        assert_eq!(r.entries().len(), 1);
        assert!(e.wall_secs >= 0.0);
        assert_eq!(e.speedup_vs_serial, Some(1.0));
    }

    #[test]
    fn speedup_needs_both_rows() {
        let mut r = PerfReport::new();
        r.measure("w", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(r.speedup("w").is_none());
        let e = r.measure("w", 4, || {});
        assert!(r.speedup("w").is_some());
        // The per-entry field agrees with the report-level query.
        assert_eq!(e.speedup_vs_serial, r.speedup("w"));
    }

    #[test]
    fn parallel_row_without_serial_baseline_has_no_speedup() {
        let mut r = PerfReport::new();
        let e = r.measure("lonely", 8, || {});
        assert_eq!(e.speedup_vs_serial, None);
    }

    #[test]
    fn clamped_tracks_hardware_parallelism() {
        let hw = simcore::par::hardware_parallelism();
        let mut r = PerfReport::new();
        // A serial row can never be clamped; a row requesting more workers
        // than the host has hardware threads always is.
        assert!(!r.measure("c", 1, || {}).clamped);
        assert!(r.measure("c", hw + 1, || {}).clamped);
        assert!(!r.record_timed("c", hw, 0.001, 10).clamped);
        assert!(r.record_timed("c", hw * 2, 0.001, 10).clamped);
    }

    #[test]
    fn queue_ops_fold_into_events_per_sec() {
        let mut r = PerfReport::new();
        let e = r.measure_best_of_ops("q", 1, 2, 1000, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert_eq!(e.queue_ops, 1000);
        assert!(
            e.events_per_sec > 0.0,
            "queue-op entries must not report 0.0 ev/s"
        );
        // Full-simulation entries keep queue_ops at 0.
        let plain = r.measure("p", 1, || {});
        assert_eq!(plain.queue_ops, 0);
    }

    #[test]
    fn json_is_wellformed_enough() {
        let mut r = PerfReport::new();
        r.measure("a\"b", 1, || {});
        r.set_section("adcld_serve", "{\"cold\":{\"requests\":8}}".into());
        let j = r.to_json();
        assert!(j.starts_with("{\n"));
        assert!(j.trim_end().ends_with('}'));
        assert!(j.contains("\\\""));
        assert!(j.contains("\"entries\""));
        assert!(j.contains("adcl-bench-engine-v8"));
        assert!(j.contains("\"adcld_serve\""));
        assert!(j.contains("\"clamped\""));
        assert!(j.contains("\"host_threads\""));
        assert!(j.contains("\"pool_threads\""));
        assert!(j.contains("\"queue_ops\""));
        assert!(j.contains("\"sim_memo\""));
        assert!(j.contains("\"metrics\""));
        assert!(j.contains("\"allocs_per_event\""));
        assert!(j.contains("\"speedup_vs_serial\""));
        // The whole report must parse as a standalone JSON document.
        simcore::json::parse(&j).expect("report is valid JSON");
    }
}

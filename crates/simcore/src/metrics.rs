//! Process-wide registry of named counters, gauges and histograms.
//!
//! Every subsystem that wants a counter registers it here by name instead of
//! declaring its own `static AtomicU64` (the pattern `PAYLOAD_ALLOCS` in
//! [`crate::stats`] used before this module existed). The registry gives one
//! place to snapshot, reset and report *all* engine metrics — the
//! `benchmark/` ledger reads it by name around every workload.
//!
//! Naming convention: `crate.subsystem.metric`, lowercase, dot-separated —
//! e.g. `mpisim.rdv_stalls`, `nbc.cache.hits`, `simcore.payload_allocs`.
//!
//! Design notes:
//!
//! * Handles are `&'static` references to leaked allocations; a metric, once
//!   registered, lives for the life of the process. Call sites cache the
//!   handle in a `OnceLock` so the registry lock is taken once per site, not
//!   per increment.
//! * All updates are relaxed atomics: metrics never participate in event
//!   ordering and must never perturb simulated timing.
//! * Hot per-event counters in the simulator accumulate in plain fields and
//!   flush here once per `World::run`, so parallel sweeps don't contend on a
//!   shared cache line millions of times per run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-or-max value (queue depths, high-water marks).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Keep the larger of the current and observed value (high-water mark).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Number of power-of-two buckets a [`Histogram`] keeps: bucket `i` counts
/// observations `v` with `floor(log2(max(v,1))) == i`, i.e. `[2^i, 2^(i+1))`.
pub const HIST_BUCKETS: usize = 64;

/// A log2-bucketed histogram of u64 observations (e.g. stall nanoseconds).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); HIST_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let b = 63 - v.max(1).leading_zeros() as usize;
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation (0 if empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean observation (0.0 if empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Count in log2 bucket `i` (`[2^i, 2^(i+1))`).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Drain a [`LocalHistogram`] into this shared histogram. The local
    /// accumulator is zeroed, so repeated flushes never double-count.
    pub fn absorb(&self, local: &mut LocalHistogram) {
        if local.count == 0 {
            return;
        }
        for (i, b) in local.buckets.iter_mut().enumerate() {
            if *b > 0 {
                self.buckets[i].fetch_add(*b, Ordering::Relaxed);
                *b = 0;
            }
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        self.sum.fetch_add(local.sum, Ordering::Relaxed);
        self.max.fetch_max(local.max, Ordering::Relaxed);
        local.count = 0;
        local.sum = 0;
        local.max = 0;
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// An unsynchronized histogram for hot-path accumulation: the same log2
/// bucketing as [`Histogram`] but plain `u64` fields, so recording costs no
/// atomic RMW and shares no cache line with other workers. Owners (one per
/// `World`) record locally and [`Histogram::absorb`] the contents into the
/// shared registry histogram once per run — the merge is a commutative sum,
/// so the flushed registry totals are identical for every interleaving of
/// workers (and therefore for every `jobs` value).
#[derive(Debug)]
pub struct LocalHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LocalHistogram {
    /// A fresh, empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation (no atomics).
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = 63 - v.max(1).leading_zeros() as usize;
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of observations accumulated since the last flush.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations accumulated since the last flush.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

fn registry() -> std::sync::MutexGuard<'static, HashMap<&'static str, Metric>> {
    static REG: OnceLock<Mutex<HashMap<&'static str, Metric>>> = OnceLock::new();
    // Tolerate poisoning: a kind-mismatch panic under the lock leaves the
    // map itself consistent (the entry insert completed first).
    REG.get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Look up (registering on first use) the counter named `name`.
///
/// Panics if `name` is already registered as a different metric kind.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = registry();
    match reg
        .entry(name)
        .or_insert_with(|| Metric::Counter(Box::leak(Box::default())))
    {
        Metric::Counter(c) => c,
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Look up (registering on first use) the gauge named `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut reg = registry();
    match reg
        .entry(name)
        .or_insert_with(|| Metric::Gauge(Box::leak(Box::default())))
    {
        Metric::Gauge(g) => g,
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Look up (registering on first use) the histogram named `name`.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = registry();
    match reg
        .entry(name)
        .or_insert_with(|| Metric::Histogram(Box::leak(Box::default())))
    {
        Metric::Histogram(h) => h,
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// A point-in-time reading of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Reading {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram summary: observation count, sum, max.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: u64,
        /// Largest observation.
        max: u64,
    },
}

impl Reading {
    /// The scalar most useful for reporting: the value for counters and
    /// gauges, the observation count for histograms.
    pub fn value(&self) -> u64 {
        match *self {
            Reading::Counter(v) | Reading::Gauge(v) => v,
            Reading::Histogram { count, .. } => count,
        }
    }
}

/// Snapshot every registered metric, sorted by name (deterministic output).
pub fn snapshot() -> Vec<(&'static str, Reading)> {
    let reg = registry();
    let mut out: Vec<(&'static str, Reading)> = reg
        .iter()
        .map(|(&name, m)| {
            let r = match m {
                Metric::Counter(c) => Reading::Counter(c.get()),
                Metric::Gauge(g) => Reading::Gauge(g.get()),
                Metric::Histogram(h) => Reading::Histogram {
                    count: h.count(),
                    sum: h.sum(),
                    max: h.max(),
                },
            };
            (name, r)
        })
        .collect();
    out.sort_by_key(|&(name, _)| name);
    out
}

/// Reset every registered metric to zero (for per-session reporting).
pub fn reset_all() {
    let reg = registry();
    for m in reg.values() {
        match m {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

/// A scoped view over the registry: captures a baseline at construction and
/// reports per-scope deltas, so one `World` (or one measurement) can account
/// its own share of the process-wide totals.
pub struct Scope {
    base: Vec<(&'static str, Reading)>,
}

impl Scope {
    /// Capture the current registry state as the baseline.
    pub fn begin() -> Scope {
        Scope { base: snapshot() }
    }

    /// Metrics that changed since the baseline, as `(name, delta)` pairs
    /// sorted by name. Counter/histogram deltas are differences; gauges
    /// report their current value (a level, not a flow). Metrics registered
    /// after the baseline appear with their full value.
    pub fn delta(&self) -> Vec<(&'static str, u64)> {
        let now = snapshot();
        let mut out = Vec::new();
        for (name, reading) in now {
            let base = self
                .base
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, r)| r.value());
            let v = match reading {
                Reading::Gauge(g) => g,
                r => r.value().saturating_sub(base),
            };
            if v > 0 {
                out.push((name, v));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_registers_and_counts() {
        let c = counter("test.metrics.counter_a");
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        // Same name returns the same handle.
        assert_eq!(counter("test.metrics.counter_a").get(), before + 5);
    }

    #[test]
    fn gauge_max_and_set() {
        let g = gauge("test.metrics.gauge_a");
        g.set(3);
        g.record_max(10);
        g.record_max(7);
        assert_eq!(g.get(), 10);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn histogram_buckets_log2() {
        let h = histogram("test.metrics.hist_a");
        h.record(0); // bucket 0 (clamped to 1)
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(1023); // bucket 9
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1026);
        assert_eq!(h.max(), 1023);
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(9), 1);
        assert!((h.mean() - 1026.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn local_histogram_absorbs_without_double_count() {
        let h = histogram("test.metrics.hist_local");
        let mut l = LocalHistogram::new();
        l.record(1);
        l.record(2);
        l.record(1023);
        assert_eq!(l.count(), 3);
        assert_eq!(l.sum(), 1026);
        h.absorb(&mut l);
        assert!(l.is_empty());
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1026);
        assert_eq!(h.max(), 1023);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(9), 1);
        // Flushing an already-drained local is a no-op.
        h.absorb(&mut l);
        assert_eq!(h.count(), 3);
        // A second fill/flush accumulates.
        l.record(4);
        h.absorb(&mut l);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1030);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        counter("test.metrics.kind_clash");
        gauge("test.metrics.kind_clash");
    }

    #[test]
    fn snapshot_is_sorted_and_scope_deltas() {
        let c = counter("test.metrics.scope_c");
        let scope = Scope::begin();
        c.add(7);
        let d = scope.delta();
        assert!(d.contains(&("test.metrics.scope_c", 7)));
        let snap = snapshot();
        let names: Vec<_> = snap.iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}

//! Robust statistics used by the ADCL measurement filter and by the
//! benchmark harness.
//!
//! ADCL measures the execution time of alternative implementations while the
//! application runs, and individual measurements are polluted by operating
//! system noise and process-arrival skew (Faraj et al.). The selection logic
//! therefore needs robust location estimates; this module provides medians,
//! interquartile-range (IQR) outlier rejection and trimmed means, mirroring
//! the statistical filtering described for ADCL (Benkert et al.).

use crate::metrics::{self, Counter};
use crate::time::SimTime;
use std::sync::OnceLock;

/// The `simcore.payload_allocs` counter: payload-buffer heap allocations,
/// one per `mpisim::PooledBuf`. Lives on the [`metrics`] registry; the
/// two functions below are thin shims kept so call sites don't churn.
fn payload_alloc_counter() -> &'static Counter {
    static C: OnceLock<&'static Counter> = OnceLock::new();
    C.get_or_init(|| metrics::counter("simcore.payload_allocs"))
}

/// Record one payload-buffer heap allocation.
#[inline]
pub fn record_payload_alloc() {
    payload_alloc_counter().inc();
}

/// Total payload-buffer heap allocations since process start.
pub fn payload_allocs() -> u64 {
    payload_alloc_counter().get()
}

/// Arithmetic mean of a sample (0 for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample variance (unbiased, n-1 denominator); 0 for fewer than 2 samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Quantile via linear interpolation on the sorted sample, `q` in `[0, 1]`.
/// Returns 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median of a sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Remove outliers using Tukey's fences: keep values in
/// `[Q1 - k*IQR, Q3 + k*IQR]`. The conventional `k` is 1.5.
///
/// Returns the retained values (order preserved). If the filter would remove
/// everything (degenerate input), the input is returned unchanged.
pub fn iqr_filter(xs: &[f64], k: f64) -> Vec<f64> {
    if xs.len() < 4 {
        return xs.to_vec();
    }
    let q1 = quantile(xs, 0.25);
    let q3 = quantile(xs, 0.75);
    let iqr = q3 - q1;
    let lo = q1 - k * iqr;
    let hi = q3 + k * iqr;
    let kept: Vec<f64> = xs.iter().copied().filter(|&x| x >= lo && x <= hi).collect();
    if kept.is_empty() {
        xs.to_vec()
    } else {
        kept
    }
}

/// Trimmed mean: drop the `trim` fraction of smallest and largest samples
/// (each side) before averaging. `trim` in `[0, 0.5)`; aggressive fractions
/// are clamped so at least one sample always survives (an over-trim on a
/// tiny sample set must degrade to the median, never panic or return NaN).
pub fn trimmed_mean(xs: &[f64], trim: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let drop = (((sorted.len() as f64) * trim).floor() as usize).min((sorted.len() - 1) / 2);
    let keep = &sorted[drop..sorted.len() - drop];
    if keep.is_empty() {
        median(&sorted)
    } else {
        mean(keep)
    }
}

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Used where keeping every sample would be wasteful, e.g. per-message
/// latency statistics across millions of simulated messages.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Maximum observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.max)
        }
    }
}

/// Convert a slice of [`SimTime`] durations to seconds for statistics.
pub fn times_to_secs(ts: &[SimTime]) -> Vec<f64> {
    ts.iter().map(|t| t.as_secs_f64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn iqr_rejects_spikes() {
        // 19 well-behaved samples plus one huge OS-noise spike.
        let mut xs: Vec<f64> = (0..19).map(|i| 100.0 + i as f64).collect();
        xs.push(10_000.0);
        let kept = iqr_filter(&xs, 1.5);
        assert_eq!(kept.len(), 19);
        assert!(kept.iter().all(|&x| x < 1000.0));
    }

    #[test]
    fn iqr_keeps_clean_data() {
        let xs: Vec<f64> = (0..50).map(|i| 10.0 + (i % 5) as f64).collect();
        assert_eq!(iqr_filter(&xs, 1.5).len(), 50);
    }

    #[test]
    fn iqr_degenerate_returns_input() {
        let xs = [1.0, 1.0];
        assert_eq!(iqr_filter(&xs, 1.5), vec![1.0, 1.0]);
    }

    #[test]
    fn trimmed_mean_robust() {
        let mut xs: Vec<f64> = vec![10.0; 18];
        xs.push(0.0);
        xs.push(1000.0);
        let tm = trimmed_mean(&xs, 0.1);
        assert!((tm - 10.0).abs() < 1e-9, "tm={tm}");
    }

    #[test]
    fn trimmed_mean_overtrim_never_panics() {
        // trim=0.7 on 3 samples asks to drop 2 per tail; the clamp keeps
        // the middle sample (the median) instead of slicing out of range.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 30.0], 0.7), 2.0);
        assert_eq!(trimmed_mean(&[5.0], 0.49), 5.0);
        assert_eq!(trimmed_mean(&[1.0, 3.0], 0.5), 2.0);
        assert!(trimmed_mean(&[], 0.3).is_finite());
    }

    #[test]
    fn welford_matches_batch() {
        let xs = [1.5, 2.5, 3.5, 10.0, -4.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - mean(&xs)).abs() < 1e-12);
        assert!((w.variance() - variance(&xs)).abs() < 1e-9);
        assert_eq!(w.min(), Some(-4.0));
        assert_eq!(w.max(), Some(10.0));
        assert_eq!(w.count(), 5);
    }

    #[test]
    fn welford_empty() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.min(), None);
    }

    #[test]
    fn payload_alloc_counter_accumulates() {
        // Other tests in the process may also record allocations, so only
        // assert on the delta produced here.
        let before = payload_allocs();
        record_payload_alloc();
        record_payload_alloc();
        assert!(payload_allocs() >= before + 2);
    }
}

//! Summary statistics for the ledger, and the timer's noise floor.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because the driver judges run-to-run spread with
//! exactly that function and `ledger compare` must agree with it.
//! Latency percentiles use the nearest-rank rule and are only reported when
//! at least [`MIN_BEYOND`] samples lie beyond them.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// A percentile is reported only with this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// A micro-kernel sample shorter than this is refused, not printed: below
/// it, timer resolution and scheduling noise are a visible share of the
/// number.
pub const MIN_SAMPLE: Duration = Duration::from_millis(200);

/// Median and quartiles of a set of samples, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Exclusive-method quantile at position `k/4` of already sorted data.
fn quartile_sorted(v: &[f64], k: usize) -> f64 {
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    // Python: j = k*(n+1) // 4 clamped to [1, n-1]; delta = k*(n+1) - 4*j.
    let pos = k * (n + 1);
    let j = (pos / 4).clamp(1, n - 1);
    let delta = pos as f64 - 4.0 * j as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// Median and quartiles. Panics on an empty slice: every caller has at
/// least one timed repetition by construction.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "summarize needs at least one sample");
    let v = sorted(xs);
    Summary {
        median: quartile_sorted(&v, 2),
        q1: quartile_sorted(&v, 1),
        q3: quartile_sorted(&v, 3),
        n: v.len(),
    }
}

/// Median alone.
pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).median
}

/// 1-based nearest rank of percentile `p` (0 < p < 100) among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of a non-empty sample, however few beyond it.
pub fn nearest_rank(xs: &[f64], p: f64) -> f64 {
    sorted(xs)[rank(xs.len(), p) - 1]
}

/// Nearest-rank percentile `p` if at least [`MIN_BEYOND`] samples lie
/// beyond its rank; `None` otherwise.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    (n > 0 && n - rank(n, p) >= MIN_BEYOND).then(|| nearest_rank(xs, p))
}

/// What the clock itself costs: the smallest non-zero step `Instant` shows
/// and the cost of one empty, `black_box`ed loop iteration. Every reported
/// time should be orders of magnitude above both.
#[derive(Debug, Clone, Copy)]
pub struct NoiseFloor {
    pub timer_resolution_ns: f64,
    pub timer_read_ns: f64,
    pub empty_loop_ns: f64,
}

pub fn noise_floor() -> NoiseFloor {
    let mut steps = Vec::new();
    for _ in 0..2_000 {
        let a = Instant::now();
        let mut b = Instant::now();
        while b == a {
            b = Instant::now();
        }
        steps.push((b - a).as_nanos() as f64);
    }
    const READS: u32 = 200_000;
    let t = Instant::now();
    for _ in 0..READS {
        black_box(Instant::now());
    }
    let timer_read_ns = t.elapsed().as_nanos() as f64 / READS as f64;
    const SPINS: u64 = 20_000_000;
    let t = Instant::now();
    for i in 0..SPINS {
        black_box(i);
    }
    let empty_loop_ns = t.elapsed().as_nanos() as f64 / SPINS as f64;
    NoiseFloor {
        timer_resolution_ns: sorted(&steps)[0],
        timer_read_ns,
        empty_loop_ns,
    }
}

/// Times micro-kernels: auto-scales the iteration count until one sample
/// lasts at least the floor, then takes `samples` samples.
#[derive(Debug, Clone, Copy)]
pub struct KernelTimer {
    floor: Duration,
    pub samples: usize,
}

impl KernelTimer {
    /// A measuring timer: every sample lasts at least [`MIN_SAMPLE`].
    pub fn measuring(samples: usize) -> KernelTimer {
        KernelTimer {
            floor: MIN_SAMPLE,
            samples,
        }
    }

    /// `--check` only: runs each kernel once, briefly, to prove it runs.
    /// Its numbers are not measurements and are never written as such.
    pub fn smoke() -> KernelTimer {
        KernelTimer {
            floor: Duration::from_millis(1),
            samples: 1,
        }
    }

    pub fn is_measuring(&self) -> bool {
        self.floor >= MIN_SAMPLE
    }

    /// How long a hand-rolled sample loop (one that cannot be expressed as
    /// `body(iters)`) must keep going.
    pub fn floor(&self) -> Duration {
        self.floor
    }

    /// Time `body(iters)`, which must do work proportional to `iters` and
    /// return how many units of work it did; summarise **nanoseconds per
    /// unit**. A sample that comes in under the floor (the host sped up
    /// after calibration) is re-scaled and retaken, never kept.
    pub fn time(&self, mut body: impl FnMut(u64) -> u64) -> Summary {
        let mut run = |iters: u64| {
            let t = Instant::now();
            let units = body(iters);
            (t.elapsed(), units.max(1))
        };
        // Calibrate: double until a probe is long enough to scale from.
        let mut iters: u64 = 1;
        let (mut probe, _) = run(iters);
        while probe < self.floor / 8 {
            iters = iters.saturating_mul(2);
            probe = run(iters).0;
        }
        let scale = self.floor.as_secs_f64() * 1.15 / probe.as_secs_f64();
        if scale > 1.0 {
            iters = (iters as f64 * scale).ceil() as u64;
        }
        let mut per_unit = Vec::with_capacity(self.samples);
        while per_unit.len() < self.samples {
            let (d, units) = run(iters);
            if d < self.floor {
                iters += iters / 4 + 1;
                continue;
            }
            per_unit.push(d.as_nanos() as f64 / units as f64);
        }
        summarize(&per_unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.0, 2.0, 3.0, 3));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let s = summarize(&[8.0, 1.0, 4.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 3.0, 7.0));
        // Two samples: Python extrapolates to [0.75, 1.5, 2.25] for [1, 2].
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = summarize(&[7.5]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.5, 7.5, 7.5, 1));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, ten beyond.
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        // p99 of 100 samples: rank 99, one beyond.
        assert_eq!(percentile(&xs, 99.0), None);
        assert_eq!(percentile(&xs[..99], 90.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        // The median of 25 samples has twelve beyond it; of 15, seven.
        let few: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(percentile(&few, 50.0), Some(13.0));
        assert_eq!(percentile(&few[..15], 50.0), None);
    }

    #[test]
    fn kernel_samples_are_never_short() {
        // Each iteration sleeps, so per-iteration time is known and the
        // total must have been scaled to reach the floor.
        let mut total_iters = 0u64;
        let timer = KernelTimer::measuring(2);
        assert!(timer.is_measuring() && !KernelTimer::smoke().is_measuring());
        let s = timer.time(|iters| {
            total_iters += iters;
            std::thread::sleep(Duration::from_millis(5) * iters as u32);
            iters
        });
        assert_eq!(s.n, 2);
        assert!(s.median >= 5e6, "per-iteration time {} ns", s.median);
        assert!(total_iters as f64 * 5e6 >= 2.0 * MIN_SAMPLE.as_nanos() as f64);
    }

    #[test]
    fn noise_floor_is_positive_and_small() {
        let f = noise_floor();
        assert!(f.timer_resolution_ns > 0.0 && f.timer_resolution_ns < 1e6);
        assert!(f.timer_read_ns > 0.0 && f.empty_loop_ns >= 0.0);
    }
}

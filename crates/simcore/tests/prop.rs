//! Property-based tests for the simulation substrate, on the in-tree
//! `simcore::check` harness (no external crates).

use simcore::check::run_cases;
use simcore::queue::EventQueue;
use simcore::resource::FifoResource;
use simcore::stats;
use simcore::time::SimTime;

/// Events always pop in non-decreasing time order, regardless of the
/// insertion order.
#[test]
fn event_queue_sorted() {
    run_cases("event_queue_sorted", 256, |g| {
        let times = g.vec(1, 200, |g| g.u64_in(0, 1_000_000));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            popped += 1;
        }
        assert_eq!(popped, times.len());
    });
}

/// Equal-time events pop in insertion (FIFO) order.
#[test]
fn event_queue_fifo_on_ties() {
    run_cases("event_queue_fifo_on_ties", 256, |g| {
        let n = g.usize_in(1, 100);
        let t = g.u64_in(0, 1000);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime::from_nanos(t), i);
        }
        for i in 0..n {
            assert_eq!(q.pop().unwrap().1, i);
        }
    });
}

/// A FIFO resource never serves two jobs at once and never reorders.
#[test]
fn fifo_resource_serializes() {
    run_cases("fifo_resource_serializes", 256, |g| {
        let jobs = g.vec(1, 100, |g| (g.u64_in(0, 10_000), g.u64_in(1, 500)));
        let mut r = FifoResource::new();
        let mut arrivals: Vec<(u64, u64)> = jobs.clone();
        arrivals.sort_by_key(|&(a, _)| a);
        let mut prev_drain = SimTime::ZERO;
        let mut total = SimTime::ZERO;
        for (arrive, service) in arrivals {
            let grant = r.submit(SimTime::from_nanos(arrive), SimTime::from_nanos(service));
            // starts only after the previous job drained and after arrival
            assert!(grant.start >= prev_drain.min(grant.start));
            assert!(grant.start >= SimTime::from_nanos(arrive));
            assert!(grant.drain >= prev_drain, "FIFO order violated");
            assert_eq!(grant.drain, grant.start + SimTime::from_nanos(service));
            prev_drain = grant.drain;
            total += SimTime::from_nanos(service);
        }
        assert_eq!(r.total_busy(), total);
    });
}

/// `backlog_at` (a binary search) counts exactly the jobs a linear scan of
/// the unexpired drain times finds, for arrivals and query times in any
/// order.
#[test]
fn fifo_backlog_matches_linear_count() {
    run_cases("fifo_backlog_matches_linear_count", 256, |g| {
        let mut r = FifoResource::new();
        // The drains still in the system: `submit` expires those at or
        // before its arrival time, oldest first.
        let mut drains: Vec<SimTime> = Vec::new();
        for _ in 0..g.usize_in(1, 100) {
            if g.bool() {
                let arrive = SimTime::from_nanos(g.u64_in(0, 10_000));
                let grant = r.submit(arrive, SimTime::from_nanos(g.u64_in(0, 500)));
                let live = drains.iter().position(|&d| d > arrive);
                drains.drain(..live.unwrap_or(drains.len()));
                drains.push(grant.drain);
            }
            let now = SimTime::from_nanos(g.u64_in(0, 20_000));
            let linear = drains.iter().filter(|&&d| d > now).count();
            assert_eq!(r.backlog_at(now), linear, "at {now}");
        }
    });
}

/// IQR filtering returns a non-empty subset of the input.
#[test]
fn iqr_filter_subset() {
    run_cases("iqr_filter_subset", 256, |g| {
        let xs = g.vec(1, 100, |g| g.f64_in(0.0, 1e6));
        let kept = stats::iqr_filter(&xs, 1.5);
        assert!(!kept.is_empty());
        assert!(kept.len() <= xs.len());
        for k in &kept {
            assert!(xs.contains(k));
        }
    });
}

/// The median always lies between the minimum and maximum.
#[test]
fn median_in_range() {
    run_cases("median_in_range", 256, |g| {
        let xs = g.vec(1, 100, |g| g.f64_in(-1e9, 1e9));
        let m = stats::median(&xs);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(m >= lo && m <= hi);
    });
}

/// Quantiles are monotone in q.
#[test]
fn quantiles_monotone() {
    run_cases("quantiles_monotone", 256, |g| {
        let xs = g.vec(2, 50, |g| g.f64_in(0.0, 1e6));
        let a = g.unit_f64();
        let b = g.unit_f64();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(stats::quantile(&xs, lo) <= stats::quantile(&xs, hi) + 1e-9);
    });
}

/// Welford matches batch statistics for arbitrary samples.
#[test]
fn welford_matches_batch() {
    run_cases("welford_matches_batch", 256, |g| {
        let xs = g.vec(2, 200, |g| g.f64_in(-1e3, 1e3));
        let mut w = stats::Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - stats::mean(&xs)).abs() < 1e-6);
        assert!((w.variance() - stats::variance(&xs)).abs() < 1e-4);
    });
}

/// SimTime scaling by 1.0 is the identity (within rounding).
#[test]
fn scale_identity() {
    run_cases("scale_identity", 256, |g| {
        let ns = g.u64_in(0, u64::MAX / 2);
        let t = SimTime::from_nanos(ns);
        let diff = t.scale(1.0).as_nanos().abs_diff(ns);
        // f64 has 53 bits of mantissa; large values round.
        assert!(diff as f64 <= ns as f64 * 1e-9 + 1.0);
    });
}

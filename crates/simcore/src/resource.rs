//! Serializing FIFO resources for contention modelling.
//!
//! A [`FifoResource`] models a device that can service one job at a time at a
//! fixed rate — a NIC transmit engine, a network link, or a memory bus. Jobs
//! submitted while the device is busy queue up in FIFO order; the resource
//! reports both when a job *starts* service and when it *drains*.
//!
//! The resource additionally tracks how many previously submitted jobs are
//! still queued or in service at submission time (the *backlog*), which the
//! network layer uses to apply congestion/incast penalties (e.g. TCP incast
//! collapse when many flows converge on one receive NIC).

use crate::time::SimTime;
use std::collections::VecDeque;

/// A single-server FIFO queueing resource.
#[derive(Debug, Clone)]
pub struct FifoResource {
    /// Time at which the server becomes idle.
    next_free: SimTime,
    /// Drain times of jobs still in the system, used for backlog accounting.
    /// Oldest first, and so sorted: each job drains after the one before
    /// it. Entries with `drain <= now` are lazily removed.
    in_flight: VecDeque<SimTime>,
    /// Total busy time accumulated (for utilization statistics).
    busy: SimTime,
    /// Total number of jobs served.
    jobs: u64,
}

/// Outcome of submitting a job to a [`FifoResource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When the job begins service (>= submission time).
    pub start: SimTime,
    /// When the job finishes service.
    pub drain: SimTime,
    /// Number of other jobs queued or in service at submission time
    /// (not counting this one).
    pub backlog: usize,
}

impl Default for FifoResource {
    fn default() -> Self {
        Self::new()
    }
}

impl FifoResource {
    /// Create an idle resource.
    pub fn new() -> Self {
        FifoResource {
            next_free: SimTime::ZERO,
            in_flight: VecDeque::new(),
            busy: SimTime::ZERO,
            jobs: 0,
        }
    }

    /// Submit a job arriving at `now` that needs `service` time on the
    /// device. Returns when the job starts and drains, plus the backlog seen.
    pub fn submit(&mut self, now: SimTime, service: SimTime) -> Grant {
        // Lazily expire finished jobs from the backlog window.
        while let Some(&front) = self.in_flight.front() {
            if front <= now {
                self.in_flight.pop_front();
            } else {
                break;
            }
        }
        let backlog = self.in_flight.len();
        let start = self.next_free.max(now);
        let drain = start + service;
        self.next_free = drain;
        self.in_flight.push_back(drain);
        self.busy += service;
        self.jobs += 1;
        Grant {
            start,
            drain,
            backlog,
        }
    }

    /// Time at which the resource becomes idle given no further submissions.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Number of jobs still queued or in service at `now`: a binary search
    /// of the sorted drain times.
    pub fn backlog_at(&self, now: SimTime) -> usize {
        self.in_flight.len() - self.in_flight.partition_point(|&d| d <= now)
    }

    /// Total service time accumulated.
    pub fn total_busy(&self) -> SimTime {
        self.busy
    }

    /// Total number of jobs submitted.
    pub fn total_jobs(&self) -> u64 {
        self.jobs
    }

    /// Reset to the idle state (between experiment repetitions).
    pub fn reset(&mut self) {
        self.next_free = SimTime::ZERO;
        self.in_flight.clear();
        self.busy = SimTime::ZERO;
        self.jobs = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(x: u64) -> SimTime {
        SimTime::from_nanos(x)
    }

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = FifoResource::new();
        let g = r.submit(ns(100), ns(50));
        assert_eq!(g.start, ns(100));
        assert_eq!(g.drain, ns(150));
        assert_eq!(g.backlog, 0);
    }

    #[test]
    fn busy_resource_queues_fifo() {
        let mut r = FifoResource::new();
        let g1 = r.submit(ns(0), ns(100));
        let g2 = r.submit(ns(10), ns(100));
        let g3 = r.submit(ns(20), ns(100));
        assert_eq!(g1.drain, ns(100));
        assert_eq!(g2.start, ns(100));
        assert_eq!(g2.drain, ns(200));
        assert_eq!(g2.backlog, 1);
        assert_eq!(g3.start, ns(200));
        assert_eq!(g3.backlog, 2);
    }

    #[test]
    fn backlog_expires() {
        let mut r = FifoResource::new();
        r.submit(ns(0), ns(100));
        r.submit(ns(0), ns(100));
        // Both jobs drained by t=200; a job at t=250 sees no backlog.
        let g = r.submit(ns(250), ns(10));
        assert_eq!(g.backlog, 0);
        assert_eq!(g.start, ns(250));
    }

    #[test]
    fn backlog_at_counts_pending() {
        let mut r = FifoResource::new();
        r.submit(ns(0), ns(100));
        r.submit(ns(0), ns(100));
        assert_eq!(r.backlog_at(ns(50)), 2);
        assert_eq!(r.backlog_at(ns(150)), 1);
        assert_eq!(r.backlog_at(ns(500)), 0);
    }

    #[test]
    fn utilization_accounting() {
        let mut r = FifoResource::new();
        r.submit(ns(0), ns(30));
        r.submit(ns(0), ns(70));
        assert_eq!(r.total_busy(), ns(100));
        assert_eq!(r.total_jobs(), 2);
        r.reset();
        assert_eq!(r.total_busy(), SimTime::ZERO);
        assert_eq!(r.next_free(), SimTime::ZERO);
    }

    #[test]
    fn gap_between_jobs_leaves_idle_time() {
        let mut r = FifoResource::new();
        let g1 = r.submit(ns(0), ns(10));
        let g2 = r.submit(ns(100), ns(10));
        assert_eq!(g1.drain, ns(10));
        assert_eq!(g2.start, ns(100));
        assert_eq!(g2.drain, ns(110));
    }
}

//! Event queue with deterministic ordering.
//!
//! A thin wrapper around [`std::collections::BinaryHeap`] that orders events
//! by `(time, sequence)`, where `sequence` is a monotonically increasing
//! insertion counter. Ties in simulated time are therefore broken in FIFO
//! order, which makes the whole simulation deterministic regardless of how
//! the heap internally arranges equal keys.
//!
//! This queue is the innermost loop of every simulation, so the `(time,
//! seq)` pair is packed into a single `u128` key: one integer comparison
//! per sift step instead of a two-field lexicographic compare, and a
//! smaller `Entry` to move during sifts. `SimTime` is u64 nanoseconds and
//! `seq` is a u64 counter, so `(time << 64) | seq` orders identically to
//! the tuple.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Internal heap entry; ordered as a *min*-heap on the packed
/// `(time << 64) | seq` key.
struct Entry<E> {
    key: u128,
    event: E,
}

#[inline]
fn pack(time: SimTime, seq: u64) -> u128 {
    ((time.as_nanos() as u128) << 64) | seq as u128
}

#[inline]
fn unpack_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need the earliest event first.
        other.key.cmp(&self.key)
    }
}

/// A deterministic min-priority queue of timestamped events.
///
/// Events popped from the queue are guaranteed to be non-decreasing in time;
/// popping an event also advances [`EventQueue::now`].
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Create an empty queue with room for `cap` events before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Total number of events popped over the queue's lifetime (survives
    /// [`EventQueue::reset`]): the measure of simulation work done behind
    /// `mpisim.sim_events`.
    #[inline]
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// The time of the most recently popped event (the current simulation
    /// clock).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the current clock — scheduling into
    /// the past indicates a causality bug in the caller — or if `time` is
    /// [`SimTime::MAX`]: that value is the saturation sentinel produced by
    /// overflowing time arithmetic ("infinitely far in the future"), so an
    /// event carrying it can never legitimately fire. The monotonicity
    /// assert alone would not catch this — `SimTime::MAX` is always ahead of
    /// the pop watermark — yet it occupies the top of the packed
    /// `(time << 64) | seq` key space, where the key no longer encodes a
    /// real schedule point.
    pub fn push(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: t={time} < now={now}",
            time = time,
            now = self.now
        );
        assert!(
            time < SimTime::MAX,
            "event scheduled at the overflow sentinel SimTime::MAX: \
             an upstream time computation saturated"
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            key: pack(time, seq),
            event,
        });
    }

    /// Schedule `event` at `time` under a caller-supplied tie-break key
    /// instead of the insertion counter.
    ///
    /// `mpisim::World` orders same-timestamp events by a *content-derived*
    /// subkey (acting rank + per-rank counter); that `(time, subkey)` order
    /// is what its golden event digests pin. Same monotonicity/sentinel
    /// panics as [`EventQueue::push`].
    /// Callers must not mix `push` and `push_at` on one queue: the insertion
    /// counter and explicit subkeys occupy the same tie-break space.
    pub fn push_at(&mut self, time: SimTime, subkey: u64, event: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: t={time} < now={now}",
            time = time,
            now = self.now
        );
        assert!(
            time < SimTime::MAX,
            "event scheduled at the overflow sentinel SimTime::MAX: \
             an upstream time computation saturated"
        );
        self.heap.push(Entry {
            key: pack(time, subkey),
            event,
        });
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| unpack_time(e.key))
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        let time = unpack_time(entry.key);
        debug_assert!(time >= self.now, "heap returned out-of-order event");
        self.now = time;
        self.popped += 1;
        Some((time, entry.event))
    }

    /// Pop the earliest event together with its tie-break subkey (the low 64
    /// bits of the packed key). Companion to [`EventQueue::push_at`].
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        let entry = self.heap.pop()?;
        let time = unpack_time(entry.key);
        debug_assert!(time >= self.now, "heap returned out-of-order event");
        self.now = time;
        self.popped += 1;
        Some((time, entry.key as u64, entry.event))
    }

    /// Remove all pending events and reset the clock to zero.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.seq = 0;
        self.now = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_nanos(7), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
        // Scheduling at the current time is allowed.
        q.push(SimTime::from_nanos(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), ());
        q.pop();
        q.push(SimTime::from_nanos(5), ());
    }

    #[test]
    #[should_panic(expected = "overflow sentinel")]
    fn rejects_saturated_time() {
        // Saturating arithmetic past the end of representable time yields
        // SimTime::MAX; scheduling an event there must be rejected even
        // though it trivially satisfies the monotonicity check.
        let mut q = EventQueue::new();
        let t = SimTime::MAX.checked_add(SimTime::from_nanos(1)).is_none();
        assert!(t, "MAX + 1 must not be representable");
        q.push(SimTime::MAX, ());
    }

    #[test]
    fn accepts_times_just_below_sentinel() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(u64::MAX - 1), 7);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(u64::MAX - 1), 7)));
    }

    #[test]
    fn popped_counter_survives_reset() {
        let mut q = EventQueue::with_capacity(8);
        for i in 0..5u64 {
            q.push(SimTime::from_nanos(i), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.popped(), 5);
        q.reset();
        assert_eq!(q.popped(), 5);
        q.push(SimTime::ZERO, 0);
        q.pop();
        assert_eq!(q.popped(), 6);
    }

    #[test]
    fn reset_clears_state() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 1);
        q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::ZERO, 2); // no longer "in the past"
        assert_eq!(q.len(), 1);
    }
}

//! Per-rank channel table: sequence numbers and the arrival window of every
//! peer a rank exchanges messages with.
//!
//! A rank only talks to a handful of peers, so the table is open-addressed
//! over the peers actually seen — O(peers) memory, where per-rank
//! `nranks`-length vectors would cost O(nranks²) at the 4096-rank scale of
//! the `world_scale` runs. One [`Chan`] per peer holds both
//! directions: the next sequence number this rank will *send* to the peer,
//! and for messages *from* the peer the next sequence number the matching
//! logic expects (`env_next`, MPI non-overtaking) plus a window of the
//! sequence numbers at or above it that have been seen on the wire.
//!
//! The window does two jobs with one structure. Slot `seq - env_next`
//! records that `seq` has arrived (the world asserts that no message
//! arrives twice) and whether its envelope is ready for matching (envelopes
//! that arrive out of order wait there). Envelopes leave from the front in
//! sequence order, so the window never holds more than the channel's
//! in-flight messages; a sequence number below `env_next` has left the
//! window and therefore must have arrived.

use crate::types::RankId;
use std::collections::VecDeque;

/// Key of an unused table slot (no world has 2³² − 1 ranks: rank ids are
/// carried as `u32` throughout the engine).
const NO_PEER: u32 = u32::MAX;

/// Window slot of a sequence number no transmission of which has arrived.
const NOT_ARRIVED: u32 = u32::MAX;

/// What a receiver knows about one sequence number of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Seen {
    /// No transmission of it has arrived yet.
    New,
    /// A transmission arrived and created this receiver-side record; its
    /// envelope has not entered matching yet.
    Windowed(u32),
    /// Its envelope already entered matching (`seq < env_next`).
    Delivered,
}

#[derive(Clone, Copy)]
struct Slot {
    /// Receiver-side record created by the first arrival.
    dmid: u32,
    /// The envelope is waiting for its turn to enter matching.
    ready: bool,
}

struct Chan {
    peer: u32,
    /// Next sequence number for a send to `peer`.
    send_seq: u64,
    /// Next envelope sequence number from `peer` to enter matching.
    env_next: u64,
    /// Slot `i` describes sequence number `env_next + i`.
    window: VecDeque<Slot>,
}

/// Open-addressed `peer → Chan` table (linear probing, power-of-two
/// capacity, at most half full). Channels are never removed; a reset
/// rewinds them in place so their window buffers stay allocated.
pub(crate) struct ChanTable {
    slots: Vec<Chan>,
    used: usize,
}

impl ChanTable {
    /// An empty table (allocates nothing until the first peer is seen).
    pub(crate) fn new() -> ChanTable {
        ChanTable {
            slots: Vec::new(),
            used: 0,
        }
    }

    /// Fibonacci hashing (the product's top bits): consecutive rank ids, and
    /// ids a constant stride apart, spread over the table.
    fn home(peer: u32, capacity: usize) -> usize {
        debug_assert!(capacity.is_power_of_two() && capacity >= 8);
        (peer.wrapping_mul(0x9E37_79B9) >> (32 - capacity.trailing_zeros())) as usize
    }

    /// The channel to/from `peer`, created on first use.
    fn chan(&mut self, peer: RankId) -> &mut Chan {
        let peer = peer as u32;
        debug_assert_ne!(peer, NO_PEER);
        if (self.used + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::home(peer, self.slots.len());
        loop {
            if self.slots[i].peer == peer {
                break;
            }
            if self.slots[i].peer == NO_PEER {
                self.slots[i].peer = peer;
                self.used += 1;
                break;
            }
            i = (i + 1) & mask;
        }
        &mut self.slots[i]
    }

    fn grow(&mut self) {
        let capacity = (self.slots.len() * 2).max(8);
        let empty = || Chan {
            peer: NO_PEER,
            send_seq: 0,
            env_next: 0,
            window: VecDeque::new(),
        };
        let old = std::mem::replace(&mut self.slots, (0..capacity).map(|_| empty()).collect());
        for c in old.into_iter().filter(|c| c.peer != NO_PEER) {
            let mut i = Self::home(c.peer, capacity);
            while self.slots[i].peer != NO_PEER {
                i = (i + 1) & (capacity - 1);
            }
            self.slots[i] = c;
        }
    }

    /// Rewind every channel to sequence number zero, keeping the table and
    /// the window buffers allocated. A rewound channel is indistinguishable
    /// from one that was never used.
    pub(crate) fn reset(&mut self) {
        for c in &mut self.slots {
            c.send_seq = 0;
            c.env_next = 0;
            c.window.clear();
        }
    }

    /// Allocate the sequence number of the next send to `dst`.
    pub(crate) fn next_send_seq(&mut self, dst: RankId) -> u64 {
        let c = self.chan(dst);
        let seq = c.send_seq;
        c.send_seq += 1;
        seq
    }

    /// What is known about message `seq` from `src`.
    pub(crate) fn seen(&mut self, src: RankId, seq: u64) -> Seen {
        let c = self.chan(src);
        if seq < c.env_next {
            return Seen::Delivered;
        }
        match c.window.get((seq - c.env_next) as usize) {
            Some(s) if s.dmid != NOT_ARRIVED => Seen::Windowed(s.dmid),
            _ => Seen::New,
        }
    }

    /// Record the first arrival of message `seq` from `src`, which created
    /// receiver-side record `dmid`. Must follow a [`Seen::New`] answer.
    pub(crate) fn arrived(&mut self, src: RankId, seq: u64, dmid: u32) {
        debug_assert_ne!(dmid, NOT_ARRIVED);
        let c = self.chan(src);
        let i = (seq - c.env_next) as usize;
        if c.window.len() <= i {
            let gap = Slot {
                dmid: NOT_ARRIVED,
                ready: false,
            };
            c.window.resize(i + 1, gap);
        }
        debug_assert_eq!(c.window[i].dmid, NOT_ARRIVED, "arrival recorded twice");
        c.window[i].dmid = dmid;
    }

    /// Mark the envelope of message `seq` from `src` ready for matching.
    /// Returns `false` if it already was, or already entered matching (a
    /// duplicated envelope).
    pub(crate) fn envelope_ready(&mut self, src: RankId, seq: u64) -> bool {
        let c = self.chan(src);
        if seq < c.env_next {
            return false;
        }
        let slot = &mut c.window[(seq - c.env_next) as usize];
        debug_assert_ne!(slot.dmid, NOT_ARRIVED, "envelope before its arrival");
        !std::mem::replace(&mut slot.ready, true)
    }

    /// Take the next envelope from `src` that may enter matching, if the
    /// one `env_next` names is ready.
    pub(crate) fn pop_in_order(&mut self, src: RankId) -> Option<u32> {
        let c = self.chan(src);
        if !c.window.front()?.ready {
            return None;
        }
        c.env_next += 1;
        c.window.pop_front().map(|s| s.dmid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::check::{run_cases, Gen};
    use std::collections::BTreeMap;

    /// The four ordered maps the table replaces, with the same semantics
    /// spelled out directly.
    #[derive(Default)]
    struct Model {
        send_seq: BTreeMap<RankId, u64>,
        env_next: BTreeMap<RankId, u64>,
        env_buf: BTreeMap<(RankId, u64), u32>,
        inbound: BTreeMap<(RankId, u64), u32>,
    }

    impl Model {
        fn next_send_seq(&mut self, dst: RankId) -> u64 {
            let c = self.send_seq.entry(dst).or_insert(0);
            *c += 1;
            *c - 1
        }

        fn seen(&self, src: RankId, seq: u64) -> Seen {
            let next = self.env_next.get(&src).copied().unwrap_or(0);
            match self.inbound.get(&(src, seq)) {
                None => Seen::New,
                Some(_) if seq < next => Seen::Delivered,
                Some(&d) => Seen::Windowed(d),
            }
        }

        fn envelope_ready(&mut self, src: RankId, seq: u64) -> bool {
            let next = self.env_next.get(&src).copied().unwrap_or(0);
            if seq < next || self.env_buf.contains_key(&(src, seq)) {
                return false;
            }
            self.env_buf.insert((src, seq), self.inbound[&(src, seq)]);
            true
        }

        fn pop_in_order(&mut self, src: RankId) -> Option<u32> {
            let next = self.env_next.get(&src).copied().unwrap_or(0);
            let d = self.env_buf.remove(&(src, next))?;
            self.env_next.insert(src, next + 1);
            Some(d)
        }
    }

    /// One random history of a rank's channels: sends, first arrivals in
    /// any order within a bounded reorder distance, duplicate arrivals of
    /// anything sent so far, envelopes (also duplicated) for anything that
    /// arrived, and a reset now and then.
    fn history(g: &mut Gen, npeers: usize, stride: usize, steps: usize) {
        let peers: Vec<RankId> = (0..npeers).map(|i| 3 + i * stride).collect();
        let mut table = ChanTable::new();
        let mut model = Model::default();
        // Per peer: sequence numbers sent to us but not yet arrived, and
        // arrived but without an envelope yet.
        let mut in_flight: Vec<Vec<u64>> = vec![Vec::new(); npeers];
        let mut arrived: Vec<Vec<u64>> = vec![Vec::new(); npeers];
        let mut next_in: Vec<u64> = vec![0; npeers];
        let mut next_dmid = 0u32;
        for _ in 0..steps {
            let p = g.usize_in(0, npeers);
            let peer = peers[p];
            match g.usize_in(0, 100) {
                0..=14 => assert_eq!(table.next_send_seq(peer), model.next_send_seq(peer)),
                15..=39 => {
                    // The peer sends us another message (bounded so the
                    // window stays a window).
                    if in_flight[p].len() < 6 {
                        in_flight[p].push(next_in[p]);
                        next_in[p] += 1;
                    }
                }
                40..=64 => {
                    // First arrival, out of order.
                    if in_flight[p].is_empty() {
                        continue;
                    }
                    let pick = g.usize_in(0, in_flight[p].len());
                    let seq = in_flight[p].swap_remove(pick);
                    assert_eq!(table.seen(peer, seq), Seen::New);
                    assert_eq!(model.seen(peer, seq), Seen::New);
                    table.arrived(peer, seq, next_dmid);
                    model.inbound.insert((peer, seq), next_dmid);
                    next_dmid += 1;
                    arrived[p].push(seq);
                }
                65..=79 => {
                    // Duplicate (or premature) arrival of any sequence
                    // number the peer has used, or is about to.
                    let seq = g.u64_in(0, next_in[p] + 2);
                    assert_eq!(table.seen(peer, seq), model.seen(peer, seq), "seq {seq}");
                }
                80..=97 => {
                    // An envelope, possibly a repeat of one already fed.
                    let fresh = !arrived[p].is_empty() && g.usize_in(0, 4) > 0;
                    let seq = if fresh {
                        let pick = g.usize_in(0, arrived[p].len());
                        arrived[p].swap_remove(pick)
                    } else {
                        let known: Vec<u64> = model
                            .inbound
                            .keys()
                            .filter(|(s, q)| *s == peer && !arrived[p].contains(q))
                            .map(|(_, q)| *q)
                            .collect();
                        if known.is_empty() {
                            continue;
                        }
                        g.choose(&known)
                    };
                    let ours = table.envelope_ready(peer, seq);
                    assert_eq!(ours, model.envelope_ready(peer, seq), "seq {seq}");
                    assert_eq!(ours, fresh, "only the first envelope of a message counts");
                    loop {
                        let d = table.pop_in_order(peer);
                        assert_eq!(d, model.pop_in_order(peer));
                        if d.is_none() {
                            break;
                        }
                    }
                }
                _ => {
                    table.reset();
                    model = Model::default();
                    in_flight.iter_mut().for_each(Vec::clear);
                    arrived.iter_mut().for_each(Vec::clear);
                    next_in.iter_mut().for_each(|n| *n = 0);
                }
            }
        }
        assert!(table.used <= npeers, "one channel per peer");
        assert!(table.slots.len() >= 2 * table.used, "at most half full");
    }

    #[test]
    fn table_matches_ordered_map_model() {
        run_cases("chan_table_vs_btreemap_model", 60, |g| {
            let npeers = g.choose(&[1usize, 2, 7, 33, 65, 130]);
            // Stride 64 makes every peer id collide in a small table.
            let stride = g.choose(&[1usize, 2, 64, 4099]);
            history(g, npeers, stride, 1500);
        });
    }

    #[test]
    fn delivery_is_in_sequence_order_whatever_the_arrival_order() {
        let mut t = ChanTable::new();
        for (seq, dmid) in [(2u64, 20u32), (0, 10), (3, 30), (1, 11)] {
            assert_eq!(t.seen(5, seq), Seen::New);
            t.arrived(5, seq, dmid);
            assert_eq!(t.seen(5, seq), Seen::Windowed(dmid));
        }
        assert!(t.envelope_ready(5, 2));
        assert_eq!(t.pop_in_order(5), None, "0 and 1 are still missing");
        assert!(t.envelope_ready(5, 1));
        assert!(!t.envelope_ready(5, 1), "second envelope is a duplicate");
        assert_eq!(t.pop_in_order(5), None);
        assert!(t.envelope_ready(5, 0));
        assert_eq!(t.pop_in_order(5), Some(10));
        assert_eq!(t.pop_in_order(5), Some(11));
        assert_eq!(t.pop_in_order(5), Some(20));
        assert_eq!(t.pop_in_order(5), None, "3 arrived but has no envelope");
        assert_eq!(t.seen(5, 1), Seen::Delivered);
        assert!(!t.envelope_ready(5, 2), "already entered matching");
        assert_eq!(t.seen(5, 3), Seen::Windowed(30));
        assert_eq!(t.seen(5, 4), Seen::New);
    }

    #[test]
    fn reset_rewinds_without_shrinking() {
        let mut t = ChanTable::new();
        for peer in 0..40 {
            assert_eq!(t.next_send_seq(peer), 0);
            assert_eq!(t.next_send_seq(peer), 1);
            t.arrived(peer, 0, peer as u32);
        }
        let capacity = t.slots.len();
        t.reset();
        assert_eq!(t.slots.len(), capacity);
        for peer in 0..40 {
            assert_eq!(t.next_send_seq(peer), 0);
            assert_eq!(t.seen(peer, 0), Seen::New);
        }
    }
}

//! Message and receive-request state machines.
//!
//! In-flight message state is split into a sender-side half ([`SendMsg`],
//! stored in the *sending* rank's arena) and a receiver-side half
//! ([`DstMsg`], stored in the *destination* rank's arena): everything a
//! handler mutates lives on the rank the event targets, and the two halves
//! only communicate through wire events.
//!
//! Records live in per-rank arenas whose slots are recycled: the owner of a
//! handle returns a completed send or receive with `World::release_send` /
//! `World::release_recv`, and a released receive takes its matched
//! [`DstMsg`] with it. An arena therefore holds what is in flight, not what
//! was ever sent.

use crate::bufpool::Payload;
use crate::types::{RankId, Tag};
use simcore::SimTime;

/// A slot arena with a free list. An index stays valid while its record is
/// live and is handed out again after [`Arena::release`], so the arena's
/// length is the largest number of records that were ever live at once —
/// not the number ever allocated.
#[derive(Debug)]
pub(crate) struct Arena<T> {
    items: Vec<T>,
    free: Vec<u32>,
}

impl<T> Arena<T> {
    pub(crate) const fn new() -> Self {
        Arena {
            items: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Store `v` in a free slot (or a new one) and return its index.
    pub(crate) fn alloc(&mut self, v: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.items[i as usize] = v;
                i
            }
            None => {
                debug_assert!(self.items.len() < u32::MAX as usize);
                self.items.push(v);
                (self.items.len() - 1) as u32
            }
        }
    }

    /// Make slot `idx` available to the next [`Arena::alloc`]. The caller
    /// guarantees the slot is live and that nothing will index it again
    /// expecting the old record.
    pub(crate) fn release(&mut self, idx: u32) {
        self.free.push(idx);
    }

    /// Drop every record, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.items.clear();
        self.free.clear();
    }

    /// Slots in use or on the free list: the high-water mark of live
    /// records since the last [`Arena::clear`].
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }
}

impl<T> std::ops::Index<usize> for Arena<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.items[i]
    }
}

impl<T> std::ops::IndexMut<usize> for Arena<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.items[i]
    }
}

/// Wire protocol chosen for a message, by size and transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Payload is pushed immediately; buffered at the receiver if no
    /// matching receive is posted yet. Progresses without CPU involvement.
    Eager,
    /// Request-to-send / clear-to-send handshake; the payload only moves
    /// after both sides have entered the progress engine.
    Rendezvous,
}

/// Sender-side lifecycle of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendState {
    /// Posted; payload (eager) or RTS (rendezvous) injected.
    Posted,
    /// Rendezvous only: CTS has arrived at the sender but the sender has not
    /// yet entered the progress engine to start the payload transfer.
    CtsArrived(SimTime),
    /// Rendezvous only: payload transfer started (CTS acted upon).
    DataInFlight,
    /// Local completion: the source buffer is reusable.
    Drained(SimTime),
}

/// Receiver-side lifecycle of a message, *after* matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvState {
    /// Posted, not yet matched to an incoming message.
    Posted,
    /// Matched to an incoming message, payload not yet fully delivered.
    Matched,
    /// Payload fully delivered at the given time.
    Complete(SimTime),
}

/// The sender-side half of one in-flight point-to-point message, stored in
/// the sending rank's arena (`SendHandle.idx` indexes it).
#[derive(Debug, Clone)]
pub struct SendMsg {
    pub dst: RankId,
    pub tag: Tag,
    pub bytes: usize,
    pub protocol: Protocol,
    pub send_state: SendState,
    /// The payload handle riding on this message, if the sender staged one.
    /// Eager sends move it straight into the wire event; rendezvous sends
    /// keep it here until the payload transfer starts. Timing never depends
    /// on it — `bytes` alone drives the network model.
    pub payload: Option<Payload>,
    /// Rendezvous only: the destination-side record (index into the
    /// receiver's [`DstMsg`] arena), learned from the CTS. The payload wire
    /// event carries it back so delivery needs no receiver-side lookup.
    pub peer_dmid: Option<u32>,
}

impl SendMsg {
    /// A freshly posted send.
    pub fn new(dst: RankId, tag: Tag, bytes: usize, protocol: Protocol) -> Self {
        SendMsg {
            dst,
            tag,
            bytes,
            protocol,
            send_state: SendState::Posted,
            payload: None,
            peer_dmid: None,
        }
    }

    /// True once the sender may reuse its buffer.
    pub fn send_drained(&self) -> Option<SimTime> {
        match self.send_state {
            SendState::Drained(t) => Some(t),
            _ => None,
        }
    }
}

/// The receiver-side half of one in-flight message, created when its wire
/// event (eager payload or rendezvous RTS) reaches the destination; stored
/// in the destination rank's arena.
#[derive(Debug, Clone)]
pub struct DstMsg {
    /// Ordinal of this message among those that ever reached the
    /// destination rank — what its arena index would be if slots were never
    /// recycled. Names the message in trace exports, which must not depend
    /// on slot reuse.
    pub mid: u32,
    pub src: RankId,
    /// Index of the sender-side half in `src`'s send arena.
    pub sidx: u32,
    pub seq: u64,
    pub tag: Tag,
    pub bytes: usize,
    pub protocol: Protocol,
    /// Sender's post time (start of the lifecycle span in trace exports).
    pub posted_at: SimTime,
    /// Index of the matched receive request, once matched.
    pub matched_recv: Option<u32>,
    /// Eager: payload delivery time at the destination (set when the
    /// delivery event fires). Rendezvous: payload arrival after CTS.
    pub data_arrival: Option<SimTime>,
    /// Rendezvous: RTS arrival time at the receiver.
    pub rts_arrival: Option<SimTime>,
    /// Rendezvous: receiver answered RTS (CTS sent).
    pub cts_sent: bool,
    /// Payload handle delivered by the wire, awaiting transfer to the
    /// matched receive at completion.
    pub payload: Option<Payload>,
}

/// One posted receive request, stored in the receiving rank's arena.
#[derive(Debug, Clone)]
pub struct RecvReq {
    pub src: RankId,
    pub tag: Tag,
    pub bytes: usize,
    pub state: RecvState,
    /// The matched message (index into the rank's [`DstMsg`] arena), if any.
    pub msg: Option<u32>,
    /// Delivered payload handle, moved off the message at completion;
    /// collected by the executor via `World::take_recv_payload`.
    pub payload: Option<Payload>,
}

impl RecvReq {
    /// A freshly posted receive.
    pub fn new(src: RankId, tag: Tag, bytes: usize) -> Self {
        RecvReq {
            src,
            tag,
            bytes,
            state: RecvState::Posted,
            msg: None,
            payload: None,
        }
    }

    /// Completion time, if delivered.
    pub fn complete_at(&self) -> Option<SimTime> {
        match self.state {
            RecvState::Complete(t) => Some(t),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_lifecycle_defaults() {
        let m = SendMsg::new(1, Tag(5), 100, Protocol::Eager);
        assert_eq!(m.send_state, SendState::Posted);
        assert!(m.send_drained().is_none());
        assert!(m.peer_dmid.is_none());
    }

    #[test]
    fn drained_reports_time() {
        let mut m = SendMsg::new(1, Tag(5), 100, Protocol::Rendezvous);
        m.send_state = SendState::Drained(SimTime::from_micros(9));
        assert_eq!(m.send_drained(), Some(SimTime::from_micros(9)));
    }

    #[test]
    fn arena_reuses_released_slots_before_growing() {
        let mut a = Arena::new();
        let (x, y) = (a.alloc('x'), a.alloc('y'));
        assert_eq!((x, y, a.len()), (0, 1, 2));
        a.release(x);
        assert_eq!(a.alloc('z'), x, "a released slot is reused first");
        assert_eq!((a[0], a[1]), ('z', 'y'));
        assert_eq!(a.alloc('w'), 2, "no free slot: grow");
        assert_eq!(a.len(), 3, "length is the high-water mark");
        a.clear();
        assert_eq!(a.len(), 0);
        assert_eq!(a.alloc('v'), 0, "a cleared arena forgets its free list");
    }

    #[test]
    fn recv_completion() {
        let mut r = RecvReq::new(0, Tag(5), 100);
        assert!(r.complete_at().is_none());
        r.state = RecvState::Complete(SimTime::from_nanos(77));
        assert_eq!(r.complete_at(), Some(SimTime::from_nanos(77)));
    }
}

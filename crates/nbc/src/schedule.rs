//! The collective-operation schedule representation.
//!
//! A [`Schedule`] is local to one rank. It consists of rounds; all
//! operations inside a round are independent and may proceed concurrently,
//! and a round only begins once the previous round has completed locally
//! (the LibNBC "barrier" semantics). Send operations carry the logical
//! *block ids* they move, which the [`crate::verify`] module uses to prove
//! collective semantics; the timing simulator only looks at byte counts.
//!
//! Builders write a schedule as [`Round`]s of [`Action`]s and hand each
//! round to [`Schedule::push_round`], the one place that flattens. The
//! stored form is LibNBC's: one contiguous array of 16-byte [`Op`]s with
//! round delimiters beside it, and every send's block ids concatenated in
//! one more array — a constant number of heap blocks per schedule however
//! many rounds and sends it has. Readers see a round as `&[Op]`
//! ([`Schedule::round`]) and a round's block lists through
//! [`Schedule::round_blocks`].

use mpisim::RankId;
use std::ops::Range;

/// What an operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Send `bytes` to `peer`.
    Send,
    /// Receive `bytes` from `peer`.
    Recv,
    /// Local memory copy of `bytes` (packing/unpacking, self-block moves).
    Copy,
    /// Local reduction arithmetic over `bytes`.
    Calc,
}

/// One stored schedule operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    kind: OpKind,
    /// Peer rank of a send or receive; 0 for local operations.
    peer: u32,
    bytes: u64,
}

// A schedule is mostly its op array: keep an op at two words.
const _: () = assert!(std::mem::size_of::<Op>() == 16);

impl Op {
    fn new(kind: OpKind, peer: RankId, bytes: usize) -> Op {
        Op {
            kind,
            peer: u32::try_from(peer).expect("rank ids fit in u32"),
            bytes: bytes as u64,
        }
    }

    /// The operation.
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// Destination of a send, source of a receive (0 for local work).
    pub fn peer(&self) -> RankId {
        self.peer as RankId
    }

    /// Payload size in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes as usize
    }
}

/// One schedule action as a builder writes it: an [`Op`] and, for a send,
/// the logical data blocks it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Action {
    op: Op,
    blocks: Vec<u32>,
}

impl Action {
    /// A send of `bytes` to `peer` carrying `blocks`.
    pub fn send(peer: RankId, bytes: usize, blocks: Vec<u32>) -> Action {
        Action {
            op: Op::new(OpKind::Send, peer, bytes),
            blocks,
        }
    }

    /// A receive of `bytes` from `peer`.
    pub fn recv(peer: RankId, bytes: usize) -> Action {
        Action::local(Op::new(OpKind::Recv, peer, bytes))
    }

    /// A local copy of `bytes`.
    pub fn copy(bytes: usize) -> Action {
        Action::local(Op::new(OpKind::Copy, 0, bytes))
    }

    /// A local reduction over `bytes`.
    pub fn calc(bytes: usize) -> Action {
        Action::local(Op::new(OpKind::Calc, 0, bytes))
    }

    fn local(op: Op) -> Action {
        Action {
            op,
            blocks: Vec::new(),
        }
    }
}

/// A set of independent actions separated from the next set by a local
/// barrier.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Round(pub Vec<Action>);

impl Round {
    /// Empty round (useful while building).
    pub fn new() -> Round {
        Round(Vec::new())
    }

    /// True if the round has no actions.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A complete per-rank schedule, stored flat (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// Every operation, in round order.
    ops: Vec<Op>,
    /// One past the last op of each round: round `i` is
    /// `ops[round_ends[i - 1]..round_ends[i]]`.
    round_ends: Vec<u32>,
    /// The block ids of every send, concatenated in op order.
    blocks: Vec<u32>,
    /// One past the last block of each op (an op that is not a send adds
    /// none): op `j` carries `blocks[block_ends[j - 1]..block_ends[j]]`.
    block_ends: Vec<u32>,
}

/// An array length as a stored offset.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("schedule arrays stay below 2^32 entries")
}

/// `ends[i - 1]..ends[i]`, with an implicit 0 before the first end.
fn span(ends: &[u32], i: usize) -> Range<usize> {
    let start = if i == 0 { 0 } else { ends[i - 1] as usize };
    start..ends[i] as usize
}

impl Schedule {
    /// Empty schedule (a no-op operation).
    pub fn new() -> Schedule {
        Schedule::default()
    }

    /// Append a round, skipping empty ones.
    pub fn push_round(&mut self, round: Round) {
        if round.is_empty() {
            return;
        }
        for Action { op, blocks } in round.0 {
            self.ops.push(op);
            self.blocks.extend_from_slice(&blocks);
            self.block_ends.push(offset(self.blocks.len()));
        }
        self.round_ends.push(offset(self.ops.len()));
    }

    /// Release the spare capacity the builder's pushes left behind, before
    /// the schedule is stored for the life of the operation that runs it.
    pub fn shrink_to_fit(&mut self) {
        self.ops.shrink_to_fit();
        self.round_ends.shrink_to_fit();
        self.blocks.shrink_to_fit();
        self.block_ends.shrink_to_fit();
    }

    /// Number of rounds.
    pub fn num_rounds(&self) -> usize {
        self.round_ends.len()
    }

    /// The operations of round `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.num_rounds()`.
    pub fn round(&self, i: usize) -> &[Op] {
        &self.ops[span(&self.round_ends, i)]
    }

    /// The block lists of round `i`, one per op of [`round(i)`](Self::round)
    /// and in the same order; empty for everything but an annotated send.
    ///
    /// # Panics
    /// Panics if `i >= self.num_rounds()`.
    pub fn round_blocks(&self, i: usize) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        span(&self.round_ends, i).map(|j| &self.blocks[span(&self.block_ends, j)])
    }

    /// Every round, in order.
    pub fn rounds(&self) -> impl ExactSizeIterator<Item = &[Op]> + '_ {
        (0..self.num_rounds()).map(|i| self.round(i))
    }

    /// Every operation, in round order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    fn count_and_bytes(&self, kind: OpKind) -> (usize, usize) {
        let of_kind = self.ops.iter().filter(|op| op.kind == kind);
        of_kind.fold((0, 0), |(n, b), op| (n + 1, b + op.bytes()))
    }

    /// Total number of send operations.
    pub fn num_sends(&self) -> usize {
        self.count_and_bytes(OpKind::Send).0
    }

    /// Total number of receive operations.
    pub fn num_recvs(&self) -> usize {
        self.count_and_bytes(OpKind::Recv).0
    }

    /// Total bytes sent by this rank.
    pub fn bytes_sent(&self) -> usize {
        self.count_and_bytes(OpKind::Send).1
    }

    /// Total bytes received by this rank.
    pub fn bytes_received(&self) -> usize {
        self.count_and_bytes(OpKind::Recv).1
    }

    /// Render the schedule as a compact human-readable listing, one line
    /// per round — a debugging aid for builder development:
    ///
    /// ```text
    /// round 0: copy(1024)
    /// round 1: send->3(1024) recv<-1(1024)
    /// ```
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, round) in self.rounds().enumerate() {
            let _ = write!(out, "round {i}:");
            for op in round {
                let (peer, bytes) = (op.peer, op.bytes);
                let _ = match op.kind {
                    OpKind::Send => write!(out, " send->{peer}({bytes})"),
                    OpKind::Recv => write!(out, " recv<-{peer}({bytes})"),
                    OpKind::Copy => write!(out, " copy({bytes})"),
                    OpKind::Calc => write!(out, " calc({bytes})"),
                };
            }
            out.push('\n');
        }
        out
    }

    /// Basic well-formedness checks: no zero-byte sends/recvs, no
    /// self-messages for `rank`, block annotations consistent with sizes
    /// when `block_bytes` is known.
    pub fn validate(&self, rank: RankId, block_bytes: Option<usize>) -> Result<(), String> {
        for ri in 0..self.num_rounds() {
            for (op, blocks) in self.round(ri).iter().zip(self.round_blocks(ri)) {
                let (dir, to_self) = match op.kind() {
                    OpKind::Send => ("send", "send to self"),
                    OpKind::Recv => ("recv", "recv from self"),
                    OpKind::Copy | OpKind::Calc => continue,
                };
                if op.peer() == rank {
                    return Err(format!("round {ri}: {to_self}"));
                }
                if op.bytes() == 0 {
                    return Err(format!("round {ri}: zero-byte {dir}"));
                }
                if let Some(bb) = block_bytes {
                    if !blocks.is_empty() && blocks.len() * bb != op.bytes() {
                        return Err(format!(
                            "round {ri}: {} blocks x {bb} B != {} B",
                            blocks.len(),
                            op.bytes()
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Append `next`'s rounds after this schedule's own.
    fn append(&mut self, next: &Schedule) {
        let (ops, blocks) = (offset(self.ops.len()), offset(self.blocks.len()));
        self.ops.extend_from_slice(&next.ops);
        self.round_ends
            .extend(next.round_ends.iter().map(|&e| e + ops));
        self.blocks.extend_from_slice(&next.blocks);
        self.block_ends
            .extend(next.block_ends.iter().map(|&e| e + blocks));
    }

    /// Remove op `j` with its blocks. Its round keeps its place even when
    /// this empties it. For tests that break a correct schedule.
    #[cfg(test)]
    pub(crate) fn remove_op(&mut self, j: usize) {
        let gone = span(&self.block_ends, j);
        let nblocks = offset(gone.len());
        self.blocks.drain(gone);
        self.block_ends.remove(j);
        for e in &mut self.block_ends[j..] {
            *e -= nblocks;
        }
        self.ops.remove(j);
        for e in self.round_ends.iter_mut().filter(|e| **e as usize > j) {
            *e -= 1;
        }
    }
}

/// Sequential composition of per-rank schedules: the rounds of every
/// stage, concatenated in order. Because a round only begins once the
/// previous round completed *locally*, the result executes stage `k+1`
/// strictly after stage `k` on each rank — without any global barrier in
/// between, exactly like issuing the operations back to back on one
/// request. Channel FIFO order keeps the matching sound: every rank posts
/// all of stage `k`'s sends/recvs before stage `k+1`'s, so per-(src, dst)
/// traffic of consecutive stages can never cross.
///
/// This is the mock-up constructor of the performance-guideline literature
/// (Hunold & Carpen-Amarie): e.g. `sequence(&[scatter, allgather])` is a
/// broadcast mock-up whose measured time upper-bounds what a well-tuned
/// `Ibcast` should cost.
pub fn sequence(stages: &[&Schedule]) -> Schedule {
    let mut out = Schedule::new();
    for stage in stages {
        out.append(stage);
    }
    out
}

impl Schedule {
    /// `self` followed by `next` (see [`sequence`]).
    pub fn then(&self, next: &Schedule) -> Schedule {
        sequence(&[self, next])
    }
}

/// Parameters describing one collective-operation instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollSpec {
    /// Number of participating ranks.
    pub nprocs: usize,
    /// Message size in bytes: the *full* payload for rooted operations
    /// (bcast/reduce), or the per-process-pair block size for alltoall and
    /// allgather (matching the paper's reporting convention).
    pub msg_bytes: usize,
    /// Root rank for rooted operations; ignored otherwise.
    pub root: RankId,
}

impl CollSpec {
    /// Convenience constructor with root 0.
    pub fn new(nprocs: usize, msg_bytes: usize) -> CollSpec {
        CollSpec {
            nprocs,
            msg_bytes,
            root: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_round_skips_empty() {
        let mut s = Schedule::new();
        s.push_round(Round::new());
        assert_eq!(s.num_rounds(), 0);
        s.push_round(Round(vec![Action::copy(10)]));
        assert_eq!(s.num_rounds(), 1);
    }

    #[test]
    fn rounds_read_back_with_their_blocks() {
        let mut s = Schedule::new();
        s.push_round(Round(vec![
            Action::copy(8),
            Action::send(1, 100, vec![4, 5]),
            Action::recv(2, 50),
        ]));
        s.push_round(Round(vec![Action::send(3, 200, vec![]), Action::calc(16)]));
        s.push_round(Round(vec![Action::send(2, 300, vec![6])]));
        assert_eq!(s.num_rounds(), 3);
        let round1: Vec<_> = s
            .round(1)
            .iter()
            .map(|op| (op.kind(), op.bytes()))
            .collect();
        assert_eq!(round1, [(OpKind::Send, 200), (OpKind::Calc, 16)]);
        assert_eq!(s.round(0)[1].peer(), 1);
        let blocks = |i| s.round_blocks(i).collect::<Vec<_>>();
        assert_eq!(blocks(0), [&[][..], &[4, 5], &[]]);
        assert_eq!(blocks(1), [&[][..], &[]]);
        assert_eq!(blocks(2), [&[6][..]]);
        assert_eq!(s.ops().len(), 6);
    }

    #[test]
    fn remove_op_keeps_the_other_ops_and_their_blocks() {
        let mut s = Schedule::new();
        s.push_round(Round(vec![Action::send(1, 8, vec![1, 2])]));
        s.push_round(Round(vec![Action::send(2, 8, vec![3]), Action::recv(2, 8)]));
        s.remove_op(0);
        // The emptied round keeps its place.
        assert_eq!(s.num_rounds(), 2);
        assert!(s.round(0).is_empty());
        assert_eq!(s.round(1).len(), 2);
        assert_eq!(s.round_blocks(1).collect::<Vec<_>>(), [&[3][..], &[]]);
        s.remove_op(1);
        assert_eq!(s.render(), "round 0:\nround 1: send->2(8)\n");
    }

    #[test]
    fn byte_accounting() {
        let mut s = Schedule::new();
        s.push_round(Round(vec![
            Action::send(1, 100, vec![0]),
            Action::recv(2, 50),
        ]));
        s.push_round(Round(vec![Action::send(3, 200, vec![1, 2])]));
        assert_eq!(s.bytes_sent(), 300);
        assert_eq!(s.bytes_received(), 50);
        assert_eq!(s.num_sends(), 2);
        assert_eq!(s.num_recvs(), 1);
    }

    #[test]
    fn render_is_readable() {
        let mut s = Schedule::new();
        s.push_round(Round(vec![Action::copy(1024)]));
        s.push_round(Round(vec![
            Action::send(3, 1024, vec![0]),
            Action::recv(1, 1024),
            Action::calc(8),
        ]));
        let r = s.render();
        assert_eq!(
            r,
            "round 0: copy(1024)\nround 1: send->3(1024) recv<-1(1024) calc(8)\n"
        );
    }

    #[test]
    fn validate_rejects_self_send() {
        let mut s = Schedule::new();
        s.push_round(Round(vec![Action::send(0, 10, vec![])]));
        assert!(s.validate(0, None).is_err());
        assert!(s.validate(1, None).is_ok());
    }

    #[test]
    fn validate_rejects_zero_bytes() {
        let mut s = Schedule::new();
        s.push_round(Round(vec![Action::recv(1, 0)]));
        assert!(s.validate(0, None).is_err());
    }

    #[test]
    fn sequence_concatenates_rounds_in_stage_order() {
        let mut a = Schedule::new();
        a.push_round(Round(vec![Action::send(1, 10, vec![0])]));
        a.push_round(Round(vec![Action::recv(1, 10)]));
        let mut b = Schedule::new();
        b.push_round(Round(vec![Action::copy(10)]));
        let s = sequence(&[&a, &b]);
        assert_eq!(s.num_rounds(), 3);
        assert_eq!(s.round(0), a.round(0));
        assert_eq!(s.round(1), a.round(1));
        assert_eq!(s.round(2), b.round(0));
        assert_eq!(s.round_blocks(0).collect::<Vec<_>>(), [[0u32].as_slice()]);
        assert_eq!(a.then(&b), s);
    }

    #[test]
    fn sequence_of_empty_stages_is_empty() {
        let empty = Schedule::new();
        assert_eq!(sequence(&[&empty, &empty]).num_rounds(), 0);
        let mut a = Schedule::new();
        a.push_round(Round(vec![Action::calc(8)]));
        assert_eq!(sequence(&[&empty, &a, &empty]), a);
    }

    #[test]
    fn stitched_scatter_allgather_is_a_bcast_mockup() {
        // Scatter delivers block r to rank r; allgather then shares every
        // rank's block. Stitched sequentially, the pair implements a
        // broadcast of all p blocks from the root — the classic mock-up.
        use crate::allgather::{build_allgather, AllgatherAlgo};
        use crate::gather::{build_scatter, GatherAlgo};
        use crate::verify;
        use std::collections::HashSet;
        for p in [2usize, 4, 7, 8] {
            let spec = CollSpec::new(p, 512);
            let scheds: Vec<Schedule> = (0..p)
                .map(|r| {
                    sequence(&[
                        &build_scatter(GatherAlgo::Binomial, r, &spec),
                        &build_allgather(AllgatherAlgo::Ring, r, &spec),
                    ])
                })
                .collect();
            for (r, s) in scheds.iter().enumerate() {
                s.validate(r, None).unwrap();
            }
            let mut initial: Vec<HashSet<u32>> = vec![HashSet::new(); p];
            initial[0] = (0..p as u32).collect();
            let got = verify::execute(&scheds, &initial).expect("mockup deadlock-free");
            for (r, recv) in got.iter().enumerate() {
                for b in 0..p as u32 {
                    assert!(
                        r == 0 || recv.contains(&b),
                        "p={p}: rank {r} missing block {b} after scatter+allgather"
                    );
                }
            }
        }
    }

    #[test]
    fn validate_checks_block_sizes() {
        let mut s = Schedule::new();
        s.push_round(Round(vec![Action::send(1, 100, vec![0, 1])]));
        assert!(s.validate(0, Some(50)).is_ok());
        assert!(s.validate(0, Some(60)).is_err());
        // Unannotated sends pass regardless.
        let mut s2 = Schedule::new();
        s2.push_round(Round(vec![Action::send(1, 100, vec![])]));
        assert!(s2.validate(0, Some(60)).is_ok());
    }
}

//! The collective-operation schedule representation.
//!
//! A [`Schedule`] is one rank's part of a collective operation. It consists
//! of rounds; all operations inside a round are independent and may
//! proceed concurrently, and a round only begins once the previous round
//! has completed locally (the LibNBC "barrier" semantics).
//!
//! Builders write a schedule once, through a [`Sink`]: `send`, `recv`,
//! `copy` and `calc` add an operation to the open round, and `round`
//! closes it. The same builder code feeds two sinks:
//!
//! * the run-time form, [`Schedule`] ([`Schedule::build`]): LibNBC's static
//!   array of rounds — one contiguous array of 16-byte [`Op`]s with round
//!   delimiters beside it, sized exactly before it is written, so a stored
//!   schedule is two heap blocks however many rounds and sends it has.
//!   Sends carry *logical block ids* that prove collective semantics; the
//!   run-time form ignores them, because the timing simulator only looks
//!   at byte counts;
//! * the verifier's form, [`Annotated`]: the same schedule plus every
//!   send's block ids, which [`crate::verify`] moves through its channels.
//!
//! A stored op names its peer relative to the rank that runs it, as
//! `(peer − rank) mod p`, and the executor resolves it when it posts the
//! round. Most exchange patterns are then one parametric shape in `p`: an
//! all-to-all, an all-gather, a ring all-reduce or a barrier has the same
//! relative form on every rank. A builder that declares its algorithm
//! rank-symmetric lets the operation that runs it store one schedule for
//! all ranks.

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
    /// Peer of a send or receive relative to the executing rank,
    /// `(peer − rank) mod p`; 0 for local operations.
    peer: u32,
    bytes: u64,
}

// A schedule is mostly its op array: keep an op at two words.
const _: () = assert!(std::mem::size_of::<Op>() == 16);

impl Op {
    /// The operation.
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// Destination of a send, source of a receive, when `rank` of `nprocs`
    /// runs the op (`rank` itself for local work).
    pub fn peer(&self, rank: RankId, nprocs: usize) -> RankId {
        let peer = rank + self.peer as usize;
        if peer >= nprocs {
            peer - nprocs
        } else {
            peer
        }
    }

    /// Payload size in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes as usize
    }
}

/// Where a builder writes one rank's schedule.
///
/// Operations go into the open round; [`round`](Sink::round) closes it,
/// and closing an empty round does nothing. Peers are absolute ranks.
pub trait Sink {
    /// Close the open round: what follows starts only once it completed.
    fn round(&mut self);
    /// Add an op of `kind` over `bytes` to the open round: `peer` names the
    /// other end of a send or receive (local work ignores it), and
    /// `blocks` the logical data a send carries.
    fn op(&mut self, kind: OpKind, peer: RankId, bytes: usize, blocks: &[u32]);

    /// Send `bytes` to `peer`, carrying the logical data `blocks`.
    fn send(&mut self, peer: RankId, bytes: usize, blocks: &[u32]) {
        self.op(OpKind::Send, peer, bytes, blocks);
    }
    /// Receive `bytes` from `peer`.
    fn recv(&mut self, peer: RankId, bytes: usize) {
        self.op(OpKind::Recv, peer, bytes, &[]);
    }
    /// Copy `bytes` locally.
    fn copy(&mut self, bytes: usize) {
        self.op(OpKind::Copy, 0, bytes, &[]);
    }
    /// Reduce over `bytes` locally.
    fn calc(&mut self, bytes: usize) {
        self.op(OpKind::Calc, 0, bytes, &[]);
    }
}

/// A complete per-rank schedule in its run-time form (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// The communicator size its relative peers are taken modulo.
    nprocs: u32,
    /// Every operation, in round order.
    ops: Vec<Op>,
    /// One past the last op of each round: round `i` is
    /// `ops[round_ends[i - 1]..round_ends[i]]`.
    round_ends: Vec<u32>,
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

/// The sink of the sizing pass: counts what a builder writes.
#[derive(Default)]
struct Count {
    ops: usize,
    rounds: usize,
    open: bool,
}

impl Sink for Count {
    fn round(&mut self) {
        self.rounds += usize::from(std::mem::take(&mut self.open));
    }
    fn op(&mut self, _: OpKind, _: RankId, _: usize, _: &[u32]) {
        self.ops += 1;
        self.open = true;
    }
}

/// The run-time sink: `rank`'s ops, with relative peers and no blocks.
struct Writer {
    rank: RankId,
    sched: Schedule,
}

impl Sink for Writer {
    fn round(&mut self) {
        self.sched.close_round();
    }
    fn op(&mut self, kind: OpKind, peer: RankId, bytes: usize, _: &[u32]) {
        self.sched.push(kind, self.rank, peer, bytes);
    }
}

impl Schedule {
    /// Empty schedule (a no-op operation).
    pub fn new() -> Schedule {
        Schedule::default()
    }

    /// `rank`'s schedule among `nprocs` ranks, as `write` describes it.
    /// `write` runs twice: once to count the ops and rounds, and once into
    /// arrays of exactly that size, so a build allocates the same number
    /// of times whatever its size (beyond what `write` allocates itself).
    pub fn build(rank: RankId, nprocs: usize, write: impl Fn(&mut dyn Sink)) -> Schedule {
        let mut count = Count::default();
        write(&mut count);
        count.round();
        let mut out = Writer {
            rank,
            sched: Schedule {
                nprocs: offset(nprocs),
                ops: Vec::with_capacity(count.ops),
                round_ends: Vec::with_capacity(count.rounds),
            },
        };
        write(&mut out);
        out.sched.close_round();
        debug_assert_eq!(out.sched.ops.len(), count.ops, "a builder wrote twice");
        out.sched
    }

    /// Append an op of `rank`, naming absolute `peer` if it is a message.
    fn push(&mut self, kind: OpKind, rank: RankId, peer: RankId, bytes: usize) {
        let p = self.nprocs as usize;
        let message = matches!(kind, OpKind::Send | OpKind::Recv);
        debug_assert!(
            rank < p && peer < p,
            "rank {rank} or peer {peer} outside {p} ranks"
        );
        let peer = if message { (peer + p - rank) % p } else { 0 };
        self.ops.push(Op {
            kind,
            peer: offset(peer),
            bytes: bytes as u64,
        });
    }

    /// End the open round, unless it is empty.
    fn close_round(&mut self) {
        let end = offset(self.ops.len());
        if self.round_ends.last().map_or(0, |&e| e) < end {
            self.round_ends.push(end);
        }
    }

    /// The communicator size the relative peers refer to.
    pub fn nprocs(&self) -> usize {
        self.nprocs as usize
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

    /// Render the schedule as `rank` runs it, as a compact human-readable
    /// listing with absolute peers, one line per round — a debugging aid
    /// for builder development:
    ///
    /// ```text
    /// round 0: copy(1024)
    /// round 1: send->3(1024) recv<-1(1024)
    /// ```
    pub fn render(&self, rank: RankId) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, round) in self.rounds().enumerate() {
            let _ = write!(out, "round {i}:");
            for op in round {
                let (peer, bytes) = (op.peer(rank, self.nprocs()), op.bytes);
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

    /// Basic well-formedness checks: no zero-byte sends/recvs and no
    /// self-messages (a relative peer of 0), on any rank.
    pub fn validate(&self) -> Result<(), String> {
        for (ri, round) in self.rounds().enumerate() {
            for op in round {
                let (dir, to_self) = match op.kind() {
                    OpKind::Send => ("send", "send to self"),
                    OpKind::Recv => ("recv", "recv from self"),
                    OpKind::Copy | OpKind::Calc => continue,
                };
                if op.peer == 0 {
                    return Err(format!("round {ri}: {to_self}"));
                }
                if op.bytes() == 0 {
                    return Err(format!("round {ri}: zero-byte {dir}"));
                }
            }
        }
        Ok(())
    }

    /// Append `next`'s rounds after this schedule's own.
    fn append(&mut self, next: &Schedule) {
        if next.num_rounds() == 0 {
            return;
        }
        assert!(
            self.num_rounds() == 0 || self.nprocs == next.nprocs,
            "stages of one schedule span {} and {} ranks",
            self.nprocs,
            next.nprocs
        );
        self.nprocs = next.nprocs;
        let ops = offset(self.ops.len());
        self.ops.extend_from_slice(&next.ops);
        self.round_ends
            .extend(next.round_ends.iter().map(|&e| e + ops));
    }
}

/// Sequential composition of per-rank schedules: the rounds of every
/// stage, concatenated in order. Because a round only begins once the
/// previous round completed *locally*, the result executes stage `k+1`
/// strictly after stage `k` on each rank — without any global barrier in
/// between, exactly like issuing the operations back to back on one
/// request. Channel FIFO order keeps the matching sound: every rank posts
/// all of stage `k`'s sends/recvs before stage `k+1`'s, so per-(src, dst)
/// traffic of consecutive stages can never cross. Writing the stages one
/// after the other into one [`Sink`] gives the same schedule.
///
/// This is the mock-up constructor of the performance-guideline literature
/// (Hunold & Carpen-Amarie): e.g. `sequence(&[scatter, allgather])` is a
/// broadcast mock-up whose measured time upper-bounds what a well-tuned
/// `Ibcast` should cost.
///
/// # Panics
/// Panics if two non-empty stages span different numbers of ranks.
pub fn sequence(stages: &[&Schedule]) -> Schedule {
    let mut out = Schedule::new();
    for stage in stages {
        out.append(stage);
    }
    out
}

/// A schedule in the verifier's form: the run-time [`Schedule`] of one
/// rank, plus the block ids of every send (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotated {
    rank: RankId,
    sched: Schedule,
    /// The block ids of every send, concatenated in op order.
    blocks: Vec<u32>,
    /// One past the last block of each op (an op that is not a send adds
    /// none): op `j` carries `blocks[block_ends[j - 1]..block_ends[j]]`.
    block_ends: Vec<u32>,
}

impl Sink for Annotated {
    fn round(&mut self) {
        self.sched.close_round();
    }
    fn op(&mut self, kind: OpKind, peer: RankId, bytes: usize, blocks: &[u32]) {
        self.sched.push(kind, self.rank, peer, bytes);
        self.blocks.extend_from_slice(blocks);
        self.block_ends.push(offset(self.blocks.len()));
    }
}

impl Annotated {
    /// `rank`'s schedule among `nprocs` ranks with its block ids, as
    /// `write` describes it.
    pub fn build(rank: RankId, nprocs: usize, write: impl FnOnce(&mut dyn Sink)) -> Annotated {
        let mut out = Annotated {
            rank,
            sched: Schedule {
                nprocs: offset(nprocs),
                ..Schedule::default()
            },
            blocks: Vec::new(),
            block_ends: Vec::new(),
        };
        write(&mut out);
        out.sched.close_round();
        out
    }

    /// The run-time form: the same ops without their blocks.
    pub fn schedule(&self) -> &Schedule {
        &self.sched
    }

    /// Number of rounds.
    pub fn num_rounds(&self) -> usize {
        self.sched.num_rounds()
    }

    /// The operations of round `i`, each with its block ids (empty for
    /// everything but an annotated send).
    ///
    /// # Panics
    /// Panics if `i >= self.num_rounds()`.
    pub fn round(&self, i: usize) -> impl ExactSizeIterator<Item = (&Op, &[u32])> + '_ {
        span(&self.sched.round_ends, i)
            .map(|j| (&self.sched.ops[j], &self.blocks[span(&self.block_ends, j)]))
    }

    /// The absolute peer `op` names on this rank.
    pub fn peer(&self, op: &Op) -> RankId {
        op.peer(self.rank, self.sched.nprocs())
    }

    /// [`Schedule::validate`], and block annotations consistent with sizes
    /// when `block_bytes` is known.
    pub fn validate(&self, block_bytes: Option<usize>) -> Result<(), String> {
        self.sched.validate()?;
        let Some(bb) = block_bytes else {
            return Ok(());
        };
        for ri in 0..self.num_rounds() {
            for (op, blocks) in self.round(ri) {
                if !blocks.is_empty() && blocks.len() * bb != op.bytes() {
                    return Err(format!(
                        "round {ri}: {} blocks x {bb} B != {} B",
                        blocks.len(),
                        op.bytes()
                    ));
                }
            }
        }
        Ok(())
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
        self.sched.ops.remove(j);
        for e in self
            .sched
            .round_ends
            .iter_mut()
            .filter(|e| **e as usize > j)
        {
            *e -= 1;
        }
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

    /// Rank 0's schedule among 4 ranks, as `write` describes it.
    fn build(write: impl Fn(&mut dyn Sink)) -> Schedule {
        Schedule::build(0, 4, write)
    }

    #[test]
    fn empty_rounds_are_skipped() {
        let s = build(|out| {
            out.round();
            out.round();
        });
        assert_eq!(s.num_rounds(), 0);
        let s = build(|out| {
            out.copy(10);
            out.round();
            out.round();
        });
        assert_eq!(s.num_rounds(), 1);
    }

    #[test]
    fn rounds_read_back_with_their_blocks() {
        let s = Annotated::build(2, 4, |out| {
            out.copy(8);
            out.send(1, 100, &[4, 5]);
            out.recv(3, 50);
            out.round();
            out.send(3, 200, &[]);
            out.calc(16);
            out.round();
            out.send(0, 300, &[6]);
        });
        assert_eq!(s.num_rounds(), 3);
        let round1: Vec<_> = s.round(1).map(|(op, _)| (op.kind(), op.bytes())).collect();
        assert_eq!(round1, [(OpKind::Send, 200), (OpKind::Calc, 16)]);
        let (send, _) = s.round(0).nth(1).unwrap();
        assert_eq!((s.peer(send), send.peer(0, 4)), (1, 3));
        let blocks = |i| s.round(i).map(|(_, b)| b).collect::<Vec<_>>();
        assert_eq!(blocks(0), [&[][..], &[4, 5], &[]]);
        assert_eq!(blocks(1), [&[][..], &[]]);
        assert_eq!(blocks(2), [&[6][..]]);
        assert_eq!(s.schedule().ops().len(), 6);
    }

    #[test]
    fn remove_op_keeps_the_other_ops_and_their_blocks() {
        let mut s = Annotated::build(0, 4, |out| {
            out.send(1, 8, &[1, 2]);
            out.round();
            out.send(2, 8, &[3]);
            out.recv(2, 8);
        });
        s.remove_op(0);
        // The emptied round keeps its place.
        assert_eq!(s.num_rounds(), 2);
        assert_eq!(s.round(0).len(), 0);
        assert_eq!(s.round(1).len(), 2);
        let blocks: Vec<_> = s.round(1).map(|(_, b)| b).collect();
        assert_eq!(blocks, [&[3][..], &[]]);
        s.remove_op(1);
        assert_eq!(s.schedule().render(0), "round 0:\nround 1: send->2(8)\n");
    }

    #[test]
    fn byte_accounting() {
        let s = build(|out| {
            out.send(1, 100, &[0]);
            out.recv(2, 50);
            out.round();
            out.send(3, 200, &[1, 2]);
        });
        assert_eq!(s.bytes_sent(), 300);
        assert_eq!(s.bytes_received(), 50);
        assert_eq!(s.num_sends(), 2);
        assert_eq!(s.num_recvs(), 1);
    }

    #[test]
    fn render_is_readable() {
        let s = build(|out| {
            out.copy(1024);
            out.round();
            out.send(3, 1024, &[0]);
            out.recv(1, 1024);
            out.calc(8);
        });
        let r = s.render(0);
        assert_eq!(
            r,
            "round 0: copy(1024)\nround 1: send->3(1024) recv<-1(1024) calc(8)\n"
        );
        // The same relative form, run by rank 2, names other peers.
        assert_eq!(
            s.render(2),
            "round 0: copy(1024)\nround 1: send->1(1024) recv<-3(1024) calc(8)\n"
        );
    }

    #[test]
    fn validate_rejects_self_send() {
        assert!(Schedule::build(0, 2, |out| out.send(0, 10, &[]))
            .validate()
            .is_err());
        assert!(Schedule::build(1, 2, |out| out.send(0, 10, &[]))
            .validate()
            .is_ok());
    }

    #[test]
    fn validate_rejects_zero_bytes() {
        assert!(build(|out| out.recv(1, 0)).validate().is_err());
    }

    #[test]
    fn sequence_concatenates_rounds_in_stage_order() {
        let a = build(|out| {
            out.send(1, 10, &[0]);
            out.round();
            out.recv(1, 10);
        });
        let b = build(|out| out.copy(10));
        let s = sequence(&[&a, &b]);
        assert_eq!(s.num_rounds(), 3);
        assert_eq!(s.round(0), a.round(0));
        assert_eq!(s.round(1), a.round(1));
        assert_eq!(s.round(2), b.round(0));
    }

    #[test]
    fn sequence_of_empty_stages_is_empty() {
        let empty = Schedule::new();
        assert_eq!(sequence(&[&empty, &empty]).num_rounds(), 0);
        let a = build(|out| out.calc(8));
        assert_eq!(sequence(&[&empty, &a, &empty]), a);
    }

    #[test]
    fn stitched_scatter_allgather_is_a_bcast_mockup() {
        // Scatter delivers block r to rank r; allgather then shares every
        // rank's block. Stitched sequentially, the pair implements a
        // broadcast of all p blocks from the root — the classic mock-up.
        use crate::allgather::{build_allgather, write_allgather, AllgatherAlgo};
        use crate::gather::{build_scatter, write_scatter, GatherAlgo};
        use crate::verify;
        use std::collections::HashSet;
        for p in [2usize, 4, 7, 8] {
            let spec = CollSpec::new(p, 512);
            let scheds: Vec<Annotated> = (0..p)
                .map(|r| {
                    Annotated::build(r, p, |out| {
                        write_scatter(GatherAlgo::Binomial, r, &spec, out);
                        write_allgather(AllgatherAlgo::Ring, r, &spec, out);
                    })
                })
                .collect();
            for (r, s) in scheds.iter().enumerate() {
                s.validate(None).unwrap();
                // Writing both stages into one sink is `sequence`.
                let stitched = sequence(&[
                    &build_scatter(GatherAlgo::Binomial, r, &spec),
                    &build_allgather(AllgatherAlgo::Ring, r, &spec),
                ]);
                assert_eq!(&stitched, s.schedule(), "p={p} rank {r}");
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
        let s = Annotated::build(0, 2, |out| out.send(1, 100, &[0, 1]));
        assert!(s.validate(Some(50)).is_ok());
        assert!(s.validate(Some(60)).is_err());
        // Unannotated sends pass regardless.
        let s2 = Annotated::build(0, 2, |out| out.send(1, 100, &[]));
        assert!(s2.validate(Some(60)).is_ok());
    }
}

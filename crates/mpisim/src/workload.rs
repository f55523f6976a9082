//! Reusable [`RankBehavior`] workloads.
//!
//! [`NeighborExchange`] is a multi-round ring exchange that alternates
//! eager and rendezvous sizes. The golden digests, the allocation test and
//! the engine benchmarks all drive [`World`] through it.

use crate::types::{NoiseConfig, RankId, RecvHandle, SendHandle, Tag};
use crate::world::{RankBehavior, Step, World};
use simcore::SimTime;

/// Where one rank is inside its current round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// About to run the round's compute block.
    Compute,
    /// Compute done; post the send to the right neighbour.
    PostSend,
    /// Send posted; post the receive from the left neighbour.
    PostRecv,
    /// Both posted; poll and wait for completion.
    Wait,
}

/// Per-rank interpreter state.
#[derive(Debug)]
struct RankProg {
    round: usize,
    phase: Phase,
    sends: Vec<SendHandle>,
    recvs: Vec<RecvHandle>,
    finish: SimTime,
}

impl RankProg {
    fn new() -> Self {
        RankProg {
            round: 0,
            phase: Phase::Compute,
            // One send and one receive are outstanding per round.
            sends: Vec::with_capacity(1),
            recvs: Vec::with_capacity(1),
            finish: SimTime::ZERO,
        }
    }
}

/// A ring neighbour exchange: each round, every rank computes, sends to
/// `(r + 1) % n`, receives from `(r + n - 1) % n`, and waits for both.
/// Rounds alternate between a small (eager) and a large (rendezvous)
/// message size, so one run exercises both protocol paths.
///
/// Tags are `Tag(round)` — allocated identically on every rank without
/// touching the world-global tag counter.
pub struct NeighborExchange {
    nranks: usize,
    rounds: usize,
    small: usize,
    large: usize,
    compute: SimTime,
    progs: Vec<RankProg>,
}

impl NeighborExchange {
    /// `rounds` rounds over `nranks` ranks, alternating `small` (even
    /// rounds) and `large` (odd rounds) message sizes, with 20 µs of
    /// compute per round.
    pub fn new(nranks: usize, rounds: usize, small: usize, large: usize) -> Self {
        NeighborExchange {
            nranks,
            rounds,
            small,
            large,
            compute: SimTime::from_micros(20),
            progs: (0..nranks).map(|_| RankProg::new()).collect(),
        }
    }

    /// Per-rank finish times (valid after a completed run).
    pub fn finish_times(&self) -> Vec<SimTime> {
        self.progs.iter().map(|p| p.finish).collect()
    }
}

impl RankBehavior for NeighborExchange {
    fn step(&mut self, w: &mut World, r: RankId) -> Step {
        let p = &mut self.progs[r];
        loop {
            if p.round >= self.rounds {
                p.finish = w.rank_now(r);
                return Step::Done;
            }
            match p.phase {
                Phase::Compute => {
                    p.phase = Phase::PostSend;
                    return Step::Compute(self.compute);
                }
                Phase::PostSend => {
                    let dst = (r + 1) % self.nranks;
                    let bytes = if p.round.is_multiple_of(2) {
                        self.small
                    } else {
                        self.large
                    };
                    let tag = Tag(p.round as u64);
                    let at = w.rank_now(r) + w.o_send(r, dst);
                    let h = w.isend(r, dst, tag, bytes, at);
                    p.sends.push(h);
                    p.phase = Phase::PostRecv;
                    return Step::Busy(w.o_send(r, dst));
                }
                Phase::PostRecv => {
                    let src = (r + self.nranks - 1) % self.nranks;
                    let bytes = if p.round.is_multiple_of(2) {
                        self.small
                    } else {
                        self.large
                    };
                    let tag = Tag(p.round as u64);
                    let at = w.rank_now(r) + w.o_recv(r, src);
                    let h = w.irecv(r, src, tag, bytes, at);
                    p.recvs.push(h);
                    p.phase = Phase::Wait;
                    return Step::Busy(w.o_recv(r, src));
                }
                Phase::Wait => {
                    let now = w.rank_now(r);
                    w.poll(r, now);
                    let done = p.sends.iter().all(|&h| w.send_done(h, now))
                        && p.recvs.iter().all(|&h| w.recv_done(h, now));
                    if done {
                        p.sends.drain(..).for_each(|h| w.release_send(h));
                        p.recvs.drain(..).for_each(|h| w.release_recv(h));
                        p.round += 1;
                        p.phase = Phase::Compute;
                        // Fall through: start the next round immediately.
                    } else {
                        return Step::Block;
                    }
                }
            }
        }
    }
}

/// Convenience used by tests and benchmarks: run `NeighborExchange` on a
/// fresh world and return `(makespan, digest)`.
pub fn run_neighbor_exchange(
    world: &mut World,
    rounds: usize,
    small: usize,
    large: usize,
) -> (Result<SimTime, crate::world::SimError>, u64) {
    let mut b = NeighborExchange::new(world.nranks(), rounds, small, large);
    let out = world.run(&mut b);
    (out, world.event_digest())
}

/// Build a standard world for workload tests.
pub fn test_world(platform: netmodel::Platform, nranks: usize) -> World {
    World::new(
        platform,
        nranks,
        netmodel::Placement::RoundRobin,
        NoiseConfig::none(),
    )
}

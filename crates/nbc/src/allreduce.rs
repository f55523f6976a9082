//! All-reduce schedule builders: recursive doubling, ring
//! (reduce-scatter + all-gather), and reduce + broadcast.
//!
//! ADCL's operation library includes `All-reduce` (§III-A); these are the
//! three classic implementations. Block id = contributing rank; the
//! verifier checks every rank ends up having (transitively) received every
//! other rank's contribution.

use crate::bcast::{build_bcast, tree_links, BcastAlgo};
use crate::schedule::{Action, CollSpec, OpKind, Round, Schedule};
use mpisim::RankId;

/// The all-reduce algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllreduceAlgo {
    /// Recursive doubling / halving (log₂ p rounds of full-payload
    /// exchanges); the classic choice for small payloads.
    RecursiveDoubling,
    /// Ring reduce-scatter followed by a ring all-gather: `2(p−1)` rounds
    /// of `s/p`-sized messages; bandwidth-optimal for large payloads.
    Ring,
    /// Binomial reduce to rank 0 followed by a binomial broadcast.
    ReduceBcast,
}

impl AllreduceAlgo {
    /// All implementations.
    pub fn all() -> Vec<AllreduceAlgo> {
        vec![
            AllreduceAlgo::RecursiveDoubling,
            AllreduceAlgo::Ring,
            AllreduceAlgo::ReduceBcast,
        ]
    }

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            AllreduceAlgo::RecursiveDoubling => "recursive-doubling",
            AllreduceAlgo::Ring => "ring",
            AllreduceAlgo::ReduceBcast => "reduce-bcast",
        }
    }
}

/// Build the all-reduce schedule for `rank`. `spec.msg_bytes` is the full
/// reduction payload.
pub fn build_allreduce(algo: AllreduceAlgo, rank: RankId, spec: &CollSpec) -> Schedule {
    let p = spec.nprocs;
    let bytes = spec.msg_bytes;
    let mut sched = Schedule::new();
    if p <= 1 || bytes == 0 {
        return sched;
    }
    match algo {
        AllreduceAlgo::RecursiveDoubling => build_recursive_doubling(rank, p, bytes, &mut sched),
        AllreduceAlgo::Ring => build_ring(rank, p, bytes, &mut sched),
        AllreduceAlgo::ReduceBcast => build_reduce_bcast(rank, spec, &mut sched),
    }
    sched
}

/// Recursive doubling with the standard non-power-of-two pre/post phases:
/// extra ranks (`r >= 2^K`) first fold their contribution into `r − 2^K`,
/// the power-of-two core runs log₂ rounds of pairwise exchanges, and the
/// result is copied back out to the extras.
fn build_recursive_doubling(rank: RankId, p: usize, bytes: usize, sched: &mut Schedule) {
    let k = p.ilog2() as usize; // largest power of two <= p
    let core = 1usize << k;
    let rem = p - core;
    let all: Vec<u32> = (0..p as u32).collect();

    if rank >= core {
        // Extra rank: contribute, then receive the final result.
        let partner = rank - core;
        sched.push_round(Round(vec![Action::send(partner, bytes, vec![rank as u32])]));
        sched.push_round(Round(vec![Action::recv(partner, bytes)]));
        return;
    }
    // Fold in the extra rank's contribution, if any.
    let mut contrib: Vec<u32> = vec![rank as u32];
    if rank < rem {
        sched.push_round(Round(vec![
            Action::recv(rank + core, bytes),
            Action::calc(bytes),
        ]));
        contrib.push((rank + core) as u32);
    }
    // Doubling rounds: after round j, a rank holds contributions of every
    // core rank sharing its high bits, plus those ranks' folded extras.
    for j in 0..k {
        let peer = rank ^ (1 << j);
        sched.push_round(Round(vec![
            Action::send(peer, bytes, contrib.clone()),
            Action::recv(peer, bytes),
            Action::calc(bytes),
        ]));
        // After the exchange, our set unions the peer's; the peer group is
        // our group with bit j flipped (plus their extras).
        let mask = (1usize << (j + 1)) - 1;
        contrib = (0..core)
            .filter(|&c| c & !mask == rank & !mask)
            .flat_map(|c| {
                let mut v = vec![c as u32];
                if c < rem {
                    v.push((c + core) as u32);
                }
                v
            })
            .collect();
    }
    debug_assert_eq!(contrib.len(), p);
    // Push the result back to the extra rank.
    if rank < rem {
        sched.push_round(Round(vec![Action::send(rank + core, bytes, all)]));
    }
}

/// Ring all-reduce: `p−1` reduce-scatter rounds followed by `p−1`
/// all-gather rounds, all on `ceil(bytes/p)`-sized segments.
fn build_ring(rank: RankId, p: usize, bytes: usize, sched: &mut Schedule) {
    let seg = bytes.div_ceil(p);
    let next = (rank + 1) % p;
    let prev = (rank + p - 1) % p;
    // Reduce-scatter: in round k we forward segment (rank - k) carrying the
    // partial sums accumulated along the ring behind us.
    for k in 0..p - 1 {
        let contrib: Vec<u32> = (0..=k).map(|i| ((rank + p - k + i) % p) as u32).collect();
        sched.push_round(Round(vec![
            Action::send(next, seg, contrib),
            Action::recv(prev, seg),
            Action::calc(seg),
        ]));
    }
    // All-gather: circulate the fully reduced segments. The reductions are
    // complete, so these rounds move no *new* contributions (empty block
    // annotations); they distribute the reduced vector.
    for _k in 0..p - 1 {
        sched.push_round(Round(vec![
            Action::send(next, seg, Vec::new()),
            Action::recv(prev, seg),
            Action::copy(seg),
        ]));
    }
}

/// Binomial reduce to the root followed by a binomial broadcast, with the
/// broadcast's payload carrying every contribution.
fn build_reduce_bcast(rank: RankId, spec: &CollSpec, sched: &mut Schedule) {
    let p = spec.nprocs;
    let bytes = spec.msg_bytes;
    // Reduce phase (same construction as nbc::reduce, binomial).
    let (parent, children) = tree_links(BcastAlgo::Binomial, rank, spec);
    for &c in children.iter().rev() {
        sched.push_round(Round(vec![Action::recv(c, bytes), Action::calc(bytes)]));
    }
    if let Some(par) = parent {
        let contrib: Vec<u32> =
            crate::reduce::subtree(crate::reduce::ReduceAlgo::Binomial, rank, spec)
                .iter()
                .map(|&r| r as u32)
                .collect();
        sched.push_round(Round(vec![Action::send(par, bytes, contrib)]));
    }
    // Broadcast phase: root now holds everything. Annotate the broadcast
    // sends with the full contribution set so the verifier can track the
    // result reaching every rank. We reuse the bcast builder's structure
    // but re-annotate its (segment-id) blocks.
    let all: Vec<u32> = (0..p as u32).collect();
    let bc = build_bcast(BcastAlgo::Binomial, bytes.max(1), rank, spec);
    for round in bc.rounds() {
        let r2 = round.iter().map(|op| match op.kind() {
            OpKind::Send => Action::send(op.peer(), op.bytes(), all.clone()),
            OpKind::Recv => Action::recv(op.peer(), op.bytes()),
            OpKind::Copy => Action::copy(op.bytes()),
            OpKind::Calc => Action::calc(op.bytes()),
        });
        sched.push_round(Round(r2.collect()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;

    fn verify_allreduce(p: usize, bytes: usize, algo: AllreduceAlgo) -> Result<(), String> {
        let spec = CollSpec::new(p, bytes);
        let scheds: Vec<Schedule> = (0..p).map(|r| build_allreduce(algo, r, &spec)).collect();
        for (r, s) in scheds.iter().enumerate() {
            s.validate(r, None)?;
        }
        verify::verify_allreduce(&scheds)
    }

    #[test]
    fn recursive_doubling_power_of_two() {
        for p in [2usize, 4, 8, 16, 32] {
            verify_allreduce(p, 4096, AllreduceAlgo::RecursiveDoubling)
                .unwrap_or_else(|e| panic!("p={p}: {e}"));
        }
    }

    #[test]
    fn recursive_doubling_arbitrary_sizes() {
        for p in [3usize, 5, 6, 7, 11, 12, 24, 33] {
            verify_allreduce(p, 4096, AllreduceAlgo::RecursiveDoubling)
                .unwrap_or_else(|e| panic!("p={p}: {e}"));
        }
    }

    #[test]
    fn ring_and_reduce_bcast() {
        for p in [2usize, 3, 8, 13] {
            verify_allreduce(p, 64 * 1024, AllreduceAlgo::Ring)
                .unwrap_or_else(|e| panic!("ring p={p}: {e}"));
            verify_allreduce(p, 64 * 1024, AllreduceAlgo::ReduceBcast)
                .unwrap_or_else(|e| panic!("reduce-bcast p={p}: {e}"));
        }
    }

    #[test]
    fn round_counts() {
        let spec = CollSpec::new(8, 8192);
        let rd = build_allreduce(AllreduceAlgo::RecursiveDoubling, 3, &spec);
        assert_eq!(rd.num_rounds(), 3); // log2(8)
        let ring = build_allreduce(AllreduceAlgo::Ring, 3, &spec);
        assert_eq!(ring.num_rounds(), 14); // 2*(p-1)
    }

    #[test]
    fn ring_message_sizes_are_segments() {
        let spec = CollSpec::new(8, 8000);
        let s = build_allreduce(AllreduceAlgo::Ring, 0, &spec);
        // every send is one 1000-byte segment
        for op in s.ops() {
            if op.kind() == OpKind::Send {
                assert_eq!(op.bytes(), 1000);
            }
        }
    }

    #[test]
    fn degenerate() {
        for algo in AllreduceAlgo::all() {
            assert_eq!(
                build_allreduce(algo, 0, &CollSpec::new(1, 64)).num_rounds(),
                0
            );
        }
    }
}

//! All-reduce schedule builders: recursive doubling, ring
//! (reduce-scatter + all-gather), and reduce + broadcast.
//!
//! ADCL's operation library includes `All-reduce` (§III-A); these are the
//! three classic implementations. Block id = contributing rank; the
//! verifier checks every rank ends up having (transitively) received every
//! other rank's contribution.

use crate::bcast::{tree_links, BcastAlgo};
use crate::reduce::{write_reduce, ReduceAlgo};
use crate::schedule::{CollSpec, Schedule, Sink};
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

    /// Whether each rank's schedule, with peers relative to the rank, is
    /// the same: true for the ring, whose every rank sends to its
    /// successor; the other two are shaped by the rank's place in a tree
    /// or a hypercube.
    pub fn symmetric(self) -> bool {
        self == AllreduceAlgo::Ring
    }
}

/// Build the all-reduce schedule for `rank`. `spec.msg_bytes` is the full
/// reduction payload.
pub fn build_allreduce(algo: AllreduceAlgo, rank: RankId, spec: &CollSpec) -> Schedule {
    Schedule::build(rank, spec.nprocs, |out| {
        write_allreduce(algo, rank, spec, out)
    })
}

/// Write the all-reduce schedule for `rank` into `out`.
pub fn write_allreduce(algo: AllreduceAlgo, rank: RankId, spec: &CollSpec, out: &mut dyn Sink) {
    let p = spec.nprocs;
    let bytes = spec.msg_bytes;
    if p <= 1 || bytes == 0 {
        return;
    }
    match algo {
        AllreduceAlgo::RecursiveDoubling => write_recursive_doubling(rank, p, bytes, out),
        AllreduceAlgo::Ring => write_ring(rank, p, bytes, out),
        AllreduceAlgo::ReduceBcast => write_reduce_bcast(rank, spec, out),
    }
}

/// Recursive doubling with the standard non-power-of-two pre/post phases:
/// extra ranks (`r >= 2^K`) first fold their contribution into `r − 2^K`,
/// the power-of-two core runs log₂ rounds of pairwise exchanges, and the
/// result is copied back out to the extras.
fn write_recursive_doubling(rank: RankId, p: usize, bytes: usize, out: &mut dyn Sink) {
    let k = p.ilog2() as usize; // largest power of two <= p
    let core = 1usize << k;
    let rem = p - core;

    if rank >= core {
        // Extra rank: contribute, then receive the final result.
        let partner = rank - core;
        out.send(partner, bytes, &[rank as u32]);
        out.round();
        out.recv(partner, bytes);
        out.round();
        return;
    }
    // Fold in the extra rank's contribution, if any.
    let mut contrib: Vec<u32> = vec![rank as u32];
    if rank < rem {
        out.recv(rank + core, bytes);
        out.calc(bytes);
        out.round();
        contrib.push((rank + core) as u32);
    }
    // Doubling rounds: after round j, a rank holds contributions of every
    // core rank sharing its high bits, plus those ranks' folded extras.
    for j in 0..k {
        let peer = rank ^ (1 << j);
        out.send(peer, bytes, &contrib);
        out.recv(peer, bytes);
        out.calc(bytes);
        out.round();
        // After the exchange, our set unions the peer's; the peer group is
        // our group with bit j flipped (plus their extras).
        let mask = (1usize << (j + 1)) - 1;
        contrib.clear();
        for c in (0..core).filter(|&c| c & !mask == rank & !mask) {
            contrib.push(c as u32);
            if c < rem {
                contrib.push((c + core) as u32);
            }
        }
    }
    debug_assert_eq!(contrib.len(), p);
    // Push the result back to the extra rank.
    if rank < rem {
        out.send(rank + core, bytes, &contrib);
        out.round();
    }
}

/// Ring all-reduce: `p−1` reduce-scatter rounds followed by `p−1`
/// all-gather rounds, all on `ceil(bytes/p)`-sized segments.
fn write_ring(rank: RankId, p: usize, bytes: usize, out: &mut dyn Sink) {
    let seg = bytes.div_ceil(p);
    let next = (rank + 1) % p;
    let prev = (rank + p - 1) % p;
    // Reduce-scatter: in round k we forward segment (rank - k) carrying the
    // partial sums accumulated along the ring behind us. One list for every
    // round's blocks: a build allocates it once.
    let mut contrib = Vec::with_capacity(p);
    for k in 0..p - 1 {
        contrib.clear();
        contrib.extend((0..=k).map(|i| ((rank + p - k + i) % p) as u32));
        out.send(next, seg, &contrib);
        out.recv(prev, seg);
        out.calc(seg);
        out.round();
    }
    // All-gather: circulate the fully reduced segments. The reductions are
    // complete, so these rounds move no *new* contributions (empty block
    // annotations); they distribute the reduced vector.
    for _k in 0..p - 1 {
        out.send(next, seg, &[]);
        out.recv(prev, seg);
        out.copy(seg);
        out.round();
    }
}

/// Binomial reduce to the root followed by a binomial broadcast, with the
/// broadcast's payload carrying every contribution.
fn write_reduce_bcast(rank: RankId, spec: &CollSpec, out: &mut dyn Sink) {
    write_reduce(ReduceAlgo::Binomial, rank, spec, out);
    // Broadcast phase: the root now holds everything, and sends the whole
    // payload down the binomial tree in one segment. The sends carry the
    // full contribution set so the verifier can track the result reaching
    // every rank.
    let bytes = spec.msg_bytes;
    let (parent, children) = tree_links(BcastAlgo::Binomial, rank, spec);
    if let Some(par) = parent {
        out.recv(par, bytes);
        out.round();
    }
    let all: Vec<u32> = (0..spec.nprocs as u32).collect();
    for &c in &children {
        out.send(c, bytes, &all);
    }
    out.round();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::OpKind;
    use crate::verify;

    fn verify_allreduce(p: usize, bytes: usize, algo: AllreduceAlgo) -> Result<(), String> {
        let spec = CollSpec::new(p, bytes);
        let scheds = verify::annotate_all(p, |r, out| write_allreduce(algo, r, &spec, out));
        for s in &scheds {
            s.validate(None)?;
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

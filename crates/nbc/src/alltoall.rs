//! All-to-all schedule builders: linear, pairwise exchange, and
//! dissemination (Bruck).
//!
//! These are the three `Ialltoall` implementations of the paper's
//! function-set. Their cost profiles differ sharply, which is exactly what
//! the runtime tuner exploits:
//!
//! * **linear** — a single round posting all `p−1` sends and receives at
//!   once. Minimum rounds (one progress call suffices), maximum NIC
//!   contention (incast); great on InfiniBand with compute to overlap,
//!   terrible on TCP (Fig. 3).
//! * **pairwise** — `p−1` balanced rounds, one partner per round. Gentle on
//!   the network, needs many progress calls to stream (Fig. 7).
//! * **dissemination (Bruck)** — `⌈log₂ p⌉` rounds of aggregated blocks.
//!   Fewest messages (latency-optimal, best for small payloads) but moves
//!   `(p/2)·log₂ p` blocks in total (worst for large payloads, Fig. 4).
//!
//! Logical block ids encode `(src, dst)` pairs as `src * p + dst`; the
//! verifier checks every rank ends up with every block addressed to it.

use crate::schedule::{CollSpec, Schedule, Sink};
use mpisim::RankId;

/// The all-to-all algorithm (the paper's three implementations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlltoallAlgo {
    /// One round, all pairs at once.
    Linear,
    /// `p−1` rounds, one send/receive partner per round.
    Pairwise,
    /// Bruck's algorithm: `⌈log₂ p⌉` rounds of aggregated blocks.
    Dissemination,
}

impl AlltoallAlgo {
    /// All three implementations.
    pub fn all() -> Vec<AlltoallAlgo> {
        vec![
            AlltoallAlgo::Linear,
            AlltoallAlgo::Pairwise,
            AlltoallAlgo::Dissemination,
        ]
    }

    /// Report name (paper terminology).
    pub fn name(self) -> &'static str {
        match self {
            AlltoallAlgo::Linear => "linear",
            AlltoallAlgo::Pairwise => "pairwise",
            AlltoallAlgo::Dissemination => "dissemination",
        }
    }

    /// Every all-to-all is rank-symmetric: each rank's schedule, with peers
    /// relative to the rank, is the same.
    pub fn symmetric(self) -> bool {
        true
    }
}

/// Logical block id for the payload travelling `src → dst`.
pub fn block_id(src: RankId, dst: RankId, p: usize) -> u32 {
    (src * p + dst) as u32
}

/// Build the all-to-all schedule for `rank`. `spec.msg_bytes` is the
/// per-pair block size (the paper's "message length per process pair").
pub fn build_alltoall(algo: AlltoallAlgo, rank: RankId, spec: &CollSpec) -> Schedule {
    Schedule::build(rank, spec.nprocs, |out| {
        write_alltoall(algo, rank, spec, out)
    })
}

/// Write the all-to-all schedule for `rank` into `out`.
pub fn write_alltoall(algo: AlltoallAlgo, rank: RankId, spec: &CollSpec, out: &mut dyn Sink) {
    let p = spec.nprocs;
    let s = spec.msg_bytes;
    if p <= 1 || s == 0 {
        return;
    }
    match algo {
        AlltoallAlgo::Linear => {
            // Self-block: plain memcpy.
            out.copy(s);
            for off in 1..p {
                let peer = (rank + off) % p;
                out.send(peer, s, &[block_id(rank, peer, p)]);
                out.recv((rank + p - off) % p, s);
            }
            out.round();
        }
        AlltoallAlgo::Pairwise => {
            out.copy(s);
            out.round();
            for k in 1..p {
                let to = (rank + k) % p;
                out.send(to, s, &[block_id(rank, to, p)]);
                out.recv((rank + p - k) % p, s);
                out.round();
            }
        }
        AlltoallAlgo::Dissemination => write_bruck(rank, p, s, out),
    }
}

/// Bruck's algorithm.
///
/// Position invariant (see the derivation in `DESIGN.md` / the module
/// tests): before phase `k`, position `i` of rank `r` holds the block with
/// `src = (r − (i mod 2^k)) mod p` and `dst = (r + i − (i mod 2^k)) mod p`.
/// Phase `k` ships every position with bit `k` set to rank `(r + 2^k) mod p`
/// and receives the same positions from `(r − 2^k) mod p`. After all phases
/// every position holds a block destined for `r`.
fn write_bruck(rank: RankId, p: usize, s: usize, out: &mut dyn Sink) {
    // Phase 1: local rotation of the send buffer (p blocks).
    out.copy(p * s);
    out.round();
    // One list for every phase's blocks: a build allocates it once.
    let mut blocks = Vec::with_capacity(p);
    let phases = usize::BITS - (p - 1).leading_zeros(); // ceil(log2 p)
    for k in 0..phases {
        let bit = 1usize << k;
        // Blocks at positions with bit k set, given the invariant above.
        blocks.clear();
        blocks.extend((0..p).filter(|i| i & bit != 0).map(|i| {
            let low = i % bit; // i mod 2^k
            block_id((rank + p - low) % p, (rank + i - low) % p, p)
        }));
        let cnt = blocks.len();
        debug_assert!(cnt > 0, "phase with nothing to send (p={p}, k={k})");
        // Pack, exchange, unpack.
        out.copy(cnt * s);
        out.send((rank + bit) % p, cnt * s, &blocks);
        out.recv((rank + p - bit) % p, cnt * s);
        out.round();
    }
    // Phase 3: final local inverse rotation.
    out.copy(p * s);
    out.round();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Annotated, OpKind};

    #[test]
    fn linear_is_single_round() {
        let sched = build_alltoall(AlltoallAlgo::Linear, 2, &CollSpec::new(8, 100));
        assert_eq!(sched.num_rounds(), 1);
        assert_eq!(sched.num_sends(), 7);
        assert_eq!(sched.num_recvs(), 7);
        assert_eq!(sched.bytes_sent(), 700);
    }

    #[test]
    fn pairwise_round_structure() {
        let p = 6;
        let sched = build_alltoall(AlltoallAlgo::Pairwise, 1, &CollSpec::new(p, 10));
        // copy round + p-1 exchange rounds
        assert_eq!(sched.num_rounds(), p);
        // each exchange round: exactly one send and one recv
        for round in sched.rounds().skip(1) {
            let count = |kind| round.iter().filter(|op| op.kind() == kind).count();
            assert_eq!((count(OpKind::Send), count(OpKind::Recv)), (1, 1));
        }
    }

    #[test]
    fn pairwise_partners_distinct_per_round() {
        let p = 5;
        let sched = build_alltoall(AlltoallAlgo::Pairwise, 3, &CollSpec::new(p, 10));
        let mut partners = Vec::new();
        for round in sched.rounds().skip(1) {
            let sends = round.iter().filter(|op| op.kind() == OpKind::Send);
            partners.extend(sends.map(|op| op.peer(3, p)));
        }
        partners.sort_unstable();
        partners.dedup();
        assert_eq!(partners.len(), p - 1);
    }

    #[test]
    fn bruck_round_count_logarithmic() {
        for (p, phases) in [(2usize, 1usize), (4, 2), (5, 3), (8, 3), (16, 4), (33, 6)] {
            let sched = build_alltoall(AlltoallAlgo::Dissemination, 0, &CollSpec::new(p, 8));
            // rotation + phases + inverse rotation
            assert_eq!(sched.num_rounds(), phases + 2, "p={p}");
        }
    }

    #[test]
    fn bruck_total_volume_exceeds_linear() {
        // Bruck trades volume for message count: total bytes sent must be
        // >= the linear algorithm's (p-1)*s for p > 2.
        let p = 16;
        let s = 1000;
        let bruck = build_alltoall(AlltoallAlgo::Dissemination, 0, &CollSpec::new(p, s));
        let linear = build_alltoall(AlltoallAlgo::Linear, 0, &CollSpec::new(p, s));
        assert!(bruck.bytes_sent() > linear.bytes_sent());
        // and exactly (p/2) * log2(p) * s for power-of-two p
        assert_eq!(bruck.bytes_sent(), (p / 2) * 4 * s);
        // but far fewer messages
        assert!(bruck.num_sends() < linear.num_sends());
    }

    #[test]
    fn bruck_send_recv_volumes_balance() {
        for p in [2usize, 3, 7, 12, 16] {
            let specs = CollSpec::new(p, 64);
            for r in 0..p {
                let sched = build_alltoall(AlltoallAlgo::Dissemination, r, &specs);
                assert_eq!(sched.bytes_sent(), sched.bytes_received(), "p={p} r={r}");
            }
        }
    }

    #[test]
    fn degenerate_cases() {
        for algo in AlltoallAlgo::all() {
            assert_eq!(
                build_alltoall(algo, 0, &CollSpec::new(1, 100)).num_rounds(),
                0
            );
            assert_eq!(
                build_alltoall(algo, 0, &CollSpec::new(4, 0)).num_rounds(),
                0
            );
        }
    }

    #[test]
    fn schedules_validate_with_block_sizes() {
        for p in [2usize, 3, 8, 10] {
            let spec = CollSpec::new(p, 128);
            for algo in AlltoallAlgo::all() {
                for r in 0..p {
                    Annotated::build(r, p, |out| write_alltoall(algo, r, &spec, out))
                        .validate(Some(128))
                        .unwrap_or_else(|e| panic!("{algo:?} p={p} r={r}: {e}"));
                }
            }
        }
    }
}

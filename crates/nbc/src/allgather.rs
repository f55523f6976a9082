//! All-gather schedule builders: linear, ring, and Bruck (dissemination).
//!
//! ADCL's function-set library also covers `Iallgather` (the paper converts
//! the Open MPI `MPI_Allgather` implementations to LibNBC schedules). Block
//! id `i` denotes rank `i`'s contribution.

use crate::schedule::{CollSpec, Schedule, Sink};
use mpisim::RankId;

/// The all-gather algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllgatherAlgo {
    /// One round: everyone sends its block to everyone.
    Linear,
    /// `p−1` rounds around a ring, forwarding the newest block.
    Ring,
    /// `⌈log₂ p⌉` rounds, doubling the gathered prefix each round.
    Bruck,
}

impl AllgatherAlgo {
    /// All implementations.
    pub fn all() -> Vec<AllgatherAlgo> {
        vec![
            AllgatherAlgo::Linear,
            AllgatherAlgo::Ring,
            AllgatherAlgo::Bruck,
        ]
    }

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            AllgatherAlgo::Linear => "linear",
            AllgatherAlgo::Ring => "ring",
            AllgatherAlgo::Bruck => "bruck",
        }
    }

    /// Every all-gather is rank-symmetric: each rank's schedule, with peers
    /// relative to the rank, is the same.
    pub fn symmetric(self) -> bool {
        true
    }
}

/// Build the all-gather schedule for `rank`. `spec.msg_bytes` is the size
/// of each rank's contribution.
pub fn build_allgather(algo: AllgatherAlgo, rank: RankId, spec: &CollSpec) -> Schedule {
    Schedule::build(rank, spec.nprocs, |out| {
        write_allgather(algo, rank, spec, out)
    })
}

/// Write the all-gather schedule for `rank` into `out`.
pub fn write_allgather(algo: AllgatherAlgo, rank: RankId, spec: &CollSpec, out: &mut dyn Sink) {
    let p = spec.nprocs;
    let s = spec.msg_bytes;
    if p <= 1 || s == 0 {
        return;
    }
    out.copy(s); // own block into the result
    match algo {
        AllgatherAlgo::Linear => {
            for off in 1..p {
                out.send((rank + off) % p, s, &[rank as u32]);
                out.recv((rank + p - off) % p, s);
            }
            out.round();
        }
        AllgatherAlgo::Ring => {
            out.round();
            let next = (rank + 1) % p;
            let prev = (rank + p - 1) % p;
            for k in 0..p - 1 {
                // Forward the block gathered k rounds ago.
                let fwd = (rank + p - k) % p;
                out.send(next, s, &[fwd as u32]);
                out.recv(prev, s);
                out.round();
            }
        }
        AllgatherAlgo::Bruck => {
            out.round();
            // After round k the rank holds blocks {rank .. rank+2^(k+1)-1}.
            let phases = usize::BITS - (p - 1).leading_zeros();
            // One list for every round's blocks: a build allocates it once.
            let mut blocks = Vec::with_capacity(p);
            for k in 0..phases {
                let bit = 1usize << k;
                let cnt = bit.min(p - bit);
                blocks.clear();
                blocks.extend((0..cnt).map(|i| ((rank + i) % p) as u32));
                out.send((rank + p - bit) % p, cnt * s, &blocks);
                out.recv((rank + bit) % p, cnt * s);
                out.round();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Annotated;

    #[test]
    fn linear_single_round() {
        let sched = build_allgather(AllgatherAlgo::Linear, 0, &CollSpec::new(6, 10));
        assert_eq!(sched.num_rounds(), 1);
        assert_eq!(sched.bytes_sent(), 50);
        assert_eq!(sched.bytes_received(), 50);
    }

    #[test]
    fn ring_rounds_and_volume() {
        let p = 7;
        let sched = build_allgather(AllgatherAlgo::Ring, 3, &CollSpec::new(p, 10));
        assert_eq!(sched.num_rounds(), p); // copy + p-1 exchanges
        assert_eq!(sched.bytes_sent(), (p - 1) * 10);
    }

    #[test]
    fn bruck_volumes_balance() {
        for p in [2usize, 3, 5, 8, 13] {
            for r in 0..p {
                let sched = build_allgather(AllgatherAlgo::Bruck, r, &CollSpec::new(p, 16));
                assert_eq!(sched.bytes_sent(), sched.bytes_received(), "p={p} r={r}");
                // total gathered volume = (p-1)*s
                assert_eq!(sched.bytes_received(), (p - 1) * 16);
            }
        }
    }

    #[test]
    fn degenerate() {
        for algo in AllgatherAlgo::all() {
            assert_eq!(
                build_allgather(algo, 0, &CollSpec::new(1, 8)).num_rounds(),
                0
            );
        }
    }

    #[test]
    fn validates() {
        for p in [2usize, 4, 9] {
            for algo in AllgatherAlgo::all() {
                for r in 0..p {
                    let spec = CollSpec::new(p, 32);
                    Annotated::build(r, p, |out| write_allgather(algo, r, &spec, out))
                        .validate(Some(32))
                        .unwrap_or_else(|e| panic!("{algo:?} p={p} r={r}: {e}"));
                }
            }
        }
    }
}

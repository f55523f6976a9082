//! Dissemination barrier schedule.
//!
//! `⌈log₂ p⌉` rounds; in round `k` each rank signals `(r + 2^k) mod p` and
//! waits for a signal from `(r − 2^k) mod p`. After the last round every
//! rank has (transitively) heard from every other rank.

use crate::schedule::{CollSpec, Schedule, Sink};
use mpisim::RankId;

/// Size of a barrier signal message.
pub const SIGNAL_BYTES: usize = 1;

/// The dissemination barrier is rank-symmetric: each rank's schedule, with
/// peers relative to the rank, is the same.
pub const SYMMETRIC: bool = true;

/// Build the dissemination-barrier schedule for `rank`.
pub fn build_barrier(rank: RankId, spec: &CollSpec) -> Schedule {
    Schedule::build(rank, spec.nprocs, |out| write_barrier(rank, spec, out))
}

/// Write the dissemination-barrier schedule for `rank` into `out`.
pub fn write_barrier(rank: RankId, spec: &CollSpec, out: &mut dyn Sink) {
    let p = spec.nprocs;
    if p <= 1 {
        return;
    }
    let phases = usize::BITS - (p - 1).leading_zeros();
    for k in 0..phases {
        let bit = 1usize << k;
        out.send((rank + bit) % p, SIGNAL_BYTES, &[]);
        out.recv((rank + p - bit) % p, SIGNAL_BYTES);
        out.round();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_count_is_log2() {
        for (p, rounds) in [(2usize, 1usize), (3, 2), (4, 2), (8, 3), (9, 4), (1000, 10)] {
            let sched = build_barrier(0, &CollSpec::new(p, 0));
            assert_eq!(sched.num_rounds(), rounds, "p={p}");
        }
    }

    #[test]
    fn single_rank_noop() {
        assert_eq!(build_barrier(0, &CollSpec::new(1, 0)).num_rounds(), 0);
    }

    #[test]
    fn validates() {
        for p in [2usize, 7, 64] {
            for r in 0..p {
                build_barrier(r, &CollSpec::new(p, 0)).validate().unwrap();
            }
        }
    }
}

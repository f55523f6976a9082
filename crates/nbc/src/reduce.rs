//! Reduce schedule builders (binomial and chain trees).
//!
//! The paper converts `MPI_Reduce` to a LibNBC schedule alongside bcast,
//! allgather and alltoall. A reduce send carries the *set of contributions*
//! combined so far as its block annotation, which lets the semantic verifier
//! prove the root receives every rank's contribution exactly once.

use crate::bcast::{tree_links, BcastAlgo};
use crate::schedule::{CollSpec, Schedule, Sink};
use mpisim::RankId;

/// The reduce tree shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceAlgo {
    /// Binomial tree (logarithmic depth).
    Binomial,
    /// Chain (pipeline-friendly for very large payloads).
    Chain,
    /// Flat: every rank sends directly to the root, which combines them.
    Linear,
}

impl ReduceAlgo {
    /// All implementations.
    pub fn all() -> Vec<ReduceAlgo> {
        vec![ReduceAlgo::Binomial, ReduceAlgo::Chain, ReduceAlgo::Linear]
    }

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            ReduceAlgo::Binomial => "binomial",
            ReduceAlgo::Chain => "chain",
            ReduceAlgo::Linear => "linear",
        }
    }

    fn tree(self) -> BcastAlgo {
        match self {
            ReduceAlgo::Binomial => BcastAlgo::Binomial,
            ReduceAlgo::Chain => BcastAlgo::Chain,
            ReduceAlgo::Linear => BcastAlgo::Linear,
        }
    }
}

/// The set of ranks whose contributions flow through `rank`'s subtree
/// (including `rank` itself), in the reduce tree of `algo`.
pub fn subtree(algo: ReduceAlgo, rank: RankId, spec: &CollSpec) -> Vec<RankId> {
    let (_, children) = tree_links(algo.tree(), rank, spec);
    let mut acc = vec![rank];
    for c in children {
        acc.extend(subtree(algo, c, spec));
    }
    acc
}

/// Build the reduce schedule for `rank`: receive and combine each child's
/// partial result (in its own round — combining is sequential), then send
/// the combined payload to the parent.
pub fn build_reduce(algo: ReduceAlgo, rank: RankId, spec: &CollSpec) -> Schedule {
    Schedule::build(rank, spec.nprocs, |out| write_reduce(algo, rank, spec, out))
}

/// Write the reduce schedule for `rank` into `out`.
pub fn write_reduce(algo: ReduceAlgo, rank: RankId, spec: &CollSpec, out: &mut dyn Sink) {
    let p = spec.nprocs;
    let bytes = spec.msg_bytes;
    if p <= 1 || bytes == 0 {
        return;
    }
    let (parent, children) = tree_links(algo.tree(), rank, spec);
    // Children are combined in reverse order so the deepest subtree (posted
    // first in bcast order) is awaited first.
    for &c in children.iter().rev() {
        out.recv(c, bytes);
        out.calc(bytes);
        out.round();
    }
    if let Some(par) = parent {
        let mut contrib: Vec<u32> = subtree(algo, rank, spec)
            .iter()
            .map(|&r| r as u32)
            .collect();
        contrib.sort_unstable();
        out.send(par, bytes, &contrib);
        out.round();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtree_partitions_ranks() {
        for p in [2usize, 5, 8, 13] {
            let spec = CollSpec::new(p, 64);
            for algo in ReduceAlgo::all() {
                let mut all = subtree(algo, 0, &spec);
                all.sort_unstable();
                assert_eq!(all, (0..p).collect::<Vec<_>>(), "{algo:?} p={p}");
            }
        }
    }

    #[test]
    fn leaf_sends_only_itself() {
        let spec = CollSpec::new(8, 100);
        let sched = build_reduce(ReduceAlgo::Binomial, 7, &spec);
        assert_eq!(sched.num_rounds(), 1);
        assert_eq!(sched.num_sends(), 1);
        assert_eq!(sched.num_recvs(), 0);
    }

    #[test]
    fn root_receives_without_sending() {
        let spec = CollSpec::new(8, 100);
        let sched = build_reduce(ReduceAlgo::Binomial, 0, &spec);
        assert_eq!(sched.num_sends(), 0);
        assert_eq!(sched.num_recvs(), 3); // binomial: 3 children for p=8
    }

    #[test]
    fn linear_root_collects_all() {
        let spec = CollSpec::new(6, 10);
        let sched = build_reduce(ReduceAlgo::Linear, 0, &spec);
        assert_eq!(sched.num_recvs(), 5);
        // Each recv combined in its own round.
        assert_eq!(sched.num_rounds(), 5);
    }

    #[test]
    fn validates() {
        for p in [2usize, 3, 9, 16] {
            let spec = CollSpec::new(p, 256);
            for algo in ReduceAlgo::all() {
                for r in 0..p {
                    build_reduce(algo, r, &spec)
                        .validate()
                        .unwrap_or_else(|e| panic!("{algo:?} p={p} r={r}: {e}"));
                }
            }
        }
    }
}

//! Gather and scatter schedule builders (linear and binomial trees).
//!
//! Rounding out ADCL's operation library: `Igather` collects one block per
//! rank at the root, `Iscatter` distributes one block per rank from the
//! root. The binomial variants aggregate blocks along the tree, so
//! interior ranks forward the blocks of their whole subtree in one
//! message.

use crate::bcast::{tree_links, BcastAlgo};
use crate::schedule::{CollSpec, Schedule, Sink};
use mpisim::RankId;

/// The tree shape for gather/scatter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GatherAlgo {
    /// Every rank exchanges directly with the root.
    Linear,
    /// Binomial tree; interior ranks aggregate/split subtree blocks.
    Binomial,
}

impl GatherAlgo {
    /// All implementations.
    pub fn all() -> Vec<GatherAlgo> {
        vec![GatherAlgo::Linear, GatherAlgo::Binomial]
    }

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            GatherAlgo::Linear => "linear",
            GatherAlgo::Binomial => "binomial",
        }
    }

    fn tree(self) -> BcastAlgo {
        match self {
            GatherAlgo::Linear => BcastAlgo::Linear,
            GatherAlgo::Binomial => BcastAlgo::Binomial,
        }
    }
}

/// Ranks in `rank`'s subtree (itself included), in tree order.
fn subtree(algo: GatherAlgo, rank: RankId, spec: &CollSpec) -> Vec<RankId> {
    let (_, children) = tree_links(algo.tree(), rank, spec);
    let mut acc = vec![rank];
    for c in children {
        acc.extend(subtree(algo, c, spec));
    }
    acc
}

/// Build the gather schedule for `rank`: receive each child's aggregated
/// subtree blocks, then send the whole subtree's blocks to the parent.
/// `spec.msg_bytes` is the per-rank block size.
pub fn build_gather(algo: GatherAlgo, rank: RankId, spec: &CollSpec) -> Schedule {
    Schedule::build(rank, spec.nprocs, |out| write_gather(algo, rank, spec, out))
}

/// Write the gather schedule for `rank` into `out`.
pub fn write_gather(algo: GatherAlgo, rank: RankId, spec: &CollSpec, out: &mut dyn Sink) {
    let p = spec.nprocs;
    let s = spec.msg_bytes;
    if p <= 1 || s == 0 {
        return;
    }
    let (parent, children) = tree_links(algo.tree(), rank, spec);
    for &c in &children {
        out.recv(c, subtree(algo, c, spec).len() * s);
    }
    out.round();
    if let Some(par) = parent {
        let blocks = subtree_blocks(algo, rank, spec);
        out.send(par, blocks.len() * s, &blocks);
    } else {
        // Root: copy its own block into the result buffer.
        out.copy(s);
    }
    out.round();
}

/// Build the scatter schedule for `rank`: receive this subtree's blocks
/// from the parent, then forward each child its subtree's share.
pub fn build_scatter(algo: GatherAlgo, rank: RankId, spec: &CollSpec) -> Schedule {
    Schedule::build(rank, spec.nprocs, |out| {
        write_scatter(algo, rank, spec, out)
    })
}

/// Write the scatter schedule for `rank` into `out`.
pub fn write_scatter(algo: GatherAlgo, rank: RankId, spec: &CollSpec, out: &mut dyn Sink) {
    let p = spec.nprocs;
    let s = spec.msg_bytes;
    if p <= 1 || s == 0 {
        return;
    }
    let (parent, children) = tree_links(algo.tree(), rank, spec);
    if let Some(par) = parent {
        out.recv(par, subtree(algo, rank, spec).len() * s);
    } else {
        out.copy(s);
    }
    out.round();
    for &c in &children {
        let blocks = subtree_blocks(algo, c, spec);
        out.send(c, blocks.len() * s, &blocks);
    }
    out.round();
}

/// [`subtree`] as block ids.
fn subtree_blocks(algo: GatherAlgo, rank: RankId, spec: &CollSpec) -> Vec<u32> {
    let ranks = subtree(algo, rank, spec);
    ranks.into_iter().map(|r| r as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;

    fn verify_gather(p: usize, algo: GatherAlgo, root: usize) -> Result<(), String> {
        let spec = CollSpec {
            nprocs: p,
            msg_bytes: 128,
            root,
        };
        let scheds = verify::annotate_all(p, |r, out| write_gather(algo, r, &spec, out));
        for sc in &scheds {
            sc.validate(Some(128))?;
        }
        verify::verify_gather(&scheds, root)
    }

    fn verify_scatter(p: usize, algo: GatherAlgo, root: usize) -> Result<(), String> {
        let spec = CollSpec {
            nprocs: p,
            msg_bytes: 64,
            root,
        };
        let scheds = verify::annotate_all(p, |r, out| write_scatter(algo, r, &spec, out));
        for sc in &scheds {
            sc.validate(Some(64))?;
        }
        verify::verify_scatter(&scheds, root)
    }

    #[test]
    fn gather_all_sizes_and_roots() {
        for p in [2usize, 3, 7, 8, 16, 33] {
            for algo in GatherAlgo::all() {
                verify_gather(p, algo, 0).unwrap_or_else(|e| panic!("{algo:?} p={p}: {e}"));
                verify_gather(p, algo, p - 1)
                    .unwrap_or_else(|e| panic!("{algo:?} p={p} root={}: {e}", p - 1));
            }
        }
    }

    #[test]
    fn scatter_all_sizes_and_roots() {
        for p in [2usize, 3, 7, 8, 16, 33] {
            for algo in GatherAlgo::all() {
                verify_scatter(p, algo, 0).unwrap_or_else(|e| panic!("{algo:?} p={p}: {e}"));
                verify_scatter(p, algo, p / 2)
                    .unwrap_or_else(|e| panic!("{algo:?} p={p} root={}: {e}", p / 2));
            }
        }
    }

    #[test]
    fn binomial_aggregates_fewer_messages() {
        let spec = CollSpec::new(32, 64);
        let lin_root = build_gather(GatherAlgo::Linear, 0, &spec);
        let bin_root = build_gather(GatherAlgo::Binomial, 0, &spec);
        assert_eq!(lin_root.num_recvs(), 31);
        assert_eq!(bin_root.num_recvs(), 5); // log2(32) children
                                             // Same total volume reaches the root either way.
        assert_eq!(lin_root.bytes_received(), bin_root.bytes_received());
    }

    #[test]
    fn interior_rank_forwards_subtree() {
        let spec = CollSpec::new(8, 100);
        // vrank 4 in a binomial tree of 8 has children {5, 6} covering
        // ranks {4,5,6,7}.
        let s = build_gather(GatherAlgo::Binomial, 4, &spec);
        assert_eq!(s.bytes_sent(), 400); // its own + 3-subtree blocks
    }

    #[test]
    fn degenerate() {
        for algo in GatherAlgo::all() {
            assert_eq!(build_gather(algo, 0, &CollSpec::new(1, 8)).num_rounds(), 0);
            assert_eq!(build_scatter(algo, 0, &CollSpec::new(1, 8)).num_rounds(), 0);
        }
    }
}

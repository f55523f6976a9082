//! Broadcast schedule builders.
//!
//! The paper's `Ibcast` function-set is parametrized by two attributes:
//!
//! * **fan-out** of the broadcast tree — `0` (linear: root sends to
//!   everyone, i.e. infinite fan-out), `1` (chain), `2`–`5` (k-ary trees)
//!   and `N` (binomial tree) — seven values, and
//! * **segment size** — the payload is split into 32, 64 or 128 KiB
//!   segments that are pipelined down the tree,
//!
//! giving the 7 × 3 = 21 implementations evaluated in the paper.
//!
//! Logical block ids are segment indices; the semantic verifier checks that
//! every non-root rank receives every segment.

use crate::schedule::{CollSpec, Schedule, Sink};
use mpisim::RankId;

/// Broadcast tree shape (the paper's fan-out attribute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BcastAlgo {
    /// Fan-out 0: the root sends directly to every other rank.
    Linear,
    /// Fan-out 1: a pipeline chain through all ranks.
    Chain,
    /// Fan-out k (2..=5 in the paper's set): k-ary tree.
    Tree(usize),
    /// Fan-out "N": binomial tree.
    Binomial,
}

impl BcastAlgo {
    /// The paper's seven fan-out values.
    pub fn all() -> Vec<BcastAlgo> {
        vec![
            BcastAlgo::Linear,
            BcastAlgo::Chain,
            BcastAlgo::Tree(2),
            BcastAlgo::Tree(3),
            BcastAlgo::Tree(4),
            BcastAlgo::Tree(5),
            BcastAlgo::Binomial,
        ]
    }

    /// The fan-out attribute value used by the ADCL attribute sets:
    /// 0 = linear, 1 = chain, k = k-ary, `i64::MAX` stands in for "N"
    /// (binomial).
    pub fn fanout_attr(self) -> i64 {
        match self {
            BcastAlgo::Linear => 0,
            BcastAlgo::Chain => 1,
            BcastAlgo::Tree(k) => k as i64,
            BcastAlgo::Binomial => i64::MAX,
        }
    }

    /// Short name for reports (matches the paper's terminology).
    pub fn name(self) -> String {
        match self {
            BcastAlgo::Linear => "linear".into(),
            BcastAlgo::Chain => "chain".into(),
            BcastAlgo::Tree(k) => format!("tree{k}"),
            BcastAlgo::Binomial => "binomial".into(),
        }
    }
}

/// Parent and children of `rank` in the virtual tree rooted at
/// `spec.root`.
///
/// Ranks are mapped to *virtual* ranks `v = (rank - root) mod p` so the
/// root is virtual rank 0; the returned ranks are real ranks.
pub fn tree_links(algo: BcastAlgo, rank: RankId, spec: &CollSpec) -> (Option<RankId>, Vec<RankId>) {
    let p = spec.nprocs;
    let v = (rank + p - spec.root % p) % p;
    let to_real = |vr: usize| (vr + spec.root) % p;
    let (parent, children_v): (Option<usize>, Vec<usize>) = match algo {
        BcastAlgo::Linear => {
            if v == 0 {
                (None, (1..p).collect())
            } else {
                (Some(0), Vec::new())
            }
        }
        BcastAlgo::Chain => {
            let parent = if v == 0 { None } else { Some(v - 1) };
            let children = if v + 1 < p { vec![v + 1] } else { Vec::new() };
            (parent, children)
        }
        BcastAlgo::Tree(k) => {
            assert!(k >= 2, "k-ary tree needs fan-out >= 2");
            let parent = if v == 0 { None } else { Some((v - 1) / k) };
            let children = (1..=k).map(|i| k * v + i).filter(|&c| c < p).collect();
            (parent, children)
        }
        BcastAlgo::Binomial => {
            let mut parent = None;
            let mut children = Vec::new();
            let mut mask = 1usize;
            while mask < p {
                if v & mask != 0 {
                    parent = Some(v - mask);
                    break;
                }
                if v + mask < p {
                    children.push(v + mask);
                }
                mask <<= 1;
            }
            // Binomial children are conventionally sent largest-subtree
            // first; reverse so the biggest subtree starts earliest.
            children.reverse();
            (parent, children)
        }
    };
    (
        parent.map(to_real),
        children_v.into_iter().map(to_real).collect(),
    )
}

/// Build the pipelined broadcast schedule for `rank`.
///
/// The payload (`spec.msg_bytes`) is cut into `ceil(bytes/segsize)`
/// segments. Interior ranks forward segment *s−1* to their children while
/// receiving segment *s* from their parent, so segments stream down the
/// tree.
pub fn build_bcast(algo: BcastAlgo, segsize: usize, rank: RankId, spec: &CollSpec) -> Schedule {
    Schedule::build(rank, spec.nprocs, |out| {
        write_bcast(algo, segsize, rank, spec, out)
    })
}

/// Write the pipelined broadcast schedule for `rank` into `out`.
pub fn write_bcast(
    algo: BcastAlgo,
    segsize: usize,
    rank: RankId,
    spec: &CollSpec,
    out: &mut dyn Sink,
) {
    assert!(segsize > 0, "segment size must be positive");
    assert!(spec.nprocs > 0);
    let p = spec.nprocs;
    let bytes = spec.msg_bytes;
    if p <= 1 || bytes == 0 {
        return;
    }
    let nseg = bytes.div_ceil(segsize);
    let seg_bytes = |s: usize| -> usize {
        if s + 1 == nseg {
            bytes - s * segsize
        } else {
            segsize
        }
    };
    let (parent, children) = tree_links(algo, rank, spec);
    // Segment `s` to every child.
    let forward = |out: &mut dyn Sink, s: usize| {
        for &c in &children {
            out.send(c, seg_bytes(s), &[s as u32]);
        }
    };

    match (parent, children.is_empty()) {
        (None, _) => {
            // Root: one round per segment, sending it to every child.
            for s in 0..nseg {
                forward(out, s);
                out.round();
            }
        }
        (Some(par), true) => {
            // Leaf: pre-post every segment receive in a single round.
            for s in 0..nseg {
                out.recv(par, seg_bytes(s));
            }
            out.round();
        }
        (Some(par), false) => {
            // Interior: pipeline — receive segment s while forwarding s-1.
            out.recv(par, seg_bytes(0));
            out.round();
            for s in 1..nseg {
                forward(out, s - 1);
                out.recv(par, seg_bytes(s));
                out.round();
            }
            forward(out, nseg - 1);
            out.round();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(p: usize, bytes: usize) -> CollSpec {
        CollSpec::new(p, bytes)
    }

    #[test]
    fn linear_tree_links() {
        let s = spec(4, 100);
        assert_eq!(tree_links(BcastAlgo::Linear, 0, &s), (None, vec![1, 2, 3]));
        assert_eq!(tree_links(BcastAlgo::Linear, 2, &s), (Some(0), vec![]));
    }

    #[test]
    fn chain_links() {
        let s = spec(4, 100);
        assert_eq!(tree_links(BcastAlgo::Chain, 0, &s), (None, vec![1]));
        assert_eq!(tree_links(BcastAlgo::Chain, 2, &s), (Some(1), vec![3]));
        assert_eq!(tree_links(BcastAlgo::Chain, 3, &s), (Some(2), vec![]));
    }

    #[test]
    fn binary_tree_links() {
        let s = spec(7, 100);
        assert_eq!(tree_links(BcastAlgo::Tree(2), 0, &s), (None, vec![1, 2]));
        assert_eq!(tree_links(BcastAlgo::Tree(2), 1, &s), (Some(0), vec![3, 4]));
        assert_eq!(tree_links(BcastAlgo::Tree(2), 2, &s), (Some(0), vec![5, 6]));
        assert_eq!(tree_links(BcastAlgo::Tree(2), 6, &s), (Some(2), vec![]));
    }

    #[test]
    fn binomial_links() {
        let s = spec(8, 100);
        // vrank 0 children: 4, 2, 1 (largest first after reverse)
        assert_eq!(
            tree_links(BcastAlgo::Binomial, 0, &s),
            (None, vec![4, 2, 1])
        );
        assert_eq!(tree_links(BcastAlgo::Binomial, 1, &s), (Some(0), vec![]));
        assert_eq!(tree_links(BcastAlgo::Binomial, 6, &s), (Some(4), vec![7]));
    }

    #[test]
    fn nonzero_root_shifts_tree() {
        let mut s = spec(4, 100);
        s.root = 2;
        let (par, ch) = tree_links(BcastAlgo::Linear, 2, &s);
        assert_eq!(par, None);
        assert_eq!(ch, vec![3, 0, 1]);
        assert_eq!(tree_links(BcastAlgo::Linear, 0, &s).0, Some(2));
    }

    #[test]
    fn every_nonroot_has_parent_every_algo() {
        for p in [1usize, 2, 3, 5, 8, 13, 32] {
            let s = spec(p, 100);
            for algo in BcastAlgo::all() {
                for r in 0..p {
                    let (par, children) = tree_links(algo, r, &s);
                    if r == 0 {
                        assert!(par.is_none());
                    } else {
                        assert!(par.is_some(), "{:?} p={p} r={r}", algo);
                    }
                    for c in children {
                        let (cp, _) = tree_links(algo, c, &s);
                        assert_eq!(cp, Some(r), "{algo:?} p={p}: child {c} of {r}");
                    }
                }
            }
        }
    }

    #[test]
    fn segmentation_counts() {
        let s = spec(2, 100_000);
        let sched = build_bcast(BcastAlgo::Linear, 32 * 1024, 0, &s);
        // 100000 / 32768 -> 4 segments -> 4 rounds at the root.
        assert_eq!(sched.num_rounds(), 4);
        assert_eq!(sched.bytes_sent(), 100_000);
        let leaf = build_bcast(BcastAlgo::Linear, 32 * 1024, 1, &s);
        assert_eq!(leaf.num_rounds(), 1);
        assert_eq!(leaf.bytes_received(), 100_000);
    }

    #[test]
    fn interior_rank_pipelines() {
        let s = spec(3, 70_000);
        // chain: 0 -> 1 -> 2; segment 32 KiB -> 3 segments
        let mid = build_bcast(BcastAlgo::Chain, 32 * 1024, 1, &s);
        // rounds: recv s0 | send s0 + recv s1 | send s1 + recv s2 | send s2
        assert_eq!(mid.num_rounds(), 4);
        assert_eq!(mid.bytes_sent(), 70_000);
        assert_eq!(mid.bytes_received(), 70_000);
    }

    #[test]
    fn single_process_is_noop() {
        let s = spec(1, 1000);
        assert_eq!(
            build_bcast(BcastAlgo::Binomial, 1024, 0, &s).num_rounds(),
            0
        );
    }

    #[test]
    fn schedules_validate() {
        for p in [2usize, 5, 16] {
            let s = spec(p, 200_000);
            for algo in BcastAlgo::all() {
                for r in 0..p {
                    let sched = build_bcast(algo, 64 * 1024, r, &s);
                    sched.validate().expect("valid schedule");
                }
            }
        }
    }
}

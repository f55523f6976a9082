//! Cartesian neighborhood (halo) exchange schedules.
//!
//! ADCL's original core use case (§III-A lists "Cartesian neighborhood
//! communication" first among the supported operations): every rank of a
//! periodic 2-D process grid exchanges a halo block with its four
//! neighbours. Three classic implementations with different
//! communication structure:
//!
//! * [`NeighborAlgo::PostAll`] — post all four sends and receives in one
//!   round (maximum concurrency, one progress call suffices),
//! * [`NeighborAlgo::PairwiseDim`] — one round per dimension, exchanging
//!   both directions of that dimension together (the classic
//!   `MPI_Sendrecv` structure),
//! * [`NeighborAlgo::Ordered`] — four rounds, one direction at a time
//!   (minimal buffer pressure, most rounds).

use crate::schedule::{Schedule, Sink};
use mpisim::RankId;

/// A periodic 2-D process grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cart2d {
    /// Extent in x (fastest-varying).
    pub gx: usize,
    /// Extent in y.
    pub gy: usize,
}

impl Cart2d {
    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.gx * self.gy
    }

    /// Coordinates of `rank`.
    pub fn coords(&self, rank: RankId) -> (usize, usize) {
        (rank % self.gx, rank / self.gx)
    }

    /// Rank at periodic coordinates.
    pub fn rank_at(&self, x: isize, y: isize) -> RankId {
        let gx = self.gx as isize;
        let gy = self.gy as isize;
        let x = ((x % gx) + gx) % gx;
        let y = ((y % gy) + gy) % gy;
        y as usize * self.gx + x as usize
    }

    /// The four neighbours of `rank`: `[left, right, down, up]`.
    pub fn neighbors(&self, rank: RankId) -> [RankId; 4] {
        let (x, y) = self.coords(rank);
        let (x, y) = (x as isize, y as isize);
        [
            self.rank_at(x - 1, y),
            self.rank_at(x + 1, y),
            self.rank_at(x, y - 1),
            self.rank_at(x, y + 1),
        ]
    }
}

/// The halo-exchange implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NeighborAlgo {
    /// One round with all four directions.
    PostAll,
    /// Two rounds: x-dimension exchange, then y-dimension exchange.
    PairwiseDim,
    /// Four rounds: left, right, down, up — one direction each.
    Ordered,
}

impl NeighborAlgo {
    /// All implementations.
    pub fn all() -> Vec<NeighborAlgo> {
        vec![
            NeighborAlgo::PostAll,
            NeighborAlgo::PairwiseDim,
            NeighborAlgo::Ordered,
        ]
    }

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            NeighborAlgo::PostAll => "post-all",
            NeighborAlgo::PairwiseDim => "pairwise-dim",
            NeighborAlgo::Ordered => "ordered",
        }
    }
}

/// Logical block id for the halo travelling `src → dst`.
pub fn halo_block(src: RankId, dst: RankId, p: usize) -> u32 {
    (src * p + dst) as u32
}

/// Build the halo-exchange schedule for `rank` on `grid`, exchanging
/// `halo_bytes` with each of the four neighbours.
///
/// On degenerate grids (extent 1 or 2 in a dimension) opposite neighbours
/// coincide; the builders still send one message per *direction*, so
/// matching stays symmetric across ranks.
pub fn build_neighbor(
    algo: NeighborAlgo,
    grid: Cart2d,
    rank: RankId,
    halo_bytes: usize,
) -> Schedule {
    Schedule::build(rank, grid.size(), |out| {
        write_neighbor(algo, grid, rank, halo_bytes, out)
    })
}

/// Write the halo-exchange schedule for `rank` on `grid` into `out`.
pub fn write_neighbor(
    algo: NeighborAlgo,
    grid: Cart2d,
    rank: RankId,
    halo_bytes: usize,
    out: &mut dyn Sink,
) {
    let p = grid.size();
    if p <= 1 || halo_bytes == 0 {
        return;
    }
    let [left, right, down, up] = grid.neighbors(rank);
    // (send-to, recv-from) per direction; sending left means receiving
    // from the right, and so on.
    let dirs: [(RankId, RankId); 4] = [(left, right), (right, left), (down, up), (up, down)];
    let exchange = |out: &mut dyn Sink, (to, from): (RankId, RankId)| {
        if to != rank {
            out.send(to, halo_bytes, &[halo_block(rank, to, p)]);
        }
        if from != rank {
            out.recv(from, halo_bytes);
        }
        if to == rank || from == rank {
            // Self-neighbour on a degenerate dimension: local copy.
            out.copy(halo_bytes);
        }
    };
    // Directions per round.
    let per_round = match algo {
        NeighborAlgo::PostAll => 4,
        NeighborAlgo::PairwiseDim => 2,
        NeighborAlgo::Ordered => 1,
    };
    for round in dirs.chunks(per_round) {
        for &dir in round {
            exchange(out, dir);
        }
        out.round();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use std::collections::HashSet;

    fn verify_halo(grid: Cart2d, algo: NeighborAlgo) -> Result<(), String> {
        let p = grid.size();
        let scheds = verify::annotate_all(p, |r, out| write_neighbor(algo, grid, r, 256, out));
        for s in &scheds {
            s.validate(Some(256))?;
        }
        let initial: Vec<HashSet<u32>> = (0..p)
            .map(|r| (0..p).map(|d| halo_block(r, d, p)).collect())
            .collect();
        let recv = verify::execute(&scheds, &initial)?;
        for (r, got) in recv.iter().enumerate() {
            for n in grid.neighbors(r) {
                if n == r {
                    continue;
                }
                if !got.contains(&halo_block(n, r, p)) {
                    return Err(format!("rank {r} missing halo from neighbour {n}"));
                }
            }
        }
        Ok(())
    }

    #[test]
    fn grid_geometry() {
        let g = Cart2d { gx: 4, gy: 3 };
        assert_eq!(g.size(), 12);
        assert_eq!(g.coords(0), (0, 0));
        assert_eq!(g.coords(5), (1, 1));
        assert_eq!(g.neighbors(5), [4, 6, 1, 9]);
        // periodic wrap on the boundary
        assert_eq!(g.neighbors(0), [3, 1, 8, 4]);
    }

    #[test]
    fn all_algorithms_all_grids() {
        for (gx, gy) in [(2usize, 2usize), (3, 3), (4, 3), (5, 4), (8, 8)] {
            let grid = Cart2d { gx, gy };
            for algo in NeighborAlgo::all() {
                verify_halo(grid, algo).unwrap_or_else(|e| panic!("{algo:?} {gx}x{gy}: {e}"));
            }
        }
    }

    #[test]
    fn round_structure() {
        let grid = Cart2d { gx: 4, gy: 4 };
        assert_eq!(
            build_neighbor(NeighborAlgo::PostAll, grid, 5, 64).num_rounds(),
            1
        );
        assert_eq!(
            build_neighbor(NeighborAlgo::PairwiseDim, grid, 5, 64).num_rounds(),
            2
        );
        assert_eq!(
            build_neighbor(NeighborAlgo::Ordered, grid, 5, 64).num_rounds(),
            4
        );
    }

    #[test]
    fn degenerate_dimension() {
        // 2x1 grid: left == right neighbour; schedules must still verify.
        for algo in NeighborAlgo::all() {
            verify_halo(Cart2d { gx: 2, gy: 1 }, algo)
                .unwrap_or_else(|e| panic!("{algo:?} 2x1: {e}"));
        }
    }

    #[test]
    fn single_rank_noop() {
        let grid = Cart2d { gx: 1, gy: 1 };
        for algo in NeighborAlgo::all() {
            assert_eq!(build_neighbor(algo, grid, 0, 64).num_rounds(), 0);
        }
    }
}

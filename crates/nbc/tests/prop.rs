//! Property-based tests: every schedule builder implements its collective
//! semantics for arbitrary process counts and message sizes, and produces
//! structurally sound schedules. Runs on the in-tree `simcore::check`
//! harness (no external crates).

use nbc::allgather::{build_allgather, AllgatherAlgo};
use nbc::allreduce::{build_allreduce, AllreduceAlgo};
use nbc::alltoall::{build_alltoall, AlltoallAlgo};
use nbc::barrier::build_barrier;
use nbc::bcast::{build_bcast, BcastAlgo};
use nbc::gather::{build_gather, build_scatter, GatherAlgo};
use nbc::neighbor::{build_neighbor, Cart2d, NeighborAlgo};
use nbc::reduce::{build_reduce, ReduceAlgo};
use nbc::schedule::{sequence, Action, CollSpec, OpKind, Round, Schedule};
use nbc::verify;
use simcore::check::{run_cases, Gen};

fn bcast_algo(g: &mut Gen) -> BcastAlgo {
    match g.usize_in(0, 4) {
        0 => BcastAlgo::Linear,
        1 => BcastAlgo::Chain,
        2 => BcastAlgo::Tree(g.usize_in(2, 6)),
        _ => BcastAlgo::Binomial,
    }
}

fn alltoall_algo(g: &mut Gen) -> AlltoallAlgo {
    g.choose(&[
        AlltoallAlgo::Linear,
        AlltoallAlgo::Pairwise,
        AlltoallAlgo::Dissemination,
    ])
}

fn allgather_algo(g: &mut Gen) -> AllgatherAlgo {
    g.choose(&[
        AllgatherAlgo::Linear,
        AllgatherAlgo::Ring,
        AllgatherAlgo::Bruck,
    ])
}

fn reduce_algo(g: &mut Gen) -> ReduceAlgo {
    g.choose(&[ReduceAlgo::Binomial, ReduceAlgo::Chain, ReduceAlgo::Linear])
}

/// Broadcast delivers every segment to every non-root rank, for any
/// tree shape, process count, payload and root.
#[test]
fn bcast_semantics() {
    run_cases("bcast_semantics", 64, |g| {
        let algo = bcast_algo(g);
        let p = g.usize_in(2, 40);
        let bytes = g.usize_in(1, 300_000);
        let seg = g.choose(&[32usize, 64, 128]) * 1024;
        let root = g.usize_in(0, 40) % p;
        let spec = CollSpec {
            nprocs: p,
            msg_bytes: bytes,
            root,
        };
        let scheds: Vec<Schedule> = (0..p).map(|r| build_bcast(algo, seg, r, &spec)).collect();
        for (r, s) in scheds.iter().enumerate() {
            assert!(s.validate(r, None).is_ok());
        }
        let nseg = bytes.div_ceil(seg);
        verify::verify_bcast(&scheds, root, nseg).unwrap_or_else(|e| panic!("{algo:?} p={p}: {e}"));
    });
}

/// All-to-all delivers block (src, dst) to dst for every pair.
#[test]
fn alltoall_semantics() {
    run_cases("alltoall_semantics", 64, |g| {
        let algo = alltoall_algo(g);
        let p = g.usize_in(2, 48);
        let bytes = g.usize_in(1, 100_000);
        let spec = CollSpec::new(p, bytes);
        let scheds: Vec<Schedule> = (0..p).map(|r| build_alltoall(algo, r, &spec)).collect();
        for (r, s) in scheds.iter().enumerate() {
            assert!(s.validate(r, Some(bytes)).is_ok());
        }
        verify::verify_alltoall(&scheds).unwrap_or_else(|e| panic!("{algo:?} p={p}: {e}"));
    });
}

/// All-to-all send and receive volumes balance per rank.
#[test]
fn alltoall_volume_balance() {
    run_cases("alltoall_volume_balance", 64, |g| {
        let algo = alltoall_algo(g);
        let p = g.usize_in(2, 48);
        let bytes = g.usize_in(1, 10_000);
        let spec = CollSpec::new(p, bytes);
        for r in 0..p {
            let s = build_alltoall(algo, r, &spec);
            assert_eq!(s.bytes_sent(), s.bytes_received(), "{algo:?} p={p} r={r}");
        }
    });
}

/// All-gather delivers every rank's block to every rank.
#[test]
fn allgather_semantics() {
    run_cases("allgather_semantics", 64, |g| {
        let algo = allgather_algo(g);
        let p = g.usize_in(2, 48);
        let bytes = g.usize_in(1, 50_000);
        let spec = CollSpec::new(p, bytes);
        let scheds: Vec<Schedule> = (0..p).map(|r| build_allgather(algo, r, &spec)).collect();
        verify::verify_allgather(&scheds).unwrap_or_else(|e| panic!("{algo:?} p={p}: {e}"));
    });
}

/// Reduce combines every rank's contribution exactly once at the root.
#[test]
fn reduce_semantics() {
    run_cases("reduce_semantics", 64, |g| {
        let algo = reduce_algo(g);
        let p = g.usize_in(2, 40);
        let bytes = g.usize_in(1, 100_000);
        let root = g.usize_in(0, 40) % p;
        let spec = CollSpec {
            nprocs: p,
            msg_bytes: bytes,
            root,
        };
        let scheds: Vec<Schedule> = (0..p).map(|r| build_reduce(algo, r, &spec)).collect();
        verify::verify_reduce(&scheds, root)
            .unwrap_or_else(|e| panic!("{algo:?} p={p} root={root}: {e}"));
    });
}

/// Gather collects every rank's block at the root, and scatter hands every
/// rank its own, for either tree shape, any process count and any root.
#[test]
fn gather_scatter_semantics() {
    run_cases("gather_scatter_semantics", 64, |g| {
        let algo = g.choose(&[GatherAlgo::Linear, GatherAlgo::Binomial]);
        let p = g.usize_in(2, 40);
        let bytes = g.usize_in(1, 100_000);
        let root = g.usize_in(0, 40) % p;
        let spec = CollSpec {
            nprocs: p,
            msg_bytes: bytes,
            root,
        };
        let gather: Vec<Schedule> = (0..p).map(|r| build_gather(algo, r, &spec)).collect();
        verify::verify_gather(&gather, root)
            .unwrap_or_else(|e| panic!("gather {algo:?} p={p} root={root}: {e}"));
        let scatter: Vec<Schedule> = (0..p).map(|r| build_scatter(algo, r, &spec)).collect();
        verify::verify_scatter(&scatter, root)
            .unwrap_or_else(|e| panic!("scatter {algo:?} p={p} root={root}: {e}"));
    });
}

/// All-reduce hands every rank every other rank's contribution.
#[test]
fn allreduce_semantics() {
    run_cases("allreduce_semantics", 64, |g| {
        let algo = g.choose(&[
            AllreduceAlgo::RecursiveDoubling,
            AllreduceAlgo::Ring,
            AllreduceAlgo::ReduceBcast,
        ]);
        let p = g.usize_in(2, 40);
        let bytes = g.usize_in(1, 100_000);
        let root = g.usize_in(0, 40) % p;
        let spec = CollSpec {
            nprocs: p,
            msg_bytes: bytes,
            root,
        };
        let scheds: Vec<Schedule> = (0..p).map(|r| build_allreduce(algo, r, &spec)).collect();
        verify::verify_allreduce(&scheds)
            .unwrap_or_else(|e| panic!("{algo:?} p={p} root={root}: {e}"));
    });
}

/// Dissemination barriers are deadlock-free and balanced at any size.
#[test]
fn barrier_semantics() {
    run_cases("barrier_semantics", 64, |g| {
        let p = g.usize_in(2, 200);
        let spec = CollSpec::new(p, 0);
        let scheds: Vec<Schedule> = (0..p).map(|r| build_barrier(r, &spec)).collect();
        verify::verify_barrier(&scheds).unwrap_or_else(|e| panic!("p={p}: {e}"));
    });
}

/// Bruck's total traffic is exactly `s * sum(popcount-weighted blocks)`
/// and rounds are logarithmic.
#[test]
fn bruck_structure() {
    run_cases("bruck_structure", 64, |g| {
        let p = g.usize_in(2, 128);
        let bytes = g.usize_in(1, 4096);
        let spec = CollSpec::new(p, bytes);
        let s = build_alltoall(AlltoallAlgo::Dissemination, 0, &spec);
        let phases = (usize::BITS - (p - 1).leading_zeros()) as usize;
        assert_eq!(s.num_rounds(), phases + 2);
        // Total bytes = sum over phases of (#positions with bit k set) * s.
        let expect: usize = (0..phases)
            .map(|k| (0..p).filter(|i| i >> k & 1 == 1).count() * bytes)
            .sum();
        assert_eq!(s.bytes_sent(), expect);
    });
}

/// One stored op with its blocks, as the flat views return it.
type FlatOp = (OpKind, usize, usize, Vec<u32>);

/// The schedule read back through its views: one list per round.
fn read_back(s: &Schedule) -> Vec<Vec<FlatOp>> {
    (0..s.num_rounds())
        .map(|i| {
            let ops = s.round(i).iter().zip(s.round_blocks(i));
            ops.map(|(op, b)| (op.kind(), op.peer(), op.bytes(), b.to_vec()))
                .collect()
        })
        .collect()
}

/// `rounds` as a builder would push them.
fn push_all(rounds: &[Vec<FlatOp>]) -> Schedule {
    let mut s = Schedule::new();
    for round in rounds {
        let actions = round.iter().map(|(kind, peer, bytes, blocks)| match kind {
            OpKind::Send => Action::send(*peer, *bytes, blocks.clone()),
            OpKind::Recv => Action::recv(*peer, *bytes),
            OpKind::Copy => Action::copy(*bytes),
            OpKind::Calc => Action::calc(*bytes),
        });
        s.push_round(Round(actions.collect()));
    }
    s
}

fn random_op(g: &mut Gen) -> FlatOp {
    let kind = g.choose(&[OpKind::Send, OpKind::Recv, OpKind::Copy, OpKind::Calc]);
    let peer = if matches!(kind, OpKind::Send | OpKind::Recv) {
        g.usize_in(0, 1 << 20)
    } else {
        0
    };
    let blocks = if kind == OpKind::Send {
        g.vec(0, 5, |g| g.u64() as u32)
    } else {
        Vec::new()
    };
    (kind, peer, g.usize_in(0, 1 << 40), blocks)
}

/// Every nbc builder the default function sets draw on, for `p` ranks, a
/// root and a message size: `(name, one schedule per rank)`.
fn every_builder(p: usize, root: usize, bytes: usize) -> Vec<(String, Vec<Schedule>)> {
    let spec = CollSpec {
        nprocs: p,
        msg_bytes: bytes,
        root,
    };
    let ranks = |build: &dyn Fn(usize) -> Schedule| (0..p).map(build).collect::<Vec<_>>();
    let mut out = Vec::new();
    for algo in BcastAlgo::all() {
        for seg in [32 * 1024, 64 * 1024, 128 * 1024] {
            let scheds = ranks(&|r| build_bcast(algo, seg, r, &spec));
            out.push((format!("bcast {algo:?} seg {seg}"), scheds));
        }
    }
    for algo in AlltoallAlgo::all() {
        out.push((
            format!("{algo:?}"),
            ranks(&|r| build_alltoall(algo, r, &spec)),
        ));
    }
    for algo in AllgatherAlgo::all() {
        out.push((
            format!("{algo:?}"),
            ranks(&|r| build_allgather(algo, r, &spec)),
        ));
    }
    for algo in ReduceAlgo::all() {
        out.push((
            format!("{algo:?}"),
            ranks(&|r| build_reduce(algo, r, &spec)),
        ));
    }
    for algo in AllreduceAlgo::all() {
        out.push((
            format!("{algo:?}"),
            ranks(&|r| build_allreduce(algo, r, &spec)),
        ));
    }
    for algo in GatherAlgo::all() {
        out.push((
            format!("gather {algo:?}"),
            ranks(&|r| build_gather(algo, r, &spec)),
        ));
        out.push((
            format!("scatter {algo:?}"),
            ranks(&|r| build_scatter(algo, r, &spec)),
        ));
    }
    out.push(("barrier".into(), ranks(&|r| build_barrier(r, &spec))));
    let grid = Cart2d { gx: p, gy: 1 };
    for algo in NeighborAlgo::all() {
        let scheds = ranks(&|r| build_neighbor(algo, grid, r, bytes));
        out.push((format!("{algo:?}"), scheds));
    }
    out
}

/// Flattening loses nothing. Pushed rounds (random, with empty rounds and
/// unannotated sends) read back exactly, minus the empty rounds. Every
/// builder's output, for each `p` in 2..=17, roots 0 and `p - 1` and sizes
/// on both sides of a segment boundary, survives a re-push of its views
/// unchanged, and `sequence` keeps both stages' ops and blocks.
#[test]
fn flattening_is_lossless() {
    let mut p = 1;
    run_cases("flattening_is_lossless", 16, |g| {
        let pushed: Vec<Vec<FlatOp>> = g.vec(0, 12, |g| g.vec(0, 6, random_op));
        let s = push_all(&pushed);
        let nonempty: Vec<_> = pushed.iter().filter(|r| !r.is_empty()).cloned().collect();
        assert_eq!(read_back(&s), nonempty);
        assert_eq!(s.ops().len(), nonempty.iter().map(Vec::len).sum::<usize>());

        p += 1;
        const SEG: usize = 32 * 1024;
        for (root, bytes) in [0, p - 1]
            .into_iter()
            .flat_map(|r| [(r, SEG - 1), (r, SEG + 1)])
        {
            for (what, scheds) in every_builder(p, root, bytes) {
                let what = format!("{what} p={p} root={root} {bytes} B");
                for (r, s) in scheds.iter().enumerate() {
                    let rounds = read_back(s);
                    assert!(rounds.iter().all(|r| !r.is_empty()), "{what}: empty round");
                    assert_eq!(&push_all(&rounds), s, "{what} rank {r}");
                    // A random other stage, so the second stage's block
                    // offsets start past a non-empty first.
                    let next = &scheds[g.usize_in(0, p)];
                    let both = [rounds, read_back(next)].concat();
                    assert_eq!(read_back(&sequence(&[s, next])), both, "{what} rank {r}");
                }
            }
        }
    });
}

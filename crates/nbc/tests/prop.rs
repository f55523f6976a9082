//! Property-based tests: every schedule builder implements its collective
//! semantics for arbitrary process counts and message sizes, and produces
//! structurally sound schedules; its two sinks agree, and an algorithm that
//! declares itself rank-symmetric is. Runs on the in-tree `simcore::check`
//! harness (no external crates).

use nbc::allgather::{build_allgather, write_allgather, AllgatherAlgo};
use nbc::allreduce::{build_allreduce, write_allreduce, AllreduceAlgo};
use nbc::alltoall::{build_alltoall, write_alltoall, AlltoallAlgo};
use nbc::barrier::{self, build_barrier, write_barrier};
use nbc::bcast::{build_bcast, write_bcast, BcastAlgo};
use nbc::gather::{build_gather, build_scatter, write_gather, write_scatter, GatherAlgo};
use nbc::neighbor::{build_neighbor, write_neighbor, Cart2d, NeighborAlgo};
use nbc::reduce::{build_reduce, write_reduce, ReduceAlgo};
use nbc::schedule::{sequence, Annotated, CollSpec, OpKind, Schedule, Sink};
use nbc::verify::{self, annotate_all};
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
        let scheds = annotate_all(p, |r, out| write_bcast(algo, seg, r, &spec, out));
        for s in &scheds {
            assert!(s.validate(None).is_ok());
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
        let scheds = annotate_all(p, |r, out| write_alltoall(algo, r, &spec, out));
        for s in &scheds {
            assert!(s.validate(Some(bytes)).is_ok());
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
        let scheds = annotate_all(p, |r, out| write_allgather(algo, r, &spec, out));
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
        let scheds = annotate_all(p, |r, out| write_reduce(algo, r, &spec, out));
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
        let gather = annotate_all(p, |r, out| write_gather(algo, r, &spec, out));
        verify::verify_gather(&gather, root)
            .unwrap_or_else(|e| panic!("gather {algo:?} p={p} root={root}: {e}"));
        let scatter = annotate_all(p, |r, out| write_scatter(algo, r, &spec, out));
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
        let scheds = annotate_all(p, |r, out| write_allreduce(algo, r, &spec, out));
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
        let scheds = annotate_all(p, |r, out| write_barrier(r, &spec, out));
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

/// One op with its absolute peer and its blocks, as the verifier's views
/// return it.
type FlatOp = (OpKind, usize, usize, Vec<u32>);

/// The schedule read back through its views: one list per round.
fn read_back(s: &Annotated) -> Vec<Vec<FlatOp>> {
    (0..s.num_rounds())
        .map(|i| {
            let ops = s.round(i);
            ops.map(|(op, b)| (op.kind(), s.peer(op), op.bytes(), b.to_vec()))
                .collect()
        })
        .collect()
}

/// Write `rounds` into `out` as a builder would.
fn write_all(rounds: &[Vec<FlatOp>], out: &mut dyn Sink) {
    for round in rounds {
        for (kind, peer, bytes, blocks) in round {
            match kind {
                OpKind::Send => out.send(*peer, *bytes, blocks),
                OpKind::Recv => out.recv(*peer, *bytes),
                OpKind::Copy => out.copy(*bytes),
                OpKind::Calc => out.calc(*bytes),
            }
        }
        out.round();
    }
}

/// A random op of `rank` among `p` ranks (a message never names `rank`).
fn random_op(g: &mut Gen, rank: usize, p: usize) -> FlatOp {
    let kind = g.choose(&[OpKind::Send, OpKind::Recv, OpKind::Copy, OpKind::Calc]);
    let peer = match kind {
        OpKind::Send | OpKind::Recv => (rank + g.usize_in(1, p)) % p,
        OpKind::Copy | OpKind::Calc => rank,
    };
    let blocks = if kind == OpKind::Send {
        g.vec(0, 5, |g| g.u64() as u32)
    } else {
        Vec::new()
    };
    (kind, peer, g.usize_in(0, 1 << 40), blocks)
}

/// A builder's writer: rank `r`'s schedule into a sink.
type Write = Box<dyn Fn(usize, &mut dyn Sink)>;

/// One nbc builder at one `p`, root and message size: the writer both
/// sinks run, the public run-time entry point, and the algorithm's own
/// symmetry declaration.
struct Builder {
    name: String,
    symmetric: bool,
    write: Write,
    build: Box<dyn Fn(usize) -> Schedule>,
}

/// Every nbc builder the default function sets draw on, for `p` ranks, a
/// root and a message size.
fn every_builder(p: usize, root: usize, bytes: usize) -> Vec<Builder> {
    let spec = CollSpec {
        nprocs: p,
        msg_bytes: bytes,
        root,
    };
    let mut out = Vec::new();
    let mut add =
        |name: String, symmetric: bool, write: Write, build: Box<dyn Fn(usize) -> Schedule>| {
            out.push(Builder {
                name,
                symmetric,
                write,
                build,
            })
        };
    for algo in BcastAlgo::all() {
        for seg in [32 * 1024, 64 * 1024, 128 * 1024] {
            add(
                format!("bcast {algo:?} seg {seg}"),
                false,
                Box::new(move |r, o| write_bcast(algo, seg, r, &spec, o)),
                Box::new(move |r| build_bcast(algo, seg, r, &spec)),
            );
        }
    }
    for algo in AlltoallAlgo::all() {
        add(
            format!("{algo:?}"),
            algo.symmetric(),
            Box::new(move |r, o| write_alltoall(algo, r, &spec, o)),
            Box::new(move |r| build_alltoall(algo, r, &spec)),
        );
    }
    for algo in AllgatherAlgo::all() {
        add(
            format!("{algo:?}"),
            algo.symmetric(),
            Box::new(move |r, o| write_allgather(algo, r, &spec, o)),
            Box::new(move |r| build_allgather(algo, r, &spec)),
        );
    }
    for algo in ReduceAlgo::all() {
        add(
            format!("{algo:?}"),
            false,
            Box::new(move |r, o| write_reduce(algo, r, &spec, o)),
            Box::new(move |r| build_reduce(algo, r, &spec)),
        );
    }
    for algo in AllreduceAlgo::all() {
        add(
            format!("{algo:?}"),
            algo.symmetric(),
            Box::new(move |r, o| write_allreduce(algo, r, &spec, o)),
            Box::new(move |r| build_allreduce(algo, r, &spec)),
        );
    }
    for algo in GatherAlgo::all() {
        add(
            format!("gather {algo:?}"),
            false,
            Box::new(move |r, o| write_gather(algo, r, &spec, o)),
            Box::new(move |r| build_gather(algo, r, &spec)),
        );
        add(
            format!("scatter {algo:?}"),
            false,
            Box::new(move |r, o| write_scatter(algo, r, &spec, o)),
            Box::new(move |r| build_scatter(algo, r, &spec)),
        );
    }
    add(
        "barrier".into(),
        barrier::SYMMETRIC,
        Box::new(move |r, o| write_barrier(r, &spec, o)),
        Box::new(move |r| build_barrier(r, &spec)),
    );
    let grid = Cart2d { gx: p, gy: 1 };
    for algo in NeighborAlgo::all() {
        add(
            format!("{algo:?}"),
            false,
            Box::new(move |r, o| write_neighbor(algo, grid, r, bytes, o)),
            Box::new(move |r| build_neighbor(algo, grid, r, bytes)),
        );
    }
    out
}

/// For each `p` in 2..=17 (one per case), roots 0 and `p - 1` and sizes on
/// both sides of a segment boundary: `(p, root, bytes)`.
fn shapes(p: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    const SEG: usize = 32 * 1024;
    [0, p - 1]
        .into_iter()
        .flat_map(move |r| [(p, r, SEG - 1), (p, r, SEG + 1)])
}

/// Writing loses nothing. Random rounds (with empty rounds and
/// unannotated sends) written into the verifier's sink read back exactly,
/// minus the empty rounds, and the run-time sink stores the same ops.
/// Every builder's output, for each `p` in 2..=17, roots 0 and `p - 1` and
/// sizes on both sides of a segment boundary, survives a re-write of its
/// views unchanged, and `sequence` keeps both stages' ops.
#[test]
fn flattening_is_lossless() {
    let mut p = 1;
    run_cases("flattening_is_lossless", 16, |g| {
        p += 1;
        let rank = g.usize_in(0, p);
        let written: Vec<Vec<FlatOp>> = g.vec(0, 12, |g| g.vec(0, 6, |g| random_op(g, rank, p)));
        let s = Annotated::build(rank, p, |out| write_all(&written, out));
        let nonempty: Vec<_> = written.iter().filter(|r| !r.is_empty()).cloned().collect();
        assert_eq!(read_back(&s), nonempty);
        let stored = Schedule::build(rank, p, |out| write_all(&written, out));
        assert_eq!(&stored, s.schedule());
        assert_eq!(
            stored.ops().len(),
            nonempty.iter().map(Vec::len).sum::<usize>()
        );

        for (p, root, bytes) in shapes(p) {
            for b in every_builder(p, root, bytes) {
                let what = format!("{} p={p} root={root} {bytes} B", b.name);
                let scheds = annotate_all(p, &b.write);
                for (r, s) in scheds.iter().enumerate() {
                    let rounds = read_back(s);
                    assert!(rounds.iter().all(|r| !r.is_empty()), "{what}: empty round");
                    let rewritten = Annotated::build(r, p, |out| write_all(&rounds, out));
                    assert_eq!(&rewritten, s, "{what} rank {r}");
                    // A random other stage, so the second stage's round
                    // ends start past a non-empty first.
                    let next = scheds[g.usize_in(0, p)].schedule();
                    let both: Vec<_> = s.schedule().rounds().chain(next.rounds()).collect();
                    let seq = sequence(&[s.schedule(), next]);
                    assert_eq!(seq.rounds().collect::<Vec<_>>(), both, "{what} rank {r}");
                }
            }
        }
    });
}

/// One writer, two sinks: for every builder at every `p` in 2..=17, roots
/// 0 and `p - 1`, the run-time schedule (the public `build_*` entry point)
/// is the verifier's schedule without its block ids, op for op.
#[test]
fn verifier_and_runtime_sinks_agree() {
    let mut p = 1;
    run_cases("verifier_and_runtime_sinks_agree", 16, |_| {
        p += 1;
        for (p, root, bytes) in shapes(p) {
            for b in every_builder(p, root, bytes) {
                for r in 0..p {
                    let verified = Annotated::build(r, p, |out| (b.write)(r, out));
                    assert_eq!(
                        &(b.build)(r),
                        verified.schedule(),
                        "{} p={p} root={root} {bytes} B rank {r}",
                        b.name
                    );
                }
            }
        }
    });
}

/// A builder that declares itself rank-symmetric is: for every `p` in
/// 2..=17, roots 0 and `p - 1`, every rank's schedule, with peers relative
/// to the rank, equals rank 0's — so one stored copy serves every rank.
#[test]
fn symmetric_builders_have_one_relative_form() {
    let mut p = 1;
    let mut checked = 0;
    run_cases("symmetric_builders_have_one_relative_form", 16, |_| {
        p += 1;
        for (p, root, bytes) in shapes(p) {
            for b in every_builder(p, root, bytes).iter().filter(|b| b.symmetric) {
                let first = (b.build)(0);
                for r in 1..p {
                    let what = format!("{} p={p} root={root} {bytes} B rank {r}", b.name);
                    assert_eq!((b.build)(r), first, "{what}");
                }
                checked += 1;
            }
        }
    });
    // All-to-all x3, all-gather x3, ring all-reduce and barrier.
    assert_eq!(checked, 16 * 4 * 8, "symmetric builders checked");
}

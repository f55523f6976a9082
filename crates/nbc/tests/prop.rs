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
use nbc::reduce::{build_reduce, ReduceAlgo};
use nbc::schedule::{CollSpec, Schedule};
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

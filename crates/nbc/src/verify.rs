//! Semantic verification of collective schedules.
//!
//! The timing simulator only cares about byte counts, so correctness of the
//! schedule builders is proven separately here: schedules for *all* ranks
//! are executed logically, moving block ids through FIFO channels under the
//! exact round-barrier semantics of the executor. The verifier checks that
//!
//! * the global execution is deadlock-free (every rank finishes),
//! * FIFO message sizes match between senders and receivers,
//! * a rank only ever sends blocks it actually holds,
//! * no message is left unconsumed,
//!
//! and collective-specific wrappers assert the operation's postcondition
//! (every non-root got every segment; every rank got every block addressed
//! to it; the root combined or gathered every contribution; every rank
//! combined every contribution).

use crate::schedule::{OpKind, Schedule};
use std::collections::{HashMap, HashSet, VecDeque};

/// Result of a logical execution: the set of blocks each rank received.
pub type ReceivedBlocks = Vec<HashSet<u32>>;

/// FIFO channels keyed by `(src, dst)`: queued `(bytes, blocks)` messages.
/// Block lists are borrowed straight out of the schedules — the verifier
/// moves references through the channels, never cloning a block vector, so
/// a full sweep over every algorithm allocates only the channel scaffolding.
type Channels<'s> = HashMap<(usize, usize), VecDeque<(usize, &'s [u32])>>;

/// Execute one schedule per rank logically. `initial[r]` is the set of
/// blocks rank `r` holds before the operation.
pub fn execute(scheds: &[Schedule], initial: &[HashSet<u32>]) -> Result<ReceivedBlocks, String> {
    let p = scheds.len();
    assert_eq!(initial.len(), p, "one initial block set per rank");
    // FIFO channel per (src, dst): queue of (bytes, blocks).
    let mut chans: Channels = HashMap::new();
    let mut held: Vec<HashSet<u32>> = initial.to_vec();
    let mut received: ReceivedBlocks = vec![HashSet::new(); p];
    let mut round: Vec<usize> = vec![0; p];
    let mut entered: Vec<bool> = vec![false; p];

    // Push the sends of rank r's current round (round entry).
    fn enter_round<'s>(
        r: usize,
        scheds: &'s [Schedule],
        round: &[usize],
        held: &[HashSet<u32>],
        chans: &mut Channels<'s>,
    ) -> Result<(), String> {
        let s = &scheds[r];
        if round[r] >= s.num_rounds() {
            return Ok(());
        }
        for (op, blocks) in s.round(round[r]).iter().zip(s.round_blocks(round[r])) {
            if op.kind() != OpKind::Send {
                continue;
            }
            for b in blocks {
                if !held[r].contains(b) {
                    return Err(format!(
                        "rank {r} round {}: sends block {b} it does not hold",
                        round[r]
                    ));
                }
            }
            chans
                .entry((r, op.peer()))
                .or_default()
                .push_back((op.bytes(), blocks));
        }
        Ok(())
    }

    loop {
        let mut progressed = false;
        for r in 0..p {
            loop {
                if round[r] >= scheds[r].num_rounds() {
                    break;
                }
                if !entered[r] {
                    enter_round(r, scheds, &round, &held, &mut chans)?;
                    entered[r] = true;
                    progressed = true;
                }
                // Can the current round's receives all be satisfied?
                let recvs = || {
                    let ops = scheds[r].round(round[r]).iter();
                    ops.filter(|op| op.kind() == OpKind::Recv)
                };
                let mut needed: HashMap<usize, usize> = HashMap::new();
                for op in recvs() {
                    *needed.entry(op.peer()).or_default() += 1;
                }
                let ready = needed
                    .iter()
                    .all(|(&peer, &cnt)| chans.get(&(peer, r)).map_or(0, |q| q.len()) >= cnt);
                if !ready {
                    break;
                }
                // Pop the receives in action order, checking sizes.
                for op in recvs() {
                    let peer = op.peer();
                    let q = chans.get_mut(&(peer, r)).expect("checked above");
                    let (bytes, blocks) = q.pop_front().expect("checked above");
                    if bytes != op.bytes() {
                        return Err(format!(
                            "rank {r} round {}: recv expects {} B from {peer}, got {bytes} B",
                            round[r],
                            op.bytes()
                        ));
                    }
                    for &b in blocks {
                        held[r].insert(b);
                        received[r].insert(b);
                    }
                }
                round[r] += 1;
                entered[r] = false;
                progressed = true;
            }
        }
        let all_done = (0..p).all(|r| round[r] >= scheds[r].num_rounds());
        if all_done {
            break;
        }
        if !progressed {
            let stuck: Vec<usize> = (0..p)
                .filter(|&r| round[r] < scheds[r].num_rounds())
                .collect();
            return Err(format!("logical deadlock; stuck ranks {stuck:?}"));
        }
    }
    for ((src, dst), q) in &chans {
        if !q.is_empty() {
            return Err(format!(
                "{} unconsumed message(s) from {src} to {dst}",
                q.len()
            ));
        }
    }
    Ok(received)
}

/// Verify a broadcast: every non-root rank must receive segments
/// `0..nseg`; the root receives nothing.
pub fn verify_bcast(scheds: &[Schedule], root: usize, nseg: usize) -> Result<(), String> {
    let p = scheds.len();
    let mut initial = vec![HashSet::new(); p];
    initial[root] = (0..nseg as u32).collect();
    let recv = execute(scheds, &initial)?;
    for (r, got) in recv.iter().enumerate() {
        if r == root {
            if !got.is_empty() {
                return Err(format!("root received {got:?}"));
            }
            continue;
        }
        for s in 0..nseg as u32 {
            if !got.contains(&s) {
                return Err(format!("rank {r} missing segment {s}"));
            }
        }
    }
    Ok(())
}

/// Verify an all-to-all with block ids `src * p + dst`: every rank `r`
/// must receive block `(src, r)` for every `src != r`.
pub fn verify_alltoall(scheds: &[Schedule]) -> Result<(), String> {
    let p = scheds.len();
    let initial: Vec<HashSet<u32>> = (0..p)
        .map(|r| (0..p).map(|d| (r * p + d) as u32).collect())
        .collect();
    let recv = execute(scheds, &initial)?;
    for (r, got) in recv.iter().enumerate() {
        for src in 0..p {
            if src == r {
                continue;
            }
            let b = (src * p + r) as u32;
            if !got.contains(&b) {
                return Err(format!("rank {r} missing block from {src}"));
            }
        }
    }
    Ok(())
}

/// Every rank starts with one block, its own rank id.
fn own_blocks(p: usize) -> Vec<HashSet<u32>> {
    (0..p).map(|r| [r as u32].into_iter().collect()).collect()
}

/// Starting from [`own_blocks`], every rank must receive every other
/// rank's block: the all-gather and all-reduce postcondition.
fn everyone_receives_all(scheds: &[Schedule]) -> Result<(), String> {
    let p = scheds.len();
    let recv = execute(scheds, &own_blocks(p))?;
    for (r, got) in recv.iter().enumerate() {
        for other in 0..p as u32 {
            if other as usize != r && !got.contains(&other) {
                return Err(format!("rank {r} missing block of {other}"));
            }
        }
    }
    Ok(())
}

/// Starting from [`own_blocks`], the root must receive every other rank's
/// block: the reduce and gather postcondition.
fn root_receives_all(scheds: &[Schedule], root: usize) -> Result<(), String> {
    let p = scheds.len();
    let recv = execute(scheds, &own_blocks(p))?;
    for r in 0..p as u32 {
        if r as usize != root && !recv[root].contains(&r) {
            return Err(format!("root missing block of rank {r}"));
        }
    }
    Ok(())
}

/// Verify an all-gather with block id = owner rank: every rank must
/// receive every other rank's block.
pub fn verify_allgather(scheds: &[Schedule]) -> Result<(), String> {
    everyone_receives_all(scheds)
}

/// Verify an all-reduce with block id = contributing rank: every rank must
/// receive every other rank's contribution.
pub fn verify_allreduce(scheds: &[Schedule]) -> Result<(), String> {
    everyone_receives_all(scheds)
}

/// Verify a reduce with block id = contributing rank: the root must
/// receive every other rank's contribution.
pub fn verify_reduce(scheds: &[Schedule], root: usize) -> Result<(), String> {
    root_receives_all(scheds, root)
}

/// Verify a gather with block id = owner rank: the root must receive every
/// other rank's block.
pub fn verify_gather(scheds: &[Schedule], root: usize) -> Result<(), String> {
    root_receives_all(scheds, root)
}

/// Verify a scatter with block id = destination rank: the root starts with
/// blocks `0..p`, and every non-root rank `r` must receive block `r`.
pub fn verify_scatter(scheds: &[Schedule], root: usize) -> Result<(), String> {
    let p = scheds.len();
    let mut initial = vec![HashSet::new(); p];
    initial[root] = (0..p as u32).collect();
    let recv = execute(scheds, &initial)?;
    for (r, got) in recv.iter().enumerate() {
        if r != root && !got.contains(&(r as u32)) {
            return Err(format!("rank {r} missing its scattered block"));
        }
    }
    Ok(())
}

/// Verify a barrier: only deadlock-freedom and channel consistency matter.
pub fn verify_barrier(scheds: &[Schedule]) -> Result<(), String> {
    let p = scheds.len();
    let initial = vec![HashSet::new(); p];
    execute(scheds, &initial).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allgather::{build_allgather, AllgatherAlgo};
    use crate::allreduce::{build_allreduce, AllreduceAlgo};
    use crate::alltoall::{build_alltoall, AlltoallAlgo};
    use crate::barrier::build_barrier;
    use crate::bcast::{build_bcast, BcastAlgo};
    use crate::gather::{build_gather, build_scatter, GatherAlgo};
    use crate::reduce::{build_reduce, ReduceAlgo};
    use crate::schedule::{Action, CollSpec, Op, Round, Schedule};

    const SIZES: &[usize] = &[2, 3, 4, 5, 7, 8, 9, 16, 17, 32, 33, 64];

    #[test]
    fn all_bcast_variants_correct() {
        for &p in SIZES {
            for algo in BcastAlgo::all() {
                for (bytes, seg) in [
                    (100_000usize, 32 * 1024),
                    (1000, 64 * 1024),
                    (262_144, 65_536),
                ] {
                    let spec = CollSpec::new(p, bytes);
                    let scheds: Vec<Schedule> =
                        (0..p).map(|r| build_bcast(algo, seg, r, &spec)).collect();
                    let nseg = bytes.div_ceil(seg);
                    verify_bcast(&scheds, 0, nseg)
                        .unwrap_or_else(|e| panic!("{algo:?} p={p} bytes={bytes}: {e}"));
                }
            }
        }
    }

    #[test]
    fn bcast_nonzero_root_correct() {
        for &p in &[4usize, 9] {
            for algo in BcastAlgo::all() {
                let spec = CollSpec {
                    nprocs: p,
                    msg_bytes: 10_000,
                    root: p - 1,
                };
                let scheds: Vec<Schedule> =
                    (0..p).map(|r| build_bcast(algo, 4096, r, &spec)).collect();
                verify_bcast(&scheds, p - 1, 10_000usize.div_ceil(4096))
                    .unwrap_or_else(|e| panic!("{algo:?} p={p}: {e}"));
            }
        }
    }

    #[test]
    fn all_alltoall_variants_correct() {
        for &p in SIZES {
            for algo in AlltoallAlgo::all() {
                let spec = CollSpec::new(p, 128);
                let scheds: Vec<Schedule> =
                    (0..p).map(|r| build_alltoall(algo, r, &spec)).collect();
                verify_alltoall(&scheds).unwrap_or_else(|e| panic!("{algo:?} p={p}: {e}"));
            }
        }
    }

    #[test]
    fn all_allgather_variants_correct() {
        for &p in SIZES {
            for algo in AllgatherAlgo::all() {
                let spec = CollSpec::new(p, 64);
                let scheds: Vec<Schedule> =
                    (0..p).map(|r| build_allgather(algo, r, &spec)).collect();
                verify_allgather(&scheds).unwrap_or_else(|e| panic!("{algo:?} p={p}: {e}"));
            }
        }
    }

    #[test]
    fn all_reduce_variants_correct() {
        for &p in SIZES {
            for algo in ReduceAlgo::all() {
                let spec = CollSpec::new(p, 4096);
                let scheds: Vec<Schedule> = (0..p).map(|r| build_reduce(algo, r, &spec)).collect();
                verify_reduce(&scheds, 0).unwrap_or_else(|e| panic!("{algo:?} p={p}: {e}"));
            }
        }
    }

    #[test]
    fn all_gather_scatter_allreduce_variants_correct() {
        for &p in SIZES {
            for root in [0, p - 1] {
                let spec = |msg_bytes| CollSpec {
                    nprocs: p,
                    msg_bytes,
                    root,
                };
                let all = |build: &dyn Fn(usize) -> Schedule| (0..p).map(build).collect::<Vec<_>>();
                for algo in GatherAlgo::all() {
                    let what = format!("{algo:?} p={p} root={root}");
                    let gather = all(&|r| build_gather(algo, r, &spec(128)));
                    verify_gather(&gather, root).unwrap_or_else(|e| panic!("gather {what}: {e}"));
                    let scatter = all(&|r| build_scatter(algo, r, &spec(128)));
                    verify_scatter(&scatter, root)
                        .unwrap_or_else(|e| panic!("scatter {what}: {e}"));
                }
                for (algo, bytes) in AllreduceAlgo::all()
                    .into_iter()
                    .flat_map(|a| [8, 1000, 64 * 1024].map(|b| (a, b)))
                {
                    let scheds = all(&|r| build_allreduce(algo, r, &spec(bytes)));
                    verify_allreduce(&scheds)
                        .unwrap_or_else(|e| panic!("{algo:?} p={p} {bytes} B root={root}: {e}"));
                }
            }
        }
    }

    #[test]
    fn barrier_deadlock_free() {
        for &p in SIZES {
            let spec = CollSpec::new(p, 0);
            let scheds: Vec<Schedule> = (0..p).map(|r| build_barrier(r, &spec)).collect();
            verify_barrier(&scheds).unwrap_or_else(|e| panic!("p={p}: {e}"));
        }
    }

    #[test]
    fn detects_deadlock() {
        // Two ranks each waiting for the other before sending.
        let mk = |peer: usize| {
            let mut s = Schedule::new();
            s.push_round(Round(vec![Action::recv(peer, 8)]));
            s.push_round(Round(vec![Action::send(peer, 8, vec![])]));
            s
        };
        let err = execute(&[mk(1), mk(0)], &[HashSet::new(), HashSet::new()]).unwrap_err();
        assert!(err.contains("deadlock"), "{err}");
    }

    #[test]
    fn detects_size_mismatch() {
        let mut s0 = Schedule::new();
        s0.push_round(Round(vec![Action::send(1, 100, vec![])]));
        let mut s1 = Schedule::new();
        s1.push_round(Round(vec![Action::recv(0, 99)]));
        let err = execute(&[s0, s1], &[HashSet::new(), HashSet::new()]).unwrap_err();
        assert!(err.contains("recv expects"), "{err}");
    }

    #[test]
    fn detects_phantom_block() {
        let mut s0 = Schedule::new();
        s0.push_round(Round(vec![Action::send(1, 8, vec![42])]));
        let mut s1 = Schedule::new();
        s1.push_round(Round(vec![Action::recv(0, 8)]));
        let err = execute(&[s0, s1], &[HashSet::new(), HashSet::new()]).unwrap_err();
        assert!(err.contains("does not hold"), "{err}");
    }

    #[test]
    fn detects_unconsumed_message() {
        let mut s0 = Schedule::new();
        s0.push_round(Round(vec![Action::send(1, 8, vec![])]));
        let s1 = Schedule::new();
        let err = execute(&[s0, s1], &[HashSet::new(), HashSet::new()]).unwrap_err();
        assert!(err.contains("unconsumed"), "{err}");
    }

    /// The schedules without the first message from `src` to `dst` (its
    /// send and its receive), so the exchange stays consistent and only the
    /// postcondition can notice the missing blocks.
    fn drop_message(mut scheds: Vec<Schedule>, src: usize, dst: usize) -> Vec<Schedule> {
        let to_dst = |op: &Op| op.kind() == OpKind::Send && op.peer() == dst;
        let from_src = |op: &Op| op.kind() == OpKind::Recv && op.peer() == src;
        remove_first(&mut scheds[src], to_dst);
        remove_first(&mut scheds[dst], from_src);
        scheds
    }

    fn remove_first(s: &mut Schedule, hit: impl Fn(&Op) -> bool) {
        let j = s.ops().iter().position(hit).expect("no such action");
        s.remove_op(j);
    }

    #[test]
    fn detects_missing_gather_block() {
        let spec = CollSpec::new(4, 64);
        let scheds: Vec<Schedule> = (0..4)
            .map(|r| build_gather(GatherAlgo::Linear, r, &spec))
            .collect();
        verify_gather(&scheds, 0).expect("intact gather verifies");
        let err = verify_gather(&drop_message(scheds, 2, 0), 0).unwrap_err();
        assert!(err.contains("missing block of rank 2"), "{err}");
    }

    #[test]
    fn detects_missing_scatter_block() {
        let spec = CollSpec::new(4, 64);
        let scheds: Vec<Schedule> = (0..4)
            .map(|r| build_scatter(GatherAlgo::Linear, r, &spec))
            .collect();
        verify_scatter(&scheds, 0).expect("intact scatter verifies");
        let err = verify_scatter(&drop_message(scheds, 0, 3), 0).unwrap_err();
        assert!(err.contains("rank 3 missing"), "{err}");
    }

    #[test]
    fn detects_missing_allreduce_contribution() {
        let spec = CollSpec::new(2, 64);
        let algo = AllreduceAlgo::RecursiveDoubling;
        let scheds: Vec<Schedule> = (0..2).map(|r| build_allreduce(algo, r, &spec)).collect();
        verify_allreduce(&scheds).expect("intact allreduce verifies");
        let err = verify_allreduce(&drop_message(scheds, 1, 0)).unwrap_err();
        assert!(err.contains("rank 0 missing block of 1"), "{err}");
    }
}

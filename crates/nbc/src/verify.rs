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

use crate::schedule::{Annotated, OpKind, Sink};
use mpisim::RankId;
use std::collections::{HashMap, HashSet, VecDeque};

/// Every rank's schedule among `p` in the verifier's form: `write(r, out)`
/// writes rank `r`'s.
pub fn annotate_all(p: usize, write: impl Fn(RankId, &mut dyn Sink)) -> Vec<Annotated> {
    (0..p)
        .map(|r| Annotated::build(r, p, |out| write(r, out)))
        .collect()
}

/// Result of a logical execution: the set of blocks each rank received.
pub type ReceivedBlocks = Vec<HashSet<u32>>;

/// FIFO channels keyed by `(src, dst)`: queued `(bytes, blocks)` messages.
/// Block lists are borrowed straight out of the schedules — the verifier
/// moves references through the channels, never cloning a block vector, so
/// a full sweep over every algorithm allocates only the channel scaffolding.
type Channels<'s> = HashMap<(usize, usize), VecDeque<(usize, &'s [u32])>>;

/// Execute one schedule per rank logically. `initial[r]` is the set of
/// blocks rank `r` holds before the operation.
pub fn execute(scheds: &[Annotated], initial: &[HashSet<u32>]) -> Result<ReceivedBlocks, String> {
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
        scheds: &'s [Annotated],
        round: &[usize],
        held: &[HashSet<u32>],
        chans: &mut Channels<'s>,
    ) -> Result<(), String> {
        let s = &scheds[r];
        if round[r] >= s.num_rounds() {
            return Ok(());
        }
        for (op, blocks) in s.round(round[r]) {
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
                .entry((r, s.peer(op)))
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
                let s = &scheds[r];
                let recvs = || {
                    let ops = s.round(round[r]).map(|(op, _)| op);
                    ops.filter(|op| op.kind() == OpKind::Recv)
                };
                let mut needed: HashMap<usize, usize> = HashMap::new();
                for op in recvs() {
                    *needed.entry(s.peer(op)).or_default() += 1;
                }
                let ready = needed
                    .iter()
                    .all(|(&peer, &cnt)| chans.get(&(peer, r)).map_or(0, |q| q.len()) >= cnt);
                if !ready {
                    break;
                }
                // Pop the receives in action order, checking sizes.
                for op in recvs() {
                    let peer = s.peer(op);
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
pub fn verify_bcast(scheds: &[Annotated], root: usize, nseg: usize) -> Result<(), String> {
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
pub fn verify_alltoall(scheds: &[Annotated]) -> Result<(), String> {
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

/// Verify an all-gather with block id = owner rank: starting from
/// [`own_blocks`], every rank must receive every other rank's block.
pub fn verify_allgather(scheds: &[Annotated]) -> Result<(), String> {
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

/// Verify an all-reduce with block id = contributing rank: every rank must
/// receive every other rank's contribution, as in an all-gather.
pub fn verify_allreduce(scheds: &[Annotated]) -> Result<(), String> {
    verify_allgather(scheds)
}

/// Verify a gather with block id = owner rank: starting from
/// [`own_blocks`], the root must receive every other rank's block.
pub fn verify_gather(scheds: &[Annotated], root: usize) -> Result<(), String> {
    let p = scheds.len();
    let recv = execute(scheds, &own_blocks(p))?;
    for r in 0..p as u32 {
        if r as usize != root && !recv[root].contains(&r) {
            return Err(format!("root missing block of rank {r}"));
        }
    }
    Ok(())
}

/// Verify a reduce with block id = contributing rank: the root must
/// receive every other rank's contribution, as in a gather.
pub fn verify_reduce(scheds: &[Annotated], root: usize) -> Result<(), String> {
    verify_gather(scheds, root)
}

/// Verify a scatter with block id = destination rank: the root starts with
/// blocks `0..p`, and every non-root rank `r` must receive block `r`.
pub fn verify_scatter(scheds: &[Annotated], root: usize) -> Result<(), String> {
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
pub fn verify_barrier(scheds: &[Annotated]) -> Result<(), String> {
    let p = scheds.len();
    let initial = vec![HashSet::new(); p];
    execute(scheds, &initial).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allgather::{write_allgather, AllgatherAlgo};
    use crate::allreduce::{write_allreduce, AllreduceAlgo};
    use crate::alltoall::{write_alltoall, AlltoallAlgo};
    use crate::barrier::write_barrier;
    use crate::bcast::{write_bcast, BcastAlgo};
    use crate::gather::{write_gather, write_scatter, GatherAlgo};
    use crate::reduce::{write_reduce, ReduceAlgo};
    use crate::schedule::{CollSpec, Op};

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
                    let scheds = annotate_all(p, |r, out| write_bcast(algo, seg, r, &spec, out));
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
                let scheds = annotate_all(p, |r, out| write_bcast(algo, 4096, r, &spec, out));
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
                let scheds = annotate_all(p, |r, out| write_alltoall(algo, r, &spec, out));
                verify_alltoall(&scheds).unwrap_or_else(|e| panic!("{algo:?} p={p}: {e}"));
            }
        }
    }

    #[test]
    fn all_allgather_variants_correct() {
        for &p in SIZES {
            for algo in AllgatherAlgo::all() {
                let spec = CollSpec::new(p, 64);
                let scheds = annotate_all(p, |r, out| write_allgather(algo, r, &spec, out));
                verify_allgather(&scheds).unwrap_or_else(|e| panic!("{algo:?} p={p}: {e}"));
            }
        }
    }

    #[test]
    fn all_reduce_variants_correct() {
        for &p in SIZES {
            for algo in ReduceAlgo::all() {
                let spec = CollSpec::new(p, 4096);
                let scheds = annotate_all(p, |r, out| write_reduce(algo, r, &spec, out));
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
                for algo in GatherAlgo::all() {
                    let what = format!("{algo:?} p={p} root={root}");
                    let gather = annotate_all(p, |r, out| write_gather(algo, r, &spec(128), out));
                    verify_gather(&gather, root).unwrap_or_else(|e| panic!("gather {what}: {e}"));
                    let scatter = annotate_all(p, |r, out| write_scatter(algo, r, &spec(128), out));
                    verify_scatter(&scatter, root)
                        .unwrap_or_else(|e| panic!("scatter {what}: {e}"));
                }
                for (algo, bytes) in AllreduceAlgo::all()
                    .into_iter()
                    .flat_map(|a| [8, 1000, 64 * 1024].map(|b| (a, b)))
                {
                    let scheds =
                        annotate_all(p, |r, out| write_allreduce(algo, r, &spec(bytes), out));
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
            let scheds = annotate_all(p, |r, out| write_barrier(r, &spec, out));
            verify_barrier(&scheds).unwrap_or_else(|e| panic!("p={p}: {e}"));
        }
    }

    #[test]
    fn detects_deadlock() {
        // Two ranks each waiting for the other before sending.
        let scheds = annotate_all(2, |r, out| {
            out.recv(1 - r, 8);
            out.round();
            out.send(1 - r, 8, &[]);
        });
        let err = execute(&scheds, &[HashSet::new(), HashSet::new()]).unwrap_err();
        assert!(err.contains("deadlock"), "{err}");
    }

    #[test]
    fn detects_size_mismatch() {
        let scheds = annotate_all(2, |r, out| match r {
            0 => out.send(1, 100, &[]),
            _ => out.recv(0, 99),
        });
        let err = execute(&scheds, &[HashSet::new(), HashSet::new()]).unwrap_err();
        assert!(err.contains("recv expects"), "{err}");
    }

    #[test]
    fn detects_phantom_block() {
        let scheds = annotate_all(2, |r, out| match r {
            0 => out.send(1, 8, &[42]),
            _ => out.recv(0, 8),
        });
        let err = execute(&scheds, &[HashSet::new(), HashSet::new()]).unwrap_err();
        assert!(err.contains("does not hold"), "{err}");
    }

    #[test]
    fn detects_unconsumed_message() {
        let scheds = annotate_all(2, |r, out| {
            if r == 0 {
                out.send(1, 8, &[]);
            }
        });
        let err = execute(&scheds, &[HashSet::new(), HashSet::new()]).unwrap_err();
        assert!(err.contains("unconsumed"), "{err}");
    }

    /// The schedules without the first message from `src` to `dst` (its
    /// send and its receive), so the exchange stays consistent and only the
    /// postcondition can notice the missing blocks.
    fn drop_message(mut scheds: Vec<Annotated>, src: usize, dst: usize) -> Vec<Annotated> {
        remove_first(&mut scheds[src], OpKind::Send, dst);
        remove_first(&mut scheds[dst], OpKind::Recv, src);
        scheds
    }

    /// Remove `s`'s first op of `kind` with `peer`.
    fn remove_first(s: &mut Annotated, kind: OpKind, peer: usize) {
        let hit = |op: &Op| op.kind() == kind && s.peer(op) == peer;
        let j = s
            .schedule()
            .ops()
            .iter()
            .position(hit)
            .expect("no such action");
        s.remove_op(j);
    }

    #[test]
    fn detects_missing_gather_block() {
        let spec = CollSpec::new(4, 64);
        let scheds = annotate_all(4, |r, out| write_gather(GatherAlgo::Linear, r, &spec, out));
        verify_gather(&scheds, 0).expect("intact gather verifies");
        let err = verify_gather(&drop_message(scheds, 2, 0), 0).unwrap_err();
        assert!(err.contains("missing block of rank 2"), "{err}");
    }

    #[test]
    fn detects_missing_scatter_block() {
        let spec = CollSpec::new(4, 64);
        let scheds = annotate_all(4, |r, out| write_scatter(GatherAlgo::Linear, r, &spec, out));
        verify_scatter(&scheds, 0).expect("intact scatter verifies");
        let err = verify_scatter(&drop_message(scheds, 0, 3), 0).unwrap_err();
        assert!(err.contains("rank 3 missing"), "{err}");
    }

    #[test]
    fn detects_missing_allreduce_contribution() {
        let spec = CollSpec::new(2, 64);
        let algo = AllreduceAlgo::RecursiveDoubling;
        let scheds = annotate_all(2, |r, out| write_allreduce(algo, r, &spec, out));
        verify_allreduce(&scheds).expect("intact allreduce verifies");
        let err = verify_allreduce(&drop_message(scheds, 1, 0)).unwrap_err();
        assert!(err.contains("rank 0 missing block of 1"), "{err}");
    }
}

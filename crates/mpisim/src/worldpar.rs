//! Partitioning policy for the intra-world parallel event engine.
//!
//! This module decides *whether* and *how* a [`World`](crate::World)
//! partitions its ranks across threads; the engine itself lives in
//! `world.rs`. The decision is pure policy — every choice (including
//! "serial") produces byte-identical simulation results — so the knobs
//! here only trade wall-clock time:
//!
//! - `NBC_WORLD_PAR=off` (default): always serial.
//! - `NBC_WORLD_PAR=auto`: partition when the world is big enough to pay
//!   for the window barriers and the host has idle cores; never inside a
//!   sweep worker thread (the sweep already saturates the machine).
//! - `NBC_WORLD_PAR=N`: force N partitions (clamped to the node count).
//!
//! [`World::set_par_mode`](crate::World::set_par_mode) overrides per
//! world, and [`set_override`] per process; both win over the
//! environment.
//!
//! Partitions are *node-aligned*: all ranks of one node belong to one
//! partition. This is what gives the conservative synchronization its
//! lookahead — any cross-partition message is inter-node, so it is at
//! least the minimum inter-node wire latency away from its cause — and it
//! also keeps each node's copy engine owned by exactly one partition.

use crate::world::World;
use simcore::SimTime;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// How a world's event loop may be parallelized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParMode {
    /// Single-threaded event loop (the default).
    Off,
    /// Partition when profitable: enough ranks, enough idle hardware, and
    /// not already inside a sweep worker.
    Auto,
    /// Exactly this many partitions (clamped to the number of occupied
    /// nodes; values below 2 mean serial).
    Fixed(usize),
}

/// Smallest world (in ranks) that `Auto` considers worth the window
/// barriers. Forced (`Fixed`) modes ignore this — benchmarks and identity
/// tests need to partition small worlds on purpose.
const AUTO_MIN_RANKS: usize = 512;

/// `Auto` never uses more partitions than this: windows synchronize with
/// full barriers, and past 8 threads the barrier latency eats the win for
/// the event densities our worlds produce.
const AUTO_MAX_PARTS: usize = 8;

fn parse_mode(v: &str) -> ParMode {
    let v = v.trim();
    if v.is_empty() {
        return ParMode::Off;
    }
    if v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("serial") || v == "0" || v == "1" {
        return ParMode::Off;
    }
    if v.eq_ignore_ascii_case("auto") {
        return ParMode::Auto;
    }
    match v.parse::<usize>() {
        Ok(n) if n >= 2 => ParMode::Fixed(n),
        // Lenient: an unparsable value must not turn a production run into
        // a surprise (results are identical anyway; only speed differs).
        _ => ParMode::Off,
    }
}

fn env_mode() -> ParMode {
    static MODE: OnceLock<ParMode> = OnceLock::new();
    *MODE.get_or_init(|| {
        std::env::var("NBC_WORLD_PAR")
            .map(|v| parse_mode(&v))
            .unwrap_or(ParMode::Off)
    })
}

/// Process-wide override encoding: 0 = none, 1 = Off, 2 = Auto,
/// 3 + n = Fixed(n).
static OVERRIDE: AtomicU32 = AtomicU32::new(0);

/// Override `NBC_WORLD_PAR` for the whole process (tests, benchmark
/// drivers); `None` restores environment resolution. A per-world
/// [`World::set_par_mode`](crate::World::set_par_mode) still wins.
pub fn set_override(mode: Option<ParMode>) {
    let enc = match mode {
        None => 0,
        Some(ParMode::Off) => 1,
        Some(ParMode::Auto) => 2,
        Some(ParMode::Fixed(n)) => 3 + (n as u32).min(u32::MAX - 3),
    };
    OVERRIDE.store(enc, Ordering::Relaxed);
}

fn override_mode() -> Option<ParMode> {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => None,
        1 => Some(ParMode::Off),
        2 => Some(ParMode::Auto),
        n => Some(ParMode::Fixed((n - 3) as usize)),
    }
}

/// The mode that worlds without a per-world override would resolve to,
/// encoded as a cache-key discriminant for the world-reuse pool (worlds
/// cached under one mode must not be reused under another without a
/// reset — partition diagnostics and engine configuration differ even
/// though results do not).
pub fn mode_key() -> u32 {
    match override_mode().unwrap_or_else(env_mode) {
        ParMode::Off => 1,
        ParMode::Auto => 2,
        ParMode::Fixed(n) => 3u32.saturating_add(n as u32),
    }
}

/// A concrete partitioning decision for one run.
pub(crate) struct ParPlan {
    /// Number of partitions (always ≥ 2).
    pub(crate) nparts: usize,
    /// `owner[rank]` = partition index driving that rank. Node-aligned.
    pub(crate) owner: Vec<u32>,
    /// Conservative window width: the minimum wire latency between ranks
    /// of different partitions.
    pub(crate) lookahead: SimTime,
}

/// Diagnostics of the last partitioned run, surfaced by
/// [`World::par_info`](crate::World::par_info) and the `--profile`
/// benchmark report.
#[derive(Debug, Clone)]
pub struct ParRunInfo {
    /// Partitions used.
    pub nparts: usize,
    /// Conservative window width used.
    pub lookahead: SimTime,
    /// Synchronization windows executed.
    pub windows: u64,
    /// Events dispatched per partition (imbalance diagnostic).
    pub per_part_events: Vec<u64>,
    /// Peak event-queue depth per partition.
    pub per_part_max_depth: Vec<u64>,
}

/// Decide the partitioning for one `run` of `world`. `None` means run
/// serial. Resolution order: the world's own override, then the process
/// override, then `NBC_WORLD_PAR`.
pub(crate) fn plan(world: &World) -> Option<ParPlan> {
    let mode = world
        .par_mode()
        .or_else(override_mode)
        .unwrap_or_else(env_mode);
    let nranks = world.nranks();
    // Decide "serial" before looking at the placement: this runs at the
    // top of every `World::run`, and the default mode must cost nothing.
    let wanted = match mode {
        ParMode::Off => return None,
        ParMode::Auto => {
            // Inside a sweep worker the machine is already saturated with
            // world-level parallelism; nesting threads would oversubscribe.
            if simcore::par::in_pool_worker() {
                return None;
            }
            let hw = simcore::par::hardware_parallelism();
            if hw < 2 || nranks < AUTO_MIN_RANKS {
                return None;
            }
            hw.min(AUTO_MAX_PARTS)
        }
        ParMode::Fixed(n) => n,
    };
    if nranks == 0 {
        return None;
    }
    let topo = world.network().topology();
    // Per-node rank counts over the nodes actually occupied.
    let last_node = (0..nranks).map(|r| topo.node_of(r)).max().unwrap_or(0);
    let mut counts = vec![0u64; last_node + 1];
    for r in 0..nranks {
        counts[topo.node_of(r)] += 1;
    }
    let nodes_used = counts.iter().filter(|&&c| c > 0).count();
    let nparts = wanted.min(nodes_used);
    if nparts < 2 {
        return None;
    }
    let owner = assign_nodes(&counts, nranks, nparts, topo);
    // Lookahead: minimum wire latency over cross-partition node pairs. A
    // degenerate platform (zero latency) cannot be conservatively
    // parallelized — fall back to serial rather than risk the contract.
    let lookahead = world.network().lookahead(&owner)?;
    if lookahead == SimTime::ZERO {
        return None;
    }
    Some(ParPlan {
        nparts,
        owner,
        lookahead,
    })
}

/// The node-aligned partition assignment the engine would use for a world
/// of this shape at `nparts` partitions, computed without building a
/// `World` — for offline analysis (`trace_inspect --parts`) that wants to
/// attribute per-rank trace data to the engine's real partitions. Returns
/// `owner[rank] = partition` or `None` when the shape cannot be
/// partitioned (fewer occupied nodes than 2, or `nparts < 2`). This is
/// the same `assign_nodes` policy [`plan`] uses; the lookahead
/// profitability check is deliberately not applied — an analyzer wants
/// the mapping even for shapes the engine would run serially.
pub fn partition_owners(
    platform: &netmodel::Platform,
    nranks: usize,
    placement: netmodel::Placement,
    nparts: usize,
) -> Option<Vec<u32>> {
    if nranks == 0 || nparts < 2 {
        return None;
    }
    let topo = netmodel::Topology::new(
        platform.nodes,
        platform.cores_per_node,
        nranks,
        placement,
        platform.torus,
    );
    let last_node = (0..nranks).map(|r| topo.node_of(r)).max().unwrap_or(0);
    let mut counts = vec![0u64; last_node + 1];
    for r in 0..nranks {
        counts[topo.node_of(r)] += 1;
    }
    let nodes_used = counts.iter().filter(|&&c| c > 0).count();
    let nparts = nparts.min(nodes_used);
    if nparts < 2 {
        return None;
    }
    Some(assign_nodes(&counts, nranks, nparts, &topo))
}

/// Greedy node-aligned assignment balancing *rank count* per partition:
/// walk nodes in order, advancing to the next partition when the running
/// total crosses the ideal boundary. Every partition is guaranteed at
/// least one occupied node.
fn assign_nodes(
    counts: &[u64],
    nranks: usize,
    nparts: usize,
    topo: &netmodel::Topology,
) -> Vec<u32> {
    let total: u64 = nranks as u64;
    let occupied: Vec<usize> = (0..counts.len()).filter(|&n| counts[n] > 0).collect();
    let mut node_part = vec![0u32; counts.len()];
    let mut p = 0usize;
    let mut cum = 0u64;
    for (i, &node) in occupied.iter().enumerate() {
        node_part[node] = p as u32;
        cum += counts[node];
        let nodes_left = occupied.len() - i - 1;
        let parts_left = nparts - p - 1;
        if parts_left > 0
            && (cum * nparts as u64 >= total * (p as u64 + 1) || nodes_left == parts_left)
        {
            p += 1;
        }
    }
    (0..nranks).map(|r| node_part[topo.node_of(r)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::NoiseConfig;
    use netmodel::{Placement, Platform};

    #[test]
    fn mode_parsing() {
        assert_eq!(parse_mode(""), ParMode::Off);
        assert_eq!(parse_mode("off"), ParMode::Off);
        assert_eq!(parse_mode("OFF"), ParMode::Off);
        assert_eq!(parse_mode("serial"), ParMode::Off);
        assert_eq!(parse_mode("0"), ParMode::Off);
        assert_eq!(parse_mode("1"), ParMode::Off);
        assert_eq!(parse_mode("auto"), ParMode::Auto);
        assert_eq!(parse_mode(" 4 "), ParMode::Fixed(4));
        assert_eq!(parse_mode("nonsense"), ParMode::Off);
    }

    #[test]
    fn override_roundtrip() {
        set_override(Some(ParMode::Fixed(3)));
        assert_eq!(override_mode(), Some(ParMode::Fixed(3)));
        assert_eq!(mode_key(), 6);
        set_override(Some(ParMode::Auto));
        assert_eq!(override_mode(), Some(ParMode::Auto));
        set_override(None);
        assert_eq!(override_mode(), None);
    }

    #[test]
    fn fixed_plan_is_node_aligned_and_balanced() {
        // whale: 64 nodes x 8 cores; 32 ranks round-robin -> 32 nodes.
        let mut w = World::new(
            Platform::whale(),
            32,
            Placement::RoundRobin,
            NoiseConfig::none(),
        );
        w.set_par_mode(Some(ParMode::Fixed(4)));
        let plan = plan(&w).expect("plan");
        assert_eq!(plan.nparts, 4);
        assert!(plan.lookahead > SimTime::ZERO);
        let topo = w.network().topology();
        // Node-aligned: all ranks of one node in one partition.
        let mut node_part = std::collections::BTreeMap::new();
        for r in 0..32 {
            let prev = node_part.insert(topo.node_of(r), plan.owner[r]);
            if let Some(prev) = prev {
                assert_eq!(prev, plan.owner[r]);
            }
        }
        // Balanced: every partition owns ranks, max/min ratio bounded.
        let mut per = [0u64; 4];
        for r in 0..32 {
            per[plan.owner[r] as usize] += 1;
        }
        assert!(per.iter().all(|&c| c > 0), "empty partition: {per:?}");
        assert_eq!(per.iter().sum::<u64>(), 32);
    }

    #[test]
    fn fixed_clamps_to_node_count() {
        // 4 ranks block-placed on whale (8 cores/node) occupy one node:
        // no cross-node pair, so partitioning is impossible.
        let mut w = World::new(Platform::whale(), 4, Placement::Block, NoiseConfig::none());
        w.set_par_mode(Some(ParMode::Fixed(4)));
        assert!(plan(&w).is_none());
    }

    #[test]
    fn partition_owners_matches_engine_plan() {
        let mut w = World::new(
            Platform::whale(),
            32,
            Placement::RoundRobin,
            NoiseConfig::none(),
        );
        w.set_par_mode(Some(ParMode::Fixed(4)));
        let engine = plan(&w).expect("plan");
        let offline = partition_owners(&Platform::whale(), 32, Placement::RoundRobin, 4)
            .expect("offline owners");
        assert_eq!(engine.owner, offline);
        // Unpartitionable shapes report None, same as the engine.
        assert!(partition_owners(&Platform::whale(), 4, Placement::Block, 4).is_none());
        assert!(partition_owners(&Platform::whale(), 8, Placement::RoundRobin, 1).is_none());
    }

    #[test]
    fn off_means_serial() {
        let mut w = World::new(
            Platform::whale(),
            16,
            Placement::RoundRobin,
            NoiseConfig::none(),
        );
        w.set_par_mode(Some(ParMode::Off));
        assert!(plan(&w).is_none());
    }
}

//! Golden runs of the event loop. The 8-rank table was captured from the
//! commit *before* message records were recycled, the channel maps
//! flattened and payload slabs made intrusive; the 4096-rank row from the
//! serial run of the commit before the partitioned engine was deleted.
//! Engine changes may only move host time: simulated time, the event
//! digest and the event count must stay exactly what they were.

use mpisim::workload::{test_world, NeighborExchange};
use netmodel::Platform;

/// One [`NeighborExchange`] run as the capturing commit ran it.
struct Golden {
    mix: &'static str,
    digest: u64,
    makespan_ns: u64,
    events: u64,
}

const fn golden(mix: &'static str, digest: u64, makespan_ns: u64, events: u64) -> Golden {
    Golden {
        mix,
        digest,
        makespan_ns,
        events,
    }
}

/// 40 rounds over 8 ranks on whale: one rank per node.
#[rustfmt::skip]
const GOLDEN: [Golden; 3] = [
    golden("eager", 0xa9ed_27fc_f238_a2aa, 985_480, 1288),
    golden("rdv", 0xa3d4_0b8d_cc1b_e6c4, 8_761_760, 1928),
    golden("mixed", 0x79ab_30d0_55b5_2811, 16_213_000, 1608),
];

/// The one large world in the suite — 3 rounds over 4096 ranks on
/// synth-hpc, round-robin, so eight ranks share each node's NICs.
const WORLD_SCALE: Golden = golden("scale", 0x756c_0290_69d7_a780, 112_952, 61_444);

fn sizes(mix: &str) -> (usize, usize) {
    match mix {
        "eager" => (1024, 1024),
        "rdv" => (256 * 1024, 256 * 1024),
        "mixed" => (2048, 1 << 20),
        "scale" => (2048, 64 * 1024),
        other => panic!("unknown mix {other}"),
    }
}

fn check(g: &Golden, platform: Platform, nranks: usize, rounds: usize) {
    let (small, large) = sizes(g.mix);
    let mut w = test_world(platform, nranks);
    let mut b = NeighborExchange::new(nranks, rounds, small, large);
    let polls = simcore::metrics::counter("mpisim.polls");
    let (events0, polls0) = (mpisim::sim_events_total(), polls.get());
    let makespan = w.run(&mut b).expect("golden runs complete");
    let what = g.mix;
    assert_eq!(w.event_digest(), g.digest, "{what}: event digest");
    assert_eq!(makespan.as_nanos(), g.makespan_ns, "{what}: makespan");
    assert_eq!(w.events_processed(), g.events, "{what}: events");
    // What a run flushes into the registry is what the world counted.
    assert_eq!(mpisim::sim_events_total() - events0, g.events, "{what}");
    assert_eq!(polls.get() - polls0, w.polls(), "{what}: polls");
}

/// One `#[test]` on purpose: the registry counters `check` reads are
/// process-global, so concurrently running cases would blur them.
#[test]
fn runs_match_the_golden_tables() {
    for g in &GOLDEN {
        check(g, Platform::whale(), 8, 40);
    }
    check(&WORLD_SCALE, Platform::synth_hpc(), 4096, 3);
}

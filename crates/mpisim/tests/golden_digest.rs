//! Golden runs of the event loop. The 8-rank table was captured from the
//! commit *before* message records were recycled, the channel maps
//! flattened and payload slabs made intrusive; the 4096-rank row from the
//! serial run of the commit before the partitioned engine was deleted.
//! Engine changes may only move host time: simulated time, the event
//! digest, the event count and the fault tallies must stay exactly what
//! they were, under every fault profile.

use mpisim::workload::{test_world, NeighborExchange};
use mpisim::FaultConfig;
use netmodel::Platform;
use simcore::SimTime;

/// One [`NeighborExchange`] run as the capturing commit ran it.
struct Golden {
    mix: &'static str,
    profile: &'static str,
    digest: u64,
    makespan_ns: u64,
    events: u64,
    /// `[drops, dups, dup_suppressed, retries]`.
    tallies: [u64; 4],
}

const fn golden(
    mix: &'static str,
    profile: &'static str,
    digest: u64,
    makespan_ns: u64,
    events: u64,
    tallies: [u64; 4],
) -> Golden {
    Golden {
        mix,
        profile,
        digest,
        makespan_ns,
        events,
        tallies,
    }
}

/// 40 rounds over 8 ranks on whale: one rank per node.
#[rustfmt::skip]
const GOLDEN: [Golden; 12] = [
    golden("eager", "off", 0xa9ed_27fc_f238_a2aa, 985_480, 1288, [0, 0, 0, 0]),
    golden("eager", "light", 0x69b5_3bca_0986_409f, 5_101_646, 1662, [2, 0, 0, 2]),
    golden("eager", "heavy", 0xf433_25f2_3904_82c0, 12_359_357, 1676, [7, 1, 1, 7]),
    golden("eager", "storm", 0xa9cd_3834_c555_7f7f, 21_460_953, 1895, [78, 92, 92, 78]),
    golden("rdv", "off", 0xa3d4_0b8d_cc1b_e6c4, 8_761_760, 1928, [0, 0, 0, 0]),
    golden("rdv", "light", 0x2c4d_6379_9d02_6771, 11_121_490, 2254, [1, 3, 5, 1]),
    golden("rdv", "heavy", 0x7e17_0752_6976_7b11, 25_033_766, 2294, [13, 8, 28, 18]),
    golden("rdv", "storm", 0xc7f3_6a9c_83e1_1073, 274_361_186, 3108, [274, 270, 519, 341]),
    golden("mixed", "off", 0x79ab_30d0_55b5_2811, 16_213_000, 1608, [0, 0, 0, 0]),
    golden("mixed", "light", 0x0d79_5fa2_a01c_96f5, 20_847_911, 2005, [2, 3, 7, 4]),
    golden("mixed", "heavy", 0x0fc7_55a3_922d_e8c9, 29_637_612, 2025, [5, 3, 12, 11]),
    golden("mixed", "storm", 0x50fd_1460_4006_8042, 73_592_376, 2489, [163, 172, 288, 190]),
];

/// The one large world in the suite — 3 rounds over 4096 ranks on
/// synth-hpc, round-robin, so eight ranks share each node's NICs.
const WORLD_SCALE: Golden = golden(
    "scale",
    "off",
    0x756c_0290_69d7_a780,
    112_952,
    61_444,
    [0, 0, 0, 0],
);

fn sizes(mix: &str) -> (usize, usize) {
    match mix {
        "eager" => (1024, 1024),
        "rdv" => (256 * 1024, 256 * 1024),
        "mixed" => (2048, 1 << 20),
        "scale" => (2048, 64 * 1024),
        other => panic!("unknown mix {other}"),
    }
}

fn faults(profile: &str) -> Option<FaultConfig> {
    match profile {
        "off" => None,
        "light" => Some(FaultConfig::light(21)),
        "heavy" => Some(FaultConfig::heavy(22)),
        // Every fifth transmission lost and almost every third duplicated:
        // retry timers, duplicate RTS/CTS and stale envelopes by the
        // hundred.
        "storm" => Some(FaultConfig {
            seed: 9,
            drop_prob: 0.2,
            dup_prob: 0.3,
            jitter: 0.3,
            retry_timeout: SimTime::from_micros(500),
            max_retries: 12,
            arm_timeouts: true,
            ..FaultConfig::off()
        }),
        other => panic!("unknown fault profile {other}"),
    }
}

fn check(g: &Golden, platform: Platform, nranks: usize, rounds: usize) {
    let (small, large) = sizes(g.mix);
    let mut w = test_world(platform, nranks);
    if let Some(cfg) = faults(g.profile) {
        w.set_faults(&cfg);
    }
    let mut b = NeighborExchange::new(nranks, rounds, small, large);
    let polls = simcore::metrics::counter("mpisim.polls");
    let (events0, polls0) = (mpisim::sim_events_total(), polls.get());
    let makespan = w.run(&mut b).expect("golden runs complete");
    let what = format!("{}/{}", g.mix, g.profile);
    assert_eq!(w.event_digest(), g.digest, "{what}: event digest");
    assert_eq!(makespan.as_nanos(), g.makespan_ns, "{what}: makespan");
    assert_eq!(w.events_processed(), g.events, "{what}: events");
    // What a run flushes into the registry is what the world counted.
    assert_eq!(mpisim::sim_events_total() - events0, g.events, "{what}");
    assert_eq!(polls.get() - polls0, w.polls(), "{what}: polls");
    let f = w.fault_stats();
    assert_eq!(
        [f.drops, f.dups, f.dup_suppressed, f.retries],
        g.tallies,
        "{what}: fault tallies"
    );
    assert_eq!(f.timeouts, 0, "{what}");
}

/// One `#[test]` on purpose: the registry counters `check` reads are
/// process-global, so concurrently running cases would blur them.
#[test]
fn runs_match_the_golden_tables_under_every_fault_profile() {
    for g in &GOLDEN {
        check(g, Platform::whale(), 8, 40);
    }
    check(&WORLD_SCALE, Platform::synth_hpc(), 4096, 3);
}

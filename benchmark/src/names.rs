//! Every metric the ledger emits, by name, with its unit and direction.
//!
//! `BENCHMARK.json` declares the same names; `--check` fails if the two
//! lists differ in either direction. Later changes may not edit the
//! harness, so a name here is a promise.

/// `(name, unit, better)`.
pub type Declared = (&'static str, &'static str, &'static str);

/// What a user of the system sees. Measured with tracing off.
pub const END_TO_END: [Declared; 5] = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_us", "us", "lower"),
    ("op_p90_us", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// One unit cost or count per floor of the tower. Measured by the traced
/// run. The first block comes from the micro-kernel panel and is the same
/// for every workload; the second block is counted per workload.
pub const PER_LAYER: [Declared; 68] = [
    ("simcore.queue_ns_per_op.d1k", "ns", "lower"),
    ("simcore.queue_ns_per_op.d64k", "ns", "lower"),
    ("simcore.json_parse_ns", "ns", "lower"),
    ("simcore.json_render_ns", "ns", "lower"),
    ("simcore.par_handoff_us", "us", "lower"),
    ("simcore.par_speedup", "ratio", "higher"),
    ("netmodel.plan_ns.eager_inter", "ns", "lower"),
    ("netmodel.plan_ns.rdv_inter", "ns", "lower"),
    ("netmodel.plan_ns.intra", "ns", "lower"),
    ("netmodel.state_build_us.p64", "us", "lower"),
    ("mpisim.ns_per_event.eager", "ns", "lower"),
    ("mpisim.ns_per_event.rdv", "ns", "lower"),
    ("mpisim.world_build_us.p64", "us", "lower"),
    ("mpisim.world_reuse_us.p64", "us", "lower"),
    ("mpisim.payload_first_touch_us_per_mib", "us/MiB", "lower"),
    ("nbc.build_us.bcast_p64", "us", "lower"),
    ("nbc.build_us.alltoall_p64", "us", "lower"),
    ("nbc.cache_hit_ns", "ns", "lower"),
    ("nbc.exec_ns_per_event.fixed", "ns", "lower"),
    ("adcl.wall_ms_per_decision.brute", "ms", "lower"),
    ("adcl.wall_ms_per_decision.heuristic", "ms", "lower"),
    ("adcl.wall_ms_per_decision.factorial", "ms", "lower"),
    ("adcl.wall_ms_per_decision.racing2", "ms", "lower"),
    ("adcl.sim_events_per_decision.brute", "count", "lower"),
    ("adcl.sim_events_per_decision.heuristic", "count", "lower"),
    ("adcl.sim_events_per_decision.factorial", "count", "lower"),
    ("adcl.sim_events_per_decision.racing2", "count", "lower"),
    ("adcl.oracle_match_share", "ratio", "higher"),
    ("adcl.simmemo_hit_ns", "ns", "lower"),
    ("autonbc.memo_key_ns", "ns", "lower"),
    ("adcl.history_get_ns.h20k", "ns", "lower"),
    ("adcl.history_put_ns.h20k", "ns", "lower"),
    ("adcl.history_save_ms.h20k", "ms", "lower"),
    ("adcl.history_load_ms.h20k", "ms", "lower"),
    ("fft3d.kernel_wall_s.pipelined", "s", "lower"),
    ("fft3d.kernel_wall_s.tiled", "s", "lower"),
    ("fft3d.kernel_wall_s.windowed", "s", "lower"),
    ("fft3d.kernel_wall_s.window-tiled", "s", "lower"),
    ("fft3d.sim_gain_vs_libnbc", "ratio", "higher"),
    ("adcld.parse_ns", "ns", "lower"),
    ("adcld.render_ns", "ns", "lower"),
    ("adcld.submit_hit_us", "us", "lower"),
    ("adcld.socket_share", "ratio", "lower"),
    ("adcld.loopback_rtt_us", "us", "lower"),
    ("adcld.cold_decision_ms_p50", "ms", "lower"),
    ("adcld.checkpoint_ms.h20k", "ms", "lower"),
    ("adcld.start_ms.h20k", "ms", "lower"),
    ("adcld.op_coverage_share", "ratio", "higher"),
    // Per workload, per repetition.
    ("mpisim.sim_events", "count", "lower"),
    ("mpisim.sim_events_per_s", "1/s", "higher"),
    ("mpisim.polls_per_event", "ratio", "lower"),
    ("mpisim.rdv_stalls", "count", "lower"),
    ("mpisim.unexpected_msgs", "count", "lower"),
    ("mpisim.payload_allocs", "count", "lower"),
    ("nbc.cache_hit_share", "ratio", "higher"),
    ("adcl.simmemo_hit_share", "ratio", "higher"),
    ("adcld.req_p99_us", "us", "lower"),
    ("adcld.late_share", "ratio", "lower"),
    ("adcld.coalesced_share", "ratio", "higher"),
    ("adcld.sweep_admissions", "count", "lower"),
    ("adcld.history_hit_share", "ratio", "higher"),
    ("adcld.memo_replay_share", "ratio", "higher"),
    ("adcld.cold_wait_share", "ratio", "lower"),
    ("trace.explained_share", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.reps", "count", "higher"),
    ("trace.kernel_samples", "count", "higher"),
    ("failed_share", "ratio", "lower"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _, _)| *n == name)
        .map_or("", |(_, unit, _)| unit)
}

/// A metric, workload or unit name the contract accepts.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} declared twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
            assert!(["lower", "higher"].contains(better), "{name}");
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("fft3d.kernel_wall_s.window-tiled"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(""));
    }
}

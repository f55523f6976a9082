//! Platform presets modelling the machines in the paper's evaluation.
//!
//! | preset | paper machine | nodes × cores | interconnect |
//! |---|---|---|---|
//! | [`Platform::crill`] | crill | 16 × 48 (AMD Magny-Cours) | 2 × 4x DDR InfiniBand |
//! | [`Platform::whale`] | whale | 64 × 8 (AMD Barcelona) | 1 × DDR InfiniBand |
//! | [`Platform::whale_tcp`] | whale-tcp | 64 × 8 | Gigabit Ethernet |
//! | [`Platform::bluegene_p`] | BlueGene/P (KAUST) | 256 × 4 (PPC450) | 3-D torus |
//! | [`Platform::synth_hpc`] | — (synthetic) | 512 × 32 | dual-rail 100G-class fabric |
//!
//! Absolute parameter values are calibrated so the *qualitative* results of
//! the paper hold (algorithm rankings, crossovers); they are in the right
//! ballpark for the 2014-era hardware but are not vendor measurements.

use crate::params::TransportParams;
use simcore::SimTime;

/// A complete machine description: geometry, transports, CPU speed, and
/// progress-engine costs.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Preset name ("crill", "whale", "whale-tcp", "bluegene-p").
    pub name: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Cores (and thus maximum ranks) per node.
    pub cores_per_node: usize,
    /// Network rails per node (crill has two HCAs).
    pub nics_per_node: usize,
    /// Intra-node (shared-memory) transport.
    pub intra: TransportParams,
    /// Inter-node transport.
    pub inter: TransportParams,
    /// Fixed CPU cost of one progress-engine invocation.
    pub o_progress_base: SimTime,
    /// Additional CPU cost per outstanding schedule action polled.
    pub o_progress_per_action: SimTime,
    /// Per-core compute rate in GFLOP/s (used by the FFT compute model).
    pub gflops_per_core: f64,
    /// 3-D torus dimensions if the interconnect is a torus.
    pub torus: Option<(usize, usize, usize)>,
    /// Extra latency per torus hop.
    pub hop_latency: SimTime,
}

impl Platform {
    /// CPU cost of a progress call polling `actions` outstanding actions.
    pub fn progress_cost(&self, actions: usize) -> SimTime {
        self.o_progress_base + self.o_progress_per_action * actions as u64
    }

    /// Look up a preset by name (accepts `-`/`_` interchangeably).
    pub fn by_name(name: &str) -> Option<Platform> {
        match name.replace('_', "-").as_str() {
            "crill" => Some(Self::crill()),
            "whale" => Some(Self::whale()),
            "whale-tcp" => Some(Self::whale_tcp()),
            "bluegene-p" | "bluegene" | "bgp" => Some(Self::bluegene_p()),
            "synth-hpc" | "synth" => Some(Self::synth_hpc()),
            _ => None,
        }
    }

    /// All preset names.
    pub fn preset_names() -> &'static [&'static str] {
        &["crill", "whale", "whale-tcp", "bluegene-p", "synth-hpc"]
    }

    fn shm(gap_ns_per_byte: f64, latency_ns: u64) -> TransportParams {
        TransportParams {
            name: "shm",
            latency: SimTime::from_nanos(latency_ns),
            gap_ns_per_byte,
            o_send: SimTime::from_nanos(250),
            o_recv: SimTime::from_nanos(200),
            // Shared memory stays eager for fairly large messages (copy via
            // a bounce buffer); rendezvous only for very large transfers.
            eager_threshold: 32 * 1024,
            incast_alpha: 0.02,
            incast_free: 4,
            incast_max: 1.5,
            unexpected_copy_ns_per_byte: 0.2,
        }
    }

    /// *crill*: 16 nodes × four 12-core AMD Opteron 6174 (48 cores/node),
    /// two 4x DDR InfiniBand HCAs per node.
    pub fn crill() -> Platform {
        Platform {
            name: "crill".into(),
            nodes: 16,
            cores_per_node: 48,
            nics_per_node: 2,
            intra: Self::shm(0.18, 300), // ~5.5 GB/s copy bandwidth
            inter: TransportParams {
                name: "ib-ddr",
                latency: SimTime::from_nanos(2_600),
                gap_ns_per_byte: 0.67, // ~1.5 GB/s per rail
                o_send: SimTime::from_nanos(600),
                o_recv: SimTime::from_nanos(500),
                eager_threshold: 12 * 1024,
                incast_alpha: 0.01,
                incast_free: 4,
                incast_max: 1.25,
                unexpected_copy_ns_per_byte: 0.3,
            },
            o_progress_base: SimTime::from_nanos(350),
            o_progress_per_action: SimTime::from_nanos(45),
            gflops_per_core: 2.2,
            torus: None,
            hop_latency: SimTime::ZERO,
        }
    }

    /// *whale*: 64 nodes × two quad-core AMD Opteron 2354 (8 cores/node),
    /// single DDR InfiniBand HCA per node.
    pub fn whale() -> Platform {
        Platform {
            name: "whale".into(),
            nodes: 64,
            cores_per_node: 8,
            nics_per_node: 1,
            intra: Self::shm(0.25, 350), // ~4 GB/s copy bandwidth
            inter: TransportParams {
                name: "ib-ddr",
                latency: SimTime::from_nanos(3_200),
                gap_ns_per_byte: 0.72, // ~1.4 GB/s
                o_send: SimTime::from_nanos(700),
                o_recv: SimTime::from_nanos(600),
                eager_threshold: 12 * 1024,
                incast_alpha: 0.012,
                incast_free: 4,
                incast_max: 1.3,
                unexpected_copy_ns_per_byte: 0.3,
            },
            o_progress_base: SimTime::from_nanos(400),
            o_progress_per_action: SimTime::from_nanos(50),
            gflops_per_core: 1.8,
            torus: None,
            hop_latency: SimTime::ZERO,
        }
    }

    /// *whale-tcp*: the whale cluster using its Gigabit-Ethernet network.
    ///
    /// TCP adds large per-message kernel overheads, ~50 µs latency, and an
    /// aggressive incast penalty: when many senders converge on one receiver
    /// the switch queue overflows and goodput collapses — this is what makes
    /// the linear all-to-all the *worst* choice on this platform (Fig. 3).
    pub fn whale_tcp() -> Platform {
        let mut p = Self::whale();
        p.name = "whale-tcp".into();
        p.inter = TransportParams {
            name: "gige",
            latency: SimTime::from_micros(48),
            gap_ns_per_byte: 8.5, // ~117 MB/s
            o_send: SimTime::from_micros(6),
            o_recv: SimTime::from_micros(5),
            eager_threshold: 64 * 1024,
            incast_alpha: 0.9,
            incast_free: 1,
            incast_max: 25.0,
            unexpected_copy_ns_per_byte: 0.4,
        };
        // Progress over sockets is more expensive (poll/select syscalls).
        p.o_progress_base = SimTime::from_micros(2);
        p.o_progress_per_action = SimTime::from_nanos(300);
        p
    }

    /// IBM BlueGene/P: modelled as 256 nodes × 4 PPC450 cores on an
    /// 8 × 8 × 4 3-D torus (the 1024-process configuration of Fig. 12).
    pub fn bluegene_p() -> Platform {
        Platform {
            name: "bluegene-p".into(),
            nodes: 256,
            cores_per_node: 4,
            nics_per_node: 1,
            intra: Self::shm(0.5, 500), // modest memory system
            inter: TransportParams {
                name: "torus",
                latency: SimTime::from_nanos(2_000),
                gap_ns_per_byte: 2.6, // ~375 MB/s effective per link
                o_send: SimTime::from_nanos(900),
                o_recv: SimTime::from_nanos(800),
                eager_threshold: 4 * 1024,
                incast_alpha: 0.08,
                incast_free: 2,
                incast_max: 2.0,
                unexpected_copy_ns_per_byte: 0.6,
            },
            o_progress_base: SimTime::from_nanos(600),
            o_progress_per_action: SimTime::from_nanos(80),
            gflops_per_core: 0.85,
            torus: Some((8, 8, 4)),
            hop_latency: SimTime::from_nanos(100),
        }
    }

    /// *synth-hpc*: a synthetic modern-HPC machine sized for the 4k–16k-rank
    /// scale experiments (beyond any of the paper's clusters): 512 nodes ×
    /// 32 cores, dual-rail 100 Gb/s-class fabric with sub-microsecond
    /// latency. Used by the `world_scale` benchmark and the 4096-rank
    /// golden digest; not a paper machine.
    pub fn synth_hpc() -> Platform {
        Platform {
            name: "synth-hpc".into(),
            nodes: 512,
            cores_per_node: 32,
            nics_per_node: 2,
            intra: Self::shm(0.08, 200), // ~12 GB/s copy bandwidth
            inter: TransportParams {
                name: "hdr-fabric",
                latency: SimTime::from_nanos(900),
                gap_ns_per_byte: 0.09, // ~11 GB/s per rail
                o_send: SimTime::from_nanos(300),
                o_recv: SimTime::from_nanos(250),
                eager_threshold: 16 * 1024,
                incast_alpha: 0.008,
                incast_free: 8,
                incast_max: 1.2,
                unexpected_copy_ns_per_byte: 0.15,
            },
            o_progress_base: SimTime::from_nanos(200),
            o_progress_per_action: SimTime::from_nanos(25),
            gflops_per_core: 24.0,
            torus: None,
            hop_latency: SimTime::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_by_name() {
        for name in Platform::preset_names() {
            let p = Platform::by_name(name).expect("preset");
            assert_eq!(&p.name, name);
        }
        assert!(Platform::by_name("does-not-exist").is_none());
        assert_eq!(Platform::by_name("whale_tcp").unwrap().name, "whale-tcp");
    }

    #[test]
    fn machine_capacities_match_paper() {
        let crill = Platform::crill();
        assert_eq!(crill.nodes * crill.cores_per_node, 768);
        assert_eq!(crill.nics_per_node, 2);
        let whale = Platform::whale();
        assert_eq!(whale.nodes * whale.cores_per_node, 512);
        let bgp = Platform::bluegene_p();
        assert!(bgp.nodes * bgp.cores_per_node >= 1024);
        assert!(bgp.torus.is_some());
    }

    #[test]
    fn tcp_is_slower_and_more_congestible_than_ib() {
        let ib = Platform::whale().inter;
        let tcp = Platform::whale_tcp().inter;
        assert!(tcp.latency > ib.latency);
        assert!(tcp.gap_ns_per_byte > ib.gap_ns_per_byte);
        assert!(tcp.incast_alpha > ib.incast_alpha);
        assert!(tcp.o_send > ib.o_send);
    }

    #[test]
    fn progress_cost_scales_with_actions() {
        let p = Platform::whale();
        let c0 = p.progress_cost(0);
        let c10 = p.progress_cost(10);
        assert_eq!(c10 - c0, p.o_progress_per_action * 10);
    }

    #[test]
    fn intra_is_faster_than_inter() {
        for name in Platform::preset_names() {
            let p = Platform::by_name(name).unwrap();
            assert!(
                p.intra.latency < p.inter.latency,
                "{name}: shm latency should beat network"
            );
            assert!(p.intra.gap_ns_per_byte < p.inter.gap_ns_per_byte);
        }
    }
}

//! `netmodel` — network and platform cost models for the simulated cluster.
//!
//! The paper evaluates auto-tuned non-blocking collectives on two InfiniBand
//! clusters (*crill*, *whale*), a Gigabit-Ethernet configuration
//! (*whale-tcp*) and an IBM BlueGene/P. This crate models those platforms
//! with a LogGP-style cost model extended with the contention effects that
//! drive the paper's results:
//!
//! * per-message CPU posting overheads (`o_send` / `o_recv`) — not
//!   overlappable with computation,
//! * NIC serialization — a node's transmit and receive engines are FIFO
//!   resources with finite bandwidth (`G` seconds per byte),
//! * incast/congestion penalties — effective receive bandwidth degrades when
//!   many flows converge on one NIC, catastrophically so for TCP,
//! * eager vs. rendezvous protocol selection by message size,
//! * multi-rail NICs (crill has two HCAs per node) and 3-D torus hop
//!   latencies (BlueGene/P).
//!
//! [`NetworkState`] is the mutable contention state consulted by the `mpisim`
//! message-passing layer; [`Platform`] presets live in [`platforms`].

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod network;
pub mod params;
pub mod platforms;
pub mod topology;

pub use network::{NetworkState, TransferPlan};
pub use params::TransportParams;
pub use platforms::Platform;
pub use topology::{Placement, Topology};

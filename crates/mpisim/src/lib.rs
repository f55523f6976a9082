//! `mpisim` — a simulated MPI-like message-passing layer with explicit
//! progress semantics.
//!
//! This crate is the substrate the paper's runtime sits on: it plays the
//! role of Open MPI's point-to-point engine underneath LibNBC. It simulates
//! a set of ranks placed on a [`netmodel::Platform`], exchanging
//! non-blocking point-to-point messages whose timing is governed by the
//! network contention model.
//!
//! The crucial piece of fidelity is the **progress engine** (Hoefler &
//! Lumsdaine, "Message Progression in Parallel Computing — To Thread or not
//! to Thread?"): most production MPI libraries have no progress thread, so
//!
//! * *eager* messages (small) transfer asynchronously once posted, but
//! * *rendezvous* messages (large) need the receiver to enter the library
//!   (a progress call or a wait) to answer the RTS, and the sender to enter
//!   the library again to act on the CTS — without progress calls, large
//!   transfers simply do not overlap with computation;
//! * completed operations are only *observed* at progress/test/wait time.
//!
//! The simulation itself is a deterministic discrete-event loop
//! ([`World::run`]): each rank executes a user-provided behaviour
//! ([`RankBehavior`]) that returns what the rank does next (compute, spend
//! CPU in the library, block on the network, or finish).

#![forbid(unsafe_code)]

pub mod bufpool;
mod chan;
pub mod fault;
pub mod message;
pub mod types;
pub mod workload;
pub mod world;
pub mod worldpool;

pub use bufpool::{Payload, PooledBuf};
pub use message::{Protocol, RecvState, SendState};
pub use types::{NoiseConfig, RankId, RecvHandle, SendHandle, Tag};
pub use workload::NeighborExchange;
pub use world::{
    payloads_staged_total, sim_events_total, RankAccounting, RankBehavior, SegmentKind, SimError,
    Step, TraceSegment, World,
};

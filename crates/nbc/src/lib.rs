//! `nbc` — a LibNBC-style non-blocking collective engine.
//!
//! LibNBC (Hoefler, Lumsdaine & Rehm, SC'07) expresses every collective
//! operation as a per-rank **schedule**: an array of *rounds*, each round a
//! set of independent send/receive/copy/reduce actions, with the semantics
//! of a local barrier between rounds — round *r+1* may only start once every
//! action of round *r* has completed locally. The execution of a schedule is
//! non-blocking: its state is a cursor into the round array, advanced by the
//! progress engine.
//!
//! This crate provides:
//!
//! * the schedule representation ([`schedule`]): builders write each
//!   rank's schedule once, through a [`Sink`], in its stored form,
//! * schedule builders for the collective algorithms evaluated in the paper
//!   ([`bcast`]: linear / chain / k-ary tree / binomial, each with 32, 64 or
//!   128 KiB segmentation; [`alltoall`]: linear / pairwise / dissemination
//!   (Bruck); plus [`allgather`], [`reduce`] and [`barrier`] used by the
//!   broader function-set library),
//! * a *semantic verifier* ([`verify`]) that executes schedules logically
//!   (block-id data flow, FIFO channels) to prove each builder implements
//!   its collective and is deadlock-free,
//! * the simulator executor ([`executor`]) that runs a schedule against a
//!   [`mpisim::World`], enforcing the round-barrier/progress semantics that
//!   make non-blocking collectives hard to overlap.

#![forbid(unsafe_code)]

pub mod allgather;
pub mod allreduce;
pub mod alltoall;
pub mod barrier;
pub mod bcast;
pub mod executor;
pub mod gather;
pub mod neighbor;
pub mod reduce;
pub mod schedule;
pub mod verify;

pub use allgather::AllgatherAlgo;
pub use allreduce::AllreduceAlgo;
pub use alltoall::AlltoallAlgo;
pub use bcast::BcastAlgo;
pub use executor::{
    clear_default_payload_mode, default_payload_mode, set_default_payload_mode, PayloadMode,
    ScheduleExec,
};
pub use gather::GatherAlgo;
pub use neighbor::{Cart2d, NeighborAlgo};
pub use schedule::{Annotated, CollSpec, Op, OpKind, Schedule, Sink};

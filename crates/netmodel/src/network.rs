//! Mutable network contention state and transfer planning.
//!
//! [`NetworkState`] owns the FIFO resources modelling every NIC transmit and
//! receive engine (and each rank's copy engine for shared-memory transfers).
//! The message-passing layer asks it to *plan* a transfer: given the byte
//! count and the posting time, it reserves capacity on the involved engines
//! and returns when the source drains (send completion) and when the data is
//! fully available at the destination (receive completion).

use crate::params::TransportParams;
use crate::platforms::Platform;
use crate::topology::{Placement, Topology};
use simcore::{FifoResource, SimTime};

/// Outcome of planning a data transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferPlan {
    /// When the source side is done with the message (send completes
    /// locally: buffer reusable).
    pub src_drain: SimTime,
    /// When the payload is fully received at the destination.
    pub dst_drain: SimTime,
    /// Receive-side backlog observed (diagnostics; drives incast penalty).
    pub dst_backlog: usize,
}

/// Source-side half of a transfer plan ([`NetworkState::tx_plan`]).
///
/// `mpisim` plans a transfer in two halves, each touching only resources of
/// the rank whose event is being handled: the source reserves its transmit
/// (or copy) engine and learns when the leading edge reaches the
/// destination; the destination reserves its receive engine when that wire
/// event is processed ([`NetworkState::rx_reserve`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxPlan {
    /// When the source side is done with the message.
    pub src_drain: SimTime,
    /// When the leading edge reaches the destination — the time at which
    /// the destination observes the message and performs its reservation.
    pub wire_at: SimTime,
    /// Earliest possible full delivery: the source finished injecting the
    /// last byte plus one wire latency. Delivery is `max(rx drain, floor)`.
    pub floor: SimTime,
    /// True if the arrival is fully priced at the source (intra-node copy:
    /// the sending core performs the memcpy, no receive engine involved).
    /// `floor` is then the exact arrival and `rx_reserve` must be skipped.
    pub priced: bool,
    /// Backlog seen on the source-side engine (diagnostics).
    pub backlog: usize,
}

/// Receive-side reservation ([`NetworkState::rx_reserve`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxGrant {
    /// When the receive engine has drained the payload.
    pub drain: SimTime,
    /// Receive-side backlog observed (drives the incast penalty).
    pub backlog: usize,
}

/// The network fabric state for one simulation run.
pub struct NetworkState {
    platform: Platform,
    topo: Topology,
    /// Transmit engine per (node, rail).
    nic_tx: Vec<FifoResource>,
    /// Receive engine per (node, rail).
    nic_rx: Vec<FifoResource>,
    /// Per-rank copy engine for intra-node transfers: the sending core
    /// performs the memcpy, so one rank's copies serialize with each other
    /// but different senders on a node proceed in parallel (multi-channel
    /// memory systems).
    copy_engine: Vec<FifoResource>,
    /// Total bytes moved (statistics).
    bytes_moved: u64,
    /// Total messages (statistics).
    messages: u64,
}

impl NetworkState {
    /// Build the fabric for `nranks` ranks placed on `platform`.
    pub fn new(platform: Platform, nranks: usize, placement: Placement) -> Self {
        let topo = Topology::new(
            platform.nodes,
            platform.cores_per_node,
            nranks,
            placement,
            platform.torus,
        );
        let nic_slots = platform.nodes * platform.nics_per_node;
        // Not `vec![FifoResource::new(); n]`: that clones an empty `VecDeque`
        // per slot, which costs several times what building one does.
        let idle =
            |n: usize| -> Vec<FifoResource> { (0..n).map(|_| FifoResource::new()).collect() };
        NetworkState {
            nic_tx: idle(nic_slots),
            nic_rx: idle(nic_slots),
            copy_engine: idle(nranks),
            topo,
            platform,
            bytes_moved: 0,
            messages: 0,
        }
    }

    /// The underlying placement.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The platform description.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Transport parameters governing a `src → dst` message.
    pub fn params(&self, src: usize, dst: usize) -> &TransportParams {
        if self.topo.same_node(src, dst) {
            &self.platform.intra
        } else {
            &self.platform.inter
        }
    }

    /// True if a message of `bytes` from `src` to `dst` uses the eager
    /// protocol.
    pub fn is_eager(&self, src: usize, dst: usize, bytes: usize) -> bool {
        self.params(src, dst).is_eager(bytes)
    }

    /// NIC rail used by `rank` (round-robin over rails by core index, so
    /// multi-rail nodes spread traffic).
    fn rail_of(&self, rank: usize) -> usize {
        let node = self.topo.node_of(rank);
        node * self.platform.nics_per_node + rank % self.platform.nics_per_node
    }

    /// One-way latency including torus hops.
    fn wire_latency(&self, src: usize, dst: usize) -> SimTime {
        let a = self.topo.node_of(src);
        let b = self.topo.node_of(dst);
        if a == b {
            return self.platform.intra.latency;
        }
        let hops = self.topo.hops(a, b);
        self.platform.inter.latency + self.platform.hop_latency * hops as u64
    }

    /// Source-side half of transfer planning: reserve the sender's engine
    /// for `bytes` injected at `now`, without touching any receive-side
    /// state. Counts the payload in the byte/message statistics.
    ///
    /// For intra-node transfers the sending core's copy engine fully prices
    /// the arrival (`priced = true`); for inter-node transfers the caller
    /// must complete the plan with [`NetworkState::rx_reserve`] at
    /// `wire_at` on the destination side.
    pub fn tx_plan(&mut self, now: SimTime, src: usize, dst: usize, bytes: usize) -> TxPlan {
        self.bytes_moved += bytes as u64;
        self.messages += 1;
        if self.topo.same_node(src, dst) {
            // Intra-node: the sending core performs the copy.
            let service = self.platform.intra.serialize(bytes);
            let grant = self.copy_engine[src].submit(now, service);
            let arrival = grant.drain + self.platform.intra.latency;
            return TxPlan {
                src_drain: grant.drain,
                wire_at: arrival,
                floor: arrival,
                priced: true,
                backlog: grant.backlog,
            };
        }
        // Source transmit engine serializes the payload. Many *concurrent*
        // outgoing streams degrade goodput (congestion losses on TCP,
        // mildly on IB): the service time is inflated by the number of
        // sends already queued on this NIC. This is what makes the linear
        // all-to-all — which posts p-1 sends at once — collapse on
        // Gigabit Ethernet while staying competitive on InfiniBand
        // (paper Fig. 3).
        let tx = self.rail_of(src);
        let tx_backlog = self.nic_tx[tx].backlog_at(now);
        let tx_grant = self.nic_tx[tx].submit(
            now,
            self.platform
                .inter
                .serialize_with_backlog(bytes, tx_backlog),
        );
        // Cut-through: the first byte reaches the destination one wire
        // latency after injection starts, and the receive engine drains
        // concurrently with transmission (no store-and-forward doubling).
        let latency = self.wire_latency(src, dst);
        TxPlan {
            src_drain: tx_grant.drain,
            wire_at: tx_grant.start + latency,
            // The last byte cannot be delivered before the sender finished
            // injecting it plus the wire latency.
            floor: tx_grant.drain + latency,
            priced: false,
            backlog: tx_backlog,
        }
    }

    /// Receive-side half of transfer planning: reserve `dst`'s receive
    /// engine for `bytes` whose leading edge arrives at `at` (the `wire_at`
    /// of the matching [`TxPlan`]). Delivery completes at
    /// `grant.drain.max(plan.floor)`.
    pub fn rx_reserve(&mut self, at: SimTime, dst: usize, bytes: usize) -> RxGrant {
        let rx = self.rail_of(dst);
        let backlog = self.nic_rx[rx].backlog_at(at);
        let service = self.platform.inter.serialize_with_backlog(bytes, backlog);
        let grant = self.nic_rx[rx].submit(at, service);
        RxGrant {
            drain: grant.drain,
            backlog,
        }
    }

    /// Plan the movement of `bytes` of payload from `src` to `dst`, with the
    /// source ready to inject at `now`. Reserves NIC/bus capacity on both
    /// sides at once (the serial convenience composition of
    /// [`NetworkState::tx_plan`] + [`NetworkState::rx_reserve`]).
    pub fn plan_transfer(
        &mut self,
        now: SimTime,
        src: usize,
        dst: usize,
        bytes: usize,
    ) -> TransferPlan {
        let tx = self.tx_plan(now, src, dst, bytes);
        if tx.priced {
            return TransferPlan {
                src_drain: tx.src_drain,
                dst_drain: tx.floor,
                dst_backlog: tx.backlog,
            };
        }
        let rx = self.rx_reserve(tx.wire_at, dst, bytes);
        TransferPlan {
            src_drain: tx.src_drain,
            dst_drain: rx.drain.max(tx.floor),
            dst_backlog: rx.backlog,
        }
    }

    /// Arrival time of a small control message (RTS/CTS) sent at `now`.
    /// Control messages bypass the payload queues but still pay the wire
    /// latency.
    pub fn ctrl_arrival(&self, now: SimTime, src: usize, dst: usize) -> SimTime {
        now + self.wire_latency(src, dst)
    }

    /// Total payload bytes planned so far.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Total messages planned so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Reset all contention state (between independent experiment runs).
    pub fn reset(&mut self) {
        for r in self
            .nic_tx
            .iter_mut()
            .chain(self.nic_rx.iter_mut())
            .chain(self.copy_engine.iter_mut())
        {
            r.reset();
        }
        self.bytes_moved = 0;
        self.messages = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(nranks: usize) -> NetworkState {
        NetworkState::new(Platform::whale(), nranks, Placement::Block)
    }

    #[test]
    fn intra_vs_inter_transport() {
        let n = net(16); // 2 nodes of 8 on whale
        assert_eq!(n.params(0, 7).name, "shm");
        assert_eq!(n.params(0, 8).name, "ib-ddr");
    }

    #[test]
    fn single_transfer_time_components() {
        let mut n = net(16);
        let now = SimTime::from_micros(10);
        let bytes = 10_000;
        let plan = n.plan_transfer(now, 0, 8, bytes);
        let inter = n.platform().inter.clone();
        let expect_src = now + inter.serialize(bytes);
        assert_eq!(plan.src_drain, expect_src);
        // Cut-through: delivery = injection end + wire latency (the rx
        // engine drains concurrently when uncontended).
        assert_eq!(plan.dst_drain, expect_src + inter.latency);
    }

    #[test]
    fn busy_receive_engine_delays_delivery() {
        let mut n = NetworkState::new(Platform::whale(), 64, Placement::RoundRobin);
        // Two senders to the same destination at the same time: the second
        // message queues behind the first on the rx engine.
        let p1 = n.plan_transfer(SimTime::ZERO, 1, 0, 100_000);
        let p2 = n.plan_transfer(SimTime::ZERO, 2, 0, 100_000);
        assert!(p2.dst_drain >= p1.dst_drain + n.platform().inter.serialize(100_000).scale(0.9));
    }

    #[test]
    fn tx_serialization_queues_messages() {
        let mut n = net(16);
        // Rank 0 sends two messages back-to-back: second waits for first on
        // the TX engine.
        let p1 = n.plan_transfer(SimTime::ZERO, 0, 8, 100_000);
        let p2 = n.plan_transfer(SimTime::ZERO, 0, 9, 100_000);
        assert!(p2.src_drain >= p1.src_drain + n.platform().inter.serialize(100_000));
    }

    #[test]
    fn incast_inflates_receive() {
        let mut n = NetworkState::new(Platform::whale_tcp(), 64, Placement::RoundRobin);
        // Many senders converge on rank 0's NIC at the same time.
        let mut last = SimTime::ZERO;
        for src in 1..32 {
            let p = n.plan_transfer(SimTime::ZERO, src, 0, 50_000);
            last = last.max(p.dst_drain);
        }
        // Compare with the uncongested serial sum of services.
        let serial: SimTime = (1..32).map(|_| n.platform().inter.serialize(50_000)).sum();
        assert!(
            last > serial,
            "incast should be worse than plain serialization: {last} <= {serial}"
        );
    }

    #[test]
    fn multirail_spreads_load() {
        // crill: 2 rails. Two senders on the same node with different core
        // parities use different rails, so their transfers overlap.
        let mut n = NetworkState::new(Platform::crill(), 96, Placement::Block);
        let p1 = n.plan_transfer(SimTime::ZERO, 0, 48, 1_000_000);
        let p2 = n.plan_transfer(SimTime::ZERO, 1, 49, 1_000_000);
        // Same start, same size, different rails -> same drain time.
        assert_eq!(p1.src_drain, p2.src_drain);
    }

    #[test]
    fn torus_latency_grows_with_distance() {
        let n = NetworkState::new(Platform::bluegene_p(), 1024, Placement::Block);
        let near = n.ctrl_arrival(SimTime::ZERO, 0, 4); // next node
        let far = n.ctrl_arrival(SimTime::ZERO, 0, 512); // across the torus
        assert!(far > near, "far={far} near={near}");
    }

    #[test]
    fn split_plan_matches_plan_transfer() {
        // tx_plan + rx_reserve on one state must equal plan_transfer on a
        // fresh identical state, for both intra- and inter-node paths.
        let mut whole = net(16);
        let mut split = net(16);
        for (src, dst, bytes, at) in [
            (0usize, 8usize, 100_000usize, 0u64),
            (1, 9, 50_000, 10),
            (0, 7, 20_000, 20), // intra-node
            (8, 0, 64, 30),
            (0, 8, 100_000, 30),
        ] {
            let now = SimTime::from_micros(at);
            let want = whole.plan_transfer(now, src, dst, bytes);
            let tx = split.tx_plan(now, src, dst, bytes);
            let got = if tx.priced {
                (tx.src_drain, tx.floor)
            } else {
                let rx = split.rx_reserve(tx.wire_at, dst, bytes);
                (tx.src_drain, rx.drain.max(tx.floor))
            };
            assert_eq!(got, (want.src_drain, want.dst_drain), "{src}->{dst}");
        }
        assert_eq!(whole.bytes_moved(), split.bytes_moved());
        assert_eq!(whole.messages(), split.messages());
    }

    #[test]
    fn reset_clears_counters() {
        let mut n = net(16);
        n.plan_transfer(SimTime::ZERO, 0, 8, 1234);
        assert_eq!(n.bytes_moved(), 1234);
        assert_eq!(n.messages(), 1);
        n.reset();
        assert_eq!(n.bytes_moved(), 0);
        let p = n.plan_transfer(SimTime::ZERO, 0, 8, 10);
        assert_eq!(p.src_drain, n.platform().inter.serialize(10));
    }
}

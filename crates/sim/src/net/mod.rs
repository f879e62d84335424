//! The network substrate: latency, access-link pipes and fault injection.
//!
//! This is the engine's replacement for P2PSim's network layer. The model is
//! deliberately the simplest one that reproduces the paper's dynamics:
//!
//! * every node has a private upload pipe and download pipe with fixed rates
//!   ([`Pipe`], [`NodeCaps`]);
//! * every link has the same one-way propagation latency (the paper's
//!   §III assumption: 50 ms, ≈0.1 s round trip);
//! * a **data** transfer first serializes through the sender's upload pipe
//!   (FIFO), then propagates for one latency, then serializes through the
//!   receiver's download pipe (FIFO again);
//! * a **control** message incurs the latency only (the paper counts
//!   control traffic in *message units*, not bytes);
//! * a [`FaultPlan`] may drop any transmission.
//!
//! Pipe occupancy is *reserved at send time*: when a data transfer is
//! admitted, both pipes' horizons advance immediately. Two transfers racing
//! for the same receiver therefore serialize in the order their sends were
//! processed, which is a standard store-and-forward approximation and keeps
//! the engine single-pass and deterministic.

mod bandwidth;
mod fault;
mod pipe;

pub use bandwidth::{Kbps, NodeCaps};
pub use fault::FaultPlan;
pub use pipe::Pipe;

use crate::msg::{MsgClass, SizeBits};
use crate::node::NodeId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Configuration of the network substrate.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// One-way propagation latency of every link. Default: 50 ms, the
    /// paper's "below 0.1 s" round trip.
    pub latency: SimDuration,
    /// Message-loss policy. Default: no loss.
    pub faults: FaultPlan,
    /// If true (default), a data transfer also serializes through the
    /// receiver's download pipe. §IV of the paper describes sender-side
    /// queueing only ("when a node is overloaded, it will queue its chunks
    /// … until it has sufficient bandwidth"), so the figure-replication
    /// harness turns this off; the full store-and-forward model remains the
    /// default for everything else.
    pub charge_download: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency: SimDuration::from_millis(50),
            faults: FaultPlan::none(),
            charge_download: true,
        }
    }
}

impl NetConfig {
    /// The paper's §IV network model: sender-side queueing only.
    pub fn paper_model() -> Self {
        NetConfig {
            charge_download: false,
            ..NetConfig::default()
        }
    }
}

/// Per-node link state plus the shared latency and fault models.
#[derive(Clone, Debug)]
pub struct Network {
    cfg: NetConfig,
    up: Vec<Pipe>,
    down: Vec<Pipe>,
}

/// The outcome of submitting a transmission to the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transmit {
    /// The message will arrive at the given instant.
    Deliver(SimTime),
    /// The message was lost (fault injection).
    Dropped,
}

impl Network {
    /// An empty network with the given configuration.
    pub fn new(cfg: NetConfig) -> Self {
        Self::with_capacity(cfg, 0)
    }

    /// An empty network pre-sized for `n_nodes` registrations (capacity
    /// hint only; the network still grows on demand past it).
    pub fn with_capacity(cfg: NetConfig, n_nodes: usize) -> Self {
        Network {
            cfg,
            up: Vec::with_capacity(n_nodes),
            down: Vec::with_capacity(n_nodes),
        }
    }

    /// Registers a new node and returns its dense id.
    pub fn push_node(&mut self, caps: NodeCaps) -> NodeId {
        let id = NodeId(self.up.len() as u32);
        self.up.push(Pipe::new(caps.up));
        self.down.push(Pipe::new(caps.down));
        id
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.up.len()
    }

    /// True if no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.up.is_empty()
    }

    /// The network configuration this substrate was built with.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Mutable access to the fault plan (tests flip faults mid-run).
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.cfg.faults
    }

    /// Computes when a transmission submitted at `now` arrives, reserving
    /// pipe capacity for data messages.
    pub fn transmit(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        class: MsgClass,
        size: SizeBits,
        rng: &mut SimRng,
    ) -> Transmit {
        if self.cfg.faults.is_active() && self.cfg.faults.drops(from, to, class, rng) {
            return Transmit::Dropped;
        }
        let latency = self.cfg.latency;
        if !class.is_data() || size.is_zero() {
            return Transmit::Deliver(now + latency);
        }
        let (_, up_done) = self.up[from.index()].admit(now, size);
        let arrive = up_done.saturating_add(latency);
        if !self.cfg.charge_download {
            return Transmit::Deliver(arrive);
        }
        let (_, down_done) = self.down[to.index()].admit(arrive, size);
        Transmit::Deliver(down_done)
    }

    /// The queueing delay currently ahead of `node`'s upload pipe.
    pub fn upload_backlog(&self, node: NodeId, now: SimTime) -> SimDuration {
        self.up[node.index()].backlog(now)
    }

    /// Spare upload capacity averaged over `horizon` (what DCO advertises).
    pub fn available_upload(&self, node: NodeId, now: SimTime, horizon: SimDuration) -> Kbps {
        self.up[node.index()].available_kbps(now, horizon)
    }

    /// Configured download rate of `node`.
    pub fn download_rate(&self, node: NodeId) -> Kbps {
        self.down[node.index()].rate()
    }

    /// Clears any queued transfers on both of `node`'s pipes (slot recycling
    /// after churn).
    pub fn reset_pipes(&mut self, node: NodeId, now: SimTime) {
        self.up[node.index()].reset(now);
        self.down[node.index()].reset(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn net() -> (Network, SimRng) {
        let mut n = Network::new(NetConfig::default());
        n.push_node(NodeCaps::server_default()); // N0
        n.push_node(NodeCaps::peer_default()); // N1
        n.push_node(NodeCaps::peer_default()); // N2
        (n, SimRng::seed_from_u64(1))
    }

    const CHUNK: SizeBits = SizeBits(300_000);

    #[test]
    fn control_message_is_latency_only() {
        let (mut n, mut rng) = net();
        let t = n.transmit(
            SimTime::ZERO,
            NodeId(1),
            NodeId(2),
            MsgClass::Control,
            SizeBits::ZERO,
            &mut rng,
        );
        assert_eq!(t, Transmit::Deliver(SimTime::from_millis(50)));
        // Pipes untouched.
        assert!(n.upload_backlog(NodeId(1), SimTime::ZERO).is_zero());
    }

    #[test]
    fn data_chunk_server_to_peer() {
        let (mut n, mut rng) = net();
        // 75 ms serialization at server + 50 ms latency + 500 ms at peer
        // download = 625 ms.
        let t = n.transmit(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            MsgClass::Data,
            CHUNK,
            &mut rng,
        );
        assert_eq!(t, Transmit::Deliver(SimTime::from_millis(625)));
    }

    #[test]
    fn upload_pipe_serializes_consecutive_chunks() {
        let (mut n, mut rng) = net();
        let t1 = n.transmit(
            SimTime::ZERO,
            NodeId(1),
            NodeId(2),
            MsgClass::Data,
            CHUNK,
            &mut rng,
        );
        let t2 = n.transmit(
            SimTime::ZERO,
            NodeId(1),
            NodeId(2),
            MsgClass::Data,
            CHUNK,
            &mut rng,
        );
        // First: 500 up + 50 + 500 down = 1.05 s. Second queues behind both
        // pipes: up 0.5..1.0, arrive 1.05, down busy until 1.05 -> 1.55 s.
        assert_eq!(t1, Transmit::Deliver(SimTime::from_millis(1050)));
        assert_eq!(t2, Transmit::Deliver(SimTime::from_millis(1550)));
        assert_eq!(
            n.upload_backlog(NodeId(1), SimTime::ZERO),
            SimDuration::from_secs(1)
        );
    }

    #[test]
    fn download_pipe_serializes_concurrent_senders() {
        let (mut n, mut rng) = net();
        let t1 = n.transmit(
            SimTime::ZERO,
            NodeId(0),
            NodeId(2),
            MsgClass::Data,
            CHUNK,
            &mut rng,
        );
        let t2 = n.transmit(
            SimTime::ZERO,
            NodeId(1),
            NodeId(2),
            MsgClass::Data,
            CHUNK,
            &mut rng,
        );
        // Server chunk occupies N2's download 0.125..0.625.
        assert_eq!(t1, Transmit::Deliver(SimTime::from_millis(625)));
        // Peer chunk arrives at 0.55 but the pipe is busy until 0.625.
        assert_eq!(t2, Transmit::Deliver(SimTime::from_millis(1125)));
    }

    #[test]
    fn fault_plan_drops() {
        let cfg = NetConfig {
            faults: FaultPlan::uniform(1.0),
            ..NetConfig::default()
        };
        let mut n = Network::new(cfg);
        n.push_node(NodeCaps::peer_default());
        n.push_node(NodeCaps::peer_default());
        let mut rng = SimRng::seed_from_u64(1);
        let t = n.transmit(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            MsgClass::Data,
            CHUNK,
            &mut rng,
        );
        assert_eq!(t, Transmit::Dropped);
    }

    #[test]
    fn available_upload_reflects_load() {
        let (mut n, mut rng) = net();
        assert_eq!(
            n.available_upload(NodeId(1), SimTime::ZERO, SimDuration::from_secs(1)),
            Kbps(600)
        );
        n.transmit(
            SimTime::ZERO,
            NodeId(1),
            NodeId(2),
            MsgClass::Data,
            CHUNK,
            &mut rng,
        );
        assert_eq!(
            n.available_upload(NodeId(1), SimTime::ZERO, SimDuration::from_secs(1)),
            Kbps(300)
        );
    }

    #[test]
    fn paper_model_skips_download_pipe() {
        let mut n = Network::new(NetConfig::paper_model());
        n.push_node(NodeCaps::peer_default());
        n.push_node(NodeCaps::peer_default());
        let mut rng = SimRng::seed_from_u64(1);
        // 500 ms upload + 50 ms latency, no download serialization.
        let t = n.transmit(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            MsgClass::Data,
            CHUNK,
            &mut rng,
        );
        assert_eq!(t, Transmit::Deliver(SimTime::from_millis(550)));
        // Concurrent senders to one receiver are not serialized there.
        let mut m = Network::new(NetConfig::paper_model());
        for _ in 0..3 {
            m.push_node(NodeCaps::peer_default());
        }
        let t1 = m.transmit(
            SimTime::ZERO,
            NodeId(0),
            NodeId(2),
            MsgClass::Data,
            CHUNK,
            &mut rng,
        );
        let t2 = m.transmit(
            SimTime::ZERO,
            NodeId(1),
            NodeId(2),
            MsgClass::Data,
            CHUNK,
            &mut rng,
        );
        assert_eq!(t1, t2);
    }

    #[test]
    fn reset_pipes_clears_backlog() {
        let (mut n, mut rng) = net();
        n.transmit(
            SimTime::ZERO,
            NodeId(1),
            NodeId(2),
            MsgClass::Data,
            CHUNK,
            &mut rng,
        );
        n.reset_pipes(NodeId(1), SimTime::from_millis(100));
        assert!(n
            .upload_backlog(NodeId(1), SimTime::from_millis(100))
            .is_zero());
    }
}

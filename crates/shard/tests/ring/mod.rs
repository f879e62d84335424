//! `Ring`: a minimal protocol that drives the whole epoch exchange, and
//! [`run_k`], which runs it over K worker threads and an orchestrator.
//!
//! Shared by `epoch`'s unit tests and the `alloc_guard` test binary. It
//! names the crate's modules as `crate::epoch` and `crate::link`, so a test
//! binary that includes it imports them with `use dco_shard::{epoch, link};`.

use std::io;
use std::os::unix::net::UnixStream;
use std::thread;

use dco_sim::engine::{Ctx, Protocol, Simulator};
use dco_sim::net::NetConfig;
use dco_sim::node::NodeId;
use dco_sim::prelude::NodeCaps;
use dco_sim::rng::splitmix64;
use dco_sim::time::{SimDuration, SimTime};
use dco_sim::wire::{WireCodec, WireReader};

use crate::epoch::{run_orchestrator, run_worker};
use crate::link::{FrameLink, PipeLink};

/// Every node pings its clockwise neighbour each 100 ms and node 0
/// broadcasts to everyone.
pub struct Ring {
    n: u32,
    /// Messages delivered to nodes this shard owns.
    pub received: u64,
    /// Order-independent message digest (each delivery is owned by
    /// exactly one shard, so per-shard sums add up to the global sum).
    checksum: u64,
}

impl Protocol for Ring {
    type Msg = u32;
    type Timer = ();
    fn on_join(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
        ctx.set_timer(node, SimDuration::from_millis(100), ());
    }
    fn on_message(&mut self, node: NodeId, from: NodeId, msg: u32, _ctx: &mut Ctx<'_, Self>) {
        self.received += 1;
        let word = u64::from(node.0) << 40 | u64::from(from.0) << 20 | u64::from(msg);
        self.checksum = self.checksum.wrapping_add(splitmix64(word));
    }
    fn on_timer(&mut self, node: NodeId, _t: (), ctx: &mut Ctx<'_, Self>) {
        let next = NodeId((node.0 + 1) % self.n);
        ctx.send_control(node, next, node.0, "ping");
        if node == NodeId(0) {
            for peer in 1..self.n {
                ctx.send_control(node, NodeId(peer), 0xB00 + peer, "bcast");
            }
        }
        ctx.set_timer(node, SimDuration::from_millis(100), ());
    }
}

/// Shard `me` of `k` over `n` nodes, all joining at time zero.
pub fn build(map: Vec<u8>, me: u8, k: u8, n: u32) -> Simulator<Ring> {
    let mut sim = Simulator::new(
        Ring {
            n,
            received: 0,
            checksum: 0,
        },
        NetConfig::paper_model(),
        7,
    );
    for _ in 0..n {
        sim.add_node(NodeCaps::peer_default());
    }
    sim.enable_sharding(map, me, k);
    for id in 0..n {
        sim.schedule_join(NodeId(id), SimTime::ZERO);
    }
    sim
}

/// The epoch width: the paper model's 50 ms link latency.
pub const LOOKAHEAD: SimDuration = SimDuration::from_millis(50);

/// A connected pair of [`PipeLink`]s over a Unix socket pair.
pub fn pipe_pair() -> (
    PipeLink<UnixStream, UnixStream>,
    PipeLink<UnixStream, UnixStream>,
) {
    let (a, b) = UnixStream::pair().expect("socket pair");
    let link = |s: UnixStream| PipeLink::new(s.try_clone().expect("clone socket"), s);
    (link(a), link(b))
}

/// Runs 12 ring nodes over `k` worker threads for `epochs` full windows
/// plus a partial one, each worker connected to the orchestrator by a
/// `pair()` link. Returns the folded `(root digest, owned events,
/// received, checksum)`.
pub fn run_k<L>(k: u8, epochs: u64, pair: impl Fn() -> (L, L)) -> (u64, u64, u64, u64)
where
    L: FrameLink + Send + 'static,
{
    let n = 12u32;
    // Not a window multiple: the residual slice runs too.
    let horizon = SimTime::from_micros(epochs * LOOKAHEAD.as_micros() + 30_000);
    let map: Vec<u8> = (0..n).map(|id| (id % u32::from(k)) as u8).collect();
    let mut orch_links = Vec::new();
    let mut handles = Vec::new();
    for me in 0..k {
        let (orch_side, mut worker_side) = pair();
        orch_links.push(orch_side);
        let map = map.clone();
        handles.push(thread::spawn(move || -> io::Result<()> {
            let mut sim = build(map, me, k, n);
            run_worker(&mut sim, horizon, LOOKAHEAD, &mut worker_side, |sim| {
                let stats = sim.shard_stats().unwrap();
                let mut out = Vec::new();
                stats.set_digest.encode(&mut out);
                stats.owned_events.encode(&mut out);
                sim.protocol().received.encode(&mut out);
                sim.protocol().checksum.encode(&mut out);
                out
            })
        }));
    }
    let report = run_orchestrator(&mut orch_links).unwrap();
    for h in handles {
        h.join().unwrap().unwrap();
    }
    let (mut root, mut events, mut received, mut checksum) = (0u64, 0u64, 0u64, 0u64);
    for r in &report.results {
        let mut rd = WireReader::new(r);
        root = root.wrapping_add(rd.get::<u64>().unwrap());
        events += rd.get::<u64>().unwrap();
        received += rd.get::<u64>().unwrap();
        checksum = checksum.wrapping_add(rd.get::<u64>().unwrap());
        assert!(rd.is_empty());
    }
    assert_eq!(report.epochs, epochs);
    if k > 1 {
        assert!(report.forwarded_batches > 0, "cross-shard traffic exists");
    }
    (root, events, received, checksum)
}

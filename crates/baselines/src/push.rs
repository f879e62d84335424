//! The push-based mesh baseline.
//!
//! §IV: "in the push-based method, every node sends missing chunks to their
//! neighbors regardless whether they have received chunks from others" —
//! i.e. each node pushes, from its own buffer, the chunks a neighbor's last
//! buffer map says it lacks, whenever upload bandwidth is available. No
//! receiver coordination ⇒ duplicate deliveries, which is push's
//! characteristic overhead in the paper.

use std::collections::HashMap;
use std::rc::Rc;

use dco_core::buffer::BufferMap;
use dco_core::chunk::{latest_at, ChunkSeq, CHUNK_INTERVAL, CHUNK_SIZE};
use dco_core::proto::BUSY_BACKLOG;
use dco_metrics::StreamObserver;
use dco_sim::prelude::*;
use dco_sim::smallvec::SmallVec;

use crate::config::{BaselineConfig, BUFMAP_EVERY};
use crate::mesh::MeshCore;

/// Push-mesh wire messages.
#[derive(Clone, Debug)]
pub enum PushMsg {
    /// Periodic buffer-map advertisement. One snapshot per round, shared
    /// (`Rc`) across the per-neighbor sends instead of deep-copied.
    Bufmap(Rc<BufferMap>),
    /// The chunk payload (data class).
    Data {
        /// The chunk carried.
        seq: ChunkSeq,
    },
}

/// Push-mesh timers.
#[derive(Clone, Debug)]
pub enum PushTimer {
    /// Server: emit the next chunk.
    Generate,
    /// Advertise the buffer map and push what neighbors lack.
    BufmapTick,
}

struct PushNode {
    buffer: BufferMap,
    /// Our working view of each neighbor's holdings: their last advertised
    /// map, optimistically updated as we push (so we do not re-push the
    /// same chunk to the same neighbor every tick).
    views: HashMap<u32, BufferMap>,
    /// Rotating cursor so successive rounds favor different neighbors.
    cursor: usize,
}

/// The push-based streaming mesh.
pub struct PushProtocol {
    cfg: BaselineConfig,
    mesh: MeshCore,
    nodes: Vec<Option<PushNode>>,
    next_seq: ChunkSeq,
    /// Reception records for the metrics.
    pub obs: StreamObserver,
    /// Duplicate data deliveries observed (push's waste).
    pub duplicates: u64,
    /// Diagnostic: sends from the fresh-relay path.
    pub relay_sends: u64,
    /// Diagnostic: sends from the catch-up path.
    pub catchup_sends: u64,
}

impl PushProtocol {
    /// Builds the protocol.
    pub fn new(cfg: BaselineConfig) -> Self {
        let n = cfg.n_nodes as usize;
        PushProtocol {
            mesh: MeshCore::new(n, cfg.neighbors),
            nodes: (0..n).map(|_| None).collect(),
            next_seq: ChunkSeq(0),
            obs: StreamObserver::new(n, cfg.n_chunks as usize),
            duplicates: 0,
            relay_sends: 0,
            catchup_sends: 0,
            cfg,
        }
    }

    /// The mesh graph (inspection).
    pub fn mesh(&self) -> &MeshCore {
        &self.mesh
    }

    /// Chunks currently buffered by `node`.
    pub fn held_count(&self, node: NodeId) -> usize {
        self.nodes[node.index()]
            .as_ref()
            .map(|s| s.buffer.held_count())
            .unwrap_or(0)
    }

    fn state_mut(&mut self, node: NodeId) -> Option<&mut PushNode> {
        self.nodes.get_mut(node.index()).and_then(Option::as_mut)
    }

    /// Pushes to `neighbor` up to `batch` chunks it lacks per our view,
    /// newest first ("the primary goal of push is to distribute fresh
    /// chunks"), while upload bandwidth remains. Several of the neighbor's
    /// other providers run the same catch-up concurrently — the resulting
    /// duplicate deliveries are push's characteristic waste (§I (iii)).
    fn push_to(&mut self, node: NodeId, neighbor: NodeId, batch: usize, ctx: &mut Ctx<'_, Self>) {
        // Only repair holes old enough to have fallen off the fresh-relay
        // path (≥ 4 chunk intervals). Pushing *hot* chunks from here would
        // collide with every other provider doing the same in the same
        // buffer-map round.
        let cutoff_secs = ctx.now().as_secs().saturating_sub(4);
        let age_floor = match latest_at(SimTime::from_secs(cutoff_secs), self.cfg.n_chunks) {
            Some(f) => f,
            None => return, // nothing is old enough to repair yet
        };
        let gap = {
            let Some(st) = self.nodes[node.index()].as_ref() else {
                return;
            };
            let Some(view) = st.views.get(&neighbor.0) else {
                return;
            };
            st.buffer
                .held_that_other_misses(view, ChunkSeq(0), age_floor)
        };
        if gap.is_empty() {
            return;
        }
        // Degree-scaled suppression: roughly `deg` of the receiver's
        // providers run this same catch-up every buffer-map round, so each
        // provider only volunteers with probability ~4/deg — the receiver
        // still sees a few repair offers per round without a pile-up.
        let deg = self.mesh.degree(node).max(1);
        let idle = ctx.upload_backlog(node).is_zero();
        if !idle && deg > 4 && !ctx.rng().gen_bool((4.0 / deg as f64).clamp(0.0, 1.0)) {
            return;
        }
        // Random picks from the gap: uniform choice spreads concurrent
        // providers across the gap instead of colliding on one hole.
        let mut picks = Vec::with_capacity(batch.min(gap.len()));
        for _ in 0..batch.min(gap.len()) {
            let c = gap[ctx.rng().gen_range(0..gap.len())];
            if !picks.contains(&c) {
                picks.push(c);
            }
        }
        let mut sent = 0u64;
        {
            let Some(st) = self.state_mut(node) else {
                return;
            };
            let view = st.views.entry(neighbor.0).or_default();
            for seq in picks {
                if ctx.upload_backlog(node) > BUSY_BACKLOG {
                    break; // no available upload bandwidth: stop pushing
                }
                view.insert(seq);
                sent += 1;
                ctx.send_data(node, neighbor, PushMsg::Data { seq }, CHUNK_SIZE);
            }
        }
        self.catchup_sends += sent;
    }

    /// Relays one freshly received chunk to a bounded number of neighbors
    /// that (per our view) lack it — the epidemic fast path. The fanout cap
    /// keeps the exponential spread while limiting the duplicate traffic
    /// unbounded flooding produces (the receivers relay onward themselves).
    fn relay_fresh(&mut self, node: NodeId, seq: ChunkSeq, ctx: &mut Ctx<'_, Self>) {
        const RELAY_FANOUT: usize = 3;
        // Gather the neighbor list once (stack-allocated for the common
        // degrees) so the rotating cursor can index it while the node state
        // is mutated.
        let neighbors: SmallVec<NodeId, 32> = self.mesh.neighbors(node).collect();
        if neighbors.is_empty() {
            return;
        }
        let mut sent = 0u64;
        {
            let Some(st) = self.nodes.get_mut(node.index()).and_then(Option::as_mut) else {
                return;
            };
            let start = st.cursor % neighbors.len();
            st.cursor = st.cursor.wrapping_add(1);
            for off in 0..neighbors.len() {
                if sent >= RELAY_FANOUT as u64 || ctx.upload_backlog(node) > BUSY_BACKLOG {
                    break;
                }
                let nb = neighbors[(start + off) % neighbors.len()];
                let view = st.views.entry(nb.0).or_default();
                if !view.has(seq) {
                    view.insert(seq);
                    ctx.send_data(node, nb, PushMsg::Data { seq }, CHUNK_SIZE);
                    sent += 1;
                }
            }
        }
        self.relay_sends += sent;
    }
}

impl Protocol for PushProtocol {
    type Msg = PushMsg;
    type Timer = PushTimer;

    fn on_join(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
        self.nodes[node.index()] = Some(PushNode {
            buffer: BufferMap::new(self.cfg.n_chunks),
            views: HashMap::new(),
            cursor: node.index(),
        });
        self.mesh.join(node, ctx.rng());
        if node == NodeId(0) {
            ctx.set_timer(node, SimDuration::ZERO, PushTimer::Generate);
        }
        ctx.set_timer(node, BUFMAP_EVERY, PushTimer::BufmapTick);
    }

    fn on_message(&mut self, node: NodeId, from: NodeId, msg: PushMsg, ctx: &mut Ctx<'_, Self>) {
        match msg {
            PushMsg::Bufmap(map) => {
                // Merge the advertisement into our optimistic view (union):
                // chunks we already pushed are still in the neighbor's
                // download queue and must not be pushed again just because
                // they are not in its map yet.
                if let Some(st) = self.state_mut(node) {
                    st.views.entry(from.0).or_default().union_with(&map);
                }
                self.push_to(node, from, 2, ctx);
            }
            PushMsg::Data { seq } => {
                let now = ctx.now();
                let fresh = match self.state_mut(node) {
                    Some(st) => {
                        // Whoever sent this obviously holds it.
                        st.views.entry(from.0).or_default().insert(seq);
                        st.buffer.insert(seq)
                    }
                    None => return,
                };
                if !fresh {
                    self.duplicates += 1;
                    return;
                }
                self.obs.record_received(seq.0, node, now);
                // Relay the fresh chunk onward immediately.
                self.relay_fresh(node, seq, ctx);
            }
        }
    }

    fn on_timer(&mut self, node: NodeId, timer: PushTimer, ctx: &mut Ctx<'_, Self>) {
        match timer {
            PushTimer::Generate => {
                let seq = self.next_seq;
                if seq.0 >= self.cfg.n_chunks {
                    return;
                }
                self.next_seq = seq.next();
                let now = ctx.now();
                self.obs.record_generated(seq.0, now);
                for i in 1..self.cfg.n_nodes {
                    if ctx.is_alive(NodeId(i)) {
                        self.obs.mark_expected(seq.0, NodeId(i));
                    }
                }
                if let Some(st) = self.state_mut(node) {
                    st.buffer.insert(seq);
                }
                // The freshly generated chunk enters the epidemic exactly
                // like a freshly received one.
                self.relay_fresh(node, seq, ctx);
                if self.next_seq.0 < self.cfg.n_chunks {
                    ctx.set_timer(node, CHUNK_INTERVAL, PushTimer::Generate);
                }
            }
            PushTimer::BufmapTick => {
                let snap = self.nodes[node.index()]
                    .as_ref()
                    .map(|s| Rc::new(s.buffer.snapshot()));
                if let Some(snap) = snap {
                    for nb in self.mesh.neighbors(node) {
                        ctx.send_control(
                            node,
                            nb,
                            PushMsg::Bufmap(Rc::clone(&snap)),
                            "push.bufmap",
                        );
                    }
                }
                ctx.set_timer(node, BUFMAP_EVERY, PushTimer::BufmapTick);
            }
        }
    }

    fn on_leave(&mut self, node: NodeId, _graceful: bool, ctx: &mut Ctx<'_, Self>) {
        let repairs = self.mesh.leave(node, ctx.rng());
        self.nodes[node.index()] = None;
        for (bereaved, replacement) in repairs {
            if let Some(st) = self.state_mut(bereaved) {
                st.views.remove(&node.0);
                let snap = Rc::new(st.buffer.snapshot());
                ctx.send_control(bereaved, replacement, PushMsg::Bufmap(snap), "push.bufmap");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: u32, chunks: u32, k: usize, seed: u64) -> Simulator<PushProtocol> {
        build_with(n, chunks, k, seed, NetConfig::default())
    }

    fn build_with(
        n: u32,
        chunks: u32,
        k: usize,
        seed: u64,
        net: NetConfig,
    ) -> Simulator<PushProtocol> {
        let mut cfg = BaselineConfig::paper_default(n, chunks);
        cfg.neighbors = k;
        let mut sim = Simulator::new(PushProtocol::new(cfg), net, seed);
        for i in 0..n {
            let caps = if i == 0 {
                NodeCaps::server_default()
            } else {
                NodeCaps::peer_default()
            };
            let id = sim.add_node(caps);
            sim.schedule_join(id, SimTime::ZERO);
        }
        sim
    }

    #[test]
    fn push_mesh_floods_all_chunks() {
        let mut sim = build(16, 10, 6, 4);
        sim.run_until(SimTime::from_secs(120));
        let p = sim.protocol();
        assert_eq!(p.obs.audience_pairs(), 150);
        assert_eq!(p.obs.received_pairs(), 150);
        assert!(sim.counters().tagged("push.bufmap") > 0);
    }

    #[test]
    fn push_spreads_fast_with_many_neighbors() {
        // Under the paper's sender-side-only bandwidth model (§IV), push
        // with many neighbors floods the network within a few epidemic
        // generations.
        let mut sim = build_with(24, 10, 16, 8, NetConfig::paper_model());
        sim.run_until(SimTime::from_secs(60));
        let p = sim.protocol();
        let f = p
            .obs
            .fold_figures(SimTime::from_secs(60), &[SimDuration::from_secs(5)])
            .fill_at_offsets[0];
        assert!(f > 0.45, "fill at +5 s only {f:.2}");
        assert_eq!(p.obs.received_pairs(), p.obs.audience_pairs());
    }

    #[test]
    fn push_produces_duplicates() {
        let mut sim = build(16, 10, 8, 1);
        sim.run_until(SimTime::from_secs(60));
        assert!(
            sim.protocol().duplicates > 0,
            "uncoordinated pushing must occasionally duplicate"
        );
    }

    #[test]
    fn push_survives_churn() {
        let mut sim = build(20, 20, 6, 2);
        for (i, t) in [(4u32, 5u64), (9, 9), (14, 13)] {
            sim.schedule_leave(NodeId(i), SimTime::from_secs(t), false);
            sim.schedule_join(NodeId(i), SimTime::from_secs(t + 8));
        }
        sim.run_until(SimTime::from_secs(150));
        let pct = sim
            .protocol()
            .obs
            .fold_figures(SimTime::from_secs(150), &[])
            .received_pct;
        assert!(pct > 75.0, "push under churn got only {pct:.1}%");
    }
}

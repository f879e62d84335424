//! The pull-based mesh baseline.
//!
//! §IV: "Nodes in the pull/push-based methods exchange buffer maps with
//! their neighbors every second … in the pull-based method, every node
//! requests its missing chunk in a round robin manner until it receives the
//! chunk." Overhead = buffer-map exchanges + requests (+ miss replies).

use std::collections::HashMap;
use std::rc::Rc;

use dco_core::buffer::BufferMap;
use dco_core::chunk::{latest_at, ChunkSeq, CHUNK_INTERVAL, CHUNK_SIZE};
use dco_core::proto::{BUSY_BACKLOG, FETCH_TICK, MAX_INFLIGHT, REQUEST_TIMEOUT};
use dco_metrics::StreamObserver;
use dco_sim::prelude::*;
use dco_sim::slab::SlotTable;
use dco_sim::smallvec::SmallVec;

use crate::config::{BaselineConfig, BUFMAP_EVERY};
use crate::mesh::MeshCore;

/// Pull-mesh wire messages.
#[derive(Clone, Debug)]
pub enum PullMsg {
    /// Periodic buffer-map advertisement. One snapshot is taken per
    /// advertisement round and shared (`Rc`) across the per-neighbor sends
    /// instead of deep-copied `k` times.
    Bufmap(Rc<BufferMap>),
    /// "Send me chunk `seq`."
    Request {
        /// The chunk wanted.
        seq: ChunkSeq,
    },
    /// The chunk payload (data class).
    Data {
        /// The chunk carried.
        seq: ChunkSeq,
    },
    /// "I no longer have that chunk" (stale map).
    Miss {
        /// The chunk that was asked for.
        seq: ChunkSeq,
    },
    /// "I have it but my upload queue is full — ask someone else."
    Busy {
        /// The chunk that was asked for.
        seq: ChunkSeq,
    },
}

/// Pull-mesh timers.
#[derive(Clone, Debug)]
pub enum PullTimer {
    /// Server: emit the next chunk.
    Generate,
    /// Advertise the buffer map to all neighbors.
    BufmapTick,
    /// Run the pull loop.
    PullTick,
    /// A request went unanswered.
    RequestTimeout {
        /// The chunk requested.
        seq: ChunkSeq,
        /// Who was asked.
        provider: NodeId,
    },
}

struct PullNode {
    buffer: BufferMap,
    /// Last advertised map per neighbor. Shared with the sender's other
    /// receivers; copy-on-write ([`Rc::make_mut`]) on the rare local
    /// corrections (miss replies, request timeouts).
    maps: HashMap<u32, Rc<BufferMap>>,
    /// Round-robin cursor over neighbors.
    cursor: usize,
    first_seq: ChunkSeq,
    /// The live chunk at this session's join instant (pulled first; older
    /// history is backfilled with leftover budget).
    session_seq: ChunkSeq,
}

/// The pull-based streaming mesh.
pub struct PullProtocol {
    cfg: BaselineConfig,
    mesh: MeshCore,
    nodes: Vec<Option<PullNode>>,
    /// Outstanding requests, pooled across nodes: node → (seq → provider).
    /// At most [`MAX_INFLIGHT`] entries per node, so one flat
    /// [`SlotTable`] replaces a per-node `HashMap`.
    pending: SlotTable<u32>,
    next_seq: ChunkSeq,
    /// Reception records for the metrics.
    pub obs: StreamObserver,
}

impl PullProtocol {
    /// Builds the protocol.
    pub fn new(cfg: BaselineConfig) -> Self {
        let n = cfg.n_nodes as usize;
        PullProtocol {
            mesh: MeshCore::new(n, cfg.neighbors),
            nodes: (0..n).map(|_| None).collect(),
            pending: SlotTable::new(n, MAX_INFLIGHT),
            next_seq: ChunkSeq(0),
            obs: StreamObserver::new(n, cfg.n_chunks as usize),
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

    fn state_mut(&mut self, node: NodeId) -> Option<&mut PullNode> {
        self.nodes.get_mut(node.index()).and_then(Option::as_mut)
    }

    fn send_bufmaps(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
        let Some(st) = self.nodes[node.index()].as_ref() else {
            return;
        };
        let snap = Rc::new(st.buffer.snapshot());
        for nb in self.mesh.neighbors(node) {
            ctx.send_control(node, nb, PullMsg::Bufmap(Rc::clone(&snap)), "pull.bufmap");
        }
    }

    fn pull_loop(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
        let Some(latest) = latest_at(ctx.now(), self.cfg.n_chunks) else {
            return;
        };
        // Gather the neighbor list once per tick (stack-allocated for the
        // common degrees) so the round-robin can index it while the node
        // state and the pooled pending table are borrowed mutably.
        let neighbors: SmallVec<NodeId, 32> = self.mesh.neighbors(node).collect();
        if neighbors.is_empty() {
            return;
        }
        let pending = &mut self.pending;
        let Some(st) = self.nodes.get_mut(node.index()).and_then(Option::as_mut) else {
            return;
        };
        if latest < st.first_seq {
            return;
        }
        let budget = MAX_INFLIGHT.saturating_sub(pending.len(node.index()));
        if budget == 0 {
            return;
        }
        // This session's broadcast first (oldest-first for playback
        // continuity), then backfill pre-session history with whatever
        // budget remains — a rejoining viewer keeps up with the broadcast
        // while repairing its history.
        let session_start = st.session_seq.max(st.first_seq);
        let history_end = ChunkSeq(session_start.0.wrapping_sub(1));
        let buffer = &st.buffer;
        let maps = &st.maps;
        let cursor = &mut st.cursor;
        let mut issued = 0usize;
        let session = buffer.missing_in_iter(session_start, latest);
        let history = (session_start > st.first_seq)
            .then(|| buffer.missing_in_iter(st.first_seq, history_end))
            .into_iter()
            .flatten();
        for seq in session.chain(history) {
            if issued >= budget {
                break;
            }
            if pending.contains(node.index(), seq.0) {
                continue;
            }
            // Round-robin over neighbors until one advertises the chunk.
            let n = neighbors.len();
            let mut chosen = None;
            for off in 0..n {
                let cand = neighbors[(*cursor + off) % n];
                let has = maps.get(&cand.0).map(|m| m.has(seq)).unwrap_or(false);
                if has {
                    chosen = Some(cand);
                    *cursor = (*cursor + off + 1) % n;
                    break;
                }
            }
            if let Some(p) = chosen {
                pending.insert(node.index(), seq.0, p.0);
                issued += 1;
                ctx.send_control(node, p, PullMsg::Request { seq }, "pull.request");
                ctx.set_timer(
                    node,
                    REQUEST_TIMEOUT,
                    PullTimer::RequestTimeout { seq, provider: p },
                );
            }
        }
    }
}

impl Protocol for PullProtocol {
    type Msg = PullMsg;
    type Timer = PullTimer;

    fn on_join(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
        // Pull nodes chase every missing chunk ("in a round robin manner
        // until it receives the chunk"), prioritizing the broadcast from
        // their join point and backfilling earlier history.
        let session_seq = if node == NodeId(0) {
            ChunkSeq(0)
        } else {
            latest_at(ctx.now(), self.cfg.n_chunks).unwrap_or(ChunkSeq(0))
        };
        self.nodes[node.index()] = Some(PullNode {
            buffer: BufferMap::new(self.cfg.n_chunks),
            maps: HashMap::new(),
            cursor: 0,
            first_seq: ChunkSeq(0),
            session_seq,
        });
        // The pooled pending table outlives the node state; a (re)joining
        // node starts with an empty segment.
        self.pending.clear(node.index());
        self.mesh.join(node, ctx.rng());
        if node == NodeId(0) {
            ctx.set_timer(node, SimDuration::ZERO, PullTimer::Generate);
        } else {
            ctx.set_timer(node, FETCH_TICK, PullTimer::PullTick);
        }
        ctx.set_timer(node, BUFMAP_EVERY, PullTimer::BufmapTick);
    }

    fn on_message(&mut self, node: NodeId, from: NodeId, msg: PullMsg, ctx: &mut Ctx<'_, Self>) {
        match msg {
            PullMsg::Bufmap(map) => {
                if let Some(st) = self.state_mut(node) {
                    st.maps.insert(from.0, map);
                }
            }
            PullMsg::Request { seq } => {
                let has = self.nodes[node.index()]
                    .as_ref()
                    .map(|s| s.buffer.has(seq))
                    .unwrap_or(false);
                if !has {
                    ctx.send_control(node, from, PullMsg::Miss { seq }, "pull.miss");
                } else if ctx.upload_backlog(node) > BUSY_BACKLOG {
                    // Answer immediately instead of letting the requester
                    // burn its timeout against a saturated queue.
                    ctx.send_control(node, from, PullMsg::Busy { seq }, "pull.miss");
                } else {
                    ctx.send_data(node, from, PullMsg::Data { seq }, CHUNK_SIZE);
                }
            }
            PullMsg::Data { seq } => {
                let now = ctx.now();
                if let Some(st) = self.state_mut(node) {
                    if st.buffer.insert(seq) {
                        self.obs.record_received(seq.0, node, now);
                    }
                }
                self.pending.remove(node.index(), seq.0);
            }
            PullMsg::Miss { seq } => {
                if let Some(st) = self.state_mut(node) {
                    // The advertised map was stale; drop the bit so the
                    // round-robin moves on (copy-on-write: the sender's
                    // other receivers keep the shared original).
                    if let Some(m) = st.maps.get_mut(&from.0) {
                        Rc::make_mut(m).remove(seq);
                    }
                }
                self.pending.remove(node.index(), seq.0);
            }
            PullMsg::Busy { seq } => {
                // Keep the advertisement (the holder does have it); the
                // round-robin simply tries another neighbor next tick.
                self.pending.remove(node.index(), seq.0);
            }
        }
    }

    fn on_timer(&mut self, node: NodeId, timer: PullTimer, ctx: &mut Ctx<'_, Self>) {
        match timer {
            PullTimer::Generate => {
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
                if self.next_seq.0 < self.cfg.n_chunks {
                    ctx.set_timer(node, CHUNK_INTERVAL, PullTimer::Generate);
                }
            }
            PullTimer::BufmapTick => {
                self.send_bufmaps(node, ctx);
                ctx.set_timer(node, BUFMAP_EVERY, PullTimer::BufmapTick);
            }
            PullTimer::PullTick => {
                self.pull_loop(node, ctx);
                ctx.set_timer(node, FETCH_TICK, PullTimer::PullTick);
            }
            PullTimer::RequestTimeout { seq, provider } => {
                if self.pending.get(node.index(), seq.0) == Some(provider.0) {
                    self.pending.remove(node.index(), seq.0);
                    // Assume the neighbor is gone or useless for this
                    // chunk; forget its advertisement.
                    if let Some(st) = self.state_mut(node) {
                        if let Some(m) = st.maps.get_mut(&provider.0) {
                            Rc::make_mut(m).remove(seq);
                        }
                    }
                }
            }
        }
    }

    fn on_leave(&mut self, node: NodeId, _graceful: bool, ctx: &mut Ctx<'_, Self>) {
        let repairs = self.mesh.leave(node, ctx.rng());
        self.nodes[node.index()] = None;
        self.pending.clear(node.index());
        // Drop the dead neighbor's map everywhere and greet replacements
        // with a fresh map (tracker-assisted mesh repair).
        for (bereaved, replacement) in repairs {
            if let Some(st) = self.state_mut(bereaved) {
                st.maps.remove(&node.0);
                let snap = Rc::new(st.buffer.snapshot());
                ctx.send_control(bereaved, replacement, PullMsg::Bufmap(snap), "pull.bufmap");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: u32, chunks: u32, k: usize, seed: u64) -> Simulator<PullProtocol> {
        let mut cfg = BaselineConfig::paper_default(n, chunks);
        cfg.neighbors = k;
        let mut sim = Simulator::new(PullProtocol::new(cfg), NetConfig::default(), seed);
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
    fn pull_mesh_delivers_all_chunks() {
        let mut sim = build(16, 10, 6, 3);
        sim.run_until(SimTime::from_secs(120));
        let p = sim.protocol();
        assert_eq!(p.obs.audience_pairs(), 150);
        assert_eq!(
            p.obs.received_pairs(),
            150,
            "pull eventually fetches everything"
        );
        assert!(sim.counters().tagged("pull.bufmap") > 0);
        assert!(sim.counters().tagged("pull.request") > 0);
    }

    #[test]
    fn pull_completes_even_on_a_sparse_mesh() {
        // At small n the paper's neighbor-count/delay trend is noise; the
        // robust property is completeness even when each joiner only picks
        // two neighbors. (The fig-5 harness checks the trend at n = 512.)
        let mut sim = build(24, 10, 2, 5);
        sim.run_until(SimTime::from_secs(120));
        let p = sim.protocol();
        assert_eq!(p.obs.received_pairs(), p.obs.audience_pairs());
        let d = p
            .obs
            .fold_figures(SimTime::from_secs(120), &[])
            .mean_mesh_delay;
        assert!(d > 0.0 && d < 60.0, "implausible delay {d:.2}s");
    }

    #[test]
    fn pull_survives_churn() {
        let mut sim = build(20, 20, 6, 7);
        for (i, t) in [(3u32, 5u64), (8, 9), (12, 13)] {
            sim.schedule_leave(NodeId(i), SimTime::from_secs(t), false);
            sim.schedule_join(NodeId(i), SimTime::from_secs(t + 8));
        }
        sim.run_until(SimTime::from_secs(150));
        let pct = sim
            .protocol()
            .obs
            .fold_figures(SimTime::from_secs(150), &[])
            .received_pct;
        assert!(pct > 85.0, "pull under churn got only {pct:.1}%");
    }

    #[test]
    fn overhead_grows_with_neighbor_count() {
        let mut few = build(16, 10, 4, 11);
        few.run_until(SimTime::from_secs(60));
        let mut many = build(16, 10, 12, 11);
        many.run_until(SimTime::from_secs(60));
        assert!(
            many.counters().tagged("pull.bufmap") > few.counters().tagged("pull.bufmap"),
            "more neighbors ⇒ more buffer-map traffic"
        );
    }
}

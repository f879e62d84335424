//! The tree baseline.
//!
//! §IV: "In the tree-based method, the chunks are pushed top-down from the
//! server", with a fixed out-degree per node. The topology is rigid: a
//! parent failure orphans its whole subtree until (and unless) the orphan
//! rejoins — which is exactly the churn fragility Figs. 11–12 measure. The
//! tree generates **zero** extra overhead: data only, no signalling.

use dco_core::buffer::BufferMap;
use dco_core::chunk::{ChunkSeq, CHUNK_INTERVAL, CHUNK_SIZE};
use dco_metrics::StreamObserver;
use dco_sim::prelude::*;

use crate::config::BaselineConfig;

/// Tree wire messages (data only — the tree's whole point).
#[derive(Clone, Debug)]
pub enum TreeMsg {
    /// The chunk payload (data class).
    Data {
        /// The chunk carried.
        seq: ChunkSeq,
    },
}

/// Tree timers.
#[derive(Clone, Debug)]
pub enum TreeTimer {
    /// Server: emit the next chunk.
    Generate,
}

struct TreeNode {
    buffer: BufferMap,
}

/// The tree-based streaming baseline.
pub struct TreeProtocol {
    cfg: BaselineConfig,
    /// Out-degree (the paper's default is `neighbors / 8`, min 1).
    degree: usize,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    alive: Vec<bool>,
    nodes: Vec<Option<TreeNode>>,
    next_seq: ChunkSeq,
    /// Reception records for the metrics.
    pub obs: StreamObserver,
}

impl TreeProtocol {
    /// Builds a `degree`-ary tree over node indices: node `i`'s parent is
    /// `(i-1)/degree`, so the initial topology is a complete balanced tree
    /// rooted at the server.
    pub fn new(cfg: BaselineConfig, degree: usize) -> Self {
        let degree = degree.max(1);
        let n = cfg.n_nodes as usize;
        let mut parent = vec![None; n];
        let mut children = vec![Vec::new(); n];
        for (i, slot) in parent.iter_mut().enumerate().skip(1) {
            let p = (i - 1) / degree;
            *slot = Some(NodeId(p as u32));
            children[p].push(NodeId(i as u32));
        }
        TreeProtocol {
            degree,
            parent,
            children,
            alive: vec![false; n],
            nodes: (0..n).map(|_| None).collect(),
            next_seq: ChunkSeq(0),
            obs: StreamObserver::new(n, cfg.n_chunks as usize),
            cfg,
        }
    }

    /// Builds the tree with the paper's degree rule: out-degree =
    /// `neighbors / 8` (minimum 1).
    pub fn with_paper_degree(cfg: BaselineConfig) -> Self {
        let d = (cfg.neighbors / 8).max(1);
        TreeProtocol::new(cfg, d)
    }

    /// Builds the "tree*" ablation: out-degree = the full neighbor count.
    pub fn with_star_degree(cfg: BaselineConfig) -> Self {
        let d = cfg.neighbors.max(1);
        TreeProtocol::new(cfg, d)
    }

    /// The configured out-degree.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The parent of `node`, if any.
    pub fn parent_of(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.index()]
    }

    /// The children of `node`.
    pub fn children_of(&self, node: NodeId) -> &[NodeId] {
        &self.children[node.index()]
    }

    /// Chunks currently buffered by `node`.
    pub fn held_count(&self, node: NodeId) -> usize {
        self.nodes[node.index()]
            .as_ref()
            .map(|s| s.buffer.held_count())
            .unwrap_or(0)
    }

    fn forward_to_children(&mut self, node: NodeId, seq: ChunkSeq, ctx: &mut Ctx<'_, Self>) {
        for child in self.children[node.index()].clone() {
            ctx.send_data(node, child, TreeMsg::Data { seq }, CHUNK_SIZE);
        }
    }

    /// Finds an attachment point for a (re)joining node: the first alive
    /// node in BFS order from the root with spare out-degree.
    fn find_attach_point(&self, joiner: NodeId) -> Option<NodeId> {
        let mut queue = std::collections::VecDeque::from([NodeId(0)]);
        let mut seen = vec![false; self.alive.len()];
        while let Some(n) = queue.pop_front() {
            if seen[n.index()] {
                continue;
            }
            seen[n.index()] = true;
            if !self.alive[n.index()] {
                continue;
            }
            if n != joiner && self.children[n.index()].len() < self.degree {
                return Some(n);
            }
            for &c in &self.children[n.index()] {
                queue.push_back(c);
            }
        }
        None
    }
}

impl Protocol for TreeProtocol {
    type Msg = TreeMsg;
    type Timer = TreeTimer;

    fn on_join(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
        self.alive[node.index()] = true;
        self.nodes[node.index()] = Some(TreeNode {
            buffer: BufferMap::new(self.cfg.n_chunks),
        });
        if node == NodeId(0) {
            ctx.set_timer(node, SimDuration::ZERO, TreeTimer::Generate);
            return;
        }
        // A re-joining node (no live parent link) attaches as a leaf of the
        // first alive node with spare degree. The initial topology is kept
        // for nodes whose parent slot is intact.
        let needs_attach = match self.parent[node.index()] {
            Some(p) => !self.alive[p.index()] || !self.children[p.index()].contains(&node),
            None => true,
        };
        if needs_attach {
            if let Some(p) = self.parent[node.index()] {
                self.children[p.index()].retain(|&c| c != node);
            }
            if let Some(p) = self.find_attach_point(node) {
                self.parent[node.index()] = Some(p);
                self.children[p.index()].push(node);
            }
        }
    }

    fn on_message(&mut self, node: NodeId, _from: NodeId, msg: TreeMsg, ctx: &mut Ctx<'_, Self>) {
        let TreeMsg::Data { seq } = msg;
        let now = ctx.now();
        let fresh = match self.nodes[node.index()].as_mut() {
            Some(st) => st.buffer.insert(seq),
            None => return,
        };
        if !fresh {
            return;
        }
        self.obs.record_received(seq.0, node, now);
        self.forward_to_children(node, seq, ctx);
    }

    fn on_timer(&mut self, node: NodeId, timer: TreeTimer, ctx: &mut Ctx<'_, Self>) {
        let TreeTimer::Generate = timer;
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
        if let Some(st) = self.nodes[node.index()].as_mut() {
            st.buffer.insert(seq);
        }
        self.forward_to_children(node, seq, ctx);
        if self.next_seq.0 < self.cfg.n_chunks {
            ctx.set_timer(node, CHUNK_INTERVAL, TreeTimer::Generate);
        }
    }

    fn on_leave(&mut self, node: NodeId, _graceful: bool, _ctx: &mut Ctx<'_, Self>) {
        // No repair: the rigid topology is the tree's weakness under churn.
        self.alive[node.index()] = false;
        self.nodes[node.index()] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: u32, chunks: u32, degree: usize, seed: u64) -> Simulator<TreeProtocol> {
        let cfg = BaselineConfig::paper_default(n, chunks);
        let mut sim = Simulator::new(TreeProtocol::new(cfg, degree), NetConfig::default(), seed);
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
    fn topology_is_a_complete_d_ary_tree() {
        let p = TreeProtocol::new(BaselineConfig::paper_default(13, 1), 3);
        assert_eq!(p.parent_of(NodeId(0)), None);
        assert_eq!(p.parent_of(NodeId(1)), Some(NodeId(0)));
        assert_eq!(p.parent_of(NodeId(4)), Some(NodeId(1)));
        assert_eq!(p.children_of(NodeId(0)), &[NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(p.children_of(NodeId(1)), &[NodeId(4), NodeId(5), NodeId(6)]);
        assert_eq!(p.degree(), 3);
    }

    #[test]
    fn paper_degree_rule() {
        let mut cfg = BaselineConfig::paper_default(8, 1);
        cfg.neighbors = 24;
        assert_eq!(TreeProtocol::with_paper_degree(cfg.clone()).degree(), 3);
        assert_eq!(TreeProtocol::with_star_degree(cfg.clone()).degree(), 24);
        cfg.neighbors = 4;
        assert_eq!(TreeProtocol::with_paper_degree(cfg).degree(), 1, "min 1");
    }

    #[test]
    fn tree_delivers_all_chunks_with_zero_overhead() {
        let mut sim = build(16, 10, 3, 1);
        sim.run_until(SimTime::from_secs(60));
        let p = sim.protocol();
        assert_eq!(p.obs.expected_pairs(), 150);
        assert_eq!(p.obs.received_pairs(), 150);
        assert_eq!(
            sim.counters().control_total(),
            0,
            "the tree must generate no extra overhead"
        );
    }

    #[test]
    fn high_degree_tree_is_slower_per_chunk() {
        // Out-degree beyond the bandwidth budget slows the root's fan-out:
        // each child transfer serializes through the parent's upload pipe.
        let mut narrow = build(32, 6, 2, 3);
        narrow.run_until(SimTime::from_secs(90));
        let mut wide = build(32, 6, 31, 3);
        wide.run_until(SimTime::from_secs(90));
        let d_narrow = narrow
            .protocol()
            .obs
            .fold_figures(SimTime::from_secs(90), &[])
            .mean_mesh_delay;
        let d_wide = wide
            .protocol()
            .obs
            .fold_figures(SimTime::from_secs(90), &[])
            .mean_mesh_delay;
        assert!(
            d_wide > d_narrow,
            "degree-31 delay {d_wide:.2}s should exceed degree-2 {d_narrow:.2}s"
        );
    }

    #[test]
    fn parent_failure_orphans_subtree() {
        let mut sim = build(13, 20, 3, 5);
        // Kill node 1 (children 4, 5, 6) early and never rejoin it.
        sim.schedule_leave(NodeId(1), SimTime::from_secs(2), false);
        sim.run_until(SimTime::from_secs(60));
        let p = sim.protocol();
        // Chunks generated after the failure cannot reach the orphans.
        for orphan in [4u32, 5, 6] {
            assert!(
                p.obs.received_at(10, NodeId(orphan)).is_none(),
                "orphan N{orphan} received chunk 10 without a parent"
            );
        }
        // The rest of the tree is unaffected.
        assert!(p.obs.received_at(10, NodeId(2)).is_some());
        assert!(p.obs.received_at(10, NodeId(7)).is_some());
    }

    #[test]
    fn rejoining_node_reattaches() {
        let mut sim = build(13, 30, 3, 6);
        sim.schedule_leave(NodeId(1), SimTime::from_secs(2), false);
        sim.schedule_join(NodeId(1), SimTime::from_secs(10));
        sim.run_until(SimTime::from_secs(60));
        let p = sim.protocol();
        // N1 re-attached somewhere alive and receives post-rejoin chunks.
        assert!(p.parent_of(NodeId(1)).is_some());
        assert!(
            p.obs.received_at(25, NodeId(1)).is_some(),
            "rejoined node should receive fresh chunks"
        );
    }
}

//! Shared mesh substrate for the pull and push baselines.
//!
//! §IV: "In the pull-based and push-based mesh overlays, every node is
//! randomly connected with its neighbors." [`MeshCore`] owns that random
//! graph: it tracks liveness, picks each joiner's random neighbor set
//! (bidirectional links), and — because meshes are "naturally resilient to
//! churn" — replaces a dead neighbor with a fresh random pick, playing the
//! role of the membership tracker real deployments run.
//!
//! The adjacency lists live in one pooled [`ListSlab`] (linked chains
//! through a shared arena) instead of a `Vec<Vec<NodeId>>`: at N = 100k
//! that is two flat allocations instead of one hundred thousand small
//! ones, with identical insertion-order semantics.

use dco_sim::node::NodeId;
use dco_sim::rng::SimRng;
use dco_sim::slab::ListSlab;

/// The random mesh graph plus liveness.
#[derive(Clone, Debug)]
pub struct MeshCore {
    k: usize,
    alive: Vec<bool>,
    links: ListSlab,
}

impl MeshCore {
    /// An empty mesh over `n` node slots targeting `k` neighbors per node.
    pub fn new(n: usize, k: usize) -> Self {
        MeshCore {
            k,
            alive: vec![false; n],
            // Bidirectional links ⇒ ~n·k pool entries once everyone joined.
            links: ListSlab::new(n, n.saturating_mul(k)),
        }
    }

    /// Target neighbor count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// True if `node` is currently up.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive.get(node.index()).copied().unwrap_or(false)
    }

    /// Currently alive nodes.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        (0..self.alive.len() as u32)
            .map(NodeId)
            .filter(|&n| self.alive[n.index()])
            .collect()
    }

    /// The neighbors of `node`, in link-insertion order.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.links.iter(node.index()).map(NodeId)
    }

    /// `node`'s current neighbor count.
    pub fn degree(&self, node: NodeId) -> usize {
        self.links.len(node.index())
    }

    /// The neighbor list of `node` as an owned vector (membership events
    /// and tests; the per-tick hot paths iterate instead).
    pub fn neighbors_vec(&self, node: NodeId) -> Vec<NodeId> {
        self.neighbors(node).collect()
    }

    fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.links.contains(a.index(), b.0)
    }

    fn link(&mut self, a: NodeId, b: NodeId) {
        if a == b {
            return;
        }
        if !self.has_link(a, b) {
            self.links.push_back(a.index(), b.0);
        }
        if !self.has_link(b, a) {
            self.links.push_back(b.index(), a.0);
        }
    }

    fn unlink_everywhere(&mut self, node: NodeId) {
        // Sever the reverse edges through the node's own list (links are
        // bidirectional, so only its neighbors can hold an edge to it),
        // then drop the list itself.
        let neighbors = self.neighbors_vec(node);
        for nb in neighbors {
            self.links.remove(nb.index(), node.0);
        }
        self.links.clear(node.index());
    }

    /// Brings `node` up and wires it to up to `k` random alive peers.
    /// Returns its new neighbor list.
    pub fn join(&mut self, node: NodeId, rng: &mut SimRng) -> Vec<NodeId> {
        self.alive[node.index()] = true;
        let mut candidates: Vec<NodeId> = self
            .alive_nodes()
            .into_iter()
            .filter(|&n| n != node && !self.has_link(node, n))
            .collect();
        rng.shuffle(&mut candidates);
        let need = self.k.saturating_sub(self.degree(node));
        for &peer in candidates.iter().take(need) {
            self.link(node, peer);
        }
        self.neighbors_vec(node)
    }

    /// Takes `node` down, severs its links, and gives each bereaved
    /// neighbor a random replacement. Returns `(bereaved, replacement)`
    /// pairs for the protocol to act on (e.g. send the new neighbor a
    /// buffer map).
    pub fn leave(&mut self, node: NodeId, rng: &mut SimRng) -> Vec<(NodeId, NodeId)> {
        if !self.alive[node.index()] {
            return Vec::new();
        }
        self.alive[node.index()] = false;
        let bereaved = self.neighbors_vec(node);
        self.unlink_everywhere(node);
        let mut repairs = Vec::new();
        for b in bereaved {
            if !self.alive[b.index()] {
                continue;
            }
            let mut candidates: Vec<NodeId> = self
                .alive_nodes()
                .into_iter()
                .filter(|&n| n != b && !self.has_link(b, n))
                .collect();
            if candidates.is_empty() {
                continue;
            }
            let pick = candidates.remove(rng.gen_range(0..candidates.len()));
            self.link(b, pick);
            repairs.push((b, pick));
        }
        repairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(9)
    }

    /// Mean neighbor count over alive nodes.
    fn mean_degree(m: &MeshCore) -> f64 {
        let alive = m.alive_nodes();
        if alive.is_empty() {
            return 0.0;
        }
        alive.iter().map(|&n| m.degree(n) as f64).sum::<f64>() / alive.len() as f64
    }

    #[test]
    fn joiners_get_k_neighbors_when_available() {
        let mut m = MeshCore::new(32, 4);
        let mut r = rng();
        for i in 0..32u32 {
            m.join(NodeId(i), &mut r);
        }
        // Everyone has at least k neighbors (links are bidirectional so
        // some have more).
        for i in 0..32u32 {
            assert!(m.degree(NodeId(i)) >= 4, "N{i} has {}", m.degree(NodeId(i)));
        }
        assert!(mean_degree(&m) >= 4.0);
    }

    #[test]
    fn links_are_bidirectional_and_self_free() {
        let mut m = MeshCore::new(8, 3);
        let mut r = rng();
        for i in 0..8u32 {
            m.join(NodeId(i), &mut r);
        }
        for i in 0..8u32 {
            for n in m.neighbors_vec(NodeId(i)) {
                assert_ne!(n, NodeId(i), "no self-links");
                assert!(m.neighbors(n).any(|x| x == NodeId(i)), "symmetry");
            }
        }
    }

    #[test]
    fn small_population_caps_neighbors() {
        let mut m = MeshCore::new(4, 10);
        let mut r = rng();
        for i in 0..4u32 {
            m.join(NodeId(i), &mut r);
        }
        for i in 0..4u32 {
            assert_eq!(m.degree(NodeId(i)), 3, "complete graph of 4");
        }
    }

    #[test]
    fn leave_severs_and_repairs() {
        let mut m = MeshCore::new(16, 4);
        let mut r = rng();
        for i in 0..16u32 {
            m.join(NodeId(i), &mut r);
        }
        let victim = NodeId(3);
        let bereaved_before: Vec<NodeId> = m.neighbors_vec(victim);
        let repairs = m.leave(victim, &mut r);
        assert!(!m.is_alive(victim));
        for i in 0..16u32 {
            assert!(
                !m.neighbors(NodeId(i)).any(|x| x == victim),
                "N{i} still linked"
            );
        }
        // Every bereaved neighbor got a repair offer.
        for b in bereaved_before {
            assert!(repairs.iter().any(|&(x, _)| x == b), "{b} not repaired");
        }
        // Leaving twice is a no-op.
        assert!(m.leave(victim, &mut r).is_empty());
    }

    #[test]
    fn rejoin_after_leave() {
        let mut m = MeshCore::new(8, 3);
        let mut r = rng();
        for i in 0..8u32 {
            m.join(NodeId(i), &mut r);
        }
        m.leave(NodeId(2), &mut r);
        let neighbors = m.join(NodeId(2), &mut r);
        assert!(m.is_alive(NodeId(2)));
        assert!(neighbors.len() >= 3);
    }

    #[test]
    fn deterministic_under_seed() {
        let build = |seed| {
            let mut m = MeshCore::new(20, 5);
            let mut r = SimRng::seed_from_u64(seed);
            for i in 0..20u32 {
                m.join(NodeId(i), &mut r);
            }
            (0..20u32)
                .map(|i| m.neighbors_vec(NodeId(i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(1), build(1));
        assert_ne!(build(1), build(2));
    }
}

//! Pooled (struct-of-arrays) successor lists and finger tables.
//!
//! Under churn every node's repair state is live at once; giving each node
//! its own `Vec<Peer>` successor list and `Vec<Option<Peer>>` finger table
//! (the [`crate::successors::SuccessorList`] / [`crate::finger::FingerTable`]
//! reference models) costs two heap allocations per node plus allocator
//! overhead — the dominant term of churn memory at N ≥ 50k. The pools here
//! pack the same state for *all* nodes into a handful of flat arrays
//! indexed by owner (the node's slot index), in the mold of
//! `dco_sim::slab::SlotTable`:
//!
//! * [`SuccessorPool`] — fixed-stride sorted `Peer` segments, identical
//!   ordering/dedup/truncation semantics to `SuccessorList`.
//! * [`FingerPool`] — 64 `Peer` slots per owner with a one-word presence
//!   bitmask, identical semantics to `FingerTable`.
//!
//! Both are deterministic by construction (contents depend only on the
//! operation sequence), and both are property-tested against the retained
//! reference models in `tests/proptest_chord.rs` — the flat layout must
//! not change a single decision, because the churn trace digests pinned in
//! `tests/determinism.rs` are gated bit-identical across the conversion.

use dco_sim::node::NodeId;

use crate::id::{ChordId, Peer, ID_BITS};

/// The all-zero filler for unused pool slots (never observable: presence
/// is tracked by per-owner lengths/masks).
fn blank() -> Peer {
    Peer::new(ChordId(0), NodeId(0))
}

/// A pool of per-owner successor lists: for each owner, up to `cap` peers
/// sorted by clockwise distance from that owner, deduplicated by node
/// *and* by ring id — the exact semantics of
/// [`crate::successors::SuccessorList`], flattened.
#[derive(Clone, Debug)]
pub struct SuccessorPool {
    cap: usize,
    peers: Vec<Peer>,
    lens: Vec<u32>,
}

impl SuccessorPool {
    /// A pool for `owners` owners, `cap` entries each (`cap >= 1`).
    pub fn new(owners: usize, cap: usize) -> Self {
        assert!(cap >= 1, "successor list needs capacity >= 1");
        SuccessorPool {
            cap,
            peers: vec![blank(); owners * cap],
            lens: vec![0; owners],
        }
    }

    /// Maximum entries per owner.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Grows the pool to at least `owners` owners (new owners start empty).
    pub fn grow_owners(&mut self, owners: usize) {
        if owners > self.lens.len() {
            self.peers.resize(owners * self.cap, blank());
            self.lens.resize(owners, 0);
        }
    }

    /// Entries held by `owner`.
    pub fn len(&self, owner: usize) -> usize {
        self.lens[owner] as usize
    }

    /// True if `owner` knows no successors.
    pub fn is_empty(&self, owner: usize) -> bool {
        self.lens[owner] == 0
    }

    /// Drops all of `owner`'s entries (rejoin under a reused slot).
    pub fn clear(&mut self, owner: usize) {
        self.lens[owner] = 0;
    }

    /// `owner`'s working successor (nearest clockwise member), if any.
    pub fn first(&self, owner: usize) -> Option<Peer> {
        if self.lens[owner] == 0 {
            None
        } else {
            Some(self.peers[owner * self.cap])
        }
    }

    /// `owner`'s entries, nearest first.
    pub fn iter(&self, owner: usize) -> impl Iterator<Item = Peer> + '_ {
        let base = owner * self.cap;
        self.peers[base..base + self.lens[owner] as usize]
            .iter()
            .copied()
    }

    /// Offers a candidate to `owner` (whose ring position is `me`). It is
    /// inserted in distance order — ignoring the owner itself and
    /// duplicates — and the list is truncated to capacity. Returns `true`
    /// if the candidate was retained.
    pub fn offer(&mut self, owner: usize, me: ChordId, p: Peer) -> bool {
        if p.id == me {
            return false;
        }
        let base = owner * self.cap;
        let len = self.lens[owner] as usize;
        let seg = &self.peers[base..base + len];
        if seg.iter().any(|q| q.node == p.node || q.id == p.id) {
            return false;
        }
        let d = me.distance_to(p.id);
        let pos = seg.partition_point(|q| me.distance_to(q.id) < d);
        if pos >= self.cap {
            return false;
        }
        // Shift the tail right one slot (dropping the last entry when the
        // segment is full — the Vec insert + truncate of the reference).
        let end = (len + 1).min(self.cap);
        self.peers
            .copy_within(base + pos..base + end - 1, base + pos + 1);
        self.peers[base + pos] = p;
        self.lens[owner] = end as u32;
        true
    }

    /// Drops `owner`'s entries for a peer by simulator address. Returns
    /// `true` if an entry was removed.
    pub fn remove_node(&mut self, owner: usize, node: NodeId) -> bool {
        let base = owner * self.cap;
        let len = self.lens[owner] as usize;
        let mut kept = 0;
        for i in 0..len {
            if self.peers[base + i].node != node {
                if kept != i {
                    self.peers[base + kept] = self.peers[base + i];
                }
                kept += 1;
            }
        }
        self.lens[owner] = kept as u32;
        kept != len
    }

    /// True if `owner`'s list contains this simulator address.
    pub fn contains_node(&self, owner: usize, node: NodeId) -> bool {
        self.iter(owner).any(|p| p.node == node)
    }
}

/// A pool of per-owner finger tables: 64 `Peer` slots each with a one-word
/// presence bitmask — the exact semantics of
/// [`crate::finger::FingerTable`], flattened.
#[derive(Clone, Debug)]
pub struct FingerPool {
    peers: Vec<Peer>,
    masks: Vec<u64>,
}

const STRIDE: usize = ID_BITS as usize;

impl FingerPool {
    /// A pool for `owners` owners.
    pub fn new(owners: usize) -> Self {
        FingerPool {
            peers: vec![blank(); owners * STRIDE],
            masks: vec![0; owners],
        }
    }

    /// Grows the pool to at least `owners` owners (new owners start empty).
    pub fn grow_owners(&mut self, owners: usize) {
        if owners > self.masks.len() {
            self.peers.resize(owners * STRIDE, blank());
            self.masks.resize(owners, 0);
        }
    }

    /// Drops all of `owner`'s fingers (rejoin under a reused slot).
    pub fn clear_owner(&mut self, owner: usize) {
        self.masks[owner] = 0;
    }

    /// Sets `owner`'s finger `k`.
    pub fn set(&mut self, owner: usize, k: u32, peer: Peer) {
        self.peers[owner * STRIDE + k as usize] = peer;
        self.masks[owner] |= 1 << k;
    }

    /// Clears `owner`'s finger `k`.
    pub fn clear(&mut self, owner: usize, k: u32) {
        self.masks[owner] &= !(1 << k);
    }

    /// `owner`'s finger `k`, if populated.
    pub fn get(&self, owner: usize, k: u32) -> Option<Peer> {
        if self.masks[owner] & (1 << k) != 0 {
            Some(self.peers[owner * STRIDE + k as usize])
        } else {
            None
        }
    }

    /// Number of `owner`'s populated fingers.
    pub fn populated(&self, owner: usize) -> usize {
        self.masks[owner].count_ones() as usize
    }

    /// Offers a peer to `owner` (ring position `me`) opportunistically: it
    /// becomes finger `k` whenever it lies in `[start(k), me)` and is
    /// closer to `start(k)` than the current entry.
    pub fn offer(&mut self, owner: usize, me: ChordId, p: Peer) {
        if p.id == me {
            return;
        }
        for k in 0..ID_BITS {
            let start = me.finger_start(k);
            if !p.id.in_closed_open(start, me) {
                continue;
            }
            match self.get(owner, k) {
                None => self.set(owner, k, p),
                Some(cur) => {
                    if start.distance_to(p.id) < start.distance_to(cur.id) {
                        self.set(owner, k, p);
                    }
                }
            }
        }
    }

    /// Drops every finger of `owner` pointing at `node`. Returns how many
    /// entries were cleared.
    pub fn remove_node(&mut self, owner: usize, node: NodeId) -> usize {
        let mut cleared = 0;
        let mut mask = self.masks[owner];
        while mask != 0 {
            let k = mask.trailing_zeros();
            mask &= mask - 1;
            if self.peers[owner * STRIDE + k as usize].node == node {
                self.masks[owner] &= !(1 << k);
                cleared += 1;
            }
        }
        cleared
    }

    /// `owner`'s populated finger whose ID most closely **precedes** `key`
    /// clockwise from `me` — the next hop of greedy routing. `None` if no
    /// finger lies strictly between `me` and `key`.
    pub fn closest_preceding(&self, owner: usize, me: ChordId, key: ChordId) -> Option<Peer> {
        let mut mask = self.masks[owner];
        while mask != 0 {
            // Highest populated finger first: the reference scans the
            // 64-entry table from the far end down.
            let k = 63 - mask.leading_zeros();
            mask &= !(1u64 << k);
            let f = self.peers[owner * STRIDE + k as usize];
            if f.id.in_open(me, key) {
                return Some(f);
            }
        }
        None
    }

    /// `owner`'s distinct populated fingers, deduplicated by node, in
    /// ascending-`k` first-seen order.
    pub fn distinct_peers(&self, owner: usize) -> Vec<Peer> {
        let mut out: Vec<Peer> = Vec::new();
        let mut mask = self.masks[owner];
        while mask != 0 {
            let k = mask.trailing_zeros();
            mask &= mask - 1;
            let f = self.peers[owner * STRIDE + k as usize];
            if !out.iter().any(|p| p.node == f.node) {
                out.push(f);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(id: u64, node: u32) -> Peer {
        Peer::new(ChordId(id), NodeId(node))
    }

    #[test]
    fn successor_pool_keeps_distance_order() {
        let mut s = SuccessorPool::new(2, 4);
        let me = ChordId(100);
        assert!(s.offer(1, me, peer(500, 5)));
        assert!(s.offer(1, me, peer(150, 1)));
        assert!(s.offer(1, me, peer(50, 9))); // wraps: farthest
        assert!(s.offer(1, me, peer(300, 3)));
        let ids: Vec<u64> = s.iter(1).map(|p| p.id.0).collect();
        assert_eq!(ids, vec![150, 300, 500, 50]);
        assert_eq!(s.first(1).unwrap().id, ChordId(150));
        assert!(s.is_empty(0), "owners are isolated");
    }

    #[test]
    fn successor_pool_rejects_self_and_duplicates() {
        let mut s = SuccessorPool::new(1, 4);
        let me = ChordId(100);
        assert!(!s.offer(0, me, peer(100, 1)), "own id rejected");
        assert!(s.offer(0, me, peer(200, 2)));
        assert!(!s.offer(0, me, peer(200, 2)), "duplicate rejected");
        assert!(!s.offer(0, me, peer(999, 2)), "same node, new id rejected");
        assert_eq!(s.len(0), 1);
    }

    #[test]
    fn successor_pool_truncates_to_capacity() {
        let mut s = SuccessorPool::new(1, 2);
        let me = ChordId(0);
        assert!(s.offer(0, me, peer(10, 1)));
        assert!(s.offer(0, me, peer(20, 2)));
        assert!(!s.offer(0, me, peer(30, 3)), "beyond capacity and farther");
        assert!(s.offer(0, me, peer(5, 4)), "nearer candidate displaces");
        let ids: Vec<u64> = s.iter(0).map(|p| p.id.0).collect();
        assert_eq!(ids, vec![5, 10]);
    }

    #[test]
    fn successor_pool_remove_and_grow() {
        let mut s = SuccessorPool::new(1, 3);
        let me = ChordId(0);
        s.offer(0, me, peer(10, 1));
        s.offer(0, me, peer(20, 2));
        assert!(s.remove_node(0, NodeId(1)));
        assert!(!s.remove_node(0, NodeId(1)));
        assert!(s.contains_node(0, NodeId(2)));
        assert_eq!(s.first(0).unwrap().node, NodeId(2));
        s.grow_owners(4);
        assert!(s.is_empty(3));
        s.offer(3, me, peer(7, 7));
        assert_eq!(s.first(0).unwrap().node, NodeId(2), "old owner intact");
        s.clear(0);
        assert!(s.is_empty(0));
    }

    #[test]
    fn finger_pool_set_get_clear() {
        let mut t = FingerPool::new(2);
        assert_eq!(t.get(0, 5), None);
        t.set(0, 5, peer(40, 4));
        assert_eq!(t.get(0, 5), Some(peer(40, 4)));
        assert_eq!(t.populated(0), 1);
        assert_eq!(t.populated(1), 0, "owners are isolated");
        t.clear(0, 5);
        assert_eq!(t.get(0, 5), None);
    }

    #[test]
    fn finger_pool_offer_matches_reference_semantics() {
        let mut t = FingerPool::new(1);
        let me = ChordId(0);
        t.offer(0, me, peer(100, 1));
        for k in 0..=6 {
            assert_eq!(t.get(0, k), Some(peer(100, 1)), "finger {k}");
        }
        assert_eq!(t.get(0, 7), None);
        t.offer(0, me, peer(50, 2)); // closer to the small starts
        for k in 0..=5 {
            assert_eq!(t.get(0, k).unwrap().node, NodeId(2), "finger {k}");
        }
        assert_eq!(t.get(0, 6).unwrap().node, NodeId(1), "start 64: 100 wins");
        t.offer(0, me, peer(0, 9)); // self id ignored
        assert_eq!(t.populated(0), 7);
    }

    #[test]
    fn finger_pool_closest_preceding_scans_from_the_top() {
        let mut t = FingerPool::new(1);
        let me = ChordId(0);
        t.set(0, 3, peer(8, 1));
        t.set(0, 6, peer(70, 2));
        t.set(0, 10, peer(1500, 3));
        assert_eq!(
            t.closest_preceding(0, me, ChordId(1000)).unwrap().node,
            NodeId(2)
        );
        assert_eq!(
            t.closest_preceding(0, me, ChordId(9)).unwrap().node,
            NodeId(1)
        );
        assert_eq!(t.closest_preceding(0, me, ChordId(5)), None);
    }

    #[test]
    fn finger_pool_remove_node_and_distinct() {
        let mut t = FingerPool::new(1);
        let me = ChordId(0);
        t.offer(0, me, peer(100, 1));
        t.offer(0, me, peer(1 << 20, 2));
        assert_eq!(t.distinct_peers(0).len(), 2);
        let cleared = t.remove_node(0, NodeId(1));
        assert!(cleared >= 7);
        assert!(t.distinct_peers(0).iter().all(|p| p.node != NodeId(1)));
        assert_eq!(t.remove_node(0, NodeId(1)), 0);
    }
}

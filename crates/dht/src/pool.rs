//! Pooled (struct-of-arrays) successor lists, finger tables and death
//! tombstones.
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
//!   bitmask and a one-word mask of run starts, identical semantics to
//!   `FingerTable`.
//! * [`TombstonePool`] — a `SlotTable` of death tombstones plus a per-node
//!   count of the owners holding one.
//!
//! Most of what the Chord books are asked under churn changes nothing: an
//! offer of a peer already listed, a finger offer to a converged table, a
//! tombstone probe for a live node. Each pool answers those without the
//! scan the reference makes, and each shortcut is exact:
//!
//! * **Successor offers search before they scan.** The insert position is
//!   found by binary search first; a candidate at or past capacity, or
//!   whose position already holds its id, is rejected with no change,
//!   which is what the reference does for both. Only the rest pay the
//!   duplicate-node scan. A stabilize reply's list arrives nearly in
//!   distance order, so [`SuccessorPool::offer_all`] finds each of its
//!   positions by walking on from the previous one instead.
//!   [`SuccessorPool::closest_preceding`] finds a routing hop by the same
//!   binary search.
//! * **Fingers are offered one run at a time.** A converged table is a few
//!   runs of one repeated peer. With `d = me.distance_to(p.id)`, peer `p`
//!   lies in finger `k`'s range `[start(k), me)` exactly when `d >= 2^k`,
//!   so inside a run holding `cur` at distance `dc` the reference's test
//!   `start.distance_to(p) < start.distance_to(cur)` reduces to `dp < dc`
//!   while `cur` is in range, and always holds above `floor(log2 dc)`,
//!   where `cur` is out of range: one comparison settles a whole run.
//!   A stabilize reply merges the replier's whole successor list into the
//!   table, so [`FingerPool::offer_all`] takes the list as one batch: after
//!   offering a batch one peer at a time, finger `k` holds either the
//!   earliest peer of least `d` among those with `d >= 2^k`, or its previous
//!   entry if that entry beats this peer (an entry out of range, put there
//!   by `set`, always loses). So one pass over the batch and one step per
//!   run leave the same table as offering the peers one by one, each of
//!   which checks all 64 fingers. The run mask is not a search structure:
//!   fix-fingers `set` stores wrapped and out-of-range answers, so finger
//!   distances need not be monotone in `k`, and nothing here assumes so.
//! * **A tombstone probe for an unsuspected node is one array read.** The
//!   per-node count of holders is kept exact through every insert, remove,
//!   TTL `retain` and owner `clear`, so a zero count is the table's own
//!   answer.
//!
//! All pools are deterministic by construction (contents depend only on
//! the operation sequence), and all are property-tested against the
//! retained reference models (`SlotTable` for the tombstones) in
//! `tests/proptest_pool.rs` — the flat layout must not change a single
//! decision, because the churn trace digests pinned in
//! `tests/determinism.rs` are gated bit-identical.

use dco_sim::node::NodeId;
use dco_sim::slab::SlotTable;

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
        self.segment(owner).iter().copied()
    }

    /// `owner`'s entries, nearest first, as a slice.
    fn segment(&self, owner: usize) -> &[Peer] {
        let base = owner * self.cap;
        &self.peers[base..base + self.lens[owner] as usize]
    }

    /// Offers a candidate to `owner` (whose ring position is `me`). It is
    /// inserted in distance order — ignoring the owner itself and
    /// duplicates — and the list is truncated to capacity. Returns `true`
    /// if the candidate was retained.
    ///
    /// The insert position is found first, by binary search. A candidate
    /// whose position is at or past capacity, or whose position already
    /// holds its id, is rejected there; only the rest pay the full scan
    /// for a duplicate node. Each early rejection returns `false` and
    /// changes nothing, as the reference does for both a duplicate and a
    /// candidate past capacity, so the order of the checks is not
    /// observable. (The segment's ids are distinct and sorted by
    /// distance, so an entry with `p.id` can only sit at that position.)
    pub fn offer(&mut self, owner: usize, me: ChordId, p: Peer) -> bool {
        if p.id == me {
            return false;
        }
        let d = me.distance_to(p.id);
        let pos = self
            .segment(owner)
            .partition_point(|q| me.distance_to(q.id) < d);
        self.insert_at(owner, p, pos)
    }

    /// Offers a batch to `owner` one by one, in slice order, and leaves
    /// exactly the list that calling [`SuccessorPool::offer`] for each
    /// leaves. A stabilize reply's list arrives nearly sorted by distance
    /// from `owner` (it is sorted from the replier, one hop on), so each
    /// insert position is found by walking on from the previous one while
    /// the distances ascend, and from the head again where they fall. The
    /// walk finds the same position as the search: an offer changes
    /// nothing before its own position, so every entry the walk has passed
    /// is still nearer than the next, farther candidate.
    pub fn offer_all(&mut self, owner: usize, me: ChordId, batch: &[Peer]) {
        let (mut pos, mut last) = (0, 0);
        for &p in batch {
            if p.id == me {
                continue;
            }
            let d = me.distance_to(p.id);
            if d < last {
                pos = 0;
            }
            last = d;
            let seg = self.segment(owner);
            while pos < seg.len() && me.distance_to(seg[pos].id) < d {
                pos += 1;
            }
            self.insert_at(owner, p, pos);
        }
    }

    /// Inserts `p` at `pos`, the first of `owner`'s entries not nearer
    /// than `p`, unless it is a duplicate or `pos` is past capacity.
    fn insert_at(&mut self, owner: usize, p: Peer, pos: usize) -> bool {
        let seg = self.segment(owner);
        if pos >= self.cap || seg.get(pos).is_some_and(|q| q.id == p.id) {
            return false;
        }
        if seg.iter().any(|q| q.node == p.node) {
            return false;
        }
        // Shift the tail right one slot (dropping the last entry when the
        // segment is full — the Vec insert + truncate of the reference).
        let base = owner * self.cap;
        let end = (seg.len() + 1).min(self.cap);
        self.peers
            .copy_within(base + pos..base + end - 1, base + pos + 1);
        self.peers[base + pos] = p;
        self.lens[owner] = end as u32;
        true
    }

    /// `owner`'s farthest entry strictly between `me` and `key` clockwise
    /// (`key == me` denotes the whole ring), if any. The entries are sorted
    /// by distance and none is at `me`, so it is the last one whose
    /// distance is below `key`'s, found by binary search.
    pub fn closest_preceding(&self, owner: usize, me: ChordId, key: ChordId) -> Option<Peer> {
        let seg = self.segment(owner);
        let dk = me.distance_to(key);
        let n = if dk == 0 {
            seg.len()
        } else {
            seg.partition_point(|q| me.distance_to(q.id) < dk)
        };
        n.checked_sub(1).map(|i| seg[i])
    }

    /// Drops `owner`'s entries for a peer by simulator address. Returns
    /// `true` if an entry was removed.
    pub fn remove_node(&mut self, owner: usize, node: NodeId) -> bool {
        // Node ids are distinct within a segment: at most one entry goes.
        let Some(i) = self.segment(owner).iter().position(|q| q.node == node) else {
            return false;
        };
        let base = owner * self.cap;
        let len = self.lens[owner] as usize;
        self.peers.copy_within(base + i + 1..base + len, base + i);
        self.lens[owner] -= 1;
        true
    }

    /// True if `owner`'s list contains this simulator address.
    pub fn contains_node(&self, owner: usize, node: NodeId) -> bool {
        self.iter(owner).any(|p| p.node == node)
    }
}

/// A pool of per-owner finger tables: 64 `Peer` slots each with a one-word
/// presence bitmask — the exact semantics of
/// [`crate::finger::FingerTable`], flattened.
///
/// A second word per owner marks where its runs start: bit `k` is set when
/// finger `k` differs from finger `k - 1` (a different peer, or one present
/// and the other absent; bit 0 is always set). A converged table is a few
/// runs of one repeated peer — every low finger holds the successor — so
/// the offers, removals and routing queries below visit one run at a time
/// instead of one finger at a time. Every write keeps the mask exact (it
/// is recomputed at both edges of the written span), so the mask never
/// changes an answer, only how many fingers are looked at.
#[derive(Clone, Debug)]
pub struct FingerPool {
    peers: Vec<Peer>,
    masks: Vec<u64>,
    runs: Vec<u64>,
}

const STRIDE: usize = ID_BITS as usize;

/// Bits `lo..=hi` of a word.
fn span(lo: u32, hi: u32) -> u64 {
    (u64::MAX >> (63 - (hi - lo))) << lo
}

impl FingerPool {
    /// A pool for `owners` owners.
    pub fn new(owners: usize) -> Self {
        FingerPool {
            peers: vec![blank(); owners * STRIDE],
            masks: vec![0; owners],
            runs: vec![1; owners],
        }
    }

    /// Grows the pool to at least `owners` owners (new owners start empty).
    pub fn grow_owners(&mut self, owners: usize) {
        if owners > self.masks.len() {
            self.peers.resize(owners * STRIDE, blank());
            self.masks.resize(owners, 0);
            self.runs.resize(owners, 1);
        }
    }

    /// Drops all of `owner`'s fingers (rejoin under a reused slot).
    pub fn clear_owner(&mut self, owner: usize) {
        self.masks[owner] = 0;
        self.runs[owner] = 1;
    }

    /// Sets `owner`'s finger `k`. Setting the entry it already holds is a
    /// no-op.
    pub fn set(&mut self, owner: usize, k: u32, peer: Peer) {
        if self.get(owner, k) != Some(peer) {
            self.set_range(owner, k, k, peer);
        }
    }

    /// Clears `owner`'s finger `k`.
    pub fn clear(&mut self, owner: usize, k: u32) {
        if self.masks[owner] & (1 << k) != 0 {
            self.masks[owner] &= !(1 << k);
            self.mark(owner, k);
            self.mark(owner, k + 1);
        }
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

    /// Sets `owner`'s fingers `lo..=hi` (`lo <= hi < 64`) to `p`.
    pub(crate) fn set_range(&mut self, owner: usize, lo: u32, hi: u32, p: Peer) {
        let base = owner * STRIDE;
        self.peers[base + lo as usize..=base + hi as usize].fill(p);
        let bits = span(lo, hi);
        self.masks[owner] |= bits;
        self.runs[owner] &= !bits;
        self.mark(owner, lo);
        self.mark(owner, hi + 1);
    }

    /// Recomputes run-start bit `k` of `owner` from fingers `k - 1` and `k`.
    fn mark(&mut self, owner: usize, k: u32) {
        if k >= ID_BITS {
            return; // there is no finger 64
        }
        if k > 0 && self.get(owner, k - 1) == self.get(owner, k) {
            self.runs[owner] &= !(1 << k);
        } else {
            self.runs[owner] |= 1 << k;
        }
    }

    /// The last finger of the run that holds finger `k`: every finger in
    /// `k..=run_end(k)` equals finger `k`.
    fn run_end(&self, owner: usize, k: u32) -> u32 {
        let above = self.runs[owner] & (u64::MAX << k << 1);
        if above == 0 {
            ID_BITS - 1
        } else {
            above.trailing_zeros() - 1
        }
    }

    /// Offers a batch of peers to `owner` (ring position `me`) and leaves
    /// exactly the table that offering them one by one, in slice order,
    /// leaves: a peer becomes finger `k` whenever it lies in
    /// `[start(k), me)` and is closer to `start(k)` than the current entry.
    /// A single offer is a batch of one (`slice::from_ref`).
    ///
    /// With `d = me.distance_to(p.id)`, `p` lies in `[start(k), me)`
    /// exactly when `d >= 2^k`, so sequential offers leave finger `k`
    /// holding either the earliest peer of least `d` among those with
    /// `d >= 2^k` or the current entry, whichever wins the test
    /// `start.distance_to(p) < start.distance_to(cur)` (ties keep the
    /// current entry; one that is out of range always loses). Grouping the
    /// peers by `floor(log2 d)` finds that candidate for every `k` at once:
    /// it is the best peer of the lowest non-empty group at or above `k`,
    /// because the groups split the distances into ascending ranges.
    ///
    /// The test is then settled for a whole run of fingers holding one
    /// entry `cur` at distance `dc`. Inside `p`'s range both distances to
    /// `start(k)` are `d - 2^k` while `cur` is in range too, so `p` wins
    /// there exactly when `dp < dc`; above `floor(log2 dc)` `cur` is out of
    /// range and `p` always wins. So `p` takes the whole run if `dp < dc`
    /// and otherwise only the run's fingers above `floor(log2 dc)`. One pass
    /// over the batch and one step per run, where offering one by one
    /// checks all 64 fingers per peer.
    pub fn offer_all(&mut self, owner: usize, me: ChordId, batch: &[Peer]) {
        // best[g]: index into `batch` of the earliest peer of least `d`
        // with floor(log2 d) == g; `groups` marks the non-empty ones.
        let mut best = [0u32; STRIDE];
        let mut groups = 0u64;
        for (i, p) in batch.iter().enumerate() {
            let d = me.distance_to(p.id);
            if d == 0 {
                continue; // the owner itself lies in no finger's range
            }
            let g = 63 - d.leading_zeros();
            if groups & (1 << g) == 0 || d < me.distance_to(batch[best[g as usize] as usize].id) {
                best[g as usize] = i as u32;
                groups |= 1 << g;
            }
        }
        let mut k = 0;
        while k < ID_BITS && groups >> k != 0 {
            let g = k + (groups >> k).trailing_zeros();
            let p = batch[best[g as usize] as usize];
            let dp = me.distance_to(p.id);
            // `p` is the candidate for every finger from `k` up to `g`;
            // settle it one run at a time.
            let mut a = k;
            while a <= g {
                let end = self.run_end(owner, a).min(g);
                let from = match self.get(owner, a) {
                    None => a,
                    Some(cur) => {
                        let dc = me.distance_to(cur.id);
                        // 64 - lz(dc) is floor(log2 dc) + 1, and 0 for an
                        // entry at `me` itself, which is in no range.
                        if dp < dc {
                            a
                        } else {
                            a.max(64 - dc.leading_zeros())
                        }
                    }
                };
                if from <= end {
                    self.set_range(owner, from, end, p);
                }
                a = end + 1;
            }
            k = g + 1;
        }
    }

    /// Drops every finger of `owner` pointing at `node`. Returns how many
    /// entries were cleared.
    pub fn remove_node(&mut self, owner: usize, node: NodeId) -> usize {
        let mut cleared = 0;
        let mut starts = self.runs[owner] & self.masks[owner];
        while starts != 0 {
            let a = starts.trailing_zeros();
            starts &= starts - 1;
            if self.peers[owner * STRIDE + a as usize].node == node {
                let end = self.run_end(owner, a);
                self.masks[owner] &= !span(a, end);
                self.mark(owner, a);
                self.mark(owner, end + 1);
                cleared += (end - a + 1) as usize;
            }
        }
        cleared
    }

    /// `owner`'s populated finger whose ID most closely **precedes** `key`
    /// clockwise from `me` — the next hop of greedy routing. `None` if no
    /// finger lies strictly between `me` and `key`.
    pub fn closest_preceding(&self, owner: usize, me: ChordId, key: ChordId) -> Option<Peer> {
        // Highest populated run first: the reference scans the 64-entry
        // table from the far end down, and a run is one peer.
        let mut starts = self.runs[owner] & self.masks[owner];
        while starts != 0 {
            let k = 63 - starts.leading_zeros();
            starts &= !(1u64 << k);
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
        let mut starts = self.runs[owner] & self.masks[owner];
        while starts != 0 {
            let k = starts.trailing_zeros();
            starts &= starts - 1;
            let f = self.peers[owner * STRIDE + k as usize];
            if !out.iter().any(|p| p.node == f.node) {
                out.push(f);
            }
        }
        out
    }
}

/// Death tombstones per (owner, node), valued by declaration tick — a
/// [`SlotTable`] with a per-node count of the owners holding a tombstone
/// for that node.
///
/// Nearly every probe asks about a node that no owner suspects (a message
/// from a live peer, a peer learned from gossip), while each owner's
/// segment holds every death inside the gossip TTL. The count answers that
/// common case with one array read; only a node some owner suspects pays
/// the owner's linear scan. The count is exact: every path that adds or
/// drops an entry (insert of a new key, remove, a `retain` that drops,
/// `clear` of a whole owner, which is how a reused slot starts empty)
/// moves it by one per entry, and refreshing an existing entry does not
/// move it. So "count zero" means "no owner holds it" and the probe's
/// answers are the table's.
#[derive(Clone, Debug)]
pub struct TombstonePool {
    table: SlotTable<u64>,
    /// Owners holding a tombstone, per suspected node index.
    holders: Vec<u32>,
}

impl TombstonePool {
    /// A pool for `owners` owners, `stride` tombstones each before the
    /// table's stride doubles.
    pub fn new(owners: usize, stride: usize) -> Self {
        TombstonePool {
            table: SlotTable::new(owners, stride),
            holders: vec![0; owners],
        }
    }

    /// Grows the pool to at least `owners` owners (new owners start empty).
    pub fn grow_owners(&mut self, owners: usize) {
        self.table.grow_owners(owners);
        if owners > self.holders.len() {
            self.holders.resize(owners, 0);
        }
    }

    /// How many owners hold a tombstone for `node`.
    pub fn holders(&self, node: NodeId) -> u32 {
        self.holders.get(node.index()).copied().unwrap_or(0)
    }

    /// True if `owner` holds a tombstone for `node`.
    #[inline]
    pub fn contains(&self, owner: usize, node: NodeId) -> bool {
        self.holders(node) != 0 && self.table.contains(owner, node.0)
    }

    /// Tombstones `node` at `owner` with declaration tick `tick`, or
    /// refreshes the tick of the tombstone it already holds.
    pub fn insert(&mut self, owner: usize, node: NodeId, tick: u64) {
        if self.table.insert(owner, node.0, tick).is_none() {
            if node.index() >= self.holders.len() {
                self.holders.resize(node.index() + 1, 0);
            }
            self.holders[node.index()] += 1;
        }
    }

    /// Lifts `owner`'s tombstone for `node`. Returns `true` if there was
    /// one.
    pub fn remove(&mut self, owner: usize, node: NodeId) -> bool {
        if self.holders(node) == 0 || self.table.remove(owner, node.0).is_none() {
            return false;
        }
        self.holders[node.index()] -= 1;
        true
    }

    /// Keeps only `owner`'s tombstones for which `f(node, tick)` holds.
    pub fn retain(&mut self, owner: usize, mut f: impl FnMut(NodeId, u64) -> bool) {
        let holders = &mut self.holders;
        self.table.retain(owner, |key, tick| {
            let keep = f(NodeId(key), tick);
            if !keep {
                holders[key as usize] -= 1;
            }
            keep
        });
    }

    /// Drops all of `owner`'s tombstones (join or rejoin under a reused
    /// slot, or the owner's departure).
    pub fn clear(&mut self, owner: usize) {
        self.retain(owner, |_, _| false);
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
        t.offer_all(0, me, &[peer(100, 1)]);
        for k in 0..=6 {
            assert_eq!(t.get(0, k), Some(peer(100, 1)), "finger {k}");
        }
        assert_eq!(t.get(0, 7), None);
        t.offer_all(0, me, &[peer(50, 2)]); // closer to the small starts
        for k in 0..=5 {
            assert_eq!(t.get(0, k).unwrap().node, NodeId(2), "finger {k}");
        }
        assert_eq!(t.get(0, 6).unwrap().node, NodeId(1), "start 64: 100 wins");
        t.offer_all(0, me, &[peer(0, 9)]); // self id ignored
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
        t.offer_all(0, me, &[peer(100, 1)]);
        t.offer_all(0, me, &[peer(1 << 20, 2)]);
        assert_eq!(t.distinct_peers(0).len(), 2);
        let cleared = t.remove_node(0, NodeId(1));
        assert!(cleared >= 7);
        assert!(t.distinct_peers(0).iter().all(|p| p.node != NodeId(1)));
        assert_eq!(t.remove_node(0, NodeId(1)), 0);
    }
}

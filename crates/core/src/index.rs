//! Coordinator index tables and provider selection (§III-B2, Fig. 3).
//!
//! "Each coordinator maintains an index table where each entry holds the
//! indices of a chunk. A chunk index includes the chunk's ID, name, the IP
//! address of its holder node, the chunk owner's buffer map and available
//! bandwidth." On a `Lookup(ID)`, the coordinator "responds … a chunk
//! provider with sufficient available bandwidth for the chunk transmission".
//!
//! [`IndexTable`] wraps the DHT [`KeyStore`] with chunk-index semantics:
//! registration refresh, holder removal (departure/failure), and the
//! sufficient-bandwidth selection rule with a round-robin tiebreak so load
//! spreads across equally capable providers. A `Random` policy is provided
//! as the ablation baseline.

use dco_dht::id::ChordId;
use dco_dht::store::KeyStore;
use dco_sim::net::Kbps;
use dco_sim::node::NodeId;
use dco_sim::rng::SimRng;

use crate::chunk::ChunkSeq;

/// The index's hash maps use std's SipHash with fixed keys instead of a
/// per-process random seed: a map's tombstones and growth timing depend on
/// its hashes, so with random keys the same run allocated different bytes
/// from one process to the next. Nothing iterates these maps, so the
/// hasher moves no decision.
type FixedState = std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>;
type Map<K, V> = std::collections::HashMap<K, V, FixedState>;

/// One row of a coordinator's index table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkIndex {
    /// The chunk this index advertises.
    pub seq: ChunkSeq,
    /// The provider holding the chunk.
    pub holder: NodeId,
    /// The provider's advertised spare upload bandwidth.
    pub avail: Kbps,
    /// How many chunks the provider held when it registered (a compact
    /// stand-in for the full buffer map the paper stores per index).
    pub held_count: u32,
}

// Placeholder row for the store's inline small-vec slots; never observed
// (the store only exposes `vals[..len]`).
impl Default for ChunkIndex {
    fn default() -> Self {
        ChunkIndex {
            seq: ChunkSeq(0),
            holder: NodeId(0),
            avail: Kbps(0),
            held_count: 0,
        }
    }
}

/// Provider-selection policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectPolicy {
    /// The paper's rule: among providers whose advertised bandwidth covers
    /// the stream rate, rotate round-robin; if none qualify, take the one
    /// with the most spare bandwidth.
    SufficientBandwidth,
    /// Ablation: uniformly random provider, ignoring bandwidth.
    Random,
    /// Extension (the paper's future-work "optimal peer selection"):
    /// always the provider advertising the most spare bandwidth,
    /// tie-broken by the smallest holdings (spreads load toward nodes
    /// serving little).
    LeastLoaded,
}

/// Largest exclusion list served by the O(1) selection fast path. The
/// protocol excludes at most the requester and one dead provider; anything
/// longer falls back to the (equivalent) scanning path.
const MAX_FAST_EXCLUDE: usize = 2;
/// Entries tracked for degraded-mode selection. Deletions shrink the
/// tracked prefix, so it is kept comfortably larger than
/// `MAX_FAST_EXCLUDE + 1` to make refill rebuilds rare.
const TOP_K: usize = 8;

/// Tombstoned positions tolerated before the per-key state is rebuilt
/// from scratch. Amortizes the rebuild across that many removals while
/// keeping the position-translation walk a few cache lines.
const MAX_DELETED: usize = 64;

/// Per-key acceleration state. At scale a chunk's provider list approaches
/// the whole population, and the figures workload issues millions of
/// selections, registrations and failure-driven removals against it —
/// linear scans over those lists dominate the simulator's wall clock. This
/// index answers each in O(1) cache lines while reproducing the scanning
/// semantics bit-for-bit.
///
/// Positions are **virtual**: assigned once at registration and never
/// shifted by removals. A removal only records its virtual position in the
/// sorted `deleted` list; the physical index of a live entry is its
/// virtual position minus the deleted positions below it. Virtual order
/// equals physical order for live entries, so rank arithmetic (round-robin
/// selection, sufficiency counting) works directly on virtual positions.
#[derive(Clone, Debug)]
struct KeyAux {
    /// Holder → virtual position. Maintained unconditionally.
    pos: Map<u32, u32>,
    /// Virtual positions removed since the last rebuild, ascending.
    deleted: Vec<u32>,
    /// Virtual position for the next registration.
    virt_len: u32,
    /// The bandwidth floor `suff`/`top` were built for (selection passes a
    /// constant floor in practice; a change forces one rebuild).
    floor: Option<Kbps>,
    /// Virtual positions of entries with `avail >= floor`, ascending.
    suff: Vec<u32>,
    /// The best live entries by `(avail, virtual position)`, descending.
    /// Invariant: exactly the live entries ranking above `top_bound` (all
    /// of them when `top_bound` is `None`), so the array is always a
    /// correct prefix of the full ranking even after deletions shrink it.
    top: [(Kbps, u32); TOP_K],
    top_len: u8,
    /// Eviction watermark: entries at or below this rank once fell off the
    /// array, so the array only covers the ranking above it.
    top_bound: Option<(Kbps, u32)>,
}

impl Default for KeyAux {
    fn default() -> Self {
        KeyAux {
            pos: Map::default(),
            deleted: Vec::new(),
            virt_len: 0,
            floor: None,
            suff: Vec::new(),
            top: [(Kbps(0), 0); TOP_K],
            top_len: 0,
            top_bound: None,
        }
    }
}

impl KeyAux {
    /// Builds the holder→position map for `entries` (floor fields unbuilt).
    fn from_entries(entries: &[ChunkIndex]) -> Self {
        let mut aux = KeyAux {
            virt_len: entries.len() as u32,
            ..KeyAux::default()
        };
        for (p, e) in entries.iter().enumerate() {
            aux.pos.insert(e.holder.0, p as u32);
        }
        aux
    }

    /// Physical index of the live entry at virtual position `virt`.
    fn physical(&self, virt: u32) -> usize {
        virt as usize - self.deleted.partition_point(|&d| d < virt)
    }

    /// (Re)builds the floor-dependent fields for `floor`. Entries are
    /// walked physically while reconstructing virtual coordinates.
    fn rebuild_for(&mut self, entries: &[ChunkIndex], floor: Kbps) {
        self.floor = Some(floor);
        self.suff.clear();
        self.top_len = 0;
        self.top_bound = None;
        let mut del = 0usize;
        let mut virt = 0u32;
        for e in entries {
            while self.deleted.get(del) == Some(&virt) {
                del += 1;
                virt += 1;
            }
            if e.avail >= floor {
                self.suff.push(virt);
            }
            self.top_insert(e.avail, virt);
            virt += 1;
        }
    }

    /// Registers a new tail entry, returning its virtual position.
    fn push_entry(&mut self, holder: NodeId, avail: Kbps) -> u32 {
        let virt = self.virt_len;
        self.virt_len += 1;
        self.pos.insert(holder.0, virt);
        if let Some(f) = self.floor {
            if avail >= f {
                self.suff.push(virt);
            }
            self.top_insert(avail, virt);
        }
        virt
    }

    /// Tombstones the entry at virtual position `virt` (already absent
    /// from `pos`). Returns `false` when the tombstone budget is exhausted
    /// and the caller should drop the aux instead.
    fn delete(&mut self, virt: u32, avail: Kbps) -> bool {
        if self.deleted.len() >= MAX_DELETED {
            return false;
        }
        let at = self.deleted.partition_point(|&d| d < virt);
        self.deleted.insert(at, virt);
        if let Some(f) = self.floor {
            if avail >= f {
                let r = self.suff.binary_search(&virt).expect("sufficient position");
                self.suff.remove(r);
            }
            // Shrink the top prefix: the remaining array is still exactly
            // the live ranking above `top_bound`.
            let len = self.top_len as usize;
            if let Some(i) = self.top[..len].iter().position(|&(_, p)| p == virt) {
                self.top.copy_within(i + 1..len, i);
                self.top_len -= 1;
            }
        }
        true
    }

    /// Inserts into the descending `(avail, position)` top prefix,
    /// evicting (and recording) the overflowing tail entry.
    fn top_insert(&mut self, avail: Kbps, p: u32) {
        let key = (avail, p);
        if let Some(b) = self.top_bound {
            if key < b {
                return; // Below the watermark; the prefix is unaffected.
            }
        }
        let len = self.top_len as usize;
        if len == TOP_K {
            let evicted = self.top[TOP_K - 1];
            if key < evicted {
                self.top_bound = Some(key.max(self.top_bound.unwrap_or(key)));
                return;
            }
            self.top_bound = Some(evicted);
        }
        let mut i = len.min(TOP_K - 1);
        while i > 0 && (self.top[i - 1].0, self.top[i - 1].1) < key {
            self.top[i] = self.top[i - 1];
            i -= 1;
        }
        self.top[i] = (avail, p);
        self.top_len = (len + 1).min(TOP_K) as u8;
    }

    /// Degraded-mode pick: the maximal `(avail, virtual position)` among
    /// live entries not in `ex`. `None` means the tracked prefix was
    /// exhausted and the caller must rebuild first.
    fn degraded_pick(&self, ex: &[u32]) -> Option<u32> {
        let found = self.top[..self.top_len as usize]
            .iter()
            .find(|(_, p)| !ex.contains(p));
        match found {
            Some(&(_, p)) => Some(p),
            None => {
                debug_assert!(
                    self.top_bound.is_some(),
                    "an unbounded top prefix covers every live entry"
                );
                None
            }
        }
    }
}

/// A coordinator's index table.
#[derive(Clone, Debug)]
pub struct IndexTable {
    store: KeyStore<ChunkIndex>,
    /// Round-robin cursor per chunk key.
    cursors: Map<u64, usize>,
    /// Selection/registration fast-path state per chunk key. Dropped (and
    /// lazily rebuilt) on the rare mutations that shift positions.
    aux: Map<u64, KeyAux>,
}

impl Default for IndexTable {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexTable {
    /// An empty table.
    pub fn new() -> Self {
        IndexTable {
            store: KeyStore::new(),
            cursors: Map::default(),
            aux: Map::default(),
        }
    }

    /// Registers (or refreshes) a chunk index. A holder re-registering the
    /// same chunk updates its bandwidth advertisement in place.
    pub fn register(&mut self, key: ChordId, idx: ChunkIndex) {
        let entries = self.store.get(key);
        if !entries.is_empty() {
            let aux = self
                .aux
                .entry(key.0)
                .or_insert_with(|| KeyAux::from_entries(entries));
            if let Some(&virt) = aux.pos.get(&idx.holder.0) {
                // Refresh in place; the avail change invalidates the
                // floor-dependent fields (rebuilt on the next selection).
                aux.floor = None;
                let phys = aux.physical(virt);
                let entries = self.store.get_mut(key).expect("non-empty above");
                debug_assert_eq!(entries[phys].holder, idx.holder, "aux position drift");
                entries[phys] = idx;
                return;
            }
        }
        self.store.insert(key, idx);
        match self.aux.entry(key.0) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                o.get_mut().push_entry(idx.holder, idx.avail);
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(KeyAux::from_entries(self.store.get(key)));
            }
        }
    }

    /// Removes one holder's index for `key`. Returns `true` if present.
    pub fn remove_holder(&mut self, key: ChordId, holder: NodeId) -> bool {
        let Some(entries) = self.store.get_mut(key) else {
            return false;
        };
        match self.aux.get_mut(&key.0) {
            Some(aux) => {
                // O(1) membership verdict from the aux, then a positional
                // removal — no holder scan.
                let Some(virt) = aux.pos.remove(&holder.0) else {
                    return false;
                };
                let phys = aux.physical(virt);
                debug_assert_eq!(entries[phys].holder, holder, "aux position drift");
                let avail = entries[phys].avail;
                entries.remove(phys);
                if !aux.delete(virt, avail) {
                    // Tombstone budget exhausted; rebuild lazily on next use.
                    self.aux.remove(&key.0);
                }
                true
            }
            None => {
                let before = entries.len();
                entries.retain(|e| e.holder != holder);
                entries.len() != before
            }
        }
    }

    /// Removes a holder from **every** entry (graceful-departure cleanup on
    /// a coordinator that received a deregistration without a key list).
    pub fn purge_holder(&mut self, holder: NodeId) -> usize {
        self.aux.clear();
        let mut removed = 0;
        self.store.retain_values(|_, e| {
            if e.holder == holder {
                removed += 1;
                false
            } else {
                true
            }
        });
        removed
    }

    /// All indices registered under `key`.
    pub fn providers(&self, key: ChordId) -> &[ChunkIndex] {
        self.store.get(key)
    }

    /// Number of distinct chunk keys with at least one provider.
    pub fn key_count(&self) -> usize {
        self.store.key_count()
    }

    /// Total registered indices.
    pub fn index_count(&self) -> usize {
        self.store.value_count()
    }

    /// Picks a provider for `key` under `policy`, excluding `exclude`
    /// (e.g. the requester itself, or a provider just reported dead).
    ///
    /// `floor` is the stream rate the provider must sustain.
    pub fn select(
        &mut self,
        key: ChordId,
        floor: Kbps,
        policy: SelectPolicy,
        exclude: &[NodeId],
        rng: &mut SimRng,
    ) -> Option<ChunkIndex> {
        if policy == SelectPolicy::SufficientBandwidth && exclude.len() <= MAX_FAST_EXCLUDE {
            return self.select_sufficient_fast(key, floor, exclude);
        }
        self.select_scan(key, floor, policy, exclude, rng)
    }

    /// The paper's sufficient-bandwidth rule answered from [`KeyAux`] in
    /// O(1) cache lines — candidate counting, round-robin rank selection
    /// and the degraded-mode maximum all reproduce [`Self::select_scan`]
    /// exactly (checked by a debug assertion and a property test).
    fn select_sufficient_fast(
        &mut self,
        key: ChordId,
        floor: Kbps,
        exclude: &[NodeId],
    ) -> Option<ChunkIndex> {
        let entries = self.store.get(key);
        if entries.is_empty() {
            return None;
        }
        let aux = self
            .aux
            .entry(key.0)
            .or_insert_with(|| KeyAux::from_entries(entries));
        if aux.floor != Some(floor) {
            aux.rebuild_for(entries, floor);
        }
        // Excluded holders actually present, as sorted unique virtual
        // positions (virtual order equals candidate order).
        let mut ex = [0u32; MAX_FAST_EXCLUDE];
        let mut ex_n = 0;
        for h in exclude {
            if let Some(&p) = aux.pos.get(&h.0) {
                if !ex[..ex_n].contains(&p) {
                    ex[ex_n] = p;
                    ex_n += 1;
                }
            }
        }
        ex[..ex_n].sort_unstable();
        let n_candidates = entries.len() - ex_n;
        if n_candidates == 0 {
            return None;
        }
        // Ranks (within `suff`) of excluded sufficient entries, ascending.
        let mut n_sufficient = aux.suff.len();
        let mut ex_ranks = [0usize; MAX_FAST_EXCLUDE];
        let mut exr_n = 0;
        for &p in &ex[..ex_n] {
            if entries[aux.physical(p)].avail >= floor {
                let r = aux.suff.binary_search(&p).expect("sufficient position");
                ex_ranks[exr_n] = r;
                exr_n += 1;
                n_sufficient -= 1;
            }
        }
        let picked = if n_sufficient == 0 {
            // Degraded mode: the last maximal-avail candidate, i.e. the
            // max by `(avail, position)`. Deletions may have exhausted the
            // tracked prefix; rebuild it first if so.
            let virt = match aux.degraded_pick(&ex[..ex_n]) {
                Some(v) => v,
                None => {
                    aux.rebuild_for(entries, floor);
                    aux.degraded_pick(&ex[..ex_n])
                        .expect("a non-excluded candidate exists")
                }
            };
            entries[aux.physical(virt)]
        } else {
            let cursor = self.cursors.entry(key.0).or_insert(0);
            let i = *cursor % n_sufficient;
            *cursor = cursor.wrapping_add(1);
            // The i-th sufficient candidate = the j-th entry of `suff`
            // after skipping the excluded ranks (ascending adjustment).
            let mut j = i;
            for &r in &ex_ranks[..exr_n] {
                if r <= j {
                    j += 1;
                }
            }
            entries[aux.physical(aux.suff[j])]
        };
        debug_assert_eq!(
            Some(picked),
            {
                let candidates = || entries.iter().filter(|e| !exclude.contains(&e.holder));
                let n_suff_scan = candidates().filter(|e| e.avail >= floor).count();
                if n_suff_scan == 0 {
                    candidates().max_by_key(|e| e.avail).copied()
                } else {
                    // The fast path already advanced the cursor by one.
                    let cur = self.cursors.get(&key.0).copied().unwrap_or(1);
                    candidates()
                        .filter(|e| e.avail >= floor)
                        .nth(cur.wrapping_sub(1) % n_suff_scan)
                        .copied()
                }
            },
            "fast selection must reproduce the scanning rule"
        );
        Some(picked)
    }

    /// Reference scanning selection: one counting pass over the provider
    /// slice, then an index-addressed second pass — same candidate order
    /// (and therefore the same RNG draws and round-robin picks) as the
    /// collect-into-Vec formulation this replaces.
    fn select_scan(
        &mut self,
        key: ChordId,
        floor: Kbps,
        policy: SelectPolicy,
        exclude: &[NodeId],
        rng: &mut SimRng,
    ) -> Option<ChunkIndex> {
        let entries = self.store.get(key);
        let candidates = || entries.iter().filter(|e| !exclude.contains(&e.holder));
        let n_candidates = candidates().count();
        if n_candidates == 0 {
            return None;
        }
        match policy {
            SelectPolicy::Random => {
                let i = rng.gen_range(0..n_candidates);
                candidates().nth(i).copied()
            }
            SelectPolicy::SufficientBandwidth => {
                let n_sufficient = candidates().filter(|e| e.avail >= floor).count();
                if n_sufficient == 0 {
                    // Degraded mode: the least-loaded holder.
                    return candidates().max_by_key(|e| e.avail).copied();
                }
                let cursor = self.cursors.entry(key.0).or_insert(0);
                let i = *cursor % n_sufficient;
                *cursor = cursor.wrapping_add(1);
                candidates().filter(|e| e.avail >= floor).nth(i).copied()
            }
            SelectPolicy::LeastLoaded => candidates()
                .max_by_key(|e| (e.avail, std::cmp::Reverse(e.held_count)))
                .copied(),
        }
    }

    /// Drains the whole table for a handover (coordinator departure), as
    /// `(key, indices)` pairs.
    pub fn drain_all(&mut self) -> Vec<(ChordId, Vec<ChunkIndex>)> {
        self.cursors.clear();
        self.aux.clear();
        self.store.extract_range(ChordId(0), ChordId(0))
    }

    /// Removes and returns the entries in the clockwise arc `(from, to]`
    /// (ownership split when a new coordinator joins).
    pub fn extract_range(&mut self, from: ChordId, to: ChordId) -> Vec<(ChordId, Vec<ChunkIndex>)> {
        self.aux.clear();
        self.store.extract_range(from, to)
    }

    /// Bulk-inserts handed-over entries.
    pub fn absorb(&mut self, entries: Vec<(ChordId, Vec<ChunkIndex>)>) {
        for (key, idxs) in entries {
            for idx in idxs {
                self.register(key, idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(holder: u32, avail: u32) -> ChunkIndex {
        ChunkIndex {
            seq: ChunkSeq(1),
            holder: NodeId(holder),
            avail: Kbps(avail),
            held_count: 1,
        }
    }

    const KEY: ChordId = ChordId(42);
    const FLOOR: Kbps = Kbps(300);

    #[test]
    fn register_and_refresh() {
        let mut t = IndexTable::new();
        t.register(KEY, idx(1, 600));
        t.register(KEY, idx(2, 600));
        assert_eq!(t.providers(KEY).len(), 2);
        // Refresh in place.
        t.register(KEY, idx(1, 100));
        assert_eq!(t.providers(KEY).len(), 2);
        let e = t
            .providers(KEY)
            .iter()
            .find(|e| e.holder == NodeId(1))
            .unwrap();
        assert_eq!(e.avail, Kbps(100));
        assert_eq!(t.key_count(), 1);
        assert_eq!(t.index_count(), 2);
    }

    #[test]
    fn remove_and_purge() {
        let mut t = IndexTable::new();
        t.register(KEY, idx(1, 600));
        t.register(ChordId(43), idx(1, 600));
        t.register(KEY, idx(2, 600));
        assert!(t.remove_holder(KEY, NodeId(1)));
        assert!(!t.remove_holder(KEY, NodeId(1)));
        assert_eq!(t.purge_holder(NodeId(1)), 1, "remaining entry under 43");
        assert_eq!(t.index_count(), 1);
    }

    #[test]
    fn sufficient_bandwidth_round_robin() {
        let mut t = IndexTable::new();
        t.register(KEY, idx(1, 600));
        t.register(KEY, idx(2, 500));
        t.register(KEY, idx(3, 100)); // below floor
        let mut rng = SimRng::seed_from_u64(1);
        let picks: Vec<u32> = (0..4)
            .map(|_| {
                t.select(KEY, FLOOR, SelectPolicy::SufficientBandwidth, &[], &mut rng)
                    .unwrap()
                    .holder
                    .0
            })
            .collect();
        assert_eq!(picks, vec![1, 2, 1, 2], "rotates among sufficient only");
    }

    #[test]
    fn degraded_mode_picks_least_loaded() {
        let mut t = IndexTable::new();
        t.register(KEY, idx(1, 50));
        t.register(KEY, idx(2, 200));
        let mut rng = SimRng::seed_from_u64(1);
        let p = t
            .select(KEY, FLOOR, SelectPolicy::SufficientBandwidth, &[], &mut rng)
            .unwrap();
        assert_eq!(p.holder, NodeId(2), "no one sufficient ⇒ max avail");
    }

    #[test]
    fn exclusion_list_respected() {
        let mut t = IndexTable::new();
        t.register(KEY, idx(1, 600));
        t.register(KEY, idx(2, 600));
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..5 {
            let p = t
                .select(
                    KEY,
                    FLOOR,
                    SelectPolicy::SufficientBandwidth,
                    &[NodeId(1)],
                    &mut rng,
                )
                .unwrap();
            assert_eq!(p.holder, NodeId(2));
        }
        assert!(t
            .select(
                KEY,
                FLOOR,
                SelectPolicy::SufficientBandwidth,
                &[NodeId(1), NodeId(2)],
                &mut rng
            )
            .is_none());
    }

    #[test]
    fn random_policy_covers_all_candidates() {
        let mut t = IndexTable::new();
        for h in 1..=3 {
            t.register(KEY, idx(h, 10)); // all below floor; Random ignores
        }
        let mut rng = SimRng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(
                t.select(KEY, FLOOR, SelectPolicy::Random, &[], &mut rng)
                    .unwrap()
                    .holder
                    .0,
            );
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn least_loaded_picks_max_avail_then_fewest_held() {
        let mut t = IndexTable::new();
        t.register(KEY, idx(1, 400));
        t.register(KEY, idx(2, 600));
        t.register(
            KEY,
            ChunkIndex {
                seq: ChunkSeq(1),
                holder: NodeId(3),
                avail: Kbps(600),
                held_count: 99,
            },
        );
        let mut rng = SimRng::seed_from_u64(4);
        let p = t
            .select(KEY, FLOOR, SelectPolicy::LeastLoaded, &[], &mut rng)
            .unwrap();
        assert_eq!(p.holder, NodeId(2), "600 kbps beats 400; 1 held beats 99");
    }

    #[test]
    fn empty_key_selects_none() {
        let mut t = IndexTable::new();
        let mut rng = SimRng::seed_from_u64(1);
        assert!(t
            .select(KEY, FLOOR, SelectPolicy::SufficientBandwidth, &[], &mut rng)
            .is_none());
    }

    #[test]
    fn drain_and_absorb_round_trip() {
        let mut a = IndexTable::new();
        a.register(KEY, idx(1, 600));
        a.register(ChordId(99), idx(2, 500));
        let drained = a.drain_all();
        assert_eq!(a.index_count(), 0);
        let mut b = IndexTable::new();
        b.absorb(drained);
        assert_eq!(b.index_count(), 2);
        assert_eq!(b.providers(KEY).len(), 1);
    }

    #[test]
    fn extract_range_splits_ownership() {
        let mut t = IndexTable::new();
        t.register(ChordId(10), idx(1, 600));
        t.register(ChordId(20), idx(2, 600));
        t.register(ChordId(30), idx(3, 600));
        let moved = t.extract_range(ChordId(10), ChordId(20));
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].0, ChordId(20));
        assert_eq!(t.index_count(), 2);
    }
}

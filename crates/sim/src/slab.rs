//! Struct-of-arrays slabs for per-node protocol state.
//!
//! At N = 100k nodes, giving every node its own `HashMap` / `Vec` turns the
//! per-node bookkeeping (pending-request tables, neighbor lists, client
//! lists) into hundreds of thousands of small heap allocations: slow to
//! build, slow to walk, and a large constant factor of live bytes in
//! allocator overhead. The two containers here pool that state for *all*
//! nodes into a handful of flat arrays indexed by `u32` handles:
//!
//! * [`SlotTable`] — one small key→value table per owner, packed into a
//!   fixed-stride segment of two parallel arrays. Built for tables whose
//!   occupancy is tiny and bounded (a node's in-flight fetches, capped by
//!   `MAX_INFLIGHT`): lookups are linear scans over a handful of adjacent
//!   slots, which beats hashing at these sizes and allocates nothing after
//!   construction (the stride doubles — one realloc — in the rare case an
//!   owner outgrows it).
//! * [`ListSlab`] — one insertion-ordered list per owner, as linked chains
//!   through a shared element pool with an internal free list (mesh
//!   neighbor sets, a coordinator's client roster).
//!
//! Both are deterministic by construction: contents and iteration order
//! depend only on the operation sequence, never on addresses or hash
//! seeds, so converting a protocol onto them must not move a single event
//! (the pinned trace digests in `tests/determinism.rs` hold across the
//! conversion).

/// A pool of small per-owner key→value tables in two flat parallel arrays.
///
/// Owner `o`'s entries live packed (unordered) in
/// `keys[o * stride .. o * stride + len[o]]` and the matching `vals` slots.
/// Not a map for big tables — every probe is a linear scan of the owner's
/// segment — but for the single-digit occupancies it is built for, the
/// scan is a couple of cache lines with no hashing and no per-owner
/// allocation.
#[derive(Clone, Debug)]
pub struct SlotTable<V: Copy + Default> {
    stride: usize,
    keys: Vec<u32>,
    vals: Vec<V>,
    lens: Vec<u32>,
}

impl<V: Copy + Default> SlotTable<V> {
    /// A table pool for `owners` owners, `stride` slots each (rounded up
    /// to 1; doubles automatically if an owner outgrows it).
    pub fn new(owners: usize, stride: usize) -> Self {
        let stride = stride.max(1);
        SlotTable {
            stride,
            keys: vec![0; owners * stride],
            vals: vec![V::default(); owners * stride],
            lens: vec![0; owners],
        }
    }

    /// Number of owners.
    pub fn owners(&self) -> usize {
        self.lens.len()
    }

    /// Current slots per owner.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Entries held by `owner`.
    pub fn len(&self, owner: usize) -> usize {
        self.lens[owner] as usize
    }

    /// True if `owner` holds no entries.
    pub fn is_empty(&self, owner: usize) -> bool {
        self.lens[owner] == 0
    }

    /// Position of `key` within `owner`'s packed segment.
    #[inline]
    fn find(&self, owner: usize, key: u32) -> Option<usize> {
        let base = owner * self.stride;
        let len = self.lens[owner] as usize;
        self.keys[base..base + len]
            .iter()
            .position(|&k| k == key)
            .map(|i| base + i)
    }

    /// True if `owner` has an entry for `key`.
    #[inline]
    pub fn contains(&self, owner: usize, key: u32) -> bool {
        self.find(owner, key).is_some()
    }

    /// The value `owner` maps `key` to, if present.
    #[inline]
    pub fn get(&self, owner: usize, key: u32) -> Option<V> {
        self.find(owner, key).map(|i| self.vals[i])
    }

    /// Inserts `key → val` for `owner`, returning the value it replaced.
    pub fn insert(&mut self, owner: usize, key: u32, val: V) -> Option<V> {
        if let Some(i) = self.find(owner, key) {
            return Some(core::mem::replace(&mut self.vals[i], val));
        }
        if self.lens[owner] as usize == self.stride {
            self.grow_stride();
        }
        let i = owner * self.stride + self.lens[owner] as usize;
        self.keys[i] = key;
        self.vals[i] = val;
        self.lens[owner] += 1;
        None
    }

    /// Removes `owner`'s entry for `key`, returning its value.
    pub fn remove(&mut self, owner: usize, key: u32) -> Option<V> {
        let i = self.find(owner, key)?;
        let last = owner * self.stride + self.lens[owner] as usize - 1;
        let val = self.vals[i];
        // Packed segment: swap the last entry into the hole.
        self.keys[i] = self.keys[last];
        self.vals[i] = self.vals[last];
        self.lens[owner] -= 1;
        Some(val)
    }

    /// Drops all of `owner`'s entries (O(1): the segment is length-tracked).
    pub fn clear(&mut self, owner: usize) {
        self.lens[owner] = 0;
    }

    /// Keeps only `owner`'s entries for which `f(key, value)` holds.
    ///
    /// Removal uses the same swap-from-the-end compaction as
    /// [`SlotTable::remove`], so the segment's *internal* order may change —
    /// callers must treat the table as unordered (every current caller
    /// does; the per-entry decisions are independent of position).
    pub fn retain(&mut self, owner: usize, mut f: impl FnMut(u32, V) -> bool) {
        let base = owner * self.stride;
        let mut i = 0;
        while i < self.lens[owner] as usize {
            if f(self.keys[base + i], self.vals[base + i]) {
                i += 1;
            } else {
                let last = base + self.lens[owner] as usize - 1;
                self.keys[base + i] = self.keys[last];
                self.vals[base + i] = self.vals[last];
                self.lens[owner] -= 1;
            }
        }
    }

    /// Grows the pool to at least `owners` owners (new owners start empty).
    /// Existing segments are untouched: owner segments are laid out
    /// contiguously, so appending owners only extends the arrays.
    pub fn grow_owners(&mut self, owners: usize) {
        if owners > self.lens.len() {
            self.keys.resize(owners * self.stride, 0);
            self.vals.resize(owners * self.stride, V::default());
            self.lens.resize(owners, 0);
        }
    }

    /// Doubles every owner's segment. Rare by design — occupancy is meant
    /// to be bounded well below the initial stride.
    fn grow_stride(&mut self) {
        let new_stride = self.stride * 2;
        let owners = self.lens.len();
        let mut keys = vec![0u32; owners * new_stride];
        let mut vals = vec![V::default(); owners * new_stride];
        for o in 0..owners {
            let len = self.lens[o] as usize;
            let (src, dst) = (o * self.stride, o * new_stride);
            keys[dst..dst + len].copy_from_slice(&self.keys[src..src + len]);
            vals[dst..dst + len].copy_from_slice(&self.vals[src..src + len]);
        }
        self.stride = new_stride;
        self.keys = keys;
        self.vals = vals;
    }
}

const NIL: u32 = u32::MAX;

/// A pool of per-owner insertion-ordered `u32` lists: linked chains through
/// one shared element arena with an internal free list.
///
/// `push_back` appends in O(1); `remove` unlinks the first match with a
/// walk, preserving the order of the rest — exactly the semantics of the
/// `Vec<NodeId>` + `retain` idiom it replaces, without one heap allocation
/// per owner.
#[derive(Clone, Debug)]
pub struct ListSlab {
    heads: Vec<u32>,
    tails: Vec<u32>,
    lens: Vec<u32>,
    /// Element pool: `vals[i]` / `next[i]`; unused slots are chained on
    /// `free`.
    vals: Vec<u32>,
    next: Vec<u32>,
    free: u32,
}

impl ListSlab {
    /// An empty list pool for `owners` owners, with room for `capacity`
    /// elements before the pool reallocates.
    pub fn new(owners: usize, capacity: usize) -> Self {
        ListSlab {
            heads: vec![NIL; owners],
            tails: vec![NIL; owners],
            lens: vec![0; owners],
            vals: Vec::with_capacity(capacity),
            next: Vec::with_capacity(capacity),
            free: NIL,
        }
    }

    /// Number of owners.
    pub fn owners(&self) -> usize {
        self.heads.len()
    }

    /// Elements in `owner`'s list.
    pub fn len(&self, owner: usize) -> usize {
        self.lens[owner] as usize
    }

    /// True if `owner`'s list is empty.
    pub fn is_empty(&self, owner: usize) -> bool {
        self.lens[owner] == 0
    }

    fn alloc(&mut self, val: u32) -> u32 {
        if self.free != NIL {
            let i = self.free;
            self.free = self.next[i as usize];
            self.vals[i as usize] = val;
            self.next[i as usize] = NIL;
            i
        } else {
            self.vals.push(val);
            self.next.push(NIL);
            (self.vals.len() - 1) as u32
        }
    }

    fn release(&mut self, i: u32) {
        self.next[i as usize] = self.free;
        self.free = i;
    }

    /// Appends `val` to `owner`'s list (no dedup — pair with
    /// [`ListSlab::contains`] for set semantics).
    pub fn push_back(&mut self, owner: usize, val: u32) {
        let i = self.alloc(val);
        match self.tails[owner] {
            NIL => self.heads[owner] = i,
            t => self.next[t as usize] = i,
        }
        self.tails[owner] = i;
        self.lens[owner] += 1;
    }

    /// True if `owner`'s list contains `val`.
    pub fn contains(&self, owner: usize, val: u32) -> bool {
        self.iter(owner).any(|v| v == val)
    }

    /// Unlinks the first occurrence of `val` in `owner`'s list, preserving
    /// the order of the remaining elements. Returns whether anything was
    /// removed.
    pub fn remove(&mut self, owner: usize, val: u32) -> bool {
        let mut prev = NIL;
        let mut cur = self.heads[owner];
        while cur != NIL {
            if self.vals[cur as usize] == val {
                let after = self.next[cur as usize];
                if prev == NIL {
                    self.heads[owner] = after;
                } else {
                    self.next[prev as usize] = after;
                }
                if self.tails[owner] == cur {
                    self.tails[owner] = prev;
                }
                self.lens[owner] -= 1;
                self.release(cur);
                return true;
            }
            prev = cur;
            cur = self.next[cur as usize];
        }
        false
    }

    /// Empties `owner`'s list, returning its elements to the pool.
    pub fn clear(&mut self, owner: usize) {
        let mut cur = self.heads[owner];
        while cur != NIL {
            let after = self.next[cur as usize];
            self.release(cur);
            cur = after;
        }
        self.heads[owner] = NIL;
        self.tails[owner] = NIL;
        self.lens[owner] = 0;
    }

    /// Iterates `owner`'s list in insertion order.
    pub fn iter(&self, owner: usize) -> ListIter<'_> {
        ListIter {
            slab: self,
            cur: self.heads[owner],
        }
    }
}

/// Iterator over one [`ListSlab`] list, in insertion order.
pub struct ListIter<'a> {
    slab: &'a ListSlab,
    cur: u32,
}

impl Iterator for ListIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.cur == NIL {
            return None;
        }
        let v = self.slab.vals[self.cur as usize];
        self.cur = self.slab.next[self.cur as usize];
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_table_map_semantics() {
        let mut t: SlotTable<u32> = SlotTable::new(3, 2);
        assert_eq!(t.owners(), 3);
        assert!(t.is_empty(1));
        assert_eq!(t.insert(1, 10, 100), None);
        assert_eq!(t.insert(1, 20, 200), None);
        assert_eq!(t.insert(1, 10, 111), Some(100), "replace returns old");
        assert_eq!(t.len(1), 2);
        assert_eq!(t.get(1, 10), Some(111));
        assert_eq!(t.get(1, 99), None);
        assert!(t.contains(1, 20));
        assert!(!t.contains(0, 10), "owners are isolated");
        assert_eq!(t.remove(1, 10), Some(111));
        assert_eq!(t.remove(1, 10), None);
        assert_eq!(t.len(1), 1);
        t.clear(1);
        assert!(t.is_empty(1));
        assert!(!t.contains(1, 20));
    }

    #[test]
    fn slot_table_grows_stride_on_overflow() {
        let mut t: SlotTable<u32> = SlotTable::new(2, 2);
        t.insert(0, 1, 1);
        t.insert(1, 9, 9);
        for k in 2..20u32 {
            t.insert(0, k, k * 10);
        }
        assert!(t.stride() >= 19, "stride doubled past demand");
        assert_eq!(t.len(0), 19);
        for k in 2..20u32 {
            assert_eq!(t.get(0, k), Some(k * 10), "survived relayout");
        }
        assert_eq!(t.get(1, 9), Some(9), "other owners survived relayout");
    }

    #[test]
    fn slot_table_retain_filters_per_owner() {
        let mut t: SlotTable<u32> = SlotTable::new(2, 8);
        for k in 0..6u32 {
            t.insert(0, k, k * 10);
        }
        t.insert(1, 99, 1);
        t.retain(0, |k, v| {
            assert_eq!(v, k * 10, "value paired with its key");
            k % 2 == 0
        });
        assert_eq!(t.len(0), 3);
        for k in [0u32, 2, 4] {
            assert_eq!(t.get(0, k), Some(k * 10), "kept key {k}");
        }
        for k in [1u32, 3, 5] {
            assert_eq!(t.get(0, k), None, "dropped key {k}");
        }
        assert_eq!(t.get(1, 99), Some(1), "other owners untouched");
        t.retain(0, |_, _| false);
        assert!(t.is_empty(0));
    }

    #[test]
    fn slot_table_grow_owners_preserves_segments() {
        let mut t: SlotTable<u32> = SlotTable::new(2, 4);
        t.insert(0, 7, 70);
        t.insert(1, 8, 80);
        t.grow_owners(5);
        assert_eq!(t.owners(), 5);
        assert_eq!(t.get(0, 7), Some(70));
        assert_eq!(t.get(1, 8), Some(80));
        assert!(t.is_empty(4));
        t.insert(4, 1, 11);
        assert_eq!(t.get(4, 1), Some(11));
        t.grow_owners(3); // shrink request is a no-op
        assert_eq!(t.owners(), 5);
    }

    #[test]
    fn slot_table_unit_values_work_as_a_set() {
        let mut s: SlotTable<()> = SlotTable::new(2, 4);
        assert_eq!(s.insert(0, 7, ()), None);
        assert_eq!(s.insert(0, 7, ()), Some(()));
        assert!(s.contains(0, 7));
        assert_eq!(s.remove(0, 7), Some(()));
        assert!(!s.contains(0, 7));
    }

    #[test]
    fn list_slab_preserves_insertion_order() {
        let mut l = ListSlab::new(2, 4);
        for v in [5u32, 3, 9, 3] {
            l.push_back(0, v);
        }
        l.push_back(1, 42);
        assert_eq!(l.iter(0).collect::<Vec<_>>(), vec![5, 3, 9, 3]);
        assert_eq!(l.iter(1).collect::<Vec<_>>(), vec![42]);
        assert_eq!(l.len(0), 4);
        assert!(l.contains(0, 9));
        assert!(!l.contains(1, 9));
    }

    #[test]
    fn list_slab_remove_unlinks_first_match_only() {
        let mut l = ListSlab::new(1, 4);
        for v in [5u32, 3, 9, 3] {
            l.push_back(0, v);
        }
        assert!(l.remove(0, 3));
        assert_eq!(l.iter(0).collect::<Vec<_>>(), vec![5, 9, 3]);
        assert!(l.remove(0, 5), "head removal");
        assert!(l.remove(0, 3), "tail removal");
        assert_eq!(l.iter(0).collect::<Vec<_>>(), vec![9]);
        assert!(!l.remove(0, 77));
        // Tail pointer still valid after tail removal.
        l.push_back(0, 8);
        assert_eq!(l.iter(0).collect::<Vec<_>>(), vec![9, 8]);
    }

    #[test]
    fn list_slab_reuses_freed_slots() {
        let mut l = ListSlab::new(2, 8);
        for v in 0..6u32 {
            l.push_back(0, v);
        }
        let pool = l.vals.len();
        l.clear(0);
        assert!(l.is_empty(0));
        for v in 10..16u32 {
            l.push_back(1, v);
        }
        assert_eq!(l.vals.len(), pool, "freed slots recycled, no growth");
        assert_eq!(l.iter(1).collect::<Vec<_>>(), vec![10, 11, 12, 13, 14, 15]);
    }

    #[test]
    fn list_slab_interleaved_owners_stay_isolated() {
        let mut l = ListSlab::new(3, 2);
        for i in 0..30u32 {
            l.push_back((i % 3) as usize, i);
        }
        for o in 0..3usize {
            let got: Vec<u32> = l.iter(o).collect();
            let want: Vec<u32> = (0..30).filter(|i| (*i % 3) as usize == o).collect();
            assert_eq!(got, want, "owner {o}");
        }
        l.remove(1, 4);
        assert_eq!(l.len(1), 9);
        assert_eq!(l.len(0), 10);
    }
}

//! Key-addressed storage with ring-range transfer.
//!
//! A Chord node stores the values whose keys fall in its ownership arc
//! `(predecessor, me]`. On membership change, a contiguous **clockwise
//! range** of keys moves to a new owner; [`KeyStore::extract_range`]
//! implements that split (including the wrap-around case).
//!
//! Values are multi-valued per key because DCO stores *many* chunk indices
//! under one chunk ID (one per provider).
//!
//! Storage is a pair of parallel sorted vectors (keys + value lists) rather
//! than a `BTreeMap`: lookups binary-search one contiguous key array — a
//! cache-friendly layout for the lookup-dominated DHT hot path — and
//! in-order iteration is a linear walk. Key counts per node are small (one
//! per stored chunk ID), so the O(n) shift on inserting a *new* key is
//! cheaper than the tree's node churn; appending to an existing key's value
//! list (the common case while providers register) touches only that list.

use dco_sim::smallvec::SmallVec;

use crate::id::ChordId;

/// The per-key value list: inline for the 1–2-provider common case,
/// heap-spilled for hot keys with many providers.
pub type ValueList<V> = SmallVec<V, 2>;

/// Multi-valued storage keyed by ring position.
#[derive(Clone, Debug)]
pub struct KeyStore<V: Copy + Default> {
    /// Distinct keys, sorted ascending.
    keys: Vec<ChordId>,
    /// `vals[i]` holds the values stored under `keys[i]` (never empty).
    vals: Vec<ValueList<V>>,
}

impl<V: Copy + Default> Default for KeyStore<V> {
    fn default() -> Self {
        KeyStore {
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }
}

impl<V: Copy + Default> KeyStore<V> {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of `key`, or where it would be inserted.
    #[inline]
    fn slot(&self, key: ChordId) -> Result<usize, usize> {
        self.keys.binary_search(&key)
    }

    /// Appends a value under `key`.
    pub fn insert(&mut self, key: ChordId, value: V) {
        match self.slot(key) {
            Ok(i) => self.vals[i].push(value),
            Err(i) => {
                let mut vs = ValueList::new();
                vs.push(value);
                self.keys.insert(i, key);
                self.vals.insert(i, vs);
            }
        }
    }

    /// All values under `key` (empty slice if absent).
    pub fn get(&self, key: ChordId) -> &[V] {
        match self.slot(key) {
            Ok(i) => &self.vals[i],
            Err(_) => &[],
        }
    }

    /// Mutable access to the values under `key`, if any.
    pub fn get_mut(&mut self, key: ChordId) -> Option<&mut ValueList<V>> {
        match self.slot(key) {
            Ok(i) => Some(&mut self.vals[i]),
            Err(_) => None,
        }
    }

    /// Keeps only the values for which `pred` holds; drops emptied keys.
    pub fn retain_values(&mut self, mut pred: impl FnMut(ChordId, &V) -> bool) {
        let mut kept = 0;
        for i in 0..self.keys.len() {
            let k = self.keys[i];
            self.vals[i].retain(|v| pred(k, v));
            if !self.vals[i].is_empty() {
                self.keys.swap(kept, i);
                self.vals.swap(kept, i);
                kept += 1;
            }
        }
        self.keys.truncate(kept);
        self.vals.truncate(kept);
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Total number of stored values.
    pub fn value_count(&self) -> usize {
        self.vals.iter().map(|v| v.len()).sum()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates `(key, values)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (ChordId, &[V])> + '_ {
        self.keys
            .iter()
            .zip(&self.vals)
            .map(|(&k, v)| (k, v.as_slice()))
    }

    /// Removes and returns every entry whose key lies in the clockwise
    /// half-open arc `(from, to]` — the ownership range handed to a new
    /// owner. Handles wrap-around; when `from == to` the whole store moves
    /// (single-member ring convention). Returned entries are in ascending
    /// key order.
    pub fn extract_range(&mut self, from: ChordId, to: ChordId) -> Vec<(ChordId, Vec<V>)> {
        let mut moved = Vec::new();
        let mut kept = 0;
        for i in 0..self.keys.len() {
            if self.keys[i].in_open_closed(from, to) {
                moved.push((self.keys[i], std::mem::take(&mut self.vals[i]).into_vec()));
            } else {
                self.keys.swap(kept, i);
                self.vals.swap(kept, i);
                kept += 1;
            }
        }
        self.keys.truncate(kept);
        self.vals.truncate(kept);
        moved
    }

    /// Bulk-inserts entries produced by [`KeyStore::extract_range`] on
    /// another node.
    pub fn absorb(&mut self, entries: Vec<(ChordId, Vec<V>)>) {
        for (k, vs) in entries {
            if vs.is_empty() {
                continue;
            }
            match self.slot(k) {
                Ok(i) => self.vals[i].extend(vs),
                Err(i) => {
                    self.keys.insert(i, k);
                    self.vals.insert(i, vs.into_iter().collect());
                }
            }
        }
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.vals.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> KeyStore<&'static str> {
        let mut s = KeyStore::new();
        s.insert(ChordId(10), "a");
        s.insert(ChordId(10), "b");
        s.insert(ChordId(100), "c");
        s.insert(ChordId(1000), "d");
        s
    }

    #[test]
    fn insert_get_multivalue() {
        let s = store();
        assert_eq!(s.get(ChordId(10)), &["a", "b"]);
        assert_eq!(s.get(ChordId(100)), &["c"]);
        assert_eq!(s.get(ChordId(5)), &[] as &[&str]);
        assert_eq!(s.key_count(), 3);
        assert_eq!(s.value_count(), 4);
        assert!(!s.is_empty());
    }

    #[test]
    fn retain_values_drops_empty_keys() {
        let mut s = store();
        s.retain_values(|_, v| *v != "a" && *v != "c");
        assert_eq!(s.get(ChordId(10)), &["b"]);
        assert_eq!(s.key_count(), 2, "key 100 dropped once emptied");
    }

    #[test]
    fn retain_keeps_key_order() {
        let mut s = store();
        s.retain_values(|_, v| *v != "c");
        let keys: Vec<u64> = s.iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, vec![10, 1000]);
        s.insert(ChordId(500), "e");
        let keys: Vec<u64> = s.iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, vec![10, 500, 1000], "still sorted after reinsert");
    }

    #[test]
    fn extract_simple_range() {
        let mut s = store();
        let moved = s.extract_range(ChordId(10), ChordId(100));
        // (10, 100]: only key 100 (10 itself excluded).
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].0, ChordId(100));
        assert_eq!(s.key_count(), 2);
    }

    #[test]
    fn extract_wrapping_range() {
        let mut s = store();
        // (1000, 10] wraps through zero: moves key 10 only.
        let moved = s.extract_range(ChordId(1000), ChordId(10));
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].0, ChordId(10));
    }

    #[test]
    fn extract_full_ring_when_degenerate() {
        let mut s = store();
        let moved = s.extract_range(ChordId(7), ChordId(7));
        assert_eq!(moved.len(), 3, "from == to moves everything");
        assert!(s.is_empty());
    }

    #[test]
    fn extract_preserves_remaining_order() {
        let mut s = KeyStore::new();
        for k in [5u64, 15, 25, 35, 45] {
            s.insert(ChordId(k), k);
        }
        // (10, 30] removes 15 and 25; 5, 35, 45 stay sorted.
        let moved = s.extract_range(ChordId(10), ChordId(30));
        assert_eq!(
            moved.iter().map(|(k, _)| k.0).collect::<Vec<_>>(),
            vec![15, 25]
        );
        let keys: Vec<u64> = s.iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, vec![5, 35, 45]);
    }

    #[test]
    fn absorb_merges() {
        let mut a = store();
        let mut b = KeyStore::new();
        b.insert(ChordId(100), "x");
        b.absorb(a.extract_range(ChordId(10), ChordId(100)));
        assert_eq!(b.get(ChordId(100)), &["x", "c"]);
    }

    #[test]
    fn iter_in_key_order() {
        let s = store();
        let keys: Vec<u64> = s.iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, vec![10, 100, 1000]);
    }

    #[test]
    fn clear_empties() {
        let mut s = store();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.value_count(), 0);
    }
}

//! Node identity and liveness tracking.
//!
//! Nodes are identified by a dense `u32` index assigned at creation. Dense
//! indices let every per-node table in the engine (bandwidth pipes, RNG
//! streams, liveness bits) be a flat `Vec` with O(1) access — there is no
//! hashing on the hot path.

use core::fmt;

/// A dense node identifier.
///
/// `NodeId(0)` is conventionally the channel server in streaming scenarios,
/// but the engine itself attaches no meaning to any particular index.
/// `Default` (node 0) exists only so `NodeId` satisfies container bounds
/// like [`crate::smallvec::SmallVec`]'s `Copy + Default`.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// A compact liveness bitmap over dense node indices.
///
/// The engine flips a node's bit on join/leave; message delivery to a dead
/// node is silently dropped (protocols observe the loss through their own
/// timeouts, exactly as a real deployment would).
#[derive(Clone, Debug, Default)]
pub struct AliveSet {
    bits: Vec<u64>,
    len: usize,
    alive: usize,
}

impl AliveSet {
    /// An empty set sized for `n` nodes, all initially **dead**.
    pub fn new(n: usize) -> Self {
        AliveSet {
            bits: vec![0; n.div_ceil(64)],
            len: n,
            alive: 0,
        }
    }

    /// Number of node slots tracked.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Number of nodes currently alive.
    #[inline]
    pub fn alive_count(&self) -> usize {
        self.alive
    }

    /// Grows the set to track at least `n` nodes (new slots are dead).
    pub fn grow(&mut self, n: usize) {
        if n > self.len {
            self.bits.resize(n.div_ceil(64), 0);
            self.len = n;
        }
    }

    /// True if `node` is within range and alive.
    #[inline]
    pub fn is_alive(&self, node: NodeId) -> bool {
        let i = node.index();
        i < self.len && (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Marks `node` alive. Returns `true` if the state changed.
    pub fn set_alive(&mut self, node: NodeId) -> bool {
        let i = node.index();
        assert!(i < self.len, "node {node} out of range ({})", self.len);
        let mask = 1u64 << (i % 64);
        let w = &mut self.bits[i / 64];
        if *w & mask == 0 {
            *w |= mask;
            self.alive += 1;
            true
        } else {
            false
        }
    }

    /// Marks `node` dead. Returns `true` if the state changed.
    pub fn set_dead(&mut self, node: NodeId) -> bool {
        let i = node.index();
        assert!(i < self.len, "node {node} out of range ({})", self.len);
        let mask = 1u64 << (i % 64);
        let w = &mut self.bits[i / 64];
        if *w & mask != 0 {
            *w &= !mask;
            self.alive -= 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_formatting() {
        assert_eq!(format!("{}", NodeId(7)), "N7");
        assert_eq!(format!("{:?}", NodeId(7)), "N7");
        assert_eq!(NodeId::from(3u32), NodeId(3));
        assert_eq!(NodeId(9).index(), 9);
    }

    #[test]
    fn alive_set_basic() {
        let mut s = AliveSet::new(130);
        assert_eq!(s.capacity(), 130);
        assert_eq!(s.alive_count(), 0);
        assert!(!s.is_alive(NodeId(0)));

        assert!(s.set_alive(NodeId(0)));
        assert!(s.set_alive(NodeId(64)));
        assert!(s.set_alive(NodeId(129)));
        assert!(!s.set_alive(NodeId(0)), "idempotent set_alive");
        assert_eq!(s.alive_count(), 3);
        assert!(s.is_alive(NodeId(64)));

        assert!(s.set_dead(NodeId(64)));
        assert!(!s.set_dead(NodeId(64)), "idempotent set_dead");
        assert_eq!(s.alive_count(), 2);
        assert!(!s.is_alive(NodeId(64)));
    }

    #[test]
    fn alive_set_out_of_range_is_dead() {
        let s = AliveSet::new(4);
        assert!(!s.is_alive(NodeId(100)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn alive_set_panics_on_oob_write() {
        let mut s = AliveSet::new(4);
        s.set_alive(NodeId(4));
    }

    #[test]
    fn alive_set_grow() {
        let mut s = AliveSet::new(2);
        s.set_alive(NodeId(1));
        s.grow(100);
        assert!(s.is_alive(NodeId(1)));
        assert!(!s.is_alive(NodeId(99)));
        s.set_alive(NodeId(99));
        assert_eq!(s.alive_count(), 2);
    }
}

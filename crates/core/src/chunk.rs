//! Chunk identity and naming.
//!
//! §III-A1: "Each chunk is named uniquely in the format of channel name plus
//! its generation timestamp … The naming mechanism ensures that every chunk
//! name is unique." A chunk's DHT ID is the consistent hash of its name.
//!
//! Internally protocols track chunks by dense sequence number ([`ChunkSeq`]);
//! [`ChunkNamer`] maps sequence numbers to paper-style names and
//! (pre-computed) ring IDs.

use core::fmt;

use dco_dht::hash::hash_name;
use dco_dht::id::ChordId;
use dco_sim::msg::SizeBits;
use dco_sim::time::{SimDuration, SimTime};

/// Media per chunk, and so the server's emission period (§IV: 1-second
/// chunks).
pub const CHUNK_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Chunk payload size (§IV: 300 kb).
pub const CHUNK_SIZE: SizeBits = SizeBits::from_kilobits(300);

/// The newest chunk of an `n_chunks`-chunk stream generated at or before
/// `now` (`None` when the stream is empty). Chunk `k` is generated at
/// `k · CHUNK_INTERVAL`.
pub fn latest_at(now: SimTime, n_chunks: u32) -> Option<ChunkSeq> {
    let k = (now.as_micros() / CHUNK_INTERVAL.as_micros()) as u32;
    n_chunks.checked_sub(1).map(|last| ChunkSeq(k.min(last)))
}

/// Dense chunk sequence number (chunk `k` is generated at
/// `k · CHUNK_INTERVAL`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChunkSeq(pub u32);

impl ChunkSeq {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The next sequence number.
    #[inline]
    pub const fn next(self) -> ChunkSeq {
        ChunkSeq(self.0 + 1)
    }
}

impl fmt::Debug for ChunkSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for ChunkSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Channel naming: maps sequence numbers to `<channel><timestamp>` names
/// and pre-computes their ring IDs.
#[derive(Clone, Debug)]
pub struct ChunkNamer {
    channel: String,
    /// Wall-clock-style timestamp of chunk 0 (the paper uses
    /// `NBC20090101013001`; we keep a numeric epoch-second base).
    base_timestamp: u64,
    /// Pre-computed ring IDs per sequence number.
    ids: Vec<ChordId>,
}

impl ChunkNamer {
    /// A namer for `n_chunks` chunks of channel `channel`, chunk 0
    /// stamped `base_timestamp`.
    pub fn new(channel: &str, base_timestamp: u64, n_chunks: u32) -> Self {
        let mut namer = ChunkNamer {
            channel: channel.to_string(),
            base_timestamp,
            ids: Vec::with_capacity(n_chunks as usize),
        };
        for seq in 0..n_chunks {
            let name = namer.name_of(ChunkSeq(seq));
            namer.ids.push(hash_name(&name));
        }
        namer
    }

    /// The paper-style default: channel `CNN`, 1-second chunks.
    pub fn paper_default(n_chunks: u32) -> Self {
        // 2009-01-01 01:30:01 UTC, the paper's example timestamp.
        ChunkNamer::new("CNN", 1_230_773_401, n_chunks)
    }

    /// The channel name.
    pub fn channel(&self) -> &str {
        &self.channel
    }

    /// Number of pre-computed chunks.
    pub fn n_chunks(&self) -> u32 {
        self.ids.len() as u32
    }

    /// The unique name of chunk `seq`: channel + generation timestamp.
    pub fn name_of(&self, seq: ChunkSeq) -> String {
        let ts = self.base_timestamp + u64::from(seq.0) * CHUNK_INTERVAL.as_secs();
        format!("{}{}", self.channel, ts)
    }

    /// The ring ID of chunk `seq` (pre-computed; panics past `n_chunks`).
    #[inline]
    pub fn id_of(&self, seq: ChunkSeq) -> ChordId {
        self.ids[seq.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_channel_plus_timestamp() {
        let n = ChunkNamer::paper_default(10);
        assert_eq!(n.name_of(ChunkSeq(0)), "CNN1230773401");
        assert_eq!(n.name_of(ChunkSeq(9)), "CNN1230773410");
        assert_eq!(n.channel(), "CNN");
    }

    #[test]
    fn names_are_unique_and_ids_match_hash() {
        let n = ChunkNamer::paper_default(100);
        let mut seen = std::collections::HashSet::new();
        for seq in 0..100 {
            let name = n.name_of(ChunkSeq(seq));
            assert!(seen.insert(name.clone()), "duplicate name {name}");
            assert_eq!(n.id_of(ChunkSeq(seq)), hash_name(&name));
        }
    }

    #[test]
    fn latest_at_schedule() {
        assert_eq!(latest_at(SimTime::ZERO, 10), Some(ChunkSeq(0)));
        assert_eq!(latest_at(SimTime::from_millis(500), 100), Some(ChunkSeq(0)));
        assert_eq!(
            latest_at(SimTime::from_millis(5_500), 10),
            Some(ChunkSeq(5))
        );
        assert_eq!(latest_at(SimTime::from_secs(42), 100), Some(ChunkSeq(42)));
        assert_eq!(
            latest_at(SimTime::from_secs(50), 10),
            Some(ChunkSeq(9)),
            "clamped"
        );
        assert_eq!(latest_at(SimTime::from_secs(5), 0), None, "empty stream");
    }

    #[test]
    fn empty_namer() {
        assert_eq!(ChunkNamer::paper_default(0).n_chunks(), 0);
    }

    #[test]
    fn seq_ordering_and_display() {
        assert!(ChunkSeq(3) < ChunkSeq(5));
        assert_eq!(ChunkSeq(3).next(), ChunkSeq(4));
        assert_eq!(format!("{}", ChunkSeq(8)), "c8");
        assert_eq!(ChunkSeq(8).index(), 8);
    }
}

//! Shipping observer state between shard workers.
//!
//! In a sharded run every worker holds a full-size [`StreamObserver`](crate::StreamObserver) but
//! only fills the slots it owns: receptions are recorded on the receiving
//! node's dispatch (owned by exactly one shard), while generation times and
//! the audience grid are written on the server's dispatch (the server's
//! shard — its shadow-membership view of the alive set is globally
//! consistent, so its audience grid *is* the global one). The orchestrator
//! therefore reassembles the single-process observer exactly: disjoint
//! sparse unions for receptions and generation, a word-wise OR for the
//! audience, plain sums for the duplicate counters. Every figure folded
//! from the merged observer is bit-identical to the one-process run.
//!
//! [`ObserverShard`] is the wire form of one worker's contribution: sparse
//! `(slot, time)` pairs rather than the dense `first_rx` slab, because a
//! worker owns `1/K` of the nodes — at N = 100k / K = 4 that is ~20 MB of
//! pairs instead of an 80 MB slab per worker.

use dco_sim::time::SimTime;
use dco_sim::wire::{WireCodec, WireError, WireReader};

/// One worker's observer contribution, in wire-codable sparse form.
///
/// Produced by [`StreamObserver::export_shard`], folded back with
/// [`StreamObserver::absorb_shard`].
///
/// [`StreamObserver::export_shard`]: crate::StreamObserver::export_shard
/// [`StreamObserver::absorb_shard`]: crate::StreamObserver::absorb_shard
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObserverShard {
    /// Node dimension (identical on every worker).
    pub n_nodes: u64,
    /// Chunk dimension this worker grew to.
    pub n_chunks: u64,
    /// Sparse `(seq, generation time)` records (server shard only).
    pub generated: Vec<(u32, SimTime)>,
    /// Sparse `(seq * n_nodes + node, first reception)` pairs for the
    /// nodes this worker owns.
    pub receptions: Vec<(u64, SimTime)>,
    /// Audience grid row count (server shard only; 0 = no audience data).
    pub expected_rows: u64,
    /// Audience grid word slab (see [`crate::BitGrid::words`]).
    pub expected_words: Vec<u64>,
    /// Folded duplicate receptions on this worker's nodes.
    pub duplicates: u64,
    /// Folded out-of-order receptions on this worker's nodes.
    pub out_of_order: u64,
}

impl WireCodec for ObserverShard {
    fn encode(&self, out: &mut Vec<u8>) {
        self.n_nodes.encode(out);
        self.n_chunks.encode(out);
        self.generated.encode(out);
        self.receptions.encode(out);
        self.expected_rows.encode(out);
        self.expected_words.encode(out);
        self.duplicates.encode(out);
        self.out_of_order.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ObserverShard {
            n_nodes: r.get()?,
            n_chunks: r.get()?,
            generated: r.get()?,
            receptions: r.get()?,
            expected_rows: r.get()?,
            expected_words: r.get()?,
            duplicates: r.get()?,
            out_of_order: r.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamObserver;
    use dco_sim::node::NodeId;
    use dco_sim::time::SimDuration;
    use dco_sim::wire::{decode_exact, encode_to_vec};

    fn t(ms: u64) -> SimTime {
        SimTime::from_micros(ms * 1000)
    }

    /// Replays the same stream once into a single observer and once split
    /// across two "workers" (node ownership: 0–2 vs 3–5; worker 0 plays
    /// the server shard), then checks the merged observer reproduces the
    /// whole record bit-for-bit.
    #[test]
    fn split_export_merge_equals_single_observer() {
        let n = 6usize;
        let owner = |node: NodeId| usize::from(node.0 >= 3);
        let mut whole = StreamObserver::new(n, 0);
        let mut workers = [StreamObserver::new(n, 0), StreamObserver::new(n, 0)];

        for seq in 0..4u32 {
            let gen = t(1000 * u64::from(seq));
            whole.record_generated(seq, gen);
            workers[0].record_generated(seq, gen);
            for node in 1..n as u32 {
                let node = NodeId(node);
                whole.mark_expected(seq, node);
                workers[0].mark_expected(seq, node);
            }
        }
        // Receptions, with a duplicate and an out-of-order replay mixed in.
        for seq in 0..4u32 {
            for node in 1..n as u32 {
                let node = NodeId(node);
                let rx = t(1000 * u64::from(seq) + 500 + 10 * u64::from(node.0));
                whole.record_received(seq, node, rx);
                workers[owner(node)].record_received(seq, node, rx);
                if node.0 == 2 {
                    whole.record_received(seq, node, rx + SimDuration::from_millis(5));
                    workers[owner(node)].record_received(
                        seq,
                        node,
                        rx + SimDuration::from_millis(5),
                    );
                }
                if node.0 == 4 {
                    whole.record_received(seq, node, rx - SimDuration::from_millis(3));
                    workers[owner(node)].record_received(
                        seq,
                        node,
                        rx - SimDuration::from_millis(3),
                    );
                }
            }
        }

        let mut merged = StreamObserver::new(n, 0);
        for w in &workers {
            // Round-trip each export through the wire codec on the way.
            let shard = w.export_shard();
            let back: ObserverShard = decode_exact(&encode_to_vec(&shard)).unwrap();
            assert_eq!(back, shard);
            merged.absorb_shard(&back);
        }

        assert_eq!(merged.n_chunks(), whole.n_chunks());
        assert_eq!(merged.duplicate_receptions(), whole.duplicate_receptions());
        assert_eq!(
            merged.out_of_order_receptions(),
            whole.out_of_order_receptions()
        );
        assert_eq!(merged.audience_pairs(), whole.audience_pairs());
        assert_eq!(merged.received_pairs(), whole.received_pairs());
        for seq in 0..4u32 {
            assert_eq!(merged.generated_at(seq), whole.generated_at(seq));
            for node in 0..n as u32 {
                let node = NodeId(node);
                assert_eq!(merged.received_at(seq, node), whole.received_at(seq, node));
                assert_eq!(merged.is_expected(seq, node), whole.is_expected(seq, node));
            }
        }
        // And the figure fold — the statistic the harness actually reports
        // — is bit-identical.
        let horizon = t(5000);
        let offsets = [SimDuration::from_secs(1), SimDuration::from_secs(2)];
        let a = whole.fold_figures(horizon, &offsets);
        let b = merged.fold_figures(horizon, &offsets);
        assert_eq!(a.received_by_second, b.received_by_second);
        assert_eq!(a.expected_pairs, b.expected_pairs);
        assert_eq!(a.mean_mesh_delay.to_bits(), b.mean_mesh_delay.to_bits());
        assert_eq!(a.received_pct.to_bits(), b.received_pct.to_bits());
        for (x, y) in a.fill_at_offsets.iter().zip(&b.fill_at_offsets) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn empty_shard_absorbs_as_a_no_op() {
        let empty = StreamObserver::new(4, 0).export_shard();
        assert!(empty.generated.is_empty());
        assert!(empty.receptions.is_empty());
        let mut target = StreamObserver::new(4, 2);
        target.mark_expected(1, NodeId(2));
        target.record_received(1, NodeId(2), t(7));
        target.absorb_shard(&empty);
        assert_eq!(target.received_at(1, NodeId(2)), Some(t(7)));
        assert_eq!(target.received_pairs(), 1);
    }

    #[test]
    #[should_panic(expected = "node dimension")]
    fn mismatched_node_dimension_is_rejected() {
        let shard = StreamObserver::new(4, 1).export_shard();
        StreamObserver::new(5, 1).absorb_shard(&shard);
    }
}

//! The stream observer: per-chunk reception bookkeeping.
//!
//! Every streaming protocol in the workspace reports three things to a
//! [`StreamObserver`]:
//!
//! * when the server **generated** each chunk,
//! * which `(chunk, node)` pairs are **expected** (the audience — for the
//!   no-churn experiments every non-server node; under churn, the nodes
//!   alive when the chunk was generated),
//! * when each node first **received** each chunk.
//!
//! All four of the paper's metrics fold out of this record:
//!
//! 1. **Mesh delay** (Fig. 5) — generation → last expected receiver.
//! 2. **Fill ratio** (Figs. 6–7) — fraction of the audience holding a chunk
//!    at a given instant.
//! 3. **Extra overhead** (Figs. 8–10) — read from the engine's
//!    [`Counters`](dco_sim::counters::Counters), not from here.
//! 4. **Percentage of received chunks** (Figs. 11–12) — received pairs over
//!    expected pairs by a deadline.
//!
//! # Memory layout
//!
//! The observer is the largest single data structure of a big run — it is
//! O(nodes × chunks) while everything else is O(nodes) — so its layout is
//! flat by design:
//!
//! * first-arrival instants live in **one contiguous slab** (`first_rx`,
//!   row-major by chunk), not a `Vec` of per-chunk `Vec`s;
//! * the audience matrix is **one bit per pair** ([`BitGrid`]), an 8×
//!   reduction over `Vec<Vec<bool>>`;
//! * duplicate and out-of-order re-receptions are **folded online** into
//!   two counters instead of being retained.
//!
//! At N = 100k nodes × 100 chunks that is ~81 MB in three allocations,
//! versus ~91 MB in ~200 allocations for the nested layout — and the slab
//! never reallocates during a run once sized. The semantics are pinned
//! against the retained nested model
//! ([`reference::RetainedObserver`](crate::reference::RetainedObserver)) by
//! a property test (`crates/metrics/tests/proptest_observer.rs`).

use dco_sim::node::NodeId;
use dco_sim::time::{SimDuration, SimTime, MICROS_PER_SEC};

use crate::bitgrid::BitGrid;

/// Reception record for one simulation run (flat single-slab layout).
#[derive(Clone, Debug)]
pub struct StreamObserver {
    n_nodes: usize,
    /// Generation time per chunk sequence number (MAX = not generated).
    generated: Vec<SimTime>,
    /// `first_rx[seq * n_nodes + node]` = first reception instant
    /// (MAX = never). One allocation, row-major by chunk.
    first_rx: Vec<SimTime>,
    /// Audience bit per `(seq, node)` pair.
    expected: BitGrid,
    /// Re-receptions at or after the recorded first arrival (folded, not
    /// retained).
    duplicates: u64,
    /// Re-receptions that *beat* the recorded arrival (out-of-order
    /// delivery); the earlier instant replaces the slot.
    out_of_order: u64,
}

impl StreamObserver {
    /// An observer for up to `n_nodes` nodes and `n_chunks` chunks.
    pub fn new(n_nodes: usize, n_chunks: usize) -> Self {
        StreamObserver {
            n_nodes,
            generated: vec![SimTime::MAX; n_chunks],
            first_rx: vec![SimTime::MAX; n_chunks * n_nodes],
            expected: BitGrid::new(n_chunks, n_nodes),
            duplicates: 0,
            out_of_order: 0,
        }
    }

    /// Number of chunk slots.
    pub fn n_chunks(&self) -> usize {
        self.generated.len()
    }

    /// Number of node slots.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Re-receptions folded into the record because an earlier-or-equal
    /// arrival was already recorded.
    pub fn duplicate_receptions(&self) -> u64 {
        self.duplicates
    }

    /// Re-receptions that arrived out of order (earlier than the instant
    /// already recorded) and replaced it.
    pub fn out_of_order_receptions(&self) -> u64 {
        self.out_of_order
    }

    /// The first-arrival row for chunk `seq` (length `n_nodes`, MAX =
    /// never received). The slab view the metric folds run over.
    #[inline]
    fn row(&self, seq: usize) -> &[SimTime] {
        &self.first_rx[seq * self.n_nodes..(seq + 1) * self.n_nodes]
    }

    /// Grows the chunk dimension to at least `n` slots.
    pub fn grow_chunks(&mut self, n: usize) {
        if n <= self.generated.len() {
            return;
        }
        self.generated.resize(n, SimTime::MAX);
        self.first_rx.resize(n * self.n_nodes, SimTime::MAX);
        self.expected.grow_rows(n);
    }

    /// Records that chunk `seq` was generated at `t`.
    pub fn record_generated(&mut self, seq: u32, t: SimTime) {
        self.grow_chunks(seq as usize + 1);
        let slot = &mut self.generated[seq as usize];
        debug_assert!(*slot == SimTime::MAX, "chunk {seq} generated twice");
        *slot = t;
    }

    /// Marks `(seq, node)` as part of the audience.
    pub fn mark_expected(&mut self, seq: u32, node: NodeId) {
        self.grow_chunks(seq as usize + 1);
        if node.index() < self.n_nodes {
            self.expected.set(seq as usize, node.index());
        }
    }

    /// Records the first reception of chunk `seq` by `node` at `t`.
    /// Duplicate receptions keep the earliest instant; the later (or
    /// out-of-order earlier) arrivals are folded into counters.
    pub fn record_received(&mut self, seq: u32, node: NodeId, t: SimTime) {
        self.grow_chunks(seq as usize + 1);
        if node.index() >= self.n_nodes {
            return;
        }
        let slot = &mut self.first_rx[seq as usize * self.n_nodes + node.index()];
        if *slot == SimTime::MAX {
            *slot = t;
        } else if t < *slot {
            self.out_of_order += 1;
            *slot = t;
        } else {
            self.duplicates += 1;
        }
    }

    /// Generation time of chunk `seq`, if recorded.
    pub fn generated_at(&self, seq: u32) -> Option<SimTime> {
        let t = *self.generated.get(seq as usize)?;
        (t != SimTime::MAX).then_some(t)
    }

    /// First reception of `seq` by `node`, if any.
    pub fn received_at(&self, seq: u32, node: NodeId) -> Option<SimTime> {
        if node.index() >= self.n_nodes {
            return None;
        }
        let t = *self
            .first_rx
            .get(seq as usize * self.n_nodes + node.index())?;
        (t != SimTime::MAX).then_some(t)
    }

    /// True if `(seq, node)` is in the audience.
    pub fn is_expected(&self, seq: u32, node: NodeId) -> bool {
        self.expected.get(seq as usize, node.index())
    }

    // ------------------------------------------------------------------
    // Figure metrics
    // ------------------------------------------------------------------

    /// Every slab-derived figure statistic, folded in **one** pass over the
    /// reception record: the per-second cumulative reception counts, the
    /// mean mesh delay, the mean fill ratio at each requested offset, and
    /// the percentage received by `horizon`. This is the only place the
    /// paper's slab metrics are computed: every runner, the sharded merge
    /// and the examples read them here.
    ///
    /// At churn scale (N ≥ 50k) the slab is the dominant allocation, so one
    /// walk keeps the extraction phase proportional to the record, not to
    /// the metric count. Every statistic is pinned bit for bit against the
    /// retained reference model
    /// ([`RetainedObserver`](crate::reference::RetainedObserver)) by a
    /// property test (`crates/metrics/tests/proptest_observer.rs`).
    pub fn fold_figures(&self, horizon: SimTime, offsets: &[SimDuration]) -> FigureMetrics {
        let horizon_secs = horizon.as_secs();
        let mut cumulative = vec![0u64; horizon_secs as usize + 1];
        let mut total = 0u64;
        let mut mesh_sum = 0.0f64;
        let mut mesh_n = 0usize;
        let mut fill_sums = vec![0.0f64; offsets.len()];
        let mut fill_counts = vec![0usize; offsets.len()];
        let mut have_by_deadline = 0u64;
        // Per-chunk scratch, reused across iterations.
        let mut have_at_offset = vec![0u64; offsets.len()];
        for seq in 0..self.generated.len() {
            let gen = self.generated[seq];
            if gen == SimTime::MAX {
                continue;
            }
            let row = self.row(seq);
            let mut last = gen;
            let mut missing = false;
            let mut audience = 0u64;
            have_at_offset.iter_mut().for_each(|h| *h = 0);
            for node in self.expected.ones(seq) {
                audience += 1;
                total += 1;
                let t = row[node];
                if t == SimTime::MAX {
                    missing = true;
                    continue;
                }
                last = last.max(t);
                if t <= horizon {
                    have_by_deadline += 1;
                }
                // First whole second at which `t <= from_secs(sec)`.
                let sec = t.as_micros().div_ceil(MICROS_PER_SEC);
                if sec <= horizon_secs {
                    cumulative[sec as usize] += 1;
                }
                for (have, &off) in have_at_offset.iter_mut().zip(offsets) {
                    if t <= gen + off {
                        *have += 1;
                    }
                }
            }
            if audience > 0 {
                // Mesh delay: capped at the horizon if anyone missed out.
                let d = if missing {
                    horizon.saturating_since(gen)
                } else {
                    last - gen
                };
                mesh_sum += d.as_secs_f64();
                mesh_n += 1;
                for ((sum, n), &have) in fill_sums
                    .iter_mut()
                    .zip(fill_counts.iter_mut())
                    .zip(have_at_offset.iter())
                {
                    *sum += have as f64 / audience as f64;
                    *n += 1;
                }
            }
        }
        for i in 1..cumulative.len() {
            cumulative[i] += cumulative[i - 1];
        }
        let mean_of = |sum: f64, n: usize| if n == 0 { 0.0 } else { sum / n as f64 };
        FigureMetrics {
            received_by_second: cumulative,
            expected_pairs: total,
            mean_mesh_delay: mean_of(mesh_sum, mesh_n),
            fill_at_offsets: fill_sums
                .iter()
                .zip(fill_counts.iter())
                .map(|(&s, &n)| mean_of(s, n))
                .collect(),
            received_pct: if total == 0 {
                0.0
            } else {
                100.0 * (have_by_deadline as f64 / total as f64)
            },
        }
    }

    /// Total expected `(chunk, node)` pairs.
    pub fn expected_pairs(&self) -> usize {
        self.expected.count_ones()
    }

    /// Total received expected pairs (any time).
    pub fn received_pairs(&self) -> usize {
        let mut n = 0;
        for seq in 0..self.generated.len() {
            let row = self.row(seq);
            for node in self.expected.ones(seq) {
                if row[node] != SimTime::MAX {
                    n += 1;
                }
            }
        }
        n
    }

    // ------------------------------------------------------------------
    // Sharded-run export / merge
    // ------------------------------------------------------------------

    /// Exports this observer's filled slots in sparse wire form for a
    /// shard worker (see [`crate::shard::ObserverShard`]). A worker only
    /// fills the reception slots of the nodes it owns, plus — on the
    /// server's shard — the generation times and the audience grid, so
    /// the export is `O(filled)` rather than `O(chunks × nodes)`.
    pub fn export_shard(&self) -> crate::shard::ObserverShard {
        let generated: Vec<(u32, SimTime)> = self
            .generated
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != SimTime::MAX)
            .map(|(seq, &t)| (seq as u32, t))
            .collect();
        let receptions: Vec<(u64, SimTime)> = self
            .first_rx
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != SimTime::MAX)
            .map(|(slot, &t)| (slot as u64, t))
            .collect();
        // Non-server shards never touch the audience grid; ship nothing
        // rather than rows of zero words.
        let (expected_rows, expected_words) = if self.expected.count_ones() == 0 {
            (0, Vec::new())
        } else {
            (self.expected.rows() as u64, self.expected.words().to_vec())
        };
        crate::shard::ObserverShard {
            n_nodes: self.n_nodes as u64,
            n_chunks: self.generated.len() as u64,
            generated,
            receptions,
            expected_rows,
            expected_words,
            duplicates: self.duplicates,
            out_of_order: self.out_of_order,
        }
    }

    /// Folds one worker's export into this observer. Slot ownership is
    /// disjoint across workers (each node's receptions are recorded on
    /// exactly one shard; generation and audience only on the server's),
    /// so absorbing every shard of a run reassembles the single-process
    /// observer exactly.
    pub fn absorb_shard(&mut self, s: &crate::shard::ObserverShard) {
        assert_eq!(
            self.n_nodes as u64, s.n_nodes,
            "shard node dimension mismatch"
        );
        self.grow_chunks(s.n_chunks as usize);
        for &(seq, t) in &s.generated {
            let slot = &mut self.generated[seq as usize];
            debug_assert!(*slot == SimTime::MAX, "chunk {seq} generated on two shards");
            *slot = t;
        }
        for &(slot, t) in &s.receptions {
            let slot = &mut self.first_rx[slot as usize];
            debug_assert!(*slot == SimTime::MAX, "reception slot owned by two shards");
            *slot = t;
        }
        if !s.expected_words.is_empty() {
            self.expected
                .or_words(s.expected_rows as usize, &s.expected_words);
        }
        self.duplicates += s.duplicates;
        self.out_of_order += s.out_of_order;
    }
}

/// The result of [`StreamObserver::fold_figures`]: every slab-derived
/// figure statistic from one pass over the reception record.
#[derive(Clone, Debug)]
pub struct FigureMetrics {
    /// Element `t` = expected pairs received by instant `t` seconds
    /// (cumulative; the numerator of the global fill ratio per second).
    pub received_by_second: Vec<u64>,
    /// Total expected pairs over generated chunks (the denominator).
    pub expected_pairs: u64,
    /// Mean mesh delay in seconds (Fig. 5), unreceived chunks capped at
    /// the horizon.
    pub mean_mesh_delay: f64,
    /// Mean fill ratio at each requested offset after generation
    /// (Fig. 6), in the same order as the `offsets` argument.
    pub fill_at_offsets: Vec<f64>,
    /// % of expected pairs received by the horizon (Figs. 11–12).
    pub received_pct: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// 3 nodes, 2 chunks; chunk 0 reaches everyone, chunk 1 misses node 2.
    fn observer() -> StreamObserver {
        let mut o = StreamObserver::new(3, 2);
        o.record_generated(0, t(10));
        o.record_generated(1, t(11));
        for node in 0..3 {
            o.mark_expected(0, NodeId(node));
            o.mark_expected(1, NodeId(node));
        }
        o.record_received(0, NodeId(0), t(11));
        o.record_received(0, NodeId(1), t(12));
        o.record_received(0, NodeId(2), t(14));
        o.record_received(1, NodeId(0), t(12));
        o.record_received(1, NodeId(1), t(13));
        o
    }

    #[test]
    fn generation_and_reception_lookup() {
        let o = observer();
        assert_eq!(o.generated_at(0), Some(t(10)));
        assert_eq!(o.generated_at(5), None);
        assert_eq!(o.received_at(0, NodeId(2)), Some(t(14)));
        assert_eq!(o.received_at(1, NodeId(2)), None);
        assert!(o.is_expected(0, NodeId(1)));
    }

    #[test]
    fn duplicate_reception_keeps_earliest() {
        let mut o = observer();
        o.record_received(0, NodeId(0), t(20));
        assert_eq!(o.received_at(0, NodeId(0)), Some(t(11)));
        o.record_received(0, NodeId(0), t(10));
        assert_eq!(o.received_at(0, NodeId(0)), Some(t(10)));
    }

    #[test]
    fn rereceptions_fold_into_counters() {
        let mut o = observer();
        assert_eq!(o.duplicate_receptions(), 0);
        assert_eq!(o.out_of_order_receptions(), 0);
        o.record_received(0, NodeId(0), t(20)); // later: duplicate
        o.record_received(0, NodeId(0), t(11)); // equal: duplicate
        o.record_received(0, NodeId(0), t(9)); // earlier: out-of-order
        assert_eq!(o.duplicate_receptions(), 2);
        assert_eq!(o.out_of_order_receptions(), 1);
        assert_eq!(o.received_at(0, NodeId(0)), Some(t(9)));
        // Out-of-range nodes are ignored entirely.
        o.record_received(0, NodeId(99), t(1));
        assert_eq!(o.duplicate_receptions(), 2);
    }

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn mesh_delay_is_last_arrival_capped_at_the_horizon() {
        let mut o = observer();
        // Chunk 0: last receiver at 14, generated at 10 → 4 s. Chunk 1:
        // node 2 never got it → horizon 100 − generation 11 = 89 s.
        assert_eq!(
            o.fold_figures(t(100), &[]).mean_mesh_delay,
            (4.0 + 89.0) / 2.0
        );
        // The cap moves with the horizon; the complete chunk does not.
        assert_eq!(
            o.fold_figures(t(50), &[]).mean_mesh_delay,
            (4.0 + 39.0) / 2.0
        );
        o.record_received(1, NodeId(2), t(15));
        assert_eq!(o.fold_figures(t(100), &[]).mean_mesh_delay, 4.0);
    }

    #[test]
    fn fill_ratio_at_offsets() {
        let o = observer();
        let f = o.fold_figures(t(100), &[secs(0), secs(1), secs(2), secs(4)]);
        // +0 s: nobody; +1 s: one of three for both chunks; +2 s: two of
        // three for both; +4 s: chunk 0 complete, chunk 1 still 2/3.
        let want = [0.0, 1.0 / 3.0, 2.0 / 3.0, (1.0 + 2.0 / 3.0) / 2.0];
        for (got, want) in f.fill_at_offsets.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn received_timeline_and_percentage() {
        let o = observer();
        let f = o.fold_figures(t(100), &[]);
        assert_eq!(f.received_by_second.len(), 101);
        assert_eq!(f.expected_pairs, 6);
        // By t=13: chunk0 {0,1}, chunk1 {0,1} → 4 of 6; by 14 all but one.
        assert_eq!(f.received_by_second[10..16], [0, 1, 3, 4, 5, 5]);
        assert!((f.received_pct - 100.0 * 5.0 / 6.0).abs() < 1e-9);
        assert_eq!(o.expected_pairs(), 6);
        assert_eq!(o.received_pairs(), 5);
        // Sub-second arrivals land in the *next* whole-second bucket.
        let mut o2 = StreamObserver::new(1, 1);
        o2.record_generated(0, SimTime::ZERO);
        o2.mark_expected(0, NodeId(0));
        o2.record_received(0, NodeId(0), SimTime::from_millis(1500));
        assert_eq!(
            o2.fold_figures(t(3), &[]).received_by_second,
            vec![0, 0, 1, 1]
        );
    }

    #[test]
    fn audience_restriction() {
        let mut o = StreamObserver::new(3, 1);
        o.record_generated(0, t(0));
        o.mark_expected(0, NodeId(0));
        // Node 1 receives but is not expected: ignored by the metrics.
        o.record_received(0, NodeId(1), t(1));
        o.record_received(0, NodeId(0), t(2));
        let f = o.fold_figures(t(10), &[secs(1), secs(2)]);
        assert_eq!(f.fill_at_offsets, vec![0.0, 1.0]);
        assert_eq!(f.expected_pairs, 1);
        assert_eq!(o.expected_pairs(), 1);
    }

    #[test]
    fn grow_on_demand() {
        let mut o = StreamObserver::new(2, 0);
        o.record_generated(5, t(3));
        assert_eq!(o.n_chunks(), 6);
        o.mark_expected(7, NodeId(1));
        assert_eq!(o.n_chunks(), 8);
        assert!(o.is_expected(7, NodeId(1)));
    }

    #[test]
    fn empty_record_folds_to_zeros() {
        let f = StreamObserver::new(4, 0).fold_figures(t(2), &[secs(2), secs(3)]);
        assert_eq!(f.received_by_second, vec![0, 0, 0]);
        assert_eq!(
            (f.expected_pairs, f.mean_mesh_delay, f.received_pct),
            (0, 0.0, 0.0)
        );
        assert_eq!(f.fill_at_offsets, vec![0.0, 0.0]);
    }
}

//! The retained reference model of the stream observer.
//!
//! [`RetainedObserver`] is the nested-`Vec`, keep-everything formulation of
//! the reception record: every reception instant of every `(chunk, node)`
//! pair is retained and the metrics fold over the retained lists at query
//! time. It is deliberately the *obviously correct* executable
//! specification — O(receptions) memory, one heap allocation per chunk row
//! and per pair — and exists for two jobs:
//!
//! * the property tests (`crates/metrics/tests/proptest_observer.rs`) pin
//!   the flat [`StreamObserver`](crate::StreamObserver) against it on
//!   randomized arrival patterns (duplicates and out-of-order arrivals
//!   included): every per-pair lookup, and every statistic of
//!   [`StreamObserver::fold_figures`](crate::StreamObserver::fold_figures)
//!   against the per-metric methods here;
//! * the observer microbenchmark (`cargo bench -p dco-bench --bench micro`)
//!   measures the record path of both layouts side by side.
//!
//! It is **not** used by any simulation: at N = 100k nodes it is exactly
//! the memory shape the flat observer exists to avoid.

use dco_sim::node::NodeId;
use dco_sim::time::{SimDuration, SimTime};

/// Keep-everything reception record: the semantic reference the flat
/// observer is property-tested against.
#[derive(Clone, Debug, Default)]
pub struct RetainedObserver {
    n_nodes: usize,
    /// Generation time per chunk sequence number.
    generated: Vec<Option<SimTime>>,
    /// `recv[seq][node]` = every reception instant, in arrival order.
    recv: Vec<Vec<Vec<SimTime>>>,
    /// `expected[seq][node]`.
    expected: Vec<Vec<bool>>,
}

impl RetainedObserver {
    /// An observer for up to `n_nodes` nodes and `n_chunks` chunks.
    pub fn new(n_nodes: usize, n_chunks: usize) -> Self {
        RetainedObserver {
            n_nodes,
            generated: vec![None; n_chunks],
            recv: vec![vec![Vec::new(); n_nodes]; n_chunks],
            expected: vec![vec![false; n_nodes]; n_chunks],
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

    /// Grows the chunk dimension to at least `n` slots.
    pub fn grow_chunks(&mut self, n: usize) {
        while self.generated.len() < n {
            self.generated.push(None);
            self.recv.push(vec![Vec::new(); self.n_nodes]);
            self.expected.push(vec![false; self.n_nodes]);
        }
    }

    /// Records that chunk `seq` was generated at `t`.
    pub fn record_generated(&mut self, seq: u32, t: SimTime) {
        self.grow_chunks(seq as usize + 1);
        self.generated[seq as usize] = Some(t);
    }

    /// Marks `(seq, node)` as part of the audience.
    pub fn mark_expected(&mut self, seq: u32, node: NodeId) {
        self.grow_chunks(seq as usize + 1);
        if node.index() < self.n_nodes {
            self.expected[seq as usize][node.index()] = true;
        }
    }

    /// Records a reception of chunk `seq` by `node` at `t`. Every arrival
    /// is retained; the metrics use the earliest.
    pub fn record_received(&mut self, seq: u32, node: NodeId, t: SimTime) {
        self.grow_chunks(seq as usize + 1);
        if node.index() >= self.n_nodes {
            return;
        }
        self.recv[seq as usize][node.index()].push(t);
    }

    /// Generation time of chunk `seq`, if recorded.
    pub fn generated_at(&self, seq: u32) -> Option<SimTime> {
        self.generated.get(seq as usize).copied().flatten()
    }

    /// First (earliest) reception of `seq` by `node`, if any.
    pub fn received_at(&self, seq: u32, node: NodeId) -> Option<SimTime> {
        if node.index() >= self.n_nodes {
            return None;
        }
        self.recv
            .get(seq as usize)?
            .get(node.index())?
            .iter()
            .min()
            .copied()
    }

    /// True if `(seq, node)` is in the audience.
    pub fn is_expected(&self, seq: u32, node: NodeId) -> bool {
        self.expected
            .get(seq as usize)
            .map(|v| node.index() < v.len() && v[node.index()])
            .unwrap_or(false)
    }

    /// Arrivals retained beyond the first (what the flat observer folds
    /// into its duplicate/out-of-order counters).
    pub fn rereceptions(&self) -> u64 {
        self.recv
            .iter()
            .flatten()
            .map(|l| l.len().saturating_sub(1) as u64)
            .sum()
    }

    /// Generation → last expected receiver for chunk `seq`; if any
    /// audience member never received it, `horizon - generated`.
    pub fn mesh_delay(&self, seq: u32, horizon: SimTime) -> Option<SimDuration> {
        let gen = self.generated_at(seq)?;
        let mut last = gen;
        let mut expected_any = false;
        for node in 0..self.n_nodes {
            if !self.expected[seq as usize][node] {
                continue;
            }
            expected_any = true;
            match self.received_at(seq, NodeId(node as u32)) {
                None => return Some(horizon.saturating_since(gen)),
                Some(t) => last = last.max(t),
            }
        }
        expected_any.then(|| last - gen)
    }

    /// Mean mesh delay over generated chunks, horizon-capped.
    pub fn mean_mesh_delay(&self, horizon: SimTime) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for seq in 0..self.generated.len() as u32 {
            if let Some(d) = self.mesh_delay(seq, horizon) {
                sum += d.as_secs_f64();
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Fraction of the audience of `seq` holding the chunk at `at`.
    pub fn fill_ratio(&self, seq: u32, at: SimTime) -> Option<f64> {
        self.generated_at(seq)?;
        let mut have = 0usize;
        let mut audience = 0usize;
        for node in 0..self.n_nodes {
            if !self.expected[seq as usize][node] {
                continue;
            }
            audience += 1;
            if self
                .received_at(seq, NodeId(node as u32))
                .is_some_and(|t| t <= at)
            {
                have += 1;
            }
        }
        (audience > 0).then(|| have as f64 / audience as f64)
    }

    /// Mean fill ratio `offset` after each chunk's generation.
    pub fn mean_fill_ratio_at_offset(&self, offset: SimDuration) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for seq in 0..self.generated.len() as u32 {
            if let Some(gen) = self.generated_at(seq) {
                if let Some(f) = self.fill_ratio(seq, gen + offset) {
                    sum += f;
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Received expected pairs over all expected pairs at instant `at`.
    pub fn global_fill_ratio(&self, at: SimTime) -> f64 {
        let mut have = 0usize;
        let mut total = 0usize;
        for seq in 0..self.generated.len() {
            if self.generated[seq].is_none() {
                continue;
            }
            for node in 0..self.n_nodes {
                if !self.expected[seq][node] {
                    continue;
                }
                total += 1;
                if self
                    .received_at(seq as u32, NodeId(node as u32))
                    .is_some_and(|t| t <= at)
                {
                    have += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            have as f64 / total as f64
        }
    }

    /// Received expected pairs by `deadline`, in percent.
    pub fn received_percentage(&self, deadline: SimTime) -> f64 {
        100.0 * self.global_fill_ratio(deadline)
    }

    /// Total expected `(chunk, node)` pairs.
    pub fn expected_pairs(&self) -> usize {
        self.expected
            .iter()
            .map(|v| v.iter().filter(|&&b| b).count())
            .sum()
    }

    /// Total received expected pairs (any time).
    pub fn received_pairs(&self) -> usize {
        let mut n = 0;
        for seq in 0..self.generated.len() {
            for node in 0..self.n_nodes {
                if self.expected[seq][node] && !self.recv[seq][node].is_empty() {
                    n += 1;
                }
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn retains_every_arrival_and_folds_min_on_query() {
        let mut o = RetainedObserver::new(2, 1);
        o.record_generated(0, t(0));
        o.mark_expected(0, NodeId(1));
        o.record_received(0, NodeId(1), t(5));
        o.record_received(0, NodeId(1), t(3)); // out of order
        o.record_received(0, NodeId(1), t(9)); // duplicate
        assert_eq!(o.received_at(0, NodeId(1)), Some(t(3)));
        assert_eq!(o.rereceptions(), 2);
        assert_eq!(o.received_pairs(), 1);
        assert_eq!(o.expected_pairs(), 1);
        assert_eq!(o.mesh_delay(0, t(100)), Some(SimDuration::from_secs(3)));
    }

    #[test]
    fn grow_and_range_edges() {
        let mut o = RetainedObserver::new(2, 0);
        o.record_received(3, NodeId(0), t(1));
        assert_eq!(o.n_chunks(), 4);
        assert_eq!(o.generated_at(3), None);
        o.record_received(0, NodeId(7), t(1)); // out of range: ignored
        assert_eq!(o.received_at(0, NodeId(7)), None);
        assert!(!o.is_expected(9, NodeId(0)));
    }
}

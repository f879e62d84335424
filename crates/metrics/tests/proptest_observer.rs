//! Property tests: the flat [`StreamObserver`] against the retained
//! reference model.
//!
//! The flat observer stores only the first-arrival instant per
//! `(chunk, node)` pair (one slab + a bit matrix + two fold counters); the
//! [`RetainedObserver`] keeps *every* reception instant in nested `Vec`s
//! and folds at query time. These tests drive both through identical
//! randomized recording scripts — duplicate arrivals, out-of-order
//! arrivals, sparse audiences, on-demand growth — and require every
//! per-pair lookup and every statistic of the figure fold to agree
//! exactly. Driven by the in-tree
//! `dco-testkit` (deterministic seeds, `DCO_TESTKIT_REPLAY` to reproduce a
//! failure).

use dco_metrics::{RetainedObserver, StreamObserver};
use dco_sim::node::NodeId;
use dco_sim::time::{SimDuration, SimTime};
use dco_testkit::{check, tk_assert_eq, Gen};

/// One randomized recording script applied to both observers.
struct Script {
    n_nodes: usize,
    n_chunks: usize,
    flat: StreamObserver,
    retained: RetainedObserver,
}

/// Milliseconds in `[0, max_ms]`, a whole second half the time: the
/// metrics compare instants with `<=` against whole-second horizons and
/// `generation + offset` deadlines, so exact ties must be common.
fn millis(g: &mut Gen, max_ms: u64) -> u64 {
    if g.weighted_bool(0.5) {
        g.u64_in(0, max_ms / 1_000 + 1) * 1_000
    } else {
        g.u64_in(0, max_ms + 1)
    }
}

/// Builds the pair by replaying one random script into both layouts.
/// Arrival times are drawn from a small range so duplicates, ties and
/// out-of-order arrivals are common, not rare.
fn gen_script(g: &mut Gen) -> Script {
    let n_nodes = g.usize_in(1, 9);
    let max_chunks = g.usize_in(1, 11);
    // Start some scripts with zero pre-sized chunks to exercise on-demand
    // growth in both layouts.
    let pre_sized = if g.weighted_bool(0.5) { max_chunks } else { 0 };
    let mut flat = StreamObserver::new(n_nodes, pre_sized);
    let mut retained = RetainedObserver::new(n_nodes, pre_sized);

    // Each chunk is generated at most once (the observer debug-asserts
    // against double generation, matching real harness usage).
    for seq in 0..max_chunks as u32 {
        if g.weighted_bool(0.8) {
            let t = SimTime::from_millis(millis(g, 20_000));
            flat.record_generated(seq, t);
            retained.record_generated(seq, t);
        }
    }
    // Sparse audience.
    for seq in 0..max_chunks as u32 {
        for node in 0..n_nodes as u32 {
            if g.weighted_bool(0.7) {
                flat.mark_expected(seq, NodeId(node));
                retained.mark_expected(seq, NodeId(node));
            }
        }
    }
    // Receptions: repeated visits to the same pair produce duplicates and
    // out-of-order arrivals (times are not sorted).
    for _ in 0..g.usize_in(0, 121) {
        let seq = g.u64_in(0, max_chunks as u64) as u32;
        let node = NodeId(g.u64_in(0, n_nodes as u64) as u32);
        let t = SimTime::from_millis(millis(g, 20_000));
        flat.record_received(seq, node, t);
        retained.record_received(seq, node, t);
    }
    Script {
        n_nodes,
        n_chunks: flat.n_chunks(),
        flat,
        retained,
    }
}

/// Exact f64 equality is intentional throughout: both layouts must derive
/// each statistic from identical integer counts folded in the same order,
/// so the floats are bit-identical — any tolerance would hide a layout bug.
#[test]
fn flat_observer_matches_retained_model_per_pair() {
    check("flat_observer_matches_retained_model_per_pair", 300, |g| {
        let s = gen_script(g);
        tk_assert_eq!(s.flat.n_chunks(), s.retained.n_chunks(), "n_chunks");
        for seq in 0..s.n_chunks as u32 + 2 {
            tk_assert_eq!(
                s.flat.generated_at(seq),
                s.retained.generated_at(seq),
                "generated_at({seq})"
            );
            for node in 0..s.n_nodes as u32 + 2 {
                let node = NodeId(node);
                tk_assert_eq!(
                    s.flat.received_at(seq, node),
                    s.retained.received_at(seq, node),
                    "received_at({seq}, {node:?}) must be the earliest arrival"
                );
                tk_assert_eq!(
                    s.flat.is_expected(seq, node),
                    s.retained.is_expected(seq, node),
                    "is_expected({seq}, {node:?})"
                );
            }
        }
        tk_assert_eq!(
            s.flat.duplicate_receptions() + s.flat.out_of_order_receptions(),
            s.retained.rereceptions(),
            "every re-reception folds into exactly one counter"
        );
        tk_assert_eq!(
            s.flat.expected_pairs(),
            s.retained.expected_pairs(),
            "expected_pairs"
        );
        tk_assert_eq!(
            s.flat.received_pairs(),
            s.retained.received_pairs(),
            "received_pairs"
        );
        Ok(())
    });
}

/// The one figure fold against the retained model's per-metric
/// recomputation: every statistic the runners read, bit for bit.
#[test]
fn flat_observer_matches_retained_model_metrics() {
    check("flat_observer_matches_retained_model_metrics", 300, |g| {
        let s = gen_script(g);
        let horizon = SimTime::from_secs(g.u64_in(0, 31));
        let offsets = [
            SimDuration::from_millis(millis(g, 5_000)),
            SimDuration::from_millis(millis(g, 5_000)),
        ];
        let f = s.flat.fold_figures(horizon, &offsets);
        tk_assert_eq!(
            f.mean_mesh_delay.to_bits(),
            s.retained.mean_mesh_delay(horizon).to_bits(),
            "mean_mesh_delay"
        );
        for (i, &off) in offsets.iter().enumerate() {
            tk_assert_eq!(
                f.fill_at_offsets[i].to_bits(),
                s.retained.mean_fill_ratio_at_offset(off).to_bits(),
                "fill_at_offsets[{i}] ({off:?})"
            );
        }
        tk_assert_eq!(
            f.received_pct.to_bits(),
            s.retained.received_percentage(horizon).to_bits(),
            "received_pct"
        );
        tk_assert_eq!(
            f.received_by_second.len() as u64,
            horizon.as_secs() + 1,
            "received_by_second length"
        );
        for (sec, &have) in f.received_by_second.iter().enumerate() {
            let fast = if f.expected_pairs == 0 {
                0.0
            } else {
                have as f64 / f.expected_pairs as f64
            };
            tk_assert_eq!(
                fast.to_bits(),
                s.retained
                    .global_fill_ratio(SimTime::from_secs(sec as u64))
                    .to_bits(),
                "received_by_second[{sec}] vs retained global_fill_ratio"
            );
        }
        Ok(())
    });
}

//! The Chord substrate under the full simulator, as DCO runs it: the
//! dynamic coordinator ring of the churn setting (flat tier, every node a
//! ring member). Hop-count scaling, ring healing to oracle agreement, and
//! lookup latency under real link delays.

use dco::core::chunk::ChunkSeq;
use dco::core::proto::{DcoConfig, DcoMsg, DcoProtocol, Hop, RoutedOp};
use dco::sim::prelude::*;

/// An `n`-node DCO run on the dynamic ring: the server plus `n - 1`
/// peers, everyone joining at `t = 0` (the paper's setting), nobody
/// leaving unless a test says so.
fn ring_of(n: u32, n_chunks: u32, seed: u64) -> Simulator<DcoProtocol> {
    let cfg = DcoConfig::paper_churn(n, n_chunks);
    let mut sim = Simulator::new(DcoProtocol::new(cfg), NetConfig::default(), seed);
    for i in 0..n {
        let caps = if i == 0 {
            NodeCaps::server_default()
        } else {
            NodeCaps::peer_default()
        };
        let id = sim.add_node(caps);
        sim.schedule_join(id, SimTime::ZERO);
    }
    sim
}

/// Every ring member's successor equals the one the omniscient oracle
/// computes over the current members.
fn assert_ring_matches_oracle(sim: &Simulator<DcoProtocol>) {
    let chord = sim.protocol().chord();
    let oracle = chord.oracle();
    let wrong: Vec<NodeId> = chord
        .members()
        .filter(|st| st.successor().map(|p| p.node) != oracle.successor(st.me().id).map(|p| p.node))
        .map(|st| st.me().node)
        .collect();
    assert!(wrong.is_empty(), "stale successors at {wrong:?}");
}

/// Mean routed `dco.lookup` hops per delivered lookup over a streaming
/// window that starts once the ring has converged.
fn mean_lookup_hops(n: u32) -> f64 {
    let mut sim = ring_of(n, 60, 77);
    sim.run_until(SimTime::from_secs(30));
    let hops0 = sim.counters().tagged("dco.lookup");
    let delivered0 = sim.protocol().lookups_delivered;
    sim.run_until(SimTime::from_secs(60));
    let delivered = sim.protocol().lookups_delivered - delivered0;
    assert!(
        delivered > u64::from(n),
        "only {delivered} lookups at N={n}"
    );
    (sim.counters().tagged("dco.lookup") - hops0) as f64 / delivered as f64
}

#[test]
fn lookup_hops_scale_logarithmically() {
    let hops_small = mean_lookup_hops(32);
    let hops_large = mean_lookup_hops(256);
    // log2(256)/log2(32) = 1.6; allow generous slack but demand sub-linear
    // growth (8× nodes must NOT mean 8× hops).
    assert!(
        hops_large < hops_small * 3.0,
        "hops grew super-logarithmically: {hops_small:.2} → {hops_large:.2}"
    );
    assert!(
        hops_large <= 2.0 * (256f64).log2(),
        "mean hops {hops_large:.2} beyond 2·log2(n)"
    );
}

#[test]
fn ring_agrees_with_oracle_after_convergence() {
    let mut sim = ring_of(64, 20, 81);
    sim.run_until(SimTime::from_secs(40));
    assert_eq!(sim.protocol().chord().member_count(), 64);
    assert_ring_matches_oracle(&sim);
}

#[test]
fn mass_failure_heals_and_survivors_keep_streaming() {
    const N: u32 = 48;
    let mut sim = ring_of(N, 90, 85);
    sim.run_until(SimTime::from_secs(30));
    // Kill a third of the ring at once.
    let fail_at = SimTime::from_millis(30_100);
    for i in (3..N).step_by(3) {
        sim.schedule_leave(NodeId(i), fail_at, false);
    }
    sim.run_until(SimTime::from_secs(60));
    // The survivors' ring must again agree with the survivors' oracle.
    assert_eq!(
        sim.protocol().chord().member_count(),
        N as usize - (3..N).step_by(3).count()
    );
    assert_ring_matches_oracle(&sim);
    // And chunks generated after the failure still reach every survivor.
    sim.run_until(SimTime::from_secs(90));
    let p = sim.protocol();
    for i in (1..N).filter(|i| i % 3 != 0) {
        for seq in 40..60 {
            assert!(
                p.holds(NodeId(i), ChunkSeq(seq)),
                "survivor {i} missing chunk {seq} generated after the failure"
            );
        }
    }
}

#[test]
fn lookups_resolve_within_latency_budget() {
    const N: u32 = 128;
    let mut sim = ring_of(N, 10, 91);
    // Past the last chunk: the stream is done, so no other lookup runs.
    sim.run_until(SimTime::from_secs(60));
    let origin = NodeId(3);
    let seq = ChunkSeq(7);
    let hops0 = sim.counters().tagged("dco.lookup");
    let delivered0 = sim.protocol().lookups_delivered;
    let t0 = sim.now();
    sim.inject_message(
        t0,
        origin,
        origin,
        DcoMsg::Routed {
            key: sim.protocol().namer().id_of(seq),
            hop: Hop::Forward(64),
            op: RoutedOp::Lookup {
                seq,
                origin,
                exclude: None,
            },
        },
    );
    // Step in 10 ms slices until the coordinator answers.
    while sim.protocol().lookups_delivered == delivered0 {
        assert!(
            sim.now() < t0 + SimDuration::from_secs(5),
            "lookup never resolved"
        );
        sim.run_until(sim.now() + SimDuration::from_millis(10));
    }
    let elapsed = sim.now().saturating_since(t0);
    sim.run_until(sim.now() + SimDuration::from_secs(5));
    assert_eq!(
        sim.protocol().lookups_delivered,
        delivered0 + 1,
        "the injected lookup was the only one"
    );
    let hops = sim.counters().tagged("dco.lookup") - hops0;
    assert!(hops as f64 <= (N as f64).log2() + 2.0, "{hops} hops");
    // Each hop costs one 50 ms link; the answer goes straight back. §III-B2's
    // estimate: 0.1 s × log2(1860) ≈ 1.09 s ≪ the 20 s prefetch window.
    assert!(
        elapsed <= SimDuration::from_millis(50 * hops + 10),
        "lookup took {elapsed} for {hops} hops"
    );
    assert!(
        elapsed < SimDuration::from_millis(1_500),
        "lookup took {elapsed}"
    );
}

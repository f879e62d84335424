//! Failure-injection integration tests: message loss, mid-transfer kills
//! and coordinator crashes under lookup load.

use dco::core::chunk::ChunkSeq;
use dco::core::proto::{DcoConfig, DcoProtocol, TierMode};
use dco::sim::prelude::*;

fn build(cfg: DcoConfig, net: NetConfig, seed: u64) -> Simulator<DcoProtocol> {
    let n = cfg.n_nodes;
    let mut sim = Simulator::new(DcoProtocol::new(cfg), net, seed);
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

#[test]
fn dco_survives_control_message_loss() {
    // 5% of control messages vanish; the retry machinery (fetch ticks,
    // lookup timeouts, request timeouts) must still drive the stream home.
    let cfg = DcoConfig::paper_churn(24, 20);
    let mut net = NetConfig::paper_model();
    net.faults = FaultPlan::none();
    net.faults.control_loss = 0.05;
    let mut sim = build(cfg, net, 31);
    sim.run_until(SimTime::from_secs(150));
    let pct = sim
        .protocol()
        .obs
        .fold_figures(SimTime::from_secs(150), &[])
        .received_pct;
    assert!(
        pct > 97.0,
        "lossy control plane broke the stream: {pct:.1}%"
    );
    assert!(sim.counters().dropped_fault() > 0, "faults must have fired");
}

#[test]
fn total_control_loss_stalls_without_panicking() {
    // Edge case: 100% control loss. No lookup, registration or request
    // ever arrives, so the swarm cannot spread chunks — but the engine
    // must keep retiring timers to the horizon instead of panicking or
    // spinning, and the loss must be visible in the fault counters.
    let cfg = DcoConfig::paper_churn(16, 10);
    let mut net = NetConfig::paper_model();
    net.faults = FaultPlan::none();
    net.faults.control_loss = 1.0;
    let mut sim = build(cfg, net, 43);
    sim.run_until(SimTime::from_secs(120));
    let pct = sim
        .protocol()
        .obs
        .fold_figures(SimTime::from_secs(120), &[])
        .received_pct;
    assert!(
        pct < 50.0,
        "with zero control delivery the stream cannot mostly spread: {pct:.1}%"
    );
    assert!(
        sim.counters().dropped_fault() > 0,
        "every control send must count as a fault drop"
    );
    // The run went the whole distance — the stall did not wedge the clock.
    assert_eq!(sim.now(), SimTime::from_secs(120));
}

#[test]
fn dco_survives_data_loss_too() {
    let cfg = DcoConfig::paper_churn(20, 15);
    let mut net = NetConfig::paper_model();
    net.faults = FaultPlan::none();
    net.faults.data_loss = 0.05;
    let mut sim = build(cfg, net, 33);
    sim.run_until(SimTime::from_secs(150));
    let pct = sim
        .protocol()
        .obs
        .fold_figures(SimTime::from_secs(150), &[])
        .received_pct;
    assert!(pct > 97.0, "lossy data plane broke the stream: {pct:.1}%");
}

#[test]
fn killing_a_node_mid_transfer_only_costs_a_retry() {
    let cfg = DcoConfig::paper_churn(16, 20);
    let mut sim = build(cfg, NetConfig::paper_model(), 35);
    // Kill a peer at an instant where transfers are guaranteed in flight.
    sim.run_until(SimTime::from_millis(5_400));
    sim.schedule_leave(NodeId(7), SimTime::from_millis(5_450), false);
    sim.run_until(SimTime::from_secs(120));
    let p = sim.protocol();
    for seq in 0..20u32 {
        for node in 1..16u32 {
            if node == 7 {
                continue;
            }
            if p.obs.is_expected(seq, NodeId(node)) {
                assert!(
                    p.obs.received_at(seq, NodeId(node)).is_some(),
                    "N{node} missing chunk {seq} after mid-transfer kill"
                );
            }
        }
    }
}

#[test]
fn coordinator_crash_under_lookup_storm_reroutes() {
    // Find which node owns the most chunk keys, crash it right as the
    // stream gets busy, and require full delivery for the survivors.
    let cfg = DcoConfig::paper_churn(24, 24);
    let mut sim = build(cfg.clone(), NetConfig::paper_model(), 37);
    sim.run_until(SimTime::from_secs(6));
    // The busiest coordinator so far:
    let busiest = {
        let p = sim.protocol();
        (1..24u32)
            .max_by_key(|&i| p.index_count(NodeId(i)))
            .unwrap()
    };
    let busiest = NodeId(busiest);
    sim.schedule_leave(busiest, SimTime::from_millis(6_100), false);
    sim.run_until(SimTime::from_secs(150));
    let p = sim.protocol();
    let mut missing = 0;
    for seq in 0..24u32 {
        for node in 1..24u32 {
            if NodeId(node) == busiest {
                continue;
            }
            if p.obs.is_expected(seq, NodeId(node))
                && p.obs.received_at(seq, NodeId(node)).is_none()
            {
                missing += 1;
            }
        }
    }
    assert_eq!(
        missing, 0,
        "survivors missing {missing} pairs after coordinator crash"
    );
}

#[test]
fn coordinator_crash_mid_promotion_leaves_ring_healable() {
    // Edge case for the hierarchical tier (§III): crash a coordinator
    // right after a promotion check fires, while membership is in flux.
    // Chord stabilization must absorb both the promotion and the crash,
    // and the surviving audience must still receive the whole stream.
    let mut cfg = DcoConfig::paper_churn(20, 20);
    cfg.tier = TierMode::Hierarchical {
        stable_threshold: 0.6,
        overload_lookups: 10, // low bar: promotions actually trigger
        check_every: SimDuration::from_secs(5),
    };
    let mut sim = build(cfg, NetConfig::paper_model(), 45);
    // First promotion check fires at t = 5 s; kill the busiest ring
    // member 100 ms later, mid-handoff.
    sim.run_until(SimTime::from_millis(5_050));
    let busiest = {
        let p = sim.protocol();
        (1..20u32)
            .max_by_key(|&i| p.index_count(NodeId(i)))
            .unwrap()
    };
    let busiest = NodeId(busiest);
    sim.schedule_leave(busiest, SimTime::from_millis(5_100), false);
    sim.run_until(SimTime::from_secs(150));
    let p = sim.protocol();
    let mut missing = 0;
    for seq in 0..20u32 {
        for node in 1..20u32 {
            if NodeId(node) == busiest {
                continue;
            }
            if p.obs.is_expected(seq, NodeId(node))
                && p.obs.received_at(seq, NodeId(node)).is_none()
            {
                missing += 1;
            }
        }
    }
    assert_eq!(
        missing, 0,
        "survivors missing {missing} pairs after mid-promotion coordinator crash"
    );
}

#[test]
fn severed_link_heals_when_restored() {
    let cfg = DcoConfig::paper_churn(12, 10);
    let mut sim = build(cfg, NetConfig::paper_model(), 39);
    // Partition node 3 from the server for the first half of the stream.
    sim.faults_mut().cut_pair(NodeId(3), NodeId(0));
    sim.run_until(SimTime::from_secs(15));
    sim.faults_mut().heal_link(NodeId(3), NodeId(0));
    sim.faults_mut().heal_link(NodeId(0), NodeId(3));
    sim.run_until(SimTime::from_secs(120));
    let p = sim.protocol();
    // Node 3 still gets the whole stream through other providers and, after
    // healing, directly.
    for seq in 0..10u32 {
        assert!(
            p.obs.received_at(seq, NodeId(3)).is_some(),
            "N3 missing chunk {seq} after partition healed"
        );
    }
}

#[test]
fn rejoining_node_streams_from_its_new_join_point() {
    let cfg = DcoConfig::paper_churn(16, 30);
    let mut sim = build(cfg, NetConfig::paper_model(), 41);
    sim.schedule_leave(NodeId(5), SimTime::from_secs(5), false);
    sim.schedule_join(NodeId(5), SimTime::from_secs(15));
    sim.run_until(SimTime::from_secs(120));
    let p = sim.protocol();
    // Chunks from the rejoin point onward must arrive.
    for seq in 16..30u32 {
        assert!(
            p.obs.received_at(seq, NodeId(5)).is_some(),
            "rejoined N5 missing chunk {seq}"
        );
    }
    assert!(p.holds(NodeId(5), ChunkSeq(25)));
}

//! End-to-end protocol tests on small networks.

use dco_sim::prelude::*;

use crate::chunk::ChunkSeq;
use crate::proto::{DcoConfig, DcoProtocol, Role, TierMode};

fn build(cfg: DcoConfig, seed: u64) -> Simulator<DcoProtocol> {
    let n = cfg.n_nodes;
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

#[test]
fn static_flat_delivers_every_chunk() {
    let cfg = DcoConfig::paper_default(16, 10);
    let mut sim = build(cfg, 42);
    sim.run_until(SimTime::from_secs(60));
    let p = sim.protocol();
    // 15 peers × 10 chunks, all expected and all received.
    assert_eq!(p.obs.expected_pairs(), 150);
    assert_eq!(
        p.obs.received_pairs(),
        150,
        "missing {:?}",
        (0..10u32)
            .flat_map(|s| (1..16u32).map(move |n| (s, NodeId(n))))
            .filter(|&(s, n)| p.obs.received_at(s, n).is_none())
            .collect::<Vec<_>>()
    );
    // Reception spreads the provider set: the server is not the only one
    // who ever served a chunk.
    let peer_serves: u64 = p.serves[1..].iter().sum();
    assert!(peer_serves > 0, "peers relayed chunks");
    // The overhead counters carry the Algorithm-1 message classes.
    for tag in ["dco.lookup", "dco.provider", "dco.request", "dco.insert"] {
        assert!(sim.counters().tagged(tag) > 0, "no {tag} messages counted");
    }
    // Chunks travelled as data, not control.
    assert!(sim.counters().data_total() >= 150);
}

#[test]
fn mesh_delay_is_bounded_in_small_static_network() {
    let cfg = DcoConfig::paper_default(16, 10);
    let mut sim = build(cfg, 7);
    sim.run_until(SimTime::from_secs(60));
    let p = sim.protocol();
    let delay = p
        .obs
        .fold_figures(SimTime::from_secs(60), &[])
        .mean_mesh_delay;
    assert!(delay > 0.0);
    assert!(delay < 20.0, "mean mesh delay {delay}s is implausible");
}

#[test]
fn determinism_same_seed_same_run() {
    let run = |seed: u64| {
        let mut sim = build(DcoConfig::paper_default(12, 6), seed);
        sim.run_until(SimTime::from_secs(40));
        (
            sim.counters().control_total(),
            sim.counters().data_total(),
            sim.protocol().obs.received_pairs(),
        )
    };
    assert_eq!(run(5), run(5));
    // (Different seeds may legitimately coincide here: a static small run
    // only consults the RNG for provider tie-breaks.)
}

#[test]
fn provider_failure_recovers_via_fail_report() {
    // Dynamic ring: static mode has no repair and is only valid churn-free.
    let cfg = DcoConfig::paper_churn(16, 12);
    let mut sim = build(cfg, 11);
    // Let the stream start, then kill a peer abruptly mid-stream.
    sim.run_until(SimTime::from_secs(4));
    sim.schedule_leave(NodeId(5), SimTime::from_secs(5), false);
    sim.run_until(SimTime::from_secs(80));
    let p = sim.protocol();
    // Every pair expected of the *surviving* audience must arrive. Node 5
    // was expected for early chunks; those pairs may be lost — everyone
    // else must be complete.
    for seq in 0..12u32 {
        for node in 1..16u32 {
            if node == 5 {
                continue;
            }
            if p.obs.is_expected(seq, NodeId(node)) {
                assert!(
                    p.obs.received_at(seq, NodeId(node)).is_some(),
                    "N{node} missing chunk {seq}"
                );
            }
        }
    }
}

#[test]
fn graceful_leave_deregisters_indices() {
    let cfg = DcoConfig::paper_churn(12, 8);
    let mut sim = build(cfg, 3);
    sim.run_until(SimTime::from_secs(6));
    sim.schedule_leave(NodeId(4), SimTime::from_secs(7), true);
    sim.run_until(SimTime::from_secs(9));
    // After the graceful leave no coordinator should still advertise N4.
    let p = sim.protocol();
    for node in 0..12u32 {
        if node == 4 {
            continue;
        }
        for seq in 0..8u32 {
            let key = p.namer().id_of(ChunkSeq(seq));
            if let Some(st) = p.nodes[node as usize].as_ref() {
                assert!(
                    !st.index
                        .providers(key)
                        .iter()
                        .any(|e| e.holder == NodeId(4)),
                    "N{node} still advertises N4 for chunk {seq}"
                );
            }
        }
    }
    assert!(
        sim.counters().tagged("dco.dereg") > 0,
        "deregistrations sent"
    );
    sim.run_until(SimTime::from_secs(60));
    // Every surviving audience member completes (the leaver's own
    // expected-but-unreceived pairs are the only legitimate misses).
    let p = sim.protocol();
    for seq in 0..8u32 {
        for node in 1..12u32 {
            if node != 4 && p.obs.is_expected(seq, NodeId(node)) {
                assert!(
                    p.obs.received_at(seq, NodeId(node)).is_some(),
                    "N{node} missing chunk {seq}"
                );
            }
        }
    }
}

#[test]
fn churn_mode_sustains_high_delivery() {
    let mut cfg = DcoConfig::paper_churn(24, 30);
    cfg.neighbors = 8;
    let mut sim = build(cfg, 9);
    // Moderate abrupt churn over the stream.
    for (i, t) in [(3u32, 8u64), (7, 12), (11, 16), (15, 20)] {
        sim.schedule_leave(NodeId(i), SimTime::from_secs(t), false);
        sim.schedule_join(NodeId(i), SimTime::from_secs(t + 10));
    }
    sim.run_until(SimTime::from_secs(120));
    let pct = sim
        .protocol()
        .obs
        .fold_figures(SimTime::from_secs(120), &[])
        .received_pct;
    assert!(pct > 85.0, "received only {pct:.1}% under churn");
}

#[test]
fn dynamic_ring_forms_without_churn() {
    let cfg = DcoConfig::paper_churn(20, 10); // dynamic ring, no leaves
    let mut sim = build(cfg, 13);
    sim.run_until(SimTime::from_secs(90));
    let p = sim.protocol();
    assert_eq!(p.chord().member_count(), 20, "all nodes joined the ring");
    let pct = p.obs.fold_figures(SimTime::from_secs(90), &[]).received_pct;
    assert!(pct > 99.0, "only {pct:.1}% received");
}

#[test]
fn hierarchical_clients_attach_and_stream() {
    let mut cfg = DcoConfig::paper_default(16, 10);
    cfg.tier = TierMode::Hierarchical {
        stable_threshold: 0.99, // nobody promotes in this test
        overload_lookups: 10_000,
        check_every: SimDuration::from_secs(5),
    };
    let mut sim = build(cfg, 21);
    sim.run_until(SimTime::from_secs(80));
    let p = sim.protocol();
    // Only the server is a ring member; everyone else is a client of it.
    assert_eq!(p.chord().member_count(), 1);
    for i in 1..16u32 {
        assert_eq!(p.role_of(NodeId(i)), Some(Role::Client));
    }
    let pct = p.obs.fold_figures(SimTime::from_secs(80), &[]).received_pct;
    assert!(
        pct > 99.0,
        "clients streamed through the coordinator: {pct:.1}%"
    );
}

#[test]
fn hierarchical_overload_promotes_stable_clients() {
    let mut cfg = DcoConfig::paper_default(20, 40);
    cfg.tier = TierMode::Hierarchical {
        stable_threshold: 0.2, // easy bar
        overload_lookups: 5,   // overload immediately
        check_every: SimDuration::from_secs(2),
    };
    let mut sim = build(cfg, 33);
    sim.run_until(SimTime::from_secs(120));
    let p = sim.protocol();
    assert!(
        p.coordinator_count() > 1,
        "no promotion happened (pool = {})",
        p.coordinator_count()
    );
    assert!(
        p.chord().member_count() > 1,
        "promoted nodes joined the ring"
    );
    let pct = p
        .obs
        .fold_figures(SimTime::from_secs(120), &[])
        .received_pct;
    assert!(pct > 97.0, "delivery held through promotions: {pct:.1}%");
}

#[test]
fn a_mid_stream_kill_costs_fetch_failures_not_delivery() {
    // A node killed mid-stream strands the requests and lookups aimed at
    // it: the run must count fetch failures, and the retries must still
    // deliver.
    let cfg = DcoConfig::paper_churn(10, 20);
    let mut sim = build(cfg, 17);
    sim.schedule_leave(NodeId(3), SimTime::from_secs(6), false);
    sim.run_until(SimTime::from_secs(90));
    let p = sim.protocol();
    assert!(
        p.fetch_failures > 0,
        "the kill must cause at least one timeout"
    );
    assert!(p.obs.fold_figures(SimTime::from_secs(90), &[]).received_pct > 95.0);
}

#[test]
fn hierarchical_coordinator_failure_reattaches_clients() {
    // Promote aggressively, then kill a promoted coordinator; its clients
    // must detect the silence, report CoordinatorLost to the server, get a
    // replacement, and keep streaming.
    let mut cfg = DcoConfig::paper_default(20, 60);
    cfg.static_ring = false; // ring must be repairable
    cfg.tier = TierMode::Hierarchical {
        stable_threshold: 0.2,
        overload_lookups: 5,
        check_every: SimDuration::from_secs(2),
    };
    let mut sim = build(cfg, 51);
    sim.run_until(SimTime::from_secs(30));
    let promoted: Vec<NodeId> = {
        let p = sim.protocol();
        (1..20u32)
            .map(NodeId)
            .filter(|&n| p.role_of(n) == Some(Role::Coordinator))
            .collect()
    };
    assert!(
        !promoted.is_empty(),
        "someone must have been promoted by t=30"
    );
    let victim = promoted[0];
    sim.schedule_leave(victim, SimTime::from_secs(31), false);
    sim.run_until(SimTime::from_secs(140));
    let p = sim.protocol();
    // No live client still points at the corpse.
    for n in 1..20u32 {
        let n = NodeId(n);
        if n == victim {
            continue;
        }
        if p.role_of(n) == Some(Role::Client) {
            assert_ne!(
                p.nodes[n.index()].as_ref().unwrap().coordinator,
                Some(victim),
                "{n} still attached to the dead coordinator"
            );
        }
    }
    // The stream still flowed for the survivors.
    let pct = p
        .obs
        .fold_figures(SimTime::from_secs(140), &[])
        .received_pct;
    assert!(
        pct > 90.0,
        "delivery collapsed after coordinator failure: {pct:.1}%"
    );
}

#[test]
fn session_anchoring_prioritizes_the_live_edge() {
    // A node that rejoins late must receive new chunks promptly even
    // though it also backfills its history.
    let cfg = DcoConfig::paper_churn(16, 40);
    let mut sim = build(cfg, 53);
    sim.schedule_leave(NodeId(6), SimTime::from_secs(5), false);
    sim.schedule_join(NodeId(6), SimTime::from_secs(20));
    sim.run_until(SimTime::from_secs(120));
    let p = sim.protocol();
    // Live chunks after the rejoin arrived within a tight bound…
    for seq in 25..35u32 {
        let gen = p.obs.generated_at(seq).unwrap();
        let got = p
            .obs
            .received_at(seq, NodeId(6))
            .expect("live chunk fetched");
        assert!(
            got.saturating_since(gen) < SimDuration::from_secs(30),
            "chunk {seq} took {:?}",
            got.saturating_since(gen)
        );
    }
    // …and at least part of the missed history was backfilled too.
    let backfilled = (5..20u32)
        .filter(|&s| p.obs.received_at(s, NodeId(6)).is_some())
        .count();
    assert!(backfilled > 0, "no history was repaired");
}

#[test]
fn mass_client_departure_does_not_wedge_the_coordinator() {
    // Hierarchical tier, single coordinator (the server). More than half
    // of its clients vanish abruptly in the same instant; the coordinator's
    // client roster and stable-client book must flush, and the surviving
    // clients must keep streaming to completion.
    let mut cfg = DcoConfig::paper_default(16, 30);
    cfg.tier = TierMode::Hierarchical {
        stable_threshold: 0.2,    // everyone reports, so the book fills up
        overload_lookups: 10_000, // but nobody is promoted
        check_every: SimDuration::from_secs(2),
    };
    let mut sim = build(cfg, 71);
    sim.run_until(SimTime::from_secs(20));
    // Kill 9 of the 15 clients at the same instant.
    let dead: Vec<NodeId> = (1..10u32).map(NodeId).collect();
    for &n in &dead {
        sim.schedule_leave(n, SimTime::from_secs(21), false);
    }
    sim.run_until(SimTime::from_secs(120));
    let p = sim.protocol();
    // Survivors completed the stream through the (still sole) coordinator.
    for seq in 0..30u32 {
        for node in 10..16u32 {
            if p.obs.is_expected(seq, NodeId(node)) {
                assert!(
                    p.obs.received_at(seq, NodeId(node)).is_some(),
                    "survivor N{node} missing chunk {seq}"
                );
            }
        }
    }
    assert_eq!(p.chord().member_count(), 1, "ring membership unchanged");
}

#[test]
fn departure_mid_promotion_recovers() {
    // A coordinator under load promotes its most stable client — and that
    // client dies abruptly right as the promotion is in flight, before its
    // Chord join can complete. The system must not wedge: later tier
    // checks promote someone else and delivery holds.
    let mut cfg = DcoConfig::paper_default(20, 60);
    cfg.static_ring = false;
    cfg.tier = TierMode::Hierarchical {
        stable_threshold: 0.2,
        overload_lookups: 5, // overload immediately
        check_every: SimDuration::from_secs(2),
    };
    let mut sim = build(cfg, 83);
    // Tier checks fire every 2 s from t=0; the first promotions go out in
    // the first few checks. Kill a swath of early (lowest-id, longest-lived
    // and thus most-stable-ranked) clients right across that window so at
    // least one Promote lands on a node that is dead or dying.
    for (i, n) in (2..7u32).enumerate() {
        sim.schedule_leave(
            NodeId(n),
            SimTime::from_millis(4500 + 250 * i as u64),
            false,
        );
    }
    sim.run_until(SimTime::from_secs(140));
    let p = sim.protocol();
    // Someone (still alive) made it into the ring regardless.
    assert!(
        p.chord().member_count() > 1,
        "no promotion survived the churn window"
    );
    // No dead node lingers in the server's assignment rotation with
    // clients attached to it: every live client's coordinator is live.
    for n in 7..20u32 {
        let n = NodeId(n);
        if p.role_of(n) == Some(Role::Client) {
            if let Some(c) = p.nodes[n.index()].as_ref().unwrap().coordinator {
                assert!(
                    p.nodes[c.index()].is_some(),
                    "live client {n} attached to dead coordinator {c}"
                );
            }
        }
    }
    // Delivery held for the nodes that lived through it.
    let pct = p
        .obs
        .fold_figures(SimTime::from_secs(140), &[])
        .received_pct;
    assert!(pct > 85.0, "delivery collapsed: {pct:.1}%");
}

#[test]
fn rejoin_collides_with_stale_pending_state() {
    // A node leaves abruptly mid-stream and rejoins shortly after, while
    // peers still hold its corpse in suspicion tombstones, pending-fetch
    // tables and provider indices from the previous life. The reused node
    // slot must come back clean: the rejoined node re-attaches, catches
    // the live edge, and ends the run fully streaming.
    let cfg = DcoConfig::paper_churn(14, 40);
    let mut sim = build(cfg, 97);
    sim.run_until(SimTime::from_secs(10));
    // Abrupt death at 11 s, rejoin 4 s later — well inside the suspicion
    // TTL, so the rejoin collides with every stale entry peers still hold.
    sim.schedule_leave(NodeId(5), SimTime::from_secs(11), false);
    sim.schedule_join(NodeId(5), SimTime::from_secs(15));
    sim.run_until(SimTime::from_secs(130));
    let p = sim.protocol();
    // The second tenancy is live and streaming: chunks generated after
    // the rejoin settled all arrived.
    for seq in 25..40u32 {
        if p.obs.is_expected(seq, NodeId(5)) {
            assert!(
                p.obs.received_at(seq, NodeId(5)).is_some(),
                "rejoined node missing live chunk {seq}"
            );
        }
    }
    // And the rest of the audience was not damaged by the collision.
    for seq in 0..40u32 {
        for node in 1..14u32 {
            if node == 5 {
                continue;
            }
            if p.obs.is_expected(seq, NodeId(node)) {
                assert!(
                    p.obs.received_at(seq, NodeId(node)).is_some(),
                    "N{node} missing chunk {seq}"
                );
            }
        }
    }
}

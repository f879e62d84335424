//! §III's hierarchical infrastructure in action: viewers attach to
//! coordinators as lower-tier clients; when the coordinator tier overloads,
//! the most stable clients (Cox longevity model, Eq. 1) are promoted into
//! the Chord ring, splitting the index load.
//!
//! ```text
//! cargo run --release --example hierarchical_tier
//! ```

use dco::core::proto::{DcoConfig, DcoProtocol, Role, TierMode};
use dco::sim::prelude::*;

fn main() {
    let n_nodes: u32 = 64;
    let n_chunks: u32 = 80;
    let mut cfg = DcoConfig::paper_default(n_nodes, n_chunks);
    cfg.tier = TierMode::Hierarchical {
        stable_threshold: 0.5,
        overload_lookups: 40, // promote once a coordinator fields >40 lookups per check
        check_every: SimDuration::from_secs(4),
    };

    let mut sim = Simulator::new(DcoProtocol::new(cfg), NetConfig::paper_model(), 11);
    for i in 0..n_nodes {
        let caps = if i == 0 {
            NodeCaps::server_default()
        } else {
            NodeCaps::peer_default()
        };
        let id = sim.add_node(caps);
        sim.schedule_join(id, SimTime::ZERO);
    }

    println!(
        "== hierarchical tier: {} viewers, server-only ring at start ==\n",
        n_nodes - 1
    );
    println!(
        "{:>8} {:>14} {:>14} {:>12}",
        "t (s)", "ring members", "coordinators", "received %"
    );
    for t in [5u64, 15, 30, 60, 100, 140] {
        sim.run_until(SimTime::from_secs(t));
        let p = sim.protocol();
        println!(
            "{:>8} {:>14} {:>14} {:>12.1}",
            t,
            p.chord().member_count(),
            p.coordinator_count(),
            p.obs.fold_figures(SimTime::from_secs(t), &[]).received_pct
        );
    }

    let p = sim.protocol();
    let promoted: Vec<u32> = (1..n_nodes)
        .filter(|&i| p.role_of(NodeId(i)) == Some(Role::Coordinator))
        .collect();
    println!("\npromoted into the ring: {promoted:?}");
    println!(
        "still clients          : {}",
        (1..n_nodes)
            .filter(|&i| p.role_of(NodeId(i)) == Some(Role::Client))
            .count()
    );

    let final_pct = p
        .obs
        .fold_figures(SimTime::from_secs(140), &[])
        .received_pct;
    assert!(p.coordinator_count() > 1, "the tier must have grown");
    assert!(final_pct > 97.0, "stream must complete: {final_pct:.1}%");
    println!("\nelastic tier carried the stream ✓");
}

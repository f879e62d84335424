//! Quickstart: stream a short live channel through DCO and print the four
//! §IV metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dco::core::proto::{DcoConfig, DcoProtocol};
use dco::sim::prelude::*;

fn main() {
    // 32 viewers + the server, 20 one-second chunks of 300 kb.
    let n_nodes = 32;
    let n_chunks = 20;
    let cfg = DcoConfig::paper_default(n_nodes, n_chunks);

    let mut sim = Simulator::new(DcoProtocol::new(cfg), NetConfig::paper_model(), 42);
    for i in 0..n_nodes {
        let caps = if i == 0 {
            NodeCaps::server_default() // 4000 kbps source
        } else {
            NodeCaps::peer_default() // 600 kbps viewers
        };
        let id = sim.add_node(caps);
        sim.schedule_join(id, SimTime::ZERO);
    }

    let horizon = SimTime::from_secs(60);
    sim.run_until(horizon);

    let p = sim.protocol();
    let m = p.obs.fold_figures(horizon, &[SimDuration::from_secs(2)]);
    println!(
        "== DCO quickstart: {} viewers, {} chunks ==",
        n_nodes - 1,
        n_chunks
    );
    println!("mean mesh delay        : {:>8.2} s", m.mean_mesh_delay);
    println!("fill ratio +2s         : {:>8.3}", m.fill_at_offsets[0]);
    println!(
        "extra overhead         : {:>8} control messages",
        sim.counters().control_total()
    );
    println!("chunks received        : {:>8.1} %", m.received_pct);
    println!();
    println!("overhead by message class:");
    for (tag, n) in sim.counters().tags() {
        println!("  {tag:<14} {n:>8}");
    }
    assert!(m.received_pct > 99.0);
    println!("\nall chunks delivered ✓");
}

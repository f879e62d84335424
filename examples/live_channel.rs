//! A realistic live channel: viewers tune in over time, watch the stream
//! through DCO's coordinator ring, and the example reports how the chunk
//! indices and serving load spread across the overlay.
//!
//! ```text
//! cargo run --release --example live_channel
//! ```

use dco::core::chunk::ChunkSeq;
use dco::core::proto::{DcoConfig, DcoProtocol};
use dco::sim::prelude::*;

fn main() {
    let n_nodes: u32 = 128;
    let n_chunks: u32 = 60;
    // Dynamic ring: viewers join the DHT as they arrive.
    let mut cfg = DcoConfig::paper_churn(n_nodes, n_chunks);
    cfg.neighbors = 16;

    let mut sim = Simulator::new(DcoProtocol::new(cfg), NetConfig::paper_model(), 7);
    // The server is up from the start; viewers arrive over the first 30 s
    // (a flash crowd ramp), four per second.
    for i in 0..n_nodes {
        let caps = if i == 0 {
            NodeCaps::server_default()
        } else {
            NodeCaps::peer_default()
        };
        let id = sim.add_node(caps);
        let at = if i == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_millis(u64::from(i) * 250)
        };
        sim.schedule_join(id, at);
    }

    let horizon = SimTime::from_secs(120);
    sim.run_until(horizon);

    let p = sim.protocol();
    println!(
        "== live channel: {} viewers arriving over 30 s ==\n",
        n_nodes - 1
    );

    let m = p.obs.fold_figures(horizon, &[]);
    println!("ring members          : {:>6}", p.chord().member_count());
    println!("chunks received       : {:>6.1} %", m.received_pct);
    println!("mean mesh delay       : {:>6.2} s", m.mean_mesh_delay);
    println!("fetch failures seen   : {:>6}", p.fetch_failures);

    // How evenly did the coordinators share the index load?
    let mut index_counts: Vec<usize> = (0..n_nodes).map(|i| p.index_count(NodeId(i))).collect();
    index_counts.sort_unstable();
    let total: usize = index_counts.iter().sum();
    println!("\nindex entries         : {total} across the ring");
    println!(
        "per-coordinator (min / median / max): {} / {} / {}",
        index_counts.first().unwrap(),
        index_counts[index_counts.len() / 2],
        index_counts.last().unwrap()
    );

    // Who actually served the chunks? The server should NOT be the only
    // provider once the swarm warms up.
    let server_serves = p.serves[0];
    let peer_serves: u64 = p.serves[1..].iter().sum();
    println!("\nchunks served by server: {server_serves}");
    println!("chunks served by peers : {peer_serves}");

    // Late viewers only watch from their join point — check one.
    let late = NodeId(n_nodes - 1);
    let first_held = (0..n_chunks).map(ChunkSeq).find(|&s| p.holds(late, s));
    println!(
        "\nlast viewer to arrive holds chunks from {:?} onward",
        first_held
    );

    assert!(m.received_pct > 95.0);
    assert!(
        peer_serves > server_serves,
        "the swarm must carry most load"
    );
    println!("\nswarm carried the stream ✓");
}

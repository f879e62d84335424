//! Churn storm: the same viewer churn hits DCO and the tree baseline;
//! watch who keeps delivering (the paper's Figs. 11–12 story in miniature).
//!
//! ```text
//! cargo run --release --example churn_storm
//! ```

use dco::baselines::{BaselineConfig, TreeProtocol};
use dco::core::proto::{DcoConfig, DcoProtocol};
use dco::sim::engine::{Protocol, Simulator};
use dco::sim::prelude::*;
use dco::workload::Scenario;

const N_NODES: u32 = 96;
const N_CHUNKS: u32 = 60;
const MEAN_LIFE_SECS: u64 = 45;
const HORIZON_SECS: u64 = 120;

fn scenario(seed: u64) -> Scenario {
    let mut s = Scenario::paper_churn(MEAN_LIFE_SECS, seed);
    s.n_nodes = N_NODES;
    s.n_chunks = N_CHUNKS;
    s.horizon = SimTime::from_secs(HORIZON_SECS);
    s
}

fn run_one<P: Protocol>(protocol: P) -> Simulator<P> {
    let s = scenario(1234);
    let mut sim = Simulator::new(protocol, NetConfig::paper_model(), s.seed);
    s.install(&mut sim);
    sim.run_until(s.horizon);
    sim
}

fn main() {
    println!(
        "== churn storm: {} peers, exponential life/downtime ~{} s ==\n",
        N_NODES - 1,
        MEAN_LIFE_SECS
    );

    // DCO with a dynamic ring.
    let mut dco_cfg = DcoConfig::paper_churn(N_NODES, N_CHUNKS);
    dco_cfg.neighbors = 16;
    let dco_sim = run_one(DcoProtocol::new(dco_cfg));
    let dco_obs = &dco_sim.protocol().obs;

    // The rigid tree (out-degree 2 — its most forgiving setting here).
    let mut tree_cfg = BaselineConfig::paper_default(N_NODES, N_CHUNKS);
    tree_cfg.neighbors = 16; // → degree 2 by the paper's nb/8 rule
    let tree_sim = run_one(TreeProtocol::with_paper_degree(tree_cfg));
    let tree_obs = &tree_sim.protocol().obs;

    println!("{:>8}  {:>10}  {:>10}", "t (s)", "DCO %", "tree %");
    let mut t = HORIZON_SECS / 2;
    while t <= HORIZON_SECS {
        println!(
            "{:>8}  {:>10.1}  {:>10.1}",
            t,
            dco_obs
                .fold_figures(SimTime::from_secs(t), &[])
                .received_pct,
            tree_obs
                .fold_figures(SimTime::from_secs(t), &[])
                .received_pct,
        );
        t += 10;
    }

    let horizon = SimTime::from_secs(HORIZON_SECS);
    let dco_pct = dco_obs.fold_figures(horizon, &[]).received_pct;
    let tree_pct = tree_obs.fold_figures(horizon, &[]).received_pct;
    println!("\nfinal: DCO {dco_pct:.1}%  vs  tree {tree_pct:.1}%");
    assert!(
        dco_pct > tree_pct,
        "DCO must out-deliver the rigid tree under churn"
    );
    println!("DCO out-delivered the tree under churn ✓");
}

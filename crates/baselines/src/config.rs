//! Shared configuration for the three baselines.
//!
//! The stream and the request timing are DCO's own (`dco_core::chunk` and
//! `dco_core::proto` constants), so every protocol runs the same schedule.

use dco_sim::time::SimDuration;

/// Buffer-map exchange period (§IV: "nodes exchange buffer maps with their
/// neighbors every second").
pub const BUFMAP_EVERY: SimDuration = SimDuration::from_secs(1);

/// The settings §IV varies for the pull, push and tree baselines.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// Total nodes including the server (node 0).
    pub n_nodes: u32,
    /// Chunks the server emits.
    pub n_chunks: u32,
    /// Mesh neighbors per node (pull/push); tree reinterprets this as its
    /// out-degree.
    pub neighbors: usize,
}

impl BaselineConfig {
    /// The paper's §IV defaults.
    pub fn paper_default(n_nodes: u32, n_chunks: u32) -> Self {
        BaselineConfig {
            n_nodes,
            n_chunks,
            neighbors: 32,
        }
    }
}

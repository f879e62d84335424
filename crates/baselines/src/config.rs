//! Shared configuration for the three baselines.

use dco_sim::msg::SizeBits;
use dco_sim::time::{SimDuration, SimTime};

/// Parameters common to the pull, push and tree baselines (§IV defaults).
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// Total nodes including the server (node 0).
    pub n_nodes: u32,
    /// Chunks the server emits.
    pub n_chunks: u32,
    /// Chunk payload size (300 kb).
    pub chunk_size: SizeBits,
    /// Chunk emission interval (1 s).
    pub chunk_interval: SimDuration,
    /// Mesh neighbors per node (pull/push); tree reinterprets this as its
    /// out-degree.
    pub neighbors: usize,
    /// Buffer-map exchange period ("nodes exchange buffer maps with their
    /// neighbors every second").
    pub bufmap_every: SimDuration,
    /// Pull-loop period.
    pub pull_tick: SimDuration,
    /// Pull request timeout.
    pub request_timeout: SimDuration,
    /// Maximum concurrent pull requests per node.
    pub max_inflight: usize,
    /// Upload backlog beyond which pushes are deferred ("once there is
    /// available upload bandwidth").
    pub busy_backlog: SimDuration,
}

impl BaselineConfig {
    /// The paper's §IV defaults.
    pub fn paper_default(n_nodes: u32, n_chunks: u32) -> Self {
        BaselineConfig {
            n_nodes,
            n_chunks,
            chunk_size: SizeBits::from_kilobits(300),
            chunk_interval: SimDuration::from_secs(1),
            neighbors: 32,
            bufmap_every: SimDuration::from_secs(1),
            pull_tick: SimDuration::from_millis(250),
            request_timeout: SimDuration::from_millis(2_000),
            max_inflight: 4,
            busy_backlog: SimDuration::from_millis(1_500),
        }
    }

    /// The newest chunk generated at or before `now` (`None` before the
    /// stream starts).
    pub fn latest_at(&self, now: SimTime) -> Option<u32> {
        if self.n_chunks == 0 || self.chunk_interval.is_zero() {
            return None;
        }
        let k = (now.as_micros() / self.chunk_interval.as_micros()) as u32;
        Some(k.min(self.n_chunks - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_section_4() {
        let c = BaselineConfig::paper_default(512, 100);
        assert_eq!(c.chunk_size.bits(), 300_000);
        assert_eq!(c.chunk_interval, SimDuration::from_secs(1));
        assert_eq!(c.bufmap_every, SimDuration::from_secs(1));
    }

    #[test]
    fn latest_at_schedule() {
        let c = BaselineConfig::paper_default(8, 10);
        assert_eq!(c.latest_at(SimTime::ZERO), Some(0));
        assert_eq!(c.latest_at(SimTime::from_millis(5_500)), Some(5));
        assert_eq!(c.latest_at(SimTime::from_secs(50)), Some(9), "clamped");
        let empty = BaselineConfig::paper_default(8, 0);
        assert_eq!(empty.latest_at(SimTime::from_secs(5)), None);
    }
}

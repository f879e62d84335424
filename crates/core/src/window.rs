//! The adaptive prefetching window (§III-B2, Eq. 2).
//!
//! The prefetch window hides DHT lookup latency: a node fetches chunks up to
//! `W_pf` positions ahead of its playhead. The paper sizes it adaptively:
//!
//! ```text
//! W_pf = W · B / (b · (1 − p_f))
//! ```
//!
//! where `W` is the predefined base window, `B` the network-average download
//! bandwidth, `b` the node's own download bandwidth, and `p_f` the node's
//! observed chunk-fetch failure probability. Slower nodes and nodes seeing
//! more failures prefetch further ahead.

use dco_sim::net::Kbps;

/// The predefined base window `W`, in chunks.
pub const BASE_CHUNKS: u32 = 10;
/// Network-average download bandwidth `B`.
pub const AVG_BANDWIDTH: Kbps = Kbps(600);
/// Lower clamp for the adapted window, in chunks.
pub const MIN_CHUNKS: u32 = 2;
/// Upper clamp for the adapted window, in chunks.
pub const MAX_CHUNKS: u32 = 60;
/// EWMA smoothing factor `α` of the failure estimate.
pub const FAILURE_ALPHA: f64 = 0.2;

/// Per-node adaptive prefetch window state.
#[derive(Clone, Debug)]
pub struct PrefetchWindow {
    /// This node's download bandwidth `b`.
    my_bandwidth: Kbps,
    /// EWMA estimate of the fetch-failure probability `p_f`.
    failure_rate: f64,
    /// Fetch outcomes observed (diagnostics).
    fetches: u64,
    failures: u64,
}

impl PrefetchWindow {
    /// A window for a node with download bandwidth `my_bandwidth`.
    pub fn new(my_bandwidth: Kbps) -> Self {
        PrefetchWindow {
            my_bandwidth,
            failure_rate: 0.0,
            fetches: 0,
            failures: 0,
        }
    }

    /// Records a successful chunk fetch.
    pub fn record_success(&mut self) {
        self.fetches += 1;
        self.failure_rate *= 1.0 - FAILURE_ALPHA;
    }

    /// Records a failed chunk fetch (timeout / busy provider).
    pub fn record_failure(&mut self) {
        self.fetches += 1;
        self.failures += 1;
        self.failure_rate = self.failure_rate * (1.0 - FAILURE_ALPHA) + FAILURE_ALPHA;
    }

    /// The current failure estimate `p_f` in `[0, 1)`.
    pub fn failure_rate(&self) -> f64 {
        self.failure_rate
    }

    /// Lifetime totals `(fetches, failures)`.
    pub fn totals(&self) -> (u64, u64) {
        (self.fetches, self.failures)
    }

    /// Eq. 2: the adapted window size in chunks, clamped to
    /// `[MIN_CHUNKS, MAX_CHUNKS]`.
    pub fn size_chunks(&self) -> u32 {
        let b = self.my_bandwidth.0.max(1) as f64;
        let big_b = AVG_BANDWIDTH.0 as f64;
        let pf = self.failure_rate.clamp(0.0, 0.99);
        let w = BASE_CHUNKS as f64 * big_b / (b * (1.0 - pf));
        (w.ceil() as u32).clamp(MIN_CHUNKS, MAX_CHUNKS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_node_gets_base_window() {
        let w = PrefetchWindow::new(Kbps(600));
        assert_eq!(w.size_chunks(), 10, "b = B, p_f = 0 ⇒ W");
    }

    #[test]
    fn slower_node_gets_larger_window() {
        let slow = PrefetchWindow::new(Kbps(300));
        let fast = PrefetchWindow::new(Kbps(1200));
        assert_eq!(slow.size_chunks(), 20, "half bandwidth ⇒ double window");
        assert!(fast.size_chunks() < 10);
        assert!(fast.size_chunks() >= MIN_CHUNKS);
    }

    #[test]
    fn failures_grow_the_window() {
        let mut w = PrefetchWindow::new(Kbps(600));
        let before = w.size_chunks();
        for _ in 0..20 {
            w.record_failure();
        }
        assert!(w.failure_rate() > 0.9);
        assert!(w.size_chunks() > before * 5, "p_f → 1 inflates the window");
        // Successes shrink it back.
        for _ in 0..40 {
            w.record_success();
        }
        assert!(w.failure_rate() < 0.01);
        assert!(
            w.size_chunks() <= before + 1,
            "residual ε only adds ≤1 chunk"
        );
    }

    #[test]
    fn window_is_clamped() {
        let mut w = PrefetchWindow::new(Kbps(10)); // absurdly slow
        assert_eq!(w.size_chunks(), MAX_CHUNKS);
        for _ in 0..50 {
            w.record_failure();
        }
        assert_eq!(w.size_chunks(), MAX_CHUNKS);

        let w = PrefetchWindow::new(Kbps(1_000_000)); // absurdly fast
        assert_eq!(w.size_chunks(), MIN_CHUNKS);
    }

    #[test]
    fn totals_track_outcomes() {
        let mut w = PrefetchWindow::new(Kbps(600));
        w.record_success();
        w.record_failure();
        w.record_success();
        assert_eq!(w.totals(), (3, 1));
    }

    #[test]
    fn zero_bandwidth_does_not_divide_by_zero() {
        let w = PrefetchWindow::new(Kbps(0));
        assert_eq!(w.size_chunks(), MAX_CHUNKS);
    }
}

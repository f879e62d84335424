//! A FIFO access-link pipe.
//!
//! Each node owns two [`Pipe`]s — upload and download. A pipe serializes the
//! transfers pushed through it at its fixed rate: a transfer admitted at
//! `now` begins draining at `max(now, busy_until)` and occupies the pipe for
//! `size / rate`. This is exactly the paper's queueing rule: *"When a node is
//! overloaded, it will queue its chunks in its buffer and will not perform
//! any chunk transmission until it has sufficient bandwidth."*
//!
//! The pipe also answers two questions protocols need:
//!
//! * [`Pipe::backlog`] — how long until the pipe is idle again. DCO
//!   coordinators use the *provider's* upload backlog to judge "sufficient
//!   available bandwidth".
//! * [`Pipe::available_kbps`] — the average spare rate over a smoothing
//!   horizon, which is what a chunk index advertises.

use crate::msg::SizeBits;
use crate::time::{SimDuration, SimTime};

use super::bandwidth::Kbps;

/// A fixed-rate FIFO pipe.
#[derive(Clone, Debug)]
pub struct Pipe {
    rate: Kbps,
    /// The instant at which the last admitted transfer finishes draining.
    busy_until: SimTime,
}

impl Pipe {
    /// A new idle pipe with the given rate.
    pub fn new(rate: Kbps) -> Self {
        Pipe {
            rate,
            busy_until: SimTime::ZERO,
        }
    }

    /// The pipe's configured rate.
    #[inline]
    pub fn rate(&self) -> Kbps {
        self.rate
    }

    /// Admits a transfer of `size` at time `now`.
    ///
    /// Returns `(start, finish)`: the transfer occupies the pipe on
    /// `[start, finish)` where `start = max(now, busy_until)` and
    /// `finish = start + size/rate`. The pipe's horizon advances to `finish`.
    pub fn admit(&mut self, now: SimTime, size: SizeBits) -> (SimTime, SimTime) {
        let start = now.max(self.busy_until);
        let finish = start.saturating_add(self.rate.transfer_time(size));
        self.busy_until = finish;
        (start, finish)
    }

    /// How much queueing delay a transfer admitted at `now` would see before
    /// it starts draining (zero when idle).
    #[inline]
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    /// True if the pipe has no queued or in-flight transfer at `now`.
    #[inline]
    pub fn is_idle(&self, now: SimTime) -> bool {
        self.busy_until <= now
    }

    /// The instant the pipe next becomes idle.
    #[inline]
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// The spare capacity, averaged over the next `horizon`, in kbps.
    ///
    /// If the current backlog already exceeds the horizon the answer is 0; if
    /// the pipe is idle the answer is the full rate. This is the figure a DCO
    /// node advertises as its "available bandwidth" in chunk indices.
    pub fn available_kbps(&self, now: SimTime, horizon: SimDuration) -> Kbps {
        if horizon.is_zero() {
            return if self.is_idle(now) {
                self.rate
            } else {
                Kbps(0)
            };
        }
        let backlog = self.backlog(now);
        if backlog >= horizon {
            return Kbps(0);
        }
        let idle = horizon - backlog;
        let frac = idle.as_micros() as f64 / horizon.as_micros() as f64;
        Kbps((self.rate.0 as f64 * frac).floor() as u32)
    }

    /// Resets the queue (used when a node slot is recycled after churn).
    pub fn reset(&mut self, now: SimTime) {
        self.busy_until = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb(k: u64) -> SizeBits {
        SizeBits::from_kilobits(k)
    }

    #[test]
    fn idle_pipe_starts_immediately() {
        let mut p = Pipe::new(Kbps(600));
        let (start, finish) = p.admit(SimTime::from_secs(10), kb(300));
        assert_eq!(start, SimTime::from_secs(10));
        assert_eq!(
            finish,
            SimTime::from_secs(10) + SimDuration::from_millis(500)
        );
    }

    #[test]
    fn transfers_serialize_fifo() {
        let mut p = Pipe::new(Kbps(600));
        let (_, f1) = p.admit(SimTime::ZERO, kb(300)); // 0.0 .. 0.5
        let (s2, f2) = p.admit(SimTime::ZERO, kb(300)); // 0.5 .. 1.0
        assert_eq!(s2, f1, "second transfer queues behind the first");
        assert_eq!(f2, SimTime::from_secs(1));
    }

    #[test]
    fn pipe_drains_over_time() {
        let mut p = Pipe::new(Kbps(600));
        p.admit(SimTime::ZERO, kb(300));
        assert!(!p.is_idle(SimTime::from_millis(499)));
        assert!(p.is_idle(SimTime::from_millis(500)));
        // Admitting after an idle gap does not inherit the stale horizon.
        let (s, _) = p.admit(SimTime::from_secs(2), kb(300));
        assert_eq!(s, SimTime::from_secs(2));
    }

    #[test]
    fn backlog_measurement() {
        let mut p = Pipe::new(Kbps(600));
        p.admit(SimTime::ZERO, kb(300));
        assert_eq!(p.backlog(SimTime::ZERO), SimDuration::from_millis(500));
        assert_eq!(
            p.backlog(SimTime::from_millis(200)),
            SimDuration::from_millis(300)
        );
        assert_eq!(p.backlog(SimTime::from_secs(1)), SimDuration::ZERO);
    }

    #[test]
    fn available_bandwidth_full_when_idle() {
        let p = Pipe::new(Kbps(600));
        assert_eq!(
            p.available_kbps(SimTime::ZERO, SimDuration::from_secs(1)),
            Kbps(600)
        );
    }

    #[test]
    fn available_bandwidth_zero_when_saturated() {
        let mut p = Pipe::new(Kbps(600));
        for _ in 0..10 {
            p.admit(SimTime::ZERO, kb(300)); // 5 s of backlog
        }
        assert_eq!(
            p.available_kbps(SimTime::ZERO, SimDuration::from_secs(1)),
            Kbps(0)
        );
    }

    #[test]
    fn available_bandwidth_partial() {
        let mut p = Pipe::new(Kbps(600));
        p.admit(SimTime::ZERO, kb(300)); // 0.5 s busy of a 1 s horizon
        assert_eq!(
            p.available_kbps(SimTime::ZERO, SimDuration::from_secs(1)),
            Kbps(300)
        );
    }

    #[test]
    fn available_bandwidth_zero_horizon_is_idle_test() {
        let mut p = Pipe::new(Kbps(600));
        assert_eq!(
            p.available_kbps(SimTime::ZERO, SimDuration::ZERO),
            Kbps(600)
        );
        p.admit(SimTime::ZERO, kb(300));
        assert_eq!(p.available_kbps(SimTime::ZERO, SimDuration::ZERO), Kbps(0));
    }

    #[test]
    fn reset_clears_backlog() {
        let mut p = Pipe::new(Kbps(600));
        p.admit(SimTime::ZERO, kb(3000));
        p.reset(SimTime::from_secs(1));
        assert!(p.is_idle(SimTime::from_secs(1)));
    }
}

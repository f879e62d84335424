//! Churn schedule generation.
//!
//! §IV-D: "the node life span is set to an exponential distribution with
//! mean ranging from 60 s to 120 s, and the join interval of nodes is set to
//! the same distribution. Therefore, nodes are constantly leaving and
//! joining the network, and the network scale remains relatively stable."
//!
//! We model each peer as alternating **sessions**: up for `Exp(mean_life)`,
//! down for `Exp(mean_join_interval)`, repeating over the run — the standard
//! P2PSim churn model, which keeps the population stationary. Each departure
//! is independently graceful with probability `graceful_fraction`.

use dco_sim::node::NodeId;
use dco_sim::rng::SimRng;
use dco_sim::time::{SimDuration, SimTime};

/// Churn parameters.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Mean up-time per session (exponential).
    pub mean_life: SimDuration,
    /// Mean down-time between sessions (exponential).
    pub mean_join_interval: SimDuration,
    /// Probability that a departure is graceful (vs abrupt failure).
    pub graceful_fraction: f64,
    /// First instant at which a node may leave (lets the overlay bootstrap).
    pub start_after: SimTime,
}

impl ChurnConfig {
    /// The paper's Fig. 11 setting: mean life = join interval = 60 s, all
    /// departures abrupt (the hardest case, which is what breaks trees).
    pub fn paper_fig11() -> Self {
        ChurnConfig {
            mean_life: SimDuration::from_secs(60),
            mean_join_interval: SimDuration::from_secs(60),
            graceful_fraction: 0.0,
            start_after: SimTime::ZERO,
        }
    }

    /// The Fig. 12 sweep point with the given mean life (seconds).
    pub fn paper_fig12(mean_life_secs: u64) -> Self {
        ChurnConfig {
            mean_life: SimDuration::from_secs(mean_life_secs),
            mean_join_interval: SimDuration::from_secs(mean_life_secs),
            graceful_fraction: 0.0,
            start_after: SimTime::ZERO,
        }
    }
}

/// One scheduled lifecycle event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// The node (re)joins at the given instant.
    Join(SimTime),
    /// The node leaves at the given instant (`true` = graceful).
    Leave(SimTime, bool),
}

/// A full churn schedule: per-node alternating join/leave events.
#[derive(Clone, Debug, Default)]
pub struct ChurnSchedule {
    /// `events[i]` = ordered lifecycle of node `i`.
    pub events: Vec<(NodeId, Vec<ChurnEvent>)>,
}

/// Samples an exponential with the given mean (never zero; never beyond
/// ~30× the mean, to keep event counts bounded).
fn sample_exp(rng: &mut SimRng, mean: SimDuration) -> SimDuration {
    let u: f64 = rng.gen_range(1e-12..1.0);
    let x = -u.ln();
    mean.mul_f64(x.min(30.0)).max(SimDuration::from_micros(1))
}

impl ChurnSchedule {
    /// Builds the schedule for peers `first..first+count` over `[0,
    /// horizon]`. Each peer joins at `t = 0` (plus a small deterministic
    /// stagger below one second so join processing does not all land on the
    /// same instant) and then alternates leave/join per the config.
    pub fn generate(
        first: u32,
        count: u32,
        horizon: SimTime,
        cfg: &ChurnConfig,
        seed: u64,
    ) -> Self {
        let mut events = Vec::with_capacity(count as usize);
        for i in 0..count {
            let node = NodeId(first + i);
            let mut rng = SimRng::seed_from_u64(dco_sim::rng::splitmix64(
                seed ^ (u64::from(first + i)).wrapping_mul(0x517C_C1B7),
            ));
            let mut seq = Vec::new();
            let stagger = SimDuration::from_micros(u64::from(i) % 1_000_000);
            let mut t = SimTime::ZERO + stagger;
            seq.push(ChurnEvent::Join(t));
            loop {
                // Session length.
                let up = sample_exp(&mut rng, cfg.mean_life);
                let mut leave_at = t.saturating_add(up);
                if leave_at < cfg.start_after {
                    leave_at = cfg.start_after.saturating_add(SimDuration::from_micros(1));
                }
                if leave_at >= horizon {
                    break;
                }
                let graceful = rng.gen_bool(cfg.graceful_fraction.clamp(0.0, 1.0));
                seq.push(ChurnEvent::Leave(leave_at, graceful));
                // Downtime.
                let down = sample_exp(&mut rng, cfg.mean_join_interval);
                let rejoin = leave_at.saturating_add(down);
                if rejoin >= horizon {
                    break;
                }
                seq.push(ChurnEvent::Join(rejoin));
                t = rejoin;
            }
            events.push((node, seq));
        }
        ChurnSchedule { events }
    }

    /// Total number of leave events in the schedule.
    pub fn total_leaves(&self) -> usize {
        self.events
            .iter()
            .map(|(_, seq)| {
                seq.iter()
                    .filter(|e| matches!(e, ChurnEvent::Leave(..)))
                    .count()
            })
            .sum()
    }

    /// The intervals during which `node` is up, clipped to `[0, horizon]`.
    pub fn up_intervals(&self, node: NodeId, horizon: SimTime) -> Vec<(SimTime, SimTime)> {
        let Some((_, seq)) = self.events.iter().find(|(n, _)| *n == node) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut up_since: Option<SimTime> = None;
        for e in seq {
            match *e {
                ChurnEvent::Join(at) => up_since = Some(at),
                ChurnEvent::Leave(at, _) => {
                    if let Some(s) = up_since.take() {
                        out.push((s, at));
                    }
                }
            }
        }
        if let Some(s) = up_since {
            out.push((s, horizon));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of nodes up at instant `t` according to the schedule.
    fn alive_at(s: &ChurnSchedule, t: SimTime) -> usize {
        s.events
            .iter()
            .filter(|(_, seq)| {
                let mut up = false;
                for e in seq {
                    match *e {
                        ChurnEvent::Join(at) if at <= t => up = true,
                        ChurnEvent::Leave(at, _) if at <= t => up = false,
                        _ => {}
                    }
                }
                up
            })
            .count()
    }

    fn cfg() -> ChurnConfig {
        ChurnConfig {
            mean_life: SimDuration::from_secs(60),
            mean_join_interval: SimDuration::from_secs(60),
            graceful_fraction: 0.5,
            start_after: SimTime::ZERO,
        }
    }

    #[test]
    fn schedule_shape_alternates() {
        let s = ChurnSchedule::generate(1, 50, SimTime::from_secs(300), &cfg(), 42);
        assert_eq!(s.events.len(), 50);
        for (node, seq) in &s.events {
            assert!(node.0 >= 1 && node.0 <= 50);
            assert!(matches!(seq[0], ChurnEvent::Join(_)), "starts with a join");
            // Strictly alternating and time-ordered.
            let mut last_t = SimTime::ZERO;
            for (i, e) in seq.iter().enumerate() {
                let (t, is_join) = match *e {
                    ChurnEvent::Join(t) => (t, true),
                    ChurnEvent::Leave(t, _) => (t, false),
                };
                assert_eq!(is_join, i % 2 == 0, "alternation at {i}");
                assert!(t >= last_t, "time ordering");
                last_t = t;
            }
        }
    }

    #[test]
    fn population_stays_roughly_stable() {
        let s = ChurnSchedule::generate(1, 200, SimTime::from_secs(600), &cfg(), 7);
        // With up/down both Exp(60), steady-state availability is ~50%.
        for probe in [120u64, 300, 500] {
            let alive = alive_at(&s, SimTime::from_secs(probe));
            assert!(
                (60..=140).contains(&alive),
                "alive at {probe}s = {alive}, expected near 100"
            );
        }
    }

    #[test]
    fn determinism_and_seed_sensitivity() {
        let a = ChurnSchedule::generate(1, 20, SimTime::from_secs(300), &cfg(), 1);
        let b = ChurnSchedule::generate(1, 20, SimTime::from_secs(300), &cfg(), 1);
        let c = ChurnSchedule::generate(1, 20, SimTime::from_secs(300), &cfg(), 2);
        assert_eq!(a.events, b.events);
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn graceful_fraction_extremes() {
        let mut g = cfg();
        g.graceful_fraction = 1.0;
        let s = ChurnSchedule::generate(1, 30, SimTime::from_secs(400), &g, 3);
        for (_, seq) in &s.events {
            for e in seq {
                if let ChurnEvent::Leave(_, graceful) = e {
                    assert!(*graceful);
                }
            }
        }
        g.graceful_fraction = 0.0;
        let s = ChurnSchedule::generate(1, 30, SimTime::from_secs(400), &g, 3);
        assert!(s.total_leaves() > 0);
        for (_, seq) in &s.events {
            for e in seq {
                if let ChurnEvent::Leave(_, graceful) = e {
                    assert!(!*graceful);
                }
            }
        }
    }

    #[test]
    fn start_after_protects_bootstrap() {
        let mut g = cfg();
        g.start_after = SimTime::from_secs(100);
        let s = ChurnSchedule::generate(1, 40, SimTime::from_secs(400), &g, 9);
        for (_, seq) in &s.events {
            for e in seq {
                if let ChurnEvent::Leave(t, _) = e {
                    assert!(*t > SimTime::from_secs(100));
                }
            }
        }
    }

    #[test]
    fn up_intervals_cover_the_lifecycle() {
        let s = ChurnSchedule::generate(5, 1, SimTime::from_secs(500), &cfg(), 11);
        let ivs = s.up_intervals(NodeId(5), SimTime::from_secs(500));
        assert!(!ivs.is_empty());
        for w in ivs.windows(2) {
            assert!(w[0].1 <= w[1].0, "intervals disjoint and ordered");
        }
        assert!(ivs.last().unwrap().1 <= SimTime::from_secs(500));
        assert!(s.up_intervals(NodeId(99), SimTime::from_secs(1)).is_empty());
    }

    #[test]
    fn longer_life_means_fewer_leaves() {
        let short = ChurnSchedule::generate(1, 100, SimTime::from_secs(600), &cfg(), 5);
        let mut long_cfg = cfg();
        long_cfg.mean_life = SimDuration::from_secs(120);
        long_cfg.mean_join_interval = SimDuration::from_secs(120);
        let long = ChurnSchedule::generate(1, 100, SimTime::from_secs(600), &long_cfg, 5);
        assert!(
            long.total_leaves() < short.total_leaves(),
            "long {} !< short {}",
            long.total_leaves(),
            short.total_leaves()
        );
    }
}

//! Stable-node identification: the Cox proportional-hazards longevity model
//! (§III-B1a, Eq. 1).
//!
//! DCO selects coordinators among **stable** nodes. The paper scores a
//! node's probability of staying in the network past time `t` as
//!
//! ```text
//! p_l(t) = 1 − h₀(t) · exp(βᵀ z)
//! ```
//!
//! with baseline hazard `h₀(t)` and covariates `z` = (streaming quality,
//! join time-of-day). The covariates in the original evaluation were
//! synthetic; we keep the formula exact with fixed coefficients (the
//! constants below). Streaming quality is the buffering level from the
//! node's own [`BufferMap`](crate::buffer::BufferMap); join time is the
//! hour of day of the node's join instant.

/// β for the streaming-quality covariate (buffering level normalized to
/// `[0, 1]` by [`QUALITY_SCALE`]). Negative: better quality lowers the
/// hazard.
pub const BETA_QUALITY: f64 = -1.2;
/// β for the join-time covariate (hour of day normalized to `[0, 1)`).
pub const BETA_JOIN_TIME: f64 = 0.4;
/// Buffering level, in chunks, at which the quality covariate saturates.
pub const QUALITY_SCALE: f64 = 20.0;
/// Baseline hazard scale `h₀(0)`; decays with observed uptime.
pub const BASE_HAZARD: f64 = 0.8;
/// Uptime e-folding constant of the baseline hazard, in seconds: "the
/// longer a node stays, the longer it will stay" (ref. \[44\] in the
/// paper).
pub const HAZARD_DECAY_SECS: f64 = 120.0;

/// Covariate vector `z` for one node.
#[derive(Clone, Copy, Debug, Default)]
pub struct Covariates {
    /// Buffering level: consecutive chunks buffered from the playhead.
    pub buffering_level: u32,
    /// Join hour-of-day in `[0, 24)`.
    pub join_hour: f64,
}

/// The baseline hazard `h₀(t)` after `uptime_secs` of observed uptime.
pub fn baseline_hazard(uptime_secs: f64) -> f64 {
    let t = uptime_secs.max(0.0);
    BASE_HAZARD * (-t / HAZARD_DECAY_SECS).exp()
}

/// Eq. 1: the probability the node stays in the network past `t`,
/// clamped into `[0, 1]`.
pub fn longevity_probability(uptime_secs: f64, z: Covariates) -> f64 {
    let zq = (f64::from(z.buffering_level) / QUALITY_SCALE).min(1.0);
    let zt = (z.join_hour / 24.0).rem_euclid(1.0);
    let risk = (BETA_QUALITY * zq + BETA_JOIN_TIME * zt).exp();
    (1.0 - baseline_hazard(uptime_secs) * risk).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn z(buf: u32, hour: f64) -> Covariates {
        Covariates {
            buffering_level: buf,
            join_hour: hour,
        }
    }

    #[test]
    fn probability_is_a_probability() {
        for uptime in [0.0, 1.0, 60.0, 600.0] {
            for buf in [0u32, 5, 20, 100] {
                for hour in [0.0, 6.0, 12.0, 23.9] {
                    let p = longevity_probability(uptime, z(buf, hour));
                    assert!((0.0..=1.0).contains(&p), "p={p}");
                }
            }
        }
    }

    #[test]
    fn longer_uptime_means_higher_longevity() {
        let p0 = longevity_probability(0.0, z(5, 12.0));
        let p1 = longevity_probability(60.0, z(5, 12.0));
        let p2 = longevity_probability(300.0, z(5, 12.0));
        assert!(p0 < p1 && p1 < p2, "{p0} {p1} {p2}");
    }

    #[test]
    fn better_buffering_means_higher_longevity() {
        let poor = longevity_probability(30.0, z(0, 12.0));
        let good = longevity_probability(30.0, z(20, 12.0));
        assert!(good > poor, "good {good} !> poor {poor}");
    }

    #[test]
    fn join_hour_raises_hazard_with_positive_beta() {
        let early = longevity_probability(30.0, z(5, 0.0));
        let late = longevity_probability(30.0, z(5, 23.0));
        assert!(
            late < early,
            "positive β_time: later join hour ⇒ higher hazard"
        );
    }

    #[test]
    fn baseline_hazard_decays() {
        assert!(baseline_hazard(0.0) > baseline_hazard(100.0));
        assert!((baseline_hazard(0.0) - 0.8).abs() < 1e-12);
        assert!(baseline_hazard(1e9) < 1e-9);
        assert_eq!(baseline_hazard(-5.0), baseline_hazard(0.0), "clamped");
    }

    #[test]
    fn stability_threshold() {
        // A fresh node with empty buffer is not stable at a strict
        // threshold; a long-lived well-buffered node is.
        assert!(longevity_probability(0.0, z(0, 12.0)) < 0.9);
        assert!(longevity_probability(600.0, z(20, 12.0)) >= 0.9);
    }

    #[test]
    fn quality_covariate_saturates() {
        let p20 = longevity_probability(30.0, z(20, 12.0));
        let p200 = longevity_probability(30.0, z(200, 12.0));
        assert!((p20 - p200).abs() < 1e-12, "z_q capped at 1");
    }
}

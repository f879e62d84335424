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
//! synthetic; we keep the formula exact and make the covariate source
//! pluggable: streaming quality is the buffering level from the node's own
//! [`BufferMap`](crate::buffer::BufferMap), join time comes from the churn
//! schedule or a configured value.

/// Coefficients and baseline of the Cox model.
#[derive(Clone, Debug)]
pub struct CoxModel {
    /// β for the streaming-quality covariate (consecutive buffered chunks,
    /// normalized to `[0, 1]` by `quality_scale`). Negative: better quality
    /// lowers the hazard.
    pub beta_quality: f64,
    /// β for the join-time covariate (hour of day normalized to `[0, 1)`).
    pub beta_join_time: f64,
    /// Normalization constant for the buffering level.
    pub quality_scale: f64,
    /// Baseline hazard scale `h₀(0)`; decays with observed uptime.
    pub base_hazard: f64,
    /// Uptime e-folding constant of the baseline hazard, in seconds — the
    /// "the longer a node stays, the longer it will stay" effect (ref.
    /// \[44\] in the paper).
    pub hazard_decay_secs: f64,
}

impl Default for CoxModel {
    fn default() -> Self {
        CoxModel {
            beta_quality: -1.2,
            beta_join_time: 0.4,
            quality_scale: 20.0,
            base_hazard: 0.8,
            hazard_decay_secs: 120.0,
        }
    }
}

/// Covariate vector `z` for one node.
#[derive(Clone, Copy, Debug, Default)]
pub struct Covariates {
    /// Buffering level: consecutive chunks buffered from the playhead.
    pub buffering_level: u32,
    /// Join hour-of-day in `[0, 24)`.
    pub join_hour: f64,
}

impl CoxModel {
    /// The baseline hazard `h₀(t)` after `uptime_secs` of observed uptime.
    pub fn baseline_hazard(&self, uptime_secs: f64) -> f64 {
        let t = uptime_secs.max(0.0);
        self.base_hazard * (-t / self.hazard_decay_secs.max(1e-9)).exp()
    }

    /// Eq. 1: the probability the node stays in the network past `t`,
    /// clamped into `[0, 1]`.
    pub fn longevity_probability(&self, uptime_secs: f64, z: Covariates) -> f64 {
        let zq = (f64::from(z.buffering_level) / self.quality_scale.max(1e-9)).min(1.0);
        let zt = (z.join_hour / 24.0).rem_euclid(1.0);
        let risk = (self.beta_quality * zq + self.beta_join_time * zt).exp();
        (1.0 - self.baseline_hazard(uptime_secs) * risk).clamp(0.0, 1.0)
    }
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
        let m = CoxModel::default();
        for uptime in [0.0, 1.0, 60.0, 600.0] {
            for buf in [0u32, 5, 20, 100] {
                for hour in [0.0, 6.0, 12.0, 23.9] {
                    let p = m.longevity_probability(uptime, z(buf, hour));
                    assert!((0.0..=1.0).contains(&p), "p={p}");
                }
            }
        }
    }

    #[test]
    fn longer_uptime_means_higher_longevity() {
        let m = CoxModel::default();
        let p0 = m.longevity_probability(0.0, z(5, 12.0));
        let p1 = m.longevity_probability(60.0, z(5, 12.0));
        let p2 = m.longevity_probability(300.0, z(5, 12.0));
        assert!(p0 < p1 && p1 < p2, "{p0} {p1} {p2}");
    }

    #[test]
    fn better_buffering_means_higher_longevity() {
        let m = CoxModel::default();
        let poor = m.longevity_probability(30.0, z(0, 12.0));
        let good = m.longevity_probability(30.0, z(20, 12.0));
        assert!(good > poor, "good {good} !> poor {poor}");
    }

    #[test]
    fn join_hour_raises_hazard_with_positive_beta() {
        let m = CoxModel::default();
        let early = m.longevity_probability(30.0, z(5, 0.0));
        let late = m.longevity_probability(30.0, z(5, 23.0));
        assert!(
            late < early,
            "positive β_time: later join hour ⇒ higher hazard"
        );
    }

    #[test]
    fn baseline_hazard_decays() {
        let m = CoxModel::default();
        assert!(m.baseline_hazard(0.0) > m.baseline_hazard(100.0));
        assert!((m.baseline_hazard(0.0) - 0.8).abs() < 1e-12);
        assert!(m.baseline_hazard(1e9) < 1e-9);
        assert_eq!(m.baseline_hazard(-5.0), m.baseline_hazard(0.0), "clamped");
    }

    #[test]
    fn stability_threshold() {
        let m = CoxModel::default();
        // A fresh node with empty buffer is not stable at a strict
        // threshold; a long-lived well-buffered node is.
        assert!(m.longevity_probability(0.0, z(0, 12.0)) < 0.9);
        assert!(m.longevity_probability(600.0, z(20, 12.0)) >= 0.9);
    }

    #[test]
    fn quality_covariate_saturates() {
        let m = CoxModel::default();
        let p20 = m.longevity_probability(30.0, z(20, 12.0));
        let p200 = m.longevity_probability(30.0, z(200, 12.0));
        assert!((p20 - p200).abs() < 1e-12, "z_q capped at 1");
    }
}

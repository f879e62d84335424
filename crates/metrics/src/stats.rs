//! Small numeric helpers shared by the harness: mean, percentiles, linear
//! regression slope (used to check "overhead grows linearly with n" style
//! claims from the paper).

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation; 0 for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// The `p`-th percentile (0–100) by nearest-rank on a sorted copy.
/// Returns 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Sample standard deviation (Bessel-corrected, n−1); 0 for fewer than two
/// samples. This is the estimator confidence intervals want — [`std_dev`]
/// stays population-form for the existing descriptive uses.
pub fn sample_std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// The median on a sorted copy: middle element, or mean of the middle two.
/// 0 for an empty slice. The multi-seed paper-shape tests assert on this —
/// robust to one outlier seed where a mean is not.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Two-sided 97.5% Student-t quantile for `df` degrees of freedom (exact
/// table through df = 30, the asymptote beyond) — what a 95% CI multiplies
/// the standard error by. Seed counts in sweeps are small, so the normal
/// approximation would understate the interval badly (df = 4: 2.776 vs
/// 1.960).
pub fn t_quantile_975(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[df - 1],
        _ => 1.960,
    }
}

/// Half-width of the 95% confidence interval for the mean: `t · s / √n`.
/// 0 for fewer than two samples (no spread estimate exists).
pub fn ci95_half_width(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    t_quantile_975(xs.len() - 1) * sample_std_dev(xs) / (xs.len() as f64).sqrt()
}

/// Mean / spread / interval summary of one metric over seeds — the row
/// shape the sweep harness aggregates each cell group into.
#[derive(Clone, Debug, PartialEq)]
pub struct SummaryStats {
    /// Samples summarized.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1).
    pub std_dev: f64,
    /// Median.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Half-width of the 95% CI for the mean (Student-t).
    pub ci95: f64,
}

impl SummaryStats {
    /// Summarizes `xs`; all-zero for an empty slice.
    pub fn from_samples(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return SummaryStats {
                n: 0,
                mean: 0.0,
                std_dev: 0.0,
                median: 0.0,
                min: 0.0,
                max: 0.0,
                ci95: 0.0,
            };
        }
        SummaryStats {
            n: xs.len(),
            mean: mean(xs),
            std_dev: sample_std_dev(xs),
            median: median(xs),
            min: xs.iter().cloned().fold(f64::INFINITY, f64::min),
            max: xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            ci95: ci95_half_width(xs),
        }
    }
}

/// Pearson correlation coefficient; 0 when degenerate. Used to verify
/// "grows linearly" claims (r close to 1).
pub fn pearson_r(points: &[(f64, f64)]) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
    let (mx, my) = (mean(&xs), mean(&ys));
    let mut num = 0.0;
    let mut dx2 = 0.0;
    let mut dy2 = 0.0;
    for &(x, y) in points {
        num += (x - mx) * (y - my);
        dx2 += (x - mx) * (x - mx);
        dy2 += (y - my) * (y - my);
    }
    let denom = (dx2 * dy2).sqrt();
    if denom < 1e-12 {
        0.0
    } else {
        num / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 1.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Robust to one wild outlier, unlike the mean.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0, 1e9]), 3.0);
    }

    #[test]
    fn sample_std_dev_uses_bessel() {
        // Population: sqrt(1.0); sample: sqrt(2.0/1) = sqrt(2).
        let xs = [2.0, 4.0];
        assert!((std_dev(&xs) - 1.0).abs() < 1e-12);
        assert!((sample_std_dev(&xs) - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(sample_std_dev(&[5.0]), 0.0);
    }

    #[test]
    fn t_quantiles_shrink_toward_normal() {
        assert!(t_quantile_975(0).is_infinite());
        assert!((t_quantile_975(4) - 2.776).abs() < 1e-9);
        assert!((t_quantile_975(30) - 2.042).abs() < 1e-9);
        assert_eq!(t_quantile_975(1000), 1.960);
        for df in 1..40 {
            assert!(t_quantile_975(df) >= t_quantile_975(df + 1));
        }
    }

    #[test]
    fn ci95_matches_hand_computation() {
        // n=5, s=sample std dev, t(4)=2.776.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let s = sample_std_dev(&xs);
        let expect = 2.776 * s / 5f64.sqrt();
        assert!((ci95_half_width(&xs) - expect).abs() < 1e-12);
        assert_eq!(ci95_half_width(&[3.0]), 0.0);
    }

    #[test]
    fn summary_stats_round_trip() {
        let xs = [3.0, 1.0, 2.0, 4.0];
        let s = SummaryStats::from_samples(&xs);
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!(s.ci95 > 0.0);
        let empty = SummaryStats::from_samples(&[]);
        assert_eq!(empty.n, 0);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    fn exact_line_correlates_perfectly() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        assert!((pearson_r(&pts) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_regression() {
        assert_eq!(pearson_r(&[(1.0, 1.0)]), 0.0);
        // Flat line: r degenerate → 0.
        let flat: Vec<(f64, f64)> = (0..5).map(|i| (i as f64, 7.0)).collect();
        assert_eq!(pearson_r(&flat), 0.0);
    }

    #[test]
    fn anticorrelation() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, -2.0 * i as f64)).collect();
        assert!((pearson_r(&pts) + 1.0).abs() < 1e-9);
    }
}

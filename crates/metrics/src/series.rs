//! Figure-shaped result containers.
//!
//! The bench harness regenerates each of the paper's figures as a
//! [`Figure`]: a title, axis labels, and one [`Series`] per curve. Figures
//! render as aligned text tables (for the terminal and EXPERIMENTS.md) and
//! as CSV (for external plotting).

use std::fmt::Write as _;

/// One curve: a label and `(x, y)` points.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Curve label (e.g. `"DCO"`, `"push"`).
    pub label: String,
    /// Data points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The y value at the given x, if present (exact match).
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (px - x).abs() < 1e-9)
            .map(|&(_, y)| y)
    }
}

/// A complete figure: several curves over a shared x axis.
#[derive(Clone, Debug, PartialEq)]
pub struct Figure {
    /// Figure id and caption, e.g. `"Fig. 5: mesh delay vs neighbors"`.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// An empty figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a curve.
    pub fn push_series(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Finds a curve by label.
    pub fn series_by_label(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// All distinct x values across curves, sorted.
    pub fn x_values(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        xs
    }

    /// Renders the figure as an aligned text table, one row per x value.
    pub fn to_text_table(&self) -> String {
        let xs = self.x_values();
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "#   y: {}", self.y_label);
        let mut header = format!("{:>12}", self.x_label);
        for s in &self.series {
            let _ = write!(header, " {:>12}", s.label);
        }
        let _ = writeln!(out, "{header}");
        for x in xs {
            let mut row = format!("{x:>12.2}");
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(row, " {y:>12.4}");
                    }
                    None => {
                        let _ = write!(row, " {:>12}", "-");
                    }
                }
            }
            let _ = writeln!(out, "{row}");
        }
        out
    }

    /// Renders the figure as CSV: `x,label1,label2,...`.
    pub fn to_csv(&self) -> String {
        let xs = self.x_values();
        let mut out = String::new();
        let mut header = self.x_label.clone();
        for s in &self.series {
            header.push(',');
            header.push_str(&s.label);
        }
        let _ = writeln!(out, "{header}");
        for x in xs {
            let mut row = format!("{x}");
            for s in &self.series {
                row.push(',');
                if let Some(y) = s.y_at(x) {
                    let _ = write!(row, "{y}");
                }
            }
            let _ = writeln!(out, "{row}");
        }
        out
    }
}

/// Averages several same-shaped figures (multi-seed runs) point by point.
///
/// Panics if the figures do not share identical series labels and x values.
pub fn average_figures(figs: &[Figure]) -> Figure {
    assert!(!figs.is_empty(), "no figures to average");
    let mut out = figs[0].clone();
    for s in &mut out.series {
        for p in &mut s.points {
            p.1 = 0.0;
        }
    }
    for f in figs {
        assert_eq!(f.series.len(), out.series.len(), "series count mismatch");
        for (si, s) in f.series.iter().enumerate() {
            assert_eq!(s.label, out.series[si].label, "label mismatch");
            assert_eq!(s.points.len(), out.series[si].points.len(), "point count");
            for (pi, &(x, y)) in s.points.iter().enumerate() {
                let q = &mut out.series[si].points[pi];
                assert!((q.0 - x).abs() < 1e-9, "x mismatch");
                q.1 += y;
            }
        }
    }
    let k = figs.len() as f64;
    for s in &mut out.series {
        for p in &mut s.points {
            p.1 /= k;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Figure {
        let mut f = Figure::new("Fig. T: test", "x", "y");
        let mut a = Series::new("a");
        a.push(1.0, 10.0);
        a.push(2.0, 20.0);
        let mut b = Series::new("b");
        b.push(1.0, 1.0);
        b.push(3.0, 3.0);
        f.push_series(a);
        f.push_series(b);
        f
    }

    #[test]
    fn series_accessors() {
        let f = fig();
        let a = f.series_by_label("a").unwrap();
        assert_eq!(a.y_at(2.0), Some(20.0));
        assert_eq!(a.y_at(9.0), None);
        assert!(f.series_by_label("zzz").is_none());
    }

    #[test]
    fn x_values_merged_and_sorted() {
        let f = fig();
        assert_eq!(f.x_values(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn text_table_renders_gaps() {
        let t = fig().to_text_table();
        assert!(t.contains("Fig. T: test"));
        assert!(t.contains('a') && t.contains('b'));
        // The b series has no point at x=2 → a dash in that row.
        let row2: Vec<&str> = t
            .lines()
            .filter(|l| l.trim_start().starts_with("2.00"))
            .collect();
        assert_eq!(row2.len(), 1);
        assert!(row2[0].contains('-'));
    }

    #[test]
    fn csv_round_trips_values() {
        let c = fig().to_csv();
        let mut lines = c.lines();
        assert_eq!(lines.next(), Some("x,a,b"));
        assert_eq!(lines.next(), Some("1,10,1"));
        assert_eq!(lines.next(), Some("2,20,"));
        assert_eq!(lines.next(), Some("3,,3"));
    }

    #[test]
    fn averaging_multi_seed_runs() {
        let f1 = fig();
        let mut f2 = fig();
        for s in &mut f2.series {
            for p in &mut s.points {
                p.1 *= 3.0;
            }
        }
        let avg = average_figures(&[f1, f2]);
        assert_eq!(avg.series_by_label("a").unwrap().y_at(1.0), Some(20.0));
        assert_eq!(avg.series_by_label("b").unwrap().y_at(3.0), Some(6.0));
    }

    #[test]
    #[should_panic(expected = "no figures")]
    fn averaging_empty_panics() {
        average_figures(&[]);
    }

    #[test]
    fn clone_round_trip() {
        let f = fig();
        let cloned = f.clone();
        assert_eq!(f, cloned);
    }
}

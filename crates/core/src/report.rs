//! Human-readable tables and machine-readable JSON for experiment output.
//!
//! Every figure/table regenerator in `ntc-bench` prints through this
//! module so EXPERIMENTS.md rows can be produced (and re-diffed) uniformly.

use serde::Serialize;
use std::fmt::Write as _;

/// A labelled series of `(x, y)` values — one line of a figure.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// The `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// The `x` of the maximal `y`, if any.
    pub fn argmax(&self) -> Option<(f64, f64)> {
        self.points
            .iter()
            .copied()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite values"))
    }
}

/// A figure: shared x-axis, several series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Figure {
    /// Figure identifier ("Figure 3a").
    pub id: String,
    /// Axis titles.
    pub x_label: String,
    /// Y-axis title.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        id: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series (builder style).
    pub fn with_series(mut self, series: Series) -> Self {
        self.series.push(series);
        self
    }

    /// Renders a fixed-width text table: one row per x, one column per
    /// series.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} : {} vs {} ==",
            self.id, self.y_label, self.x_label
        );
        let _ = write!(out, "{:>12}", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {:>16}", truncate(&s.label, 16));
        }
        let _ = writeln!(out);
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|p| p.0).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            let _ = write!(out, "{x:>12.0}");
            for s in &self.series {
                match s.points.get(i) {
                    Some(&(_, y)) => {
                        let _ = write!(out, " {y:>16.4}");
                    }
                    None => {
                        let _ = write!(out, " {:>16}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        for s in &self.series {
            if let Some((x, y)) = s.argmax() {
                let _ = writeln!(out, "-- {}: peak {y:.4} at {x:.0}", s.label);
            }
        }
        out
    }

    /// Serializes the figure to pretty JSON.
    ///
    /// # Panics
    ///
    /// Panics only if serialization fails, which cannot happen for finite
    /// numeric data.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("figures serialize")
    }
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((idx, _)) => &s[..idx],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Figure {
        Figure::new("Figure X", "MHz", "eff")
            .with_series(Series::new("a", vec![(100.0, 1.0), (200.0, 3.0)]))
            .with_series(Series::new("b", vec![(100.0, 2.0), (200.0, 1.0)]))
    }

    #[test]
    fn table_contains_rows_and_peaks() {
        let t = fig().to_table();
        assert!(t.contains("Figure X"));
        assert!(t.contains("100"));
        assert!(t.contains("peak 3.0000 at 200"));
        assert!(t.contains("peak 2.0000 at 100"));
    }

    #[test]
    fn json_round_trips_labels() {
        let j = fig().to_json();
        assert!(j.contains("\"Figure X\""));
        let v: serde_json::Value = serde_json::from_str(&j).unwrap();
        assert_eq!(v["series"][0]["label"], "a");
    }

    #[test]
    fn argmax() {
        let s = Series::new("s", vec![(1.0, 5.0), (2.0, 9.0), (3.0, 7.0)]);
        assert_eq!(s.argmax(), Some((2.0, 9.0)));
        assert_eq!(Series::new("e", vec![]).argmax(), None);
    }

    #[test]
    fn ragged_series_render_dashes() {
        let f = Figure::new("F", "x", "y")
            .with_series(Series::new("long", vec![(1.0, 1.0), (2.0, 2.0)]))
            .with_series(Series::new("short", vec![(1.0, 1.0)]));
        let t = f.to_table();
        assert!(t.contains('-'));
    }
}

//! Named data series and CSV export.
//!
//! Each of the paper's figures is a family of curves over a shared x-axis
//! (usually the processor count). [`SeriesSet`] collects those curves and can
//! render them as an aligned table or CSV so plots can be regenerated with
//! any external tool.

use std::fmt;

use crate::table::{fmt_f64, Table};

/// One named curve: a label plus `(x, y)` points.
///
/// # Examples
///
/// ```
/// use abs_sim::series::Series;
/// let mut s = Series::new("no backoff");
/// s.push(2.0, 5.0);
/// s.push(4.0, 10.0);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.y_at(4.0), Some(10.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    label: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with the given label.
    pub fn new<S: Into<String>>(label: S) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// The series label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All points in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The y value recorded for an exact x, if any.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|(px, _)| *px == x).map(|(_, y)| *y)
    }
}

impl Extend<(f64, f64)> for Series {
    fn extend<I: IntoIterator<Item = (f64, f64)>>(&mut self, iter: I) {
        self.points.extend(iter);
    }
}

/// A family of curves over a shared x-axis — one paper figure.
///
/// # Examples
///
/// ```
/// use abs_sim::series::SeriesSet;
/// let mut set = SeriesSet::new("Figure 5", "N");
/// set.add_point("no backoff", 2.0, 5.0);
/// set.add_point("base 2", 2.0, 4.0);
/// let csv = set.to_csv();
/// assert!(csv.starts_with("N,no backoff,base 2"));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SeriesSet {
    title: String,
    x_label: String,
    series: Vec<Series>,
}

impl SeriesSet {
    /// Creates an empty set.
    pub fn new<S: Into<String>, X: Into<String>>(title: S, x_label: X) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            series: Vec::new(),
        }
    }

    /// The figure title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Adds a point to the series named `label`, creating the series if it
    /// does not exist yet.
    pub fn add_point(&mut self, label: &str, x: f64, y: f64) {
        if let Some(s) = self.series.iter_mut().find(|s| s.label() == label) {
            s.push(x, y);
        } else {
            let mut s = Series::new(label);
            s.push(x, y);
            self.series.push(s);
        }
    }

    /// Looks up a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label() == label)
    }

    /// Iterates over all series in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Series> {
        self.series.iter()
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether the set has no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// The sorted union of all x values across series.
    pub fn x_values(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points().iter().map(|(x, _)| *x))
            .collect();
        #[expect(clippy::expect_used, reason = "x values come from finite sweep grids, never NaN")]
        xs.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN x values"));
        xs.dedup();
        xs
    }

    /// Renders as CSV with one column per series.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label);
        for s in &self.series {
            out.push(',');
            out.push_str(s.label());
        }
        out.push('\n');
        for x in self.x_values() {
            out.push_str(&fmt_f64(x, 0));
            for s in &self.series {
                out.push(',');
                if let Some(y) = s.y_at(x) {
                    out.push_str(&fmt_f64(y, 3));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders as an aligned ASCII table.
    pub fn to_table(&self) -> Table {
        let mut headers = vec![self.x_label.clone()];
        headers.extend(self.series.iter().map(|s| s.label().to_string()));
        let mut t = Table::new(headers).with_title(self.title.clone());
        for x in self.x_values() {
            let mut row = vec![fmt_f64(x, 0)];
            for s in &self.series {
                row.push(s.y_at(x).map(|y| fmt_f64(y, 2)).unwrap_or_default());
            }
            t.add_row(row);
        }
        t
    }
}

impl fmt::Display for SeriesSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_roundtrip() {
        let mut s = Series::new("x");
        s.extend([(1.0, 2.0), (3.0, 4.0)]);
        assert_eq!(s.points(), &[(1.0, 2.0), (3.0, 4.0)]);
        assert_eq!(s.y_at(3.0), Some(4.0));
        assert_eq!(s.y_at(9.0), None);
        assert!(!s.is_empty());
    }

    #[test]
    fn set_collects_by_label() {
        let mut set = SeriesSet::new("t", "N");
        set.add_point("a", 1.0, 10.0);
        set.add_point("a", 2.0, 20.0);
        set.add_point("b", 1.0, 5.0);
        assert_eq!(set.len(), 2);
        assert_eq!(set.series("a").unwrap().len(), 2);
        assert_eq!(set.x_values(), vec![1.0, 2.0]);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut set = SeriesSet::new("t", "N");
        set.add_point("a", 2.0, 1.5);
        set.add_point("b", 2.0, 2.5);
        set.add_point("a", 4.0, 3.0);
        let csv = set.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "N,a,b");
        assert_eq!(lines[1], "2,1.500,2.500");
        // b has no point at x=4 -> empty cell
        assert_eq!(lines[2], "4,3.000,");
    }

    #[test]
    fn table_render() {
        let mut set = SeriesSet::new("Figure X", "N");
        set.add_point("curve", 2.0, 1.0);
        let rendered = set.to_string();
        assert!(rendered.contains("Figure X"));
        assert!(rendered.contains("curve"));
    }
}

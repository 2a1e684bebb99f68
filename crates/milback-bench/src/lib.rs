//! # milback-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! DESIGN.md's experiment index), plus criterion benches over the hot DSP
//! paths. This library holds the shared reporting utilities so every
//! binary prints the same kind of aligned, self-describing output and can
//! drop CSV files next to the binary run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod hostinfo;
pub mod logging;
pub mod metrics_io;
pub mod runner;
pub mod spans;

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A labelled series of (x, y) points — one curve of a figure. A `None`
/// y-value is an honest "undefined here" (e.g. energy per delivered packet
/// when nothing delivered): it renders as a dash and an *empty* CSV cell,
/// never a `NaN`/`inf` token.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label (legend entry).
    pub label: String,
    /// The points; `None` marks an undefined y at that x.
    pub points: Vec<(f64, Option<f64>)>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, Some(y)));
    }

    /// Appends a point whose y may be undefined.
    pub fn push_opt(&mut self, x: f64, y: Option<f64>) {
        self.points.push((x, y));
    }
}

/// A figure/table report: header, axis names, several series, and free-form
/// observation lines comparing against the paper.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Experiment id, e.g. "Figure 12a".
    pub id: String,
    /// One-line description.
    pub title: String,
    /// X-axis name (with units).
    pub x_label: String,
    /// Y-axis name (with units).
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
    /// Paper-vs-measured observations appended at the bottom.
    pub notes: Vec<String>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn add_series(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Adds an observation note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the report as aligned text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "==== {} — {} ====", self.id, self.title);
        if self.series.is_empty() {
            let _ = writeln!(out, "(no series)");
        } else {
            // Header row.
            let _ = write!(out, "{:>14}", self.x_label);
            for s in &self.series {
                let _ = write!(out, " {:>18}", s.label);
            }
            let _ = writeln!(out, "    [{}]", self.y_label);
            // Series are expected to share the x grid; missing points print
            // as blanks.
            let xs: Vec<f64> = self.series[0].points.iter().map(|p| p.0).collect();
            for (i, &x) in xs.iter().enumerate() {
                let _ = write!(out, "{x:>14.4}");
                for s in &self.series {
                    match s.points.get(i) {
                        Some(&(_, Some(y))) => {
                            let _ = write!(out, " {y:>18.4}");
                        }
                        _ => {
                            let _ = write!(out, " {:>18}", "-");
                        }
                    }
                }
                let _ = writeln!(out);
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "  • {n}");
        }
        out
    }

    /// Renders as CSV (x, then one column per series).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_label.replace(',', ";"));
        for s in &self.series {
            let _ = write!(out, ",{}", s.label.replace(',', ";"));
        }
        let _ = writeln!(out);
        if let Some(first) = self.series.first() {
            for (i, &(x, _)) in first.points.iter().enumerate() {
                let _ = write!(out, "{x}");
                for s in &self.series {
                    match s.points.get(i) {
                        Some(&(_, Some(y))) => {
                            let _ = write!(out, ",{y}");
                        }
                        _ => {
                            let _ = write!(out, ",");
                        }
                    }
                }
                let _ = writeln!(out);
            }
        }
        out
    }

    /// Prints to stdout and writes the CSV anchor under `results/`, named
    /// after the report id; see [`emit_anchor`].
    pub fn emit(&self) {
        print!("{}", self.render());
        let file = format!("{}.csv", self.id.to_lowercase().replace([' ', '/'], "_"));
        emit_anchor(&file, &self.to_csv());
    }
}

/// Where experiment CSVs land: `<workspace>/results`.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/milback-bench → workspace root is ../..
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Renders a sweep table as CSV: the comma-separated header, then one line
/// per row of cells.
pub fn csv_table(header: &str, rows: impl IntoIterator<Item = Vec<String>>) -> String {
    let mut out = format!("{header}\n");
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// A CSV cell for a value that may be undefined: empty, never a
/// `NaN`/`inf` token.
pub fn opt_cell(v: Option<f64>) -> String {
    v.map(|x| x.to_string()).unwrap_or_default()
}

/// Writes `contents` to `dir/<file>`, creating `dir` first, and returns
/// the path written.
fn write_anchor(dir: &Path, file: &str, contents: &str) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(file);
    fs::write(&path, contents)?;
    Ok(path)
}

/// Writes an anchor file `results/<file>` — a sweep CSV or a metrics
/// document — and says where it went. A failed write ends the process
/// with status 1: a stale anchor left in place must never pass for a
/// regenerated one.
pub fn emit_anchor(file: &str, contents: &str) {
    match write_anchor(&results_dir(), file, contents) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write results/{file}: {e}");
            std::process::exit(1);
        }
    }
}

/// Sweeps a closure over a grid, collecting a series.
pub fn sweep(label: &str, grid: &[f64], mut f: impl FnMut(f64) -> f64) -> Series {
    let mut s = Series::new(label);
    for &x in grid {
        s.push(x, f(x));
    }
    s
}

/// An inclusive linear grid with `n` points.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace needs at least two points");
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints() {
        let g = linspace(1.0, 8.0, 8);
        assert_eq!(g.len(), 8);
        assert_eq!(g[0], 1.0);
        assert_eq!(g[7], 8.0);
    }

    #[test]
    fn sweep_collects_points() {
        let s = sweep("sq", &[1.0, 2.0, 3.0], |x| x * x);
        assert_eq!(
            s.points,
            vec![(1.0, Some(1.0)), (2.0, Some(4.0)), (3.0, Some(9.0))]
        );
    }

    #[test]
    fn report_renders_all_parts() {
        let mut r = Report::new("Figure X", "demo", "x (m)", "y (dB)");
        r.add_series(sweep("a", &[1.0, 2.0], |x| x));
        r.add_series(sweep("b", &[1.0, 2.0], |x| -x));
        r.note("shape matches");
        let text = r.render();
        assert!(text.contains("Figure X"));
        assert!(text.contains("x (m)"));
        assert!(text.contains("shape matches"));
        let csv = r.to_csv();
        assert!(csv.starts_with("x (m),a,b"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn undefined_points_render_dash_and_empty_csv_cell() {
        let mut r = Report::new("F", "t", "x", "y");
        let mut s = Series::new("e");
        s.push(1.0, 2.5);
        s.push_opt(2.0, None);
        r.add_series(s);
        let text = r.render();
        assert!(text.contains('-'), "undefined y renders as a dash");
        let csv = r.to_csv();
        assert!(
            csv.contains("\n2,\n"),
            "undefined y is an empty cell: {csv}"
        );
        assert!(!csv.contains("NaN") && !csv.contains("inf"));
    }

    #[test]
    fn anchor_write_reports_a_blocked_directory() {
        let blocker = std::env::temp_dir().join(format!("milback_blocker_{}", std::process::id()));
        fs::write(&blocker, "a regular file").unwrap();
        let result = write_anchor(&blocker.join("results"), "x.csv", "x\n");
        fs::remove_file(&blocker).unwrap();
        assert!(result.is_err(), "wrote under a regular file: {result:?}");
    }

    #[test]
    fn ragged_series_render_blanks() {
        let mut r = Report::new("F", "t", "x", "y");
        r.add_series(sweep("long", &[1.0, 2.0, 3.0], |x| x));
        r.add_series(sweep("short", &[1.0], |x| x));
        let text = r.render();
        assert!(text.contains('-'));
    }
}

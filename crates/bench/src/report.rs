//! Plain-text table formatting for experiment output.
//!
//! Every experiment binary prints its figure's data as an aligned text table
//! so that `cargo run -p deflate-bench --bin figNN` reproduces the rows /
//! series of the corresponding figure in the paper. `EXPERIMENTS.md` records
//! the paper-reported values next to these measured ones.

use deflate_cluster::metrics::RunStats;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    /// Free-text line printed after the rows (engine runtime summaries).
    /// Not part of [`rows`](Self::rows), so regression tests pinning row
    /// contents are unaffected by wall-clock noise.
    footer: Option<String>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            footer: None,
        }
    }

    /// Set the footer line printed after the rows. Experiment tables use
    /// this for the engine-runtime summary (wall-clock, events processed,
    /// events/s), which must stay out of the pinned data rows because
    /// wall-clock time is not deterministic.
    pub fn set_footer(&mut self, footer: String) -> &mut Self {
        self.footer = Some(footer);
        self
    }

    /// The footer line, if one was set.
    pub fn footer(&self) -> Option<&str> {
        self.footer.as_deref()
    }

    /// Append a row (must have the same arity as the headers).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity does not match headers"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The data rows, as rendered strings (used by regression tests that
    /// pin experiment output to known-good values).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the table as an aligned string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        if let Some(footer) = &self.footer {
            out.push_str(footer);
            out.push('\n');
        }
        out
    }

    /// Print the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// The shared engine-runtime tally and `engine:` footer (runs, events,
/// wall-clock, events/s, peak RSS), re-exported from `deflate-telemetry`
/// so every `fig_*` table and the telemetry sink format runtime
/// identically. The [`TallyRunStats`] extension folds a `SimResult`'s
/// [`RunStats`] in directly.
pub use deflate_telemetry::{secs, RuntimeTally};

/// Bench-side sugar on the shared [`RuntimeTally`]: fold one run's
/// [`RunStats`] into the tally (`deflate-telemetry` cannot name the
/// cluster crate's stats type, so the adapter lives here).
pub trait TallyRunStats {
    /// Fold one run's stats into the tally.
    fn add(&mut self, stats: RunStats);
}

impl TallyRunStats for RuntimeTally {
    fn add(&mut self, stats: RunStats) {
        self.add_run(stats.wall_clock_secs, stats.events_processed);
    }
}

/// Stopwatch for figures that never replay the cluster engine (analytic
/// models, app-level simulators): times the figure's own computation so
/// its table still carries the shared `engine:` footer — zero engine
/// events, but wall-clock, events/s, and peak RSS are reported
/// uniformly across every `fig_*` binary.
#[derive(Debug)]
pub struct FigureTimer {
    started: std::time::Instant,
}

impl FigureTimer {
    /// Start timing a figure computation.
    pub fn start() -> Self {
        FigureTimer {
            started: std::time::Instant::now(),
        }
    }

    /// Footer the finished table with the elapsed wall clock.
    pub fn finish(self, table: &mut Table) {
        let mut tally = RuntimeTally::default();
        tally.add_run(self.started.elapsed().as_secs_f64(), 0);
        table.set_footer(tally.footer());
    }

    /// [`finish`](Self::finish) as a by-value wrapper, for figure
    /// functions that return the table from a builder expression.
    pub fn wrap(self, mut table: Table) -> Table {
        self.finish(&mut table);
        table
    }
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Format a float with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("Figure X", &["deflation", "value"]);
        t.row(&["10%".to_string(), "0.123".to_string()]);
        t.row(&["50%".to_string(), "7.5".to_string()]);
        let s = t.render();
        assert!(s.contains("== Figure X =="));
        assert!(s.contains("deflation"));
        assert!(s.lines().count() >= 5);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn rejects_mismatched_rows() {
        let mut t = Table::new("bad", &["a", "b"]);
        t.row(&["only-one".to_string()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(secs(0.25), "250.0 ms");
        assert_eq!(secs(2.5), "2.50 s");
    }

    #[test]
    fn footer_renders_but_stays_out_of_rows() {
        let mut t = Table::new("F", &["a"]);
        t.row(&["1".to_string()]);
        let mut tally = RuntimeTally::default();
        tally.add(RunStats {
            wall_clock_secs: 2.0,
            events_processed: 100,
        });
        tally.add(RunStats {
            wall_clock_secs: 2.0,
            events_processed: 100,
        });
        // Live `footer()` samples the process RSS; pin the rest of the
        // line through the deterministic explicit-RSS variant.
        t.set_footer(tally.footer_with_rss(None));
        assert_eq!(t.rows().len(), 1, "footer must not become a data row");
        assert_eq!(
            t.footer(),
            Some("engine: 2 runs, 200 events, 4.00 s wall-clock, 50 events/s, rss=n/a")
        );
        assert!(t.render().ends_with("rss=n/a\n"));
        // The real binaries use `footer()`, which appends the live
        // `rss=` field in the same format.
        assert!(tally.footer().contains(", rss="));
    }
}

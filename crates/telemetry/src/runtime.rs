//! Engine-runtime accounting shared by every `fig_*` binary: the
//! `engine:` footer (runs, events, wall-clock, throughput, peak RSS)
//! and the `/proc/self/status` peak-RSS reader.
//!
//! This used to live in `deflate-bench` (with RSS only in `fig_scale`);
//! it sits here so the sink's [`report`](crate::TelemetrySink::report)
//! and the bench tables format runtime identically.

/// Aggregate engine-runtime accounting across the simulation runs behind
/// one experiment table. Every `fig_*` binary tallies each run and
/// prints [`footer`](Self::footer) under its table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RuntimeTally {
    /// Simulation runs tallied.
    pub runs: usize,
    /// Total wall-clock seconds across those runs.
    pub wall_clock_secs: f64,
    /// Total events the engine delivered across those runs.
    pub events: u64,
}

impl RuntimeTally {
    /// Fold one run into the tally.
    pub fn add_run(&mut self, wall_clock_secs: f64, events: u64) {
        self.runs += 1;
        self.wall_clock_secs += wall_clock_secs;
        self.events += events;
    }

    /// Aggregate events/s across the tallied runs (0 before any run).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_clock_secs > 0.0 {
            self.events as f64 / self.wall_clock_secs
        } else {
            0.0
        }
    }

    /// Render the footer line with the process's current peak RSS:
    /// `engine: N runs, E events, W wall-clock, R events/s, rss=X MiB`
    /// (`rss=n/a` where procfs is unavailable).
    pub fn footer(&self) -> String {
        self.footer_with_rss(peak_rss_mib())
    }

    /// [`footer`](Self::footer) with an explicit RSS sample — what tests
    /// pin, since live RSS is nondeterministic.
    pub fn footer_with_rss(&self, rss_mib: Option<f64>) -> String {
        let rss = match rss_mib {
            Some(mib) => format!("{mib:.0} MiB"),
            None => "n/a".to_string(),
        };
        format!(
            "engine: {} runs, {} events, {} wall-clock, {:.0} events/s, rss={}",
            self.runs,
            self.events,
            secs(self.wall_clock_secs),
            self.events_per_sec(),
            rss
        )
    }
}

/// Format seconds, switching to milliseconds below one second.
pub fn secs(x: f64) -> String {
    if x < 1.0 {
        format!("{:.1} ms", x * 1000.0)
    } else {
        format!("{x:.2} s")
    }
}

/// The process's peak resident-set size in MiB, from
/// `/proc/self/status`'s `VmHWM` line.
///
/// Degrades gracefully to `None` — rendered as `rss=n/a` — when procfs
/// is missing (non-Linux), the line is absent, or the value is
/// unparseable or zero; it never reports a bogus `0`.
pub fn peak_rss_mib() -> Option<f64> {
    peak_rss_mib_from(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Parse the `VmHWM` line out of a `/proc/self/status` document.
/// Split from [`peak_rss_mib`] so the degraded paths are testable.
pub fn peak_rss_mib_from(status: &str) -> Option<f64> {
    status_kib(status, "VmHWM:").map(|kb| kb / 1024.0)
}

/// Reset the kernel's peak-RSS high-water mark (`VmHWM`) to the current
/// RSS by writing `5` to `/proc/self/clear_refs` (see `proc(5)`).
///
/// `fig_memory` calls this after building a workload so the `VmHWM` it
/// compares accounted bytes against covers the *simulation run*, not the
/// trace-generation phase. Returns `false` — and changes nothing — where
/// procfs is unavailable or not writable (non-Linux, locked-down
/// containers); callers must then label the peak as process-wide.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5\n").is_ok()
}

/// The process's *current* resident-set size in kiB, from
/// `/proc/self/status`'s `VmRSS` line — the live counterpart of
/// [`peak_rss_mib`], sampled into the `mem.rss_kib` gauge on the
/// engine's utilization-tick cadence. Same graceful degradation: `None`
/// (gauge simply absent) on non-Linux hosts or unparseable procfs.
pub fn rss_kib() -> Option<f64> {
    rss_kib_from(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Parse the `VmRSS` line out of a `/proc/self/status` document.
/// Split from [`rss_kib`] so the degraded paths are testable.
pub fn rss_kib_from(status: &str) -> Option<f64> {
    status_kib(status, "VmRSS:")
}

/// Shared `/proc/self/status` field parser: the kiB value of `prefix`,
/// `None` when absent, unparseable or zero.
fn status_kib(status: &str, prefix: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(prefix))?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    (kb > 0.0).then_some(kb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_accumulates() {
        let mut tally = RuntimeTally::default();
        tally.add_run(2.0, 100);
        tally.add_run(2.0, 100);
        assert_eq!(tally.runs, 2);
        assert_eq!(tally.events, 200);
        assert_eq!(tally.events_per_sec(), 50.0);
        assert_eq!(
            tally.footer_with_rss(None),
            "engine: 2 runs, 200 events, 4.00 s wall-clock, 50 events/s, rss=n/a"
        );
        assert_eq!(
            tally.footer_with_rss(Some(184.2)),
            "engine: 2 runs, 200 events, 4.00 s wall-clock, 50 events/s, rss=184 MiB"
        );
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(secs(0.25), "250.0 ms");
        assert_eq!(secs(2.5), "2.50 s");
    }

    #[test]
    fn rss_parser_degrades_gracefully() {
        assert_eq!(peak_rss_mib_from(""), None);
        assert_eq!(peak_rss_mib_from("VmPeak:  123 kB\n"), None);
        assert_eq!(peak_rss_mib_from("VmHWM:\n"), None);
        assert_eq!(peak_rss_mib_from("VmHWM:   junk kB\n"), None);
        // A zero high-water mark is procfs telling us nothing; report n/a
        // rather than a bogus 0.
        assert_eq!(peak_rss_mib_from("VmHWM:   0 kB\n"), None);
        assert_eq!(peak_rss_mib_from("VmHWM:   2048 kB\n"), Some(2.0));
    }

    #[test]
    fn live_rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_mib().expect("VmHWM available on Linux");
            assert!(rss > 1.0);
            let live = rss_kib().expect("VmRSS available on Linux");
            assert!(live > 1024.0);
        }
    }

    #[test]
    fn vm_rss_parser_degrades_gracefully() {
        assert_eq!(rss_kib_from(""), None);
        assert_eq!(rss_kib_from("VmHWM:  4096 kB\n"), None);
        assert_eq!(rss_kib_from("VmRSS:   0 kB\n"), None);
        assert_eq!(rss_kib_from("VmRSS:   junk kB\n"), None);
        assert_eq!(rss_kib_from("VmRSS:   2048 kB\n"), Some(2048.0));
    }
}

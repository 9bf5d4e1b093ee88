//! The memory-accounting experiment (`fig_memory`): where do the bytes
//! at 100k VMs actually go?
//!
//! Replays the `fig_scale` spot-market scenario with the metrics sink on
//! and prints the `MemoryLedger`'s per-subsystem `mem.*` breakdown next
//! to the process's `/proc/self/status` numbers (`VmRSS` live,
//! `VmHWM` peak): the per-subsystem footprint any memory change is
//! judged against, before and after.
//!
//! The binary enforces the accounting acceptance contract and exits
//! non-zero when it breaks: at every swept size of at least
//! [`COVERAGE_GATE_MIN_VMS`] the accounted total must cover at least
//! [`MEMORY_COVERAGE_FLOOR`] of the run's peak RSS (unaccounted memory is
//! exactly the blind spot the ledger exists to eliminate), and at every
//! size the load-bearing subsystems must report bytes. Smaller rows print
//! their coverage without gating it: there the roughly constant process
//! overhead (allocator slack, stacks, code) is a large share of the peak.
//! To keep the peak attributable to the *run*, the kernel's
//! high-water mark is reset (`/proc/self/clear_refs`, see
//! [`deflate_telemetry::reset_peak_rss`]) after the workload is built;
//! where the reset is unavailable the peak is process-wide and the gate
//! degrades to reporting only.

use crate::report::{RuntimeTally, Table, TallyRunStats};
use crate::scale::Scale;
use crate::scale_exp::{run_scale_cell_with_telemetry, scale_workload};
use deflate_telemetry::{TelemetrySink, TelemetrySpec};

/// Fraction of the run's peak RSS the accounted per-subsystem bytes must
/// cover — the `fig_memory` CI gate. The remainder is allocator slack,
/// stacks, code and the few containers the ledger deliberately skips.
pub const MEMORY_COVERAGE_FLOOR: f64 = 0.70;

/// Smallest swept size whose coverage [`MEMORY_COVERAGE_FLOOR`] gates: the
/// 100k row of the quick sweep. At 10k VMs the accounted state is ~10 MiB
/// against ~7 MiB of fixed overhead, so coverage there (~60%) measures
/// the process, not the ledger.
pub const COVERAGE_GATE_MIN_VMS: usize = 100_000;

/// One measured run of the memory sweep.
#[derive(Debug)]
pub struct MemoryRun {
    /// VMs in the replayed trace.
    pub vms: usize,
    /// Servers the cluster was sized to.
    pub servers: usize,
    /// Events the engine delivered.
    pub events: u64,
    /// Wall-clock duration of the run, seconds.
    pub wall_clock_secs: f64,
    /// Per-subsystem byte gauges (`mem.<subsystem>` with the prefix
    /// stripped), largest first.
    pub subsystems: Vec<(String, u64)>,
    /// The ledger's accounted total (`mem.accounted_total`), bytes.
    pub accounted_bytes: u64,
    /// The live `VmRSS` sample the engine took at its final memory
    /// publish (`mem.rss_kib`), kiB. `None` off Linux.
    pub rss_kib: Option<f64>,
    /// The process's `VmHWM` after the run, kiB. `None` off Linux.
    pub peak_rss_kib: Option<f64>,
    /// Whether the high-water mark was reset after workload build, making
    /// [`peak_rss_kib`](Self::peak_rss_kib) attributable to the run alone.
    pub peak_scoped_to_run: bool,
}

impl MemoryRun {
    /// Accounted bytes as a fraction of the run's peak RSS (`None` where
    /// procfs is unavailable).
    pub fn coverage(&self) -> Option<f64> {
        let peak = self.peak_rss_kib?;
        (peak > 0.0).then(|| self.accounted_bytes as f64 / (peak * 1024.0))
    }

    /// Whether this run's coverage is gated (its size is at least
    /// [`COVERAGE_GATE_MIN_VMS`]).
    pub fn coverage_gated(&self) -> bool {
        self.vms >= COVERAGE_GATE_MIN_VMS
    }

    /// True when this run satisfies the acceptance contract: on a gated
    /// size, accounted bytes cover at least [`MEMORY_COVERAGE_FLOOR`] of
    /// the run's peak RSS; on every size, the breakdown is non-trivial
    /// (the load-bearing subsystems all report). Where procfs is
    /// unavailable the coverage clause is vacuous — there is no peak to
    /// gate against.
    pub fn accepted(&self) -> bool {
        self.failures().is_empty()
    }

    /// Human-readable reasons this run fails acceptance (empty when
    /// [`accepted`](Self::accepted)).
    pub fn failures(&self) -> Vec<String> {
        let mut reasons = Vec::new();
        let low = |&c: &f64| self.coverage_gated() && c < MEMORY_COVERAGE_FLOOR;
        if let Some(c) = self.coverage().filter(low) {
            reasons.push(format!(
                "accounted bytes cover {:.1}% of peak RSS at {} VMs, below the {:.0}% floor",
                100.0 * c,
                self.vms,
                100.0 * MEMORY_COVERAGE_FLOOR
            ));
        }
        if self.accounted_bytes == 0 {
            reasons.push(format!("no bytes accounted at {} VMs", self.vms));
        }
        for name in ["workload", "vm_records", "servers", "event_queue"] {
            if !self.subsystems.iter().any(|(n, b)| n == name && *b > 0) {
                reasons.push(format!(
                    "subsystem `{name}` reported no bytes at {} VMs",
                    self.vms
                ));
            }
        }
        reasons
    }
}

/// Measure one cluster size: build the workload, reset the peak-RSS
/// high-water mark so `VmHWM` covers the run alone, replay the scenario
/// sequentially with the metrics sink on, and read the final `mem.*`
/// gauges back out of the sink.
pub fn memory_cell(scale: Scale, vms: usize) -> std::io::Result<MemoryRun> {
    let workload = scale_workload(scale, vms);
    let peak_scoped_to_run = deflate_telemetry::reset_peak_rss();
    let spec = TelemetrySpec {
        metrics: true,
        ..TelemetrySpec::default()
    };
    let sink = TelemetrySink::from_spec(&spec)?;
    let (result, servers) = run_scale_cell_with_telemetry(&workload, scale, sink.clone());
    let report = sink.finish()?;
    let mut subsystems: Vec<(String, u64)> = report
        .metrics
        .gauges
        .iter()
        .filter_map(|(name, value)| {
            let subsystem = name.strip_prefix("mem.")?;
            if subsystem == "accounted_total" || subsystem == "rss_kib" {
                return None;
            }
            Some((subsystem.to_string(), *value as u64))
        })
        .collect();
    subsystems.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    Ok(MemoryRun {
        vms,
        servers,
        events: result.runtime.events_processed,
        wall_clock_secs: result.runtime.wall_clock_secs,
        subsystems,
        accounted_bytes: report.metrics.gauge("mem.accounted_total").unwrap_or(0.0) as u64,
        rss_kib: report.metrics.gauge("mem.rss_kib"),
        peak_rss_kib: deflate_telemetry::peak_rss_mib().map(|mib| mib * 1024.0),
        peak_scoped_to_run,
    })
}

/// Measure every cluster size of the scale preset's sweep.
pub fn memory_sweep(scale: Scale) -> std::io::Result<Vec<MemoryRun>> {
    scale
        .scale_sweep_vms()
        .iter()
        .map(|&vms| memory_cell(scale, vms))
        .collect()
}

fn mib(bytes: f64) -> String {
    format!("{:.1}", bytes / (1024.0 * 1024.0))
}

/// One measured run as the printable per-subsystem table, closed by the
/// accounted total and the two procfs reference rows it is judged
/// against.
pub fn memory_table(run: &MemoryRun) -> Table {
    let mut table = Table::new(
        &format!(
            "Per-subsystem memory accounting: {} VMs, {} servers (coverage {})",
            run.vms,
            run.servers,
            match (run.coverage(), run.coverage_gated()) {
                (None, _) => "n/a".to_string(),
                (Some(c), true) => format!("{:.1}%", 100.0 * c),
                (Some(c), false) => format!("{:.1}%, not gated", 100.0 * c),
            },
        ),
        &["subsystem", "MiB", "share of accounted"],
    );
    let total = run.accounted_bytes as f64;
    for (name, bytes) in &run.subsystems {
        let share = if total > 0.0 {
            format!("{:.1}%", 100.0 * *bytes as f64 / total)
        } else {
            "n/a".to_string()
        };
        table.row(&[name.clone(), mib(*bytes as f64), share]);
    }
    table.row(&[
        "accounted_total".to_string(),
        mib(total),
        "100.0%".to_string(),
    ]);
    table.row(&[
        "VmRSS (live, final sample)".to_string(),
        run.rss_kib
            .map_or_else(|| "n/a".to_string(), |kib| mib(kib * 1024.0)),
        "-".to_string(),
    ]);
    table.row(&[
        if run.peak_scoped_to_run {
            "VmHWM (peak over the run)".to_string()
        } else {
            "VmHWM (process-wide peak)".to_string()
        },
        run.peak_rss_kib
            .map_or_else(|| "n/a".to_string(), |kib| mib(kib * 1024.0)),
        "-".to_string(),
    ]);
    let mut tally = RuntimeTally::default();
    tally.add(deflate_cluster::metrics::RunStats {
        wall_clock_secs: run.wall_clock_secs,
        events_processed: run.events,
    });
    table.set_footer(tally.footer());
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end on a small run: the gauges come back out of the sink,
    /// the load-bearing subsystems all report bytes, and on Linux the
    /// procfs readings are present.
    #[test]
    fn mini_memory_run_reports_the_load_bearing_subsystems() {
        let run = memory_cell(Scale::Quick, 2_000).expect("memory run");
        assert!(run.accounted_bytes > 0);
        for name in ["workload", "vm_records", "servers", "event_queue"] {
            assert!(
                run.subsystems.iter().any(|(n, b)| n == name && *b > 0),
                "subsystem {name} missing from {:?}",
                run.subsystems
            );
        }
        // Largest-first ordering.
        for pair in run.subsystems.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        if cfg!(target_os = "linux") {
            assert!(run.rss_kib.is_some(), "live VmRSS gauge expected on Linux");
            assert!(run.peak_rss_kib.is_some(), "VmHWM expected on Linux");
        }
        let rendered = memory_table(&run).render();
        assert!(rendered.contains("accounted_total"));
        assert!(rendered.contains("VmRSS"));
        assert!(rendered.contains("VmHWM"));
        assert!(rendered.contains("engine:"), "runtime footer expected");
    }

    /// The acceptance contract is judged per run and explains itself.
    #[test]
    fn failure_reasons_name_the_broken_clause() {
        let run = MemoryRun {
            vms: 100_000,
            servers: 100,
            events: 1,
            wall_clock_secs: 1.0,
            subsystems: vec![("workload".to_string(), 0)],
            accounted_bytes: 0,
            rss_kib: None,
            peak_rss_kib: Some(1024.0),
            peak_scoped_to_run: true,
        };
        assert!(!run.accepted());
        let reasons = run.failures();
        assert!(reasons.iter().any(|r| r.contains("below the 70% floor")));
        assert!(reasons.iter().any(|r| r.contains("no bytes accounted")));
        assert!(reasons.iter().any(|r| r.contains("`vm_records`")));
    }

    /// Below the gated size, low coverage is reported but not a failure;
    /// the load-bearing-subsystem checks still apply.
    #[test]
    fn small_rows_print_coverage_without_gating_it() {
        let mut run = MemoryRun {
            vms: 10_000,
            servers: 437,
            events: 1,
            wall_clock_secs: 1.0,
            subsystems: ["workload", "vm_records", "servers", "event_queue"]
                .iter()
                .map(|name| (name.to_string(), 1024))
                .collect(),
            accounted_bytes: 4096,
            rss_kib: None,
            peak_rss_kib: Some(1024.0),
            peak_scoped_to_run: true,
        };
        assert!(run.coverage().unwrap() < MEMORY_COVERAGE_FLOOR);
        assert!(run.accepted(), "{:?}", run.failures());
        assert!(memory_table(&run).render().contains("not gated"));
        run.subsystems[2].1 = 0;
        assert!(!run.accepted());
        run.subsystems[2].1 = 1024;
        run.vms = COVERAGE_GATE_MIN_VMS;
        assert!(!run.accepted());
    }
}

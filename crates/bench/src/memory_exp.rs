//! The memory-accounting experiment (`fig_memory`): where do the bytes
//! at 100k VMs actually go?
//!
//! Replays the `fig_scale` spot-market scenario with the metrics sink on
//! and prints the `MemoryLedger`'s per-subsystem `mem.*` breakdown, at
//! the end of the run and at the sample with the highest accounted total
//! (`mem.peak.*`), next to the process's `/proc/self/status` numbers
//! (`VmRSS` live, `VmHWM` peak): the per-subsystem footprint any memory
//! change is judged against, before and after.
//!
//! The binary enforces the accounting acceptance contract and exits
//! non-zero when it breaks: at every swept size of at least
//! [`COVERAGE_GATE_MIN_VMS`] the peak accounted total must cover at least
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

/// Fraction of the run's peak RSS the accounted per-subsystem bytes at
/// their peak must cover — the `fig_memory` CI gate. The remainder is
/// allocator slack, stacks, code and the few containers the ledger
/// deliberately skips.
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
    /// Per-subsystem bytes as `(name, final, at peak)`: the last sample
    /// (`mem.<subsystem>`) and the sample with the highest accounted
    /// total (`mem.peak.<subsystem>`). Largest at the peak first.
    pub subsystems: Vec<(String, u64, u64)>,
    /// The ledger's accounted total at the last sample
    /// (`mem.accounted_total`), bytes.
    pub accounted_bytes: u64,
    /// The highest sampled accounted total (`mem.peak.accounted_total`),
    /// bytes: the numerator of [`coverage`](Self::coverage).
    pub peak_accounted_bytes: u64,
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
    /// The peak accounted total as a fraction of the run's peak RSS
    /// (`None` where procfs is unavailable): a peak against a peak.
    pub fn coverage(&self) -> Option<f64> {
        let peak = self.peak_rss_kib?;
        (peak > 0.0).then(|| self.peak_accounted_bytes as f64 / (peak * 1024.0))
    }

    /// Whether this run's coverage is gated (its size is at least
    /// [`COVERAGE_GATE_MIN_VMS`]).
    pub fn coverage_gated(&self) -> bool {
        self.vms >= COVERAGE_GATE_MIN_VMS
    }

    /// True when this run satisfies the acceptance contract: on a gated
    /// size, the peak accounted bytes cover at least
    /// [`MEMORY_COVERAGE_FLOOR`] of the run's peak RSS; on every size,
    /// the breakdown is non-trivial
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
                "peak accounted bytes cover {:.1}% of peak RSS at {} VMs, below the {:.0}% floor",
                100.0 * c,
                self.vms,
                100.0 * MEMORY_COVERAGE_FLOOR
            ));
        }
        if self.accounted_bytes == 0 {
            reasons.push(format!("no bytes accounted at {} VMs", self.vms));
        }
        for name in ["workload", "vm_records", "servers", "event_queue"] {
            if !self.subsystems.iter().any(|(n, b, _)| n == name && *b > 0) {
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
/// sequentially with the metrics sink on, and read the final and peak
/// `mem.*` gauges back out of the sink.
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
    let gauge = |name: &str| report.metrics.gauge(name).unwrap_or(0.0) as u64;
    let mut subsystems: Vec<(String, u64, u64)> = report
        .metrics
        .gauges
        .iter()
        .filter_map(|(name, value)| {
            let subsystem = name.strip_prefix("mem.")?;
            if subsystem.contains('.') || subsystem == "accounted_total" || subsystem == "rss_kib" {
                return None;
            }
            let at_peak = gauge(&format!("mem.peak.{subsystem}"));
            Some((subsystem.to_string(), *value as u64, at_peak))
        })
        .collect();
    subsystems.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    Ok(MemoryRun {
        vms,
        servers,
        events: result.runtime.events_processed,
        wall_clock_secs: result.runtime.wall_clock_secs,
        subsystems,
        accounted_bytes: gauge("mem.accounted_total"),
        peak_accounted_bytes: gauge("mem.peak.accounted_total"),
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

/// One measured run as the printable per-subsystem table, final and at
/// the peak sample, closed by the accounted totals and the two procfs
/// reference rows they are judged against: the live `VmRSS` next to the
/// final total, the run's `VmHWM` next to the peak.
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
        &["subsystem", "final MiB", "peak MiB", "share of peak"],
    );
    let peak_total = run.peak_accounted_bytes as f64;
    let share = |bytes: u64| {
        if peak_total > 0.0 {
            format!("{:.1}%", 100.0 * bytes as f64 / peak_total)
        } else {
            "n/a".to_string()
        }
    };
    for (name, last, at_peak) in &run.subsystems {
        table.row(&[
            name.clone(),
            mib(*last as f64),
            mib(*at_peak as f64),
            share(*at_peak),
        ]);
    }
    table.row(&[
        "accounted_total".to_string(),
        mib(run.accounted_bytes as f64),
        mib(peak_total),
        share(run.peak_accounted_bytes),
    ]);
    let kib_mib = |kib: Option<f64>| kib.map_or_else(|| "n/a".to_string(), |k| mib(k * 1024.0));
    table.row(&[
        if run.peak_scoped_to_run {
            "VmRSS final / VmHWM over the run".to_string()
        } else {
            "VmRSS final / VmHWM process-wide".to_string()
        },
        kib_mib(run.rss_kib),
        kib_mib(run.peak_rss_kib),
        "-".to_string(),
    ]);
    let mut tally = RuntimeTally::default();
    tally.add(deflate_cluster::metrics::RunStats {
        wall_clock_secs: run.wall_clock_secs,
        events_processed: run.events,
    });
    // The run's own peak, not the process's at print time: the sweep
    // prints every table after its largest row.
    table.set_footer(tally.footer_with_rss(run.peak_rss_kib.map(|kib| kib / 1024.0)));
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
        assert!(run.peak_accounted_bytes >= run.accounted_bytes);
        for name in ["workload", "vm_records", "servers", "event_queue"] {
            assert!(
                run.subsystems
                    .iter()
                    .any(|(n, last, at_peak)| n == name && *last > 0 && *at_peak > 0),
                "subsystem {name} missing from {:?}",
                run.subsystems
            );
        }
        // The peak columns are one sample: they sum to its total.
        let at_peak: u64 = run.subsystems.iter().map(|s| s.2).sum();
        assert_eq!(at_peak, run.peak_accounted_bytes);
        let last: u64 = run.subsystems.iter().map(|s| s.1).sum();
        assert_eq!(last, run.accounted_bytes);
        // Largest-at-the-peak first.
        for pair in run.subsystems.windows(2) {
            assert!(pair[0].2 >= pair[1].2);
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
        // The footer shows the run's own peak RSS.
        let rss = run.peak_rss_kib.map_or_else(
            || "rss=n/a".to_string(),
            |kib| format!("rss={:.0} MiB", kib / 1024.0),
        );
        assert!(rendered.contains(&rss), "{rss} expected in:\n{rendered}");
    }

    fn run_of(vms: usize, accounted: u64, peak_accounted: u64, hwm_kib: f64) -> MemoryRun {
        MemoryRun {
            vms,
            servers: 100,
            events: 1,
            wall_clock_secs: 1.0,
            subsystems: ["workload", "vm_records", "servers", "event_queue"]
                .iter()
                .map(|name| (name.to_string(), accounted / 4, peak_accounted / 4))
                .collect(),
            accounted_bytes: accounted,
            peak_accounted_bytes: peak_accounted,
            rss_kib: None,
            peak_rss_kib: Some(hwm_kib),
            peak_scoped_to_run: true,
        }
    }

    /// The gate compares the peak sample with the peak RSS: a run whose
    /// final total is below the floor passes on its peak, and one whose
    /// peak is below fails whatever its final total.
    #[test]
    fn coverage_is_the_peak_accounted_total_over_the_peak_rss() {
        let hwm_kib = 100.0 * 1024.0;
        let mib = 1024 * 1024;
        let shrank = run_of(COVERAGE_GATE_MIN_VMS, 60 * mib, 80 * mib, hwm_kib);
        assert!((shrank.coverage().unwrap() - 0.80).abs() < 1e-9);
        assert!(shrank.accepted(), "{:?}", shrank.failures());
        let low = run_of(COVERAGE_GATE_MIN_VMS, 60 * mib, 65 * mib, hwm_kib);
        assert!(low.failures()[0].contains("peak accounted bytes cover 65.0%"));
    }

    /// A table printed after a larger row still shows its own peak RSS
    /// in the footer, and the peak column next to the final one.
    #[test]
    fn table_footer_shows_the_runs_own_peak() {
        let mib = 1024 * 1024;
        let run = run_of(10_000, 8 * mib, 12 * mib, 10.25 * 1024.0);
        let rendered = memory_table(&run).render();
        assert!(rendered.contains("rss=10 MiB"), "{rendered}");
        assert!(rendered.contains("12.0"), "peak total expected: {rendered}");
        assert!(rendered.contains("8.0"), "final total expected: {rendered}");
        assert!(rendered.contains("100.0%"));
    }

    /// The acceptance contract is judged per run and explains itself.
    #[test]
    fn failure_reasons_name_the_broken_clause() {
        let run = MemoryRun {
            vms: 100_000,
            servers: 100,
            events: 1,
            wall_clock_secs: 1.0,
            subsystems: vec![("workload".to_string(), 0, 0)],
            accounted_bytes: 0,
            peak_accounted_bytes: 0,
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
                .map(|name| (name.to_string(), 1024, 1024))
                .collect(),
            accounted_bytes: 4096,
            peak_accounted_bytes: 4096,
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

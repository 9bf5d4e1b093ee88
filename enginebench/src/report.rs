//! The metric catalogue and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 3] = [
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The manager calls the traced run wraps, by method name.
pub const CLUSTER_CALLS: [&str; 5] = [
    "place_vm",
    "remove_vm",
    "reclaim_capacity",
    "restore_capacity",
    "complete_migration",
];

/// Per-layer metrics (`--trace 1`): name and unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("traces.generate_s", "s"),
        ("spec.workload_s", "s"),
        ("transient.schedule_s", "s"),
        ("transient.queue_us_per_event", "us"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for call in CLUSTER_CALLS {
        out.push((format!("cluster.{call}.calls"), "count"));
        out.push((format!("cluster.{call}.self_s"), "s"));
        out.push((format!("cluster.{call}.p50_us"), "us"));
        out.push((format!("cluster.{call}.p99_us"), "us"));
    }
    for (n, u) in [
        ("cluster.migrations_started", "count"),
        ("cluster.migrations_completed", "count"),
        ("cluster.migration_aborts", "count"),
        ("cluster.victims", "count"),
        ("cluster.migration_useful_ratio", "ratio"),
    ] {
        out.push((n.to_string(), u));
    }
    for row in crate::replay::MEMORY_ROWS {
        out.push((format!("mem.{row}.peak_mib"), "MiB"));
        out.push((format!("mem.{row}.final_mib"), "MiB"));
    }
    for (n, u) in [
        ("mem.records_mib", "MiB"),
        ("mem.workload_mib", "MiB"),
        ("core.checkpoint_s", "s"),
        ("core.snapshot_mib", "MiB"),
        ("core.restore_s", "s"),
        ("telemetry.finish_s", "s"),
        ("telemetry.accounted_mib", "MiB"),
        ("telemetry.trace_mib", "MiB"),
        ("host.ref_s", "s"),
        ("raw_events_per_s", "1/s"),
        ("trace_overhead", "ratio"),
        ("trace_overhead_base_s", "s"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `catalogue` with its value from `values` (a missing or non-finite value
/// is an error, reported by the caller as a failed run).
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(String, &'static str)],
    values: &BTreeMap<String, f64>,
) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        write!(
            metrics,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String");
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    ))
}

/// `VmHWM` of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The process's peak RSS over the workload's own phases only. `VmHWM`
/// is reset (`/proc/self/clear_refs`) before each phase and read after
/// it, so the reference kernel's allocations in between never count.
/// Where the reset is not permitted the reading stays process-wide.
#[derive(Debug, Default)]
pub struct PeakRss {
    peak_mib: f64,
}

impl PeakRss {
    /// Start a workload phase.
    pub fn begin(&self) {
        // Ignoring failure leaves VmHWM process-wide, a safe upper bound.
        let _ = std::fs::write("/proc/self/clear_refs", "5\n");
    }

    /// End a workload phase.
    pub fn end(&mut self) {
        if let Some(mib) = peak_rss_mib() {
            self.peak_mib = self.peak_mib.max(mib);
        }
    }

    /// The highest phase peak seen, MiB (`None` without procfs).
    pub fn peak_mib(&self) -> Option<f64> {
        (self.peak_mib > 0.0).then_some(self.peak_mib)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalogue(names: &[(&str, &'static str)]) -> Vec<(String, &'static str)> {
        names.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    }

    #[test]
    fn json_line_has_every_metric_with_its_unit() {
        let cat = catalogue(&[("a_s", "s"), ("b", "count")]);
        let values: BTreeMap<String, f64> =
            [("a_s".to_string(), 0.5), ("b".to_string(), 3.0)].into();
        let line = result_json(true, 4, 0, &cat, &values).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn missing_or_non_finite_metric_is_an_error() {
        let cat = catalogue(&[("a_s", "s")]);
        assert!(result_json(true, 1, 0, &cat, &BTreeMap::new()).is_err());
        let nan: BTreeMap<String, f64> = [("a_s".to_string(), f64::NAN)].into();
        assert!(result_json(true, 1, 0, &cat, &nan).is_err());
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for name in &names {
            assert!(
                text.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        assert_eq!(text.matches("\"name\": ").count(), names.len() + 4);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib().unwrap() > 0.0);
        }
    }
}

//! Deterministic per-subsystem memory accounting: the [`MemoryLedger`].
//!
//! Peak RSS tells you *that* the engine used ~410 MiB at 100k VMs; it
//! does not tell you *where*. The ledger answers that: every stateful
//! subsystem implements an `accounted_bytes()` method (a deterministic
//! walk of its own heap footprint — `Vec` capacities, map entries,
//! resident structs), the engine folds them into one ledger per sample,
//! and the ledger publishes `mem.<subsystem>` gauges into the metrics
//! registry. `fig_memory` prints the resulting breakdown against the
//! kernel's VmRSS/VmHWM numbers, so a change to any subsystem's
//! footprint shows up in its own row.
//!
//! Accounted bytes are an *estimate with a contract*: deterministic
//! (identical across runs and hosts — no pointers, no allocator
//! introspection) and honest about what they cover (owned heap
//! blocks reachable from the subsystem, not allocator slack or code).
//! A [`MemoryPeak`] keeps the sample with the highest accounted total.
//! The `fig_memory` CI gate checks that this peak explains ≥ 70 % of
//! measured peak RSS, so the ledger can't quietly rot.

use crate::sink::TelemetrySink;
use std::collections::BTreeMap;

/// A per-subsystem byte ledger, keyed by subsystem name. Names become
/// `mem.<name>` gauges when published; keep them short, snake_case and
/// stable (they are part of the metrics-registry surface documented in
/// `docs/OBSERVABILITY.md`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryLedger {
    entries: BTreeMap<&'static str, u64>,
}

impl MemoryLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        MemoryLedger::default()
    }

    /// Add `bytes` to a subsystem's entry (accumulating — a subsystem
    /// spread over several structures records each part).
    pub fn record(&mut self, subsystem: &'static str, bytes: u64) {
        *self.entries.entry(subsystem).or_insert(0) += bytes;
    }

    /// A subsystem's accounted bytes (0 when never recorded).
    pub fn get(&self, subsystem: &str) -> u64 {
        self.entries.get(subsystem).copied().unwrap_or(0)
    }

    /// Sum over every subsystem.
    pub fn total_bytes(&self) -> u64 {
        self.entries.values().sum()
    }

    /// The entries in name order (deterministic iteration).
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.entries.iter().map(|(&name, &bytes)| (name, bytes))
    }

    /// Number of subsystems recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Publish every entry as a `mem.<subsystem>` gauge (bytes), plus
    /// `mem.accounted_total` — a one-branch no-op when the metrics sink
    /// is off. Gauges are last-value-wins, so the registry ends the run
    /// with the most recent sample.
    pub fn publish(&self, sink: &TelemetrySink) {
        if !sink.enabled() {
            return;
        }
        for (name, bytes) in self.entries() {
            sink.gauge_set(&format!("mem.{name}"), bytes as f64);
        }
        sink.gauge_set("mem.accounted_total", self.total_bytes() as f64);
    }
}

/// The high-water mark of a run's sampled ledgers: the sample with the
/// highest accounted total, kept whole, so each subsystem's bytes at the
/// peak can be read next to the process's peak RSS. Final values alone
/// understate the peak: a subsystem that shrinks before the end (the
/// event queue, the in-flight migrations) is gone from the last sample.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryPeak {
    ledger: MemoryLedger,
}

impl MemoryPeak {
    /// No sample yet.
    pub fn new() -> Self {
        MemoryPeak::default()
    }

    /// Fold in one sample. The first sample, and any whose total is
    /// above the peak's, becomes the peak and is published as
    /// `mem.peak.<subsystem>` gauges plus `mem.peak.accounted_total`
    /// (nothing is published on a disabled sink). Returns whether the
    /// sample became the peak.
    pub fn observe(&mut self, sample: &MemoryLedger, sink: &TelemetrySink) -> bool {
        if !self.ledger.is_empty() && sample.total_bytes() <= self.ledger.total_bytes() {
            return false;
        }
        self.ledger = sample.clone();
        if sink.enabled() {
            for (name, bytes) in self.ledger.entries() {
                sink.gauge_set(&format!("mem.peak.{name}"), bytes as f64);
            }
            sink.gauge_set("mem.peak.accounted_total", self.ledger.total_bytes() as f64);
        }
        true
    }

    /// The sample that set the peak (empty before any).
    pub fn ledger(&self) -> &MemoryLedger {
        &self.ledger
    }
}

pub use deflate_core::mem::{map_entry_bytes, vec_bytes, vec_capacity_bytes, MAP_ENTRY_OVERHEAD};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_and_totals() {
        let mut ledger = MemoryLedger::new();
        assert!(ledger.is_empty());
        ledger.record("event_queue", 1024);
        ledger.record("vm_records", 2048);
        ledger.record("event_queue", 512);
        assert_eq!(ledger.get("event_queue"), 1536);
        assert_eq!(ledger.get("vm_records"), 2048);
        assert_eq!(ledger.get("missing"), 0);
        assert_eq!(ledger.total_bytes(), 3584);
        assert_eq!(ledger.len(), 2);
        // Name-ordered iteration.
        let names: Vec<&str> = ledger.entries().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["event_queue", "vm_records"]);
    }

    #[test]
    fn publish_lands_in_the_registry() {
        let spec = deflate_core::telemetry::TelemetrySpec {
            metrics: true,
            ..Default::default()
        };
        let sink = TelemetrySink::in_memory(&spec);
        let mut ledger = MemoryLedger::new();
        ledger.record("event_queue", 4096);
        ledger.record("telemetry", 128);
        ledger.publish(&sink);
        let metrics = sink.report().metrics;
        assert_eq!(metrics.gauge("mem.event_queue"), Some(4096.0));
        assert_eq!(metrics.gauge("mem.telemetry"), Some(128.0));
        assert_eq!(metrics.gauge("mem.accounted_total"), Some(4224.0));
    }

    #[test]
    fn peak_keeps_the_sample_with_the_highest_total() {
        let spec = deflate_core::telemetry::TelemetrySpec {
            metrics: true,
            ..Default::default()
        };
        let sink = TelemetrySink::in_memory(&spec);
        let sample = |queue: u64, records: u64| {
            let mut ledger = MemoryLedger::new();
            ledger.record("event_queue", queue);
            ledger.record("vm_records", records);
            ledger
        };
        let mut peak = MemoryPeak::new();
        assert!(peak.observe(&sample(0, 0), &sink), "the first sample");
        assert!(peak.observe(&sample(900, 100), &sink));
        // A larger subsystem in a smaller total does not move the peak.
        assert!(!peak.observe(&sample(0, 950), &sink));
        assert!(
            !peak.observe(&sample(500, 500), &sink),
            "ties keep the first"
        );
        assert_eq!(peak.ledger(), &sample(900, 100));
        let metrics = sink.report().metrics;
        assert_eq!(metrics.gauge("mem.peak.event_queue"), Some(900.0));
        assert_eq!(metrics.gauge("mem.peak.vm_records"), Some(100.0));
        assert_eq!(metrics.gauge("mem.peak.accounted_total"), Some(1000.0));
        let mut quiet = MemoryPeak::new();
        let off = TelemetrySink::disabled();
        assert!(quiet.observe(&sample(1, 1), &off));
        assert!(off.report().metrics.is_empty());
    }

    #[test]
    fn publish_on_disabled_sink_is_a_no_op() {
        let sink = TelemetrySink::disabled();
        let mut ledger = MemoryLedger::new();
        ledger.record("event_queue", 4096);
        ledger.publish(&sink); // must not panic or allocate sinks
        assert!(sink.report().metrics.is_empty());
    }
}

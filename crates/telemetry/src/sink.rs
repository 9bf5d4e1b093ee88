//! [`TelemetrySink`]: the handle the engine threads telemetry through.
//!
//! A sink is `Option<Arc<state>>` under the hood: the disabled sink
//! (default) is `None`, clones are pointer-copies, and every publish
//! method is a no-op costing one branch when disabled — in particular no
//! `Instant::now()` call. The engine can therefore take a sink
//! unconditionally.
//!
//! Two invariants the determinism tests pin:
//!
//! * A sink only ever *observes*: nothing it records flows back into
//!   simulation state, so enabled sinks cannot change a `SimResult`.
//! * Sink I/O failures (full disk, unwritable path mid-run) are counted
//!   and reported at [`finish`](TelemetrySink::finish), never surfaced
//!   mid-run — telemetry must not abort or perturb a simulation.

use crate::chrome::{ChromeEvent, ChromeTrace};
use crate::events::{EventField, EventLog};
use crate::profiler::{Phase, PhaseReport, ProfilerState};
use crate::registry::{MetricsRegistry, MetricsSnapshot};
use deflate_core::telemetry::{TelemetryEventKind, TelemetrySpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug)]
struct SinkInner {
    spec: TelemetrySpec,
    /// Timestamp origin for Chrome trace `ts` values.
    epoch: Instant,
    /// Span guards feed the profiler (self-time attribution).
    profile: bool,
    /// Span guards feed the Chrome trace (B/E events).
    chrome_enabled: bool,
    /// `in_memory` sinks never touch the filesystem, even with paths set.
    memory_only: bool,
    metrics: Option<Mutex<MetricsRegistry>>,
    profiler: Mutex<ProfilerState>,
    chrome: Option<Mutex<ChromeTrace>>,
    events: Option<Mutex<EventLog>>,
    io_errors: AtomicU64,
}

/// Cheap-to-clone telemetry handle; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink {
    inner: Option<Arc<SinkInner>>,
}

impl TelemetrySink {
    /// The disabled sink: every operation is a one-branch no-op.
    pub fn disabled() -> Self {
        TelemetrySink { inner: None }
    }

    /// Build a live sink from a spec, opening file sinks eagerly (so a
    /// bad path fails before the run starts, not after it).
    /// [`TelemetrySpec::is_off`] specs yield the disabled sink.
    pub fn from_spec(spec: &TelemetrySpec) -> std::io::Result<Self> {
        Self::build(spec, false)
    }

    /// Like [`from_spec`](Self::from_spec) but nothing touches the
    /// filesystem: the JSONL log buffers in memory (readable via
    /// [`event_log_lines`](Self::event_log_lines)) and the Chrome trace
    /// is only serialised on demand
    /// ([`chrome_trace_json`](Self::chrome_trace_json)). Used by tests
    /// and the determinism harness.
    pub fn in_memory(spec: &TelemetrySpec) -> Self {
        Self::build(spec, true).expect("in-memory sink performs no I/O")
    }

    fn build(spec: &TelemetrySpec, memory_only: bool) -> std::io::Result<Self> {
        if spec.is_off() {
            return Ok(Self::disabled());
        }
        let events = match &spec.event_log_path {
            None => None,
            Some(path) => Some(Mutex::new(if memory_only {
                EventLog::to_memory(spec.event_kinds, spec.sample_rate())
            } else {
                EventLog::to_file(path, spec.event_kinds, spec.sample_rate())?
            })),
        };
        let chrome_enabled = spec.chrome_trace_path.is_some();
        Ok(TelemetrySink {
            inner: Some(Arc::new(SinkInner {
                spec: spec.clone(),
                epoch: Instant::now(),
                profile: spec.profile,
                chrome_enabled,
                memory_only,
                metrics: spec.metrics.then(|| Mutex::new(MetricsRegistry::new())),
                profiler: Mutex::new(ProfilerState::default()),
                chrome: chrome_enabled.then(|| Mutex::new(ChromeTrace::new())),
                events,
                io_errors: AtomicU64::new(0),
            })),
        })
    }

    /// True when any sink is live.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The spec this sink was built from (`None` when disabled).
    pub fn spec(&self) -> Option<&TelemetrySpec> {
        self.inner.as_deref().map(|inner| &inner.spec)
    }

    // ---- spans ---------------------------------------------------------

    /// Open a coordinator-thread phase span; the returned RAII guard
    /// closes it on drop. Spans nest: each phase is attributed its
    /// *self* time (see [`crate::profiler`]). Must be entered/exited in
    /// stack order, which the guard enforces structurally.
    #[must_use = "the span measures until the guard drops"]
    pub fn span(&self, phase: Phase) -> SpanGuard {
        let live = match &self.inner {
            Some(inner) if inner.profile || inner.chrome_enabled => inner,
            _ => return SpanGuard { live: None },
        };
        // One clock read per span edge serves both sinks. The span's own
        // entry bookkeeping below is timed as part of it.
        let start = Instant::now();
        inner_chrome_begin(live, phase, 0, start);
        if live.profile {
            live.profiler.lock().expect("profiler lock").enter(phase);
        }
        SpanGuard {
            live: Some((Arc::clone(live), phase, start)),
        }
    }

    /// Open a worker-thread span for `shard`. Worker spans don't join
    /// the coordinator's nesting stack — they accumulate flat, per
    /// `(shard, phase)`, and appear on Chrome-trace thread `shard + 1`.
    #[must_use = "the span measures until the guard drops"]
    pub fn shard_span(&self, shard: usize, phase: Phase) -> ShardSpanGuard {
        let live = match &self.inner {
            Some(inner) if inner.profile || inner.chrome_enabled => inner,
            _ => return ShardSpanGuard { live: None },
        };
        let tid = (shard + 1) as u32;
        let start = Instant::now();
        inner_chrome_begin(live, phase, tid, start);
        ShardSpanGuard {
            live: Some((Arc::clone(live), phase, shard, start)),
        }
    }

    // ---- metrics -------------------------------------------------------

    /// Add `n` to a counter (no-op unless the metrics sink is on).
    pub fn count(&self, name: &str, n: u64) {
        if let Some(metrics) = self.metrics_ref() {
            metrics.lock().expect("metrics lock").count(name, n);
        }
    }

    /// Set a gauge (no-op unless the metrics sink is on).
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(metrics) = self.metrics_ref() {
            metrics.lock().expect("metrics lock").gauge_set(name, value);
        }
    }

    /// Record a histogram sample (no-op unless the metrics sink is on).
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(metrics) = self.metrics_ref() {
            metrics.lock().expect("metrics lock").observe(name, value);
        }
    }

    // ---- event log -----------------------------------------------------

    /// True when the JSONL sink is on and its filter includes `kind` —
    /// check before building a field slice for [`log_event`](Self::log_event).
    pub fn wants(&self, kind: TelemetryEventKind) -> bool {
        match &self.inner {
            Some(inner) => match &inner.events {
                Some(log) => log.lock().expect("event log lock").wants(kind),
                None => false,
            },
            None => false,
        }
    }

    /// Record one simulation event (filter and sampling applied inside).
    /// I/O errors are counted, not raised.
    pub fn log_event(
        &self,
        kind: TelemetryEventKind,
        time: f64,
        fields: &[(&str, EventField<'_>)],
    ) {
        if let Some(inner) = &self.inner {
            if let Some(log) = &inner.events {
                let mut log = log.lock().expect("event log lock");
                if log.wants(kind) && log.record(kind, time, fields).is_err() {
                    inner.io_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    // ---- output --------------------------------------------------------

    /// Flush file sinks (JSONL log; Chrome trace is written here, in one
    /// shot) and assemble the final [`TelemetryReport`]. Idempotent for
    /// reporting; call once after the run. I/O errors from the flush are
    /// returned, mid-run write errors appear in
    /// [`TelemetryReport::io_errors`].
    pub fn finish(&self) -> std::io::Result<TelemetryReport> {
        let inner = match &self.inner {
            Some(inner) => inner,
            None => return Ok(TelemetryReport::default()),
        };
        if let Some(log) = &inner.events {
            log.lock().expect("event log lock").flush()?;
        }
        if !inner.memory_only {
            if let (Some(chrome), Some(path)) = (&inner.chrome, &inner.spec.chrome_trace_path) {
                let json = chrome.lock().expect("chrome lock").to_json();
                std::fs::write(path, json)?;
            }
        }
        Ok(self.report())
    }

    /// Assemble the report without flushing anything to disk.
    pub fn report(&self) -> TelemetryReport {
        let inner = match &self.inner {
            Some(inner) => inner,
            None => return TelemetryReport::default(),
        };
        let (chrome_events, chrome_dropped) = match &inner.chrome {
            Some(chrome) => {
                let chrome = chrome.lock().expect("chrome lock");
                (chrome.len(), chrome.dropped())
            }
            None => (0, 0),
        };
        TelemetryReport {
            phases: inner.profiler.lock().expect("profiler lock").report(),
            metrics: inner
                .metrics
                .as_ref()
                .map(|m| m.lock().expect("metrics lock").snapshot())
                .unwrap_or_default(),
            chrome_events,
            chrome_dropped,
            event_lines: inner
                .events
                .as_ref()
                .map(|log| log.lock().expect("event log lock").written())
                .unwrap_or(0),
            io_errors: inner.io_errors.load(Ordering::Relaxed),
        }
    }

    /// The JSONL lines of a memory-backed sink (`None` when disabled or
    /// streaming to a file).
    pub fn event_log_lines(&self) -> Option<Vec<String>> {
        let inner = self.inner.as_deref()?;
        let log = inner.events.as_ref()?.lock().expect("event log lock");
        log.lines().map(|lines| lines.to_vec())
    }

    /// Owned heap bytes behind the sink itself: the metrics registry and
    /// any memory-backed event-log buffer. The observability layer's own
    /// footprint, reported as `mem.telemetry` so the memory ledger keeps
    /// the observer honest too. 0 when disabled. Measured *before* the
    /// ledger publishes its `mem.*` gauges, so the figure excludes the
    /// entries the publish itself adds.
    pub fn accounted_bytes(&self) -> u64 {
        let Some(inner) = self.inner.as_deref() else {
            return 0;
        };
        let metrics = inner
            .metrics
            .as_ref()
            .map_or(0, |m| m.lock().expect("metrics lock").accounted_bytes());
        let events = inner
            .events
            .as_ref()
            .map_or(0, |e| e.lock().expect("event log lock").accounted_bytes());
        metrics + events
    }

    /// Serialise the in-memory Chrome trace (`None` when that sink is
    /// off). Works for both file-backed and memory-only sinks.
    pub fn chrome_trace_json(&self) -> Option<String> {
        let inner = self.inner.as_deref()?;
        Some(
            inner
                .chrome
                .as_ref()?
                .lock()
                .expect("chrome lock")
                .to_json(),
        )
    }

    fn metrics_ref(&self) -> Option<&Mutex<MetricsRegistry>> {
        self.inner
            .as_deref()
            .and_then(|inner| inner.metrics.as_ref())
    }
}

fn inner_chrome_begin(inner: &Arc<SinkInner>, phase: Phase, tid: u32, now: Instant) {
    if let Some(chrome) = &inner.chrome {
        let ts_us = now.duration_since(inner.epoch).as_micros() as u64;
        chrome.lock().expect("chrome lock").push(ChromeEvent {
            name: phase.name(),
            ph: b'B',
            ts_us,
            tid,
        });
    }
}

fn inner_chrome_end(inner: &Arc<SinkInner>, phase: Phase, tid: u32, now: Instant) {
    if let Some(chrome) = &inner.chrome {
        let ts_us = now.duration_since(inner.epoch).as_micros() as u64;
        chrome.lock().expect("chrome lock").push(ChromeEvent {
            name: phase.name(),
            ph: b'E',
            ts_us,
            tid,
        });
    }
}

/// RAII guard for a coordinator phase span (see [`TelemetrySink::span`]).
#[derive(Debug)]
pub struct SpanGuard {
    live: Option<(Arc<SinkInner>, Phase, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, phase, start)) = self.live.take() {
            let now = Instant::now();
            let elapsed = now.duration_since(start);
            if inner.profile {
                inner
                    .profiler
                    .lock()
                    .expect("profiler lock")
                    .exit(phase, elapsed);
            }
            inner_chrome_end(&inner, phase, 0, now);
        }
    }
}

/// RAII guard for a worker-thread span (see [`TelemetrySink::shard_span`]).
#[derive(Debug)]
pub struct ShardSpanGuard {
    live: Option<(Arc<SinkInner>, Phase, usize, Instant)>,
}

impl Drop for ShardSpanGuard {
    fn drop(&mut self) {
        if let Some((inner, phase, shard, start)) = self.live.take() {
            let now = Instant::now();
            let elapsed = now.duration_since(start);
            if inner.profile {
                inner
                    .profiler
                    .lock()
                    .expect("profiler lock")
                    .record_shard(shard, phase, elapsed);
            }
            inner_chrome_end(&inner, phase, (shard + 1) as u32, now);
        }
    }
}

/// Everything a finished sink has to say: phase attribution, metrics
/// snapshot and trace-sink statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// Per-phase self times, engine total, coverage.
    pub phases: PhaseReport,
    /// Deterministic metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// Chrome trace events collected.
    pub chrome_events: usize,
    /// Chrome trace events dropped at the cap.
    pub chrome_dropped: u64,
    /// JSONL lines recorded (post filter + sampling).
    pub event_lines: u64,
    /// Mid-run sink write failures (swallowed, never raised).
    pub io_errors: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::validate_chrome_trace;
    use crate::events::parse_event_line;
    use deflate_core::telemetry::TelemetryEventSet;

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TelemetrySink::disabled();
        assert!(!sink.enabled());
        {
            let _span = sink.span(Phase::EngineTotal);
            sink.count("x", 1);
            sink.gauge_set("g", 1.0);
            sink.observe("h", 1.0);
            assert!(!sink.wants(TelemetryEventKind::Arrival));
            sink.log_event(TelemetryEventKind::Arrival, 0.0, &[]);
        }
        let report = sink.finish().unwrap();
        assert_eq!(report, TelemetryReport::default());
        assert!(report.phases.is_empty());
        assert!(report.metrics.is_empty());
    }

    #[test]
    fn off_spec_yields_disabled_sink() {
        let sink = TelemetrySink::from_spec(&TelemetrySpec::off()).unwrap();
        assert!(!sink.enabled());
    }

    #[test]
    fn profiling_sink_attributes_phases() {
        let sink = TelemetrySink::in_memory(&TelemetrySpec::profiling());
        {
            let _total = sink.span(Phase::EngineTotal);
            {
                let _arrival = sink.span(Phase::Arrival);
                let _rank = sink.span(Phase::PlacementRank);
            }
            let _shard = sink.shard_span(1, Phase::Heapify);
            sink.count("placements", 3);
            sink.observe("rank_secs", 0.001);
        }
        let report = sink.finish().unwrap();
        assert!(report.phases.engine_total > std::time::Duration::ZERO);
        assert!(!report.phases.self_time(Phase::Arrival).is_zero());
        let shard_rows = &report.phases.shards;
        assert_eq!(shard_rows.len(), 1);
        assert_eq!(shard_rows[0].shard, 1);
        assert_eq!(shard_rows[0].phase, Phase::Heapify);
        assert_eq!(report.metrics.counter("placements"), 3);
    }

    #[test]
    fn memory_sinks_capture_traces() {
        let spec = TelemetrySpec::profiling()
            .with_event_log("ignored.jsonl")
            .with_event_kinds(TelemetryEventSet::all())
            .with_chrome_trace("ignored.trace.json");
        let sink = TelemetrySink::in_memory(&spec);
        {
            let _total = sink.span(Phase::EngineTotal);
            assert!(sink.wants(TelemetryEventKind::ScaleOut));
            sink.log_event(
                TelemetryEventKind::ScaleOut,
                60.0,
                &[("app", EventField::U64(7))],
            );
        }
        let report = sink.finish().unwrap();
        assert_eq!(report.event_lines, 1);
        assert_eq!(report.io_errors, 0);
        let lines = sink.event_log_lines().unwrap();
        let parsed = parse_event_line(&lines[0]).unwrap();
        assert_eq!(parsed.kind, TelemetryEventKind::ScaleOut);
        let chrome = sink.chrome_trace_json().unwrap();
        let stats = validate_chrome_trace(&chrome).unwrap();
        assert_eq!(stats.spans, 1);
        // memory-only: nothing written to the bogus paths
        assert!(!std::path::Path::new("ignored.jsonl").exists());
        assert!(!std::path::Path::new("ignored.trace.json").exists());
    }

    #[test]
    fn file_sinks_round_trip_through_disk() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let jsonl = dir.join(format!("deflate-telemetry-test-{pid}.jsonl"));
        let trace = dir.join(format!("deflate-telemetry-test-{pid}.trace.json"));
        let spec = TelemetrySpec::off()
            .with_event_log(&jsonl)
            .with_event_kinds(TelemetryEventSet::all())
            .with_chrome_trace(&trace);
        let sink = TelemetrySink::from_spec(&spec).unwrap();
        {
            let _total = sink.span(Phase::EngineTotal);
            sink.log_event(TelemetryEventKind::Departure, 10.0, &[]);
        }
        let report = sink.finish().unwrap();
        assert_eq!(report.event_lines, 1);
        let text = std::fs::read_to_string(&jsonl).unwrap();
        assert_eq!(text.lines().count(), 1);
        parse_event_line(text.lines().next().unwrap()).unwrap();
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        validate_chrome_trace(&trace_text).unwrap();
        std::fs::remove_file(&jsonl).ok();
        std::fs::remove_file(&trace).ok();
    }
}

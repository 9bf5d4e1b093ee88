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
use std::sync::{Arc, Mutex, MutexGuard};
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
    /// Everything mutable, behind one lock: a span edge takes it once
    /// for both the profiler and the Chrome trace.
    state: Mutex<SinkState>,
}

/// The mutable half of a live sink.
#[derive(Debug)]
struct SinkState {
    metrics: Option<MetricsRegistry>,
    profiler: ProfilerState,
    chrome: Option<ChromeTrace>,
    events: Option<EventLog>,
    /// Mid-run write failures of the file sinks.
    io_errors: u64,
}

impl SinkInner {
    fn state(&self) -> MutexGuard<'_, SinkState> {
        self.state.lock().expect("telemetry sink lock")
    }

    /// Microseconds from the sink epoch to `now`.
    fn micros_at(&self, now: Instant) -> u64 {
        now.duration_since(self.epoch).as_micros() as u64
    }
}

impl SinkState {
    /// Record one Chrome-trace edge (`ph` is `b'B'` or `b'E'`) of a span
    /// at `ts_us` past the sink epoch.
    fn chrome_push(&mut self, phase: Phase, ph: u8, ts_us: u64) {
        if let Some(chrome) = &mut self.chrome {
            let event = ChromeEvent {
                name: phase.name(),
                ph,
                ts_us,
            };
            if chrome.push(event).is_err() {
                self.io_errors += 1;
            }
        }
    }
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
    /// filesystem: the JSONL log and the Chrome trace buffer in memory
    /// (readable via [`event_log_lines`](Self::event_log_lines) and
    /// [`chrome_trace_json`](Self::chrome_trace_json)). Used by tests
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
            Some(_) if memory_only => {
                Some(EventLog::to_memory(spec.event_kinds, spec.sample_rate()))
            }
            Some(path) => Some(EventLog::to_file(
                path,
                spec.event_kinds,
                spec.sample_rate(),
            )?),
        };
        let chrome = match &spec.chrome_trace_path {
            None => None,
            Some(_) if memory_only => Some(ChromeTrace::in_memory()),
            Some(path) => Some(ChromeTrace::to_file(path)?),
        };
        Ok(TelemetrySink {
            inner: Some(Arc::new(SinkInner {
                spec: spec.clone(),
                epoch: Instant::now(),
                profile: spec.profile,
                chrome_enabled: chrome.is_some(),
                state: Mutex::new(SinkState {
                    metrics: spec.metrics.then(MetricsRegistry::new),
                    profiler: ProfilerState::default(),
                    chrome,
                    events,
                    io_errors: 0,
                }),
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

    /// Open a phase span; the returned RAII guard closes it on drop.
    /// Spans nest: each phase is attributed its *self* time (see
    /// [`crate::profiler`]). Must be entered/exited in stack order, which
    /// the guard enforces structurally.
    #[must_use = "the span measures until the guard drops"]
    pub fn span(&self, phase: Phase) -> SpanGuard {
        let live = match &self.inner {
            Some(inner) if inner.profile || inner.chrome_enabled => inner,
            _ => return SpanGuard { live: None },
        };
        // One clock read per span edge serves both sinks. The span's own
        // entry bookkeeping below is timed as part of it.
        let start = Instant::now();
        let mut state = live.state();
        state.chrome_push(phase, b'B', live.micros_at(start));
        if live.profile {
            state.profiler.enter(phase);
        }
        drop(state);
        SpanGuard {
            live: Some((Arc::clone(live), phase, start)),
        }
    }

    // ---- metrics -------------------------------------------------------

    /// Add `n` to a counter (no-op unless the metrics sink is on).
    pub fn count(&self, name: &str, n: u64) {
        self.with_metrics(|m| m.count(name, n));
    }

    /// Set a gauge (no-op unless the metrics sink is on).
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.with_metrics(|m| m.gauge_set(name, value));
    }

    /// Record a histogram sample (no-op unless the metrics sink is on).
    pub fn observe(&self, name: &str, value: f64) {
        self.with_metrics(|m| m.observe(name, value));
    }

    // ---- event log -----------------------------------------------------

    /// True when the JSONL sink is on and its filter includes `kind` —
    /// check before building a field slice for [`log_event`](Self::log_event).
    /// Reads the immutable spec, so it takes no lock.
    pub fn wants(&self, kind: TelemetryEventKind) -> bool {
        self.inner.as_deref().is_some_and(|inner| {
            inner.spec.event_log_path.is_some() && inner.spec.event_kinds.contains(kind)
        })
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
            let mut state = inner.state();
            let state = &mut *state;
            if let Some(log) = &mut state.events {
                if log.wants(kind) && log.record(kind, time, fields).is_err() {
                    state.io_errors += 1;
                }
            }
        }
    }

    // ---- output --------------------------------------------------------

    /// Finish the file sinks and assemble the final [`TelemetryReport`]:
    /// flush the JSONL log and close the streamed Chrome trace (its
    /// closing `]` is written here; the events went out during the run).
    /// Idempotent for reporting; call once after the run. Both sinks are
    /// finished even if one fails, and the first error is returned;
    /// mid-run write errors appear in [`TelemetryReport::io_errors`].
    pub fn finish(&self) -> std::io::Result<TelemetryReport> {
        let inner = match &self.inner {
            Some(inner) => inner,
            None => return Ok(TelemetryReport::default()),
        };
        let mut state = inner.state();
        let flushed = state.events.as_mut().map_or(Ok(()), EventLog::flush);
        let closed = state.chrome.as_mut().map_or(Ok(()), ChromeTrace::close);
        drop(state);
        flushed.and(closed)?;
        Ok(self.report())
    }

    /// Assemble the report without flushing anything to disk.
    pub fn report(&self) -> TelemetryReport {
        let inner = match &self.inner {
            Some(inner) => inner,
            None => return TelemetryReport::default(),
        };
        let state = inner.state();
        TelemetryReport {
            phases: state.profiler.report(),
            metrics: state
                .metrics
                .as_ref()
                .map(MetricsRegistry::snapshot)
                .unwrap_or_default(),
            chrome_events: state.chrome.as_ref().map_or(0, ChromeTrace::len),
            chrome_dropped: state.chrome.as_ref().map_or(0, ChromeTrace::dropped),
            event_lines: state.events.as_ref().map_or(0, EventLog::written),
            io_errors: state.io_errors,
        }
    }

    /// The JSONL lines of a memory-backed sink (`None` when disabled or
    /// streaming to a file).
    pub fn event_log_lines(&self) -> Option<Vec<String>> {
        let state = self.inner.as_deref()?.state();
        state.events.as_ref()?.lines().map(|lines| lines.to_vec())
    }

    /// Owned heap bytes behind the sink itself: the metrics registry,
    /// the Chrome trace (a memory sink's buffered events, a file sink's
    /// write buffer) and the event log (buffered lines, or the file
    /// writer's buffer). The observability layer's own footprint,
    /// reported as `mem.telemetry` so the memory ledger keeps the
    /// observer honest too. 0 when disabled. Measured *before* the
    /// ledger publishes its `mem.*` gauges, so the figure excludes the
    /// entries the publish itself adds.
    pub fn accounted_bytes(&self) -> u64 {
        let Some(inner) = self.inner.as_deref() else {
            return 0;
        };
        let state = inner.state();
        state
            .metrics
            .as_ref()
            .map_or(0, MetricsRegistry::accounted_bytes)
            + state
                .chrome
                .as_ref()
                .map_or(0, ChromeTrace::accounted_bytes)
            + state.events.as_ref().map_or(0, EventLog::accounted_bytes)
    }

    /// Serialise a memory-backed Chrome trace (`None` when that sink is
    /// off or streams to a file, whose events are already on disk).
    pub fn chrome_trace_json(&self) -> Option<String> {
        let state = self.inner.as_deref()?.state();
        state.chrome.as_ref()?.to_json()
    }

    fn with_metrics(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        if let Some(inner) = &self.inner {
            // The spec says whether a registry exists; checking it first
            // keeps metric calls lock-free when metrics are off.
            if inner.spec.metrics {
                if let Some(metrics) = &mut inner.state().metrics {
                    f(metrics);
                }
            }
        }
    }
}

/// RAII guard for a phase span (see [`TelemetrySink::span`]).
#[derive(Debug)]
pub struct SpanGuard {
    live: Option<(Arc<SinkInner>, Phase, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, phase, start)) = self.live.take() {
            let now = Instant::now();
            // No panic in `Drop`: a lock poisoned by an earlier panic
            // just loses this edge.
            let Ok(mut state) = inner.state.lock() else {
                return;
            };
            if inner.profile {
                state.profiler.exit(phase, now.duration_since(start));
            }
            state.chrome_push(phase, b'E', inner.micros_at(now));
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
            sink.count("placements", 3);
            sink.observe("rank_secs", 0.001);
        }
        let report = sink.finish().unwrap();
        assert!(report.phases.engine_total > std::time::Duration::ZERO);
        assert!(!report.phases.self_time(Phase::Arrival).is_zero());
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
    fn accounted_bytes_grow_with_recorded_spans() {
        let spec = TelemetrySpec::off().with_chrome_trace("ignored.trace.json");
        let sink = TelemetrySink::in_memory(&spec);
        let empty = sink.accounted_bytes();
        let mut last = empty;
        for round in 0..3 {
            for _ in 0..1_000 {
                let _span = sink.span(Phase::Arrival);
            }
            let now = sink.accounted_bytes();
            assert!(now > last, "round {round}: {now} <= {last}");
            last = now;
        }
        // 6 000 buffered edges cost at least their own size.
        let edge = std::mem::size_of::<ChromeEvent>() as u64;
        assert!(last - empty >= 6_000 * edge, "{last} - {empty}");
        assert_eq!(sink.report().chrome_events, 6_000);
    }

    #[test]
    fn file_sinks_account_their_write_buffers() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let jsonl = dir.join(format!("deflate-telemetry-acct-{pid}.jsonl"));
        let trace = dir.join(format!("deflate-telemetry-acct-{pid}.trace.json"));
        let spec = TelemetrySpec::off()
            .with_event_log(&jsonl)
            .with_chrome_trace(&trace);
        let sink = TelemetrySink::from_spec(&spec).unwrap();
        let before = sink.accounted_bytes();
        // A 64 KiB trace buffer plus the event log's buffer.
        assert!(before > 64 * 1024, "{before}");
        for _ in 0..10_000 {
            let _span = sink.span(Phase::Arrival);
        }
        // Streaming: the figure does not grow with the trace.
        assert_eq!(sink.accounted_bytes(), before);
        sink.finish().unwrap();
        std::fs::remove_file(&jsonl).ok();
        std::fs::remove_file(&trace).ok();
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

//! Telemetry sinks that fail mid-run: a full disk under both file sinks
//! (the JSONL event log and the streamed Chrome trace) must leave the
//! simulation untouched, count every failed write, and surface the
//! failure as an `Err` from `finish` — never a panic, never a changed
//! `SimResult`.

#![cfg(target_os = "linux")]

use deflate_bench::scale::Scale;
use deflate_bench::scale_exp::{run_scale_cell, run_scale_cell_with_telemetry, scale_workload};
use vmdeflate::telemetry::{TelemetryEventSet, TelemetrySink, TelemetrySpec};

#[test]
fn full_disk_mid_run_is_counted_and_leaves_the_result_unchanged() {
    let workload = scale_workload(Scale::Quick, 400);
    let (baseline, _) = run_scale_cell(&workload, Scale::Quick);
    // `/dev/full` opens fine and fails every write with ENOSPC, so the
    // sinks come up and only break once their buffers first flush.
    let spec = TelemetrySpec::profiling()
        .with_event_log("/dev/full")
        .with_event_kinds(TelemetryEventSet::all())
        .with_chrome_trace("/dev/full");
    let sink = TelemetrySink::from_spec(&spec).expect("/dev/full opens for writing");
    let (observed, _) = run_scale_cell_with_telemetry(&workload, Scale::Quick, sink.clone());
    assert_eq!(baseline, observed, "write errors changed the result");

    let report = sink.report();
    assert!(report.io_errors > 0, "no mid-run write error was counted");
    assert!(report.chrome_events > 0);
    assert!(report.event_lines > 0);
    assert!(
        !report.phases.is_empty(),
        "the profiler stopped with the sinks"
    );
    assert!(sink.finish().is_err(), "finish must return the flush error");
    // Reporting still works after the failed finish.
    assert_eq!(sink.report().chrome_events, report.chrome_events);
}

//! The engine-scaling experiment (`fig_scale`): cluster size × shard
//! count under spot-market reclamation.
//!
//! Every other experiment here asks what a *policy* does to the workload;
//! this one asks what the workload does to the **simulator** — the
//! question behind the roadmap's "million-VM traces, as fast as the
//! hardware allows". For each cluster size (10k → 1M VMs, synthetic
//! spot-market reclamation across every server) the sweep replays the
//! identical run under each engine shard count and reports wall-clock
//! time, delivered events, engine throughput (events/s), the process's
//! peak RSS, and a **parity** column checking the sharded run against the
//! 1-shard baseline of the same size — the determinism contract of
//! `docs/PERFORMANCE.md`, spot-checked at experiment scale on every row.
//!
//! The run deliberately measures the engine, not placement finesse:
//! first-fit placement (O(cluster) per arrival like the other policies,
//! but with an early exit), proportional deflation with the default
//! migration cost model, migrate-back on restitution, utilisation ticks
//! every 15 simulated minutes.
//!
//! Peak RSS is read from `/proc/self/status` (`VmHWM`) and is a
//! *process-wide high-water mark*: it can only grow across rows, so the
//! number is attributable to a row only the first time it increases.
//! On non-Linux hosts the column prints `n/a`.

use crate::report::{secs, RuntimeTally, Table, TallyRunStats};
use crate::scale::Scale;
use deflate_cluster::manager::{ClusterConfig, PlacementKind, ReclamationMode};
use deflate_cluster::metrics::SimResult;
use deflate_cluster::sim::ClusterSimulation;
use deflate_cluster::spec::{
    paper_server_capacity, servers_for_transient_overcommitment, workload_from_azure,
    MinAllocationRule, WorkloadVm,
};
use deflate_core::audit::AuditSpec;
use deflate_core::checkpoint::{ByteReader, ByteWriter, CheckpointError, CheckpointResult};
use deflate_core::placement::PartitionScheme;
use deflate_core::policy::ProportionalDeflation;
use deflate_core::shard::ShardConfig;
use deflate_hypervisor::domain::DeflationMechanism;
use deflate_hypervisor::migration::MigrationCostModel;
use deflate_telemetry::TelemetrySink;
use deflate_traces::azure::{AzureTraceConfig, AzureTraceGenerator};
use deflate_transient::signal::{CapacityProfile, CapacitySchedule, TransientConfig};
use std::fs;
use std::path::Path;
use std::sync::Arc;

/// One measured row of the scaling sweep.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// VMs in the replayed trace.
    pub vms: usize,
    /// Servers the cluster was sized to.
    pub servers: usize,
    /// Engine shard count the run used.
    pub shards: usize,
    /// Events the engine delivered (deterministic per size).
    pub events: u64,
    /// Wall-clock duration of the run, seconds.
    pub wall_clock_secs: f64,
    /// Engine throughput, events per wall-clock second.
    pub events_per_sec: f64,
    /// Process peak RSS after the run, MiB (`None` off Linux).
    pub peak_rss_mib: Option<f64>,
    /// Whether this run's deterministic outputs matched the 1-shard
    /// baseline of the same cluster size.
    pub parity: bool,
}

/// The shard counts the sweep runs each size under: the scale preset's
/// list, unless the `DEFLATE_SHARDS` environment variable overrides it
/// with a comma-separated list (e.g. `DEFLATE_SHARDS=1,2,4,8`).
pub fn sweep_shard_counts(scale: Scale) -> Vec<usize> {
    if let Ok(value) = std::env::var("DEFLATE_SHARDS") {
        let parsed: Vec<usize> = value
            .split(',')
            .filter_map(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .collect();
        if !parsed.is_empty() {
            return parsed;
        }
    }
    scale.scale_sweep_shards().to_vec()
}

/// The `fig_scale` workload at one cluster size: a synthetic Azure-derived
/// trace over the (deliberately short) scaling-trace horizon.
pub fn scale_workload(scale: Scale, num_vms: usize) -> Vec<WorkloadVm> {
    let traces = AzureTraceGenerator::generate(&AzureTraceConfig {
        num_vms,
        duration_hours: scale.scale_trace_hours(),
        seed: scale.seed(),
        ..Default::default()
    });
    workload_from_azure(&traces, MinAllocationRule::None)
}

/// Run one (size, shard-count) cell: deflation mode, first-fit placement,
/// spot-market reclamation on every server, default migration cost,
/// migrate-back, 15-minute utilisation ticks. Returns the full result so
/// callers can both report throughput and check cross-shard parity.
pub fn run_scale_cell(
    workload: &[WorkloadVm],
    scale: Scale,
    shards: ShardConfig,
) -> (SimResult, usize) {
    run_scale_cell_with_telemetry(workload, scale, shards, TelemetrySink::disabled())
}

/// [`run_scale_cell`] observed through a telemetry sink — the engine run
/// behind `fig_profile`'s per-phase table. The sink never changes the
/// result (the standing `deflate-telemetry` contract).
pub fn run_scale_cell_with_telemetry(
    workload: &[WorkloadVm],
    scale: Scale,
    shards: ShardConfig,
    telemetry: TelemetrySink,
) -> (SimResult, usize) {
    run_scale_cell_configured(workload, scale, shards, telemetry, AuditSpec::off())
}

/// [`run_scale_cell`] with the online invariant auditor on — the run
/// behind the auditor determinism pins (`tests/telemetry_determinism.rs`
/// and `tests/shard_parity.rs`): every checker is strictly read-only, so
/// the result must stay bit-identical to the unaudited baseline at any
/// shard count, or the run panics on the first violated invariant.
pub fn run_scale_cell_audited(
    workload: &[WorkloadVm],
    scale: Scale,
    shards: ShardConfig,
    audit: AuditSpec,
) -> (SimResult, usize) {
    run_scale_cell_configured(workload, scale, shards, TelemetrySink::disabled(), audit)
}

/// The fully-parameterised cell behind every `run_scale_cell*` variant.
pub fn run_scale_cell_configured(
    workload: &[WorkloadVm],
    scale: Scale,
    shards: ShardConfig,
    telemetry: TelemetrySink,
    audit: AuditSpec,
) -> (SimResult, usize) {
    let capacity = paper_server_capacity();
    let profile = CapacityProfile::spot_market_default();
    let servers =
        servers_for_transient_overcommitment(workload, capacity, 0.0, profile.mean_availability());
    let schedule = CapacitySchedule::generate(&TransientConfig {
        num_servers: servers,
        transient_fraction: 1.0,
        duration_secs: scale.scale_trace_hours() * 3600.0,
        profile,
        seed: scale.seed(),
    });
    let config = ClusterConfig {
        num_servers: servers,
        server_capacity: capacity,
        placement: PlacementKind::FirstFit,
        partitions: PartitionScheme::None,
        mechanism: DeflationMechanism::Transparent,
    };
    let result = ClusterSimulation::new(
        config,
        ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default())),
    )
    .with_capacity_schedule(schedule)
    .with_migrate_back(true)
    .with_migration_cost(
        MigrationCostModel::lan_default()
            .with_budget_mbps(1250.0)
            .with_deadline_secs(30.0),
    )
    .with_utilization_ticks(900.0)
    .with_shards(shards)
    .with_telemetry(telemetry)
    .with_audit(audit)
    .run(workload);
    (result, servers)
}

/// The deterministic outputs two runs of the same size must agree on.
/// `SimResult`'s own equality covers the full per-VM record vectors too;
/// the sweep compares through this digest instead so the 1-shard baseline
/// of a million-VM size does not have to stay resident while the other
/// shard counts run. The full bit-identity (records included) is pinned
/// at quick scale by `tests/shard_parity.rs`.
fn digest(result: &SimResult) -> impl PartialEq + std::fmt::Debug {
    (
        result.counters,
        result.transient,
        result.scheduler,
        result.runtime.events_processed,
        result.migrations.len(),
        result.failure_probability().to_bits(),
        result.mean_throughput_loss().to_bits(),
        result
            .utilization
            .iter()
            .map(|&(t, u)| (t.to_bits(), u.to_bits()))
            .collect::<Vec<_>>(),
    )
}

/// Run the full sweep: every cluster size of the scale preset × every
/// shard count of [`sweep_shard_counts`].
pub fn scale_sweep(scale: Scale) -> Vec<ScaleRow> {
    scale_sweep_with_resume(scale, Vec::new(), |_| {})
}

/// [`scale_sweep`] with **row-level resume**: cells already present in
/// `done` (matched on `(vms, shards)`) are skipped — a fully measured
/// cluster size does not even rebuild its workload — and `flush` is
/// called with the cumulative row set after every newly measured cell,
/// so an interrupted sweep loses at most the cell it was inside.
/// [`scale_sweep_resumable`] wires this to an on-disk state file.
///
/// Resuming into a *partially* measured size re-runs the unreported
/// sequential baseline for that size (the parity digest is deliberately
/// not persisted — it is a full `SimResult` tuple, and re-deriving it
/// keeps the state file small and version-stable). Returned rows are
/// sorted by `(vms, shards)`, the preset's own order.
pub fn scale_sweep_with_resume(
    scale: Scale,
    done: Vec<ScaleRow>,
    mut flush: impl FnMut(&[ScaleRow]),
) -> Vec<ScaleRow> {
    let shard_counts = sweep_shard_counts(scale);
    let mut rows = done;
    for &vms in scale.scale_sweep_vms() {
        let have = |rows: &[ScaleRow], shards: usize| {
            rows.iter().any(|r| r.vms == vms && r.shards == shards)
        };
        if shard_counts.iter().all(|&s| have(&rows, s)) {
            continue;
        }
        let workload = scale_workload(scale, vms);
        // Parity baseline: the *sequential* engine's digest. Both presets
        // sweep shards = 1 first, so this is normally the first cell; a
        // `DEFLATE_SHARDS` override without a 1, or a resume into a
        // partially measured size, pays one extra unreported sequential
        // run. The column promises a comparison against the sequential
        // engine, not against whichever cell happened to run first.
        let all_fresh = shard_counts.iter().all(|&s| !have(&rows, s));
        let mut baseline_digest = if all_fresh && shard_counts.first() == Some(&1) {
            None
        } else {
            let (baseline, _) = run_scale_cell(&workload, scale, ShardConfig::sequential());
            Some(digest(&baseline))
        };
        for &shards in &shard_counts {
            if have(&rows, shards) {
                continue;
            }
            let (result, servers) =
                run_scale_cell(&workload, scale, ShardConfig::with_shards(shards));
            let this_digest = digest(&result);
            let parity = match &baseline_digest {
                None => {
                    // First cell of the preset sweep: shards == 1 itself.
                    baseline_digest = Some(this_digest);
                    true
                }
                Some(base) => *base == this_digest,
            };
            rows.push(ScaleRow {
                vms,
                servers,
                shards,
                events: result.runtime.events_processed,
                wall_clock_secs: result.runtime.wall_clock_secs,
                events_per_sec: result.runtime.events_per_sec(),
                peak_rss_mib: peak_rss_mib(),
                parity,
            });
            flush(&rows);
        }
    }
    rows.sort_by_key(|r| (r.vms, r.shards));
    rows
}

/// Run the sweep resumably against an on-disk state file: rows measured
/// by a previous (possibly interrupted or killed) invocation are loaded
/// from `state_path` and skipped, and every newly measured cell is
/// flushed back atomically (write-to-temp + rename). A re-run over a
/// complete state file measures nothing and just reprints the table. An
/// unreadable or stale-format state file is discarded and the sweep
/// starts over — the file is a cache, never a source of truth.
pub fn scale_sweep_resumable(scale: Scale, state_path: &Path) -> Vec<ScaleRow> {
    let done = match fs::read(state_path) {
        Ok(bytes) => rows_from_bytes(&bytes).unwrap_or_default(),
        Err(_) => Vec::new(),
    };
    scale_sweep_with_resume(scale, done, |rows| {
        let tmp = state_path.with_extension("tmp");
        if fs::write(&tmp, rows_to_bytes(rows)).is_ok() {
            let _ = fs::rename(&tmp, state_path);
        }
    })
}

/// Serialize measured sweep rows for the resumable state file, using the
/// engine checkpoint's versioned little-endian byte conventions (shared
/// magic + format version, so a format change requires the same version
/// bump the snapshot golden test enforces). A tag string distinguishes
/// the row file from an engine snapshot.
pub fn rows_to_bytes(rows: &[ScaleRow]) -> Vec<u8> {
    let mut w = ByteWriter::with_header();
    w.put_str(SCALE_ROWS_TAG);
    w.put_usize(rows.len());
    for row in rows {
        w.put_usize(row.vms);
        w.put_usize(row.servers);
        w.put_usize(row.shards);
        w.put_u64(row.events);
        w.put_f64(row.wall_clock_secs);
        w.put_f64(row.events_per_sec);
        w.put_bool(row.peak_rss_mib.is_some());
        if let Some(mib) = row.peak_rss_mib {
            w.put_f64(mib);
        }
        w.put_bool(row.parity);
    }
    w.into_bytes()
}

/// Rebuild sweep rows from [`rows_to_bytes`] bytes.
pub fn rows_from_bytes(bytes: &[u8]) -> CheckpointResult<Vec<ScaleRow>> {
    let mut r = ByteReader::with_header(bytes)?;
    let tag = r.get_str()?;
    if tag != SCALE_ROWS_TAG {
        return Err(CheckpointError::Corrupt(format!(
            "not a fig_scale row file (tag `{tag}`)"
        )));
    }
    let len = r.get_usize()?;
    let mut rows = Vec::with_capacity(len.min(1024));
    for _ in 0..len {
        rows.push(ScaleRow {
            vms: r.get_usize()?,
            servers: r.get_usize()?,
            shards: r.get_usize()?,
            events: r.get_u64()?,
            wall_clock_secs: r.get_f64()?,
            events_per_sec: r.get_f64()?,
            peak_rss_mib: if r.get_bool()? {
                Some(r.get_f64()?)
            } else {
                None
            },
            parity: r.get_bool()?,
        });
    }
    r.finish()?;
    Ok(rows)
}

/// Discriminator string of the resumable-sweep state file.
const SCALE_ROWS_TAG: &str = "fig-scale-rows";

/// The sweep as a printable table.
pub fn scale_sweep_table(scale: Scale) -> Table {
    table_from_rows(&scale_sweep(scale))
}

/// Render already-measured sweep rows as the `fig_scale` table. Split
/// from [`scale_sweep_table`] so the binary can inspect the rows'
/// parity flags and fail (non-zero exit) on divergence instead of only
/// printing `DIVERGED` — CI runs the quick sweep as a smoke step and
/// must go red when the sharded engine stops matching the sequential
/// baseline at experiment scale.
pub fn table_from_rows(rows: &[ScaleRow]) -> Table {
    let mut table = Table::new(
        "Engine scaling: cluster size x shard count under spot-market reclamation",
        &[
            "VMs",
            "servers",
            "shards",
            "events",
            "wall-clock",
            "events/s",
            "peak RSS MiB",
            "parity",
        ],
    );
    let mut tally = RuntimeTally::default();
    for row in rows {
        tally.add(deflate_cluster::metrics::RunStats {
            wall_clock_secs: row.wall_clock_secs,
            events_processed: row.events,
            shards: row.shards,
        });
        table.row(&[
            row.vms.to_string(),
            row.servers.to_string(),
            row.shards.to_string(),
            row.events.to_string(),
            secs(row.wall_clock_secs),
            format!("{:.0}", row.events_per_sec),
            row.peak_rss_mib
                .map_or_else(|| "n/a".to_string(), |mib| format!("{mib:.0}")),
            if row.parity { "ok" } else { "DIVERGED" }.to_string(),
        ]);
    }
    table.set_footer(tally.footer());
    table
}

/// The process's peak resident-set size in MiB — the shared
/// `deflate-telemetry` reader, which (unlike the original local copy)
/// degrades to `None` on a missing, unparseable, or zero `VmHWM` rather
/// than reporting a bogus value.
pub use deflate_telemetry::peak_rss_mib;

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature sweep (not the CI smoke — that runs the real quick
    /// preset as its own workflow step) checking the row structure and the
    /// cross-shard parity digest end to end.
    #[test]
    fn mini_sweep_rows_are_consistent_and_parity_holds() {
        let workload = scale_workload(Scale::Quick, 400);
        let (sequential, servers) =
            run_scale_cell(&workload, Scale::Quick, ShardConfig::sequential());
        let (sharded, servers_2) =
            run_scale_cell(&workload, Scale::Quick, ShardConfig::with_shards(2));
        assert_eq!(servers, servers_2);
        assert!(servers > 0);
        assert!(sequential.runtime.events_processed > 2 * 400);
        assert_eq!(sequential, sharded, "2-shard run diverged");
        assert_eq!(
            sequential.transient.reclaim_events,
            sharded.transient.reclaim_events
        );
        assert!(
            sequential.transient.reclaim_events > 0,
            "spot-market must reclaim"
        );
    }

    #[test]
    fn shard_count_override_parses() {
        // No env manipulation (tests run in parallel): exercise the preset
        // path only.
        let counts = Scale::Quick.scale_sweep_shards();
        assert_eq!(counts, &[1, 2]);
        assert_eq!(Scale::Full.scale_sweep_shards(), &[1, 2, 4, 8]);
        assert!(Scale::Quick.scale_sweep_vms().contains(&100_000));
    }

    #[test]
    fn sweep_rows_round_trip_through_the_state_file_format() {
        let rows = vec![
            ScaleRow {
                vms: 10_000,
                servers: 321,
                shards: 1,
                events: 123_456,
                wall_clock_secs: 1.5,
                events_per_sec: 82_304.0,
                peak_rss_mib: Some(512.25),
                parity: true,
            },
            ScaleRow {
                vms: 100_000,
                servers: 3210,
                shards: 2,
                events: 1_234_567,
                wall_clock_secs: 12.5,
                events_per_sec: 98_765.36,
                peak_rss_mib: None,
                parity: false,
            },
        ];
        let bytes = rows_to_bytes(&rows);
        let restored = rows_from_bytes(&bytes).expect("own bytes must parse");
        assert_eq!(restored.len(), rows.len());
        for (a, b) in rows.iter().zip(&restored) {
            assert_eq!(
                (a.vms, a.servers, a.shards, a.events),
                (b.vms, b.servers, b.shards, b.events)
            );
            assert_eq!(a.wall_clock_secs.to_bits(), b.wall_clock_secs.to_bits());
            assert_eq!(a.events_per_sec.to_bits(), b.events_per_sec.to_bits());
            assert_eq!(
                a.peak_rss_mib.map(f64::to_bits),
                b.peak_rss_mib.map(f64::to_bits)
            );
            assert_eq!(a.parity, b.parity);
        }
        // Garbage and truncation are rejected, not misread.
        assert!(rows_from_bytes(b"not a state file").is_err());
        assert!(rows_from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    /// A sweep resumed over a complete row set measures nothing: no cell
    /// runs (the quick preset's smallest size is 10k VMs — a run here
    /// would dominate the unit-test wall clock) and the flush callback
    /// never fires.
    #[test]
    fn resume_over_complete_rows_skips_every_cell() {
        let scale = Scale::Quick;
        let mut done = Vec::new();
        for &vms in scale.scale_sweep_vms() {
            for &shards in scale.scale_sweep_shards() {
                done.push(ScaleRow {
                    vms,
                    servers: 1,
                    shards,
                    events: 1,
                    wall_clock_secs: 0.1,
                    events_per_sec: 10.0,
                    peak_rss_mib: None,
                    parity: true,
                });
            }
        }
        let expected = done.len();
        let mut flushes = 0;
        let rows = scale_sweep_with_resume(scale, done, |_| flushes += 1);
        assert_eq!(rows.len(), expected);
        assert_eq!(flushes, 0, "complete state must skip all measurement");
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        // On the Linux CI hosts this must produce a positive number; on
        // other platforms None is acceptable.
        if cfg!(target_os = "linux") {
            let rss = peak_rss_mib().expect("VmHWM available on Linux");
            assert!(rss > 1.0);
        }
    }
}

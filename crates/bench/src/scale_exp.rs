//! The engine-scaling experiment (`fig_scale`): cluster size under
//! spot-market reclamation.
//!
//! Every other experiment here asks what a *policy* does to the workload;
//! this one asks what the workload does to the **simulator** — the
//! question behind the roadmap's "million-VM traces, as fast as the
//! hardware allows". For each cluster size (10k → 1M VMs, synthetic
//! spot-market reclamation across every server) the sweep replays one
//! run and reports wall-clock time, delivered events, engine throughput
//! (events/s) and the process's peak RSS.
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
use deflate_core::placement::PartitionScheme;
use deflate_core::policy::ProportionalDeflation;
use deflate_hypervisor::domain::DeflationMechanism;
use deflate_hypervisor::migration::MigrationCostModel;
use deflate_telemetry::TelemetrySink;
use deflate_traces::azure::{AzureTraceConfig, AzureTraceGenerator};
use deflate_transient::signal::{CapacityProfile, CapacitySchedule, TransientConfig};
use std::sync::Arc;

/// One measured row of the scaling sweep.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// VMs in the replayed trace.
    pub vms: usize,
    /// Servers the cluster was sized to.
    pub servers: usize,
    /// Events the engine delivered (deterministic per size).
    pub events: u64,
    /// Wall-clock duration of the run, seconds.
    pub wall_clock_secs: f64,
    /// Engine throughput, events per wall-clock second.
    pub events_per_sec: f64,
    /// Process peak RSS after the run, MiB (`None` off Linux).
    pub peak_rss_mib: Option<f64>,
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

/// Run one cluster-size cell: deflation mode, first-fit placement,
/// spot-market reclamation on every server, default migration cost,
/// migrate-back, 15-minute utilisation ticks. Returns the full result so
/// callers can both report throughput and compare results.
pub fn run_scale_cell(workload: &[WorkloadVm], scale: Scale) -> (SimResult, usize) {
    run_scale_cell_with_telemetry(workload, scale, TelemetrySink::disabled())
}

/// [`run_scale_cell`] observed through a telemetry sink — the engine run
/// behind `fig_profile`'s per-phase table. The sink never changes the
/// result (the standing `deflate-telemetry` contract).
pub fn run_scale_cell_with_telemetry(
    workload: &[WorkloadVm],
    scale: Scale,
    telemetry: TelemetrySink,
) -> (SimResult, usize) {
    run_scale_cell_configured(workload, scale, telemetry, AuditSpec::off())
}

/// [`run_scale_cell`] with the online invariant auditor on — the run
/// behind the auditor determinism pin (`tests/telemetry_determinism.rs`):
/// every checker is strictly read-only, so the result must stay
/// bit-identical to the unaudited baseline, or the run panics on the
/// first violated invariant.
pub fn run_scale_cell_audited(
    workload: &[WorkloadVm],
    scale: Scale,
    audit: AuditSpec,
) -> (SimResult, usize) {
    run_scale_cell_configured(workload, scale, TelemetrySink::disabled(), audit)
}

/// The fully-parameterised cell behind every `run_scale_cell*` variant.
pub fn run_scale_cell_configured(
    workload: &[WorkloadVm],
    scale: Scale,
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
    .with_telemetry(telemetry)
    .with_audit(audit)
    .run(workload);
    (result, servers)
}

/// Run the full sweep: every cluster size of the scale preset, in the
/// preset's order.
pub fn scale_sweep(scale: Scale) -> Vec<ScaleRow> {
    scale
        .scale_sweep_vms()
        .iter()
        .map(|&vms| {
            let workload = scale_workload(scale, vms);
            let (result, servers) = run_scale_cell(&workload, scale);
            ScaleRow {
                vms,
                servers,
                events: result.runtime.events_processed,
                wall_clock_secs: result.runtime.wall_clock_secs,
                events_per_sec: result.runtime.events_per_sec(),
                peak_rss_mib: peak_rss_mib(),
            }
        })
        .collect()
}

/// The sweep as the printable `fig_scale` table.
pub fn scale_sweep_table(scale: Scale) -> Table {
    let mut table = Table::new(
        "Engine scaling: cluster size under spot-market reclamation",
        &[
            "VMs",
            "servers",
            "events",
            "wall-clock",
            "events/s",
            "peak RSS MiB",
        ],
    );
    let mut tally = RuntimeTally::default();
    for row in scale_sweep(scale) {
        tally.add(deflate_cluster::metrics::RunStats {
            wall_clock_secs: row.wall_clock_secs,
            events_processed: row.events,
        });
        table.row(&[
            row.vms.to_string(),
            row.servers.to_string(),
            row.events.to_string(),
            secs(row.wall_clock_secs),
            format!("{:.0}", row.events_per_sec),
            row.peak_rss_mib
                .map_or_else(|| "n/a".to_string(), |mib| format!("{mib:.0}")),
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

    /// A miniature cell (not the CI smoke — that runs the real quick
    /// preset as its own workflow step) checking the cell end to end.
    #[test]
    fn mini_cell_reclaims_and_is_deterministic() {
        let workload = scale_workload(Scale::Quick, 400);
        let (first, servers) = run_scale_cell(&workload, Scale::Quick);
        let (again, servers_again) = run_scale_cell(&workload, Scale::Quick);
        assert_eq!(servers, servers_again);
        assert!(servers > 0);
        assert!(first.runtime.events_processed > 2 * 400);
        assert_eq!(first, again, "rerun diverged");
        assert!(
            first.transient.reclaim_events > 0,
            "spot-market must reclaim"
        );
        assert!(Scale::Quick.scale_sweep_vms().contains(&100_000));
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

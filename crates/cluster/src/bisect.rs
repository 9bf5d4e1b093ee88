//! Checkpoint-bisection divergence diagnosis — the post-mortem half of
//! the audit observatory.
//!
//! Two runs that are *expected* bit-identical (telemetry on vs off,
//! auditor on vs off, or a refactor against its baseline) sometimes are
//! not. Eyeballing two multi-megabyte final states tells you *that* they
//! differ, not *where the run first went wrong*. This module answers the
//! second question with the checkpoint machinery itself:
//!
//! 1. [`bisect_divergence`] binary-searches simulated time, advancing both
//!    runs from the last known-identical snapshot via
//!    [`ClusterSimulation::resume_until`], until the first divergent
//!    window is narrower than the requested resolution;
//! 2. [`first_divergent_field`] then restores the two snapshots with the
//!    field recorder on ([`ClusterSimulation::snapshot_fields`]) and names
//!    the field holding the first differing byte — e.g.
//!    `placement_index.dirty_len` or
//!    `manager.server[3].domain[17].guest.rss_mb`.
//!
//! Because every probe resumes from the known-identical prefix, a bisection
//! over a horizon `H` at resolution `r` costs `O(log2(H / r))` partial
//! replays instead of the `O(H / r)` full replays of a linear scan.

use deflate_core::checkpoint::{ByteReader, CheckpointError, CheckpointResult};

use crate::sim::ClusterSimulation;
use crate::spec::WorkloadVm;

/// The boundary used for the pre-first-event snapshot: no event fires at a
/// negative time, so `checkpoint(BOOT_SECS)` serializes freshly booted
/// state.
const BOOT_SECS: f64 = -1.0;

/// The first field, in snapshot-layout order, whose bits differ between
/// two snapshots taken at the same boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotDiff {
    /// Dotted path of the field in the snapshot layout, e.g.
    /// `placement_index.dirty_len` or `manager.in_flight[2].finish_secs`.
    pub field: String,
    /// The first run's value, rendered.
    pub a: String,
    /// The second run's value, rendered.
    pub b: String,
}

impl std::fmt::Display for SnapshotDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "field `{}` differs: a={}, b={}",
            self.field, self.a, self.b
        )
    }
}

/// Where a bisected pair of runs first stopped being bit-identical.
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    /// Half-open window `(lo, hi]` of simulated seconds: the runs are
    /// bit-identical at `lo` and first observed divergent at `hi`. When a
    /// pair diverges before the first event (mismatched configuration),
    /// both bounds are the boot boundary.
    pub window_secs: (f64, f64),
    /// Events processed at the divergent boundary by each run — brackets
    /// the ordinal of the first divergent event.
    pub events_processed: (u64, u64),
    /// The first differing field of the divergent snapshot pair.
    pub diff: SnapshotDiff,
    /// Checkpoint/resume probes spent (two per bisection step).
    pub probes: usize,
}

impl std::fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "first divergence in window ({:.3}s, {:.3}s] after events (a: {}, b: {}): {} \
             [{} probes]",
            self.window_secs.0,
            self.window_secs.1,
            self.events_processed.0,
            self.events_processed.1,
            self.diff,
            self.probes
        )
    }
}

/// Binary-search the first divergent snapshot window between two runs of
/// the same workload under configurations expected bit-identical.
///
/// Both simulations replay `workload`; snapshots are compared at matched
/// boundaries. Returns `Ok(None)` when the runs are bit-identical at
/// `horizon_secs` (which, by the checkpoint contract, means they never
/// diverged inside it). Otherwise narrows the divergence to a window no
/// wider than `resolution_secs` and names the first differing field.
///
/// Probes advance from the last known-identical snapshot via
/// [`ClusterSimulation::resume_until`], so each bisection step costs one
/// partial replay per side, not a replay from time zero.
pub fn bisect_divergence(
    a: &ClusterSimulation,
    b: &ClusterSimulation,
    workload: &[WorkloadVm],
    horizon_secs: f64,
    resolution_secs: f64,
) -> CheckpointResult<Option<DivergenceReport>> {
    let resolution = resolution_secs.max(1e-9);
    let mut probes = 2;
    let end_a = a.checkpoint(workload, horizon_secs);
    let end_b = b.checkpoint(workload, horizon_secs);
    if end_a == end_b {
        return Ok(None);
    }

    // The runs differ somewhere in (boot, horizon]. Establish the boot
    // boundary; a mismatch there means the *configurations* disagree
    // (different cluster shape or event schedule), not the dynamics.
    probes += 2;
    let boot_a = a.checkpoint(workload, BOOT_SECS);
    let boot_b = b.checkpoint(workload, BOOT_SECS);
    if let Some(diff) = first_divergent_field(a, b, workload, &boot_a, &boot_b)? {
        return Ok(Some(DivergenceReport {
            window_secs: (BOOT_SECS, BOOT_SECS),
            events_processed: (events_processed_of(&boot_a)?, events_processed_of(&boot_b)?),
            diff,
            probes,
        }));
    }

    let mut lo = BOOT_SECS;
    let mut snap_lo = boot_a;
    let mut hi = horizon_secs;
    let (mut hi_a, mut hi_b) = (end_a, end_b);
    while hi - lo > resolution {
        let mid = lo + (hi - lo) / 2.0;
        if mid <= lo || mid >= hi {
            break; // f64 midpoints exhausted below the requested resolution
        }
        // The lo snapshots are bit-identical, so one buffer serves both
        // sides; each simulation resumes it under its own configuration.
        let mid_a = a.resume_until(workload, &snap_lo, mid)?;
        let mid_b = b.resume_until(workload, &snap_lo, mid)?;
        probes += 2;
        if mid_a == mid_b {
            lo = mid;
            snap_lo = mid_a;
        } else {
            hi = mid;
            hi_a = mid_a;
            hi_b = mid_b;
        }
    }

    let diff = first_divergent_field(a, b, workload, &hi_a, &hi_b)?
        .expect("bisection invariant: the hi boundary stays divergent");
    Ok(Some(DivergenceReport {
        window_secs: (lo, hi),
        events_processed: (events_processed_of(&hi_a)?, events_processed_of(&hi_b)?),
        diff,
        probes,
    }))
}

/// The engine's processed-event counter stored in a snapshot, without
/// restoring it.
fn events_processed_of(snapshot: &[u8]) -> CheckpointResult<u64> {
    let mut r = ByteReader::with_header(snapshot)?;
    r.get_f64()?; // at_secs
    r.get_usize()?; // workload length
    r.get_u64()
}

/// Name the field holding the first byte in which two snapshots of the
/// same workload differ, each restored under its own simulation, with
/// both values rendered.
///
/// Returns `Ok(None)` for byte-identical snapshots. Up to the first
/// differing byte both snapshots decode alike, so the field map of
/// whichever restores (`a` first) locates it. Errs on a bad header, or
/// when neither snapshot restores: corruption is a different failure
/// than divergence and must not be reported as a field.
pub fn first_divergent_field(
    sim_a: &ClusterSimulation,
    sim_b: &ClusterSimulation,
    workload: &[WorkloadVm],
    a: &[u8],
    b: &[u8],
) -> CheckpointResult<Option<SnapshotDiff>> {
    let Some(at) = a
        .iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .or((a.len() != b.len()).then(|| a.len().min(b.len())))
    else {
        return Ok(None);
    };
    ByteReader::with_header(a)?;
    ByteReader::with_header(b)?;
    let fields = sim_a
        .snapshot_fields(workload, a)
        .or_else(|err| sim_b.snapshot_fields(workload, b).map_err(|_| err))?;
    let Some(field) = fields.iter().find(|f| f.range.contains(&at)) else {
        // Every byte the restore decoded matches: one snapshot carries
        // bytes past the end of the other.
        return Ok(Some(SnapshotDiff {
            field: "trailing_bytes".to_string(),
            a: format!("{} left", a.len() - at),
            b: format!("{} left", b.len() - at),
        }));
    };
    let render = |bytes: &[u8]| {
        bytes
            .get(field.range.clone())
            .map(|v| field.kind.render(v))
            .ok_or(CheckpointError::Truncated)
    };
    Ok(Some(SnapshotDiff {
        field: field.path.clone(),
        a: render(a)?,
        b: render(b)?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{ClusterConfig, ReclamationMode};
    use crate::spec::{
        paper_server_capacity, servers_for_transient_overcommitment, workload_from_azure,
        MinAllocationRule,
    };
    use deflate_core::policy::TransferPolicy;
    use deflate_hypervisor::migration::MigrationCostModel;
    use deflate_traces::azure::{AzureTraceConfig, AzureTraceGenerator};
    use deflate_transient::signal::{CapacityProfile, CapacitySchedule, TransientConfig};

    const HORIZON_SECS: f64 = 4.0 * 3600.0;

    fn scenario_workload() -> Vec<WorkloadVm> {
        let traces = AzureTraceGenerator::generate(&AzureTraceConfig {
            num_vms: 60,
            duration_hours: 4.0,
            seed: 11,
            ..Default::default()
        });
        workload_from_azure(&traces, MinAllocationRule::None)
    }

    /// The migration-only baseline on spot-market transient servers with a
    /// one-link bandwidth budget and a tight deadline: every reclamation
    /// queues a burst of transfers behind contended slots, so the transfer
    /// policy genuinely reorders the run.
    fn scenario_sim(
        servers: usize,
        schedule: CapacitySchedule,
        policy: TransferPolicy,
    ) -> ClusterSimulation {
        ClusterSimulation::new(
            ClusterConfig::paper_default(servers),
            ReclamationMode::MigrationOnly,
        )
        .with_capacity_schedule(schedule)
        .with_migrate_back(true)
        .with_migration_cost(
            MigrationCostModel::lan_default()
                .with_budget_mbps(1250.0)
                .with_deadline_secs(30.0),
        )
        .with_transfer_policy(policy)
    }

    fn scenario_cluster(workload: &[WorkloadVm]) -> (usize, CapacitySchedule) {
        let profile = CapacityProfile::spot_market_default();
        let servers = servers_for_transient_overcommitment(
            workload,
            paper_server_capacity(),
            0.0,
            profile.mean_availability(),
        );
        let schedule = CapacitySchedule::generate(&TransientConfig {
            num_servers: servers,
            transient_fraction: 1.0,
            duration_secs: HORIZON_SECS,
            profile,
            seed: 11,
        });
        (servers, schedule)
    }

    #[test]
    fn identical_configs_report_no_divergence() {
        let workload = scenario_workload();
        let (servers, schedule) = scenario_cluster(&workload);
        let a = scenario_sim(servers, schedule.clone(), TransferPolicy::fifo());
        let b = scenario_sim(servers, schedule, TransferPolicy::fifo());
        let report = bisect_divergence(&a, &b, &workload, HORIZON_SECS, 60.0).unwrap();
        assert!(
            report.is_none(),
            "identical configs must not diverge: {report:?}"
        );
    }

    // The checked-in localization scenario: two runs differing only in
    // transfer policy (an injected single-knob divergence). The bisection
    // must pin the first divergent window exactly — verified against
    // from-scratch checkpoints at both window bounds.
    #[test]
    fn injected_transfer_policy_divergence_is_localized() {
        let workload = scenario_workload();
        let (servers, schedule) = scenario_cluster(&workload);
        let a = scenario_sim(servers, schedule.clone(), TransferPolicy::fifo());
        let b = scenario_sim(servers, schedule, TransferPolicy::smallest_first());
        let resolution = 60.0;
        let report = bisect_divergence(&a, &b, &workload, HORIZON_SECS, resolution)
            .unwrap()
            .expect("different transfer policies must diverge in this scenario");

        let (lo, hi) = report.window_secs;
        assert!(
            hi - lo <= resolution,
            "window wider than resolution: {report}"
        );
        assert!(!report.diff.field.is_empty());
        // Ground truth by independent from-scratch checkpoints: identical
        // at the window's lower bound, divergent at its upper bound.
        assert!(
            a.checkpoint(&workload, lo) == b.checkpoint(&workload, lo),
            "runs must still be bit-identical at the window's lower bound"
        );
        let (hi_a, hi_b) = (a.checkpoint(&workload, hi), b.checkpoint(&workload, hi));
        assert!(
            first_divergent_field(&a, &b, &workload, &hi_a, &hi_b)
                .unwrap()
                .is_some(),
            "runs must be divergent at the window's upper bound"
        );
    }

    // The recorded field map is the layout: its ranges tile every byte
    // after the header exactly once, and a byte flipped inside any field
    // is named as that field.
    #[test]
    fn recorded_fields_tile_the_snapshot_and_name_every_flipped_byte() {
        let workload = scenario_workload();
        let (servers, schedule) = scenario_cluster(&workload);
        let sim = scenario_sim(servers, schedule, TransferPolicy::fifo());
        let snapshot = sim.checkpoint(&workload, HORIZON_SECS / 2.0);
        let fields = sim.snapshot_fields(&workload, &snapshot).unwrap();
        let mut end = 8;
        for field in &fields {
            assert_eq!(field.range.start, end, "gap or overlap at {}", field.path);
            assert!(!field.range.is_empty(), "{} is empty", field.path);
            end = field.range.end;
        }
        assert_eq!(end, snapshot.len(), "the map stops short of the end");
        assert!(fields.iter().any(|f| f.path.starts_with("manager.server[")));
        assert!(fields.iter().any(|f| f.path.starts_with("record[")));

        let mut mutated = snapshot.clone();
        for field in &fields {
            let at = field.range.start;
            mutated[at] ^= 0x01;
            let diff = first_divergent_field(&sim, &sim, &workload, &snapshot, &mutated)
                .unwrap()
                .expect("a flipped byte must be named");
            assert_eq!(diff.field, field.path, "byte {at}");
            assert_ne!(diff.a, diff.b, "{}", field.path);
            mutated[at] ^= 0x01;
        }
        assert_eq!(
            first_divergent_field(&sim, &sim, &workload, &snapshot, &mutated).unwrap(),
            None
        );
    }

    // A bit flipped inside a record's usage summary is named down to the
    // accumulator.
    #[test]
    fn flipped_usage_bit_names_the_summary_field() {
        let workload = scenario_workload();
        let (servers, schedule) = scenario_cluster(&workload);
        let sim = scenario_sim(servers, schedule, TransferPolicy::fifo());
        let snapshot = sim.checkpoint(&workload, HORIZON_SECS / 2.0);
        let path = format!("record[{}].usage.demanded", workload.len() - 1);
        let fields = sim.snapshot_fields(&workload, &snapshot).unwrap();
        let field = fields.iter().find(|f| f.path == path).unwrap();
        let mut mutated = snapshot.clone();
        mutated[field.range.start] ^= 0x01;
        let diff = first_divergent_field(&sim, &sim, &workload, &snapshot, &mutated)
            .unwrap()
            .expect("a flipped bit must be named");
        assert_eq!(diff.field, path);
    }

    #[test]
    fn divergent_snapshot_lengths_name_the_short_side() {
        let workload = scenario_workload();
        let (servers, schedule) = scenario_cluster(&workload);
        let sim = scenario_sim(servers, schedule, TransferPolicy::fifo());
        let early = sim.checkpoint(&workload, 600.0);
        let late = sim.checkpoint(&workload, 1800.0);
        let diff = first_divergent_field(&sim, &sim, &workload, &early, &late)
            .unwrap()
            .expect("snapshots at different boundaries differ");
        // The very first field is the boundary time itself.
        assert_eq!(diff.field, "at_secs");
        // Bytes past the end of a restorable snapshot are trailing.
        let mut padded = early.clone();
        padded.push(0);
        let diff = first_divergent_field(&sim, &sim, &workload, &early, &padded)
            .unwrap()
            .expect("a longer snapshot differs");
        assert_eq!(
            (diff.field.as_str(), diff.a.as_str(), diff.b.as_str()),
            ("trailing_bytes", "0 left", "1 left")
        );
    }
}

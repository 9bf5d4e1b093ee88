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
//! 2. [`first_divergent_field`] then walks the two snapshots in lockstep
//!    along the exact [`write_snapshot`](crate::manager::ClusterManager::write_snapshot)
//!    byte layout and names the first field whose bits differ — e.g.
//!    `placement_index.dirty_len` or
//!    `manager.server[3].domain[17].guest.rss_mb`.
//!
//! Because every probe resumes from the known-identical prefix, a bisection
//! over a horizon `H` at resolution `r` costs `O(log2(H / r))` partial
//! replays instead of the `O(H / r)` full replays of a linear scan.
//!
//! The walk mirrors `serialize_state` field for field; the layout is
//! golden-pinned by `tests/checkpoint_restore.rs`, and
//! `snapshot_walk_consumes_every_byte` below fails if the two ever drift.

use deflate_core::checkpoint::{ByteReader, CheckpointError, CheckpointResult};
use deflate_core::resources::ResourceKind;

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
    if first_divergent_field(&end_a, &end_b)?.is_none() {
        return Ok(None);
    }

    // The runs differ somewhere in (boot, horizon]. Establish the boot
    // boundary; a mismatch there means the *configurations* disagree
    // (different cluster shape or event schedule), not the dynamics.
    probes += 2;
    let boot_a = a.checkpoint(workload, BOOT_SECS);
    let boot_b = b.checkpoint(workload, BOOT_SECS);
    if let Some(diff) = first_divergent_field(&boot_a, &boot_b)? {
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
        if first_divergent_field(&mid_a, &mid_b)?.is_none() {
            lo = mid;
            snap_lo = mid_a;
        } else {
            hi = mid;
            hi_a = mid_a;
            hi_b = mid_b;
        }
    }

    let diff = first_divergent_field(&hi_a, &hi_b)?
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

/// Walk two snapshots in lockstep along the engine's snapshot layout and
/// name the first field whose bits differ.
///
/// Returns `Ok(None)` for byte-identical snapshots. Errs when either
/// buffer is corrupt (bad header, truncated, unknown discriminant) —
/// corruption is a different failure than divergence and must not be
/// reported as a field.
pub fn first_divergent_field(a: &[u8], b: &[u8]) -> CheckpointResult<Option<SnapshotDiff>> {
    if a == b {
        return Ok(None);
    }
    let mut l = Lockstep {
        a: ByteReader::with_header(a)?,
        b: ByteReader::with_header(b)?,
    };
    match walk_snapshot(&mut l) {
        Ok(()) => {
            // Bytes differ but every field matched: one buffer carries
            // trailing bytes the layout does not describe.
            Ok(Some(SnapshotDiff {
                field: "trailing_bytes".to_string(),
                a: format!("{} left", l.a.remaining()),
                b: format!("{} left", l.b.remaining()),
            }))
        }
        Err(Stop::Diverged(diff)) => Ok(Some(*diff)),
        Err(Stop::Corrupt(e)) => Err(e),
    }
}

/// Why a lockstep walk stopped early.
enum Stop {
    Diverged(Box<SnapshotDiff>),
    Corrupt(CheckpointError),
}

impl From<CheckpointError> for Stop {
    fn from(e: CheckpointError) -> Self {
        Stop::Corrupt(e)
    }
}

type Step<T> = Result<T, Stop>;

/// Two [`ByteReader`]s advanced field by field; the first mismatching
/// primitive aborts the walk with its dotted field name.
struct Lockstep<'s> {
    a: ByteReader<'s>,
    b: ByteReader<'s>,
}

impl Lockstep<'_> {
    fn diverged<T: std::fmt::Display>(name: impl FnOnce() -> String, a: T, b: T) -> Stop {
        Stop::Diverged(Box::new(SnapshotDiff {
            field: name(),
            a: a.to_string(),
            b: b.to_string(),
        }))
    }

    fn u8(&mut self, name: impl FnOnce() -> String) -> Step<u8> {
        let (a, b) = (self.a.get_u8()?, self.b.get_u8()?);
        if a != b {
            return Err(Self::diverged(name, a, b));
        }
        Ok(a)
    }

    fn bool(&mut self, name: impl FnOnce() -> String) -> Step<bool> {
        let (a, b) = (self.a.get_bool()?, self.b.get_bool()?);
        if a != b {
            return Err(Self::diverged(name, a, b));
        }
        Ok(a)
    }

    fn u32(&mut self, name: impl FnOnce() -> String) -> Step<u32> {
        let (a, b) = (self.a.get_u32()?, self.b.get_u32()?);
        if a != b {
            return Err(Self::diverged(name, a, b));
        }
        Ok(a)
    }

    fn u64(&mut self, name: impl FnOnce() -> String) -> Step<u64> {
        let (a, b) = (self.a.get_u64()?, self.b.get_u64()?);
        if a != b {
            return Err(Self::diverged(name, a, b));
        }
        Ok(a)
    }

    fn usize(&mut self, name: impl FnOnce() -> String) -> Step<usize> {
        let (a, b) = (self.a.get_usize()?, self.b.get_usize()?);
        if a != b {
            return Err(Self::diverged(name, a, b));
        }
        Ok(a)
    }

    /// Bit-exact comparison: the snapshot contract is bit-identity, so
    /// `-0.0` vs `0.0` or differing NaN payloads are real divergences.
    fn f64(&mut self, name: impl FnOnce() -> String) -> Step<f64> {
        let (a, b) = (self.a.get_f64()?, self.b.get_f64()?);
        if a.to_bits() != b.to_bits() {
            return Err(Self::diverged(name, a, b));
        }
        Ok(a)
    }

    fn f64_slice(&mut self, name: impl Fn() -> String) -> Step<()> {
        let (a, b) = (self.a.get_f64_vec()?, self.b.get_f64_vec()?);
        if a.len() != b.len() {
            return Err(Self::diverged(
                || format!("{}.len", name()),
                a.len(),
                b.len(),
            ));
        }
        for (i, (va, vb)) in a.iter().zip(&b).enumerate() {
            if va.to_bits() != vb.to_bits() {
                return Err(Self::diverged(|| format!("{}[{i}]", name()), va, vb));
            }
        }
        Ok(())
    }

    fn resources(&mut self, name: impl Fn() -> String) -> Step<()> {
        let (a, b) = (self.a.get_resources()?, self.b.get_resources()?);
        for kind in ResourceKind::ALL {
            if a[kind].to_bits() != b[kind].to_bits() {
                return Err(Self::diverged(
                    || format!("{}.{kind}", name()),
                    a[kind],
                    b[kind],
                ));
            }
        }
        Ok(())
    }

    fn vm_spec(&mut self, name: impl Fn() -> String) -> Step<()> {
        let (a, b) = (self.a.get_vm_spec()?, self.b.get_vm_spec()?);
        if a != b {
            return Err(Self::diverged(name, format!("{a:?}"), format!("{b:?}")));
        }
        Ok(())
    }
}

/// Mirror of `ClusterSimulation::serialize_state`.
fn walk_snapshot(l: &mut Lockstep<'_>) -> Step<()> {
    l.f64(|| "at_secs".into())?;
    let workload_len = l.usize(|| "workload_len".into())?;
    l.u64(|| "events_processed".into())?;
    let queued = l.usize(|| "queue.len".into())?;
    for i in 0..queued {
        walk_queued_event(l, i)?;
    }
    walk_manager(l)?;
    if l.bool(|| "autoscaler.present".into())? {
        walk_autoscaler(l)?;
    }
    for i in 0..workload_len {
        walk_vm_record(l, i)?;
    }
    let migrations = l.usize(|| "migration_log.len".into())?;
    for i in 0..migrations {
        let p = move || format!("migration_log[{i}]");
        l.f64(|| format!("{}.time_secs", p()))?;
        l.u64(|| format!("{}.vm", p()))?;
        l.u32(|| format!("{}.from", p()))?;
        l.u32(|| format!("{}.to", p()))?;
        l.f64(|| format!("{}.duration_secs", p()))?;
        l.f64(|| format!("{}.volume_mb", p()))?;
        l.bool(|| format!("{}.back", p()))?;
    }
    let samples = l.usize(|| "utilization.len".into())?;
    for i in 0..samples {
        l.f64(|| format!("utilization[{i}].time_secs"))?;
        l.f64(|| format!("utilization[{i}].value"))?;
    }
    Ok(())
}

/// Mirror of `SimEvent::write_snapshot` prefixed with its delivery time.
fn walk_queued_event(l: &mut Lockstep<'_>, i: usize) -> Step<()> {
    let p = move || format!("queue[{i}]");
    l.f64(|| format!("{}.time", p()))?;
    let kind = l.u8(|| format!("{}.kind", p()))?;
    match kind {
        // Departure / Arrival
        0 | 4 => {
            l.usize(|| format!("{}.vm_index", p()))?;
        }
        // MigrationComplete
        1 => {
            l.u64(|| format!("{}.migration", p()))?;
        }
        // CapacityRestore / CapacityReclaim
        2 | 3 => {
            l.u32(|| format!("{}.server", p()))?;
            l.f64(|| format!("{}.available_fraction", p()))?;
        }
        // ScaleOut / ScaleIn
        5 | 6 => {
            l.u32(|| format!("{}.app", p()))?;
        }
        // UtilizationTick carries no payload
        7 => {}
        other => {
            return Err(Stop::Corrupt(CheckpointError::Corrupt(format!(
                "unknown SimEvent discriminant {other} in queue[{i}]"
            ))))
        }
    }
    Ok(())
}

/// Mirror of `ClusterManager::write_snapshot`.
fn walk_manager(l: &mut Lockstep<'_>) -> Step<()> {
    let servers = l.usize(|| "manager.servers.len".into())?;
    for s in 0..servers {
        l.resources(move || format!("manager.server[{s}].capacity"))?;
        let domains = l.usize(move || format!("manager.server[{s}].domains.len"))?;
        for d in 0..domains {
            walk_domain(l, s, d)?;
        }
    }
    for map in ["vm_location", "migration_origin"] {
        let entries = l.usize(move || format!("manager.{map}.len"))?;
        for i in 0..entries {
            l.u64(move || format!("manager.{map}[{i}].vm"))?;
            l.u64(move || format!("manager.{map}[{i}].server_index"))?;
        }
    }
    let flights = l.usize(|| "manager.in_flight.len".into())?;
    for i in 0..flights {
        let p = move || format!("manager.in_flight[{i}]");
        l.u64(|| format!("{}.id", p()))?;
        l.u64(|| format!("{}.vm", p()))?;
        l.usize(|| format!("{}.source", p()))?;
        l.usize(|| format!("{}.dest", p()))?;
        l.f64(|| format!("{}.start_secs", p()))?;
        l.f64(|| format!("{}.finish_secs", p()))?;
        l.f64(|| format!("{}.deadline_secs", p()))?;
        l.f64(|| format!("{}.volume_mb", p()))?;
        l.bool(|| format!("{}.back", p()))?;
    }
    l.u64(|| "manager.next_migration_id".into())?;
    let ledgers = l.usize(|| "scheduler.ledgers.len".into())?;
    for i in 0..ledgers {
        l.f64_slice(move || format!("scheduler.ledger[{i}]"))?;
    }
    l.usize(|| "scheduler.booked".into())?;
    l.usize(|| "scheduler.rejected".into())?;
    l.f64(|| "scheduler.total_queue_wait_secs".into())?;
    for counter in [
        "admitted_free",
        "admitted_with_deflation",
        "admitted_with_preemption",
        "rejected",
        "preempted_vms",
    ] {
        l.usize(move || format!("manager.admission.{counter}"))?;
    }
    for counter in [
        "reclaim_events",
        "restore_events",
        "absorbed_by_deflation",
        "migrations",
        "migrations_back",
        "migration_aborts",
        "migration_rejections",
        "reclamation_victims",
    ] {
        l.usize(move || format!("manager.transient.{counter}"))?;
    }
    let dirty = l.usize(|| "placement_index.dirty_len".into())?;
    for i in 0..dirty {
        l.usize(move || format!("placement_index.dirty[{i}]"))?;
    }
    Ok(())
}

/// Mirror of `Domain::write_snapshot` (spec, mechanism, guest, cgroups,
/// history, parked flag).
fn walk_domain(l: &mut Lockstep<'_>, s: usize, d: usize) -> Step<()> {
    let p = move || format!("manager.server[{s}].domain[{d}]");
    l.vm_spec(|| format!("{}.vm_spec", p()))?;
    l.u8(|| format!("{}.mechanism", p()))?;
    l.u32(|| format!("{}.guest.boot_vcpus", p()))?;
    l.u32(|| format!("{}.guest.online_vcpus", p()))?;
    l.f64(|| format!("{}.guest.boot_memory_mb", p()))?;
    l.f64(|| format!("{}.guest.plugged_memory_mb", p()))?;
    l.f64(|| format!("{}.guest.rss_mb", p()))?;
    l.f64(|| format!("{}.guest.page_cache_mb", p()))?;
    l.f64(|| format!("{}.guest.cpu_busy_fraction", p()))?;
    l.resources(|| format!("{}.usages", p()))?;
    l.resources(|| format!("{}.limits", p()))?;
    l.f64_slice(|| format!("{}.cpu_util_history", p()))?;
    l.bool(|| format!("{}.parked", p()))?;
    Ok(())
}

/// Mirror of `Autoscaler::write_snapshot`.
fn walk_autoscaler(l: &mut Lockstep<'_>) -> Step<()> {
    let apps = l.usize(|| "autoscaler.apps.len".into())?;
    for a in 0..apps {
        let p = move || format!("autoscaler.app[{a}]");
        let members = l.usize(|| format!("{}.members.len", p()))?;
        for m in 0..members {
            l.u64(|| format!("{}.member[{m}].vm", p()))?;
            l.bool(|| format!("{}.member[{m}].parked", p()))?;
            l.f64(|| format!("{}.member[{m}].serving_from", p()))?;
        }
        l.u64(|| format!("{}.launched", p()))?;
        l.f64(|| format!("{}.cooldown_until", p()))?;
    }
    for counter in [
        "scale_out_actions",
        "scale_in_actions",
        "launches",
        "launch_failures",
        "reinflations",
        "parks",
        "retirements",
        "replicas_lost",
        "ticks",
        "overload_ticks",
    ] {
        l.usize(move || format!("autoscaler.stats.{counter}"))?;
    }
    l.f64(|| "autoscaler.stats.setpoint_error_sum".into())?;
    l.f64_slice(|| "autoscaler.stats.latency.response_times".into())?;
    l.usize(|| "autoscaler.stats.latency.dropped".into())?;
    l.usize(|| "autoscaler.stats.final_active".into())?;
    l.usize(|| "autoscaler.stats.final_parked".into())?;
    Ok(())
}

/// Mirror of the per-VM record block of `serialize_state`.
fn walk_vm_record(l: &mut Lockstep<'_>, i: usize) -> Step<()> {
    let p = move || format!("record[{i}]");
    l.bool(|| format!("{}.running", p()))?;
    let outcome = l.u8(|| format!("{}.outcome", p()))?;
    match outcome {
        // Completed / Rejected carry no payload
        0 | 1 => {}
        // Preempted / Evicted carry their timestamp
        2 | 3 => {
            l.f64(|| format!("{}.outcome.at_secs", p()))?;
        }
        other => {
            return Err(Stop::Corrupt(CheckpointError::Corrupt(format!(
                "unknown VmOutcome discriminant {other} in record[{i}]"
            ))))
        }
    }
    // The usage summary's frame: an entry count, then its fields.
    l.usize(|| format!("{}.usage.len", p()))?;
    l.u32(|| format!("{}.usage.next_sample", p()))?;
    l.u32(|| format!("{}.usage.flags", p()))?;
    for field in [
        "demanded",
        "lost",
        "weighted",
        "last_change_secs",
        "last_fraction",
    ] {
        l.f64(move || format!("{}.usage.{field}", p()))?;
    }
    Ok(())
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
        assert_eq!(
            first_divergent_field(&a.checkpoint(&workload, lo), &b.checkpoint(&workload, lo))
                .unwrap(),
            None,
            "runs must still be bit-identical at the window's lower bound"
        );
        assert!(
            first_divergent_field(&a.checkpoint(&workload, hi), &b.checkpoint(&workload, hi))
                .unwrap()
                .is_some(),
            "runs must be divergent at the window's upper bound"
        );
    }

    // The field walk must describe every byte the engine serializes: a
    // single bit flipped anywhere in a snapshot yields a named field, and
    // untouched snapshots walk clean.
    #[test]
    fn snapshot_walk_consumes_every_byte() {
        let workload = scenario_workload();
        let (servers, schedule) = scenario_cluster(&workload);
        let sim = scenario_sim(servers, schedule, TransferPolicy::fifo());
        let snapshot = sim.checkpoint(&workload, HORIZON_SECS / 2.0);
        assert_eq!(first_divergent_field(&snapshot, &snapshot).unwrap(), None);

        // Flip the last byte: the walk must still reach and name a field
        // (the final byte belongs to the utilization block or the empty
        // trailing length), not fall off the layout.
        let mut mutated = snapshot.clone();
        *mutated.last_mut().unwrap() ^= 0x01;
        let diff = first_divergent_field(&snapshot, &mutated)
            .unwrap()
            .expect("a flipped bit must be named");
        assert!(
            diff.field.starts_with("utilization"),
            "last byte belongs to the utilization block, got {}",
            diff.field
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
        let u64_at = |at: usize| u64::from_le_bytes(snapshot[at..at + 8].try_into().unwrap());
        // The snapshot ends with the migration log (a count, then 41 bytes
        // per entry) and the utilisation series, empty without ticks.
        let end = snapshot.len() - 8;
        assert_eq!(u64_at(end), 0);
        let log_at = (0..)
            .map(|m| end - 8 - 41 * m)
            .zip(0u64..)
            .find(|&(at, m)| u64_at(at) == m)
            .map(|(at, _)| at)
            .unwrap();
        // The last record's summary ends right before the log, with
        // demanded, lost, weighted, last_change_secs and last_fraction.
        let mut mutated = snapshot.clone();
        mutated[log_at - 40] ^= 0x01;
        let diff = first_divergent_field(&snapshot, &mutated)
            .unwrap()
            .expect("a flipped bit must be named");
        assert_eq!(
            diff.field,
            format!("record[{}].usage.demanded", workload.len() - 1)
        );
    }

    #[test]
    fn divergent_snapshot_lengths_name_the_short_side() {
        let workload = scenario_workload();
        let (servers, schedule) = scenario_cluster(&workload);
        let sim = scenario_sim(servers, schedule, TransferPolicy::fifo());
        let early = sim.checkpoint(&workload, 600.0);
        let late = sim.checkpoint(&workload, 1800.0);
        let diff = first_divergent_field(&early, &late)
            .unwrap()
            .expect("snapshots at different boundaries differ");
        // The very first field is the boundary time itself.
        assert_eq!(diff.field, "at_secs");
    }
}

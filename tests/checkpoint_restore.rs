//! The checkpoint/restore battery: the engine's snapshot contract pinned
//! end to end on the real experiment configurations.
//!
//! The contract (`ClusterSimulation::checkpoint` / `resume`): for any
//! event boundary `T`, `resume(checkpoint(T))` is equal to the
//! uninterrupted `run` in **every** `SimResult` field — per-VM records
//! and their usage summaries, migration log, utilisation series, all counters
//! and the deterministic event count; only the re-measured wall clock is
//! exempt. Snapshot bytes themselves are versioned, little-endian,
//! wall-clock-free and canonically ordered, so they are independent of
//! the machine, the moment and the telemetry configuration; the byte
//! format is golden-pinned below and may only change together with a
//! `SNAPSHOT_VERSION` bump.
//!
//! Checkpoint boundaries are "random": arbitrary-looking fractions of
//! the trace horizon from a seeded LCG (`tests/common`), different for
//! every configuration, reproducible across runs.

use deflate_bench::autoscale_exp::{autoscale_profiles, elastic_app, AutoscaleVariant};
use deflate_bench::transient_exp::{
    default_migration_cost, profiles, transient_capacity, transient_simulation, transient_workload,
    SchedulerVariant, TransientMode, SCHEDULER_SWEEP_MBPS,
};
use deflate_bench::Scale;
use vmdeflate::cluster::manager::{ClusterConfig, PlacementKind, ReclamationMode};
use vmdeflate::cluster::sim::ClusterSimulation;
use vmdeflate::cluster::spec::{
    paper_server_capacity, servers_for_transient_overcommitment, WorkloadVm,
};
use vmdeflate::core::checkpoint::{
    CheckpointError, SnapshotField, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use vmdeflate::core::placement::PartitionScheme;
use vmdeflate::core::policy::{ProportionalDeflation, TransferPolicy};
use vmdeflate::core::resources::ResourceKind;
use vmdeflate::hypervisor::domain::DeflationMechanism;
use vmdeflate::transient::signal::{CapacityProfile, CapacitySchedule, TransientConfig};

mod common;
use common::{fnv1a64, Lcg};

/// Simulated trace horizon of the quick cluster experiments, seconds.
fn horizon_secs() -> f64 {
    Scale::Quick.cluster_trace_hours() * 3600.0
}

/// The battery check for one configuration: checkpoint at `at_secs`,
/// restore, and demand full `SimResult` equality with the uninterrupted
/// run — plus byte-identity of a second snapshot of the same boundary
/// (no wall-clock or other run-local value may leak into the bytes).
fn assert_restores_bit_identically(
    sim: &ClusterSimulation,
    workload: &[WorkloadVm],
    at_secs: f64,
    label: &str,
) {
    let full = sim.run(workload);
    let snapshot = sim.checkpoint(workload, at_secs);
    let resumed = sim
        .resume(workload, &snapshot)
        .unwrap_or_else(|e| panic!("{label}: own snapshot failed to restore: {e}"));
    assert_eq!(
        full, resumed,
        "{label}: resume(checkpoint({at_secs:.0}s)) diverged from the uninterrupted run"
    );
    let again = sim.checkpoint(workload, at_secs);
    assert_eq!(
        snapshot, again,
        "{label}: two checkpoints of the same boundary must be byte-identical"
    );
}

/// `fig_transient` quick configurations: every capacity profile, with the
/// reclamation mode rotated so all three modes are covered, each at its
/// own LCG-drawn boundary.
#[test]
fn fig_transient_configs_restore_at_random_boundaries() {
    let workload = transient_workload(Scale::Quick);
    let mut lcg = Lcg(0xC0FFEE);
    let modes = TransientMode::ALL;
    for (i, profile) in profiles().into_iter().enumerate() {
        let mode = modes[i % modes.len()];
        let sim = transient_simulation(
            &workload,
            Scale::Quick,
            mode,
            profile,
            default_migration_cost(),
            vmdeflate::core::policy::TransferPolicy::fifo(),
        );
        let at = lcg.fraction() * horizon_secs();
        assert_restores_bit_identically(
            &sim,
            &workload,
            at,
            &format!("fig_transient {}/{}", profile.name(), mode.name()),
        );
    }
}

/// `fig_scheduler` quick configurations: the three non-FIFO variants
/// (FIFO is the transient battery above) at the one-link budget in
/// deflation mode — the paths that exercise EDF admission control,
/// staged batches and deflate-then-migrate across a restore.
#[test]
fn fig_scheduler_configs_restore_at_random_boundaries() {
    let workload = transient_workload(Scale::Quick);
    let profile = CapacityProfile::spot_market_default();
    let budget = SCHEDULER_SWEEP_MBPS[0];
    let mut lcg = Lcg(0xB0A710AD);
    for variant in [
        SchedulerVariant::SmallestFirst,
        SchedulerVariant::Edf,
        SchedulerVariant::EdfDeflate,
    ] {
        let sim = transient_simulation(
            &workload,
            Scale::Quick,
            TransientMode::Deflation,
            profile,
            variant.cost(budget),
            variant.policy(),
        );
        let at = lcg.fraction() * horizon_secs();
        assert_restores_bit_identically(
            &sim,
            &workload,
            at,
            &format!("fig_scheduler {}", variant.name()),
        );
    }
}

/// The `fig_autoscale` quick configuration under each capacity profile:
/// the autoscaler's members, cooldowns, latency accumulator and stats
/// all cross the snapshot.
#[test]
fn fig_autoscale_configs_restore_at_random_boundaries() {
    let workload = transient_workload(Scale::Quick);
    let mut lcg = Lcg(0x5CA1AB1E);
    let variants = AutoscaleVariant::ALL;
    for (i, profile) in autoscale_profiles().into_iter().enumerate() {
        let variant = variants[i % variants.len()];
        let sim = autoscale_simulation(&workload, profile, variant);
        let at = lcg.fraction() * horizon_secs();
        assert_restores_bit_identically(
            &sim,
            &workload,
            at,
            &format!("fig_autoscale {}/{}", profile.name(), variant.name()),
        );
    }
}

/// The exact quick-scale `fig_autoscale` simulation, reduced to the
/// pieces a checkpoint crosses.
fn autoscale_simulation(
    workload: &[WorkloadVm],
    profile: CapacityProfile,
    variant: AutoscaleVariant,
) -> ClusterSimulation {
    let app = elastic_app();
    let capacity = paper_server_capacity();
    let background =
        servers_for_transient_overcommitment(workload, capacity, 0.0, profile.mean_availability());
    let elastic =
        (app.max_replicas as f64 * app.replica_size.cpu() / capacity.cpu()).ceil() as usize;
    let servers = background + elastic;
    let schedule = CapacitySchedule::generate(&TransientConfig {
        num_servers: servers,
        transient_fraction: 1.0,
        duration_secs: Scale::Quick.cluster_trace_hours() * 3600.0,
        profile,
        seed: Scale::Quick.seed(),
    });
    let config = ClusterConfig {
        num_servers: servers,
        server_capacity: capacity,
        placement: PlacementKind::CosineFitness,
        partitions: PartitionScheme::None,
        mechanism: DeflationMechanism::Transparent,
    };
    ClusterSimulation::new(
        config,
        ReclamationMode::Deflation(std::sync::Arc::new(ProportionalDeflation::default())),
    )
    .with_capacity_schedule(schedule)
    .with_migrate_back(true)
    .with_migration_cost(default_migration_cost())
    .with_utilization_ticks(deflate_bench::autoscale_exp::AUTOSCALE_TICK_SECS)
    .with_autoscale(variant.policy(), vec![app])
}

/// Snapshot bytes are independent of telemetry, and a snapshot restores
/// bit-identically with every in-memory sink attached.
#[test]
fn snapshots_are_telemetry_independent() {
    use vmdeflate::telemetry::{TelemetryEventSet, TelemetrySink, TelemetrySpec};
    let workload = transient_workload(Scale::Quick);
    let budget = SCHEDULER_SWEEP_MBPS[0];
    let variant = SchedulerVariant::EdfDeflate;
    let sim = |sink: TelemetrySink| {
        transient_simulation(
            &workload,
            Scale::Quick,
            TransientMode::Deflation,
            CapacityProfile::spot_market_default(),
            variant.cost(budget),
            variant.policy(),
        )
        .with_telemetry(sink)
    };
    let observed_sink = || {
        let spec = TelemetrySpec::profiling()
            .with_event_log("unused.jsonl")
            .with_event_kinds(TelemetryEventSet::all())
            .with_chrome_trace("unused.trace.json");
        TelemetrySink::in_memory(&spec)
    };
    let at = Lcg(0xD15EA5E).fraction() * horizon_secs();
    let full = sim(TelemetrySink::disabled()).run(&workload);
    let baseline = sim(TelemetrySink::disabled()).checkpoint(&workload, at);
    let snapshot = sim(observed_sink()).checkpoint(&workload, at);
    assert_eq!(
        baseline, snapshot,
        "snapshot bytes changed with telemetry on"
    );
    let resumed = sim(observed_sink())
        .resume(&workload, &baseline)
        .expect("snapshot must restore");
    assert_eq!(full, resumed, "restore diverged with telemetry on");
}

/// **Fork determinism**: two forks of the same snapshot under the same
/// [`TransferPolicy`] are bit-identical, and forks under different
/// policies share the identical pre-fork history (the snapshot is the
/// single source of the prefix — what diverges afterwards is policy,
/// never replay noise). This is the property `fig_whatif`'s
/// model-predictive loop rests on.
#[test]
fn forks_of_one_snapshot_are_deterministic() {
    use deflate_bench::transient_exp::{dirty_aware_migration_cost, transient_simulation};
    let scale = Scale::Quick;
    let workload = transient_workload(scale);
    let profile = CapacityProfile::spot_market_default();
    let cost = dirty_aware_migration_cost(1250.0);
    let sim = |policy: TransferPolicy| {
        transient_simulation(
            &workload,
            scale,
            deflate_bench::transient_exp::TransientMode::Deflation,
            profile,
            cost,
            policy,
        )
    };
    let snapshot = sim(TransferPolicy::fifo()).checkpoint(&workload, 2.0 * 3600.0);
    for policy in [
        TransferPolicy::fifo(),
        TransferPolicy::edf().with_deflate_then_migrate(true),
    ] {
        let first = sim(policy).resume(&workload, &snapshot).expect("restores");
        let second = sim(policy).resume(&workload, &snapshot).expect("restores");
        assert_eq!(first, second, "two forks under {} diverged", policy.name());
    }
    // Different-policy forks still agree on everything decided before the
    // fork point: the committed policy name aside, their event streams
    // may only diverge after 2 h.
    let fifo = sim(TransferPolicy::fifo())
        .resume(&workload, &snapshot)
        .expect("restores");
    let edf = sim(TransferPolicy::edf())
        .resume(&workload, &snapshot)
        .expect("restores");
    let pre_fork = |result: &vmdeflate::cluster::metrics::SimResult| {
        result
            .migrations
            .iter()
            .filter(|m| m.time_secs <= 2.0 * 3600.0)
            .cloned()
            .collect::<Vec<_>>()
    };
    assert_eq!(
        pre_fork(&fifo),
        pre_fork(&edf),
        "pre-fork migration history diverged between sibling forks"
    );
}

/// Malformed snapshots are rejected with typed errors, never misread.
#[test]
fn malformed_snapshots_are_rejected() {
    let workload = transient_workload(Scale::Quick);
    let sim = transient_simulation(
        &workload,
        Scale::Quick,
        TransientMode::Deflation,
        CapacityProfile::spot_market_default(),
        default_migration_cost(),
        vmdeflate::core::policy::TransferPolicy::fifo(),
    );
    let snapshot = sim.checkpoint(&workload, 3600.0);
    // Bad magic.
    let mut bad = snapshot.clone();
    bad[0] ^= 0xFF;
    assert_eq!(
        sim.resume(&workload, &bad).unwrap_err(),
        CheckpointError::BadMagic
    );
    // A future version, and the previous one: an old snapshot is refused,
    // never misread under the current layout.
    for version in [SNAPSHOT_VERSION + 1, SNAPSHOT_VERSION - 1] {
        let mut other = snapshot.clone();
        other[4..8].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            sim.resume(&workload, &other).unwrap_err(),
            CheckpointError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            },
            "version {version}"
        );
    }
    // Truncation anywhere must surface as an error, not a bogus state.
    assert!(sim
        .resume(&workload, &snapshot[..snapshot.len() - 1])
        .is_err());
    // Trailing garbage is detected too.
    let mut padded = snapshot.clone();
    padded.push(0);
    assert!(sim.resume(&workload, &padded).is_err());
}

/// A length prefix claiming more entries than the bytes left can hold is
/// a typed `Corrupt` error, raised before anything is preallocated for
/// it: one flipped high bit must not abort the process.
#[test]
fn inflated_length_prefixes_are_rejected() {
    let workload = transient_workload(Scale::Quick);
    let sim = transient_simulation(
        &workload,
        Scale::Quick,
        TransientMode::Deflation,
        CapacityProfile::spot_market_default(),
        default_migration_cost(),
        vmdeflate::core::policy::TransferPolicy::fifo(),
    );
    let snapshot = sim.checkpoint(&workload, 3600.0);
    let fields = sim.snapshot_fields(&workload, &snapshot).unwrap();
    let locations = field(&fields, "manager.vm_location.len").range.start;
    assert!(u64_at(&snapshot, locations) > 0, "VMs run at the boundary");
    for at in [field(&fields, "queue.len").range.start, locations] {
        for claimed in [u64::MAX, 1 << 36, snapshot.len() as u64] {
            let mut bad = snapshot.clone();
            bad[at..at + 8].copy_from_slice(&claimed.to_le_bytes());
            let err = sim.resume(&workload, &bad).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Corrupt(_)),
                "prefix at byte {at} inflated to {claimed}: {err:?}"
            );
        }
    }
}

/// The fields whose path is `pattern` with each `[*]` standing for one
/// index, in byte order.
fn matching<'f>(fields: &'f [SnapshotField], pattern: &str) -> Vec<&'f SnapshotField> {
    let shape = |path: &str| {
        let mut parts = path.split('[');
        let mut shape = parts.next().unwrap().to_string();
        for part in parts {
            shape.push_str("[*");
            shape.push_str(&part[part.find(']').unwrap()..]);
        }
        shape
    };
    fields
        .iter()
        .filter(|f| shape(&f.path) == pattern)
        .collect()
}

/// The one field at `path`.
fn field<'f>(fields: &'f [SnapshotField], path: &str) -> &'f SnapshotField {
    fields
        .iter()
        .find(|f| f.path == path)
        .unwrap_or_else(|| panic!("no field `{path}` in the snapshot"))
}

/// The bytes of every field under `prefix` (e.g. `queue[3]`).
fn span(fields: &[SnapshotField], prefix: &str) -> std::ops::Range<usize> {
    let inner = fields.iter().filter(|f| {
        f.path
            .strip_prefix(prefix)
            .is_some_and(|r| r.starts_with('.'))
    });
    let start = inner.clone().map(|f| f.range.start).min().unwrap();
    start..inner.map(|f| f.range.end).max().unwrap()
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Every field the restore path validates, patched in a real snapshot to
/// a value no run could have written, is a typed `Corrupt` error: queued
/// VM events past the workload, capacity events past the cluster,
/// non-finite event times, server indices past the cluster in the
/// manager's maps and transfers, and usage summaries with a count other
/// than three, a cursor past the trace, unknown or inconsistent flags or
/// a non-finite accumulator.
#[test]
fn semantically_invalid_fields_are_rejected() {
    let workload = transient_workload(Scale::Quick);
    let profile = CapacityProfile::spot_market_default();
    let sim = transient_simulation(
        &workload,
        Scale::Quick,
        TransientMode::Deflation,
        profile,
        default_migration_cost(),
        vmdeflate::core::policy::TransferPolicy::fifo(),
    );
    // A boundary just after a reclamation, so transfers are in flight.
    let (schedule, servers) = transient_capacity(&workload, Scale::Quick, profile);
    let (snapshot, fields) = schedule
        .changes()
        .iter()
        .filter(|c| c.is_reclaim)
        .map(|c| {
            let snapshot = sim.checkpoint(&workload, c.time_secs + 1.0);
            let fields = sim.snapshot_fields(&workload, &snapshot).unwrap();
            (snapshot, fields)
        })
        .find(|(_, fields)| !matching(fields, "manager.in_flight[*].source").is_empty())
        .expect("some reclamation leaves transfers in flight");
    let event_times = matching(&fields, "queue[*].time");
    let vm_events = matching(&fields, "queue[*].vm_index");
    let capacity_events = matching(&fields, "queue[*].server");
    let mut server_indices = matching(&fields, "manager.vm_location[*].server_index");
    server_indices.extend(matching(
        &fields,
        "manager.migration_origin[*].server_index",
    ));
    let in_flight: Vec<_> = matching(&fields, "manager.in_flight[*].source")
        .into_iter()
        .zip(matching(&fields, "manager.in_flight[*].dest"))
        .flat_map(|(source, dest)| [source, dest])
        .collect();
    for (what, found) in [
        ("event time", &event_times),
        ("vm event", &vm_events),
        ("capacity event", &capacity_events),
        ("server index", &server_indices),
        ("in-flight server", &in_flight),
    ] {
        assert!(!found.is_empty(), "no {what} in the snapshot");
    }
    // One usage summary per workload VM, in workload order.
    let counts = matching(&fields, "record[*].usage.len");
    let cursors = matching(&fields, "record[*].usage.next_sample");
    let flags = matching(&fields, "record[*].usage.flags");
    assert_eq!(counts.len(), workload.len());
    let flags_of = |vm: usize| {
        let at = flags[vm].range.start;
        u32::from_le_bytes(snapshot[at..at + 4].try_into().unwrap())
    };
    let placed = (0..workload.len())
        .find(|&vm| flags_of(vm) == 3)
        .expect("some VM has been deflated");
    let mut patches: Vec<(String, usize, Vec<u8>)> = Vec::new();
    for f in &event_times {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bytes = bad.to_le_bytes().to_vec();
            patches.push((format!("event time {bad}"), f.range.start, bytes));
        }
    }
    for f in &vm_events {
        let bad = workload.len() as u64;
        let bytes = bad.to_le_bytes().to_vec();
        patches.push(("vm event index".into(), f.range.start, bytes));
    }
    for f in &capacity_events {
        let bad = servers as u32;
        let bytes = bad.to_le_bytes().to_vec();
        patches.push(("capacity server".into(), f.range.start, bytes));
    }
    for f in server_indices.iter().chain(&in_flight) {
        for bad in [servers as u64, u64::MAX] {
            let bytes = bad.to_le_bytes().to_vec();
            patches.push(("server index".into(), f.range.start, bytes));
        }
    }
    for (vm, workload_vm) in workload.iter().enumerate() {
        let count = 4u64.to_le_bytes().to_vec();
        patches.push(("usage count".into(), counts[vm].range.start, count));
        let past = (workload_vm.cpu_util.len() as u32 + 1)
            .to_le_bytes()
            .to_vec();
        patches.push(("usage cursor".into(), cursors[vm].range.start, past));
        for bad in [4u32, 2] {
            let bytes = bad.to_le_bytes().to_vec();
            patches.push(("usage flags".into(), flags[vm].range.start, bytes));
        }
    }
    for name in [
        "demanded",
        "lost",
        "weighted",
        "last_change_secs",
        "last_fraction",
    ] {
        let at = field(&fields, &format!("record[{placed}].usage.{name}"))
            .range
            .start;
        for bad in [f64::NAN, f64::INFINITY] {
            let bytes = bad.to_le_bytes().to_vec();
            patches.push((format!("usage field {name}"), at, bytes));
        }
    }
    println!("{} invalid field patches", patches.len());
    for (what, at, bytes) in patches {
        let mut bad = snapshot.clone();
        bad[at..at + bytes.len()].copy_from_slice(&bytes);
        match sim.resume(&workload, &bad) {
            Err(CheckpointError::Corrupt(_)) => {}
            other => panic!("{what} patched at byte {at}: {other:?}"),
        }
    }
    // The untouched snapshot and a cursor at the trace's end still restore.
    let mut edge = snapshot.clone();
    let cursor = cursors[placed].range.clone();
    let end = workload[placed].cpu_util.len() as u32;
    edge[cursor].copy_from_slice(&end.to_le_bytes());
    assert!(sim.resume(&workload, &edge).is_ok());
    assert_eq!(
        sim.resume(&workload, &snapshot).unwrap(),
        sim.run(&workload)
    );
}

/// The pending arrivals and departures a snapshot stores must be exactly
/// the ones its run has not delivered, in delivery order and at the
/// workload's times: one dropped (the first or a later one), repeated,
/// swapped with a later one of its kind or moved in time, or a boundary
/// moved before a delivered arrival, is a typed `Corrupt` error, never a
/// panic or a different run.
#[test]
fn pending_arrivals_and_departures_must_be_the_undelivered_suffix() {
    let workload = transient_workload(Scale::Quick);
    let sim = transient_simulation(
        &workload,
        Scale::Quick,
        TransientMode::Deflation,
        CapacityProfile::spot_market_default(),
        default_migration_cost(),
        vmdeflate::core::policy::TransferPolicy::fifo(),
    );
    let at_secs = 3.0 * 3600.0;
    let snapshot = sim.checkpoint(&workload, at_secs);
    let fields = sim.snapshot_fields(&workload, &snapshot).unwrap();
    let queue_at = field(&fields, "queue.len").range.start;
    let count = |bytes: &mut [u8], delta: i64| {
        let n = u64_at(bytes, queue_at).checked_add_signed(delta).unwrap();
        bytes[queue_at..queue_at + 8].copy_from_slice(&n.to_le_bytes());
    };
    let kinds = matching(&fields, "queue[*].kind");
    let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
    for (tag, kind) in [(4u8, "arrival"), (0, "departure")] {
        // Each pending event of this kind: its time, tag and workload index.
        let entries: Vec<std::ops::Range<usize>> = (0..kinds.len())
            .filter(|&i| snapshot[kinds[i].range.start] == tag)
            .map(|i| span(&fields, &format!("queue[{i}]")))
            .collect();
        assert!(entries.len() >= 3, "too few pending {kind}s");
        for (which, entry) in [
            ("first", &entries[0]),
            ("middle", &entries[entries.len() / 2]),
        ] {
            let at = entry.start;
            let mut dropped = snapshot.clone();
            dropped.drain(entry.clone());
            count(&mut dropped, -1);
            cases.push((format!("{which} {kind} dropped"), dropped));
            let mut repeated = snapshot.clone();
            repeated.splice(at..at, snapshot[entry.clone()].to_vec());
            count(&mut repeated, 1);
            cases.push((format!("{which} {kind} repeated"), repeated));
            for delta in [1.0, -1.0, -at_secs] {
                let mut moved = snapshot.clone();
                let time = f64::from_le_bytes(snapshot[at..at + 8].try_into().unwrap());
                moved[at..at + 8].copy_from_slice(&(time + delta).to_le_bytes());
                cases.push((format!("{which} {kind} moved by {delta} s"), moved));
            }
        }
        let (a, b) = (&entries[0], &entries[entries.len() / 2]);
        assert_eq!(a.len(), b.len());
        let mut swapped = snapshot.clone();
        swapped.copy_within(b.clone(), a.start);
        swapped[b.clone()].copy_from_slice(&snapshot[a.clone()]);
        cases.push((format!("{kind}s swapped"), swapped));
    }
    let delivered = workload
        .iter()
        .map(|vm| vm.arrival_secs)
        .filter(|&t| t <= at_secs)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut early = snapshot.clone();
    early[field(&fields, "at_secs").range.clone()]
        .copy_from_slice(&(delivered - 1.0).to_le_bytes());
    cases.push(("boundary before a delivered arrival".into(), early));
    println!("{} pending-event cases", cases.len());
    for (what, bad) in cases {
        match sim.resume(&workload, &bad) {
            Err(CheckpointError::Corrupt(_)) => {}
            other => panic!("{what}: {other:?}"),
        }
    }
    assert_eq!(
        sim.resume(&workload, &snapshot).unwrap(),
        sim.run(&workload)
    );
}

/// A resident domain whose decoded state would reach an `f64::clamp`
/// with a NaN or inverted bound is a typed `Corrupt` error, raised before
/// the cgroups are built: a spec allocation that is NaN, infinite or
/// negative, a minimum above its maximum, a non-finite guest float, and
/// a non-finite cgroup usage or limit.
#[test]
fn invalid_domain_specs_and_guest_floats_are_rejected() {
    let workload = transient_workload(Scale::Quick);
    let sim = transient_simulation(
        &workload,
        Scale::Quick,
        TransientMode::Deflation,
        CapacityProfile::spot_market_default(),
        default_migration_cost(),
        vmdeflate::core::policy::TransferPolicy::fifo(),
    );
    let snapshot = sim.checkpoint(&workload, 3600.0);
    let fields = sim.snapshot_fields(&workload, &snapshot).unwrap();
    let domains: Vec<&str> = matching(&fields, "manager.server[*].domain[*].vm_spec.id")
        .iter()
        .map(|f| f.path.strip_suffix(".vm_spec.id").unwrap())
        .collect();
    assert!(domains.len() > 3, "too few resident domains");
    let at = |path: String| field(&fields, &path).range.start;
    let mut patches: Vec<(String, usize, f64)> = Vec::new();
    for d in [domains[0], domains[1], domains[domains.len() - 1]] {
        for kind in ResourceKind::ALL {
            let max_at = at(format!("{d}.vm_spec.max_allocation.{kind}"));
            let min_at = at(format!("{d}.vm_spec.min_allocation.{kind}"));
            for bad in [f64::NAN, f64::INFINITY, -1.0] {
                patches.push((format!("max allocation {kind} = {bad}"), max_at, bad));
                patches.push((format!("min allocation {kind} = {bad}"), min_at, bad));
            }
            let above = f64::from_le_bytes(snapshot[max_at..max_at + 8].try_into().unwrap()) + 1.0;
            patches.push((format!("min allocation {kind} above max"), min_at, above));
        }
        for name in [
            "boot_memory_mb",
            "plugged_memory_mb",
            "rss_mb",
            "page_cache_mb",
            "cpu_busy_fraction",
        ] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                patches.push((
                    format!("guest {name} = {bad}"),
                    at(format!("{d}.guest.{name}")),
                    bad,
                ));
            }
        }
        for cgroup in ["usages", "limits"] {
            for kind in ResourceKind::ALL {
                let path = format!("{d}.{cgroup}.{kind}");
                patches.push((format!("{path} = NaN"), at(path), f64::NAN));
            }
        }
    }
    println!("{} invalid domain patches", patches.len());
    for (what, at, bad) in patches {
        let mut patched = snapshot.clone();
        patched[at..at + 8].copy_from_slice(&bad.to_le_bytes());
        match sim.resume(&workload, &patched) {
            Err(CheckpointError::Corrupt(_)) => {}
            other => panic!("{what} patched at byte {at}: {other:?}"),
        }
    }
}

/// Golden pin of the snapshot byte format: the FNV-1a digest of the
/// quick-scale spot-market/deflation snapshot at a fixed boundary. Any
/// change to the byte layout moves this digest and MUST come with a
/// [`SNAPSHOT_VERSION`] bump (and a re-pin; run with
/// `--ignored --nocapture` below for the new constant). The header is
/// also pinned literally so the magic/version framing itself cannot
/// silently change.
#[test]
fn snapshot_byte_format_is_golden_pinned() {
    assert_eq!(
        SNAPSHOT_VERSION, 3,
        "version bump requires re-pinning SNAPSHOT_GOLDEN"
    );
    let snapshot = golden_snapshot();
    assert_eq!(&snapshot[..4], &SNAPSHOT_MAGIC);
    assert_eq!(&snapshot[4..8], &SNAPSHOT_VERSION.to_le_bytes());
    assert_eq!(
        fnv1a64(&snapshot),
        SNAPSHOT_GOLDEN,
        "snapshot byte format drifted without a SNAPSHOT_VERSION bump \
         (got 0x{:016x})",
        fnv1a64(&snapshot)
    );
}

/// Golden digest captured from the version-3 snapshot format (no
/// reclaim clocks, cache-regrowth clocks or page-cache targets).
const SNAPSHOT_GOLDEN: u64 = 0x4a73_8f62_c84b_2d6a;

fn golden_snapshot() -> Vec<u8> {
    let workload = transient_workload(Scale::Quick);
    let sim = transient_simulation(
        &workload,
        Scale::Quick,
        TransientMode::Deflation,
        CapacityProfile::spot_market_default(),
        default_migration_cost(),
        vmdeflate::core::policy::TransferPolicy::fifo(),
    );
    sim.checkpoint(&workload, 4.0 * 3600.0)
}

/// Re-pinning helper: prints the current snapshot digest in source form.
#[test]
#[ignore = "re-pinning helper, run with --ignored --nocapture"]
fn print_current_snapshot_digest() {
    let snapshot = golden_snapshot();
    println!("// {} bytes", snapshot.len());
    println!(
        "const SNAPSHOT_GOLDEN: u64 = 0x{:016x};",
        fnv1a64(&snapshot)
    );
}

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
use vmdeflate::cluster::manager::{ClusterConfig, ClusterManager, PlacementKind, ReclamationMode};
use vmdeflate::cluster::sim::ClusterSimulation;
use vmdeflate::cluster::spec::{
    paper_server_capacity, servers_for_transient_overcommitment, WorkloadVm,
};
use vmdeflate::core::checkpoint::{ByteReader, CheckpointError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use vmdeflate::core::placement::PartitionScheme;
use vmdeflate::core::policy::{ProportionalDeflation, TransferPolicy};
use vmdeflate::hypervisor::domain::{DeflationMechanism, Domain};
use vmdeflate::transient::events::SimEvent;
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
    let (queue_at, locations_at) = length_prefix_offsets(&snapshot);
    for at in [queue_at, locations_at] {
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

/// Where the fields the restore path validates sit in a snapshot.
#[derive(Default)]
struct FieldOffsets {
    /// Time of every queued event.
    event_times: Vec<usize>,
    /// Workload index of every queued arrival and departure.
    vm_events: Vec<usize>,
    /// Server id of every queued capacity event.
    capacity_events: Vec<usize>,
    /// Server index of every `vm_location` and `migration_origin` entry.
    server_indices: Vec<usize>,
    /// Source and destination of every in-flight transfer.
    in_flight: Vec<usize>,
    /// Each record's usage-summary frame, with its flags.
    summaries: Vec<(usize, u32)>,
    /// Each resident domain's frame (its `VmSpec` comes first).
    domains: Vec<usize>,
}

/// Walk a snapshot through the public decoders, noting field offsets.
fn field_offsets(snapshot: &[u8], num_vms: usize) -> FieldOffsets {
    let mut o = FieldOffsets::default();
    let mut r = ByteReader::with_header(snapshot).unwrap();
    let at = |r: &ByteReader<'_>| snapshot.len() - r.remaining();
    r.get_f64().unwrap();
    r.get_usize().unwrap();
    r.get_u64().unwrap();
    for _ in 0..r.get_usize().unwrap() {
        o.event_times.push(at(&r));
        r.get_f64().unwrap();
        let payload = at(&r) + 1;
        match SimEvent::read_snapshot(&mut r).unwrap() {
            SimEvent::Arrival(_) | SimEvent::Departure(_) => o.vm_events.push(payload),
            SimEvent::CapacityReclaim { .. } | SimEvent::CapacityRestore { .. } => {
                o.capacity_events.push(payload)
            }
            _ => {}
        }
    }
    // The manager, decoded by a manager of the snapshot's size; its maps
    // are located by a second walk up to them.
    let manager_at = at(&r);
    let servers = r.get_usize().unwrap();
    for _ in 0..servers {
        r.get_resources().unwrap();
        for _ in 0..r.get_usize().unwrap() {
            o.domains.push(at(&r));
            Domain::read_snapshot(&mut r).unwrap();
        }
    }
    for _ in 0..2 {
        for _ in 0..r.get_usize().unwrap() {
            r.get_u64().unwrap();
            o.server_indices.push(at(&r));
            r.get_u64().unwrap();
        }
    }
    for _ in 0..r.get_usize().unwrap() {
        r.take(16).unwrap();
        o.in_flight.extend([at(&r), at(&r) + 8]);
        r.take(49).unwrap();
    }
    let mut r = ByteReader::new(&snapshot[manager_at..]);
    let at = |r: &ByteReader<'_>| snapshot.len() - r.remaining();
    ClusterManager::new(
        &ClusterConfig::paper_default(servers),
        ReclamationMode::MigrationOnly,
    )
    .read_snapshot(&mut r)
    .unwrap();
    assert!(
        !r.get_bool().unwrap(),
        "no autoscaler in this configuration"
    );
    for _ in 0..num_vms {
        r.get_bool().unwrap();
        if r.get_u8().unwrap() >= 2 {
            r.get_f64().unwrap();
        }
        let frame = at(&r);
        r.take(12).unwrap();
        o.summaries.push((frame, r.get_u32().unwrap()));
        r.take(40).unwrap();
    }
    o
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
    let (snapshot, offsets) = schedule
        .changes()
        .iter()
        .filter(|c| c.is_reclaim)
        .map(|c| {
            let snapshot = sim.checkpoint(&workload, c.time_secs + 1.0);
            let offsets = field_offsets(&snapshot, workload.len());
            (snapshot, offsets)
        })
        .find(|(_, o)| !o.in_flight.is_empty())
        .expect("some reclamation leaves transfers in flight");
    for (what, fields) in [
        ("event time", &offsets.event_times),
        ("vm event", &offsets.vm_events),
        ("capacity event", &offsets.capacity_events),
        ("server index", &offsets.server_indices),
        ("in-flight server", &offsets.in_flight),
    ] {
        assert!(!fields.is_empty(), "no {what} in the snapshot");
    }
    let placed = offsets
        .summaries
        .iter()
        .find(|&&(_, flags)| flags == 3)
        .expect("some VM has been deflated")
        .0;
    let trace_len = |frame: usize| {
        let vm = offsets
            .summaries
            .iter()
            .position(|&(f, _)| f == frame)
            .unwrap();
        workload[vm].cpu_util.len() as u64
    };
    let mut patches: Vec<(String, usize, Vec<u8>)> = Vec::new();
    for &at in &offsets.event_times {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            patches.push((format!("event time {bad}"), at, bad.to_le_bytes().to_vec()));
        }
    }
    for &at in &offsets.vm_events {
        let bad = workload.len() as u64;
        patches.push(("vm event index".into(), at, bad.to_le_bytes().to_vec()));
    }
    for &at in &offsets.capacity_events {
        let bad = servers as u32;
        patches.push(("capacity server".into(), at, bad.to_le_bytes().to_vec()));
    }
    for &at in offsets.server_indices.iter().chain(&offsets.in_flight) {
        for bad in [servers as u64, u64::MAX] {
            patches.push(("server index".into(), at, bad.to_le_bytes().to_vec()));
        }
    }
    for &(frame, _) in &offsets.summaries {
        patches.push(("usage count".into(), frame, 4u64.to_le_bytes().to_vec()));
        let past = trace_len(frame) as u32 + 1;
        patches.push((
            "usage cursor".into(),
            frame + 8,
            past.to_le_bytes().to_vec(),
        ));
        patches.push((
            "usage flags".into(),
            frame + 12,
            4u32.to_le_bytes().to_vec(),
        ));
        patches.push((
            "usage flags".into(),
            frame + 12,
            2u32.to_le_bytes().to_vec(),
        ));
    }
    for field in 0..5 {
        for bad in [f64::NAN, f64::INFINITY] {
            let at = placed + 16 + 8 * field;
            patches.push((
                format!("usage field {field}"),
                at,
                bad.to_le_bytes().to_vec(),
            ));
        }
    }
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
    let past = trace_len(placed) as u32;
    edge[placed + 8..placed + 12].copy_from_slice(&past.to_le_bytes());
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
    let offsets = field_offsets(&snapshot, workload.len());
    let (queue_at, _) = length_prefix_offsets(&snapshot);
    // A queued VM event is its time, the kind's tag (0 for a departure,
    // 4 for an arrival) and the workload index: 17 bytes.
    const ENTRY: usize = 17;
    let count = |bytes: &mut [u8], delta: i64| {
        let n = u64::from_le_bytes(bytes[queue_at..queue_at + 8].try_into().unwrap());
        let n = n.checked_add_signed(delta).unwrap();
        bytes[queue_at..queue_at + 8].copy_from_slice(&n.to_le_bytes());
    };
    let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
    for (tag, kind) in [(4u8, "arrival"), (0, "departure")] {
        let entries: Vec<usize> = offsets
            .event_times
            .iter()
            .copied()
            .filter(|&at| snapshot[at + 8] == tag)
            .collect();
        assert!(entries.len() >= 3, "too few pending {kind}s");
        for (which, at) in [
            ("first", entries[0]),
            ("middle", entries[entries.len() / 2]),
        ] {
            let mut dropped = snapshot.clone();
            dropped.drain(at..at + ENTRY);
            count(&mut dropped, -1);
            cases.push((format!("{which} {kind} dropped"), dropped));
            let mut repeated = snapshot.clone();
            let entry = snapshot[at..at + ENTRY].to_vec();
            repeated.splice(at..at, entry);
            count(&mut repeated, 1);
            cases.push((format!("{which} {kind} repeated"), repeated));
            for delta in [1.0, -1.0, -at_secs] {
                let mut moved = snapshot.clone();
                let time = f64::from_le_bytes(snapshot[at..at + 8].try_into().unwrap());
                moved[at..at + 8].copy_from_slice(&(time + delta).to_le_bytes());
                cases.push((format!("{which} {kind} moved by {delta} s"), moved));
            }
        }
        let (a, b) = (entries[0], entries[entries.len() / 2]);
        let mut swapped = snapshot.clone();
        swapped.copy_within(b..b + ENTRY, a);
        swapped[b..b + ENTRY].copy_from_slice(&snapshot[a..a + ENTRY]);
        cases.push((format!("{kind}s swapped"), swapped));
    }
    let delivered = workload
        .iter()
        .map(|vm| vm.arrival_secs)
        .filter(|&t| t <= at_secs)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut early = snapshot.clone();
    early[8..16].copy_from_slice(&(delivered - 1.0).to_le_bytes());
    cases.push(("boundary before a delivered arrival".into(), early));
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
    let domains = field_offsets(&snapshot, workload.len()).domains;
    assert!(domains.len() > 3, "too few resident domains");
    // Frame layout: id u64, class u8, max and min allocations (4 × f64
    // each), priority f64, deflatable u8, mechanism u8, two u32 vCPU
    // counts, five guest f64s, then the usage and limit vectors.
    let (max_at, min_at, guest_at, cgroups_at) = (9, 41, 91, 131);
    let f64_at =
        |bytes: &[u8], at: usize| f64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let mut patches: Vec<(String, usize, f64)> = Vec::new();
    for &d in [domains[0], domains[1], domains[domains.len() - 1]].iter() {
        for k in 0..4 {
            for bad in [f64::NAN, f64::INFINITY, -1.0] {
                patches.push((
                    format!("max allocation {k} = {bad}"),
                    d + max_at + 8 * k,
                    bad,
                ));
                patches.push((
                    format!("min allocation {k} = {bad}"),
                    d + min_at + 8 * k,
                    bad,
                ));
            }
            let above = f64_at(&snapshot, d + max_at + 8 * k) + 1.0;
            patches.push((
                format!("min allocation {k} above max"),
                d + min_at + 8 * k,
                above,
            ));
        }
        for j in 0..5 {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                patches.push((
                    format!("guest float {j} = {bad}"),
                    d + guest_at + 8 * j,
                    bad,
                ));
            }
        }
        for k in 0..8 {
            patches.push((
                format!("cgroup value {k} = NaN"),
                d + cgroups_at + 8 * k,
                f64::NAN,
            ));
        }
    }
    for (what, at, bad) in patches {
        let mut patched = snapshot.clone();
        patched[at..at + 8].copy_from_slice(&bad.to_le_bytes());
        match sim.resume(&workload, &patched) {
            Err(CheckpointError::Corrupt(_)) => {}
            other => panic!("{what} patched at byte {at}: {other:?}"),
        }
    }
}

/// Byte offsets of two length prefixes in an engine snapshot: the event
/// queue's and the cluster manager's VM-location map's. Walks the format
/// through the public decoders up to each of them.
fn length_prefix_offsets(snapshot: &[u8]) -> (usize, usize) {
    let mut r = ByteReader::with_header(snapshot).unwrap();
    r.get_f64().unwrap(); // checkpoint time
    r.get_usize().unwrap(); // workload size
    r.get_u64().unwrap(); // events processed
    let queue_at = snapshot.len() - r.remaining();
    for _ in 0..r.get_usize().unwrap() {
        r.get_f64().unwrap();
        SimEvent::read_snapshot(&mut r).unwrap();
    }
    // The manager: every server's capacity and residents.
    for _ in 0..r.get_usize().unwrap() {
        r.get_resources().unwrap();
        for _ in 0..r.get_usize().unwrap() {
            Domain::read_snapshot(&mut r).unwrap();
        }
    }
    let locations_at = snapshot.len() - r.remaining();
    assert!(r.get_usize().unwrap() > 0, "VMs run at the boundary");
    (queue_at, locations_at)
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

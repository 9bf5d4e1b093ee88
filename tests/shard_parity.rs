//! Determinism parity for the sharded engine: running any experiment with
//! `--shards N` must produce a `SimResult` **bit-identical** to the
//! sequential engine. `SimResult`'s equality covers the full per-VM
//! records (specs, outcomes, usage summaries), migrations,
//! utilisation samples, every counter and the deterministic event count —
//! only the wall clock and the shard count itself are exempt.
//!
//! The targeted tests pin the contract on the exact quick-scale
//! configurations of the `fig_transient` and `fig_scheduler` experiments
//! (the rows other regression tests pin golden values for); the property
//! test then varies workload seed, capacity profile and shard count
//! freely.

use deflate_bench::scale::Scale;
use deflate_bench::transient_exp::{
    default_migration_cost, profiles, run_transient_engine, transient_workload, SchedulerVariant,
    TransientMode, SCHEDULER_SWEEP_MBPS,
};
use proptest::prelude::*;
use vmdeflate::cluster::manager::{ClusterConfig, PlacementKind, ReclamationMode};
use vmdeflate::cluster::sim::ClusterSimulation;
use vmdeflate::cluster::spec::{workload_from_azure, MinAllocationRule};
use vmdeflate::core::placement::PartitionScheme;
use vmdeflate::core::policy::{ProportionalDeflation, TransferPolicy};
use vmdeflate::core::resources::ResourceVector;
use vmdeflate::core::shard::ShardConfig;
use vmdeflate::hypervisor::domain::DeflationMechanism;
use vmdeflate::hypervisor::migration::MigrationCostModel;
use vmdeflate::traces::azure::{AzureTraceConfig, AzureTraceGenerator};
use vmdeflate::transient::signal::{CapacityProfile, CapacitySchedule, TransientConfig};

/// `--shards N` for N in {2, 4} is bit-identical to the sequential engine
/// on every (profile, mode) row of the quick-scale `fig_transient`
/// experiment.
#[test]
fn fig_transient_rows_are_bit_identical_across_shards() {
    let scale = Scale::Quick;
    let workload = transient_workload(scale);
    let cost = default_migration_cost();
    for profile in profiles() {
        for mode in TransientMode::ALL {
            let sequential = run_transient_engine(
                &workload,
                scale,
                mode,
                profile,
                cost,
                TransferPolicy::fifo(),
                ShardConfig::sequential(),
            );
            for shards in [2, 4] {
                let sharded = run_transient_engine(
                    &workload,
                    scale,
                    mode,
                    profile,
                    cost,
                    TransferPolicy::fifo(),
                    ShardConfig::with_shards(shards),
                );
                assert_eq!(
                    sequential,
                    sharded,
                    "fig_transient {} / {} diverged at {} shards",
                    profile.name(),
                    mode.name(),
                    shards
                );
            }
        }
    }
}

/// Same contract on the `fig_scheduler` rows — the experiment whose EDF /
/// deflate-then-migrate paths exercise staged batches, admission-control
/// rejections and the dirty-rate-aware sampling pass (the sharded
/// trace-observation fan-out). One budget is enough: policy behaviour,
/// not the budget grid, is what varies the code path.
#[test]
fn fig_scheduler_rows_are_bit_identical_across_shards() {
    let scale = Scale::Quick;
    let workload = transient_workload(scale);
    let profile = CapacityProfile::spot_market_default();
    let budget = SCHEDULER_SWEEP_MBPS[0];
    for mode in [TransientMode::Deflation, TransientMode::MigrationOnly] {
        for variant in SchedulerVariant::ALL {
            if !variant.applies_to(mode) {
                continue;
            }
            let run = |shards: usize| {
                run_transient_engine(
                    &workload,
                    scale,
                    mode,
                    profile,
                    variant.cost(budget),
                    variant.policy(),
                    ShardConfig::with_shards(shards),
                )
            };
            let sequential = run(1);
            for shards in [2, 4] {
                assert_eq!(
                    sequential,
                    run(shards),
                    "fig_scheduler {} / {} diverged at {} shards",
                    mode.name(),
                    variant.name(),
                    shards
                );
            }
        }
    }
}

/// Autoscale-enabled runs are bit-identical across shard counts too: the
/// autoscaler's decisions, scale events and stats all happen at the
/// coordinator in the engine's global event order, and `SimResult`'s
/// equality covers the full `AutoscaleStats` (latency samples included).
/// Pinned on the exact quick-scale `fig_autoscale` configurations.
#[test]
fn fig_autoscale_rows_are_bit_identical_across_shards() {
    use deflate_bench::autoscale_exp::{autoscale_profiles, AutoscaleVariant};
    use vmdeflate::cluster::spec::{paper_server_capacity, servers_for_transient_overcommitment};
    let scale = Scale::Quick;
    let workload = transient_workload(scale);
    for profile in autoscale_profiles() {
        for variant in AutoscaleVariant::ALL {
            let app = deflate_bench::autoscale_exp::elastic_app();
            let capacity = paper_server_capacity();
            let background = servers_for_transient_overcommitment(
                &workload,
                capacity,
                0.0,
                profile.mean_availability(),
            );
            let elastic =
                (app.max_replicas as f64 * app.replica_size.cpu() / capacity.cpu()).ceil() as usize;
            let servers = background + elastic;
            let schedule = CapacitySchedule::generate(&TransientConfig {
                num_servers: servers,
                transient_fraction: 1.0,
                duration_secs: scale.cluster_trace_hours() * 3600.0,
                profile,
                seed: scale.seed(),
            });
            let config = ClusterConfig {
                num_servers: servers,
                server_capacity: capacity,
                placement: PlacementKind::CosineFitness,
                partitions: PartitionScheme::None,
                mechanism: DeflationMechanism::Transparent,
            };
            let run = |shards: usize| {
                ClusterSimulation::new(
                    config.clone(),
                    ReclamationMode::Deflation(std::sync::Arc::new(
                        ProportionalDeflation::default(),
                    )),
                )
                .with_capacity_schedule(schedule.clone())
                .with_migrate_back(true)
                .with_migration_cost(default_migration_cost())
                .with_utilization_ticks(deflate_bench::autoscale_exp::AUTOSCALE_TICK_SECS)
                .with_autoscale(variant.policy(), vec![app.clone()])
                .with_shards(ShardConfig::with_shards(shards))
                .run(&workload)
            };
            let sequential = run(1);
            assert!(
                sequential.autoscale.scale_actions() > 0,
                "parity would be vacuous without scaling activity"
            );
            for shards in [2, 4] {
                let sharded = run(shards);
                assert_eq!(
                    sequential,
                    sharded,
                    "fig_autoscale {} / {} diverged at {} shards",
                    profile.name(),
                    variant.name(),
                    shards
                );
            }
        }
    }
}

/// Parity holds with telemetry enabled: every sink on (metrics,
/// profiler, JSONL event log, Chrome trace — all in memory) at shards
/// {2, 4} still reproduces the sequential telemetry-off run bit for
/// bit, and the sinks actually collected data (the case is not
/// vacuous). Spans and event logging ride the coordinator and worker
/// threads, so this is the test that would catch observation leaking
/// into the engine's event order.
#[test]
fn telemetry_enabled_runs_are_bit_identical_across_shards() {
    use deflate_bench::scale_exp::{run_scale_cell, run_scale_cell_with_telemetry, scale_workload};
    use vmdeflate::telemetry::{TelemetryEventSet, TelemetrySink, TelemetrySpec};
    let scale = Scale::Quick;
    let workload = scale_workload(scale, 400);
    let (baseline, _) = run_scale_cell(&workload, scale, ShardConfig::sequential());
    for shards in [2, 4] {
        let spec = TelemetrySpec::profiling()
            .with_event_log("unused.jsonl")
            .with_event_kinds(TelemetryEventSet::all())
            .with_chrome_trace("unused.trace.json");
        let sink = TelemetrySink::in_memory(&spec);
        let (observed, _) = run_scale_cell_with_telemetry(
            &workload,
            scale,
            ShardConfig::with_shards(shards),
            sink.clone(),
        );
        assert_eq!(
            baseline, observed,
            "telemetry-enabled run diverged at {shards} shards"
        );
        let report = sink.report();
        assert!(!report.phases.is_empty(), "profiler collected nothing");
        assert!(report.event_lines > 0, "event log collected nothing");
        assert!(
            report.phases.shards.len() >= shards,
            "per-shard worker rows missing"
        );
    }
}

/// Parity holds with the online invariant auditor on: every checker
/// enabled at shards {2, 4} still reproduces the sequential auditor-off
/// run bit for bit. The auditor runs on the coordinator after each
/// event, so this is the test that would catch a checker perturbing the
/// sharded engine's merge order — or an invariant that only holds
/// sequentially.
#[test]
fn audited_runs_are_bit_identical_across_shards() {
    use deflate_bench::scale_exp::{run_scale_cell, run_scale_cell_audited, scale_workload};
    use vmdeflate::core::audit::AuditSpec;
    let scale = Scale::Quick;
    let workload = scale_workload(scale, 400);
    let (baseline, _) = run_scale_cell(&workload, scale, ShardConfig::sequential());
    for shards in [2, 4] {
        let (observed, _) = run_scale_cell_audited(
            &workload,
            scale,
            ShardConfig::with_shards(shards),
            AuditSpec::all(),
        );
        assert_eq!(
            baseline, observed,
            "auditor-enabled run diverged at {shards} shards"
        );
    }
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

/// Snapshots taken under sharded engines restore to the sequential
/// run's result: checkpoint at shards ∈ {2, 4}, resume sequentially
/// (and crosswise), full `SimResult` equality throughout. Together with
/// the byte-identity pin in `tests/checkpoint_restore.rs` this closes
/// the loop: sharding affects neither the bytes nor what they restore
/// to.
#[test]
fn sharded_snapshots_restore_to_the_sequential_result() {
    let scale = Scale::Quick;
    let workload = transient_workload(scale);
    let profile = CapacityProfile::spot_market_default();
    let cost = default_migration_cost();
    let sim = |shards: usize| {
        deflate_bench::transient_exp::transient_simulation(
            &workload,
            scale,
            TransientMode::Deflation,
            profile,
            cost,
            TransferPolicy::fifo(),
        )
        .with_shards(ShardConfig::with_shards(shards))
    };
    let sequential_full = sim(1).run(&workload);
    let at = 5.0 * 3600.0;
    let sequential_snap = sim(1).checkpoint(&workload, at);
    for shards in [2, 4] {
        let sharded_snap = sim(shards).checkpoint(&workload, at);
        assert_eq!(
            sequential_snap, sharded_snap,
            "snapshot bytes changed at {shards} shards"
        );
        let resumed_sequentially = sim(1).resume(&workload, &sharded_snap).expect("restores");
        assert_eq!(
            sequential_full, resumed_sequentially,
            "sequential restore of a {shards}-shard snapshot diverged"
        );
        let resumed_sharded = sim(shards)
            .resume(&workload, &sequential_snap)
            .expect("restores");
        assert_eq!(
            sequential_full, resumed_sharded,
            "{shards}-shard restore of the sequential snapshot diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomised parity: arbitrary trace seeds, shard counts (including
    /// counts above the server count), capacity profiles and migrate-back
    /// settings all produce the sequential result, bit for bit.
    #[test]
    fn random_configurations_are_bit_identical_across_shards(
        seed in 0u64..10_000,
        num_vms in 60usize..180,
        shards in 2usize..9,
        profile_pick in 0usize..3,
        migrate_back in 0usize..2,
    ) {
        let traces = AzureTraceGenerator::generate(&AzureTraceConfig {
            num_vms,
            duration_hours: 8.0,
            seed,
            ..Default::default()
        });
        let workload = workload_from_azure(&traces, MinAllocationRule::None);
        let capacity = ResourceVector::cpu_mem(48_000.0, 131_072.0);
        let servers = vmdeflate::cluster::spec::min_cluster_size(&workload, capacity)
            .saturating_sub(1)
            .max(2);
        let profile = match profile_pick {
            0 => CapacityProfile::square_wave_default(),
            1 => CapacityProfile::diurnal_default(),
            _ => CapacityProfile::spot_market_default(),
        };
        let schedule = CapacitySchedule::generate(&TransientConfig {
            num_servers: servers,
            transient_fraction: 1.0,
            duration_secs: 8.0 * 3600.0,
            profile,
            seed,
        });
        let config = ClusterConfig {
            num_servers: servers,
            server_capacity: capacity,
            placement: PlacementKind::CosineFitness,
            partitions: PartitionScheme::None,
            mechanism: DeflationMechanism::Transparent,
        };
        let run = |n: usize| {
            ClusterSimulation::new(
                config.clone(),
                ReclamationMode::Deflation(std::sync::Arc::new(
                    ProportionalDeflation::default(),
                )),
            )
            .with_capacity_schedule(schedule.clone())
            .with_migrate_back(migrate_back == 1)
            .with_migration_cost(
                MigrationCostModel::lan_default()
                    .with_budget_mbps(1250.0)
                    .with_deadline_secs(30.0)
                    .with_dirty_rate(800.0, 2.0),
            )
            .with_transfer_policy(TransferPolicy::edf())
            .with_utilization_ticks(1800.0)
            .with_shards(ShardConfig::with_shards(n))
            .run(&workload)
        };
        let sequential = run(1);
        let sharded = run(shards);
        prop_assert_eq!(&sequential, &sharded);
        // The deterministic event count is part of the contract.
        prop_assert_eq!(
            sequential.runtime.events_processed,
            sharded.runtime.events_processed
        );
    }
}

//! Integration tests for the deflation-aware autoscaling subsystem:
//!
//! * **Disabled golden** — `AutoscalePolicy::Disabled` runs are
//!   bit-identical to runs of the simulator that never heard of
//!   autoscaling (the pre-subsystem behaviour every other golden test
//!   pins transitively, since `Disabled` is the default).
//! * **Conservation** — the autoscaler never creates or destroys capacity
//!   outside the `ClusterManager`'s accounting: every replica it ever
//!   launched is an admission attempt in the manager's counters, and ends
//!   the run either still in the pool, retired by a scale-in, or evicted
//!   by a reclamation.

use deflate_bench::autoscale_exp::{run_autoscale, AutoscaleVariant};
use deflate_bench::scale::Scale;
use deflate_bench::transient_exp::{
    default_migration_cost, run_transient_scheduled, transient_workload, TransientMode,
};
use proptest::prelude::*;
use std::sync::Arc;
use vmdeflate::autoscale::{AutoscalePolicy, DemandCurve, ElasticApp};
use vmdeflate::cluster::manager::{ClusterConfig, PlacementKind, ReclamationMode};
use vmdeflate::cluster::sim::ClusterSimulation;
use vmdeflate::core::placement::PartitionScheme;
use vmdeflate::core::policy::{ProportionalDeflation, TransferPolicy};
use vmdeflate::core::resources::ResourceVector;
use vmdeflate::core::vm::Priority;
use vmdeflate::hypervisor::domain::DeflationMechanism;
use vmdeflate::transient::signal::{CapacityProfile, CapacitySchedule, TransientConfig};

/// `Disabled` autoscaling (with apps configured!) is bit-identical to a
/// run that never called `with_autoscale` — the golden gate on the PR 4
/// engine behaviour.
#[test]
fn disabled_autoscale_is_bit_identical_to_the_pre_subsystem_engine() {
    let scale = Scale::Quick;
    let workload = transient_workload(scale);
    let profile = CapacityProfile::spot_market_default();
    let plain = run_transient_scheduled(
        &workload,
        scale,
        TransientMode::Deflation,
        profile,
        default_migration_cost(),
        TransferPolicy::fifo(),
    );
    // Same configuration, but with an (inert) autoscale knob and apps.
    let capacity = vmdeflate::cluster::spec::paper_server_capacity();
    let servers = vmdeflate::cluster::spec::servers_for_transient_overcommitment(
        &workload,
        capacity,
        0.0,
        profile.mean_availability(),
    );
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
    let disabled = ClusterSimulation::new(
        config,
        ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default())),
    )
    .with_capacity_schedule(schedule)
    .with_migrate_back(true)
    .with_migration_cost(default_migration_cost())
    .with_transfer_policy(TransferPolicy::fifo())
    .with_autoscale(AutoscalePolicy::Disabled, vec![test_app(1_000_000)])
    .run(&workload);
    assert_eq!(plain, disabled);
    assert_eq!(disabled.autoscale, Default::default());
}

fn test_app(ids_from: u64) -> ElasticApp {
    ElasticApp {
        app: 0,
        replica_size: ResourceVector::cpu_mem(4000.0, 8192.0),
        replica_priority: Priority::new(0.5),
        replica_rate_rps: 100.0,
        replica_ids_from: ids_from,
        min_replicas: 2,
        max_replicas: 16,
        demand: DemandCurve::Diurnal {
            base_rps: 200.0,
            peak_rps: 900.0,
            period_secs: 4.0 * 3600.0,
            peak_at_secs: 0.0,
        },
        start_secs: 0.0,
    }
}

/// The experiment's own quick configurations conserve replicas and route
/// every launch through the manager's admission accounting.
#[test]
fn autoscaler_capacity_flows_through_manager_accounting() {
    let workload = transient_workload(Scale::Quick);
    for variant in AutoscaleVariant::ALL {
        let result = run_autoscale(
            &workload,
            Scale::Quick,
            variant,
            CapacityProfile::spot_market_default(),
        );
        let stats = &result.autoscale;
        assert!(stats.replicas_conserved(), "{}: {stats:?}", variant.name());
        // Every replica launch (successful or refused) is a manager
        // admission attempt on top of the workload's arrivals: the
        // autoscaler cannot conjure capacity past the admission path.
        assert_eq!(
            result.counters.attempts(),
            workload.len() + stats.launches + stats.launch_failures,
            "{}",
            variant.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation under randomized configurations: arbitrary seeds,
    /// profiles and policies all keep the replica ledger balanced and the
    /// admission counters consistent — and repeated runs are
    /// bit-identical.
    #[test]
    fn conservation_holds_for_random_configurations(
        seed in 0u64..10_000,
        num_vms in 60usize..160,
        profile_pick in 0usize..3,
        deflation_aware in 0usize..2,
    ) {
        let traces = vmdeflate::traces::azure::AzureTraceGenerator::generate(
            &vmdeflate::traces::azure::AzureTraceConfig {
                num_vms,
                duration_hours: 8.0,
                seed,
                ..Default::default()
            },
        );
        let workload = vmdeflate::cluster::spec::workload_from_azure(
            &traces,
            vmdeflate::cluster::spec::MinAllocationRule::None,
        );
        let capacity = ResourceVector::cpu_mem(48_000.0, 131_072.0);
        let servers = vmdeflate::cluster::spec::min_cluster_size(&workload, capacity).max(2) + 2;
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
        let policy = if deflation_aware == 1 {
            AutoscalePolicy::deflation_aware()
        } else {
            AutoscalePolicy::target_tracking()
        };
        let run = || ClusterSimulation::new(
            config.clone(),
            ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default())),
        )
        .with_capacity_schedule(schedule.clone())
        .with_migrate_back(true)
        .with_migration_cost(default_migration_cost())
        .with_utilization_ticks(600.0)
        .with_autoscale(policy, vec![test_app(1_000_000)])
        .run(&workload);
        let result = run();
        let stats = &result.autoscale;
        prop_assert!(stats.replicas_conserved(), "{stats:?}");
        prop_assert_eq!(
            result.counters.attempts(),
            workload.len() + stats.launches + stats.launch_failures
        );
        prop_assert!(stats.ticks > 0);
        prop_assert_eq!(&result, &run());
    }
}

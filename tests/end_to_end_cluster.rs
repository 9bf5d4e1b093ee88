//! End-to-end integration tests: synthetic trace → cluster workload →
//! trace-driven simulation → the paper's headline cluster-level claims.

use std::sync::Arc;
use vmdeflate::cluster::prelude::*;
use vmdeflate::core::placement::PartitionScheme;
use vmdeflate::core::policy::{DeterministicDeflation, PriorityDeflation, ProportionalDeflation};
use vmdeflate::core::pricing::{PricingPolicy, RateCard};
use vmdeflate::hypervisor::domain::DeflationMechanism;
use vmdeflate::traces::azure::{AzureTraceConfig, AzureTraceGenerator};

fn workload(num_vms: usize, seed: u64, min_rule: MinAllocationRule) -> Vec<WorkloadVm> {
    let traces = AzureTraceGenerator::generate(&AzureTraceConfig {
        num_vms,
        duration_hours: 12.0,
        seed,
        ..Default::default()
    });
    workload_from_azure(&traces, min_rule)
}

fn config_at(workload: &[WorkloadVm], overcommitment: f64) -> ClusterConfig {
    let capacity = paper_server_capacity();
    let servers = servers_for_overcommitment(workload, capacity, overcommitment);
    ClusterConfig {
        num_servers: servers,
        server_capacity: capacity,
        placement: PlacementKind::CosineFitness,
        partitions: PartitionScheme::None,
        mechanism: DeflationMechanism::Transparent,
    }
}

#[test]
fn headline_claim_deflation_nearly_eliminates_preemptions() {
    // §7.4.1 / Figure 20: at 50% overcommitment deflation keeps the failure
    // probability near zero while the preemption baseline preempts a sizable
    // fraction of low-priority VMs.
    let workload = workload(700, 101, MinAllocationRule::None);
    let config = config_at(&workload, 0.5);

    let deflation = ClusterSimulation::new(
        config.clone(),
        ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default())),
    )
    .run(&workload);
    let preemption = ClusterSimulation::new(config, ReclamationMode::Preemption).run(&workload);

    assert!(
        deflation.failure_probability() < 0.02,
        "deflation failure probability {}",
        deflation.failure_probability()
    );
    assert!(
        preemption.failure_probability() > 5.0 * deflation.failure_probability(),
        "preemption ({}) should fail far more often than deflation ({})",
        preemption.failure_probability(),
        deflation.failure_probability()
    );
}

#[test]
fn headline_claim_throughput_loss_is_small_and_priority_policies_reduce_it() {
    // §7.4.2 / Figure 21: small throughput loss at moderate overcommitment;
    // priority-aware policies lose less than plain proportional.
    let plain_workload = workload(700, 202, MinAllocationRule::None);
    let config = config_at(&plain_workload, 0.5);
    let proportional = ClusterSimulation::new(
        config.clone(),
        ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default())),
    )
    .run(&plain_workload);

    let priority_workload = workload(700, 202, MinAllocationRule::PriorityTimesMax);
    let priority = ClusterSimulation::new(
        config_at(&priority_workload, 0.5),
        ReclamationMode::Deflation(Arc::new(PriorityDeflation::default())),
    )
    .run(&priority_workload);
    let deterministic = ClusterSimulation::new(
        config,
        ReclamationMode::Deflation(Arc::new(DeterministicDeflation::binary())),
    )
    .run(&plain_workload);

    assert!(
        proportional.mean_throughput_loss() < 0.08,
        "proportional loss {}",
        proportional.mean_throughput_loss()
    );
    assert!(
        priority.mean_throughput_loss() <= proportional.mean_throughput_loss() + 0.01,
        "priority loss {} should not exceed proportional {}",
        priority.mean_throughput_loss(),
        proportional.mean_throughput_loss()
    );
    assert!(deterministic.mean_throughput_loss() <= 1.0);
}

#[test]
fn headline_claim_overcommitment_raises_per_server_revenue() {
    // §7.4.3 / Figure 22: static pricing revenue per server grows with
    // overcommitment; priority pricing earns more than static.
    let workload = workload(700, 303, MinAllocationRule::None);
    let rates = RateCard::default();
    let static_pricing = PricingPolicy::static_default();

    let run = |oc: f64| {
        ClusterSimulation::new(
            config_at(&workload, oc),
            ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default())),
        )
        .run(&workload)
    };
    let base = run(0.0);
    let over = run(0.5);
    let base_rev = base.deflatable_revenue_per_server(&static_pricing, &rates);
    let over_rev = over.deflatable_revenue_per_server(&static_pricing, &rates);
    assert!(
        over_rev > base_rev * 1.1,
        "per-server revenue should grow with overcommitment: {base_rev} -> {over_rev}"
    );
    // Priority pricing charges more than the flat 0.2× discount overall.
    let priority_rev = over.deflatable_revenue_per_server(&PricingPolicy::PriorityBased, &rates);
    assert!(
        priority_rev > over_rev,
        "priority pricing {priority_rev} should beat static {over_rev}"
    );
}

#[test]
fn partitioned_cluster_still_admits_and_isolates_priorities() {
    let workload = workload(500, 404, MinAllocationRule::PriorityTimesMax);
    let capacity = paper_server_capacity();
    let servers = servers_for_overcommitment(&workload, capacity, 0.4).max(4);
    let config = ClusterConfig {
        num_servers: servers,
        server_capacity: capacity,
        placement: PlacementKind::CosineFitness,
        partitions: PartitionScheme::ByPriority { pools: 4 },
        mechanism: DeflationMechanism::Transparent,
    };
    let result = ClusterSimulation::new(
        config,
        ReclamationMode::Deflation(Arc::new(PriorityDeflation::default())),
    )
    .run(&workload);
    // Partitioning may reject a few more VMs (full pools) but must stay sane.
    assert!(result.failure_probability() < 0.3);
    assert!(result.mean_throughput_loss() < 0.2);
}

#[test]
fn every_record_is_consistent() {
    let workload = workload(400, 505, MinAllocationRule::None);
    let result = ClusterSimulation::new(
        config_at(&workload, 0.3),
        ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default())),
    )
    .run(&workload);
    assert_eq!(result.records.len(), workload.len());
    for record in &result.records {
        match record.outcome {
            VmOutcome::Rejected => assert!(!record.usage.placed()),
            _ => {
                assert!(record.usage.placed());
                // Placement records the first change-point at arrival; a
                // VM never deflated keeps that one.
                if !record.usage.ever_deflated() {
                    let (t, f) = record.usage.last_change().unwrap();
                    assert_eq!(t, record.arrival_secs);
                    assert!(f >= 1.0 - 1e-9);
                }
                let f = record.mean_allocation_fraction();
                assert!((0.0..=1.0 + 1e-9).contains(&f));
                assert!((0.0..=1.0).contains(&record.throughput_loss()));
            }
        }
        assert!(record.hours_run() >= 0.0);
        assert!(record.revenue(&PricingPolicy::static_default(), &RateCard::default()) >= 0.0);
    }
    // Counters line up with records.
    assert_eq!(
        result.counters.rejected,
        result
            .records
            .iter()
            .filter(|r| matches!(r.outcome, VmOutcome::Rejected))
            .count()
    );
}

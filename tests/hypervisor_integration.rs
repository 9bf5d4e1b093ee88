//! Integration tests across `deflate-core` and `deflate-hypervisor`: the
//! per-server controller driving real (simulated) domains through the
//! policies, exactly the §6 admission flow.

use std::sync::Arc;
use vmdeflate::core::policy::{DeterministicDeflation, PriorityDeflation, ProportionalDeflation};
use vmdeflate::core::prelude::*;
use vmdeflate::hypervisor::prelude::*;

fn server() -> SimServer {
    SimServer::new(
        ServerId(0),
        ResourceVector::new(32_000.0, 65_536.0, 2_000.0, 10_000.0),
    )
}

fn web_vm(id: u64, cores: f64, priority: f64) -> VmSpec {
    VmSpec::deflatable(
        VmId(id),
        VmClass::Interactive,
        ResourceVector::new(cores * 1000.0, cores * 2048.0, 200.0, 1000.0),
    )
    .with_priority(Priority::new(priority))
}

#[test]
fn admission_under_pressure_respects_capacity_for_every_policy_and_mechanism() {
    let policies: Vec<Arc<dyn DeflationPolicy>> = vec![
        Arc::new(ProportionalDeflation::default()),
        Arc::new(ProportionalDeflation::by_size()),
        Arc::new(PriorityDeflation::weighted()),
        Arc::new(DeterministicDeflation::with_partial_last()),
    ];
    for policy in policies {
        for mechanism in [
            DeflationMechanism::Transparent,
            DeflationMechanism::Hybrid,
            DeflationMechanism::Explicit,
        ] {
            let mut controller = LocalController::new(server(), Arc::clone(&policy), mechanism);
            // Fill the server and then push three more VMs into it.
            for i in 0..7 {
                let outcome = controller
                    .try_admit(web_vm(i, 8.0, 0.2 + 0.1 * i as f64), &mut Vec::new())
                    .unwrap();
                assert!(
                    !matches!(outcome, AdmissionOutcome::Rejected { .. }),
                    "policy {} mechanism {:?} rejected VM {i}",
                    controller.policy_name(),
                    mechanism
                );
            }
            // Physical capacity is never violated regardless of policy or
            // mechanism granularity.
            assert!(
                controller.server().check_capacity_invariant().is_ok(),
                "capacity violated for {} / {:?}",
                controller.policy_name(),
                mechanism
            );
            // The server is overcommitted: committed > capacity.
            assert!(controller.server().overcommitment_factor() > 1.5);
        }
    }
}

#[test]
fn hybrid_mechanism_uses_hotplug_and_multiplexing_together() {
    let policy = Arc::new(ProportionalDeflation::default());
    let mut controller = LocalController::new(server(), policy, DeflationMechanism::Hybrid);
    controller
        .try_admit(web_vm(1, 16.0, 0.5), &mut Vec::new())
        .unwrap();
    controller
        .try_admit(web_vm(2, 16.0, 0.5), &mut Vec::new())
        .unwrap();
    // Report realistic guest usage so the hotplug thresholds are meaningful.
    for domain in controller.server_mut().domains_mut() {
        let usage = domain.spec.max_allocation * 0.3;
        domain.report_guest_usage(usage, 2048.0);
    }
    // A third VM forces both residents to shrink by half.
    controller
        .try_admit(web_vm(3, 16.0, 0.5), &mut Vec::new())
        .unwrap();
    for id in [1u64, 2] {
        let domain = controller.server().domain(VmId(id)).unwrap();
        let eff = domain.effective_allocation();
        assert!(eff.cpu() < 16_000.0, "vm-{id} was not deflated");
        // Hybrid deflation made part of the reduction visible to the guest.
        assert!(
            domain.guest().online_vcpus() < domain.guest().boot_vcpus(),
            "vm-{id} guest saw no hotplug"
        );
        // And the guest never lost memory below its resident set.
        assert!(domain.guest().plugged_memory_mb() >= domain.guest().rss_mb());
    }
}

#[test]
fn departure_reinflation_grows_survivors_and_completes() {
    let policy = Arc::new(PriorityDeflation::default());
    let mut controller = LocalController::new(server(), policy, DeflationMechanism::Transparent);
    for i in 0..6 {
        controller
            .try_admit(web_vm(i, 8.0, 0.3 + 0.1 * i as f64), &mut Vec::new())
            .unwrap();
    }
    let before: Vec<(VmId, ResourceVector)> = controller
        .server()
        .domains()
        .map(|d| (d.spec.id, d.effective_allocation()))
        .collect();
    // Remove half the VMs one by one; survivors must end fully reinflated.
    controller.on_departure(VmId(0), &mut Vec::new()).unwrap();
    controller.on_departure(VmId(2), &mut Vec::new()).unwrap();
    controller.on_departure(VmId(4), &mut Vec::new()).unwrap();
    assert!(
        before.iter().any(|&(id, old)| controller
            .server()
            .domain(id)
            .is_some_and(|d| d.effective_allocation().total() > old.total())),
        "no survivor was reinflated"
    );
    for domain in controller.server().domains() {
        assert_eq!(
            domain.effective_allocation(),
            domain.spec.max_allocation,
            "{} not fully reinflated",
            domain.spec.id
        );
    }
}

#[test]
fn vector_planner_matches_controller_behaviour() {
    // Plan through the public VectorPlanner API and apply it manually: the
    // server must end up in the same state the controller produces.
    let policy = ProportionalDeflation::default();
    let mut manual = server();
    manual
        .create_domain(web_vm(1, 12.0, 0.5), DeflationMechanism::Transparent)
        .unwrap();
    manual
        .create_domain(web_vm(2, 12.0, 0.5), DeflationMechanism::Transparent)
        .unwrap();
    let demand = ResourceVector::cpu_mem(8_000.0, 16_384.0);
    let needed = demand.saturating_sub(&manual.free());
    let domains: Vec<_> = manual.domains().collect();
    let plan = VectorPlanner::plan(&policy, &domains, needed);
    assert!(plan.satisfied());
    let targets = plan.targets.clone();
    drop(domains);
    manual.apply_targets(&targets, &mut Vec::new()).unwrap();
    assert!(demand.fits_within(&manual.free()));

    let mut auto =
        LocalController::new(server(), Arc::new(policy), DeflationMechanism::Transparent);
    auto.try_admit(web_vm(1, 12.0, 0.5), &mut Vec::new())
        .unwrap();
    auto.try_admit(web_vm(2, 12.0, 0.5), &mut Vec::new())
        .unwrap();
    auto.try_admit(
        VmSpec::deflatable(VmId(3), VmClass::Interactive, demand).with_priority(Priority::new(0.5)),
        &mut Vec::new(),
    )
    .unwrap();
    for id in [1u64, 2] {
        let manual_alloc = manual.domain(VmId(id)).unwrap().effective_allocation();
        let auto_alloc = auto
            .server()
            .domain(VmId(id))
            .unwrap()
            .effective_allocation();
        assert!(
            (manual_alloc.cpu() - auto_alloc.cpu()).abs() < 1e-6,
            "vm-{id}: manual {manual_alloc} vs controller {auto_alloc}"
        );
    }
}

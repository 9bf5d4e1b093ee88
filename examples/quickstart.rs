//! Quickstart: deflate VMs on a single server.
//!
//! This example walks through the core workflow of the library:
//!
//! 1. create a simulated server and launch VMs on it through the per-server
//!    local controller;
//! 2. admit a new VM under resource pressure, letting the proportional
//!    deflation policy shrink the residents to make room;
//! 3. compare each resident's allocation before and after the admission
//!    (the change a deflation-aware load balancer would react to);
//! 4. remove a VM and watch the survivors reinflate.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;
use vmdeflate::core::policy::ProportionalDeflation;
use vmdeflate::core::prelude::*;
use vmdeflate::hypervisor::prelude::*;

fn main() {
    // A 32-core, 64 GiB server.
    let server = SimServer::new(
        ServerId(0),
        ResourceVector::new(32_000.0, 65_536.0, 2_000.0, 10_000.0),
    );
    let policy = Arc::new(ProportionalDeflation::default());
    let mut controller = LocalController::new(server, policy, DeflationMechanism::Hybrid);
    // The controller logs which residents' CPU allocation moved; a
    // cluster manager folds that log, this walkthrough compares by hand.
    let mut changed = Vec::new();

    // Two deflatable web VMs fill most of the server.
    for (id, cores, mem_gib) in [(1u64, 16.0, 24.0), (2, 12.0, 24.0)] {
        let spec = VmSpec::deflatable(
            VmId(id),
            VmClass::Interactive,
            ResourceVector::new(cores * 1000.0, mem_gib * 1024.0, 500.0, 2_000.0),
        )
        .with_priority(Priority::new(0.4));
        let outcome = controller
            .try_admit(spec, &mut changed)
            .expect("valid spec");
        println!("vm-{id}: admitted -> {outcome:?}");
    }

    // A high-priority on-demand VM arrives; the residents must shrink.
    let before: Vec<(VmId, ResourceVector)> = controller
        .server()
        .domains()
        .map(|d| (d.spec.id, d.effective_allocation()))
        .collect();
    let on_demand = VmSpec::on_demand(
        VmId(3),
        VmClass::Unknown,
        ResourceVector::new(12_000.0, 24_576.0, 500.0, 2_000.0),
    );
    let outcome = controller
        .try_admit(on_demand, &mut changed)
        .expect("valid spec");
    println!("vm-3 (on-demand): admitted -> {outcome:?}");

    println!("\nAllocation changes (what the load balancer would react to):");
    for (id, old) in before {
        let new = controller
            .server()
            .domain(id)
            .expect("resident")
            .effective_allocation();
        if new != old {
            println!("  {id}: {old} -> {new}");
        }
    }

    println!("\nAllocations after admission under pressure:");
    for domain in controller.server().domains() {
        println!(
            "  {} deflated {:.0}% -> {}",
            domain.spec.id,
            100.0 * domain.deflation_fraction(ResourceKind::Cpu),
            domain.effective_allocation()
        );
    }

    // The on-demand VM departs; the deflated VMs get their resources back.
    controller
        .on_departure(VmId(3), &mut changed)
        .expect("vm-3 is resident");
    println!("\nAfter vm-3 departs (reinflation):");
    for domain in controller.server().domains() {
        println!(
            "  {} deflated {:.0}% -> {}",
            domain.spec.id,
            100.0 * domain.deflation_fraction(ResourceKind::Cpu),
            domain.effective_allocation()
        );
    }
}

//! Property-based tests on the core deflation model: resource vectors,
//! deflation policies and the performance-response model.

use proptest::prelude::*;
use std::ops::Range;
use vmdeflate::core::perfmodel::PerfModel;
use vmdeflate::core::policy::{
    DeflationPolicy, DeterministicDeflation, PlanScratch, PriorityDeflation, ProportionalDeflation,
    VmResourceState,
};
use vmdeflate::core::resources::{ResourceKind, ResourceVector};
use vmdeflate::core::vm::VmId;

fn arb_vector() -> impl Strategy<Value = ResourceVector> {
    (
        0.0f64..64_000.0,
        0.0f64..262_144.0,
        0.0f64..2_000.0,
        0.0f64..10_000.0,
    )
        .prop_map(|(c, m, d, n)| ResourceVector::new(c, m, d, n))
}

/// A set of deflatable-VM scalar states with consistent `min ≤ current ≤ max`.
fn arb_vm_states(max_vms: usize) -> impl Strategy<Value = Vec<VmResourceState>> {
    arb_vm_states_in(1..max_vms)
}

/// [`arb_vm_states`] with a VM count drawn from `count`.
fn arb_vm_states_in(count: Range<usize>) -> impl Strategy<Value = Vec<VmResourceState>> {
    prop::collection::vec(
        (
            1.0f64..32_000.0, // max
            0.0f64..1.0,      // min as a fraction of max
            0.0f64..1.0,      // current as a fraction of the [min, max] span
            0.05f64..1.0,     // priority
        ),
        count,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (max, min_frac, cur_frac, priority))| {
                let min = max * min_frac;
                let current = min + (max - min) * cur_frac;
                VmResourceState {
                    id: VmId(i as u64),
                    max,
                    min,
                    current,
                    priority,
                }
            })
            .collect()
    })
}

fn check_plan_invariants(
    policy: &dyn DeflationPolicy,
    vms: &[VmResourceState],
    demand: f64,
) -> Result<(), TestCaseError> {
    let plan = policy.plan(vms, demand);
    prop_assert_eq!(plan.targets.len(), vms.len());
    let mut total_reclaimed = 0.0;
    for (vm, (id, target)) in vms.iter().zip(plan.targets.iter()) {
        prop_assert_eq!(*id, vm.id);
        // Targets always stay within [min, max].
        prop_assert!(
            *target >= vm.min - 1e-6 && *target <= vm.max + 1e-6,
            "target {} outside [{}, {}]",
            target,
            vm.min,
            vm.max
        );
        total_reclaimed += vm.current - *target;
    }
    // Reported reclamation matches the targets.
    prop_assert!(
        (total_reclaimed - plan.reclaimed).abs() < 1e-6,
        "reported {} vs actual {}",
        plan.reclaimed,
        total_reclaimed
    );
    if demand >= 0.0 {
        // Never reclaim more than the deflatable headroom, and the shortfall
        // accounts for exactly the unmet part (binary policies may
        // over-reclaim relative to the demand, but never below a satisfied
        // demand).
        prop_assert!(plan.shortfall >= -1e-6);
        prop_assert!(total_reclaimed + plan.shortfall >= demand - 1e-6 || plan.shortfall > 0.0);
        let headroom: f64 = vms.iter().map(|v| v.deflatable_headroom()).sum();
        prop_assert!(total_reclaimed <= headroom + 1e-6);
    } else {
        // Reinflation never takes resources away from anyone.
        for (vm, (_, target)) in vms.iter().zip(plan.targets.iter()) {
            prop_assert!(*target >= vm.current - 1e-6);
        }
    }
    Ok(())
}

/// Every policy variant the engine can be configured with.
fn all_policies() -> Vec<Box<dyn DeflationPolicy>> {
    vec![
        Box::new(ProportionalDeflation::by_size()),
        Box::new(ProportionalDeflation::by_deflatable_span()),
        Box::new(PriorityDeflation::weighted()),
        Box::new(PriorityDeflation::with_priority_floor()),
        Box::new(DeterministicDeflation::binary()),
        Box::new(DeterministicDeflation::with_partial_last()),
    ]
}

/// Plan `calls` in sequence through one reused [`PlanScratch`] and target
/// buffer, and compare each call bit for bit with a fresh `plan`. Each
/// call's demand is its fraction times the VMs' total deflatable span.
fn check_scratch_reuse(
    policy: &dyn DeflationPolicy,
    calls: &[(Vec<VmResourceState>, f64)],
) -> Result<(), TestCaseError> {
    let mut scratch = PlanScratch::new();
    let mut targets = Vec::new();
    for (call, (vms, fraction)) in calls.iter().enumerate() {
        let span: f64 = vms.iter().map(|v| v.deflatable_span()).sum();
        let demand = fraction * span;
        // Poisoned, so a slot the policy fails to write shows up.
        targets.clear();
        targets.resize(vms.len(), f64::NAN);
        let (reclaimed, shortfall) = policy.plan_into(vms, demand, &mut scratch, &mut targets);
        let fresh = policy.plan(vms, demand);
        let name = policy.name();
        prop_assert_eq!(
            reclaimed.to_bits(),
            fresh.reclaimed.to_bits(),
            "{} call {}",
            name,
            call
        );
        prop_assert_eq!(
            shortfall.to_bits(),
            fresh.shortfall.to_bits(),
            "{} call {}",
            name,
            call
        );
        for (got, (_, want)) in targets.iter().zip(&fresh.targets) {
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{} call {}", name, call);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reused_scratch_plans_match_fresh_plans(
        calls in prop::collection::vec((arb_vm_states_in(0..33), -1.5f64..1.5), 1..12),
    ) {
        for policy in all_policies() {
            check_scratch_reuse(policy.as_ref(), &calls)?;
        }
    }

    #[test]
    fn proportional_plan_invariants(vms in arb_vm_states(12), demand in -50_000.0f64..100_000.0) {
        check_plan_invariants(&ProportionalDeflation::default(), &vms, demand)?;
        check_plan_invariants(&ProportionalDeflation::by_size(), &vms, demand)?;
    }

    #[test]
    fn priority_plan_invariants(vms in arb_vm_states(12), demand in -50_000.0f64..100_000.0) {
        check_plan_invariants(&PriorityDeflation::weighted(), &vms, demand)?;
        check_plan_invariants(&PriorityDeflation::with_priority_floor(), &vms, demand)?;
    }

    #[test]
    fn deterministic_plan_invariants(vms in arb_vm_states(12), demand in -50_000.0f64..100_000.0) {
        check_plan_invariants(&DeterministicDeflation::binary(), &vms, demand)?;
        check_plan_invariants(&DeterministicDeflation::with_partial_last(), &vms, demand)?;
    }

    #[test]
    fn proportional_satisfies_feasible_demands(vms in arb_vm_states(12), frac in 0.0f64..1.0) {
        // Any demand within the total headroom is fully satisfied.
        let headroom: f64 = vms.iter().map(|v| v.deflatable_headroom()).sum();
        let demand = headroom * frac;
        let plan = ProportionalDeflation::default().plan(&vms, demand);
        prop_assert!(plan.shortfall < 1e-6, "shortfall {} for feasible demand", plan.shortfall);
    }

    #[test]
    fn vector_addition_and_subtraction_roundtrip(a in arb_vector(), b in arb_vector()) {
        let sum = a + b;
        let back = sum - b;
        for kind in ResourceKind::ALL {
            prop_assert!((back[kind] - a[kind]).abs() < 1e-6);
        }
        prop_assert!(a.saturating_sub(&b).is_non_negative());
        prop_assert!(a.min(&b).fits_within(&a.max(&b)));
    }

    #[test]
    fn cosine_similarity_is_bounded_and_symmetric(a in arb_vector(), b in arb_vector()) {
        let ab = a.cosine_similarity(&b);
        let ba = b.cosine_similarity(&a);
        prop_assert!((-1.0..=1.0).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-9);
        // Scale invariance.
        let scaled = a * 3.7;
        prop_assert!((scaled.cosine_similarity(&b) - ab).abs() < 1e-9);
    }

    #[test]
    fn perf_model_is_monotone_and_bounded(
        slack in 0.0f64..1.0,
        knee in 0.0f64..1.0,
        perf_at_knee in 0.0f64..1.0,
        elasticity in 0.1f64..3.0,
    ) {
        let m = PerfModel::new(slack, knee, perf_at_knee, elasticity);
        let mut prev = f64::INFINITY;
        for i in 0..=50 {
            let p = m.performance(i as f64 / 50.0);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(p <= prev + 1e-9);
            prev = p;
        }
        prop_assert_eq!(m.performance(0.0), 1.0);
    }
}

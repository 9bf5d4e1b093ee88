//! Deterministic (binary, priority-ordered) deflation, §5.1.3.
//!
//! Under deterministic deflation a VM is either at 100 % of its allocation
//! `M_i` or at its pre-specified deflated level `π_i · M_i` — nothing in
//! between. When resources must be reclaimed, deflatable VMs are deflated one
//! by one, lowest priority first, until enough resources have been freed
//! (§7.4.2 explains that "the lower priority VMs ... are penalized more").
//! Reinflation restores the highest-priority deflated VMs first.

use super::{build_targets, DeflationPolicy, PlanScratch, VmResourceState};
use serde::{Deserialize, Serialize};

/// Deterministic deflation policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DeterministicDeflation {
    /// When `true`, the last VM in the deflation order may be deflated
    /// *partially* (between `π·M` and `M`) so that exactly the demanded
    /// amount is reclaimed. The paper's policy is strictly binary
    /// (`allow_partial_last = false`); the relaxation is provided for
    /// ablation experiments.
    pub allow_partial_last: bool,
}

impl DeterministicDeflation {
    /// Strictly binary deterministic deflation (the paper's policy).
    pub fn binary() -> Self {
        Self::default()
    }

    /// Variant that allows the final VM to be partially deflated.
    pub fn with_partial_last() -> Self {
        DeterministicDeflation {
            allow_partial_last: true,
        }
    }

    /// The deterministic deflated level of a VM: `π_i · M_i`, but never below
    /// an explicitly configured minimum.
    fn deflated_level(vm: &VmResourceState) -> f64 {
        (vm.priority * vm.max).max(vm.min)
    }
}

impl DeflationPolicy for DeterministicDeflation {
    fn name(&self) -> &'static str {
        "deterministic"
    }

    fn plan_into(
        &self,
        vms: &[VmResourceState],
        demand: f64,
        scratch: &mut PlanScratch,
        targets: &mut [f64],
    ) -> (f64, f64) {
        let n = vms.len();
        scratch.zero_take(n);
        let PlanScratch {
            take: reclaim,
            active: order,
            ..
        } = scratch;
        order.clear();
        order.extend(0..n);
        if demand >= 0.0 {
            // Deflate lowest priority first (ties broken by larger deflatable
            // amount so fewer VMs are disturbed).
            order.sort_by(|&a, &b| {
                vms[a]
                    .priority
                    .partial_cmp(&vms[b].priority)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| {
                        let da = vms[a].current - Self::deflated_level(&vms[a]);
                        let db = vms[b].current - Self::deflated_level(&vms[b]);
                        db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
                    })
            });
            let mut remaining = demand;
            for &i in order.iter() {
                if remaining <= 1e-9 {
                    break;
                }
                let level = Self::deflated_level(&vms[i]);
                let available = (vms[i].current - level).max(0.0);
                if available <= 1e-12 {
                    continue;
                }
                if self.allow_partial_last && available > remaining {
                    reclaim[i] = remaining;
                    remaining = 0.0;
                } else {
                    // Binary: deflate all the way down to the deterministic
                    // level, even if that over-reclaims slightly.
                    reclaim[i] = available;
                    remaining -= available;
                }
            }
            let shortfall = remaining.max(0.0);
            (build_targets(vms, reclaim, targets), shortfall)
        } else {
            // Reinflation: "the highest priority VMs are reinflated first"
            // (§5.1.3). Binary as well: a VM is restored to its full size if
            // the freed resources cover it.
            let give = -demand;
            order.sort_by(|&a, &b| {
                vms[b]
                    .priority
                    .partial_cmp(&vms[a].priority)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut remaining = give;
            for &i in order.iter() {
                if remaining <= 1e-9 {
                    break;
                }
                let need = vms[i].reinflatable_headroom();
                if need <= 1e-12 {
                    continue;
                }
                if need <= remaining + 1e-9 {
                    reclaim[i] = -need;
                    remaining -= need;
                } else if self.allow_partial_last {
                    reclaim[i] = -remaining;
                    remaining = 0.0;
                }
            }
            (build_targets(vms, reclaim, targets), -remaining.max(0.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmId;

    fn vm(id: u64, max: f64, current: f64, pri: f64) -> VmResourceState {
        VmResourceState {
            id: VmId(id),
            max,
            min: 0.0,
            current,
            priority: pri,
        }
    }

    #[test]
    fn deflates_lowest_priority_first() {
        // VM 1 (π=0.2) can give 8; VM 2 (π=0.8) can give 2.
        let vms = vec![vm(1, 10.0, 10.0, 0.2), vm(2, 10.0, 10.0, 0.8)];
        let plan = DeterministicDeflation::binary().plan(&vms, 5.0);
        assert!(plan.satisfied());
        // Only the low-priority VM is touched and it goes all the way to π·M.
        assert!((plan.target_for(VmId(1)).unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(plan.target_for(VmId(2)).unwrap(), 10.0);
        // Binary semantics over-reclaim: 8 freed for a demand of 5.
        assert!((plan.reclaimed - 8.0).abs() < 1e-9);
    }

    #[test]
    fn cascades_to_next_priority_when_needed() {
        let vms = vec![vm(1, 10.0, 10.0, 0.2), vm(2, 10.0, 10.0, 0.8)];
        let plan = DeterministicDeflation::binary().plan(&vms, 9.0);
        assert!(plan.satisfied());
        assert!((plan.target_for(VmId(1)).unwrap() - 2.0).abs() < 1e-9);
        assert!((plan.target_for(VmId(2)).unwrap() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn partial_last_reclaims_exactly_the_demand() {
        let vms = vec![vm(1, 10.0, 10.0, 0.2), vm(2, 10.0, 10.0, 0.8)];
        let plan = DeterministicDeflation::with_partial_last().plan(&vms, 5.0);
        assert!(plan.satisfied());
        assert!((plan.target_for(VmId(1)).unwrap() - 5.0).abs() < 1e-9);
        assert_eq!(plan.target_for(VmId(2)).unwrap(), 10.0);
    }

    #[test]
    fn shortfall_when_all_levels_reached() {
        let vms = vec![vm(1, 10.0, 10.0, 0.5), vm(2, 10.0, 10.0, 0.5)];
        let plan = DeterministicDeflation::binary().plan(&vms, 15.0);
        assert!(!plan.satisfied());
        assert!((plan.reclaimed - 10.0).abs() < 1e-9);
        assert!((plan.shortfall - 5.0).abs() < 1e-9);
    }

    #[test]
    fn explicit_min_raises_the_deterministic_level() {
        let mut v = vm(1, 10.0, 10.0, 0.2);
        v.min = 6.0;
        let plan = DeterministicDeflation::binary().plan(&[v], 100.0);
        assert!((plan.target_for(VmId(1)).unwrap() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn already_deflated_vm_is_skipped() {
        // VM 1 already sits at its deterministic level.
        let vms = vec![vm(1, 10.0, 2.0, 0.2), vm(2, 10.0, 10.0, 0.6)];
        let plan = DeterministicDeflation::binary().plan(&vms, 3.0);
        assert!(plan.satisfied());
        assert_eq!(plan.target_for(VmId(1)).unwrap(), 2.0);
        assert!((plan.target_for(VmId(2)).unwrap() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn reinflation_restores_highest_priority_first() {
        let vms = vec![vm(1, 10.0, 2.0, 0.2), vm(2, 10.0, 8.0, 0.8)];
        // Only 2 units free: exactly enough to fully restore VM 2 but not VM 1.
        let plan = DeterministicDeflation::binary().plan(&vms, -2.0);
        assert_eq!(plan.target_for(VmId(2)).unwrap(), 10.0);
        assert_eq!(plan.target_for(VmId(1)).unwrap(), 2.0);
        assert!(plan.satisfied());
    }

    #[test]
    fn binary_reinflation_skips_vm_it_cannot_fully_restore() {
        let vms = vec![vm(1, 10.0, 2.0, 0.9)];
        let plan = DeterministicDeflation::binary().plan(&vms, -3.0);
        // Needs 8 to fully restore; binary mode leaves it deflated and
        // reports the surplus.
        assert_eq!(plan.target_for(VmId(1)).unwrap(), 2.0);
        assert!(!plan.satisfied());
        let partial = DeterministicDeflation::with_partial_last().plan(&vms, -3.0);
        assert!((partial.target_for(VmId(1)).unwrap() - 5.0).abs() < 1e-9);
        assert!(partial.satisfied());
    }

    #[test]
    fn name_is_deterministic() {
        assert_eq!(DeterministicDeflation::binary().name(), "deterministic");
    }
}

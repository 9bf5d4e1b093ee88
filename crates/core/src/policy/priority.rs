//! Priority-based (weighted proportional) deflation, Eq 3 and Eq 4 of §5.1.2.
//!
//! Each deflatable VM carries a priority `π_i ∈ (0, 1]`; lower priority means
//! higher deflatability. The paper extends proportional deflation to
//!
//! ```text
//! Eq 3:  x_i = M_i − α3·π_i·M_i
//! Eq 4:  x_i = (M_i − π_i·M_i) − α4·π_i·(M_i − π_i·M_i)     (with m_i = π_i·M_i)
//! ```
//!
//! where the scaling factor `α` is fixed by the constraint `Σ x_i = R`. The
//! closed form can yield negative reclaim amounts for high-priority VMs (they
//! would effectively be *reinflated* to pay for the others), and can exceed a
//! VM's remaining headroom when it is already partially deflated. This
//! implementation therefore solves the same affine system iteratively:
//! compute `α` over the set of unconstrained VMs, clamp any violating VM to
//! its bound, remove it from the active set, and re-solve — the standard
//! active-set treatment whose fixed point coincides with the paper's closed
//! form whenever no bound is hit.

use super::{build_targets, weighted_fill, DeflationPolicy, PlanScratch, VmResourceState};
use serde::{Deserialize, Serialize};

/// How the per-VM deflation floor interacts with the priority level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PriorityMode {
    /// Eq 3: weighted proportional deflation over the full allocation; the
    /// only floor is the VM's own `min` (usually zero).
    Weighted,
    /// Eq 4: the minimum allocation is derived from the priority as
    /// `m_i = π_i · M_i`, and the weighted proportional deflation is applied
    /// to the span above that floor.
    WeightedWithPriorityFloor,
}

/// Priority-weighted proportional deflation policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PriorityDeflation {
    /// Eq 3 vs Eq 4 behaviour.
    pub mode: PriorityMode,
}

impl Default for PriorityDeflation {
    fn default() -> Self {
        PriorityDeflation {
            mode: PriorityMode::WeightedWithPriorityFloor,
        }
    }
}

impl PriorityDeflation {
    /// Eq 3 variant.
    pub fn weighted() -> Self {
        PriorityDeflation {
            mode: PriorityMode::Weighted,
        }
    }

    /// Eq 4 variant (priority-derived minimum allocations).
    pub fn with_priority_floor() -> Self {
        PriorityDeflation {
            mode: PriorityMode::WeightedWithPriorityFloor,
        }
    }

    /// The effective floor for a VM under this mode: its own minimum, raised
    /// to `π_i · M_i` under Eq 4.
    fn floor(&self, vm: &VmResourceState) -> f64 {
        match self.mode {
            PriorityMode::Weighted => vm.min,
            PriorityMode::WeightedWithPriorityFloor => vm.min.max(vm.priority * vm.max),
        }
    }

    /// The deflatable span `D_i` entering the affine system (`M_i` for Eq 3,
    /// `M_i − π_i·M_i` for Eq 4, both reduced by any explicit `min`).
    fn span(&self, vm: &VmResourceState) -> f64 {
        (vm.max - self.floor(vm)).max(0.0)
    }

    /// Solve the clamped affine system for deflation, leaving the per-VM
    /// reclaim in `scratch.take`. Returns the shortfall.
    fn solve_deflation(
        &self,
        vms: &[VmResourceState],
        demand: f64,
        scratch: &mut PlanScratch,
    ) -> f64 {
        let n = vms.len();
        scratch.zero_take(n);
        if n == 0 || demand <= 0.0 {
            return demand.max(0.0);
        }
        // Headroom relative to the *current* allocation and the mode's
        // floor; the span `D_i` is the weight.
        scratch.load(
            vms,
            |vm| (vm.current - self.floor(vm)).max(0.0),
            |vm| self.span(vm),
        );
        let PlanScratch {
            weights: span,
            headrooms: headroom,
            take: reclaim,
            active,
        } = scratch;
        // The VMs not yet fixed at a bound, in input order.
        active.clear();
        active.extend(0..n);
        let mut fixed_total = 0.0f64;

        for _round in 0..n {
            if active.is_empty() {
                break;
            }
            let residual = demand - fixed_total;
            if residual <= 1e-12 {
                break;
            }
            let sum_span: f64 = active.iter().map(|&i| span[i]).sum();
            let sum_pri_span: f64 = active.iter().map(|&i| vms[i].priority * span[i]).sum();
            if sum_span <= 1e-12 {
                break;
            }
            // This round's unclamped solution, parked in `reclaim` (an
            // active VM's entry is zero until it is fixed or accepted).
            if sum_pri_span <= 1e-12 {
                // Degenerate case: all priorities ~0 → plain proportional
                // split.
                for &i in active.iter() {
                    reclaim[i] = residual * span[i] / sum_span;
                }
            } else {
                let alpha = (sum_span - residual) / sum_pri_span;
                for &i in active.iter() {
                    reclaim[i] = span[i] * (1.0 - alpha * vms[i].priority);
                }
            }
            // If nobody violated a bound, accept the solution.
            let violates = |i: usize| reclaim[i] < -1e-12 || reclaim[i] > headroom[i] + 1e-12;
            if !active.iter().any(|&i| violates(i)) {
                for &i in active.iter() {
                    reclaim[i] = reclaim[i].clamp(0.0, headroom[i]);
                }
                break;
            }
            // Clamp violators to their bounds and fix them; the others go
            // back to zero and are re-solved next round.
            active.retain(|&i| {
                let x = reclaim[i];
                if x < -1e-12 {
                    reclaim[i] = 0.0;
                    false
                } else if x > headroom[i] + 1e-12 {
                    reclaim[i] = headroom[i];
                    fixed_total += headroom[i];
                    false
                } else {
                    reclaim[i] = 0.0;
                    true
                }
            });
        }
        let total: f64 = reclaim.iter().sum();
        (demand - total).max(0.0)
    }
}

impl DeflationPolicy for PriorityDeflation {
    fn name(&self) -> &'static str {
        match self.mode {
            PriorityMode::Weighted => "priority-weighted",
            PriorityMode::WeightedWithPriorityFloor => "priority",
        }
    }

    fn plan_into(
        &self,
        vms: &[VmResourceState],
        demand: f64,
        scratch: &mut PlanScratch,
        targets: &mut [f64],
    ) -> (f64, f64) {
        if demand >= 0.0 {
            let shortfall = self.solve_deflation(vms, demand, scratch);
            (build_targets(vms, &scratch.take, targets), shortfall)
        } else {
            // Reinflation: resources flow back preferentially to high
            // priority VMs — the reverse of the deflation ordering — in
            // proportion to π_i times the headroom to their full size.
            scratch.load(vms, VmResourceState::reinflatable_headroom, |vm| {
                vm.priority * vm.max.max(1e-12)
            });
            let surplus = weighted_fill(scratch, -demand);
            scratch.negate_take();
            (build_targets(vms, &scratch.take, targets), -surplus)
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
    fn eq3_closed_form_when_unconstrained() {
        // Two identical VMs, π = 0.4 and 0.6, reclaim R = 10 out of 2×10.
        // α = (ΣM − R)/Σ(πM) = (20 − 10)/(0.4·10 + 0.6·10) = 1.0
        // x1 = 10(1 − 1.0·0.4) = 6, x2 = 10(1 − 1.0·0.6) = 4.
        let vms = vec![vm(1, 10.0, 10.0, 0.4), vm(2, 10.0, 10.0, 0.6)];
        let plan = PriorityDeflation::weighted().plan(&vms, 10.0);
        assert!(plan.satisfied());
        assert!((plan.target_for(VmId(1)).unwrap() - 4.0).abs() < 1e-9);
        assert!((plan.target_for(VmId(2)).unwrap() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn lower_priority_vm_always_deflated_at_least_as_much() {
        let vms = vec![vm(1, 16.0, 16.0, 0.2), vm(2, 16.0, 16.0, 0.8)];
        for demand in [2.0, 6.0, 12.0, 20.0] {
            let plan = PriorityDeflation::weighted().plan(&vms, demand);
            let give1 = 16.0 - plan.target_for(VmId(1)).unwrap();
            let give2 = 16.0 - plan.target_for(VmId(2)).unwrap();
            assert!(
                give1 >= give2 - 1e-9,
                "low-priority VM gave {give1} < high-priority {give2} at R={demand}"
            );
        }
    }

    #[test]
    fn negative_closed_form_share_is_clamped_to_zero() {
        // Small R with widely spread priorities: the literal Eq 3 would ask
        // the high-priority VM to *grow*; the implementation clamps it to 0
        // and takes everything from the low-priority VM.
        let vms = vec![vm(1, 10.0, 10.0, 0.1), vm(2, 10.0, 10.0, 0.9)];
        let plan = PriorityDeflation::weighted().plan(&vms, 1.0);
        assert!(plan.satisfied());
        let give1 = 10.0 - plan.target_for(VmId(1)).unwrap();
        let give2 = 10.0 - plan.target_for(VmId(2)).unwrap();
        assert!(give2.abs() < 1e-9, "high-priority VM should give nothing");
        assert!((give1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eq4_respects_priority_derived_floor() {
        // π = 0.5 ⇒ floor = 5 of 10; even a huge demand cannot push below it.
        let vms = vec![vm(1, 10.0, 10.0, 0.5)];
        let plan = PriorityDeflation::with_priority_floor().plan(&vms, 100.0);
        assert!(!plan.satisfied());
        assert!((plan.target_for(VmId(1)).unwrap() - 5.0).abs() < 1e-9);
        assert!((plan.reclaimed - 5.0).abs() < 1e-9);
    }

    #[test]
    fn eq4_distributes_over_span_above_floor() {
        // Both VMs have floors π·M: VM1 floor 2, VM2 floor 8. Deflatable
        // spans are 8 and 2. Reclaim 5 total — must be satisfiable.
        let vms = vec![vm(1, 10.0, 10.0, 0.2), vm(2, 10.0, 10.0, 0.8)];
        let plan = PriorityDeflation::with_priority_floor().plan(&vms, 5.0);
        assert!(plan.satisfied());
        let t1 = plan.target_for(VmId(1)).unwrap();
        let t2 = plan.target_for(VmId(2)).unwrap();
        assert!(t1 >= 2.0 - 1e-9 && t2 >= 8.0 - 1e-9);
        assert!(((10.0 - t1) + (10.0 - t2) - 5.0).abs() < 1e-9);
        // The low-priority VM shoulders more of the reclamation.
        assert!((10.0 - t1) > (10.0 - t2));
    }

    #[test]
    fn already_deflated_vm_limited_by_headroom() {
        let vms = vec![vm(1, 10.0, 3.0, 0.2), vm(2, 10.0, 10.0, 0.8)];
        let plan = PriorityDeflation::weighted().plan(&vms, 8.0);
        assert!(plan.satisfied());
        let t1 = plan.target_for(VmId(1)).unwrap();
        let t2 = plan.target_for(VmId(2)).unwrap();
        assert!(t1 >= -1e-9);
        assert!(((3.0 - t1) + (10.0 - t2) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn shortfall_reported_when_capacity_exhausted() {
        let vms = vec![vm(1, 4.0, 4.0, 0.5), vm(2, 4.0, 4.0, 0.5)];
        let plan = PriorityDeflation::weighted().plan(&vms, 20.0);
        assert!(!plan.satisfied());
        assert!((plan.reclaimed - 8.0).abs() < 1e-9);
        assert!((plan.shortfall - 12.0).abs() < 1e-9);
    }

    #[test]
    fn reinflation_prefers_high_priority() {
        let vms = vec![vm(1, 10.0, 5.0, 0.2), vm(2, 10.0, 5.0, 0.8)];
        let plan = PriorityDeflation::weighted().plan(&vms, -4.0);
        assert!(plan.satisfied());
        let back1 = plan.target_for(VmId(1)).unwrap() - 5.0;
        let back2 = plan.target_for(VmId(2)).unwrap() - 5.0;
        assert!(back2 > back1, "high-priority VM should reinflate first");
        assert!((back1 + back2 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input_reports_full_shortfall() {
        let plan = PriorityDeflation::default().plan(&[], 5.0);
        assert_eq!(plan.shortfall, 5.0);
        assert!(plan.targets.is_empty());
    }

    #[test]
    fn policy_names() {
        assert_eq!(PriorityDeflation::weighted().name(), "priority-weighted");
        assert_eq!(PriorityDeflation::with_priority_floor().name(), "priority");
    }
}

//! Proportional deflation (Eq 1) and minimum-allocation-aware proportional
//! deflation (Eq 2) from §5.1.1, plus proportional reinflation.
//!
//! The paper's closed forms are
//!
//! ```text
//! Eq 1:  x_i = M_i − α1·M_i            with α1 = 1 − R / Σ M_i
//! Eq 2:  x_i = (M_i − m_i) − α2·(M_i − m_i)
//! ```
//!
//! i.e. each VM gives up a share of `R` proportional to its size `M_i`
//! (Eq 1) or its deflatable span `M_i − m_i` (Eq 2). The closed form assumes
//! every VM can actually give up its share; when some VM is already deflated
//! close to its floor, the residual demand is redistributed over the
//! remaining VMs (water-filling), which is exactly the fixed point of
//! re-solving the closed form over the unsaturated set.

use super::{build_targets, weighted_fill, DeflationPolicy, PlanScratch, VmResourceState};
use serde::{Deserialize, Serialize};

/// Which weight the proportional share uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProportionalMode {
    /// Eq 1: share proportional to the original allocation `M_i`. Minimum
    /// allocations are still honoured as hard floors, but do not change the
    /// shares.
    BySize,
    /// Eq 2: share proportional to the deflatable span `M_i − m_i`.
    ByDeflatableSpan,
}

/// Proportional deflation policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProportionalDeflation {
    /// Weighting mode (Eq 1 vs Eq 2).
    pub mode: ProportionalMode,
}

impl Default for ProportionalDeflation {
    fn default() -> Self {
        ProportionalDeflation {
            mode: ProportionalMode::ByDeflatableSpan,
        }
    }
}

impl ProportionalDeflation {
    /// Eq 1 variant: deflate in proportion to original VM size.
    pub fn by_size() -> Self {
        ProportionalDeflation {
            mode: ProportionalMode::BySize,
        }
    }

    /// Eq 2 variant: deflate in proportion to the deflatable span.
    pub fn by_deflatable_span() -> Self {
        ProportionalDeflation {
            mode: ProportionalMode::ByDeflatableSpan,
        }
    }

    /// The proportional weight of one VM: `M_i` (Eq 1) or `M_i − m_i`
    /// (Eq 2).
    fn weight(&self, vm: &VmResourceState) -> f64 {
        match self.mode {
            ProportionalMode::BySize => vm.max.max(0.0),
            ProportionalMode::ByDeflatableSpan => vm.deflatable_span(),
        }
    }
}

impl DeflationPolicy for ProportionalDeflation {
    fn name(&self) -> &'static str {
        match self.mode {
            ProportionalMode::BySize => "proportional",
            ProportionalMode::ByDeflatableSpan => "proportional-min-aware",
        }
    }

    fn plan_into(
        &self,
        vms: &[VmResourceState],
        demand: f64,
        scratch: &mut PlanScratch,
        targets: &mut [f64],
    ) -> (f64, f64) {
        let weight = |vm: &VmResourceState| self.weight(vm);
        if demand >= 0.0 {
            scratch.load(vms, VmResourceState::deflatable_headroom, weight);
            let shortfall = weighted_fill(scratch, demand);
            (build_targets(vms, &scratch.take, targets), shortfall)
        } else {
            // Reinflation: run the proportional policy backwards (§5.1.3),
            // returning resources in proportion to the same weights.
            scratch.load(vms, VmResourceState::reinflatable_headroom, weight);
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

    fn vm(id: u64, max: f64, min: f64, current: f64) -> VmResourceState {
        VmResourceState {
            id: VmId(id),
            max,
            min,
            current,
            priority: 0.5,
        }
    }

    #[test]
    fn eq1_reclaims_in_proportion_to_size() {
        // Paper Eq 1: x_i = M_i · R / ΣM. Two VMs of 4 and 12 cores, reclaim 4.
        let vms = vec![vm(1, 4.0, 0.0, 4.0), vm(2, 12.0, 0.0, 12.0)];
        let plan = ProportionalDeflation::by_size().plan(&vms, 4.0);
        assert!(plan.satisfied());
        assert!((plan.target_for(VmId(1)).unwrap() - 3.0).abs() < 1e-9); // gave 1
        assert!((plan.target_for(VmId(2)).unwrap() - 9.0).abs() < 1e-9); // gave 3
        assert!((plan.reclaimed - 4.0).abs() < 1e-9);
    }

    #[test]
    fn eq2_uses_deflatable_span_weights() {
        // VM 1 has no deflatable span (m == M); everything comes from VM 2.
        let vms = vec![vm(1, 8.0, 8.0, 8.0), vm(2, 8.0, 2.0, 8.0)];
        let plan = ProportionalDeflation::by_deflatable_span().plan(&vms, 3.0);
        assert!(plan.satisfied());
        assert_eq!(plan.target_for(VmId(1)).unwrap(), 8.0);
        assert!((plan.target_for(VmId(2)).unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn min_allocation_is_a_hard_floor() {
        let vms = vec![vm(1, 10.0, 6.0, 10.0), vm(2, 10.0, 0.0, 10.0)];
        let plan = ProportionalDeflation::by_size().plan(&vms, 12.0);
        assert!(plan.satisfied());
        // VM 1 can give at most 4; VM 2 covers the remaining 8.
        assert!((plan.target_for(VmId(1)).unwrap() - 6.0).abs() < 1e-9);
        assert!((plan.target_for(VmId(2)).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn shortfall_when_not_enough_deflatable_capacity() {
        let vms = vec![vm(1, 10.0, 8.0, 10.0), vm(2, 10.0, 8.0, 10.0)];
        let plan = ProportionalDeflation::default().plan(&vms, 10.0);
        assert!(!plan.satisfied());
        assert!((plan.shortfall - 6.0).abs() < 1e-9);
        assert!((plan.reclaimed - 4.0).abs() < 1e-9);
        // Both VMs sit at their floors.
        assert_eq!(plan.target_for(VmId(1)).unwrap(), 8.0);
        assert_eq!(plan.target_for(VmId(2)).unwrap(), 8.0);
    }

    #[test]
    fn already_deflated_vms_contribute_only_their_headroom() {
        // VM 1 is already at 2 of 10; VM 2 undeflated.
        let vms = vec![vm(1, 10.0, 0.0, 2.0), vm(2, 10.0, 0.0, 10.0)];
        let plan = ProportionalDeflation::by_size().plan(&vms, 8.0);
        assert!(plan.satisfied());
        let t1 = plan.target_for(VmId(1)).unwrap();
        let t2 = plan.target_for(VmId(2)).unwrap();
        // Naive proportional shares would be 4 each, but VM 1 only has 2 of
        // headroom; VM 2 absorbs the rest.
        assert!((-1e-9..=2.0 + 1e-9).contains(&t1));
        assert!(((2.0 - t1) + (10.0 - t2) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn reinflation_distributes_freed_resources() {
        let vms = vec![vm(1, 10.0, 0.0, 5.0), vm(2, 10.0, 0.0, 5.0)];
        let plan = ProportionalDeflation::by_size().plan(&vms, -6.0);
        assert!(plan.satisfied());
        assert!((plan.target_for(VmId(1)).unwrap() - 8.0).abs() < 1e-9);
        assert!((plan.target_for(VmId(2)).unwrap() - 8.0).abs() < 1e-9);
        assert!((plan.reclaimed + 6.0).abs() < 1e-9);
    }

    #[test]
    fn reinflation_never_exceeds_max() {
        let vms = vec![vm(1, 10.0, 0.0, 9.0), vm(2, 10.0, 0.0, 2.0)];
        let plan = ProportionalDeflation::by_size().plan(&vms, -20.0);
        // Only 9 can be returned in total (1 + 8); surplus reported as
        // negative shortfall.
        assert_eq!(plan.target_for(VmId(1)).unwrap(), 10.0);
        assert_eq!(plan.target_for(VmId(2)).unwrap(), 10.0);
        assert!((plan.shortfall + 11.0).abs() < 1e-9);
    }

    #[test]
    fn zero_demand_is_a_noop() {
        let vms = vec![vm(1, 10.0, 0.0, 7.0)];
        let plan = ProportionalDeflation::default().plan(&vms, 0.0);
        assert!(plan.satisfied());
        assert_eq!(plan.target_for(VmId(1)).unwrap(), 7.0);
    }

    #[test]
    fn policy_names() {
        assert_eq!(ProportionalDeflation::by_size().name(), "proportional");
        assert_eq!(
            ProportionalDeflation::by_deflatable_span().name(),
            "proportional-min-aware"
        );
    }
}

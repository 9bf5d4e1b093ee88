//! Server-level deflation policies (§5.1).
//!
//! A deflation policy answers one question: *given a set of deflatable VMs on
//! a server and an amount `R` of one resource that must be reclaimed (or, for
//! reinflation, returned), how much does each VM give up (or get back)?*
//!
//! The paper proposes three families of policies, all implemented here:
//!
//! * [`ProportionalDeflation`] — Eq 1
//!   (plain) and Eq 2 (minimum-allocation aware).
//! * [`PriorityDeflation`] — weighted
//!   proportional deflation, Eq 3 and Eq 4.
//! * [`DeterministicDeflation`] —
//!   binary, priority-ordered deflation to pre-specified levels.
//!
//! Policies are *scalar*: they operate on one [`ResourceKind`] at a time,
//! because "the proportional deflation is performed for each resource (CPU,
//! memory, disk bandwidth, network bandwidth) individually" (§5.1.1). The
//! [`VectorPlanner`] lifts any scalar policy to full [`ResourceVector`]s.
//!
//! Besides the deflation policies this module also carries two
//! cluster-level knobs: the [`transfer`] knob ([`TransferPolicy`],
//! describing how queued live migrations are ordered against per-server
//! bandwidth budgets — FIFO / smallest-first / deadline-aware EDF,
//! optionally deflate-then-migrate) and the [`autoscale`] knob
//! ([`AutoscalePolicy`], the elastic cluster-resizing policy driven by
//! utilisation ticks).
//!
//! Reinflation (§5.1.3 "Reinflation") is expressed by calling
//! [`DeflationPolicy::plan`] with a *negative* demand: the policy runs
//! backwards and distributes the freed resources across previously deflated
//! VMs.

pub mod autoscale;
pub mod deterministic;
pub mod priority;
pub mod proportional;
pub mod transfer;

pub use autoscale::{AutoscaleParams, AutoscalePolicy};
pub use deterministic::DeterministicDeflation;
pub use priority::PriorityDeflation;
pub use proportional::ProportionalDeflation;
pub use transfer::{TransferOrdering, TransferPolicy};

use crate::resources::{ResourceKind, ResourceVector};
use crate::vm::{VmAllocation, VmId};
use serde::{Deserialize, Serialize};

/// Per-VM, per-resource state a scalar policy needs to make its decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmResourceState {
    /// VM identity.
    pub id: VmId,
    /// Original, undeflated allocation `M_i` of this resource.
    pub max: f64,
    /// Minimum allocation `m_i` (0 when the VM has no QoS floor).
    pub min: f64,
    /// Currently granted allocation (between `min` and `max`).
    pub current: f64,
    /// Deflation priority `π_i ∈ (0, 1]`; lower means more deflatable.
    pub priority: f64,
}

impl VmResourceState {
    /// Resources that can still be reclaimed from this VM.
    #[inline]
    pub fn deflatable_headroom(&self) -> f64 {
        (self.current - self.min).max(0.0)
    }

    /// Resources that can still be returned to this VM.
    #[inline]
    pub fn reinflatable_headroom(&self) -> f64 {
        (self.max - self.current).max(0.0)
    }

    /// Deflatable span `M_i − m_i` regardless of the current allocation; this
    /// is the `D_i` term in Eq 2 and Eq 4.
    #[inline]
    pub fn deflatable_span(&self) -> f64 {
        (self.max - self.min).max(0.0)
    }
}

/// Outcome of a scalar planning step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalarPlan {
    /// Resource kind this plan applies to (informational).
    pub kind: Option<ResourceKind>,
    /// New allocation target for each VM, in the same order as the input.
    pub targets: Vec<(VmId, f64)>,
    /// Total amount reclaimed (positive) or returned (negative).
    pub reclaimed: f64,
    /// Demand that could not be satisfied because the deflatable (or
    /// reinflatable) headroom ran out. Zero on success.
    pub shortfall: f64,
}

impl ScalarPlan {
    /// True when the full demand was satisfied.
    #[inline]
    pub fn satisfied(&self) -> bool {
        self.shortfall.abs() <= 1e-6
    }

    /// Look up the planned allocation for a VM.
    pub fn target_for(&self, vm: VmId) -> Option<f64> {
        self.targets
            .iter()
            .find(|(id, _)| *id == vm)
            .map(|(_, t)| *t)
    }
}

/// Caller-owned working buffers of one scalar planning call.
///
/// [`DeflationPolicy::plan_into`] overwrites whatever a previous call left
/// here, so one scratch can serve any sequence of calls, of any size;
/// after the first few calls it has grown to the largest input and a
/// planning step allocates nothing. Holds no state between calls.
#[derive(Debug, Clone, Default)]
pub struct PlanScratch {
    /// Per-VM weight (or, for the priority policy, deflatable span).
    weights: Vec<f64>,
    /// Per-VM headroom in the direction of the demand.
    headrooms: Vec<f64>,
    /// Per-VM amount taken (positive) or returned (negative).
    take: Vec<f64>,
    /// Indices of the VMs still taking part (or, for the deterministic
    /// policy, the visiting order).
    active: Vec<usize>,
}

impl PlanScratch {
    /// An empty scratch; allocates nothing until first used.
    pub const fn new() -> Self {
        PlanScratch {
            weights: Vec::new(),
            headrooms: Vec::new(),
            take: Vec::new(),
            active: Vec::new(),
        }
    }

    /// Fill `headrooms` and `weights` with one entry per VM.
    fn load(
        &mut self,
        vms: &[VmResourceState],
        headroom: impl Fn(&VmResourceState) -> f64,
        weight: impl Fn(&VmResourceState) -> f64,
    ) {
        self.headrooms.clear();
        self.headrooms.extend(vms.iter().map(headroom));
        self.weights.clear();
        self.weights.extend(vms.iter().map(weight));
    }

    /// Reset `take` to `n` zeros.
    fn zero_take(&mut self, n: usize) {
        self.take.clear();
        self.take.resize(n, 0.0);
    }

    /// Flip the sign of every `take` entry: a returned amount is a negative
    /// reclaim.
    fn negate_take(&mut self) {
        for r in &mut self.take {
            *r = -*r;
        }
    }
}

/// A server-level deflation policy operating on a single resource dimension.
pub trait DeflationPolicy: Send + Sync {
    /// Short policy name used in experiment output.
    fn name(&self) -> &'static str;

    /// Compute new allocation targets so that `demand` units of the resource
    /// are reclaimed from (positive demand) or returned to (negative demand)
    /// the given VMs, writing `targets[i]` for `vms[i]` and using `scratch`
    /// for every intermediate buffer. Returns `(reclaimed, shortfall)`.
    ///
    /// Invariants every implementation upholds:
    /// * `targets` has one entry per input VM (`targets.len() == vms.len()`);
    /// * each target lies in `[min, max]` of its VM;
    /// * `sum(current − target) == reclaimed`, and
    ///   `reclaimed == demand − shortfall` up to rounding (binary policies
    ///   may over-reclaim);
    /// * `shortfall` is non-negative for deflation and non-positive for
    ///   reinflation, and zero when the demand was fully met;
    /// * the result depends only on `vms` and `demand`, never on what an
    ///   earlier call left in `scratch`;
    /// * a reinflation (`demand < 0`) over VMs that all hold exactly their
    ///   finite, non-negative-zero maximum (`current == max`), or over no
    ///   VMs at all, returns every target equal to its `current`, with
    ///   `reclaimed == 0.0` and `shortfall == demand`. [`VectorPlanner`]
    ///   relies on this to skip such a plan.
    fn plan_into(
        &self,
        vms: &[VmResourceState],
        demand: f64,
        scratch: &mut PlanScratch,
        targets: &mut [f64],
    ) -> (f64, f64);

    /// [`plan_into`](Self::plan_into) with fresh buffers, collected into a
    /// [`ScalarPlan`]. Convenient for tests and one-off calls; hot paths
    /// keep a [`PlanScratch`] (or a [`VectorPlanner`]) and call
    /// `plan_into` directly.
    fn plan(&self, vms: &[VmResourceState], demand: f64) -> ScalarPlan {
        let mut targets = vec![0.0; vms.len()];
        let (reclaimed, shortfall) =
            self.plan_into(vms, demand, &mut PlanScratch::new(), &mut targets);
        ScalarPlan {
            kind: None,
            targets: vms.iter().map(|vm| vm.id).zip(targets).collect(),
            reclaimed,
            shortfall,
        }
    }
}

/// Distribute `demand ≥ 0` across VMs proportionally to `scratch.weights`,
/// honouring each VM's `scratch.headrooms`, using iterative water-filling.
///
/// Leaves the per-VM reclaim amounts in `scratch.take` (same order as the
/// loaded VMs) and returns the unsatisfied remainder. This is the
/// computational core shared by the proportional and priority-weighted
/// policies once their per-VM weights have been fixed: the paper's
/// closed-form α only applies when no VM hits its bound, so the
/// water-filling loop re-solves the closed form over the unsaturated set
/// until a fixed point is reached. Reinflation uses it unchanged, with
/// reinflatable headrooms and the amount to give back as the demand.
pub(crate) fn weighted_fill(scratch: &mut PlanScratch, demand: f64) -> f64 {
    let PlanScratch {
        weights,
        headrooms,
        take,
        active,
    } = scratch;
    debug_assert_eq!(headrooms.len(), weights.len());
    let n = headrooms.len();
    take.clear();
    take.resize(n, 0.0);
    if demand <= 0.0 || n == 0 {
        return demand.max(0.0);
    }
    let mut remaining = demand;
    active.clear();
    active.extend((0..n).filter(|&i| headrooms[i] > 1e-12 && weights[i] > 0.0));
    // Each round either satisfies the remaining demand or saturates at least
    // one VM, so the loop terminates in at most `n` rounds.
    while remaining > 1e-9 && !active.is_empty() {
        let total_weight: f64 = active.iter().map(|&i| weights[i]).sum();
        if total_weight <= 0.0 {
            break;
        }
        let mut progressed = false;
        for &i in active.iter() {
            let share = remaining * weights[i] / total_weight;
            let capacity = headrooms[i] - take[i];
            let grant = share.min(capacity);
            if grant > 0.0 {
                take[i] += grant;
                progressed = true;
            }
        }
        let taken: f64 = take.iter().sum();
        remaining = demand - taken;
        if !progressed {
            break;
        }
        active.retain(|&i| headrooms[i] - take[i] > 1e-12);
    }
    remaining.max(0.0)
}

/// Anything that exposes a VM spec plus its currently granted allocation.
///
/// Implemented for [`VmAllocation`] here and for the simulated hypervisor's
/// `Domain` type in `deflate-hypervisor`, so policies can be planned directly
/// against either representation.
pub trait AllocationView {
    /// The VM's static specification.
    fn spec(&self) -> &crate::vm::VmSpec;
    /// The allocation the VM currently holds.
    fn current_allocation(&self) -> ResourceVector;
}

impl AllocationView for VmAllocation {
    fn spec(&self) -> &crate::vm::VmSpec {
        &self.spec
    }
    fn current_allocation(&self) -> ResourceVector {
        self.current()
    }
}

impl<T: AllocationView + ?Sized> AllocationView for &T {
    fn spec(&self) -> &crate::vm::VmSpec {
        (**self).spec()
    }
    fn current_allocation(&self) -> ResourceVector {
        (**self).current_allocation()
    }
}

/// Lifts a scalar policy to all four resource dimensions: gathers the
/// deflatable VMs' bounds and current allocations once, then plans each
/// dimension with a non-zero demand.
///
/// A planner is a set of reusable buffers — it keeps no state between
/// calls — so a long-lived one plans without allocating once its buffers
/// have grown to the largest input.
#[derive(Debug, Clone, Default)]
pub struct VectorPlanner {
    /// Bounds of each deflatable input, parallel to `targets`.
    bounds: Vec<Bounds>,
    /// Each deflatable input's id and allocation: the current one after
    /// the gather, the planned one once its kind has been planned.
    targets: Vec<(VmId, ResourceVector)>,
    /// One kind's scalar states.
    states: Vec<VmResourceState>,
    /// One kind's scalar targets.
    scalar: Vec<f64>,
    scratch: PlanScratch,
}

/// The per-VM spec fields a scalar state needs, copied out once per call.
#[derive(Debug, Clone, Copy)]
struct Bounds {
    max: ResourceVector,
    min: ResourceVector,
    priority: f64,
}

/// Per-resource totals of one vector planning call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanTotals {
    /// Total reclaimed per resource (negative when reinflating).
    pub reclaimed: ResourceVector,
    /// Unmet demand per resource.
    pub shortfall: ResourceVector,
}

impl PlanTotals {
    /// True when every resource dimension was fully satisfied.
    pub fn satisfied(&self) -> bool {
        self.shortfall.iter().all(|(_, v)| v.abs() <= 1e-6)
    }
}

/// A full multi-resource deflation plan: one target vector per VM plus
/// per-resource shortfalls.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorPlan {
    /// New allocation vector of every deflatable input VM, in input order.
    pub targets: Vec<(VmId, ResourceVector)>,
    /// Total reclaimed per resource (negative when reinflating).
    pub reclaimed: ResourceVector,
    /// Unmet demand per resource.
    pub shortfall: ResourceVector,
}

impl VectorPlan {
    /// True when every resource dimension was fully satisfied.
    pub fn satisfied(&self) -> bool {
        PlanTotals {
            reclaimed: self.reclaimed,
            shortfall: self.shortfall,
        }
        .satisfied()
    }
}

impl VectorPlanner {
    /// A planner with empty buffers; allocates nothing until first used.
    pub const fn new() -> Self {
        VectorPlanner {
            bounds: Vec::new(),
            targets: Vec::new(),
            states: Vec::new(),
            scalar: Vec::new(),
            scratch: PlanScratch::new(),
        }
    }

    /// Plan deflation (or reinflation) of every resource dimension of
    /// `vms` using the given scalar policy, into the planner's buffers.
    /// `demand` holds, per resource, the amount that must be reclaimed
    /// (positive) or can be returned (negative). Non-deflatable VMs are
    /// skipped.
    ///
    /// The planned allocations are then read from
    /// [`targets`](Self::targets): the deflatable `vms` in input order.
    pub fn plan_into<V: AllocationView>(
        &mut self,
        policy: &dyn DeflationPolicy,
        vms: impl IntoIterator<Item = V>,
        demand: ResourceVector,
    ) -> PlanTotals {
        self.bounds.clear();
        self.targets.clear();
        for vm in vms {
            let spec = vm.spec();
            if !spec.deflatable {
                continue;
            }
            self.bounds.push(Bounds {
                max: spec.max_allocation,
                min: spec.min_allocation,
                priority: spec.priority.value(),
            });
            self.targets.push((spec.id, vm.current_allocation()));
        }
        let mut totals = PlanTotals {
            reclaimed: ResourceVector::ZERO,
            shortfall: ResourceVector::ZERO,
        };
        for kind in ResourceKind::ALL {
            let d = demand[kind];
            if d.abs() <= 1e-12 {
                continue;
            }
            if d < 0.0
                && self
                    .bounds
                    .iter()
                    .zip(&self.targets)
                    .all(|(bounds, (_, current))| at_max(current[kind], bounds.max[kind]))
            {
                // Nobody can grow: by the `DeflationPolicy` contract the
                // plan would return the current allocations, reclaim
                // nothing and leave the whole demand unmet.
                totals.reclaimed[kind] = 0.0;
                totals.shortfall[kind] = d;
                continue;
            }
            // Each kind is written back once, after it is planned, so this
            // kind's entry of every target still holds the current value.
            self.states.clear();
            self.states
                .extend(
                    self.bounds
                        .iter()
                        .zip(&self.targets)
                        .map(|(bounds, &(id, current))| VmResourceState {
                            id,
                            max: bounds.max[kind],
                            min: bounds.min[kind],
                            current: current[kind],
                            priority: bounds.priority,
                        }),
                );
            self.scalar.clear();
            self.scalar.resize(self.states.len(), 0.0);
            let (reclaimed, shortfall) =
                policy.plan_into(&self.states, d, &mut self.scratch, &mut self.scalar);
            for (target, (_, v)) in self.scalar.iter().zip(self.targets.iter_mut()) {
                v[kind] = *target;
            }
            totals.reclaimed[kind] = reclaimed;
            totals.shortfall[kind] = shortfall;
        }
        totals
    }

    /// The targets of the last [`plan_into`](Self::plan_into) call: one
    /// allocation per deflatable input VM, in input order. Dimensions
    /// without demand keep the current allocation.
    pub fn targets(&self) -> &[(VmId, ResourceVector)] {
        &self.targets
    }

    /// [`plan_into`](Self::plan_into) with a fresh planner, collected
    /// into a [`VectorPlan`].
    pub fn plan<V: AllocationView>(
        policy: &dyn DeflationPolicy,
        vms: &[V],
        demand: ResourceVector,
    ) -> VectorPlan {
        let mut planner = VectorPlanner::new();
        let totals = planner.plan_into(policy, vms, demand);
        VectorPlan {
            targets: planner.targets,
            reclaimed: totals.reclaimed,
            shortfall: totals.shortfall,
        }
    }
}

/// Whether a reinflation leaves an input with allocation `current` and
/// maximum `max` bit for bit as it is: it holds exactly its finite
/// maximum. Negative zero is excluded, because a plan's `current + 0.0`
/// would turn it into positive zero.
fn at_max(current: f64, max: f64) -> bool {
    current == max && max.is_finite() && current.is_sign_positive()
}

/// Write each VM's target `current − reclaim`, clamped to its bounds, and
/// return the *actual* change in total allocation, `Σ (current − target)`.
/// That figure can exceed the demand for binary policies that
/// over-reclaim, and is negative when reinflating.
pub(crate) fn build_targets(vms: &[VmResourceState], reclaim: &[f64], targets: &mut [f64]) -> f64 {
    debug_assert_eq!(targets.len(), vms.len());
    let mut reclaimed = 0.0;
    for ((vm, r), slot) in vms.iter().zip(reclaim).zip(targets.iter_mut()) {
        let target = (vm.current - r).clamp(vm.min, vm.max);
        reclaimed += vm.current - target;
        *slot = target;
    }
    reclaimed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::{Priority, VmClass, VmSpec};

    fn state(id: u64, max: f64, min: f64, current: f64, pri: f64) -> VmResourceState {
        VmResourceState {
            id: VmId(id),
            max,
            min,
            current,
            priority: pri,
        }
    }

    #[test]
    fn headrooms() {
        let s = state(1, 10.0, 2.0, 6.0, 0.5);
        assert_eq!(s.deflatable_headroom(), 4.0);
        assert_eq!(s.reinflatable_headroom(), 4.0);
        assert_eq!(s.deflatable_span(), 8.0);
    }

    /// `weighted_fill` through `scratch`, with its inputs loaded the way
    /// the policies load them; returns the take and the remainder.
    fn fill_with(
        scratch: &mut PlanScratch,
        headrooms: &[f64],
        weights: &[f64],
        demand: f64,
    ) -> (Vec<f64>, f64) {
        scratch.headrooms.clear();
        scratch.headrooms.extend_from_slice(headrooms);
        scratch.weights.clear();
        scratch.weights.extend_from_slice(weights);
        let rem = weighted_fill(scratch, demand);
        (scratch.take.clone(), rem)
    }

    fn fill(headrooms: &[f64], weights: &[f64], demand: f64) -> (Vec<f64>, f64) {
        fill_with(&mut PlanScratch::new(), headrooms, weights, demand)
    }

    #[test]
    fn weighted_fill_simple_proportional() {
        let (take, rem) = fill(&[10.0, 10.0], &[1.0, 3.0], 4.0);
        assert!(rem.abs() < 1e-9);
        assert!((take[0] - 1.0).abs() < 1e-9);
        assert!((take[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_fill_respects_headroom_and_redistributes() {
        // VM 0 can only give 1.0; the rest must come from VM 1.
        let (take, rem) = fill(&[1.0, 100.0], &[1.0, 1.0], 10.0);
        assert!(rem.abs() < 1e-9);
        assert!((take[0] - 1.0).abs() < 1e-9);
        assert!((take[1] - 9.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_fill_reports_shortfall() {
        let (take, rem) = fill(&[1.0, 2.0], &[1.0, 1.0], 10.0);
        assert!((take[0] - 1.0).abs() < 1e-9);
        assert!((take[1] - 2.0).abs() < 1e-9);
        assert!((rem - 7.0).abs() < 1e-9);
    }

    /// `weighted_fill` as it was before the saturated-set rewrite: kept
    /// verbatim as the oracle the current one must match bit for bit.
    fn weighted_fill_oracle(headrooms: &[f64], weights: &[f64], demand: f64) -> (Vec<f64>, f64) {
        let n = headrooms.len();
        let mut take = vec![0.0f64; n];
        if demand <= 0.0 || n == 0 {
            return (take, demand.max(0.0));
        }
        let mut remaining = demand;
        let mut active: Vec<usize> = (0..n)
            .filter(|&i| headrooms[i] > 1e-12 && weights[i] > 0.0)
            .collect();
        while remaining > 1e-9 && !active.is_empty() {
            let total_weight: f64 = active.iter().map(|&i| weights[i]).sum();
            if total_weight <= 0.0 {
                break;
            }
            let mut saturated = Vec::new();
            let mut progressed = false;
            for &i in &active {
                let share = remaining * weights[i] / total_weight;
                let capacity = headrooms[i] - take[i];
                let grant = share.min(capacity);
                if grant > 0.0 {
                    take[i] += grant;
                    progressed = true;
                }
                if headrooms[i] - take[i] <= 1e-12 {
                    saturated.push(i);
                }
            }
            let taken: f64 = take.iter().sum();
            remaining = demand - taken;
            if !progressed {
                break;
            }
            active.retain(|i| !saturated.contains(i));
        }
        (take, remaining.max(0.0))
    }

    #[test]
    fn weighted_fill_matches_the_oracle_bit_for_bit() {
        // Numerical Recipes LCG; values mix zeros, sub-epsilon headrooms
        // and ordinary magnitudes so every saturation branch is taken.
        let mut seed = 7u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let pick = |u: f64| match (u * 10.0) as u32 {
            0 => 0.0,
            1 => 1e-13,
            2 => 1.0,
            _ => 100.0 * u,
        };
        let mut reused = PlanScratch::new();
        for case in 0..2_000 {
            let n = case % 33;
            let headrooms: Vec<f64> = (0..n).map(|_| pick(next())).collect();
            let weights: Vec<f64> = (0..n).map(|_| pick(next())).collect();
            let total: f64 = headrooms.iter().sum();
            let demand = match case % 5 {
                0 => -1.0,
                1 => total,
                _ => 2.0 * total * next(),
            };
            let (want, want_rem) = weighted_fill_oracle(&headrooms, &weights, demand);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            // A fresh scratch, and one reused across every case so far:
            // sizes shrink and grow, so a stale entry would show here.
            for (take, rem) in [
                fill(&headrooms, &weights, demand),
                fill_with(&mut reused, &headrooms, &weights, demand),
            ] {
                assert_eq!(bits(&take), bits(&want), "case {case}");
                assert_eq!(rem.to_bits(), want_rem.to_bits(), "case {case}");
            }
        }
    }

    #[test]
    fn weighted_fill_zero_demand_or_empty() {
        let (take, rem) = fill(&[], &[], 5.0);
        assert!(take.is_empty());
        assert_eq!(rem, 5.0);
        let (take, rem) = fill(&[1.0], &[1.0], 0.0);
        assert_eq!(take, vec![0.0]);
        assert_eq!(rem, 0.0);
    }

    #[test]
    fn scalar_plan_lookup() {
        let plan = ScalarPlan {
            kind: Some(ResourceKind::Cpu),
            targets: vec![(VmId(1), 5.0), (VmId(2), 3.0)],
            reclaimed: 2.0,
            shortfall: 0.0,
        };
        assert!(plan.satisfied());
        assert_eq!(plan.target_for(VmId(2)), Some(3.0));
        assert_eq!(plan.target_for(VmId(9)), None);
    }

    #[test]
    fn vector_plan_lists_deflatable_vms_in_input_order() {
        let make = |id: u64, deflatable: bool| {
            let size = ResourceVector::new(1000.0 * id as f64, 2048.0, 100.0, 500.0);
            VmAllocation::new(if deflatable {
                VmSpec::deflatable(VmId(id), VmClass::Interactive, size)
            } else {
                VmSpec::on_demand(VmId(id), VmClass::Unknown, size)
            })
        };
        let vms = vec![
            make(5, true),
            make(2, false),
            make(9, true),
            make(1, true),
            make(7, false),
        ];
        let demand = ResourceVector::new(3000.0, 1024.0, 0.0, 50.0);
        for reinflate in [false, true] {
            let demand = if reinflate { -demand } else { demand };
            let plan = VectorPlanner::plan(&ProportionalDeflation::default(), &vms, demand);
            let ids: Vec<VmId> = plan.targets.iter().map(|(id, _)| *id).collect();
            assert_eq!(ids, vec![VmId(5), VmId(9), VmId(1)]);
        }
        let plan = VectorPlanner::plan(&ProportionalDeflation::default(), &vms, demand);
        for (id, target) in &plan.targets {
            let vm = vms.iter().find(|vm| vm.spec.id == *id).unwrap();
            assert!(
                target.cpu() < vm.spec.max_allocation.cpu(),
                "{id:?} deflated"
            );
            // Dimensions without demand keep the current allocation.
            assert_eq!(target[ResourceKind::DiskBw], 100.0);
        }
    }

    /// Every deflation policy of this crate, in each of its modes.
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

    /// A reinflation the planner skips (every input at its maximum, or no
    /// input at all) returns the same target, `reclaimed` and `shortfall`
    /// bits as the policy's own plan, for every policy. Kinds with an
    /// input below its maximum are planned as before, alongside.
    #[test]
    fn skipped_reinflation_matches_the_policy_bit_for_bit() {
        let mut seed = 11u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let bits = |v: ResourceVector| v.iter().map(|(_, x)| x.to_bits()).collect::<Vec<_>>();
        let mut planner = VectorPlanner::new();
        for case in 0..300 {
            let n = case % 9;
            let vms: Vec<VmAllocation> = (0..n)
                .map(|i| {
                    let size = |u: f64| if u < 0.15 { 0.0 } else { 10_000.0 * u };
                    let max = ResourceVector::new(size(next()), size(next()), size(next()), 0.0);
                    let spec = VmSpec::deflatable(VmId(i as u64), VmClass::Interactive, max)
                        .with_priority(Priority::new(0.05 + 0.95 * next()))
                        .with_min_allocation(max * (0.5 * next()));
                    let mut vm = VmAllocation::new(spec);
                    // Pull the memory of some VMs below its maximum: that
                    // kind is planned, the other three are skipped.
                    if case % 3 == 0 && next() < 0.5 {
                        vm.set_current(ResourceVector::new(max.cpu(), 0.0, max.disk_bw(), 0.0));
                    }
                    vm
                })
                .collect();
            let demand =
                -ResourceVector::new(50_000.0 * next(), 50_000.0 * next(), 50_000.0 * next(), 1.0);
            for policy in all_policies() {
                let totals = planner.plan_into(policy.as_ref(), &vms, demand);
                let mut want_targets: Vec<ResourceVector> =
                    vms.iter().map(|v| v.current()).collect();
                let mut want = PlanTotals {
                    reclaimed: ResourceVector::ZERO,
                    shortfall: ResourceVector::ZERO,
                };
                for kind in ResourceKind::ALL {
                    let states: Vec<VmResourceState> = vms
                        .iter()
                        .map(|v| VmResourceState {
                            id: v.spec.id,
                            max: v.spec.max_allocation[kind],
                            min: v.spec.min_allocation[kind],
                            current: v.current()[kind],
                            priority: v.spec.priority.value(),
                        })
                        .collect();
                    let plan = policy.plan(&states, demand[kind]);
                    for ((_, t), target) in plan.targets.iter().zip(&mut want_targets) {
                        target[kind] = *t;
                    }
                    want.reclaimed[kind] = plan.reclaimed;
                    want.shortfall[kind] = plan.shortfall;
                }
                let case = format!("case {case} {}", policy.name());
                assert_eq!(bits(totals.reclaimed), bits(want.reclaimed), "{case}");
                assert_eq!(bits(totals.shortfall), bits(want.shortfall), "{case}");
                let got: Vec<_> = planner.targets().iter().map(|(_, t)| bits(*t)).collect();
                let want_targets: Vec<_> = want_targets.into_iter().map(bits).collect();
                assert_eq!(got, want_targets, "{case}");
            }
        }
    }

    /// The `DeflationPolicy` contract the planner's skip relies on, checked
    /// on each policy directly.
    #[test]
    fn reinflation_at_max_returns_inputs_unchanged() {
        let vms = [
            state(1, 8.0, 2.0, 8.0, 0.3),
            state(2, 0.0, 0.0, 0.0, 0.9),
            state(3, 1e-13, 0.0, 1e-13, 0.5),
        ];
        for policy in all_policies() {
            for inputs in [&vms[..], &[]] {
                for demand in [-1e-9, -3.0, -1e9] {
                    let plan = policy.plan(inputs, demand);
                    for ((_, target), vm) in plan.targets.iter().zip(inputs) {
                        assert_eq!(target.to_bits(), vm.current.to_bits(), "{}", policy.name());
                    }
                    assert_eq!(
                        plan.reclaimed.to_bits(),
                        0.0f64.to_bits(),
                        "{}",
                        policy.name()
                    );
                    assert_eq!(
                        plan.shortfall.to_bits(),
                        demand.to_bits(),
                        "{}",
                        policy.name()
                    );
                }
            }
        }
    }

    #[test]
    fn vector_planner_skips_non_deflatable() {
        let deflatable = VmAllocation::new(
            VmSpec::deflatable(
                VmId(1),
                VmClass::Interactive,
                ResourceVector::cpu_mem(4000.0, 8192.0),
            )
            .with_priority(Priority::new(0.5)),
        );
        let on_demand = VmAllocation::new(VmSpec::on_demand(
            VmId(2),
            VmClass::Unknown,
            ResourceVector::cpu_mem(4000.0, 8192.0),
        ));
        let vms = vec![&deflatable, &on_demand];
        let policy = ProportionalDeflation::default();
        let plan = VectorPlanner::plan(
            &policy,
            &vms,
            ResourceVector::only(ResourceKind::Cpu, 1000.0),
        );
        assert!(plan.satisfied());
        assert_eq!(plan.targets.len(), 1);
        let (id, target) = plan.targets[0];
        assert_eq!(id, VmId(1));
        assert!((target.cpu() - 3000.0).abs() < 1e-6);
        // Untouched dimensions stay at their current values.
        assert!((target.memory() - 8192.0).abs() < 1e-6);
    }
}

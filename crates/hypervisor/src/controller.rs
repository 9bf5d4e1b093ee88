//! The per-server local deflation controller (§6).
//!
//! "We run local deflation controllers that run on each server. These local
//! controllers control the deflation of VMs by responding to resource
//! pressure, by implementing the proportional deflation policies described in
//! section 5." The controller owns a [`SimServer`], applies a server-level
//! [`DeflationPolicy`] when a new VM needs room, and reinflates residents
//! when capacity frees up. The paper's controllers also notify an
//! application manager of each change (Figure 1); here every call that
//! can move residents' allocations appends to a caller-owned `changed`
//! log the [`slot`](crate::domain::Domain::slot) of each resident whose
//! effective CPU allocation moved, which is how the cluster simulator
//! learns whose usage summary to bring up to date.

use crate::domain::DeflationMechanism;
use crate::server::SimServer;
use deflate_core::error::Result;
use deflate_core::policy::{DeflationPolicy, PlanTotals, VectorPlanner};
use deflate_core::resources::ResourceVector;
use deflate_core::vm::{VmId, VmSpec};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// The planning buffers every controller on this thread shares. A
    /// planner keeps no state between calls, so sharing one changes no
    /// result; it grows to the largest server once and then plans without
    /// allocating, and it costs one set of buffers per thread rather than
    /// one per server.
    static PLANNER: RefCell<VectorPlanner> = const { RefCell::new(VectorPlanner::new()) };
}

/// Outcome of an admission attempt on one server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdmissionOutcome {
    /// The VM was admitted without deflating anyone.
    AdmittedWithoutDeflation,
    /// The VM was admitted after deflating resident VMs; the amount reclaimed
    /// per resource is reported.
    AdmittedWithDeflation {
        /// Total resources reclaimed from residents to make room.
        reclaimed: ResourceVector,
    },
    /// The server could not free enough resources; the VM was rejected
    /// (this is the "failure to reclaim sufficient resources" event counted
    /// by Figure 20).
    Rejected {
        /// Unmet demand per resource.
        shortfall: ResourceVector,
    },
}

/// Per-server deflation controller.
pub struct LocalController {
    server: SimServer,
    policy: Arc<dyn DeflationPolicy>,
    mechanism: DeflationMechanism,
}

impl LocalController {
    /// Create a controller around a server with the given policy and
    /// mechanism for all future deflation operations.
    pub fn new(
        server: SimServer,
        policy: Arc<dyn DeflationPolicy>,
        mechanism: DeflationMechanism,
    ) -> Self {
        LocalController {
            server,
            policy,
            mechanism,
        }
    }

    /// Read access to the underlying server.
    pub fn server(&self) -> &SimServer {
        &self.server
    }

    /// Mutable access to the underlying server (used by the trace driver to
    /// feed per-VM utilisation into the guests).
    pub fn server_mut(&mut self) -> &mut SimServer {
        &mut self.server
    }

    /// The policy driving this controller.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Owned heap bytes behind this controller: the server's domain map
    /// (the policy handle is shared and accounted nowhere — an `Arc` to a
    /// stateless strategy).
    pub fn accounted_bytes(&self) -> u64 {
        self.server.accounted_bytes()
    }

    /// Attempt to admit a new VM, deflating residents if needed (the
    /// three-step placement of §6: the cluster manager already chose this
    /// server; this method performs steps two and three). Residents
    /// deflated to make room are logged in `changed`; the new domain is
    /// not (its caller gives it a slot).
    pub fn try_admit(&mut self, spec: VmSpec, changed: &mut Vec<u32>) -> Result<AdmissionOutcome> {
        spec.validate()?;
        let demand = spec.max_allocation;
        let free = self.server.free();
        if demand.fits_within(&free) {
            self.server.launch(spec, self.mechanism, free)?;
            return Ok(AdmissionOutcome::AdmittedWithoutDeflation);
        }

        let plan = self.make_room(demand.saturating_sub(&free), changed)?;
        if !plan.satisfied() {
            // "If this violates any resource constraint, then the server
            // rejects the VM."
            return Ok(AdmissionOutcome::Rejected {
                shortfall: plan.shortfall,
            });
        }
        let reclaimed = plan.reclaimed;
        let free = self.server.free();
        if demand.fits_within(&free) {
            self.server.launch(spec, self.mechanism, free)?;
        } else {
            // Deflation mechanisms are granular (hotplug rounds up), so
            // the freed amount can fall marginally short of the plan.
            // Admit the VM slightly deflated to fit the space actually
            // available rather than rejecting it.
            self.server
                .launch_deflated(spec, self.mechanism, demand.min(&free), free)?;
        }
        Ok(AdmissionOutcome::AdmittedWithDeflation { reclaimed })
    }

    /// The deflation half of [`try_admit`](Self::try_admit): step 2
    /// computes the deflation that frees `needed` more room, and step 3
    /// applies it — only if the plan meets the whole demand, so a
    /// rejected admission deflates nobody.
    pub fn make_room(
        &mut self,
        needed: ResourceVector,
        changed: &mut Vec<u32>,
    ) -> Result<PlanTotals> {
        PLANNER.with_borrow_mut(|planner| {
            let plan = planner.plan_into(self.policy.as_ref(), self.server.domains(), needed);
            if plan.satisfied() {
                self.server.apply_targets(planner.targets(), changed)?;
            }
            Ok(plan)
        })
    }

    /// Handle a VM departure: destroy the domain and redistribute the freed
    /// resources to deflated residents (reinflation, §5.1.3).
    pub fn on_departure(&mut self, vm: VmId, changed: &mut Vec<u32>) -> Result<()> {
        self.server.destroy_domain(vm)?;
        self.reinflate(changed);
        Ok(())
    }

    /// Handle a provider-side **capacity restitution**: grow the server to
    /// `new_capacity` and reinflate residents into the returned room.
    pub fn restore_capacity(&mut self, new_capacity: ResourceVector, changed: &mut Vec<u32>) {
        self.server.set_capacity(new_capacity);
        self.reinflate(changed);
    }

    /// Deflate residents until their effective allocations fit the server's
    /// current capacity (or the policy's headroom is exhausted) — the
    /// server-local half of a provider-side **capacity reclamation**, run
    /// after the caller shrinks the server with
    /// [`SimServer::set_capacity`]. Returns the remaining per-resource
    /// overage: zero when deflation alone absorbed the reclamation,
    /// positive when the caller must fall back to migrating or destroying
    /// residents.
    pub fn deflate_into_capacity(&mut self, changed: &mut Vec<u32>) -> ResourceVector {
        let over = self
            .server
            .effective_used()
            .saturating_sub(&self.server.capacity);
        if over.is_zero() {
            return ResourceVector::ZERO;
        }
        PLANNER.with_borrow_mut(|planner| {
            planner.plan_into(self.policy.as_ref(), self.server.domains(), over);
            let _ = self.server.apply_targets(planner.targets(), changed);
        });
        self.server
            .effective_used()
            .saturating_sub(&self.server.capacity)
    }

    /// Reinflate resident VMs using whatever capacity is currently free.
    /// Domains *parked* by the autoscaler (deflated instead of terminated)
    /// are skipped — their deflation is deliberate and must stick until
    /// the autoscaler unparks them. A server whose unparked deflatable
    /// residents all hold their maximum has nobody to grow, so it is not
    /// planned at all.
    pub fn reinflate(&mut self, changed: &mut Vec<u32>) {
        let (used, reinflatable) = self.server.used_and_reinflatable();
        if reinflatable {
            self.reinflate_into(used, changed);
        }
    }

    /// Reinflate residents into the currently free capacity, but only
    /// while the residents fit the capacity; returns whether they did. A
    /// server kept over capacity (by in-flight outbound transfers, say)
    /// has no room to hand out. One walk over the residents serves the
    /// check, the free room and whether anyone can grow at all.
    pub fn reinflate_if_fits(&mut self, changed: &mut Vec<u32>) -> bool {
        let (used, reinflatable) = self.server.used_and_reinflatable();
        if !used.fits_within(&self.server.capacity) {
            return false;
        }
        if reinflatable {
            self.reinflate_into(used, changed);
        }
        true
    }

    /// Hand the room left by `used` back to the unparked residents.
    fn reinflate_into(&mut self, used: ResourceVector, changed: &mut Vec<u32>) {
        let free = self.server.capacity.saturating_sub(&used);
        if free.is_zero() {
            return;
        }
        PLANNER.with_borrow_mut(|planner| {
            let residents = self.server.domains().filter(|d| !d.is_parked());
            planner.plan_into(self.policy.as_ref(), residents, -free);
            // Ignore the (negative) shortfall: not being able to place all
            // freed resources simply means residents are already fully
            // inflated.
            let _ = self.server.apply_targets(planner.targets(), changed);
        });
        debug_assert!(self.server.check_capacity_invariant().is_ok());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflate_core::policy::ProportionalDeflation;
    use deflate_core::vm::{Priority, ServerId, VmClass};
    use std::collections::BTreeMap;

    fn controller() -> LocalController {
        let server = SimServer::new(
            ServerId(1),
            ResourceVector::new(16_000.0, 32_768.0, 1_000.0, 10_000.0),
        );
        LocalController::new(
            server,
            Arc::new(ProportionalDeflation::default()),
            DeflationMechanism::Transparent,
        )
    }

    fn vm(id: u64, cores: f64, mem: f64) -> VmSpec {
        VmSpec::deflatable(
            VmId(id),
            VmClass::Interactive,
            ResourceVector::new(cores * 1000.0, mem, 100.0, 500.0),
        )
        .with_priority(Priority::new(0.5))
    }

    fn allocations(c: &LocalController) -> BTreeMap<VmId, ResourceVector> {
        c.server()
            .domains()
            .map(|d| (d.spec.id, d.effective_allocation()))
            .collect()
    }

    #[test]
    fn admission_without_pressure() {
        let mut c = controller();
        let mut log = Vec::new();
        let out = c.try_admit(vm(1, 4.0, 8192.0), &mut log).unwrap();
        assert_eq!(out, AdmissionOutcome::AdmittedWithoutDeflation);
        assert_eq!(c.server().domain_count(), 1);
    }

    #[test]
    fn admission_with_deflation_shrinks_residents() {
        let mut c = controller();
        let mut log = Vec::new();
        c.try_admit(vm(1, 10.0, 16_384.0), &mut log).unwrap();
        c.try_admit(vm(2, 6.0, 8192.0), &mut log).unwrap();
        let before = allocations(&c);
        // Server is now full (16 cores committed); a third VM forces
        // deflation of residents.
        let out = c.try_admit(vm(3, 8.0, 8192.0), &mut log).unwrap();
        match out {
            AdmissionOutcome::AdmittedWithDeflation { reclaimed } => {
                assert!(reclaimed.cpu() >= 8000.0 - 1e-6);
            }
            other => panic!("expected deflation admission, got {other:?}"),
        }
        assert_eq!(c.server().domain_count(), 3);
        assert!(c.server().check_capacity_invariant().is_ok());
        let after = allocations(&c);
        assert!(before.iter().all(|(id, old)| after[id].fits_within(old)));
        assert!(before
            .iter()
            .any(|(id, old)| after[id].total() < old.total()));
    }

    #[test]
    fn admission_rejected_when_headroom_insufficient() {
        let mut c = controller();
        let mut log = Vec::new();
        // Fill the server with a non-deflatable VM: nothing can be reclaimed.
        let od = VmSpec::on_demand(
            VmId(1),
            VmClass::Unknown,
            ResourceVector::new(16_000.0, 32_768.0, 1_000.0, 10_000.0),
        );
        c.try_admit(od, &mut log).unwrap();
        let out = c.try_admit(vm(2, 2.0, 2048.0), &mut log).unwrap();
        match out {
            AdmissionOutcome::Rejected { shortfall } => {
                assert!(shortfall.cpu() > 0.0);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(c.server().domain_count(), 1);
    }

    #[test]
    fn departure_triggers_reinflation() {
        let mut c = controller();
        let mut log = Vec::new();
        c.try_admit(vm(1, 10.0, 16_384.0), &mut log).unwrap();
        c.try_admit(vm(2, 6.0, 8192.0), &mut log).unwrap();
        c.try_admit(vm(3, 8.0, 8192.0), &mut log).unwrap();
        let before = allocations(&c);
        // VM 3 leaves; the survivors should be reinflated back towards full.
        c.on_departure(VmId(3), &mut log).unwrap();
        let d1 = c.server().domain(VmId(1)).unwrap();
        let d2 = c.server().domain(VmId(2)).unwrap();
        assert_eq!(d1.effective_allocation(), d1.spec.max_allocation);
        assert_eq!(d2.effective_allocation(), d2.spec.max_allocation);
        let after = allocations(&c);
        for id in [VmId(1), VmId(2)] {
            assert!(
                after[&id].total() > before[&id].total(),
                "{id} did not grow"
            );
        }
    }

    /// The controller's footprint depends only on its residents: repeated
    /// reclaim, restore, admission-under-pressure and departure cycles
    /// must not accumulate state.
    #[test]
    fn accounted_bytes_stay_flat_across_deflation_cycles() {
        let mut c = controller();
        let mut log = Vec::new();
        c.try_admit(vm(1, 10.0, 16_384.0), &mut log).unwrap();
        c.try_admit(vm(2, 6.0, 8192.0), &mut log).unwrap();
        let full = c.server().capacity;
        let mut after_10 = 0;
        for cycle in 1..=1000u64 {
            c.server_mut().set_capacity(full * 0.5);
            assert!(c.deflate_into_capacity(&mut log).is_zero());
            c.restore_capacity(full, &mut log);
            let id = VmId(100 + cycle);
            let out = c.try_admit(vm(id.0, 8.0, 8192.0), &mut log).unwrap();
            assert!(matches!(
                out,
                AdmissionOutcome::AdmittedWithDeflation { .. }
            ));
            c.on_departure(id, &mut log).unwrap();
            if cycle == 10 {
                after_10 = c.accounted_bytes();
            }
        }
        assert_eq!(c.accounted_bytes(), after_10);
    }

    #[test]
    fn capacity_reclaim_deflates_and_restore_reinflates() {
        let mut c = controller();
        let mut log = Vec::new();
        c.try_admit(vm(1, 10.0, 16_384.0), &mut log).unwrap();
        c.try_admit(vm(2, 6.0, 8_192.0), &mut log).unwrap();
        let full = ResourceVector::new(16_000.0, 32_768.0, 1_000.0, 10_000.0);
        // Reclaim half the server: residents must be deflated to fit.
        c.server_mut().set_capacity(full * 0.5);
        let remaining = c.deflate_into_capacity(&mut log);
        assert!(remaining.is_zero(), "unabsorbed overage {remaining}");
        assert!(c.server().check_capacity_invariant().is_ok());
        assert!(c
            .server()
            .domains()
            .any(|d| d.effective_allocation().cpu() < d.spec.max_allocation.cpu()));
        // Restore it: everyone reinflates back to their spec.
        c.restore_capacity(full, &mut log);
        assert!(c.server().check_capacity_invariant().is_ok());
        for d in c.server().domains() {
            assert_eq!(d.effective_allocation(), d.spec.max_allocation);
        }
        // A reclaim the free space already covers deflates nobody.
        c.server_mut().set_capacity(full);
        assert!(c.deflate_into_capacity(&mut log).is_zero());
    }

    #[test]
    fn parked_domains_are_skipped_by_reinflation() {
        let mut c = controller();
        let mut log = Vec::new();
        c.try_admit(vm(1, 8.0, 8192.0), &mut log).unwrap();
        c.try_admit(vm(2, 8.0, 8192.0), &mut log).unwrap();
        // Park VM 1 at 10 % of its allocation.
        let d1 = c.server_mut().domain_mut(VmId(1)).unwrap();
        let target = d1.spec.max_allocation * 0.1;
        d1.deflate_to(target);
        d1.set_parked(true);
        // A full reinflation pass must not grow the parked domain.
        c.reinflate(&mut log);
        let d1 = c.server().domain(VmId(1)).unwrap();
        assert!(d1.effective_allocation().cpu() <= 0.1 * d1.spec.max_allocation.cpu() + 1e-6);
        // Unparking makes the next pass restore it.
        c.server_mut()
            .domain_mut(VmId(1))
            .unwrap()
            .set_parked(false);
        c.reinflate(&mut log);
        let d1 = c.server().domain(VmId(1)).unwrap();
        assert_eq!(d1.effective_allocation(), d1.spec.max_allocation);
    }

    #[test]
    fn reinflation_waits_while_over_capacity() {
        let mut c = controller();
        let mut log = Vec::new();
        c.try_admit(vm(1, 10.0, 16_384.0), &mut log).unwrap();
        c.try_admit(vm(2, 6.0, 8_192.0), &mut log).unwrap();
        let full = c.server().capacity;
        c.server_mut().set_capacity(full * 0.5);
        assert!(c.deflate_into_capacity(&mut log).is_zero());
        let deflated = allocations(&c);
        // Over capacity (as with transfers still in flight): nothing moves.
        c.server_mut().set_capacity(full * 0.25);
        assert!(!c.reinflate_if_fits(&mut log));
        assert_eq!(allocations(&c), deflated);
        c.server_mut().set_capacity(full);
        assert!(c.reinflate_if_fits(&mut log));
        for d in c.server().domains() {
            assert_eq!(d.effective_allocation(), d.spec.max_allocation);
        }
    }

    /// Reinflation through the full path, with no skip anywhere: each
    /// kind planned by the scalar water-fill, every unparked deflatable
    /// resident retargeted. Returns the change log.
    fn full_reinflate(server: &mut SimServer, policy: &dyn DeflationPolicy) -> Vec<u32> {
        use deflate_core::policy::VmResourceState;
        use deflate_core::resources::ResourceKind;
        let free = server.capacity.saturating_sub(&server.effective_used());
        let residents: Vec<_> = server
            .domains()
            .filter(|d| d.spec.deflatable && !d.is_parked())
            .map(|d| (d.spec.clone(), d.effective_allocation()))
            .collect();
        let mut targets: Vec<_> = residents.iter().map(|(s, a)| (s.id, *a)).collect();
        for kind in ResourceKind::ALL {
            if free[kind].abs() <= 1e-12 {
                continue;
            }
            let states: Vec<_> = residents
                .iter()
                .map(|(spec, current)| VmResourceState {
                    id: spec.id,
                    max: spec.max_allocation[kind],
                    min: spec.min_allocation[kind],
                    current: current[kind],
                    priority: spec.priority.value(),
                })
                .collect();
            let plan = policy.plan(&states, -free[kind]);
            for ((_, target), (_, v)) in plan.targets.iter().zip(targets.iter_mut()) {
                v[kind] = *target;
            }
        }
        let mut changed = Vec::new();
        server.apply_targets(&targets, &mut changed).unwrap();
        changed
    }

    /// Every domain's snapshot bytes and effective allocation bits.
    fn domain_bits(server: &SimServer) -> Vec<(Vec<u8>, Vec<u64>)> {
        server
            .domains()
            .map(|d| {
                let mut w = deflate_core::checkpoint::ByteWriter::new();
                d.write_snapshot(&mut w);
                let eff = d.effective_allocation();
                (
                    w.into_bytes(),
                    eff.iter().map(|(_, x)| x.to_bits()).collect(),
                )
            })
            .collect()
    }

    /// A server whose unparked deflatable residents all hold their maximum
    /// — next to a parked resident and a deflated non-deflatable one — is
    /// not planned, and ends bit-identical to the full plan-and-apply
    /// path, under every mechanism and policy. With one resident below
    /// its maximum both paths plan, and still agree.
    #[test]
    fn reinflation_skip_matches_the_full_path() {
        use deflate_core::policy::{DeterministicDeflation, PriorityDeflation};
        let policies: [Arc<dyn DeflationPolicy>; 3] = [
            Arc::new(ProportionalDeflation::default()),
            Arc::new(PriorityDeflation::default()),
            Arc::new(DeterministicDeflation::default()),
        ];
        for mechanism in [
            DeflationMechanism::Transparent,
            DeflationMechanism::Explicit,
            DeflationMechanism::Hybrid,
        ] {
            for policy in &policies {
                for grown in [false, true] {
                    let server = SimServer::new(
                        ServerId(1),
                        ResourceVector::new(64_000.0, 131_072.0, 2_000.0, 10_000.0),
                    );
                    let mut c = LocalController::new(server, Arc::clone(policy), mechanism);
                    let mut log = Vec::new();
                    c.try_admit(vm(1, 3.5, 6000.0), &mut log).unwrap();
                    c.try_admit(vm(2, 6.0, 8192.0), &mut log).unwrap();
                    c.try_admit(vm(3, 4.0, 4096.0), &mut log).unwrap();
                    let od = VmSpec::on_demand(
                        VmId(4),
                        VmClass::Unknown,
                        ResourceVector::new(2000.0, 4096.0, 100.0, 100.0),
                    );
                    c.try_admit(od, &mut log).unwrap();
                    for (slot, d) in c.server_mut().domains_mut().enumerate() {
                        d.slot = slot as u32;
                        d.report_guest_usage(ResourceVector::new(700.0, 1500.0, 10.0, 20.0), 400.0);
                    }
                    let server = c.server_mut();
                    let parked = server.domain_mut(VmId(3)).unwrap();
                    parked.deflate_to(parked.spec.max_allocation * 0.25);
                    parked.set_parked(true);
                    let od = server.domain_mut(VmId(4)).unwrap();
                    od.deflate_to(od.spec.max_allocation * 0.5);
                    if grown {
                        let d = server.domain_mut(VmId(2)).unwrap();
                        d.deflate_to(d.spec.max_allocation * 0.6);
                    }
                    let mut full = server.clone();
                    let want_log = full_reinflate(&mut full, policy.as_ref());
                    let want = domain_bits(&full);
                    let before = c.server().clone();
                    for if_fits in [false, true] {
                        *c.server_mut() = before.clone();
                        let mut log = Vec::new();
                        if if_fits {
                            assert!(c.reinflate_if_fits(&mut log));
                        } else {
                            c.reinflate(&mut log);
                        }
                        let case = format!("{} {} grown={grown}", mechanism.name(), policy.name());
                        assert_eq!(log, want_log, "{case}");
                        assert_eq!(log.is_empty(), !grown, "{case}");
                        assert_eq!(domain_bits(c.server()), want, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn departure_of_unknown_vm_errors() {
        let mut c = controller();
        let mut log = Vec::new();
        assert!(c.on_departure(VmId(42), &mut log).is_err());
    }

    #[test]
    fn policy_name_is_exposed() {
        let c = controller();
        assert_eq!(c.policy_name(), "proportional-min-aware");
    }
}

//! The per-server local deflation controller (§6).
//!
//! "We run local deflation controllers that run on each server. These local
//! controllers control the deflation of VMs by responding to resource
//! pressure, by implementing the proportional deflation policies described in
//! section 5." The controller owns a [`SimServer`], applies a server-level
//! [`DeflationPolicy`] when a new VM needs room, and reinflates residents
//! when capacity frees up. The paper's controllers also notify an
//! application manager of each change (Figure 1); nothing in this engine
//! subscribes, so the controller keeps no log. A caller that wants to see a
//! change compares [`Domain::effective_allocation`](crate::domain::Domain::effective_allocation)
//! before and after the call.

use crate::domain::DeflationMechanism;
use crate::server::SimServer;
use deflate_core::error::{DeflateError, Result};
use deflate_core::policy::{DeflationPolicy, VectorPlanner};
use deflate_core::resources::ResourceVector;
use deflate_core::vm::{VmId, VmSpec};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

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
    /// server; this method performs steps two and three).
    pub fn try_admit(&mut self, spec: VmSpec) -> Result<AdmissionOutcome> {
        spec.validate()?;
        let demand = spec.max_allocation;
        let free = self.server.free();
        if demand.fits_within(&free) {
            self.server.create_domain(spec, self.mechanism)?;
            return Ok(AdmissionOutcome::AdmittedWithoutDeflation);
        }

        // Step 2: compute the deflation required to accommodate the new VM.
        let needed = demand.saturating_sub(&free);
        let domains: Vec<_> = self.server.domains().collect();
        let plan = VectorPlanner::plan(self.policy.as_ref(), &domains, needed);
        if !plan.satisfied() {
            // "If this violates any resource constraint, then the server
            // rejects the VM."
            return Ok(AdmissionOutcome::Rejected {
                shortfall: plan.shortfall,
            });
        }

        // Step 3: perform the actual deflation and launch the VM.
        self.server.apply_targets(&plan.targets)?;
        let reclaimed = plan.reclaimed;
        match self.server.create_domain(spec.clone(), self.mechanism) {
            Ok(_) => Ok(AdmissionOutcome::AdmittedWithDeflation { reclaimed }),
            Err(DeflateError::PlacementFailed { .. }) => {
                // Deflation mechanisms are granular (hotplug rounds up), so
                // the freed amount can fall marginally short of the plan.
                // Admit the VM slightly deflated to fit the space actually
                // available rather than rejecting it.
                let free = self.server.free();
                let initial = demand.min(&free);
                self.server
                    .create_domain_deflated(spec, self.mechanism, initial)?;
                Ok(AdmissionOutcome::AdmittedWithDeflation { reclaimed })
            }
            Err(e) => Err(e),
        }
    }

    /// Handle a VM departure: destroy the domain and redistribute the freed
    /// resources to deflated residents (reinflation, §5.1.3).
    pub fn on_departure(&mut self, vm: VmId) -> Result<()> {
        self.server.destroy_domain(vm)?;
        self.reinflate();
        Ok(())
    }

    /// Handle a provider-side **capacity restitution**: grow the server to
    /// `new_capacity` and reinflate residents into the returned room.
    pub fn restore_capacity(&mut self, new_capacity: ResourceVector) {
        self.server.set_capacity(new_capacity);
        self.reinflate();
    }

    /// Deflate residents until their effective allocations fit the server's
    /// current capacity (or the policy's headroom is exhausted) — the
    /// server-local half of a provider-side **capacity reclamation**, run
    /// after the caller shrinks the server with
    /// [`SimServer::set_capacity`]. Returns the remaining per-resource
    /// overage: zero when deflation alone absorbed the reclamation,
    /// positive when the caller must fall back to migrating or destroying
    /// residents.
    pub fn deflate_into_capacity(&mut self) -> ResourceVector {
        let over = self
            .server
            .effective_used()
            .saturating_sub(&self.server.capacity);
        if over.is_zero() {
            return ResourceVector::ZERO;
        }
        let domains: Vec<_> = self.server.domains().collect();
        let plan = VectorPlanner::plan(self.policy.as_ref(), &domains, over);
        let _ = self.server.apply_targets(&plan.targets);
        self.server
            .effective_used()
            .saturating_sub(&self.server.capacity)
    }

    /// Reinflate resident VMs using whatever capacity is currently free.
    /// Domains *parked* by the autoscaler (deflated instead of terminated)
    /// are skipped — their deflation is deliberate and must stick until
    /// the autoscaler unparks them.
    pub fn reinflate(&mut self) {
        self.reinflate_fraction(1.0);
    }

    /// Reinflate residents into only `fraction` of the currently free
    /// capacity — the spread-out half of the restore-hysteresis policy.
    /// `1.0` is the full greedy hand-back of [`reinflate`](Self::reinflate).
    pub fn reinflate_partial(&mut self, fraction: f64) {
        self.reinflate_fraction(fraction.clamp(0.0, 1.0));
    }

    fn reinflate_fraction(&mut self, fraction: f64) {
        let free = self.server.free() * fraction;
        if free.is_zero() {
            return;
        }
        let domains: Vec<_> = self.server.domains().filter(|d| !d.is_parked()).collect();
        let plan = VectorPlanner::plan(self.policy.as_ref(), &domains, -free);
        // Ignore the (negative) shortfall: not being able to place all freed
        // resources simply means residents are already fully inflated.
        let _ = self.server.apply_targets(&plan.targets);
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
        let out = c.try_admit(vm(1, 4.0, 8192.0)).unwrap();
        assert_eq!(out, AdmissionOutcome::AdmittedWithoutDeflation);
        assert_eq!(c.server().domain_count(), 1);
    }

    #[test]
    fn admission_with_deflation_shrinks_residents() {
        let mut c = controller();
        c.try_admit(vm(1, 10.0, 16_384.0)).unwrap();
        c.try_admit(vm(2, 6.0, 8192.0)).unwrap();
        let before = allocations(&c);
        // Server is now full (16 cores committed); a third VM forces
        // deflation of residents.
        let out = c.try_admit(vm(3, 8.0, 8192.0)).unwrap();
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
        // Fill the server with a non-deflatable VM: nothing can be reclaimed.
        let od = VmSpec::on_demand(
            VmId(1),
            VmClass::Unknown,
            ResourceVector::new(16_000.0, 32_768.0, 1_000.0, 10_000.0),
        );
        c.try_admit(od).unwrap();
        let out = c.try_admit(vm(2, 2.0, 2048.0)).unwrap();
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
        c.try_admit(vm(1, 10.0, 16_384.0)).unwrap();
        c.try_admit(vm(2, 6.0, 8192.0)).unwrap();
        c.try_admit(vm(3, 8.0, 8192.0)).unwrap();
        let before = allocations(&c);
        // VM 3 leaves; the survivors should be reinflated back towards full.
        c.on_departure(VmId(3)).unwrap();
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
        c.try_admit(vm(1, 10.0, 16_384.0)).unwrap();
        c.try_admit(vm(2, 6.0, 8192.0)).unwrap();
        let full = c.server().capacity;
        let mut after_10 = 0;
        for cycle in 1..=1000u64 {
            c.server_mut().set_capacity(full * 0.5);
            assert!(c.deflate_into_capacity().is_zero());
            c.restore_capacity(full);
            let id = VmId(100 + cycle);
            let out = c.try_admit(vm(id.0, 8.0, 8192.0)).unwrap();
            assert!(matches!(
                out,
                AdmissionOutcome::AdmittedWithDeflation { .. }
            ));
            c.on_departure(id).unwrap();
            if cycle == 10 {
                after_10 = c.accounted_bytes();
            }
        }
        assert_eq!(c.accounted_bytes(), after_10);
    }

    #[test]
    fn capacity_reclaim_deflates_and_restore_reinflates() {
        let mut c = controller();
        c.try_admit(vm(1, 10.0, 16_384.0)).unwrap();
        c.try_admit(vm(2, 6.0, 8_192.0)).unwrap();
        let full = ResourceVector::new(16_000.0, 32_768.0, 1_000.0, 10_000.0);
        // Reclaim half the server: residents must be deflated to fit.
        c.server_mut().set_capacity(full * 0.5);
        let remaining = c.deflate_into_capacity();
        assert!(remaining.is_zero(), "unabsorbed overage {remaining}");
        assert!(c.server().check_capacity_invariant().is_ok());
        assert!(c
            .server()
            .domains()
            .any(|d| d.effective_allocation().cpu() < d.spec.max_allocation.cpu()));
        // Restore it: everyone reinflates back to their spec.
        c.restore_capacity(full);
        assert!(c.server().check_capacity_invariant().is_ok());
        for d in c.server().domains() {
            assert_eq!(d.effective_allocation(), d.spec.max_allocation);
        }
        // A reclaim the free space already covers deflates nobody.
        c.server_mut().set_capacity(full);
        assert!(c.deflate_into_capacity().is_zero());
    }

    #[test]
    fn parked_domains_are_skipped_by_reinflation() {
        let mut c = controller();
        c.try_admit(vm(1, 8.0, 8192.0)).unwrap();
        c.try_admit(vm(2, 8.0, 8192.0)).unwrap();
        // Park VM 1 at 10 % of its allocation.
        let d1 = c.server_mut().domain_mut(VmId(1)).unwrap();
        let target = d1.spec.max_allocation * 0.1;
        d1.deflate_to(target);
        d1.set_parked(true);
        // A full reinflation pass must not grow the parked domain.
        c.reinflate();
        let d1 = c.server().domain(VmId(1)).unwrap();
        assert!(d1.effective_allocation().cpu() <= 0.1 * d1.spec.max_allocation.cpu() + 1e-6);
        // Unparking makes the next pass restore it.
        c.server_mut()
            .domain_mut(VmId(1))
            .unwrap()
            .set_parked(false);
        c.reinflate();
        let d1 = c.server().domain(VmId(1)).unwrap();
        assert_eq!(d1.effective_allocation(), d1.spec.max_allocation);
    }

    #[test]
    fn partial_reinflation_returns_only_a_fraction_of_the_room() {
        let mut c = controller();
        c.try_admit(vm(1, 16.0, 16_384.0)).unwrap();
        // Deflate to half, then hand back only a quarter of the free room.
        let d1 = c.server_mut().domain_mut(VmId(1)).unwrap();
        let half = d1.spec.max_allocation * 0.5;
        d1.deflate_to(half);
        c.reinflate_partial(0.25);
        let cpu = c
            .server()
            .domain(VmId(1))
            .unwrap()
            .effective_allocation()
            .cpu();
        // Free room was 8000 millicores; a quarter of it is 2000.
        assert!((cpu - 10_000.0).abs() < 1e-6, "cpu after partial: {cpu}");
        // A full pass finishes the job.
        c.reinflate();
        assert_eq!(
            c.server().domain(VmId(1)).unwrap().effective_allocation(),
            c.server().domain(VmId(1)).unwrap().spec.max_allocation
        );
    }

    #[test]
    fn departure_of_unknown_vm_errors() {
        let mut c = controller();
        assert!(c.on_departure(VmId(42)).is_err());
    }

    #[test]
    fn policy_name_is_exposed() {
        let c = controller();
        assert_eq!(c.policy_name(), "proportional-min-aware");
    }
}

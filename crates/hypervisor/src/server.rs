//! A simulated physical server hosting a set of [`Domain`]s.
//!
//! The server tracks hardware capacity, the domains resident on it, and the
//! accounting the cluster layer needs: committed vs effective allocations,
//! overcommitment factor, deflatable headroom, and the [`ServerView`] used by
//! placement (§5.2).

use crate::domain::{DeflationMechanism, Domain};
use deflate_core::error::{DeflateError, Result};
use deflate_core::placement::ServerView;
use deflate_core::resources::ResourceVector;
use deflate_core::vm::{ServerId, VmId, VmSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A simulated physical server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimServer {
    /// Server identity.
    pub id: ServerId,
    /// Hardware capacity.
    pub capacity: ResourceVector,
    /// Partition this server belongs to (placement pools, §5.2.1).
    pub partition: Option<u8>,
    domains: BTreeMap<VmId, Domain>,
}

impl SimServer {
    /// Create an empty server.
    pub fn new(id: ServerId, capacity: ResourceVector) -> Self {
        SimServer {
            id,
            capacity,
            partition: None,
            domains: BTreeMap::new(),
        }
    }

    /// Builder-style partition assignment.
    pub fn with_partition(mut self, partition: Option<u8>) -> Self {
        self.partition = partition;
        self
    }

    /// Change the server's hardware capacity (provider-side reclamation or
    /// restitution of transient capacity, §2/§7.4).
    ///
    /// Lowering the capacity below the current effective usage is legal
    /// *transiently*: the caller must immediately restore the capacity
    /// invariant by deflating, migrating or destroying resident domains
    /// (see `LocalController::deflate_into_capacity` and the cluster
    /// manager's reclamation handler).
    pub fn set_capacity(&mut self, capacity: ResourceVector) {
        self.capacity = capacity;
    }

    /// Number of resident domains.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Iterate over resident domains.
    pub fn domains(&self) -> impl Iterator<Item = &Domain> {
        self.domains.values()
    }

    /// Iterate mutably over resident domains.
    pub fn domains_mut(&mut self) -> impl Iterator<Item = &mut Domain> {
        self.domains.values_mut()
    }

    /// Look up a domain.
    pub fn domain(&self, id: VmId) -> Option<&Domain> {
        self.domains.get(&id)
    }

    /// Look up a domain mutably.
    pub fn domain_mut(&mut self, id: VmId) -> Option<&mut Domain> {
        self.domains.get_mut(&id)
    }

    /// Owned heap bytes behind this server: one map node per resident
    /// domain plus each domain's own heap (see `deflate_core::mem` for
    /// the convention). Feeds the engine's `mem.vm_records` gauge.
    pub fn accounted_bytes(&self) -> u64 {
        self.domains
            .iter()
            .map(|(id, d)| {
                deflate_core::mem::map_entry_bytes(
                    std::mem::size_of_val(id),
                    std::mem::size_of::<Domain>(),
                ) + d.accounted_bytes()
            })
            .sum()
    }

    /// Sum of the *effective* (currently granted) allocations of all
    /// resident domains. This is what physically occupies the server and can
    /// never exceed `capacity`.
    pub fn effective_used(&self) -> ResourceVector {
        self.domains
            .values()
            .map(|d| d.effective_allocation())
            .sum()
    }

    /// Sum of the *committed* (maximum, undeflated) allocations. Under
    /// overcommitment this exceeds the capacity.
    pub fn committed(&self) -> ResourceVector {
        self.domains.values().map(|d| d.spec.max_allocation).sum()
    }

    /// Free capacity (capacity minus effective usage).
    pub fn free(&self) -> ResourceVector {
        self.capacity.saturating_sub(&self.effective_used())
    }

    /// Resources still reclaimable from resident deflatable domains
    /// (effective allocation minus each domain's minimum).
    pub fn deflatable_headroom(&self) -> ResourceVector {
        self.domains
            .values()
            .filter(|d| d.spec.deflatable)
            .map(|d| {
                d.effective_allocation()
                    .saturating_sub(&d.spec.min_allocation)
            })
            .sum()
    }

    /// Overcommitment factor: the largest per-dimension ratio of committed
    /// allocation to capacity, floored at 1.0 (§5.2 `overcommitted_j`).
    pub fn overcommitment_factor(&self) -> f64 {
        self.overcommitment_of(self.committed())
    }

    /// [`overcommitment_factor`](Self::overcommitment_factor) of a
    /// `committed` vector the caller has already summed.
    fn overcommitment_of(&self, committed: ResourceVector) -> f64 {
        let mut worst: f64 = 1.0;
        for (kind, cap) in self.capacity.iter() {
            if cap > 0.0 {
                worst = worst.max(committed[kind] / cap);
            }
        }
        worst
    }

    /// Snapshot for the placement layer. One walk over the residents sums
    /// [`effective_used`](Self::effective_used),
    /// [`deflatable_headroom`](Self::deflatable_headroom) and
    /// [`committed`](Self::committed), each in the same order as those
    /// methods do.
    pub fn view(&self) -> ServerView {
        let mut used = ResourceVector::ZERO;
        let mut deflatable = ResourceVector::ZERO;
        let mut committed = ResourceVector::ZERO;
        for d in self.domains.values() {
            let effective = d.effective_allocation();
            used += effective;
            if d.spec.deflatable {
                deflatable += effective.saturating_sub(&d.spec.min_allocation);
            }
            committed += d.spec.max_allocation;
        }
        ServerView {
            id: self.id,
            total: self.capacity,
            used,
            deflatable,
            overcommitment: self.overcommitment_of(committed),
            partition: self.partition,
        }
    }

    /// [`effective_used`](Self::effective_used), and whether a reinflation
    /// could grow anyone: some unparked deflatable resident holds less
    /// than its maximum on some resource.
    pub(crate) fn used_and_reinflatable(&self) -> (ResourceVector, bool) {
        let mut used = ResourceVector::ZERO;
        let mut reinflatable = false;
        for d in self.domains.values() {
            let effective = d.effective_allocation();
            used += effective;
            reinflatable |=
                d.spec.deflatable && !d.is_parked() && effective != d.spec.max_allocation;
        }
        (used, reinflatable)
    }

    /// Launch a new domain at its full allocation. Fails if the domain's
    /// full allocation does not fit in the currently free capacity — callers
    /// that want to admit under pressure must deflate residents first (or use
    /// [`create_domain_deflated`](Self::create_domain_deflated)).
    pub fn create_domain(
        &mut self,
        spec: VmSpec,
        mechanism: DeflationMechanism,
    ) -> Result<&mut Domain> {
        spec.validate()?;
        let free = self.free();
        self.launch(spec, mechanism, free)
    }

    /// [`create_domain`](Self::create_domain) for a spec the caller has
    /// already validated, against the `free` capacity it has already
    /// computed.
    pub(crate) fn launch(
        &mut self,
        spec: VmSpec,
        mechanism: DeflationMechanism,
        free: ResourceVector,
    ) -> Result<&mut Domain> {
        self.check_new_id(spec.id)?;
        if !spec.max_allocation.fits_within(&free) {
            return Err(DeflateError::PlacementFailed { vm: spec.id });
        }
        Ok(self
            .domains
            .entry(spec.id)
            .or_insert(Domain::launch_with(spec, mechanism)))
    }

    /// Launch a new domain directly in a deflated state (§5.1.1 allows
    /// incoming VMs to "start execution in a deflated mode"). The initial
    /// target is clamped to the spec's bounds and must fit in free capacity.
    pub fn create_domain_deflated(
        &mut self,
        spec: VmSpec,
        mechanism: DeflationMechanism,
        initial_target: ResourceVector,
    ) -> Result<&mut Domain> {
        spec.validate()?;
        let free = self.free();
        self.launch_deflated(spec, mechanism, initial_target, free)
    }

    /// [`create_domain_deflated`](Self::create_domain_deflated) for a spec
    /// the caller has already validated, against the `free` capacity it
    /// has already computed.
    pub(crate) fn launch_deflated(
        &mut self,
        spec: VmSpec,
        mechanism: DeflationMechanism,
        initial_target: ResourceVector,
        free: ResourceVector,
    ) -> Result<&mut Domain> {
        self.check_new_id(spec.id)?;
        let mut target = initial_target.clamp(&spec.min_allocation, &spec.max_allocation);
        if !target.fits_within(&free) {
            return Err(DeflateError::PlacementFailed { vm: spec.id });
        }
        let id = spec.id;
        let mut domain = Domain::launch_with(spec, mechanism);
        // Coarse-grained mechanisms (explicit hotplug) round targets *up* to
        // whole vCPUs / memory blocks and refuse to go below the guest's
        // safety threshold, so the effective allocation can overshoot the
        // requested target. Lower the target until the domain physically
        // fits in the free capacity, or give up if the mechanism cannot
        // shrink it far enough.
        let mut fits = false;
        for _ in 0..8 {
            domain.deflate_to(target);
            let effective = domain.effective_allocation();
            if effective.fits_within(&free) {
                fits = true;
                break;
            }
            let overshoot = effective.saturating_sub(&free);
            target = target.saturating_sub(&overshoot) - ResourceVector::splat(1.0);
            target = target.max(&ResourceVector::ZERO);
        }
        if !fits {
            return Err(DeflateError::PlacementFailed { vm: id });
        }
        Ok(self.domains.entry(id).or_insert(domain))
    }

    /// Refuse an id that already has a domain here.
    fn check_new_id(&self, id: VmId) -> Result<()> {
        if self.domains.contains_key(&id) {
            return Err(DeflateError::InvalidSpec {
                vm: id,
                reason: "a domain with this id already exists on the server".into(),
            });
        }
        Ok(())
    }

    /// Insert a domain restored from an engine checkpoint, bypassing
    /// [`create_domain`](Self::create_domain)'s admission checks: a
    /// restored domain carries live guest state (it must not re-boot
    /// fresh), and a snapshotted server may legitimately sit below its
    /// base capacity mid-reclamation. Replaces any same-id resident.
    pub fn restore_domain(&mut self, domain: Domain) {
        self.domains.insert(domain.spec.id, domain);
    }

    /// Destroy a domain and return it (e.g. for migration accounting).
    pub fn destroy_domain(&mut self, id: VmId) -> Result<Domain> {
        self.domains.remove(&id).ok_or(DeflateError::UnknownVm(id))
    }

    /// Apply new allocation targets to a set of domains, in slice order
    /// (typically the targets of a
    /// [`VectorPlan`](deflate_core::policy::VectorPlan) computed by a
    /// deflation policy), appending to `changed` the slot of every domain
    /// whose effective CPU allocation moved. An unknown VM id stops the
    /// walk with an error; known domains are updated through their
    /// configured mechanism.
    pub fn apply_targets(
        &mut self,
        targets: &[(VmId, ResourceVector)],
        changed: &mut Vec<u32>,
    ) -> Result<()> {
        // A plan over this server's domains lists them in map (id) order,
        // so one merged walk of the map finds every target. The first
        // target out of that order hands the rest to per-id lookups.
        let mut domains = self.domains.iter_mut().peekable();
        for (applied, &(id, target)) in targets.iter().enumerate() {
            while domains.next_if(|(resident, _)| **resident < id).is_some() {}
            match domains.next_if(|(resident, _)| **resident == id) {
                Some((_, domain)) => domain.retarget(target, changed),
                None => return self.apply_targets_by_id(&targets[applied..], changed),
            }
        }
        Ok(())
    }

    /// [`apply_targets`](Self::apply_targets) by one map lookup per target.
    fn apply_targets_by_id(
        &mut self,
        targets: &[(VmId, ResourceVector)],
        changed: &mut Vec<u32>,
    ) -> Result<()> {
        for &(id, target) in targets {
            let domain = self
                .domains
                .get_mut(&id)
                .ok_or(DeflateError::UnknownVm(id))?;
            domain.retarget(target, changed);
        }
        Ok(())
    }

    /// Check the physical invariant: effective allocations never exceed
    /// capacity. Returns the violating vector when broken (used by tests and
    /// debug assertions in the cluster simulator).
    pub fn check_capacity_invariant(&self) -> std::result::Result<(), ResourceVector> {
        let used = self.effective_used();
        if used.fits_within(&self.capacity) {
            Ok(())
        } else {
            Err(used)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflate_core::vm::{Priority, VmClass};

    fn capacity() -> ResourceVector {
        ResourceVector::new(48_000.0, 131_072.0, 2_000.0, 10_000.0)
    }

    fn spec(id: u64, cores: f64, mem: f64) -> VmSpec {
        VmSpec::deflatable(
            VmId(id),
            VmClass::Interactive,
            ResourceVector::new(cores * 1000.0, mem, 100.0, 500.0),
        )
        .with_priority(Priority::new(0.5))
    }

    #[test]
    fn create_and_destroy() {
        let mut s = SimServer::new(ServerId(1), capacity());
        s.create_domain(spec(1, 4.0, 8192.0), DeflationMechanism::Hybrid)
            .unwrap();
        assert_eq!(s.domain_count(), 1);
        assert!(s.domain(VmId(1)).is_some());
        // Duplicate id rejected.
        assert!(s
            .create_domain(spec(1, 1.0, 1024.0), DeflationMechanism::Hybrid)
            .is_err());
        let d = s.destroy_domain(VmId(1)).unwrap();
        assert_eq!(d.spec.id, VmId(1));
        assert!(s.destroy_domain(VmId(1)).is_err());
    }

    #[test]
    fn create_fails_when_capacity_exhausted() {
        let mut s = SimServer::new(ServerId(1), ResourceVector::cpu_mem(8000.0, 16_384.0));
        s.create_domain(
            VmSpec::deflatable(
                VmId(1),
                VmClass::Interactive,
                ResourceVector::cpu_mem(6000.0, 8192.0),
            ),
            DeflationMechanism::Transparent,
        )
        .unwrap();
        let err = s
            .create_domain(
                VmSpec::deflatable(
                    VmId(2),
                    VmClass::Interactive,
                    ResourceVector::cpu_mem(4000.0, 8192.0),
                ),
                DeflationMechanism::Transparent,
            )
            .unwrap_err();
        assert!(matches!(err, DeflateError::PlacementFailed { .. }));
    }

    #[test]
    fn deflated_creation_fits_where_full_does_not() {
        let mut s = SimServer::new(ServerId(1), ResourceVector::cpu_mem(8000.0, 16_384.0));
        s.create_domain(
            VmSpec::deflatable(
                VmId(1),
                VmClass::Interactive,
                ResourceVector::cpu_mem(6000.0, 8192.0),
            ),
            DeflationMechanism::Transparent,
        )
        .unwrap();
        let new_spec = VmSpec::deflatable(
            VmId(2),
            VmClass::Interactive,
            ResourceVector::cpu_mem(4000.0, 8192.0),
        );
        let d = s
            .create_domain_deflated(
                new_spec,
                DeflationMechanism::Transparent,
                ResourceVector::cpu_mem(2000.0, 4096.0),
            )
            .unwrap();
        assert_eq!(d.effective_allocation().cpu(), 2000.0);
        assert!(s.check_capacity_invariant().is_ok());
    }

    #[test]
    fn accounting_vectors() {
        let mut s = SimServer::new(ServerId(1), capacity());
        s.create_domain(spec(1, 8.0, 16_384.0), DeflationMechanism::Hybrid)
            .unwrap();
        s.create_domain(spec(2, 16.0, 32_768.0), DeflationMechanism::Hybrid)
            .unwrap();
        assert_eq!(s.committed().cpu(), 24_000.0);
        assert_eq!(s.effective_used().cpu(), 24_000.0);
        assert_eq!(s.free().cpu(), 24_000.0);
        assert_eq!(s.deflatable_headroom().cpu(), 24_000.0);
        assert_eq!(s.overcommitment_factor(), 1.0);
        let view = s.view();
        assert_eq!(view.id, ServerId(1));
        assert_eq!(view.used.cpu(), 24_000.0);
    }

    #[test]
    fn overcommitment_counts_committed_not_effective() {
        let mut s = SimServer::new(ServerId(1), ResourceVector::cpu_mem(8000.0, 16_384.0));
        s.create_domain(
            VmSpec::deflatable(
                VmId(1),
                VmClass::Interactive,
                ResourceVector::cpu_mem(8000.0, 8192.0),
            ),
            DeflationMechanism::Transparent,
        )
        .unwrap();
        // Deflate the resident VM, then admit another one deflated.
        s.apply_targets(
            &[(VmId(1), ResourceVector::cpu_mem(4000.0, 8192.0))],
            &mut Vec::new(),
        )
        .unwrap();
        s.create_domain_deflated(
            VmSpec::deflatable(
                VmId(2),
                VmClass::Interactive,
                ResourceVector::cpu_mem(8000.0, 8192.0),
            ),
            DeflationMechanism::Transparent,
            ResourceVector::cpu_mem(4000.0, 8192.0),
        )
        .unwrap();
        assert!(s.overcommitment_factor() > 1.9);
        assert!(s.check_capacity_invariant().is_ok());
        assert_eq!(s.effective_used().cpu(), 8000.0);
    }

    #[test]
    fn apply_targets_unknown_vm_errors() {
        let mut s = SimServer::new(ServerId(1), capacity());
        s.create_domain(spec(1, 4.0, 8192.0), DeflationMechanism::Transparent)
            .unwrap();
        let before = s.domain(VmId(1)).unwrap().effective_allocation();
        assert!(matches!(
            s.apply_targets(
                &[
                    (VmId(99), ResourceVector::ZERO),
                    (VmId(1), ResourceVector::ZERO)
                ],
                &mut Vec::new()
            ),
            Err(DeflateError::UnknownVm(VmId(99)))
        ));
        // The walk stops at the unknown id: later targets are not applied.
        assert_eq!(s.domain(VmId(1)).unwrap().effective_allocation(), before);
    }

    /// The merged walk and the per-id fallback apply the same targets:
    /// in map order with gaps, out of order, and with a repeated id (the
    /// last target wins, as in slice order). Both log the slot of every
    /// domain whose CPU allocation moved, once per move.
    #[test]
    fn apply_targets_in_any_order() {
        let mut s = SimServer::new(ServerId(1), capacity());
        for id in 1..=5 {
            s.create_domain(spec(id, 4.0, 8192.0), DeflationMechanism::Transparent)
                .unwrap()
                .slot = 10 + id as u32;
        }
        let to = |cores: f64| ResourceVector::new(cores * 1000.0, 4096.0, 50.0, 250.0);
        let cpu = |s: &SimServer, id: u64| s.domain(VmId(id)).unwrap().effective_allocation().cpu();
        let mut changed = Vec::new();
        s.apply_targets(&[(VmId(2), to(1.0)), (VmId(4), to(2.0))], &mut changed)
            .unwrap();
        assert_eq!(
            (cpu(&s, 2), cpu(&s, 4), cpu(&s, 3)),
            (1000.0, 2000.0, 4000.0)
        );
        assert_eq!(changed, [12, 14]);
        changed.clear();
        s.apply_targets(
            &[
                (VmId(5), to(3.0)),
                (VmId(1), to(1.5)),
                (VmId(4), to(2.0)),
                (VmId(5), to(2.5)),
                (VmId(3), to(0.5)),
            ],
            &mut changed,
        )
        .unwrap();
        assert_eq!(
            (cpu(&s, 1), cpu(&s, 3), cpu(&s, 5)),
            (1500.0, 500.0, 2500.0)
        );
        // VM 4's target is its current allocation: no change, no entry.
        assert_eq!(changed, [15, 11, 15, 13]);
        // An unknown id after a positional match still stops the walk.
        changed.clear();
        assert!(matches!(
            s.apply_targets(
                &[(VmId(1), to(1.0)), (VmId(9), to(1.0)), (VmId(2), to(3.0))],
                &mut changed
            ),
            Err(DeflateError::UnknownVm(VmId(9)))
        ));
        assert_eq!((cpu(&s, 1), cpu(&s, 2)), (1000.0, 1000.0));
        assert_eq!(changed, [11]);
    }

    #[test]
    fn non_deflatable_domains_add_no_headroom() {
        let mut s = SimServer::new(ServerId(1), capacity());
        s.create_domain(
            VmSpec::on_demand(
                VmId(1),
                VmClass::Unknown,
                ResourceVector::cpu_mem(8000.0, 8192.0),
            ),
            DeflationMechanism::Transparent,
        )
        .unwrap();
        assert!(s.deflatable_headroom().is_zero());
    }
}

//! A simulated VM ("domain" in libvirt terminology) and the three deflation
//! mechanisms of §4: transparent, explicit (hotplug) and hybrid.
//!
//! A [`Domain`] combines the simulated [`GuestOs`] (which arbitrates hotplug
//! requests) with a [`CgroupSet`] (which implements hypervisor-level
//! multiplexing). The *effective* allocation of a resource is the tighter of
//! the two paths:
//!
//! * CPU: `min(online_vcpus × 1000 millicores, cpu cgroup limit)`
//! * memory: `min(plugged memory, memory cgroup limit)`
//! * disk / network: cgroup limit only (no hotplug path, §4.3).
//!
//! [`Domain::deflate_to`] applies a target allocation through the selected
//! [`DeflationMechanism`]; the hybrid mechanism follows the pseudo-code of
//! Figure 13: hotplug down to `max(hotplug_threshold, round_up(target))`,
//! then let cgroup multiplexing cover the remaining distance to the target.
//!
//! A domain keeps its effective allocation as a field, recomputed at the
//! end of every method that changes the guest or the cgroups; both are
//! private, so nothing else can change them and leave the field stale.
//! Debug builds check the field against a fresh computation on every read.

use crate::cgroups::CgroupSet;
use crate::guest::{GuestOs, HotplugOutcome, MEMORY_BLOCK_MB};
use deflate_core::checkpoint::{ByteReader, ByteWriter, CheckpointError, CheckpointResult};
use deflate_core::resources::{ResourceKind, ResourceVector};
use deflate_core::vm::VmSpec;
use serde::{Deserialize, Serialize};

/// Which §4 mechanism a deflation request should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeflationMechanism {
    /// Hypervisor-level multiplexing only (cgroup limits); invisible to the
    /// guest (§4.2).
    Transparent,
    /// Hotplug only; visible to the guest, whole-unit granular, bounded by
    /// the safety threshold (§4.3).
    Explicit,
    /// Hotplug down to the safety threshold, multiplexing for the rest
    /// (§4.4, Figure 13).
    Hybrid,
}

impl DeflationMechanism {
    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            DeflationMechanism::Transparent => "transparent",
            DeflationMechanism::Explicit => "explicit",
            DeflationMechanism::Hybrid => "hybrid",
        }
    }
}

/// Outcome of a [`Domain::deflate_to`] call for a single resource.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeflationOutcome {
    /// Resource dimension.
    pub kind: ResourceKind,
    /// Allocation requested by the policy.
    pub requested: f64,
    /// Effective allocation after applying the mechanism.
    pub effective: f64,
    /// Portion of the change realised through hotplug (0 for transparent).
    pub via_hotplug: f64,
    /// Portion realised through cgroup multiplexing.
    pub via_multiplexing: f64,
}

/// Number of CPU-utilisation samples a domain remembers for migration cost
/// estimation (the "recent history" window).
pub const CPU_UTIL_HISTORY_LEN: usize = 8;

/// The [`Domain::slot`] of a domain no cluster has given a slot.
pub const NO_SLOT: u32 = u32::MAX;

/// A simulated VM under hypervisor control.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Domain {
    /// Static VM specification.
    pub spec: VmSpec,
    /// The VM's dense index in the cluster that hosts it, [`NO_SLOT`]
    /// until the cluster sets it. Every copy of a VM (a migration's
    /// source and destination) carries the same slot. Host-side
    /// bookkeeping: not part of the snapshot, which the cluster rebuilds
    /// it from.
    pub slot: u32,
    /// Simulated guest OS (hotplug state, RSS, caches). Private so that
    /// every change goes through a mutator that refreshes `effective`.
    guest: GuestOs,
    /// Simulated cgroup controllers (multiplexing state). Private for the
    /// same reason as `guest`.
    cgroups: CgroupSet,
    /// Mechanism used for subsequent deflation requests.
    pub mechanism: DeflationMechanism,
    /// The effective allocation, recomputed from the spec, the guest's
    /// hotplug state and the cgroup limits at the end of every mutator.
    /// Host-side like `slot`: not part of the snapshot.
    effective: ResourceVector,
    /// Recent CPU-utilisation samples (fractions of the full allocation,
    /// newest last, at most [`CPU_UTIL_HISTORY_LEN`]). The migration cost
    /// model reads this to estimate the domain's page-dirtying rate:
    /// write-heavy guests re-dirty pages during pre-copy and pay extra
    /// rounds, idle guests converge in one.
    cpu_util_history: Vec<f64>,
    /// True while the autoscaler has parked this domain (deflated instead
    /// of terminated on a scale-in). Parked domains are skipped by the
    /// server-level reinflation pass, so the park *sticks* until the
    /// autoscaler explicitly unparks the replica — otherwise the first
    /// departure on the server would silently undo the scale-in.
    parked: bool,
}

impl Domain {
    /// Launch a domain at its full allocation using the hybrid mechanism.
    pub fn launch(spec: VmSpec) -> Self {
        Self::launch_with(spec, DeflationMechanism::Hybrid)
    }

    /// Launch a domain with an explicit mechanism choice.
    pub fn launch_with(spec: VmSpec, mechanism: DeflationMechanism) -> Self {
        let vcpus = (spec.max_allocation.cpu() / 1000.0).ceil().max(1.0) as u32;
        let guest = GuestOs::boot(vcpus, spec.max_allocation.memory().max(MEMORY_BLOCK_MB));
        let cgroups = CgroupSet::new(spec.max_allocation);
        Domain {
            spec,
            slot: NO_SLOT,
            guest,
            cgroups,
            mechanism,
            effective: ResourceVector::ZERO,
            cpu_util_history: Vec::new(),
            parked: false,
        }
        .with_effective_refreshed()
    }

    /// The simulated guest OS: hotplug state, RSS and page cache.
    pub fn guest(&self) -> &GuestOs {
        &self.guest
    }

    /// The simulated cgroup controllers: limits and usages.
    pub fn cgroups(&self) -> &CgroupSet {
        &self.cgroups
    }

    /// True while the autoscaler has parked this domain (deflated instead
    /// of terminated). Parked domains are excluded from server-level
    /// reinflation.
    pub fn is_parked(&self) -> bool {
        self.parked
    }

    /// Mark the domain parked / unparked (autoscale scale-in and
    /// scale-out). Parking only sets the flag; the caller deflates the
    /// domain to the park target and, on unpark, reinflates the server.
    pub fn set_parked(&mut self, parked: bool) {
        self.parked = parked;
    }

    /// Record one CPU-utilisation sample (fraction of the full allocation,
    /// clamped to `[0, 1]`) into the bounded recent history.
    pub fn observe_cpu_utilization(&mut self, sample: f64) {
        if self.cpu_util_history.len() >= CPU_UTIL_HISTORY_LEN {
            self.cpu_util_history.remove(0);
        }
        self.cpu_util_history.push(sample.clamp(0.0, 1.0));
    }

    /// Mean of the recent CPU-utilisation history, `0.0` when no sample has
    /// been observed yet (a freshly booted guest is idle). Feeds the
    /// dirty-rate term of the migration cost model.
    pub fn recent_cpu_utilization(&self) -> f64 {
        if self.cpu_util_history.is_empty() {
            return 0.0;
        }
        self.cpu_util_history.iter().sum::<f64>() / self.cpu_util_history.len() as f64
    }

    /// The deflate-then-migrate squeeze: surrender the guest's page cache
    /// before a live migration so only the RSS has to cross the link.
    /// Returns the MiB shaved off the hot footprint.
    pub fn deflate_for_migration(&mut self) -> f64 {
        let dropped = self.guest.drop_page_cache();
        self.refresh_effective();
        dropped
    }

    /// Land a live-migrated guest on this (destination) domain: its memory
    /// state — RSS, page cache (possibly squeezed), hotplug state — and
    /// its recent utilisation history move with it; only host-side state
    /// (cgroup limits) belongs to the new server. Without this, a
    /// migrated VM would re-boot with a warm default cache and the
    /// deflate-then-migrate squeeze would silently un-happen in transit.
    /// The parked flag travels too (defence in depth — the cluster layer
    /// does not select parked domains for migration in the first place).
    pub fn migrate_guest_state_from(&mut self, source: &Domain) {
        self.guest = source.guest.clone();
        self.cpu_util_history = source.cpu_util_history.clone();
        self.parked = source.parked;
        self.refresh_effective();
    }

    /// Serialize the full domain state for an engine checkpoint: spec,
    /// mechanism, raw guest state, cgroup usages + limits (ceilings are
    /// rebuilt from the spec), utilisation history and the parked flag.
    pub fn write_snapshot(&self, w: &mut ByteWriter) {
        w.put_vm_spec(&self.spec);
        w.put_u8(match self.mechanism {
            DeflationMechanism::Transparent => 0,
            DeflationMechanism::Explicit => 1,
            DeflationMechanism::Hybrid => 2,
        });
        self.guest.write_snapshot(w);
        // Usages before limits, mirroring the restore order: `set_usage`
        // clamps to the *current* limit, and a usage recorded before a
        // later limit cut may legitimately exceed the saved limit.
        w.put_resources(&self.cgroups.usages());
        w.put_resources(&self.cgroups.limits());
        w.put_f64_slice(&self.cpu_util_history);
        w.put_bool(self.parked);
    }

    /// Rebuild a domain from [`write_snapshot`](Self::write_snapshot)
    /// bytes, bit-identically.
    pub fn read_snapshot(r: &mut ByteReader<'_>) -> CheckpointResult<Self> {
        let spec = r.field("vm_spec").get_vm_spec()?;
        let mechanism = match r.field("mechanism").get_u8()? {
            0 => DeflationMechanism::Transparent,
            1 => DeflationMechanism::Explicit,
            2 => DeflationMechanism::Hybrid,
            other => {
                return Err(CheckpointError::Corrupt(format!(
                    "unknown DeflationMechanism discriminant {other}"
                )))
            }
        };
        let guest = r.field("guest").read(GuestOs::read_snapshot)?;
        let usages = r.field("usages").get_resources()?;
        let limits = r.field("limits").get_resources()?;
        // A NaN limit would become the bound of a later `f64::clamp`.
        if !usages.is_finite() || !limits.is_finite() {
            return Err(CheckpointError::Corrupt(format!(
                "VM {} cgroup state is not finite: usages {usages}, limits {limits}",
                spec.id.0
            )));
        }
        // Fresh set: limits start at the ceilings, so restoring usages
        // first leaves them unclamped; applying the saved limits after
        // does not touch usages.
        let mut cgroups = CgroupSet::new(spec.max_allocation);
        cgroups.set_usages(usages);
        cgroups.set_limits(limits);
        let cpu_util_history = r.field("cpu_util_history").get_f64_vec()?;
        if cpu_util_history.len() > CPU_UTIL_HISTORY_LEN {
            return Err(CheckpointError::Corrupt(format!(
                "cpu utilisation history of {} samples exceeds the {} cap",
                cpu_util_history.len(),
                CPU_UTIL_HISTORY_LEN
            )));
        }
        let parked = r.field("parked").get_bool()?;
        Ok(Domain {
            spec,
            slot: NO_SLOT,
            guest,
            cgroups,
            mechanism,
            effective: ResourceVector::ZERO,
            cpu_util_history,
            parked,
        }
        .with_effective_refreshed())
    }

    /// The allocation currently granted on each dimension, i.e. the tighter
    /// of the hotplug state and the cgroup limit.
    pub fn effective_allocation(&self) -> ResourceVector {
        debug_assert_eq!(
            self.effective,
            self.compute_effective(),
            "VM {}: cached effective allocation is stale",
            self.spec.id.0
        );
        self.effective
    }

    /// The effective CPU allocation as a fraction of the maximum (1.0 for
    /// a domain without a CPU maximum): what a VM's usage summary records.
    pub fn cpu_fraction(&self) -> f64 {
        let max = self.spec.max_allocation[ResourceKind::Cpu];
        if max <= 0.0 {
            1.0
        } else {
            self.effective_allocation().cpu() / max
        }
    }

    /// [`effective_allocation`](Self::effective_allocation) derived from
    /// the spec, the guest and the cgroups rather than read from the cache.
    fn compute_effective(&self) -> ResourceVector {
        ResourceVector::new(
            self.compute_effective_kind(ResourceKind::Cpu),
            self.compute_effective_kind(ResourceKind::Memory),
            self.compute_effective_kind(ResourceKind::DiskBw),
            self.compute_effective_kind(ResourceKind::NetBw),
        )
    }

    /// One component of [`compute_effective`](Self::compute_effective).
    fn compute_effective_kind(&self, kind: ResourceKind) -> f64 {
        let limit = self.cgroups.controller(kind).limit();
        match kind {
            ResourceKind::Cpu | ResourceKind::Memory => limit
                .min(self.hotplug_level(kind))
                .min(self.spec.max_allocation[kind]),
            ResourceKind::DiskBw | ResourceKind::NetBw => limit,
        }
    }

    /// Bring the cached effective allocation up to date; the last step of
    /// every mutator.
    fn refresh_effective(&mut self) {
        self.effective = self.compute_effective();
    }

    /// [`refresh_effective`](Self::refresh_effective) for a domain under
    /// construction.
    fn with_effective_refreshed(mut self) -> Self {
        self.refresh_effective();
        self
    }

    /// Deflation fraction of one resource relative to the maximum allocation.
    pub fn deflation_fraction(&self, kind: ResourceKind) -> f64 {
        let max = self.spec.max_allocation[kind];
        if max <= 0.0 {
            0.0
        } else {
            (1.0 - self.effective_allocation()[kind] / max).clamp(0.0, 1.0)
        }
    }

    /// Report the guest workload so hotplug thresholds stay current.
    pub fn report_guest_usage(&mut self, usage: ResourceVector, page_cache_mb: f64) {
        let busy = if self.spec.max_allocation.cpu() > 0.0 {
            usage.cpu() / self.spec.max_allocation.cpu()
        } else {
            0.0
        };
        self.guest.report_usage(usage.memory(), page_cache_mb, busy);
        self.cgroups.set_usages(usage);
        self.observe_cpu_utilization(busy);
        self.refresh_effective();
    }

    /// Apply a target allocation vector through this domain's mechanism.
    ///
    /// Returns one [`DeflationOutcome`] per resource kind, in
    /// [`ResourceKind::ALL`] order. The effective
    /// allocation after the call:
    ///
    /// * transparent — exactly the clamped target (multiplexing is
    ///   fine-grained and unrestricted);
    /// * explicit — the target rounded to hotplug granularity and floored at
    ///   the guest's safety threshold (so it may exceed the target);
    /// * hybrid — exactly the clamped target, with as much as safely possible
    ///   realised via hotplug and the remainder via multiplexing.
    pub fn deflate_to(&mut self, target: ResourceVector) -> [DeflationOutcome; 4] {
        let before = self.effective;
        let clamped = target.clamp(&ResourceVector::ZERO, &self.spec.max_allocation);
        let mut via_hotplug = ResourceVector::ZERO;
        for kind in ResourceKind::ALL {
            via_hotplug[kind] = self.set_target(kind, clamped[kind]);
        }
        self.refresh_effective();
        ResourceKind::ALL.map(|kind| {
            let effective = self.effective[kind];
            // Explicit hotplug moves the cgroup limit with the guest, so
            // none of the change is multiplexing; on the other paths
            // multiplexing covers whatever hotplug did not.
            let hotplug_only = self.mechanism == DeflationMechanism::Explicit
                && GuestOs::supports_hot_unplug(kind);
            let via_multiplexing = if hotplug_only {
                0.0
            } else {
                (before[kind] - effective) - via_hotplug[kind]
            };
            DeflationOutcome {
                kind,
                requested: clamped[kind],
                effective,
                via_hotplug: via_hotplug[kind],
                via_multiplexing,
            }
        })
    }

    /// [`deflate_to`](Self::deflate_to) for a caller that tracks
    /// allocation changes and needs no outcomes: the domain's
    /// [`slot`](Self::slot) is appended to `changed` when its effective
    /// CPU allocation moved.
    pub fn retarget(&mut self, target: ResourceVector, changed: &mut Vec<u32>) {
        let before = self.effective.cpu();
        let clamped = target.clamp(&ResourceVector::ZERO, &self.spec.max_allocation);
        for kind in ResourceKind::ALL {
            self.set_target(kind, clamped[kind]);
        }
        self.refresh_effective();
        if self.effective.cpu() != before {
            changed.push(self.slot);
        }
    }

    /// Apply one resource's clamped target through the domain's mechanism
    /// and return the part of the change realised through hotplug
    /// (positive when unplugging). Leaves the cached effective allocation
    /// to the caller.
    fn set_target(&mut self, kind: ResourceKind, target: f64) -> f64 {
        match (self.mechanism, kind) {
            (DeflationMechanism::Transparent, _)
            | (_, ResourceKind::DiskBw)
            | (_, ResourceKind::NetBw) => {
                // Pure multiplexing path. Make sure any previous hotplug
                // state does not cap the allocation tighter than the target.
                self.undo_hotplug_below(kind, target);
                self.cgroups.controller_mut(kind).set_limit(target);
                0.0
            }
            (DeflationMechanism::Explicit, _) => {
                let outcome = self.hotplug_towards(kind, target);
                // The cgroup limit follows the hotplug result (not the
                // target): explicit deflation cannot go below the safety
                // threshold or split hotplug units.
                let hotplugged = self.hotplug_level(kind);
                self.cgroups.controller_mut(kind).set_limit(hotplugged);
                -outcome.applied_in_units(kind)
            }
            (DeflationMechanism::Hybrid, _) => {
                // Figure 13: hotplug_val = max(hp_threshold, round_up(target)).
                let threshold = self.guest.hotplug_threshold(kind);
                let hotplug_val = round_up_to_unit(kind, target).max(threshold);
                let outcome = self.hotplug_towards(kind, hotplug_val);
                // Multiplexing covers the rest of the way to the target.
                self.cgroups.controller_mut(kind).set_limit(target);
                -outcome.applied_in_units(kind)
            }
        }
    }

    /// Current hotplug-granted level of a resource (infinite for resources
    /// without a hotplug path so they never constrain the minimum).
    fn hotplug_level(&self, kind: ResourceKind) -> f64 {
        match kind {
            ResourceKind::Cpu => self.guest.online_vcpus() as f64 * 1000.0,
            ResourceKind::Memory => self.guest.plugged_memory_mb(),
            ResourceKind::DiskBw => self.spec.max_allocation.disk_bw(),
            ResourceKind::NetBw => self.spec.max_allocation.net_bw(),
        }
    }

    /// Drive the hotplug state towards `target` (in canonical units).
    fn hotplug_towards(&mut self, kind: ResourceKind, target: f64) -> HotplugOutcome {
        match kind {
            ResourceKind::Cpu => {
                let vcpus = (target / 1000.0).ceil().max(1.0) as u32;
                self.guest.set_online_vcpus(vcpus)
            }
            ResourceKind::Memory => self.guest.set_plugged_memory(target),
            _ => HotplugOutcome {
                requested: 0.0,
                applied: 0.0,
            },
        }
    }

    /// When switching to a transparent target above the current hotplug
    /// level, plug resources back in first so the hotplug state never caps
    /// the effective allocation below the requested target.
    fn undo_hotplug_below(&mut self, kind: ResourceKind, target: f64) {
        if self.hotplug_level(kind) < target {
            self.hotplug_towards(kind, target);
        }
    }

    /// Owned heap bytes behind this domain (the bounded CPU-utilisation
    /// history; guest and cgroup state are inline scalars). Excludes
    /// `size_of::<Domain>()` itself, which the containing server's map
    /// accounting covers — see `deflate_core::mem` for the convention.
    pub fn accounted_bytes(&self) -> u64 {
        deflate_core::mem::vec_capacity_bytes(&self.cpu_util_history)
    }

    /// Performance overhead factor caused by *transparent* memory deflation
    /// below what the guest believes it owns.
    ///
    /// When the cgroup memory limit drops below the guest's plugged memory,
    /// the guest keeps using its page cache and heap as if the memory were
    /// there, and the hypervisor must swap — the paper measures this as the
    /// ~10 % response-time gap between transparent and hybrid deflation in
    /// Figure 14. The returned factor is `>= 1.0` and multiplies response
    /// times in the application simulators.
    pub fn memory_pressure_overhead(&self) -> f64 {
        let limit = self.cgroups.controller(ResourceKind::Memory).limit();
        let believed = self.guest.plugged_memory_mb();
        if believed <= 0.0 || limit >= believed {
            return 1.0;
        }
        // Pressure is proportional to how much of the guest's believed
        // footprint (RSS + cache it refuses to drop) no longer fits.
        let hot = self.guest.rss_mb() + self.guest.page_cache_mb();
        let overflow = (hot.min(believed) - limit).max(0.0);
        1.0 + 0.35 * (overflow / believed)
    }
}

impl deflate_core::policy::AllocationView for Domain {
    fn spec(&self) -> &VmSpec {
        &self.spec
    }
    fn current_allocation(&self) -> ResourceVector {
        self.effective_allocation()
    }
}

/// Round a target up to the hotplug granularity of the resource: whole vCPUs
/// for CPU, [`MEMORY_BLOCK_MB`] blocks for memory, identity otherwise.
pub fn round_up_to_unit(kind: ResourceKind, value: f64) -> f64 {
    match kind {
        ResourceKind::Cpu => (value / 1000.0).ceil() * 1000.0,
        ResourceKind::Memory => (value / MEMORY_BLOCK_MB).ceil() * MEMORY_BLOCK_MB,
        ResourceKind::DiskBw | ResourceKind::NetBw => value,
    }
}

impl HotplugOutcome {
    /// Applied change converted to the canonical unit of the resource (vCPU
    /// counts → millicores; memory is already in MiB).
    fn applied_in_units(&self, kind: ResourceKind) -> f64 {
        match kind {
            ResourceKind::Cpu => self.applied * 1000.0,
            _ => self.applied,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflate_core::vm::{VmClass, VmId};

    fn spec() -> VmSpec {
        VmSpec::deflatable(
            VmId(1),
            VmClass::Interactive,
            ResourceVector::new(8000.0, 16_384.0, 200.0, 1000.0),
        )
    }

    #[test]
    fn launch_grants_full_allocation() {
        let d = Domain::launch(spec());
        assert_eq!(d.effective_allocation(), spec().max_allocation);
        assert_eq!(d.guest().online_vcpus(), 8);
        assert_eq!(d.deflation_fraction(ResourceKind::Cpu), 0.0);
        assert!(!d.is_parked());
    }

    #[test]
    fn cpu_utilization_history_is_bounded_and_averaged() {
        let mut d = Domain::launch(spec());
        assert_eq!(d.recent_cpu_utilization(), 0.0, "fresh guests are idle");
        d.observe_cpu_utilization(0.5);
        d.observe_cpu_utilization(1.5); // clamped to 1.0
        assert!((d.recent_cpu_utilization() - 0.75).abs() < 1e-9);
        // The window is bounded: old samples fall out.
        for _ in 0..CPU_UTIL_HISTORY_LEN {
            d.observe_cpu_utilization(0.2);
        }
        assert!((d.recent_cpu_utilization() - 0.2).abs() < 1e-9);
        // Guest-usage reports feed the same history (busy = 2000/8000).
        let mut fed = Domain::launch(spec());
        fed.report_guest_usage(ResourceVector::new(2000.0, 4000.0, 0.0, 0.0), 1000.0);
        assert!((fed.recent_cpu_utilization() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn deflate_for_migration_drops_cache_only() {
        let mut d = Domain::launch(spec());
        let cache = d.guest().page_cache_mb();
        assert!(cache > 0.0);
        assert_eq!(d.deflate_for_migration(), cache);
        assert_eq!(d.guest().page_cache_mb(), 0.0);
        // Allocations are untouched — the squeeze is guest-internal.
        assert_eq!(d.effective_allocation(), spec().max_allocation);
    }

    #[test]
    fn transparent_deflation_is_fine_grained() {
        let mut d = Domain::launch_with(spec(), DeflationMechanism::Transparent);
        d.deflate_to(ResourceVector::new(2500.0, 6000.0, 50.0, 100.0));
        let eff = d.effective_allocation();
        assert_eq!(eff, ResourceVector::new(2500.0, 6000.0, 50.0, 100.0));
        // The guest still sees all its vCPUs and memory.
        assert_eq!(d.guest().online_vcpus(), 8);
        assert_eq!(d.guest().plugged_memory_mb(), 16_384.0);
        assert!((d.deflation_fraction(ResourceKind::Cpu) - 0.6875).abs() < 1e-9);
    }

    #[test]
    fn explicit_deflation_is_coarse_and_respects_threshold() {
        let mut d = Domain::launch_with(spec(), DeflationMechanism::Explicit);
        d.report_guest_usage(ResourceVector::new(1000.0, 5000.0, 10.0, 10.0), 1000.0);
        let outcomes = d.deflate_to(ResourceVector::new(2500.0, 4000.0, 50.0, 100.0));
        let eff = d.effective_allocation();
        // CPU rounds up to 3 whole vCPUs.
        assert_eq!(eff.cpu(), 3000.0);
        // Memory cannot go below RSS (5000 → 5120 rounded to blocks).
        assert_eq!(eff.memory(), 5120.0);
        // Disk / net still deflate transparently even in explicit mode.
        assert_eq!(eff.disk_bw(), 50.0);
        assert_eq!(eff.net_bw(), 100.0);
        let cpu_outcome = outcomes
            .iter()
            .find(|o| o.kind == ResourceKind::Cpu)
            .unwrap();
        assert!(cpu_outcome.via_hotplug > 0.0);
        assert_eq!(cpu_outcome.via_multiplexing, 0.0);
    }

    #[test]
    fn hybrid_reaches_exact_target_and_uses_hotplug_first() {
        let mut d = Domain::launch_with(spec(), DeflationMechanism::Hybrid);
        d.report_guest_usage(ResourceVector::new(1000.0, 5000.0, 10.0, 10.0), 1000.0);
        let outcomes = d.deflate_to(ResourceVector::new(2500.0, 4000.0, 50.0, 100.0));
        let eff = d.effective_allocation();
        // Hybrid reaches the fine-grained target exactly.
        assert_eq!(eff.cpu(), 2500.0);
        assert_eq!(eff.memory(), 4000.0);
        // But the guest also saw part of it via hotplug: 3 vCPUs online.
        assert_eq!(d.guest().online_vcpus(), 3);
        // Memory hotplug stopped at the RSS threshold (5120).
        assert_eq!(d.guest().plugged_memory_mb(), 5120.0);
        let mem = outcomes
            .iter()
            .find(|o| o.kind == ResourceKind::Memory)
            .unwrap();
        assert!(mem.via_hotplug > 0.0);
        assert!(mem.via_multiplexing > 0.0);
        assert!((mem.via_hotplug + mem.via_multiplexing - (16_384.0 - 4000.0)).abs() < 1e-6);
    }

    #[test]
    fn reinflation_restores_allocation() {
        let mut d = Domain::launch(spec());
        d.report_guest_usage(ResourceVector::new(500.0, 2000.0, 0.0, 0.0), 500.0);
        d.deflate_to(ResourceVector::new(2000.0, 4096.0, 100.0, 500.0));
        assert!(d.deflation_fraction(ResourceKind::Cpu) > 0.0);
        d.deflate_to(spec().max_allocation);
        assert_eq!(d.effective_allocation(), spec().max_allocation);
        assert_eq!(d.guest().online_vcpus(), 8);
        assert_eq!(d.guest().plugged_memory_mb(), 16_384.0);
    }

    #[test]
    fn transparent_after_explicit_replugs_if_needed() {
        let mut d = Domain::launch_with(spec(), DeflationMechanism::Explicit);
        d.report_guest_usage(ResourceVector::new(500.0, 2000.0, 0.0, 0.0), 100.0);
        d.deflate_to(ResourceVector::new(2000.0, 2048.0, 200.0, 1000.0));
        assert_eq!(d.guest().online_vcpus(), 2);
        // Switch to transparent and ask for more CPU than is plugged.
        d.mechanism = DeflationMechanism::Transparent;
        d.deflate_to(ResourceVector::new(6000.0, 8192.0, 200.0, 1000.0));
        assert_eq!(d.effective_allocation().cpu(), 6000.0);
        assert!(d.guest().online_vcpus() >= 6);
    }

    #[test]
    fn memory_pressure_overhead_only_under_transparent_squeeze() {
        let mut transparent = Domain::launch_with(spec(), DeflationMechanism::Transparent);
        transparent.report_guest_usage(ResourceVector::new(0.0, 8000.0, 0.0, 0.0), 4000.0);
        transparent.deflate_to(ResourceVector::new(8000.0, 6000.0, 200.0, 1000.0));
        assert!(transparent.memory_pressure_overhead() > 1.0);

        let mut hybrid = Domain::launch_with(spec(), DeflationMechanism::Hybrid);
        hybrid.report_guest_usage(ResourceVector::new(0.0, 8000.0, 0.0, 0.0), 4000.0);
        hybrid.deflate_to(ResourceVector::new(8000.0, 9000.0, 200.0, 1000.0));
        // The hybrid guest knows about the deflation (memory was unplugged
        // down to ~RSS), so the hypervisor-level squeeze is much smaller.
        assert!(hybrid.memory_pressure_overhead() < transparent.memory_pressure_overhead());
        // No deflation → no overhead.
        let fresh = Domain::launch(spec());
        assert_eq!(fresh.memory_pressure_overhead(), 1.0);
    }

    #[test]
    fn round_up_units() {
        assert_eq!(round_up_to_unit(ResourceKind::Cpu, 2300.0), 3000.0);
        assert_eq!(round_up_to_unit(ResourceKind::Memory, 1000.0), 1024.0);
        assert_eq!(round_up_to_unit(ResourceKind::DiskBw, 33.3), 33.3);
        assert_eq!(DeflationMechanism::Hybrid.name(), "hybrid");
    }

    #[test]
    fn snapshot_round_trips_a_mutated_domain_bit_exactly() {
        let mut d = Domain::launch_with(spec(), DeflationMechanism::Hybrid);
        d.report_guest_usage(ResourceVector::new(2000.0, 6000.0, 50.0, 100.0), 1500.0);
        d.deflate_to(ResourceVector::new(2500.0, 4000.0, 50.0, 100.0));
        d.observe_cpu_utilization(0.7);
        d.set_parked(true);
        let mut w = deflate_core::checkpoint::ByteWriter::new();
        d.write_snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = deflate_core::checkpoint::ByteReader::new(&bytes);
        let restored = Domain::read_snapshot(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored, d);
        // And the snapshot of the restored domain is byte-identical.
        let mut w2 = deflate_core::checkpoint::ByteWriter::new();
        restored.write_snapshot(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    /// The cached effective allocation matches a fresh recomputation, bit
    /// for bit, after every mutator under every mechanism.
    #[test]
    fn cached_effective_allocation_tracks_every_mutator() {
        let bits = |v: ResourceVector| v.iter().map(|(_, x)| x.to_bits()).collect::<Vec<_>>();
        let check = |d: &Domain, step: &str| {
            assert_eq!(
                bits(d.effective),
                bits(d.compute_effective()),
                "{} after {step}",
                d.mechanism.name()
            );
        };
        let targets = [
            ResourceVector::new(2500.0, 4000.0, 50.0, 100.0),
            ResourceVector::new(7300.0, 15_000.0, 200.0, 999.0),
            ResourceVector::new(0.0, 0.0, 0.0, 0.0),
            ResourceVector::splat(1e12),
            spec().max_allocation * 0.3,
        ];
        for mechanism in [
            DeflationMechanism::Transparent,
            DeflationMechanism::Explicit,
            DeflationMechanism::Hybrid,
        ] {
            let mut d = Domain::launch_with(spec(), mechanism);
            check(&d, "launch_with");
            let mut source = Domain::launch_with(spec(), mechanism);
            source.report_guest_usage(ResourceVector::new(3000.0, 2000.0, 0.0, 0.0), 300.0);
            source.deflate_to(ResourceVector::new(3000.0, 2048.0, 100.0, 500.0));
            let mut changed = Vec::new();
            for (i, &target) in targets.iter().enumerate() {
                d.report_guest_usage(
                    ResourceVector::new(1000.0 * i as f64, 1500.0 * i as f64, 10.0, 10.0),
                    700.0,
                );
                check(&d, "report_guest_usage");
                d.deflate_to(target);
                check(&d, "deflate_to");
                // `retarget` and `deflate_to` make the same state changes.
                let mut twin = d.clone();
                twin.deflate_to(target * 0.5);
                d.retarget(target * 0.5, &mut changed);
                check(&d, "retarget");
                assert_eq!(d, twin);
                d.deflate_for_migration();
                check(&d, "deflate_for_migration");
            }
            d.migrate_guest_state_from(&source);
            check(&d, "migrate_guest_state_from");
            let mut w = ByteWriter::new();
            d.write_snapshot(&mut w);
            let bytes = w.into_bytes();
            let restored = Domain::read_snapshot(&mut ByteReader::new(&bytes)).unwrap();
            check(&restored, "read_snapshot");
            assert_eq!(bits(restored.effective), bits(d.effective));
        }
    }

    /// The cache costs no memory per resident: it takes the room of the
    /// cgroup controllers' kind tags, so a server's map nodes stay as big
    /// as they were.
    #[test]
    fn domain_size_is_pinned() {
        assert_eq!(std::mem::size_of::<Domain>(), 296);
    }

    #[test]
    fn targets_clamped_to_spec_bounds() {
        let mut d = Domain::launch(spec());
        d.deflate_to(ResourceVector::splat(1e12));
        assert_eq!(d.effective_allocation(), spec().max_allocation);
        d.deflate_to(ResourceVector::splat(-100.0));
        assert!(d.effective_allocation().is_non_negative());
    }
}

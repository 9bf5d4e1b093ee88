//! VM model: identity, priority, workload class and allocation state.
//!
//! The cluster manager multiplexes servers across two pools of VMs
//! (§5): non-deflatable high-priority ("on-demand") VMs and deflatable
//! low-priority VMs. Deflatable VMs additionally carry a priority level
//! `π ∈ (0, 1]` that weighted-proportional and deterministic policies use
//! (Eq 3–4, §5.1.2–5.1.3), and an optional minimum allocation (Eq 2).

use crate::resources::{ResourceKind, ResourceVector};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Unique identifier of a VM within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VmId(pub u64);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm-{}", self.0)
    }
}

/// Unique identifier of a physical server within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ServerId(pub u32);

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server-{}", self.0)
    }
}

/// A fixed, unseeded hasher for maps keyed by ids the program assigns
/// itself ([`VmId`]s are trace row indices, migration ids a counter): one
/// rotate-xor-multiply per `u64`, where `RandomState` runs SipHash with a
/// per-process key. Nothing may depend on the iteration order of an
/// [`IdMap`]: callers sort or fold order-independently, as they had to
/// under the randomised default.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// A `HashMap` keyed by program-assigned ids, hashed with [`IdHasher`].
/// The cluster engine keeps its per-VM state in a table indexed by dense
/// slot; it uses id maps only to resolve a [`VmId`] to its slot at the
/// `VmId` API, and for in-flight migrations by id.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Application class labels carried by the Azure trace (§3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VmClass {
    /// Interactive / web-facing workloads — the focus of the paper.
    Interactive,
    /// Delay-insensitive batch / data-processing workloads.
    DelayInsensitive,
    /// Workloads whose class the provider could not determine.
    Unknown,
}

impl VmClass {
    /// All classes in canonical order.
    pub const ALL: [VmClass; 3] = [
        VmClass::Interactive,
        VmClass::DelayInsensitive,
        VmClass::Unknown,
    ];
}

impl fmt::Display for VmClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VmClass::Interactive => "interactive",
            VmClass::DelayInsensitive => "delay-insensitive",
            VmClass::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

/// Deflation priority level `π ∈ (0, 1]`.
///
/// Lower values indicate lower priority and therefore higher deflatability
/// (§5.1.2). A priority of exactly `1.0` corresponds to a VM that should not
/// be deflated at all under the deterministic policy (its deterministic floor
/// `π·M` equals its full allocation).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Priority(f64);

impl Priority {
    /// Minimum representable priority (fully deflatable down to ~0).
    pub const MIN: Priority = Priority(0.05);
    /// Maximum priority.
    pub const MAX: Priority = Priority(1.0);

    /// Create a priority, clamping into `(0, 1]`.
    ///
    /// Values are clamped rather than rejected because priorities in the
    /// simulator are frequently derived from utilisation percentiles, which
    /// may fall marginally outside the range due to floating-point noise.
    pub fn new(value: f64) -> Self {
        Priority(value.clamp(Self::MIN.0, Self::MAX.0))
    }

    /// The underlying priority value in `(0, 1]`.
    #[inline]
    pub fn value(&self) -> f64 {
        self.0
    }

    /// The four discrete priority levels used by the paper's cluster
    /// simulation (§7.1.2: "we determine VM priorities based on their 95-th
    /// percentile CPU usage and use 4 priority levels").
    pub const LEVELS: [Priority; 4] = [Priority(0.2), Priority(0.4), Priority(0.6), Priority(0.8)];

    /// Map a 95th-percentile CPU utilisation (in `[0, 1]`) to one of the four
    /// discrete priority levels: heavier VMs get higher priority so that they
    /// are deflated less (§7.4.2).
    pub fn from_p95_utilization(p95: f64) -> Self {
        let p95 = p95.clamp(0.0, 1.0);
        if p95 < 0.33 {
            Self::LEVELS[0]
        } else if p95 < 0.66 {
            Self::LEVELS[1]
        } else if p95 < 0.80 {
            Self::LEVELS[2]
        } else {
            Self::LEVELS[3]
        }
    }
}

impl Default for Priority {
    fn default() -> Self {
        Priority(0.5)
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "π={:.2}", self.0)
    }
}

/// Static description of a VM known at provisioning time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmSpec {
    /// Cluster-unique identifier.
    pub id: VmId,
    /// Workload class label.
    pub class: VmClass,
    /// The undeflated ("maximum") allocation `M_i`.
    pub max_allocation: ResourceVector,
    /// Optional minimum allocation `m_i` (Eq 2); `ZERO` means fully
    /// deflatable.
    pub min_allocation: ResourceVector,
    /// Deflation priority `π_i`; ignored for non-deflatable VMs.
    pub priority: Priority,
    /// Whether the VM participates in deflation at all. Non-deflatable VMs
    /// are the "on-demand" pool.
    pub deflatable: bool,
}

impl VmSpec {
    /// Create a deflatable VM spec with no minimum allocation and default
    /// priority.
    pub fn deflatable(id: VmId, class: VmClass, max_allocation: ResourceVector) -> Self {
        VmSpec {
            id,
            class,
            max_allocation,
            min_allocation: ResourceVector::ZERO,
            priority: Priority::default(),
            deflatable: true,
        }
    }

    /// Create a non-deflatable ("on-demand") VM spec.
    pub fn on_demand(id: VmId, class: VmClass, max_allocation: ResourceVector) -> Self {
        VmSpec {
            id,
            class,
            max_allocation,
            min_allocation: max_allocation,
            priority: Priority::MAX,
            deflatable: false,
        }
    }

    /// Builder-style priority setter.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Builder-style minimum-allocation setter. The minimum is clamped to be
    /// no larger than the maximum allocation.
    pub fn with_min_allocation(mut self, min: ResourceVector) -> Self {
        self.min_allocation = min.min(&self.max_allocation);
        self
    }

    /// Derive the minimum allocation from the priority as `m_i = π_i · M_i`
    /// (§5.1.2), and return the updated spec.
    pub fn with_priority_derived_min(mut self) -> Self {
        self.min_allocation = self.max_allocation * self.priority.value();
        self
    }

    /// The maximum amount of each resource that can be reclaimed from this VM
    /// (`M_i − m_i`), zero for non-deflatable VMs.
    pub fn deflatable_amount(&self) -> ResourceVector {
        if self.deflatable {
            self.max_allocation.saturating_sub(&self.min_allocation)
        } else {
            ResourceVector::ZERO
        }
    }

    /// Validate internal consistency of the spec.
    pub fn validate(&self) -> Result<(), crate::error::DeflateError> {
        if !self.max_allocation.is_finite() || !self.max_allocation.is_non_negative() {
            return Err(crate::error::DeflateError::InvalidSpec {
                vm: self.id,
                reason: "max allocation must be finite and non-negative".into(),
            });
        }
        if !self.min_allocation.fits_within(&self.max_allocation) {
            return Err(crate::error::DeflateError::InvalidSpec {
                vm: self.id,
                reason: "min allocation exceeds max allocation".into(),
            });
        }
        Ok(())
    }
}

/// Mutable allocation state of a running VM.
///
/// `current` always satisfies `min_allocation ≤ current ≤ max_allocation`
/// component-wise (checked by [`VmAllocation::set_current`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmAllocation {
    /// The VM's static spec.
    pub spec: VmSpec,
    /// The currently granted allocation.
    current: ResourceVector,
}

impl VmAllocation {
    /// A freshly placed VM starts at its full (undeflated) allocation.
    pub fn new(spec: VmSpec) -> Self {
        let current = spec.max_allocation;
        VmAllocation { spec, current }
    }

    /// A VM admitted under resource pressure may start already deflated
    /// (§5.1.1: "a new incoming VM may be deflatable ... and can thus start
    /// its execution in a deflated mode").
    pub fn new_deflated(spec: VmSpec, current: ResourceVector) -> Self {
        let current = current.clamp(&spec.min_allocation, &spec.max_allocation);
        VmAllocation { spec, current }
    }

    /// Currently granted allocation.
    #[inline]
    pub fn current(&self) -> ResourceVector {
        self.current
    }

    /// Set the current allocation, clamping into `[min, max]`.
    pub fn set_current(&mut self, alloc: ResourceVector) {
        self.current = alloc.clamp(&self.spec.min_allocation, &self.spec.max_allocation);
    }

    /// Reclaim `amount` from the VM (component-wise), clamping at the
    /// minimum allocation. Returns the amount actually reclaimed.
    pub fn deflate_by(&mut self, amount: &ResourceVector) -> ResourceVector {
        let target = self.current.saturating_sub(amount);
        let clamped = target.max(&self.spec.min_allocation);
        let reclaimed = self.current - clamped;
        self.current = clamped;
        reclaimed
    }

    /// Return `amount` to the VM (component-wise), clamping at the maximum
    /// allocation. Returns the amount actually returned.
    pub fn reinflate_by(&mut self, amount: &ResourceVector) -> ResourceVector {
        let target = self.current + *amount;
        let clamped = target.min(&self.spec.max_allocation);
        let returned = clamped - self.current;
        self.current = clamped;
        returned
    }

    /// Overall deflation fraction for a given resource: `1 − current/max`,
    /// in `[0, 1]`. Returns 0 for resources with zero maximum allocation.
    pub fn deflation_fraction(&self, kind: ResourceKind) -> f64 {
        let max = self.spec.max_allocation[kind];
        if max <= 0.0 {
            0.0
        } else {
            (1.0 - self.current[kind] / max).clamp(0.0, 1.0)
        }
    }

    /// Deflation fraction averaged over the resource kinds that have a
    /// non-zero maximum allocation.
    pub fn mean_deflation_fraction(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for kind in ResourceKind::ALL {
            if self.spec.max_allocation[kind] > 0.0 {
                sum += self.deflation_fraction(kind);
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// True if the VM is currently deflated in any dimension.
    pub fn is_deflated(&self) -> bool {
        ResourceKind::ALL
            .iter()
            .any(|&k| self.deflation_fraction(k) > 1e-9)
    }

    /// How much more could still be reclaimed from this VM.
    pub fn remaining_deflatable(&self) -> ResourceVector {
        if self.spec.deflatable {
            self.current.saturating_sub(&self.spec.min_allocation)
        } else {
            ResourceVector::ZERO
        }
    }

    /// How much headroom is left before the VM is back at its full size.
    pub fn remaining_reinflatable(&self) -> ResourceVector {
        self.spec.max_allocation.saturating_sub(&self.current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u64) -> VmSpec {
        VmSpec::deflatable(
            VmId(id),
            VmClass::Interactive,
            ResourceVector::new(4000.0, 8192.0, 100.0, 1000.0),
        )
    }

    #[test]
    fn id_map_hashes_without_a_seed() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        assert_eq!(build.hash_one(VmId(3)), build.hash_one(VmId(3)));
        assert_eq!(build.hash_one(VmId(1)), 0x517c_c1b7_2722_0a95);
        let map: IdMap<VmId, usize> = (0..1000).map(|i| (VmId(i), i as usize)).collect();
        assert!((0..1000).all(|i| map[&VmId(i)] == i as usize));
    }

    #[test]
    fn priority_clamps_and_orders() {
        assert_eq!(Priority::new(2.0).value(), 1.0);
        assert!(Priority::new(-1.0).value() > 0.0);
        assert!(Priority::new(0.2) < Priority::new(0.8));
    }

    #[test]
    fn priority_from_p95() {
        assert_eq!(Priority::from_p95_utilization(0.1), Priority::LEVELS[0]);
        assert_eq!(Priority::from_p95_utilization(0.5), Priority::LEVELS[1]);
        assert_eq!(Priority::from_p95_utilization(0.7), Priority::LEVELS[2]);
        assert_eq!(Priority::from_p95_utilization(0.95), Priority::LEVELS[3]);
    }

    #[test]
    fn on_demand_vm_is_not_deflatable() {
        let s = VmSpec::on_demand(
            VmId(1),
            VmClass::Unknown,
            ResourceVector::cpu_mem(2000.0, 4096.0),
        );
        assert!(!s.deflatable);
        assert!(s.deflatable_amount().is_zero());
    }

    #[test]
    fn priority_derived_min_allocation() {
        let s = spec(1)
            .with_priority(Priority::new(0.5))
            .with_priority_derived_min();
        assert!((s.min_allocation.cpu() - 2000.0).abs() < 1e-9);
        assert!((s.min_allocation.memory() - 4096.0).abs() < 1e-9);
    }

    #[test]
    fn min_allocation_clamped_to_max() {
        let s = spec(1).with_min_allocation(ResourceVector::splat(1e12));
        assert_eq!(s.min_allocation, s.max_allocation);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn validation_rejects_negative_max() {
        let mut s = spec(1);
        s.max_allocation = ResourceVector::new(-1.0, 0.0, 0.0, 0.0);
        assert!(s.validate().is_err());
    }

    #[test]
    fn deflate_and_reinflate_respect_bounds() {
        let s = spec(1).with_min_allocation(ResourceVector::new(1000.0, 2048.0, 0.0, 0.0));
        let mut a = VmAllocation::new(s);
        // Deflate far more than allowed: clamps at min.
        let reclaimed = a.deflate_by(&ResourceVector::splat(1e9));
        assert!((a.current().cpu() - 1000.0).abs() < 1e-9);
        assert!((reclaimed.cpu() - 3000.0).abs() < 1e-9);
        assert!(a.is_deflated());
        assert!((a.deflation_fraction(ResourceKind::Cpu) - 0.75).abs() < 1e-9);
        // Reinflate beyond max: clamps at max.
        let returned = a.reinflate_by(&ResourceVector::splat(1e9));
        assert_eq!(a.current(), a.spec.max_allocation);
        assert!((returned.cpu() - 3000.0).abs() < 1e-9);
        assert!(!a.is_deflated());
    }

    #[test]
    fn new_deflated_clamps_into_bounds() {
        let s = spec(7);
        let a = VmAllocation::new_deflated(s.clone(), ResourceVector::splat(-5.0));
        assert!(a.current().is_non_negative());
        let b = VmAllocation::new_deflated(s.clone(), ResourceVector::splat(1e12));
        assert_eq!(b.current(), s.max_allocation);
    }

    #[test]
    fn deflation_fraction_zero_max_is_zero() {
        let s = VmSpec::deflatable(
            VmId(2),
            VmClass::Unknown,
            ResourceVector::cpu_mem(1000.0, 1024.0),
        );
        let a = VmAllocation::new(s);
        assert_eq!(a.deflation_fraction(ResourceKind::DiskBw), 0.0);
        assert_eq!(a.mean_deflation_fraction(), 0.0);
    }

    #[test]
    fn remaining_headrooms() {
        let s = spec(3);
        let mut a = VmAllocation::new(s);
        a.deflate_by(&ResourceVector::new(1000.0, 0.0, 0.0, 0.0));
        assert!((a.remaining_deflatable().cpu() - 3000.0).abs() < 1e-9);
        assert!((a.remaining_reinflatable().cpu() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn display_impls() {
        assert_eq!(format!("{}", VmId(3)), "vm-3");
        assert_eq!(format!("{}", ServerId(1)), "server-1");
        assert_eq!(format!("{}", VmClass::Interactive), "interactive");
        assert!(format!("{}", Priority::new(0.25)).contains("0.25"));
    }
}

//! Simulated Linux cgroup controllers.
//!
//! The paper's prototype runs each KVM VM inside a cgroup and implements
//! *transparent* deflation by adjusting the cgroup knobs through libvirt
//! (§4.2, §6): `cpu.shares` / CPU bandwidth control for CPU, `memory.
//! limit_in_bytes` for memory, and the blkio / net_cls controllers for disk
//! and network bandwidth. This module models exactly those knobs: a
//! [`CgroupSet`] holds one controller per resource kind, each with a limit
//! that can be raised or lowered at runtime and a usage figure that the
//! simulated guest reports.
//!
//! Nothing here talks to a real kernel — the controllers are bookkeeping
//! objects with the same semantics (limits are clamped to the host capacity,
//! lowering a limit below current usage is allowed and simply produces
//! throttling/pressure, captured by [`CgroupController::pressure`]).

use deflate_core::resources::{ResourceKind, ResourceVector};
use serde::{Deserialize, Serialize};

/// One simulated cgroup controller (e.g. the memory controller of one VM).
/// Its slot in the [`CgroupSet`] names the resource it limits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CgroupController {
    /// Current limit (`cpu.cfs_quota`-equivalent, `memory.limit_in_bytes`,
    /// blkio throttle, …) in the canonical unit of the resource.
    limit: f64,
    /// Hard ceiling: the limit can never exceed this (host capacity or the
    /// VM's configured maximum).
    ceiling: f64,
    /// Current usage reported by the guest / accounting.
    usage: f64,
}

impl CgroupController {
    /// Create a controller with `limit == ceiling` and zero usage.
    pub fn new(ceiling: f64) -> Self {
        CgroupController {
            limit: ceiling,
            ceiling,
            usage: 0.0,
        }
    }

    /// Current limit.
    #[inline]
    pub fn limit(&self) -> f64 {
        self.limit
    }

    /// Hard ceiling.
    #[inline]
    pub fn ceiling(&self) -> f64 {
        self.ceiling
    }

    /// Current usage.
    #[inline]
    pub fn usage(&self) -> f64 {
        self.usage
    }

    /// Set the limit, clamped into `[0, ceiling]`. Returns the limit that was
    /// actually applied. Lowering the limit below the current usage is legal
    /// — the workload is throttled (CPU/IO) or forced to page (memory), which
    /// shows up as [`pressure`](Self::pressure).
    pub fn set_limit(&mut self, limit: f64) -> f64 {
        self.limit = limit.clamp(0.0, self.ceiling);
        self.limit
    }

    /// Record the usage reported by the guest. Usage is clamped to the
    /// current limit: a cgroup cannot observe more usage than it allows.
    pub fn set_usage(&mut self, usage: f64) {
        self.usage = usage.clamp(0.0, self.limit);
    }

    /// Demand that exceeded the limit the last time usage was reported,
    /// normalised to the limit: `max(0, wanted − limit) / limit`. The caller
    /// passes the *wanted* (unthrottled) usage.
    pub fn pressure(&self, wanted: f64) -> f64 {
        if self.limit <= 0.0 {
            if wanted > 0.0 {
                1.0
            } else {
                0.0
            }
        } else {
            ((wanted - self.limit) / self.limit).max(0.0)
        }
    }

    /// Fraction of the ceiling currently granted (1.0 = undeflated).
    pub fn grant_fraction(&self) -> f64 {
        if self.ceiling <= 0.0 {
            1.0
        } else {
            (self.limit / self.ceiling).clamp(0.0, 1.0)
        }
    }
}

/// The full set of per-VM cgroup controllers (cpu, memory, blkio, net).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CgroupSet {
    cpu: CgroupController,
    memory: CgroupController,
    blkio: CgroupController,
    net: CgroupController,
}

impl CgroupSet {
    /// Create a cgroup set whose ceilings are the VM's maximum allocation.
    pub fn new(max_allocation: ResourceVector) -> Self {
        CgroupSet {
            cpu: CgroupController::new(max_allocation.cpu()),
            memory: CgroupController::new(max_allocation.memory()),
            blkio: CgroupController::new(max_allocation.disk_bw()),
            net: CgroupController::new(max_allocation.net_bw()),
        }
    }

    /// Access the controller for a resource kind.
    pub fn controller(&self, kind: ResourceKind) -> &CgroupController {
        match kind {
            ResourceKind::Cpu => &self.cpu,
            ResourceKind::Memory => &self.memory,
            ResourceKind::DiskBw => &self.blkio,
            ResourceKind::NetBw => &self.net,
        }
    }

    /// Mutable access to the controller for a resource kind.
    pub fn controller_mut(&mut self, kind: ResourceKind) -> &mut CgroupController {
        match kind {
            ResourceKind::Cpu => &mut self.cpu,
            ResourceKind::Memory => &mut self.memory,
            ResourceKind::DiskBw => &mut self.blkio,
            ResourceKind::NetBw => &mut self.net,
        }
    }

    /// Current limits as a resource vector.
    pub fn limits(&self) -> ResourceVector {
        ResourceVector::new(
            self.cpu.limit(),
            self.memory.limit(),
            self.blkio.limit(),
            self.net.limit(),
        )
    }

    /// Current usages as a resource vector.
    pub fn usages(&self) -> ResourceVector {
        ResourceVector::new(
            self.cpu.usage(),
            self.memory.usage(),
            self.blkio.usage(),
            self.net.usage(),
        )
    }

    /// Apply a full limit vector at once (each component clamped to its
    /// ceiling). Returns the vector of limits actually applied.
    pub fn set_limits(&mut self, limits: ResourceVector) -> ResourceVector {
        let mut applied = ResourceVector::ZERO;
        for kind in ResourceKind::ALL {
            applied[kind] = self.controller_mut(kind).set_limit(limits[kind]);
        }
        applied
    }

    /// Record a usage vector (each component clamped to its limit).
    pub fn set_usages(&mut self, usage: ResourceVector) {
        for kind in ResourceKind::ALL {
            self.controller_mut(kind).set_usage(usage[kind]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_clamp_to_ceiling_and_zero() {
        let mut c = CgroupController::new(4000.0);
        assert_eq!(c.set_limit(10_000.0), 4000.0);
        assert_eq!(c.set_limit(-5.0), 0.0);
        assert_eq!(c.set_limit(2500.0), 2500.0);
        assert_eq!(c.limit(), 2500.0);
        assert_eq!(c.ceiling(), 4000.0);
    }

    #[test]
    fn usage_clamped_to_limit() {
        let mut c = CgroupController::new(8192.0);
        c.set_limit(4096.0);
        c.set_usage(6000.0);
        assert_eq!(c.usage(), 4096.0);
        c.set_usage(1000.0);
        assert_eq!(c.usage(), 1000.0);
    }

    #[test]
    fn pressure_measures_unmet_demand() {
        let mut c = CgroupController::new(4000.0);
        c.set_limit(2000.0);
        assert_eq!(c.pressure(1000.0), 0.0);
        assert!((c.pressure(3000.0) - 0.5).abs() < 1e-12);
        c.set_limit(0.0);
        assert_eq!(c.pressure(10.0), 1.0);
        assert_eq!(c.pressure(0.0), 0.0);
    }

    #[test]
    fn grant_fraction_tracks_deflation() {
        let mut c = CgroupController::new(200.0);
        assert_eq!(c.grant_fraction(), 1.0);
        c.set_limit(50.0);
        assert!((c.grant_fraction() - 0.25).abs() < 1e-12);
        let zero = CgroupController::new(0.0);
        assert_eq!(zero.grant_fraction(), 1.0);
    }

    #[test]
    fn cgroup_set_roundtrip() {
        let max = ResourceVector::new(8000.0, 16_384.0, 200.0, 1000.0);
        let mut set = CgroupSet::new(max);
        assert_eq!(set.limits(), max);
        let applied = set.set_limits(ResourceVector::new(4000.0, 8192.0, 400.0, 500.0));
        assert_eq!(applied, ResourceVector::new(4000.0, 8192.0, 200.0, 500.0));
        set.set_usages(ResourceVector::new(9999.0, 1024.0, 50.0, 100.0));
        assert_eq!(set.usages().cpu(), 4000.0);
        assert_eq!(set.usages().memory(), 1024.0);
        assert_eq!(set.controller(ResourceKind::NetBw).usage(), 100.0);
    }
}

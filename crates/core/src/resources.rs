//! Multi-dimensional resource vectors.
//!
//! Every allocation, demand, usage sample and deflation decision in the
//! system is expressed as a [`ResourceVector`] over the four resource kinds
//! the paper deflates: CPU, memory, disk bandwidth and network bandwidth
//! (§3, §4.2 of the paper). All policies in [`crate::policy`] operate on one
//! [`ResourceKind`] at a time and are lifted to full vectors by the cluster
//! manager, mirroring "The proportional deflation is performed for each
//! resource (CPU, memory, disk bandwidth, network bandwidth) individually"
//! (§5.1.1).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// The resource dimensions subject to deflation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ResourceKind {
    /// CPU capacity, measured in millicores (1000 = one physical core).
    Cpu,
    /// Memory, measured in mebibytes.
    Memory,
    /// Local disk I/O bandwidth, measured in MB/s.
    DiskBw,
    /// Network bandwidth, measured in Mbit/s.
    NetBw,
}

impl ResourceKind {
    /// All resource kinds, in canonical order.
    pub const ALL: [ResourceKind; 4] = [
        ResourceKind::Cpu,
        ResourceKind::Memory,
        ResourceKind::DiskBw,
        ResourceKind::NetBw,
    ];

    /// Canonical index of this kind inside a [`ResourceVector`].
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            ResourceKind::Cpu => 0,
            ResourceKind::Memory => 1,
            ResourceKind::DiskBw => 2,
            ResourceKind::NetBw => 3,
        }
    }

    /// Human-readable unit for this resource kind.
    pub const fn unit(self) -> &'static str {
        match self {
            ResourceKind::Cpu => "millicores",
            ResourceKind::Memory => "MiB",
            ResourceKind::DiskBw => "MB/s",
            ResourceKind::NetBw => "Mbit/s",
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ResourceKind::Cpu => "cpu",
            ResourceKind::Memory => "memory",
            ResourceKind::DiskBw => "disk-bw",
            ResourceKind::NetBw => "net-bw",
        };
        f.write_str(name)
    }
}

/// A non-negative quantity of each resource kind.
///
/// The vector is stored as four `f64` components indexed by
/// [`ResourceKind::index`]. Fractional values are meaningful: transparent
/// deflation can assign e.g. 1.5 cores of CPU bandwidth (§4.3 notes only the
/// *hotplug* path is whole-unit granular).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ResourceVector {
    components: [f64; 4],
}

impl ResourceVector {
    /// The zero vector.
    pub const ZERO: ResourceVector = ResourceVector {
        components: [0.0; 4],
    };

    /// Create a vector from explicit components.
    ///
    /// * `cpu_millis` — CPU in millicores.
    /// * `memory_mb` — memory in MiB.
    /// * `disk_mbps` — disk bandwidth in MB/s.
    /// * `net_mbps` — network bandwidth in Mbit/s.
    #[inline]
    pub const fn new(cpu_millis: f64, memory_mb: f64, disk_mbps: f64, net_mbps: f64) -> Self {
        ResourceVector {
            components: [cpu_millis, memory_mb, disk_mbps, net_mbps],
        }
    }

    /// Convenience constructor for CPU-and-memory-only vectors (the two
    /// dimensions the cluster simulation bin-packs on, §7.1.2).
    #[inline]
    pub const fn cpu_mem(cpu_millis: f64, memory_mb: f64) -> Self {
        Self::new(cpu_millis, memory_mb, 0.0, 0.0)
    }

    /// A vector with the same `value` in every component.
    #[inline]
    pub const fn splat(value: f64) -> Self {
        ResourceVector {
            components: [value; 4],
        }
    }

    /// A vector that is `value` in `kind` and zero elsewhere.
    #[inline]
    pub fn only(kind: ResourceKind, value: f64) -> Self {
        let mut v = Self::ZERO;
        v[kind] = value;
        v
    }

    /// CPU component in millicores.
    #[inline]
    pub fn cpu(&self) -> f64 {
        self.components[ResourceKind::Cpu.index()]
    }

    /// Memory component in MiB.
    #[inline]
    pub fn memory(&self) -> f64 {
        self.components[ResourceKind::Memory.index()]
    }

    /// Disk-bandwidth component in MB/s.
    #[inline]
    pub fn disk_bw(&self) -> f64 {
        self.components[ResourceKind::DiskBw.index()]
    }

    /// Network-bandwidth component in Mbit/s.
    #[inline]
    pub fn net_bw(&self) -> f64 {
        self.components[ResourceKind::NetBw.index()]
    }

    /// Value of a single resource kind.
    #[inline]
    pub fn get(&self, kind: ResourceKind) -> f64 {
        self.components[kind.index()]
    }

    /// Set a single resource kind, returning the modified vector.
    #[inline]
    pub fn with(mut self, kind: ResourceKind, value: f64) -> Self {
        self[kind] = value;
        self
    }

    /// Iterate over `(kind, value)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceKind, f64)> + '_ {
        ResourceKind::ALL
            .iter()
            .map(move |&k| (k, self.components[k.index()]))
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(&self, other: &Self) -> Self {
        self.zip_with(other, f64::min)
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(&self, other: &Self) -> Self {
        self.zip_with(other, f64::max)
    }

    /// Element-wise clamp of every component to `[lo, hi]` (per-component
    /// bounds given by the corresponding components of `lo` / `hi`).
    #[inline]
    pub fn clamp(&self, lo: &Self, hi: &Self) -> Self {
        self.max(lo).min(hi)
    }

    /// Apply `f` to every component.
    #[inline]
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Self {
        let mut out = *self;
        for c in &mut out.components {
            *c = f(*c);
        }
        out
    }

    /// Combine two vectors component-wise with `f`.
    #[inline]
    pub fn zip_with(&self, other: &Self, mut f: impl FnMut(f64, f64) -> f64) -> Self {
        let mut out = Self::ZERO;
        for i in 0..4 {
            out.components[i] = f(self.components[i], other.components[i]);
        }
        out
    }

    /// Component-wise saturating subtraction: `max(self - other, 0)`.
    #[inline]
    pub fn saturating_sub(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| (a - b).max(0.0))
    }

    /// Element-wise multiplication (Hadamard product).
    #[inline]
    pub fn hadamard(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a * b)
    }

    /// Element-wise division. Components of `other` that are zero yield zero
    /// rather than infinity, which is the convention used when normalising a
    /// usage vector by a capacity vector that lacks some dimension.
    #[inline]
    pub fn checked_div(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| if b == 0.0 { 0.0 } else { a / b })
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, other: &Self) -> f64 {
        self.components
            .iter()
            .zip(other.components.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Sum of all components (useful for scalarised capacity accounting).
    #[inline]
    pub fn total(&self) -> f64 {
        self.components.iter().sum()
    }

    /// Cosine similarity with another vector, the placement "fitness" metric
    /// of §5.2: `fitness(D, A) = A·D / (|A||D|)`.
    ///
    /// Returns 0 when either vector is (numerically) zero; the paper handles
    /// the zero-availability case by adding a small epsilon or removing the
    /// server from consideration, which callers do at a higher level.
    pub fn cosine_similarity(&self, other: &Self) -> f64 {
        let denom = self.norm() * other.norm();
        if denom <= f64::EPSILON {
            0.0
        } else {
            (self.dot(other) / denom).clamp(-1.0, 1.0)
        }
    }

    /// True iff every component of `self` is less than or equal to the
    /// corresponding component of `other` (within `1e-9` absolute slack).
    pub fn fits_within(&self, other: &Self) -> bool {
        self.components
            .iter()
            .zip(other.components.iter())
            .all(|(a, b)| *a <= *b + 1e-9)
    }

    /// True iff all components are `>= 0`.
    pub fn is_non_negative(&self) -> bool {
        self.components.iter().all(|c| *c >= -1e-9)
    }

    /// True iff all components are finite.
    pub fn is_finite(&self) -> bool {
        self.components.iter().all(|c| c.is_finite())
    }

    /// True iff every component is (numerically) zero.
    pub fn is_zero(&self) -> bool {
        self.components.iter().all(|c| c.abs() <= 1e-12)
    }

    /// The fraction of `capacity` used by `self`, component-wise, clamped to
    /// `[0, 1]` where capacity is non-zero.
    pub fn utilization_of(&self, capacity: &Self) -> Self {
        self.checked_div(capacity).map(|v| v.clamp(0.0, 1.0))
    }
}

impl Index<ResourceKind> for ResourceVector {
    type Output = f64;
    #[inline]
    fn index(&self, kind: ResourceKind) -> &f64 {
        &self.components[kind.index()]
    }
}

impl IndexMut<ResourceKind> for ResourceVector {
    #[inline]
    fn index_mut(&mut self, kind: ResourceKind) -> &mut f64 {
        &mut self.components[kind.index()]
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.zip_with(&rhs, |a, b| a + b)
    }
}

impl AddAssign for ResourceVector {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for ResourceVector {
    type Output = ResourceVector;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.zip_with(&rhs, |a, b| a - b)
    }
}

impl SubAssign for ResourceVector {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl Neg for ResourceVector {
    type Output = ResourceVector;
    #[inline]
    fn neg(self) -> Self {
        self.map(|v| -v)
    }
}

impl Mul<f64> for ResourceVector {
    type Output = ResourceVector;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.map(|v| v * rhs)
    }
}

impl Div<f64> for ResourceVector {
    type Output = ResourceVector;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        self.map(|v| v / rhs)
    }
}

impl Sum for ResourceVector {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, v| acc + v)
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[cpu={:.1}m mem={:.1}MiB disk={:.1}MB/s net={:.1}Mb/s]",
            self.cpu(),
            self.memory(),
            self.disk_bw(),
            self.net_bw()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let v = ResourceVector::new(4000.0, 8192.0, 100.0, 1000.0);
        assert_eq!(v.cpu(), 4000.0);
        assert_eq!(v.memory(), 8192.0);
        assert_eq!(v.disk_bw(), 100.0);
        assert_eq!(v.net_bw(), 1000.0);
        assert_eq!(v.get(ResourceKind::Cpu), 4000.0);
        let cm = ResourceVector::cpu_mem(2000.0, 4096.0);
        assert_eq!(cm.disk_bw(), 0.0);
        assert_eq!(cm.net_bw(), 0.0);
    }

    #[test]
    fn only_sets_single_component() {
        let v = ResourceVector::only(ResourceKind::Memory, 512.0);
        assert_eq!(v.memory(), 512.0);
        assert_eq!(v.cpu(), 0.0);
        assert_eq!(v.total(), 512.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = ResourceVector::new(1.0, 2.0, 3.0, 4.0);
        let b = ResourceVector::new(4.0, 3.0, 2.0, 1.0);
        assert_eq!(a + b, ResourceVector::splat(5.0));
        assert_eq!((a - b).cpu(), -3.0);
        assert_eq!((a * 2.0).memory(), 4.0);
        assert_eq!((a / 2.0).net_bw(), 2.0);
        assert_eq!((-a).cpu(), -1.0);
        let sum: ResourceVector = vec![a, b].into_iter().sum();
        assert_eq!(sum, a + b);
    }

    #[test]
    fn saturating_sub_never_negative() {
        let a = ResourceVector::new(1.0, 5.0, 0.0, 2.0);
        let b = ResourceVector::new(2.0, 3.0, 1.0, 2.0);
        let d = a.saturating_sub(&b);
        assert!(d.is_non_negative());
        assert_eq!(d.memory(), 2.0);
        assert_eq!(d.cpu(), 0.0);
    }

    #[test]
    fn cosine_similarity_basics() {
        let a = ResourceVector::new(1.0, 0.0, 0.0, 0.0);
        let b = ResourceVector::new(0.0, 1.0, 0.0, 0.0);
        assert!((a.cosine_similarity(&a) - 1.0).abs() < 1e-12);
        assert!(a.cosine_similarity(&b).abs() < 1e-12);
        assert_eq!(a.cosine_similarity(&ResourceVector::ZERO), 0.0);
        // Parallel vectors of different magnitude still have similarity 1.
        let c = a * 42.0;
        assert!((a.cosine_similarity(&c) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fits_within_and_dominance() {
        let small = ResourceVector::new(1.0, 1.0, 1.0, 1.0);
        let big = ResourceVector::splat(2.0);
        assert!(small.fits_within(&big));
        assert!(!big.fits_within(&small));
        assert!(small.fits_within(&small));
    }

    #[test]
    fn utilization_and_division() {
        let used = ResourceVector::new(500.0, 2048.0, 0.0, 0.0);
        let cap = ResourceVector::new(1000.0, 4096.0, 0.0, 100.0);
        let u = used.utilization_of(&cap);
        assert!((u.cpu() - 0.5).abs() < 1e-12);
        assert!((u.memory() - 0.5).abs() < 1e-12);
        assert_eq!(u.disk_bw(), 0.0); // 0/0 treated as 0
        assert_eq!(u.net_bw(), 0.0);
    }

    #[test]
    fn clamp_and_min_max() {
        let v = ResourceVector::new(5.0, -1.0, 10.0, 0.5);
        let lo = ResourceVector::ZERO;
        let hi = ResourceVector::splat(4.0);
        let c = v.clamp(&lo, &hi);
        assert_eq!(c, ResourceVector::new(4.0, 0.0, 4.0, 0.5));
    }

    #[test]
    fn display_contains_units() {
        let s = format!("{}", ResourceVector::new(1000.0, 2048.0, 50.0, 100.0));
        assert!(s.contains("cpu=1000.0m"));
        assert!(s.contains("mem=2048.0MiB"));
        let k = format!("{}", ResourceKind::Cpu);
        assert_eq!(k, "cpu");
        assert_eq!(ResourceKind::Memory.unit(), "MiB");
    }

    #[test]
    fn index_mut_roundtrip() {
        let mut v = ResourceVector::ZERO;
        v[ResourceKind::NetBw] = 123.0;
        assert_eq!(v.net_bw(), 123.0);
        assert_eq!(v.with(ResourceKind::Cpu, 7.0).cpu(), 7.0);
    }

    #[test]
    fn iter_yields_all_kinds_in_order() {
        let v = ResourceVector::new(1.0, 2.0, 3.0, 4.0);
        let collected: Vec<_> = v.iter().collect();
        assert_eq!(collected.len(), 4);
        assert_eq!(collected[0], (ResourceKind::Cpu, 1.0));
        assert_eq!(collected[3], (ResourceKind::NetBw, 4.0));
    }
}

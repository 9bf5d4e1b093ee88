//! Simulated guest operating system.
//!
//! Explicit deflation (§4.3) is visible to the guest: vCPUs and memory are
//! hot-unplugged through the QEMU guest agent, and the guest OS decides how
//! much of the request it can safely honour. The paper's safety rules are:
//!
//! * CPU hotplug operates on whole vCPUs and "may not always succeed in
//!   removing all the CPUs requested — the guest OS unplugs the CPU only if
//!   it is safe to do so"; at least one vCPU must always remain online.
//! * Memory can be unplugged only down to the guest's resident set size
//!   (RSS): "we presume that it is safe to unplug as long as the VM has more
//!   memory than the current RSS value", and unplugging happens in
//!   coarse-grained blocks (DIMM-sized sections).
//! * NICs and disks cannot be safely unplugged at all; those resources are
//!   only deflated transparently.
//!
//! [`GuestOs`] models exactly this behaviour plus a small amount of memory
//! accounting (RSS vs page cache) so the hybrid mechanism can exploit the
//! fact that the guest drops caches gracefully when it *knows* about the
//! deflation (Figure 14).

use deflate_core::checkpoint::{ByteReader, ByteWriter, CheckpointError, CheckpointResult};
use deflate_core::resources::ResourceKind;
use serde::{Deserialize, Serialize};

/// Memory hotplug granularity in MiB (a simulated DIMM section).
pub const MEMORY_BLOCK_MB: f64 = 128.0;

/// Result of a hot-unplug (or hot-plug) request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HotplugOutcome {
    /// Amount requested to remove (positive) or add (negative), in the
    /// resource's canonical unit.
    pub requested: f64,
    /// Amount actually removed/added after the guest applied its safety
    /// rules. May be smaller in magnitude than `requested`; the operation is
    /// then reported as partially completed, never as an error (§6: "the hot
    /// unplug operation is allowed to return unfinished").
    pub applied: f64,
}

impl HotplugOutcome {
    /// True when the full request was honoured.
    pub fn complete(&self) -> bool {
        (self.requested - self.applied).abs() < 1e-9
    }
}

/// Simulated guest-OS state for one VM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuestOs {
    /// Number of vCPUs configured at boot (the maximum).
    boot_vcpus: u32,
    /// Number of vCPUs currently online.
    online_vcpus: u32,
    /// Memory configured at boot, MiB (the maximum).
    boot_memory_mb: f64,
    /// Memory currently plugged, MiB.
    plugged_memory_mb: f64,
    /// Resident set size of the workload, MiB — the hotplug safety threshold.
    rss_mb: f64,
    /// Page-cache / buffer memory, MiB. The guest willingly surrenders this
    /// when asked explicitly, which is what gives hybrid deflation its edge.
    page_cache_mb: f64,
    /// Fraction of busy threads; used to decide whether a vCPU can be safely
    /// unplugged (a fully busy guest refuses to drop below the number of
    /// runnable threads' worth of CPUs).
    cpu_busy_fraction: f64,
}

impl GuestOs {
    /// Boot a guest with the given vCPU count and memory size.
    pub fn boot(vcpus: u32, memory_mb: f64) -> Self {
        let vcpus = vcpus.max(1);
        let memory_mb = memory_mb.max(MEMORY_BLOCK_MB);
        GuestOs {
            boot_vcpus: vcpus,
            online_vcpus: vcpus,
            boot_memory_mb: memory_mb,
            plugged_memory_mb: memory_mb,
            rss_mb: 0.25 * memory_mb,
            page_cache_mb: 0.25 * memory_mb,
            // A freshly booted guest is essentially idle; the busy fraction
            // (and with it the vCPU-unplug floor) rises once the workload
            // reports usage.
            cpu_busy_fraction: 0.0,
        }
    }

    /// Number of vCPUs currently online.
    pub fn online_vcpus(&self) -> u32 {
        self.online_vcpus
    }

    /// vCPUs configured at boot.
    pub fn boot_vcpus(&self) -> u32 {
        self.boot_vcpus
    }

    /// Memory currently plugged, MiB.
    pub fn plugged_memory_mb(&self) -> f64 {
        self.plugged_memory_mb
    }

    /// Memory configured at boot, MiB.
    pub fn boot_memory_mb(&self) -> f64 {
        self.boot_memory_mb
    }

    /// Current resident set size, MiB.
    pub fn rss_mb(&self) -> f64 {
        self.rss_mb
    }

    /// Current page-cache size, MiB.
    pub fn page_cache_mb(&self) -> f64 {
        self.page_cache_mb
    }

    /// Report workload state: the application's RSS, page-cache footprint and
    /// CPU busy fraction. RSS and cache are clamped to plugged memory.
    pub fn report_usage(&mut self, rss_mb: f64, page_cache_mb: f64, cpu_busy_fraction: f64) {
        self.rss_mb = rss_mb.clamp(0.0, self.plugged_memory_mb);
        self.page_cache_mb = page_cache_mb
            .max(0.0)
            .min(self.plugged_memory_mb - self.rss_mb);
        self.cpu_busy_fraction = cpu_busy_fraction.clamp(0.0, 1.0);
    }

    /// The hotplug safety threshold for a resource (§4.4: "the key challenge
    /// is to determine the hot unplug safety threshold"). For memory this is
    /// the RSS rounded up to the next block; for CPU it is the number of
    /// vCPUs needed to accommodate the busy threads (at least one). Disk and
    /// network cannot be unplugged, so their threshold is the full boot
    /// allocation.
    pub fn hotplug_threshold(&self, kind: ResourceKind) -> f64 {
        match kind {
            ResourceKind::Cpu => {
                let busy_cores = (self.cpu_busy_fraction * self.boot_vcpus as f64).ceil();
                (busy_cores.max(1.0)) * 1000.0
            }
            ResourceKind::Memory => (self.rss_mb / MEMORY_BLOCK_MB).ceil() * MEMORY_BLOCK_MB,
            ResourceKind::DiskBw | ResourceKind::NetBw => f64::INFINITY,
        }
    }

    /// Hot-unplug vCPUs down to `target_vcpus` (or plug back up if the target
    /// exceeds the online count). The guest refuses to go below one vCPU or
    /// below the number of cores its busy threads need, and never exceeds the
    /// boot count.
    pub fn set_online_vcpus(&mut self, target_vcpus: u32) -> HotplugOutcome {
        let requested = target_vcpus as f64 - self.online_vcpus as f64;
        let busy_floor = (self.cpu_busy_fraction * self.boot_vcpus as f64).ceil() as u32;
        let floor = busy_floor.max(1);
        let target = target_vcpus.clamp(floor.min(self.boot_vcpus), self.boot_vcpus);
        let applied = target as f64 - self.online_vcpus as f64;
        self.online_vcpus = target;
        HotplugOutcome { requested, applied }
    }

    /// Hot-unplug (or plug) memory towards `target_mb`. The target is rounded
    /// up to the block size, floored at the RSS safety threshold, and capped
    /// at the boot size. When memory is removed explicitly the guest first
    /// gives up page cache, shrinking it proportionally.
    pub fn set_plugged_memory(&mut self, target_mb: f64) -> HotplugOutcome {
        let requested = target_mb - self.plugged_memory_mb;
        let threshold = self.hotplug_threshold(ResourceKind::Memory);
        let rounded = (target_mb / MEMORY_BLOCK_MB).ceil() * MEMORY_BLOCK_MB;
        let target = rounded.clamp(threshold.min(self.boot_memory_mb), self.boot_memory_mb);
        let applied = target - self.plugged_memory_mb;
        if applied < 0.0 {
            // Shrink the page cache to fit under the new plugged size.
            let available_for_cache = (target - self.rss_mb).max(0.0);
            self.page_cache_mb = self.page_cache_mb.min(available_for_cache);
        }
        self.plugged_memory_mb = target;
        HotplugOutcome { requested, applied }
    }

    /// Whether an explicit unplug of this resource kind is supported at all.
    pub fn supports_hot_unplug(kind: ResourceKind) -> bool {
        matches!(kind, ResourceKind::Cpu | ResourceKind::Memory)
    }

    /// Ask the guest to surrender its page cache (the deflate-then-migrate
    /// squeeze): clean cache pages are dropped instead of being copied over
    /// the migration link, shrinking the hot footprint down to the RSS.
    /// Returns the MiB released. The cache regrows the next time the
    /// workload reports usage.
    pub fn drop_page_cache(&mut self) -> f64 {
        let dropped = self.page_cache_mb;
        self.page_cache_mb = 0.0;
        dropped
    }

    /// Serialize the raw guest state for an engine checkpoint. Every
    /// field is written verbatim: the public mutators all clamp, so a
    /// faithful restore cannot go through them.
    pub fn write_snapshot(&self, w: &mut ByteWriter) {
        w.put_u32(self.boot_vcpus);
        w.put_u32(self.online_vcpus);
        w.put_f64(self.boot_memory_mb);
        w.put_f64(self.plugged_memory_mb);
        w.put_f64(self.rss_mb);
        w.put_f64(self.page_cache_mb);
        w.put_f64(self.cpu_busy_fraction);
    }

    /// Rebuild a guest from [`write_snapshot`](Self::write_snapshot)
    /// bytes, bit-identically.
    pub fn read_snapshot(r: &mut ByteReader<'_>) -> CheckpointResult<Self> {
        let guest = GuestOs {
            boot_vcpus: r.field("boot_vcpus").get_u32()?,
            online_vcpus: r.field("online_vcpus").get_u32()?,
            boot_memory_mb: r.field("boot_memory_mb").get_f64()?,
            plugged_memory_mb: r.field("plugged_memory_mb").get_f64()?,
            rss_mb: r.field("rss_mb").get_f64()?,
            page_cache_mb: r.field("page_cache_mb").get_f64()?,
            cpu_busy_fraction: r.field("cpu_busy_fraction").get_f64()?,
        };
        let floats = [
            guest.boot_memory_mb,
            guest.plugged_memory_mb,
            guest.rss_mb,
            guest.page_cache_mb,
            guest.cpu_busy_fraction,
        ];
        if !floats.iter().all(|x| x.is_finite()) {
            return Err(CheckpointError::Corrupt(format!(
                "guest state has a non-finite value: {floats:?}"
            )));
        }
        Ok(guest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_state() {
        let g = GuestOs::boot(8, 16_384.0);
        assert_eq!(g.online_vcpus(), 8);
        assert_eq!(g.plugged_memory_mb(), 16_384.0);
        assert!(g.rss_mb() > 0.0);
        assert_eq!(GuestOs::boot(0, 10.0).online_vcpus(), 1);
        assert!(GuestOs::boot(0, 10.0).boot_memory_mb() >= MEMORY_BLOCK_MB);
    }

    #[test]
    fn drop_page_cache_releases_everything_and_regrows_on_report() {
        let mut g = GuestOs::boot(4, 8192.0);
        g.report_usage(2048.0, 1024.0, 0.2);
        assert_eq!(g.drop_page_cache(), 1024.0);
        assert_eq!(g.page_cache_mb(), 0.0);
        assert_eq!(g.rss_mb(), 2048.0, "RSS must survive the squeeze");
        // The next usage report regrows the cache.
        g.report_usage(2048.0, 512.0, 0.2);
        assert_eq!(g.page_cache_mb(), 512.0);
    }

    #[test]
    fn vcpu_unplug_respects_busy_floor() {
        let mut g = GuestOs::boot(8, 8192.0);
        g.report_usage(1024.0, 512.0, 0.5); // needs ceil(0.5*8)=4 cores
        let out = g.set_online_vcpus(2);
        assert_eq!(g.online_vcpus(), 4);
        assert!(!out.complete());
        assert_eq!(out.applied, -4.0);
        // Replug back up to 6.
        let out = g.set_online_vcpus(6);
        assert!(out.complete());
        assert_eq!(g.online_vcpus(), 6);
        // Can never exceed boot count.
        g.set_online_vcpus(100);
        assert_eq!(g.online_vcpus(), 8);
    }

    #[test]
    fn vcpu_unplug_never_below_one() {
        let mut g = GuestOs::boot(4, 4096.0);
        g.report_usage(100.0, 0.0, 0.0);
        g.set_online_vcpus(0);
        assert_eq!(g.online_vcpus(), 1);
    }

    #[test]
    fn memory_unplug_floored_at_rss_block() {
        let mut g = GuestOs::boot(4, 8192.0);
        g.report_usage(3000.0, 2000.0, 0.3);
        let out = g.set_plugged_memory(1024.0);
        // RSS 3000 rounds up to 3072 (24 blocks of 128).
        assert_eq!(g.plugged_memory_mb(), 3072.0);
        assert!(!out.complete());
        // Page cache was shrunk to fit.
        assert!(g.page_cache_mb() <= g.plugged_memory_mb() - g.rss_mb() + 1e-9);
    }

    #[test]
    fn memory_target_rounded_to_blocks() {
        let mut g = GuestOs::boot(4, 8192.0);
        g.report_usage(512.0, 0.0, 0.1);
        g.set_plugged_memory(1000.0);
        assert_eq!(g.plugged_memory_mb(), 1024.0);
        // Replug fully.
        let out = g.set_plugged_memory(8192.0);
        assert!(out.complete());
        assert_eq!(g.plugged_memory_mb(), 8192.0);
        // Cannot exceed boot size.
        g.set_plugged_memory(1e9);
        assert_eq!(g.plugged_memory_mb(), 8192.0);
    }

    #[test]
    fn thresholds_per_resource() {
        let mut g = GuestOs::boot(8, 8192.0);
        g.report_usage(1000.0, 500.0, 0.25);
        assert_eq!(g.hotplug_threshold(ResourceKind::Cpu), 2000.0);
        assert_eq!(g.hotplug_threshold(ResourceKind::Memory), 1024.0);
        assert!(g.hotplug_threshold(ResourceKind::DiskBw).is_infinite());
        assert!(g.hotplug_threshold(ResourceKind::NetBw).is_infinite());
    }

    #[test]
    fn unplug_support_matrix() {
        assert!(GuestOs::supports_hot_unplug(ResourceKind::Cpu));
        assert!(GuestOs::supports_hot_unplug(ResourceKind::Memory));
        assert!(!GuestOs::supports_hot_unplug(ResourceKind::DiskBw));
        assert!(!GuestOs::supports_hot_unplug(ResourceKind::NetBw));
    }

    #[test]
    fn usage_report_clamps_to_plugged_memory() {
        let mut g = GuestOs::boot(4, 2048.0);
        g.report_usage(4096.0, 4096.0, 2.0);
        assert_eq!(g.rss_mb(), 2048.0);
        assert_eq!(g.page_cache_mb(), 0.0);
    }
}

//! Live-migration cost model: page-transfer time and per-server bandwidth
//! budgets.
//!
//! The paper's central argument is that deflation beats migration and
//! eviction on transient servers *because migration is not free*: moving a
//! VM means copying its hot memory footprint over the network, and the
//! provider's reclamation deadline does not wait for the copy to finish
//! (§2's live-migration strawman). This module quantifies that cost with
//! the standard pre-copy shape from the live-migration literature:
//!
//! ```text
//! transfer time = floor + (hot footprint × dirty-page overhead) / bandwidth
//! ```
//!
//! * the **hot footprint** is the memory that must actually move — the
//!   guest's resident set plus its page cache, as tracked by
//!   [`GuestOs`](crate::guest::GuestOs) (cold, never-touched pages are not
//!   copied by post-copy/ballooned migration);
//! * the **dirty-page overhead** factor (`>= 1.0`) models the extra
//!   pre-copy rounds needed to re-send pages the guest dirties while the
//!   copy is running — bounded by the dirty rate over the link bandwidth.
//!   By default it is a constant; switching on the **dirty-rate model**
//!   ([`MigrationCostModel::with_dirty_rate`]) derives it from the
//!   domain's recent CPU-utilisation history instead: write-heavy guests
//!   pay the geometric pre-copy series `1/(1 − dirty/link)`, and guests
//!   whose dirty rate exceeds [`PRECOPY_CONVERGENCE_LIMIT`] of the link
//!   never converge — they are charged a final **stop-and-copy** downtime
//!   on top of the page volume;
//! * the **floor** is the fixed per-migration cost (connection setup, final
//!   stop-and-copy round, device state) that even an idle VM pays;
//! * the **per-server bandwidth budget** caps how many transfers a server
//!   can drive concurrently: each transfer consumes one full link worth of
//!   bandwidth on *both* endpoints, so a server with a budget of
//!   `2 × link` can source or sink two migrations at once and queues the
//!   rest.
//!
//! The cluster layer ([`deflate-cluster`]'s manager) combines this model
//! with a **reclamation deadline**: when the provider reclaims capacity, a
//! migration that cannot finish before the deadline is aborted and the VM
//! is evicted — the transient-server race the paper argues deflation
//! side-steps.
//!
//! [`deflate-cluster`]: ../../deflate_cluster/index.html

use crate::domain::Domain;
use serde::{Deserialize, Serialize};

/// Dirty-to-link bandwidth ratio above which pre-copy is declared
/// non-convergent: each round would re-send more than this fraction of the
/// previous one, so the geometric series is cut off and the hypervisor
/// falls back to stop-and-copy (the guest pauses while the remaining dirty
/// set crosses the link).
pub const PRECOPY_CONVERGENCE_LIMIT: f64 = 0.8;

/// Cost model for live-migrating one [`Domain`] between servers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationCostModel {
    /// Effective bandwidth of one migration stream, MiB/s. A migration
    /// copies the VM's hot footprint at this rate; `0.0` makes every
    /// migration impossible (infinite transfer time).
    pub link_bandwidth_mbps: f64,
    /// Pre-copy dirty-page overhead factor (`>= 1.0`): the hot footprint is
    /// multiplied by this to account for re-sent dirty pages.
    pub dirty_page_overhead: f64,
    /// Fixed per-migration cost in seconds (setup + final stop-and-copy
    /// round), paid even by an idle VM — the page-transfer floor.
    pub setup_floor_secs: f64,
    /// Per-server migration-bandwidth budget, MiB/s. Each active transfer
    /// reserves one full `link_bandwidth_mbps` on both endpoints, so a
    /// server runs at most `floor(budget / link)` concurrent transfers and
    /// queues the rest.
    pub per_server_bandwidth_mbps: f64,
    /// Grace period after a capacity reclamation, seconds: migrations off
    /// the shrinking server that cannot complete within this window are
    /// aborted and the VM is evicted. `f64::INFINITY` disables the race.
    pub reclaim_deadline_secs: f64,
    /// Page-dirtying bandwidth of a fully-busy guest, MiB/s. When positive,
    /// the pre-copy overhead is *derived* from the domain's recent CPU
    /// utilisation instead of the constant `dirty_page_overhead`: a guest
    /// at utilisation `u` dirties pages at `u × dirty_rate_mbps`, and each
    /// pre-copy round must re-send what was dirtied during the previous
    /// one. `0.0` (the default) keeps the constant-factor behaviour
    /// bit-identical to the model before dirty-rate awareness existed.
    pub dirty_rate_mbps: f64,
    /// Extra downtime charged when pre-copy cannot converge (the dirty rate
    /// exceeds [`PRECOPY_CONVERGENCE_LIMIT`] of the link): the guest is
    /// paused for a final stop-and-copy round of its dirty working set.
    pub stop_copy_downtime_secs: f64,
}

/// One migration's predicted cost, as estimated by
/// [`MigrationCostModel::transfer_estimate`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferEstimate {
    /// Predicted wall-clock transfer time, seconds (infinite when the
    /// effective bandwidth is zero).
    pub secs: f64,
    /// Predicted bytes on the wire, MiB.
    pub volume_mb: f64,
    /// False when pre-copy was predicted not to converge and a
    /// stop-and-copy downtime charge is included in `secs`.
    pub converges: bool,
}

impl MigrationCostModel {
    /// The cost-free legacy model: migrations are instantaneous, budgets
    /// unlimited and deadlines never expire. Reproduces the behaviour of
    /// the simulator before migration costs existed.
    pub fn instant() -> Self {
        MigrationCostModel {
            link_bandwidth_mbps: f64::INFINITY,
            dirty_page_overhead: 1.0,
            setup_floor_secs: 0.0,
            per_server_bandwidth_mbps: f64::INFINITY,
            reclaim_deadline_secs: f64::INFINITY,
            dirty_rate_mbps: 0.0,
            stop_copy_downtime_secs: 0.0,
        }
    }

    /// A datacenter-LAN default: one 10 GbE link (~1.25 GiB/s) per
    /// migration stream, 30 % dirty-page overhead, half a second of fixed
    /// cost, a two-stream per-server budget, and the two-minute reclamation
    /// warning real spot offerings give.
    pub fn lan_default() -> Self {
        MigrationCostModel {
            link_bandwidth_mbps: 1250.0,
            dirty_page_overhead: 1.3,
            setup_floor_secs: 0.5,
            per_server_bandwidth_mbps: 2500.0,
            reclaim_deadline_secs: 120.0,
            dirty_rate_mbps: 0.0,
            stop_copy_downtime_secs: 0.0,
        }
    }

    /// Builder-style override of the per-server bandwidth budget (used by
    /// the bandwidth-sweep experiment).
    pub fn with_budget_mbps(mut self, budget_mbps: f64) -> Self {
        self.per_server_bandwidth_mbps = budget_mbps;
        self
    }

    /// Builder-style override of the reclamation deadline.
    pub fn with_deadline_secs(mut self, deadline_secs: f64) -> Self {
        self.reclaim_deadline_secs = deadline_secs;
        self
    }

    /// Builder-style switch to dirty-rate-aware pre-copy: a fully-busy
    /// guest dirties pages at `dirty_rate_mbps`, and non-converging
    /// transfers pay `stop_copy_downtime_secs` of stop-and-copy downtime.
    /// The constant `dirty_page_overhead` is ignored while this is active.
    pub fn with_dirty_rate(mut self, dirty_rate_mbps: f64, stop_copy_downtime_secs: f64) -> Self {
        self.dirty_rate_mbps = dirty_rate_mbps.max(0.0);
        self.stop_copy_downtime_secs = stop_copy_downtime_secs.max(0.0);
        self
    }

    /// True when this model charges nothing (the [`instant`](Self::instant)
    /// behaviour): migrations then complete inline instead of becoming
    /// in-flight transfers. A finite per-server budget makes transfers
    /// costed even over an infinite link, so it is checked too.
    pub fn is_instant(&self) -> bool {
        self.effective_link_mbps().is_infinite() && self.setup_floor_secs <= 0.0
    }

    /// The hot memory footprint of a domain in MiB: resident set plus page
    /// cache — what a pre-copy migration must actually move.
    pub fn hot_footprint_mb(domain: &Domain) -> f64 {
        (domain.guest().rss_mb() + domain.guest().page_cache_mb())
            .min(domain.guest().plugged_memory_mb())
    }

    /// Pre-copy overhead factor for a CPU-utilisation estimate, and whether
    /// pre-copy converges at that utilisation.
    ///
    /// Without a dirty-rate model this is the constant
    /// `dirty_page_overhead` (always convergent). With one, a guest at
    /// utilisation `u` dirties pages at `u × dirty_rate_mbps`; each
    /// pre-copy round re-sends what the previous round's copy time let the
    /// guest dirty, so the total volume is the geometric series
    /// `footprint × 1/(1 − r)` with `r = dirty rate / link`. Beyond
    /// [`PRECOPY_CONVERGENCE_LIMIT`] the series is cut off: the volume is
    /// pinned at the limit's factor (`1/(1 − limit)` — the most pre-copy
    /// the hypervisor will attempt before giving up) and the transfer is
    /// flagged non-convergent so the stop-and-copy downtime charge
    /// applies. Pinning (rather than dropping to a one-round factor)
    /// keeps the cost **monotone in utilisation**: a busier guest is
    /// never estimated cheaper than a calmer one.
    fn precopy_overhead(&self, util: f64) -> (f64, bool) {
        if self.dirty_rate_mbps <= 0.0 {
            return (self.dirty_page_overhead.max(1.0), true);
        }
        let link = self.effective_link_mbps();
        if link <= 0.0 || link.is_infinite() {
            // No finite link: the transfer is impossible or instantaneous
            // either way, so dirtying during the copy is moot.
            return (1.0, true);
        }
        let ratio = util.clamp(0.0, 1.0) * self.dirty_rate_mbps / link;
        if ratio <= PRECOPY_CONVERGENCE_LIMIT {
            (1.0 / (1.0 - ratio), true)
        } else {
            (1.0 / (1.0 - PRECOPY_CONVERGENCE_LIMIT), false)
        }
    }

    /// Full cost prediction for migrating this domain, given an estimate of
    /// its recent CPU utilisation (`[0, 1]`). This is the scheduler-facing
    /// entry point: admission control compares `secs` against the
    /// reclamation deadline before granting a bandwidth slot.
    pub fn transfer_estimate(&self, domain: &Domain, util: f64) -> TransferEstimate {
        let (factor, converges) = self.precopy_overhead(util);
        let volume = Self::hot_footprint_mb(domain) * factor;
        let link = self.effective_link_mbps();
        let secs = if link <= 0.0 {
            f64::INFINITY
        } else if link.is_infinite() {
            self.setup_floor_secs.max(0.0)
        } else {
            let downtime = if converges {
                0.0
            } else {
                self.stop_copy_downtime_secs.max(0.0)
            };
            self.setup_floor_secs.max(0.0) + volume / link + downtime
        };
        TransferEstimate {
            secs,
            volume_mb: volume,
            converges,
        }
    }

    /// Bytes on the wire for migrating this domain, MiB (hot footprint
    /// inflated by the pre-copy overhead, read from the domain's recent
    /// utilisation history when a dirty-rate model is active).
    pub fn transfer_volume_mb(&self, domain: &Domain) -> f64 {
        self.transfer_estimate(domain, domain.recent_cpu_utilization())
            .volume_mb
    }

    /// The bandwidth one migration stream actually gets, MiB/s: the link
    /// rate, capped by the per-server budget (a transfer cannot stream
    /// faster than the budget of either endpoint it crosses).
    pub fn effective_link_mbps(&self) -> f64 {
        self.link_bandwidth_mbps.min(self.per_server_bandwidth_mbps)
    }

    /// Transfer time for migrating this domain over one migration stream,
    /// seconds, at the domain's recent CPU utilisation. Infinite when the
    /// effective bandwidth is zero (migration impossible); zero only for
    /// the [`instant`](Self::instant) model.
    pub fn transfer_secs(&self, domain: &Domain) -> f64 {
        self.transfer_estimate(domain, domain.recent_cpu_utilization())
            .secs
    }

    /// Number of migrations a server can source or sink concurrently under
    /// the per-server bandwidth budget. At least one (a budget below one
    /// link still serialises transfers rather than forbidding them);
    /// `usize::MAX` for unlimited budgets.
    pub fn concurrent_slots(&self) -> usize {
        if self.per_server_bandwidth_mbps.is_infinite() {
            return usize::MAX;
        }
        let link = self.effective_link_mbps();
        if link <= 0.0 || link.is_infinite() {
            return 1;
        }
        ((self.per_server_bandwidth_mbps / link).floor() as usize).max(1)
    }
}

impl Default for MigrationCostModel {
    /// Defaults to the cost-free [`instant`](Self::instant) model so
    /// existing call sites keep their semantics unless they opt in.
    fn default() -> Self {
        MigrationCostModel::instant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflate_core::resources::ResourceVector;
    use deflate_core::vm::{VmClass, VmId, VmSpec};

    fn domain(memory_mb: f64) -> Domain {
        Domain::launch(VmSpec::deflatable(
            VmId(1),
            VmClass::Interactive,
            ResourceVector::cpu_mem(4000.0, memory_mb),
        ))
    }

    #[test]
    fn instant_model_is_free() {
        let m = MigrationCostModel::instant();
        assert!(m.is_instant());
        let d = domain(8192.0);
        assert_eq!(m.transfer_secs(&d), 0.0);
        assert_eq!(m.concurrent_slots(), usize::MAX);
    }

    #[test]
    fn transfer_time_scales_with_hot_footprint() {
        let m = MigrationCostModel::lan_default();
        let small = domain(2048.0);
        let large = domain(16_384.0);
        // A freshly booted guest keeps RSS + cache at half its memory.
        assert!((MigrationCostModel::hot_footprint_mb(&small) - 1024.0).abs() < 1e-9);
        assert!((MigrationCostModel::hot_footprint_mb(&large) - 8192.0).abs() < 1e-9);
        let t_small = m.transfer_secs(&small);
        let t_large = m.transfer_secs(&large);
        assert!(t_small > m.setup_floor_secs);
        assert!(t_large > t_small);
        // 8192 MiB × 1.3 / 1250 MiB/s + 0.5 s.
        assert!((t_large - (8192.0 * 1.3 / 1250.0 + 0.5)).abs() < 1e-9);
        assert!((m.transfer_volume_mb(&large) - 8192.0 * 1.3).abs() < 1e-9);
    }

    #[test]
    fn finite_budget_over_infinite_link_is_not_instant() {
        let m = MigrationCostModel {
            link_bandwidth_mbps: f64::INFINITY,
            per_server_bandwidth_mbps: 1250.0,
            ..MigrationCostModel::instant()
        };
        // The budget throttles the stream, so transfers take real time and
        // the model must not claim to be instantaneous.
        assert!(!m.is_instant());
        assert_eq!(m.effective_link_mbps(), 1250.0);
        assert!(m.transfer_secs(&domain(8192.0)) > 0.0);
    }

    #[test]
    fn zero_bandwidth_makes_migration_impossible() {
        let m = MigrationCostModel {
            link_bandwidth_mbps: 0.0,
            ..MigrationCostModel::lan_default()
        };
        assert!(m.transfer_secs(&domain(4096.0)).is_infinite());
        assert!(!m.is_instant());
        // Still reports a (serialised) slot rather than dividing by zero.
        assert_eq!(m.concurrent_slots(), 1);
    }

    #[test]
    fn budget_determines_concurrent_slots() {
        let m = MigrationCostModel::lan_default();
        assert_eq!(m.concurrent_slots(), 2);
        assert_eq!(m.with_budget_mbps(1250.0).concurrent_slots(), 1);
        assert_eq!(m.with_budget_mbps(5000.0).concurrent_slots(), 4);
        // A budget below one link serialises but does not forbid — and the
        // single stream is throttled to the budget itself.
        let throttled = m.with_budget_mbps(100.0);
        assert_eq!(throttled.concurrent_slots(), 1);
        assert_eq!(throttled.effective_link_mbps(), 100.0);
        assert!(
            throttled.transfer_secs(&domain(8192.0)) > m.transfer_secs(&domain(8192.0)),
            "a sub-link budget must slow the stream down"
        );
        assert_eq!(
            m.with_budget_mbps(f64::INFINITY).concurrent_slots(),
            usize::MAX
        );
    }

    #[test]
    fn deadline_builder() {
        let m = MigrationCostModel::lan_default().with_deadline_secs(30.0);
        assert_eq!(m.reclaim_deadline_secs, 30.0);
        assert!(MigrationCostModel::instant()
            .reclaim_deadline_secs
            .is_infinite());
    }

    #[test]
    fn dirty_rate_scales_overhead_with_utilization() {
        let m = MigrationCostModel::lan_default()
            .with_budget_mbps(1250.0)
            .with_dirty_rate(800.0, 2.0);
        let mut d = domain(8192.0);
        // Idle guest: one pre-copy round, factor 1.0 — cheaper than the
        // constant 1.3 overhead it replaces.
        let idle = m.transfer_estimate(&d, 0.0);
        assert!(idle.converges);
        assert!((idle.volume_mb - 4096.0).abs() < 1e-9);
        // Half-busy guest: r = 0.5 × 800 / 1250 = 0.32 → factor 1/(1−r).
        let busy = m.transfer_estimate(&d, 0.5);
        assert!(busy.converges);
        assert!((busy.volume_mb - 4096.0 / (1.0 - 0.32)).abs() < 1e-6);
        assert!(busy.secs > idle.secs);
        // The domain-level entry points read the recent history.
        for _ in 0..8 {
            d.observe_cpu_utilization(0.5);
        }
        assert!((m.transfer_secs(&d) - busy.secs).abs() < 1e-9);
        assert!((m.transfer_volume_mb(&d) - busy.volume_mb).abs() < 1e-9);
    }

    #[test]
    fn non_converging_precopy_charges_stop_and_copy() {
        // A 625 MiB/s budget throttles the link; a fully busy guest
        // dirtying 800 MiB/s overruns it (r = 1.28 > limit).
        let m = MigrationCostModel::lan_default()
            .with_budget_mbps(625.0)
            .with_dirty_rate(800.0, 2.0);
        let d = domain(8192.0);
        let est = m.transfer_estimate(&d, 1.0);
        assert!(!est.converges, "r beyond the limit must not converge");
        // The volume is pinned at the convergence-limit factor (5×) and
        // the stop-and-copy downtime is added on top.
        assert!((est.volume_mb - 4096.0 * 5.0).abs() < 1e-9);
        assert!((est.secs - (0.5 + 4096.0 * 5.0 / 625.0 + 2.0)).abs() < 1e-9);
        // Just inside the limit: convergent, no downtime charge.
        let edge = m.transfer_estimate(&d, 0.625);
        assert!(edge.converges);
        // The estimate is monotone in utilisation across the convergence
        // boundary: a busier guest is never cheaper.
        let mut prev = 0.0;
        for step in 0..=20 {
            let secs = m.transfer_estimate(&d, step as f64 / 20.0).secs;
            assert!(
                secs >= prev - 1e-9,
                "cost must not drop as utilisation rises (util {})",
                step as f64 / 20.0
            );
            prev = secs;
        }
    }

    #[test]
    fn zero_dirty_rate_is_bit_identical_to_constant_overhead() {
        let m = MigrationCostModel::lan_default();
        let d = domain(8192.0);
        let est = m.transfer_estimate(&d, 0.9);
        // Utilisation is ignored without a dirty-rate model.
        assert_eq!(est.volume_mb, m.transfer_volume_mb(&d));
        assert_eq!(est.secs, m.transfer_secs(&d));
        assert_eq!(est.volume_mb, 4096.0 * 1.3);
    }

    #[test]
    fn deflate_for_migration_shrinks_the_transfer() {
        let m = MigrationCostModel::lan_default();
        let mut d = domain(8192.0);
        let before = m.transfer_secs(&d);
        // The squeeze drops the page cache: only the RSS remains hot.
        d.deflate_for_migration();
        assert!((MigrationCostModel::hot_footprint_mb(&d) - 2048.0).abs() < 1e-9);
        assert!(m.transfer_secs(&d) < before);
    }

    #[test]
    fn hot_footprint_follows_guest_usage() {
        let m = MigrationCostModel::lan_default();
        let mut d = domain(8192.0);
        let before = m.transfer_secs(&d);
        // The workload grows: more RSS and cache to move.
        d.report_guest_usage(ResourceVector::cpu_mem(1000.0, 6000.0), 2000.0);
        assert!((MigrationCostModel::hot_footprint_mb(&d) - 8000.0).abs() < 1e-9);
        assert!(m.transfer_secs(&d) > before);
    }
}

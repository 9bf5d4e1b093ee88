//! A stable 64-bit digest of a simulation's deterministic outputs.
//!
//! FNV-1a over explicit little-endian field bytes, so the value depends
//! only on the simulated results — never on the Rust version, the hasher
//! seed or the host. Wall-clock fields are left out.

use deflate_cluster::metrics::SimResult;

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mix in a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mix in a count.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Mix in an `f64` by its bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Digest of a [`SimResult`]: admission, transient and scheduler
/// counters, events processed, migrations, the failure-probability and
/// throughput-loss bits and every utilisation sample.
pub fn result_digest(result: &SimResult) -> u64 {
    let mut h = Fnv::default();
    let c = &result.counters;
    h.usize(c.admitted_free)
        .usize(c.admitted_with_deflation)
        .usize(c.admitted_with_preemption)
        .usize(c.rejected)
        .usize(c.preempted_vms);
    let t = &result.transient;
    h.usize(t.reclaim_events)
        .usize(t.restore_events)
        .usize(t.absorbed_by_deflation)
        .usize(t.migrations)
        .usize(t.migrations_back)
        .usize(t.migration_aborts)
        .usize(t.migration_rejections)
        .usize(t.reclamation_victims);
    let s = &result.scheduler;
    h.usize(s.booked)
        .usize(s.rejected)
        .f64(s.total_queue_wait_secs);
    h.u64(result.runtime.events_processed)
        .usize(result.migrations.len())
        .f64(result.failure_probability())
        .f64(result.mean_throughput_loss());
    h.usize(result.utilization.len());
    for &(time, value) in &result.utilization {
        h.f64(time).f64(value);
    }
    h.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflate_cluster::manager::{ClusterConfig, ReclamationMode};
    use deflate_cluster::sim::ClusterSimulation;
    use deflate_cluster::spec::{
        min_cluster_size, paper_server_capacity, workload_from_azure, MinAllocationRule,
    };
    use deflate_core::policy::ProportionalDeflation;
    use deflate_traces::azure::{AzureTraceConfig, AzureTraceGenerator};
    use std::sync::Arc;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(Fnv::default().value(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().bytes(b"a").value(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv::default().bytes(b"foobar").value(),
            0x8594_4171_f739_67e8
        );
    }

    fn small_run(seed: u64) -> SimResult {
        let traces = AzureTraceGenerator::generate(&AzureTraceConfig {
            num_vms: 300,
            duration_hours: 4.0,
            seed,
            ..Default::default()
        });
        let workload = workload_from_azure(&traces, MinAllocationRule::None);
        let servers = min_cluster_size(&workload, paper_server_capacity());
        ClusterSimulation::new(
            ClusterConfig::paper_default(servers),
            ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default())),
        )
        .with_utilization_ticks(900.0)
        .run(&workload)
    }

    #[test]
    fn digest_is_stable_and_ignores_wall_clock() {
        let a = small_run(3);
        let mut b = small_run(3);
        assert_eq!(result_digest(&a), result_digest(&b));
        b.runtime.wall_clock_secs += 1.0;
        assert_eq!(result_digest(&a), result_digest(&b));
    }

    #[test]
    fn digest_of_a_small_run_is_pinned() {
        // Moves only when the engine's results or the digest's fields do.
        assert_eq!(result_digest(&small_run(3)), 0xc052_bcff_42b0_c9b3);
    }

    #[test]
    fn digest_sees_counter_and_sample_changes() {
        let a = small_run(3);
        let mut b = a.clone();
        b.counters.rejected += 1;
        assert_ne!(result_digest(&a), result_digest(&b));
        let mut c = a.clone();
        c.utilization[0].1 += 1e-12;
        assert_ne!(result_digest(&a), result_digest(&c));
        assert_ne!(result_digest(&a), result_digest(&small_run(4)));
    }
}

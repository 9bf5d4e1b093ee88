//! Helpers shared by the integration-test battery (each `tests/*.rs`
//! file is its own crate; they pull this module in with `mod common;`).
//!
//! The digest pair here used to live inline in `placement_golden.rs`;
//! the checkpoint/fork battery pins snapshot *bytes* with the same hash,
//! so the helpers moved to one place. The rendering and hash must stay
//! stable: golden constants in several test files were captured through
//! them.

// Each test crate compiles its own copy of this module and typically
// uses only part of it.
#![allow(dead_code)]

use vmdeflate::cluster::metrics::SimResult;

/// FNV-1a 64-bit over a byte string — tiny, dependency-free, stable.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Bit-faithful digest of every deterministic `SimResult` field. Only the
/// wall-clock reading (and the derived events/s) is excluded — everything
/// else, down to per-VM usage summaries and the migration event log,
/// feeds the hash (`Debug` for `f64` is the shortest round-trip form, so
/// the hash is bit-faithful).
pub fn sim_result_digest(result: &SimResult) -> u64 {
    let deterministic = (
        &result.records,
        &result.counters,
        &result.transient,
        &result.scheduler,
        &result.autoscale,
        &result.migrations,
        &result.utilization,
        result.num_servers,
        result.overcommitment.to_bits(),
        &result.policy_name,
        result.runtime.events_processed,
        // The goldens were captured when the engine still recorded a
        // shard count, which was always 1; hashing the literal keeps
        // every pinned digest unchanged.
        1usize,
    );
    fnv1a64(format!("{deterministic:?}").as_bytes())
}

/// A tiny deterministic LCG (Numerical Recipes constants) for seeding
/// "random" checkpoint boundaries without a clock or an RNG dependency:
/// the battery wants arbitrary-looking, reproducible fractions.
pub struct Lcg(pub u64);

impl Lcg {
    /// Next raw state.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0
    }

    /// A fraction in `(0, 1)`, never exactly 0 or 1.
    pub fn fraction(&mut self) -> f64 {
        let raw = self.next_u64() >> 11; // 53 significant bits
        (raw as f64 + 0.5) / (1u64 << 53) as f64
    }
}

//! The online-audit knob: which engine invariants a run checks as it goes.
//!
//! [`AuditSpec`] is plain configuration data, mirroring the other engine
//! knobs ([`TelemetrySpec`](crate::telemetry::TelemetrySpec), the policy
//! enums): the checkers themselves
//! live in `deflate-cluster`'s `audit` module, which turns a spec into a
//! live `Auditor` riding the event loop. Keeping the knob here lets every
//! layer name the configuration without depending on the machinery.
//!
//! Two standing contracts, pinned by `tests/telemetry_determinism.rs`:
//!
//! * **Off by default.** `AuditSpec::default()` enables nothing; a run
//!   without the knob behaves exactly as before the auditor existed.
//! * **Auditing never changes results.** Every checker is a read-only
//!   observer of settled state between events: enabling all of them
//!   leaves every `SimResult` field bit-identical to an audit-off run.
//!   A checker that *fires* aborts the run with a diagnostic — by then
//!   the state is, by definition, already wrong.

use serde::{Deserialize, Serialize};

/// Which online invariant checkers a simulation run executes after each
/// event. **Everything is off by default**; `deflate-cluster` turns the
/// spec into a live auditor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditSpec {
    /// Check every server's capacity-conservation invariant (effective
    /// allocations, net of in-flight outbound transfers, never exceed
    /// capacity) after each event.
    pub capacity: bool,
    /// Check the transfer scheduler's bandwidth ledgers against the
    /// manager's in-flight transfer table: every live reservation must be
    /// backed by a transfer actually on the wire.
    pub bandwidth_ledger: bool,
    /// Check that event delivery times never move backwards (the queue's
    /// total order is monotone in time).
    pub monotonicity: bool,
    /// Check the incremental placement index's cached views against a
    /// freshly derived full rescan (clean entries must agree exactly).
    /// Expensive — O(servers) per audit point — so it runs only every
    /// [`placement_sample_every`](Self::placement_sample_every)-th event.
    pub placement_index: bool,
    /// Check the autoscaler's replica ledger: every replica ever launched
    /// is still pooled (active or parked), retired, or counted lost.
    pub replica_ledger: bool,
    /// Run the placement-index rescan every `n`-th audited event
    /// (1 = every event). `0` is normalised to 1. Ignored unless
    /// [`placement_index`](Self::placement_index) is set.
    pub placement_sample_every: u64,
}

impl Default for AuditSpec {
    fn default() -> Self {
        AuditSpec::off()
    }
}

impl AuditSpec {
    /// The disabled spec (what `Default` also yields): no checkers.
    pub fn off() -> Self {
        AuditSpec {
            capacity: false,
            bandwidth_ledger: false,
            monotonicity: false,
            placement_index: false,
            replica_ledger: false,
            placement_sample_every: DEFAULT_PLACEMENT_SAMPLE,
        }
    }

    /// Every checker on, with the default placement sampling interval —
    /// the configuration the determinism pins run under.
    pub fn all() -> Self {
        AuditSpec {
            capacity: true,
            bandwidth_ledger: true,
            monotonicity: true,
            placement_index: true,
            replica_ledger: true,
            placement_sample_every: DEFAULT_PLACEMENT_SAMPLE,
        }
    }

    /// The cheap checkers only (capacity, bandwidth ledger, monotonicity,
    /// replica ledger) — O(servers' residents) per event at worst, no
    /// full placement rescans.
    pub fn cheap() -> Self {
        AuditSpec {
            placement_index: false,
            ..AuditSpec::all()
        }
    }

    /// Builder-style placement-rescan sampling interval: compare the
    /// placement index against a full rescan every `n`-th audited event.
    pub fn with_placement_sample_every(mut self, n: u64) -> Self {
        self.placement_sample_every = n.max(1);
        self
    }

    /// True when no checker is enabled (the default).
    pub fn is_off(&self) -> bool {
        !self.capacity
            && !self.bandwidth_ledger
            && !self.monotonicity
            && !self.placement_index
            && !self.replica_ledger
    }

    /// The placement sampling interval with `0` normalised to 1.
    pub fn placement_sample_rate(&self) -> u64 {
        self.placement_sample_every.max(1)
    }
}

/// Default interval between placement-index full-rescan comparisons: the
/// rescan is O(servers), so auditing every event would re-create the
/// pre-index cost the index exists to avoid.
pub const DEFAULT_PLACEMENT_SAMPLE: u64 = 256;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        let spec = AuditSpec::default();
        assert!(spec.is_off());
        assert_eq!(spec, AuditSpec::off());
        assert_eq!(spec.placement_sample_rate(), DEFAULT_PLACEMENT_SAMPLE);
    }

    #[test]
    fn all_enables_every_checker() {
        let spec = AuditSpec::all();
        assert!(!spec.is_off());
        assert!(spec.capacity);
        assert!(spec.bandwidth_ledger);
        assert!(spec.monotonicity);
        assert!(spec.placement_index);
        assert!(spec.replica_ledger);
    }

    #[test]
    fn cheap_skips_the_rescan() {
        let spec = AuditSpec::cheap();
        assert!(!spec.is_off());
        assert!(!spec.placement_index);
        assert!(spec.capacity);
    }

    #[test]
    fn sampling_rate_normalises_zero() {
        let spec = AuditSpec::all().with_placement_sample_every(0);
        assert_eq!(spec.placement_sample_rate(), 1);
        let spec = AuditSpec::all().with_placement_sample_every(64);
        assert_eq!(spec.placement_sample_rate(), 64);
    }
}

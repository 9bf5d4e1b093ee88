//! # deflate-core
//!
//! Core model of **VM deflation** — the primary contribution of
//! *"Cloud-scale VM Deflation for Running Interactive Applications On
//! Transient Servers"* (Fuerst et al., HPDC 2020).
//!
//! Deflation fractionally reclaims resources from low-priority "deflatable"
//! VMs instead of preempting them, letting interactive applications keep
//! running (slower) under resource pressure. This crate contains the pieces
//! of that idea that are independent of any particular hypervisor or
//! simulator:
//!
//! * [`checkpoint`] — the versioned snapshot byte format
//!   ([`ByteWriter`] / [`ByteReader`]) behind the engine's
//!   checkpoint / restore / fork support.
//! * [`resources`] — multi-dimensional [`ResourceVector`]s over CPU, memory,
//!   disk bandwidth and network bandwidth.
//! * [`vm`] — VM specifications, priorities `π ∈ (0, 1]`, workload classes
//!   and allocation state.
//! * [`perfmodel`] — the slack / linear / knee performance-response model of
//!   §3.1.
//! * [`policy`] — server-level deflation policies: proportional (Eq 1–2),
//!   priority-weighted (Eq 3–4) and deterministic, plus reinflation.
//! * [`placement`] — deflation-aware placement: cosine fitness, bin-packing
//!   baselines, cluster partitions (§5.2) and the per-dimension max tree
//!   ([`placement::ViewTree`]) the cluster manager ranks through, with the
//!   same answer as the policies' slice scans.
//! * [`pricing`] — static, priority-based and allocation-based pricing
//!   (§5.2.2) and the revenue accounting behind Figure 22.
//! * [`shard`] — the engine-sharding knob ([`ShardConfig`]): how many
//!   worker threads the discrete-event simulator fans per-server work out
//!   to, with the guarantee that any shard count is bit-identical to the
//!   sequential engine.
//! * [`telemetry`] — the observability knob ([`TelemetrySpec`]): which
//!   telemetry sinks (metrics registry, phase profiler, JSONL event log,
//!   Chrome trace) a run should feed, **off by default**, with the
//!   guarantee that enabling any sink never changes simulation results.
//! * [`mem`] — byte-accounting conventions behind the per-subsystem
//!   `accounted_bytes()` impls and the `mem.*` memory-ledger gauges.
//! * [`audit`] — the online-audit knob ([`AuditSpec`]): which engine
//!   invariants (capacity conservation, bandwidth-ledger balance, event
//!   monotonicity, placement-index consistency, replica-ledger balance)
//!   a run checks after every event, **off by default**, with the same
//!   guarantee — auditing never changes results.
//!
//! The simulated hypervisor substrate lives in `deflate-hypervisor`, the
//! cluster manager and discrete-event simulator in `deflate-cluster`.
//!
//! ## Example
//!
//! ```
//! use deflate_core::policy::{DeflationPolicy, ProportionalDeflation, VmResourceState};
//! use deflate_core::vm::VmId;
//!
//! // Two deflatable VMs with 8 and 24 GiB of memory; reclaim 8 GiB.
//! let vms = [
//!     VmResourceState { id: VmId(1), max: 8.0, min: 0.0, current: 8.0, priority: 0.5 },
//!     VmResourceState { id: VmId(2), max: 24.0, min: 0.0, current: 24.0, priority: 0.5 },
//! ];
//! let plan = ProportionalDeflation::by_size().plan(&vms, 8.0);
//! assert!(plan.satisfied());
//! // The larger VM gives up three quarters of the demand.
//! assert_eq!(plan.target_for(VmId(2)), Some(18.0));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod audit;
pub mod checkpoint;
pub mod error;
pub mod mem;
pub mod perfmodel;
pub mod placement;
pub mod policy;
pub mod pricing;
pub mod resources;
pub mod shard;
pub mod telemetry;
pub mod vm;

pub use audit::AuditSpec;
pub use checkpoint::{ByteReader, ByteWriter, CheckpointError, SNAPSHOT_VERSION};
pub use error::{DeflateError, Result};
pub use perfmodel::PerfModel;
pub use resources::{ResourceKind, ResourceVector};
pub use shard::ShardConfig;
pub use telemetry::{TelemetryEventKind, TelemetryEventSet, TelemetrySpec};
pub use vm::{Priority, ServerId, VmAllocation, VmClass, VmId, VmSpec};

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::audit::AuditSpec;
    pub use crate::error::{DeflateError, Result};
    pub use crate::perfmodel::PerfModel;
    pub use crate::placement::{
        BestFit, CosineFitness, FirstFit, PartitionScheme, PartitionedPlacement, PlacementPolicy,
        ServerView, WorstFit,
    };
    pub use crate::policy::{
        AllocationView, AutoscaleParams, AutoscalePolicy, DeflationPolicy, DeterministicDeflation,
        PlanScratch, PlanTotals, PriorityDeflation, ProportionalDeflation, RestorePolicy,
        ScalarPlan, VectorPlan, VectorPlanner, VmResourceState,
    };
    pub use crate::pricing::{PricingPolicy, RateCard};
    pub use crate::resources::{ResourceKind, ResourceVector};
    pub use crate::shard::ShardConfig;
    pub use crate::telemetry::{TelemetryEventKind, TelemetryEventSet, TelemetrySpec};
    pub use crate::vm::{Priority, ServerId, VmAllocation, VmClass, VmId, VmSpec};
}

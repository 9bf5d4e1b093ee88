//! Host-speed-normalised benchmark of the deflation cluster engine.
//!
//! Four workloads (`spot`, `packed`, `fork`, `observed`) are driven from
//! outside the program through the library crates' public APIs. A plain
//! run reports end-to-end metrics; a traced run replays the same work
//! through `ClusterManager`'s public calls and reports per-layer metrics.
//! See `README.md` next to this crate for the workloads, the metric map
//! and the noise study.

pub mod digest;
pub mod hostref;
pub mod replay;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workload;

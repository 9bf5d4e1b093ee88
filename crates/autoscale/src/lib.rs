//! # deflate-autoscale
//!
//! Deflation-aware elastic autoscaling — the paper's thesis (*"VM
//! deflation makes transient capacity safe for elastic and interactive
//! applications"*, §1/§8) turned into a control loop over the `vmdeflate`
//! cluster simulator.
//!
//! An [`ElasticApp`] is a pool of identical replica VMs serving a
//! deterministic request-rate signal ([`DemandCurve`]). The
//! [`Autoscaler`] observes each pool's utilisation at the simulator's
//! `UtilizationTick` events and steers it towards a setpoint
//! ([`AutoscaleParams`]) by scheduling `ScaleOut` / `ScaleIn` events —
//! decisions actuate after a delay, cooldowns damp the loop, and every
//! replica operation goes through the cluster's own accounting via the
//! [`ElasticCluster`] trait (implemented by `deflate-cluster`'s
//! `ClusterManager`).
//!
//! Two enabled policies share that loop
//! ([`AutoscalePolicy`], defined in `deflate-core`):
//!
//! * **launch-only target tracking** — scale out by launching new
//!   replicas (each pays a boot delay before serving), scale in by
//!   terminating them: today's cloud autoscalers;
//! * **deflation-aware target tracking** — scale in *deflates* replicas
//!   into a parked state instead of terminating them, and scale out
//!   *reinflates* parked replicas before launching anything: the
//!   capacity returns instantly, launches (and their failures under
//!   reclamation pressure) are mostly avoided, and the pool rides out
//!   transient-capacity shocks the way the paper promises.
//!
//! The run's accounting lands in [`AutoscaleStats`] (scale actions,
//! reinflations-instead-of-launches, replicas lost, setpoint error, and a
//! processor-sharing response-time profile built on
//! `deflate-appsim`'s [`LatencyStats`]), which `deflate-cluster` surfaces
//! in its `SimResult` — deterministically, as part of the engine's
//! bit-identity contract.
//!
//! [`LatencyStats`]: deflate_appsim::latency::LatencyStats

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod app;
pub mod autoscaler;
pub mod stats;

pub use app::{DemandCurve, ElasticApp};
pub use autoscaler::{Autoscaler, ElasticCluster};
pub use deflate_core::policy::{AutoscaleParams, AutoscalePolicy};
pub use stats::AutoscaleStats;

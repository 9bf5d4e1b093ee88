//! # deflate-hypervisor
//!
//! Simulated KVM/cgroups hypervisor substrate for the `vmdeflate` workspace.
//!
//! The paper's prototype drives a real hypervisor: KVM VMs run inside cgroups
//! (transparent deflation through `cpu.shares`, `memory.limit_in_bytes` and
//! the blkio / network controllers) and are resized explicitly through
//! QEMU-agent vCPU / memory hotplug (§4, §6). That substrate is unavailable
//! here, so this crate re-implements its *behaviour*: the same operations,
//! the same granularity restrictions and the same safety thresholds, but
//! against in-memory state rather than `/sys/fs/cgroup` and libvirt.
//!
//! * [`cgroups`] — per-VM cgroup controllers (limits, usage, pressure).
//! * [`guest`] — the guest-OS model that arbitrates hotplug requests
//!   (whole-vCPU granularity, RSS safety threshold, partial success).
//! * [`domain`] — a simulated VM combining both paths, with the transparent
//!   / explicit / hybrid deflation mechanisms of §4 (Figure 13).
//! * [`server`] — a physical server hosting domains, with the accounting the
//!   cluster layer needs (committed vs effective allocations, overcommitment,
//!   deflatable headroom).
//! * [`controller`] — the per-server local deflation controller of §6 that
//!   applies policies from `deflate-core` to admit, deflate and reinflate
//!   residents.
//! * [`migration`] — the live-migration cost model: page-transfer time
//!   derived from a domain's hot footprint (RSS + page cache), dirty-page
//!   overhead, and per-server migration-bandwidth budgets.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cgroups;
pub mod controller;
pub mod domain;
pub mod guest;
pub mod migration;
pub mod server;

pub use controller::{AdmissionOutcome, LocalController};
pub use domain::{DeflationMechanism, DeflationOutcome, Domain};
pub use guest::{GuestOs, HotplugOutcome, MEMORY_BLOCK_MB};
pub use migration::MigrationCostModel;
pub use server::SimServer;

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::cgroups::{CgroupController, CgroupSet};
    pub use crate::controller::{AdmissionOutcome, LocalController};
    pub use crate::domain::{DeflationMechanism, DeflationOutcome, Domain};
    pub use crate::guest::{GuestOs, HotplugOutcome};
    pub use crate::migration::MigrationCostModel;
    pub use crate::server::SimServer;
}

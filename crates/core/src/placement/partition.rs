//! Placement with cluster partitions (§5.2.1).
//!
//! Mixing VMs of different priority levels on the same servers improves
//! utilisation but increases the risk of performance interference for the
//! higher-priority VMs. The partitioning scheme splits the cluster into
//! priority pools and restricts each VM to the servers of its own pool; the
//! regular (fitness / bin-packing) policy is applied *within* the pool. If a
//! pool is full even after deflating all of its VMs, the VM is rejected by
//! admission control rather than spilling into another pool.

use super::{
    partition_for_priority, Eligible, PlacementDecision, PlacementPolicy, ServerView, ViewTree,
};
use crate::vm::{Priority, ServerId, VmSpec};
use serde::{Deserialize, Serialize};

/// How servers are assigned to priority pools.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PartitionScheme {
    /// No partitioning — every VM may use every server (the "mixing"
    /// baseline of §5.2).
    None,
    /// The cluster is split into `n` pools of (approximately) equal size,
    /// pool `k` hosting VMs whose priority falls in the `k`-th quantile.
    ByPriority {
        /// Number of pools.
        pools: u8,
    },
    /// Dedicated pool for non-deflatable (on-demand) VMs, shared pool for all
    /// deflatable VMs; the fraction is the share of servers reserved for the
    /// on-demand pool.
    OnDemandSplit {
        /// Fraction of servers in the on-demand pool, `0.0‥1.0`.
        on_demand_fraction: f64,
    },
}

impl PartitionScheme {
    /// Assign a partition index to each of `n_servers` servers.
    pub fn assign_servers(&self, n_servers: usize) -> Vec<Option<u8>> {
        match self {
            PartitionScheme::None => vec![None; n_servers],
            PartitionScheme::ByPriority { pools } => {
                let pools = (*pools).max(1) as usize;
                (0..n_servers)
                    .map(|i| Some((i * pools / n_servers.max(1)).min(pools - 1) as u8))
                    .collect()
            }
            PartitionScheme::OnDemandSplit { on_demand_fraction } => {
                let cut =
                    ((n_servers as f64) * on_demand_fraction.clamp(0.0, 1.0)).round() as usize;
                (0..n_servers)
                    .map(|i| Some(if i < cut { 1 } else { 0 }))
                    .collect()
            }
        }
    }

    /// The partition a VM belongs to under this scheme.
    pub fn partition_of(&self, deflatable: bool, priority: Priority) -> Option<u8> {
        match self {
            PartitionScheme::None => None,
            PartitionScheme::ByPriority { pools } => Some(partition_for_priority(priority, *pools)),
            PartitionScheme::OnDemandSplit { .. } => Some(if deflatable { 0 } else { 1 }),
        }
    }
}

/// Wraps an inner placement policy and restricts candidate servers to the
/// VM's priority pool.
pub struct PartitionedPlacement<P> {
    /// Partitioning scheme.
    pub scheme: PartitionScheme,
    /// Policy applied within the pool.
    pub inner: P,
}

impl<P: PlacementPolicy> PartitionedPlacement<P> {
    /// Create a partitioned placement wrapper.
    pub fn new(scheme: PartitionScheme, inner: P) -> Self {
        PartitionedPlacement { scheme, inner }
    }
}

impl<P: PlacementPolicy> PlacementPolicy for PartitionedPlacement<P> {
    fn name(&self) -> &'static str {
        "partitioned"
    }

    fn place(
        &self,
        vm: &VmSpec,
        servers: &[ServerView],
        excluded: &[ServerId],
    ) -> Option<PlacementDecision> {
        match self.scheme.partition_of(vm.deflatable, vm.priority) {
            None => self.inner.place(vm, servers, excluded),
            Some(pool) => {
                let eligible: Vec<ServerView> = servers
                    .iter()
                    .copied()
                    .filter(|s| {
                        (s.partition == Some(pool) || s.partition.is_none())
                            && !excluded.contains(&s.id)
                    })
                    .collect();
                self.inner.place(vm, &eligible, &[])
            }
        }
    }

    fn place_in_tree(
        &self,
        vm: &VmSpec,
        tree: &ViewTree,
        eligible: Eligible<'_>,
    ) -> Option<PlacementDecision> {
        match self.scheme.partition_of(vm.deflatable, vm.priority) {
            None => self.inner.place_in_tree(vm, tree, eligible),
            Some(pool) => {
                let in_pool = |s: &ServerView| {
                    (s.partition == Some(pool) || s.partition.is_none()) && eligible(s)
                };
                self.inner.place_in_tree(vm, tree, &in_pool)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::FirstFit;
    use crate::resources::ResourceVector;
    use crate::vm::{VmClass, VmId};

    fn server(id: u32, partition: Option<u8>) -> ServerView {
        ServerView {
            id: ServerId(id),
            total: ResourceVector::cpu_mem(48_000.0, 131_072.0),
            used: ResourceVector::ZERO,
            deflatable: ResourceVector::ZERO,
            overcommitment: 1.0,
            partition,
        }
    }

    fn vm(id: u64, priority: f64, deflatable: bool) -> VmSpec {
        let spec = VmSpec::deflatable(
            VmId(id),
            VmClass::Interactive,
            ResourceVector::cpu_mem(4_000.0, 8_192.0),
        )
        .with_priority(Priority::new(priority));
        if deflatable {
            spec
        } else {
            VmSpec::on_demand(
                VmId(id),
                VmClass::Unknown,
                ResourceVector::cpu_mem(4_000.0, 8_192.0),
            )
        }
    }

    #[test]
    fn scheme_none_assigns_no_partitions() {
        let scheme = PartitionScheme::None;
        assert_eq!(scheme.assign_servers(3), vec![None, None, None]);
        assert_eq!(scheme.partition_of(true, Priority::new(0.3)), None);
    }

    #[test]
    fn by_priority_assigns_equal_pools() {
        let scheme = PartitionScheme::ByPriority { pools: 4 };
        let assigned = scheme.assign_servers(8);
        assert_eq!(assigned.len(), 8);
        for pool in 0..4u8 {
            assert_eq!(
                assigned.iter().filter(|p| **p == Some(pool)).count(),
                2,
                "pool {pool} should have 2 servers"
            );
        }
        assert_eq!(scheme.partition_of(true, Priority::new(0.1)), Some(0));
        assert_eq!(scheme.partition_of(true, Priority::new(0.9)), Some(3));
    }

    #[test]
    fn on_demand_split_reserves_servers() {
        let scheme = PartitionScheme::OnDemandSplit {
            on_demand_fraction: 0.25,
        };
        let assigned = scheme.assign_servers(8);
        assert_eq!(assigned.iter().filter(|p| **p == Some(1)).count(), 2);
        assert_eq!(assigned.iter().filter(|p| **p == Some(0)).count(), 6);
        assert_eq!(scheme.partition_of(false, Priority::MAX), Some(1));
        assert_eq!(scheme.partition_of(true, Priority::new(0.4)), Some(0));
    }

    #[test]
    fn placement_restricted_to_pool() {
        let scheme = PartitionScheme::ByPriority { pools: 2 };
        let policy = PartitionedPlacement::new(scheme, FirstFit);
        let servers = vec![server(1, Some(0)), server(2, Some(1))];
        // Low priority VM must land in pool 0 (server 1).
        let d = policy.place(&vm(1, 0.2, true), &servers, &[]).unwrap();
        assert_eq!(d.server, ServerId(1));
        // High priority VM in pool 1 (server 2).
        let d = policy.place(&vm(2, 0.9, true), &servers, &[]).unwrap();
        assert_eq!(d.server, ServerId(2));
    }

    #[test]
    fn full_pool_rejects_even_if_other_pool_has_space() {
        let scheme = PartitionScheme::ByPriority { pools: 2 };
        let policy = PartitionedPlacement::new(scheme, FirstFit);
        // Pool 0 server is completely full; pool 1 server is empty.
        let mut full = server(1, Some(0));
        full.used = full.total;
        let servers = vec![full, server(2, Some(1))];
        assert!(policy.place(&vm(1, 0.2, true), &servers, &[]).is_none());
    }

    #[test]
    fn unpartitioned_servers_accept_everyone() {
        let scheme = PartitionScheme::ByPriority { pools: 2 };
        let policy = PartitionedPlacement::new(scheme, FirstFit);
        let servers = vec![server(1, None)];
        assert!(policy.place(&vm(1, 0.2, true), &servers, &[]).is_some());
        assert!(policy.place(&vm(2, 0.9, true), &servers, &[]).is_some());
    }
}

//! Classic bin-packing placement baselines (§5.2 mentions best-fit and
//! first-fit as the conventional policies for non-deflatable VMs).
//!
//! These serve both as baselines for the fitness-based policy and as the
//! packing policy inside cluster partitions. "Fit" is measured on the
//! availability vector (free + deflatable/overcommitment), so the baselines
//! are also deflation-aware; setting a server's `deflatable` headroom to zero
//! recovers the conventional non-deflatable behaviour.

use super::{pick_best, Eligible, PlacementDecision, PlacementPolicy, ServerView, ViewTree};
use crate::resources::ResourceVector;
use crate::vm::{ServerId, VmSpec};
use serde::{Deserialize, Serialize};

/// First-fit: choose the first (lowest-id) feasible server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FirstFit;

impl PlacementPolicy for FirstFit {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn place(
        &self,
        vm: &VmSpec,
        servers: &[ServerView],
        excluded: &[ServerId],
    ) -> Option<PlacementDecision> {
        let demand = vm.max_allocation;
        servers
            .iter()
            .find(|s| s.can_accommodate(&demand) && !excluded.contains(&s.id))
            .map(|s| first_fit_decision(s, &demand))
    }

    fn place_in_tree(
        &self,
        vm: &VmSpec,
        tree: &ViewTree,
        eligible: Eligible<'_>,
    ) -> Option<PlacementDecision> {
        let demand = vm.max_allocation;
        tree.first_feasible(&demand, eligible)
            .map(|i| first_fit_decision(&tree.views()[i], &demand))
    }
}

fn first_fit_decision(server: &ServerView, demand: &ResourceVector) -> PlacementDecision {
    PlacementDecision {
        server: server.id,
        score: 0.0,
        requires_deflation: !server.fits_without_deflation(demand),
    }
}

/// Availability left over after placing `demand` (best fit minimises it,
/// worst fit maximises it).
fn leftover(server: &ServerView, demand: &ResourceVector) -> f64 {
    server.availability().saturating_sub(demand).total()
}

/// Best-fit: choose the feasible server with the *least* remaining
/// availability after placement (tightest fit), measured by the total of the
/// availability vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BestFit;

impl PlacementPolicy for BestFit {
    fn name(&self) -> &'static str {
        "best-fit"
    }

    fn place(
        &self,
        vm: &VmSpec,
        servers: &[ServerView],
        excluded: &[ServerId],
    ) -> Option<PlacementDecision> {
        let demand = vm.max_allocation;
        // Smaller leftover == better, so negate for pick_best's argmax.
        pick_best(vm, servers, excluded, |s| -leftover(s, &demand))
    }

    fn place_in_tree(
        &self,
        vm: &VmSpec,
        tree: &ViewTree,
        eligible: Eligible<'_>,
    ) -> Option<PlacementDecision> {
        let demand = vm.max_allocation;
        tree.pick_best(vm, eligible, |s| -leftover(s, &demand))
    }
}

/// Worst-fit: choose the feasible server with the *most* remaining
/// availability (spreads load, reduces interference).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WorstFit;

impl PlacementPolicy for WorstFit {
    fn name(&self) -> &'static str {
        "worst-fit"
    }

    fn place(
        &self,
        vm: &VmSpec,
        servers: &[ServerView],
        excluded: &[ServerId],
    ) -> Option<PlacementDecision> {
        let demand = vm.max_allocation;
        pick_best(vm, servers, excluded, |s| leftover(s, &demand))
    }

    fn place_in_tree(
        &self,
        vm: &VmSpec,
        tree: &ViewTree,
        eligible: Eligible<'_>,
    ) -> Option<PlacementDecision> {
        let demand = vm.max_allocation;
        tree.pick_best(vm, eligible, |s| leftover(s, &demand))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceVector;
    use crate::vm::{ServerId, VmClass, VmId};

    fn server(id: u32, free_cpu: f64, free_mem: f64) -> ServerView {
        let total = ResourceVector::cpu_mem(48_000.0, 131_072.0);
        ServerView {
            id: ServerId(id),
            total,
            used: total.saturating_sub(&ResourceVector::cpu_mem(free_cpu, free_mem)),
            deflatable: ResourceVector::ZERO,
            overcommitment: 1.0,
            partition: None,
        }
    }

    fn vm(cpu: f64, mem: f64) -> VmSpec {
        VmSpec::deflatable(
            VmId(7),
            VmClass::Interactive,
            ResourceVector::cpu_mem(cpu, mem),
        )
    }

    #[test]
    fn first_fit_takes_first_feasible() {
        let servers = vec![
            server(1, 1_000.0, 1_024.0),
            server(2, 10_000.0, 16_384.0),
            server(3, 40_000.0, 100_000.0),
        ];
        let d = FirstFit
            .place(&vm(8_000.0, 8_192.0), &servers, &[])
            .unwrap();
        assert_eq!(d.server, ServerId(2));
    }

    #[test]
    fn best_fit_takes_tightest() {
        let servers = vec![server(1, 40_000.0, 100_000.0), server(2, 9_000.0, 9_000.0)];
        let d = BestFit.place(&vm(8_000.0, 8_192.0), &servers, &[]).unwrap();
        assert_eq!(d.server, ServerId(2));
    }

    #[test]
    fn worst_fit_takes_emptiest() {
        let servers = vec![server(1, 40_000.0, 100_000.0), server(2, 9_000.0, 9_000.0)];
        let d = WorstFit
            .place(&vm(8_000.0, 8_192.0), &servers, &[])
            .unwrap();
        assert_eq!(d.server, ServerId(1));
    }

    #[test]
    fn all_return_none_when_infeasible() {
        let servers = vec![server(1, 1_000.0, 1_024.0)];
        let big = vm(2_000.0, 2_048.0);
        assert!(FirstFit.place(&big, &servers, &[]).is_none());
        assert!(BestFit.place(&big, &servers, &[]).is_none());
        assert!(WorstFit.place(&big, &servers, &[]).is_none());
    }

    #[test]
    fn deflatable_headroom_counts_as_capacity() {
        let mut s = server(1, 1_000.0, 1_024.0);
        s.deflatable = ResourceVector::cpu_mem(8_000.0, 8_192.0);
        let d = FirstFit.place(&vm(4_000.0, 4_096.0), &[s], &[]).unwrap();
        assert!(d.requires_deflation);
    }

    #[test]
    fn names() {
        assert_eq!(FirstFit.name(), "first-fit");
        assert_eq!(BestFit.name(), "best-fit");
        assert_eq!(WorstFit.name(), "worst-fit");
    }
}

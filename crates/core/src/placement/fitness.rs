//! Cosine-similarity ("fitness") placement, §5.2.
//!
//! `fitness(D, A_j) = A_j · D / (|A_j| |D|)` where `D` is the demand vector of
//! the new VM and `A_j` the availability vector of server `j`
//! (free + deflatable/overcommitment). Picking the server with the highest
//! fitness aligns the VM with servers whose spare capacity has the same
//! *shape* as the demand, which is the multi-resource packing heuristic of
//! Tetris [Grandl et al., SIGCOMM'14] that the paper cites.

use super::{pick_best, Eligible, PlacementDecision, PlacementPolicy, ServerView, ViewTree};
use crate::resources::ResourceVector;
use crate::vm::{ServerId, VmSpec};
use serde::{Deserialize, Serialize};

/// Cosine-fitness placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct CosineFitness {
    /// When `true`, the score is the *projection* of the availability vector
    /// onto the demand direction (`A·D / |D|`) instead of the pure cosine.
    /// The projection keeps the shape-matching property but also prefers
    /// servers with more absolute availability, which is what gives the
    /// paper's placement its load-balancing behaviour ("prefers servers with
    /// lower overcommitment"); the pure cosine is scale-invariant and would
    /// happily concentrate VMs on nearly-full servers whose availability
    /// merely points in the right direction.
    pub prefer_emptier_on_tie: bool,
}

impl CosineFitness {
    /// Fitness placement with the magnitude-aware (projection) score — the
    /// variant the cluster manager uses.
    pub fn load_balancing() -> Self {
        CosineFitness {
            prefer_emptier_on_tie: true,
        }
    }

    /// Raw cosine fitness score of a server for a demand vector (§5.2).
    pub fn fitness(server: &ServerView, demand: &ResourceVector) -> f64 {
        server.availability().cosine_similarity(demand)
    }

    /// Projection of the server's availability onto the demand direction:
    /// `A·D / |D|` — the magnitude-aware score used by
    /// [`CosineFitness::load_balancing`].
    ///
    /// For scoring purposes the deflatable headroom is weighted at half of
    /// genuinely free capacity (on top of the paper's division by the
    /// overcommitment factor): making room by deflation is possible but not
    /// free, so servers with real spare capacity are preferred. Feasibility
    /// checks ([`ServerView::can_accommodate`]) still count the full
    /// headroom.
    pub fn projection(server: &ServerView, demand: &ResourceVector) -> f64 {
        let norm = demand.norm();
        if norm <= f64::EPSILON {
            return 0.0;
        }
        Self::scoring_availability(server).dot(demand) / norm
    }

    /// The demand-independent vector [`projection`](Self::projection)
    /// dots with the demand: free capacity plus the deflatable headroom
    /// at half weight, divided by the overcommitment factor.
    pub fn scoring_availability(server: &ServerView) -> ResourceVector {
        let oc = server.overcommitment.max(1.0);
        server.free() + server.deflatable * (0.5 / oc)
    }
}

impl PlacementPolicy for CosineFitness {
    fn name(&self) -> &'static str {
        "cosine-fitness"
    }

    fn place(
        &self,
        vm: &VmSpec,
        servers: &[ServerView],
        excluded: &[ServerId],
    ) -> Option<PlacementDecision> {
        let demand = vm.max_allocation;
        let magnitude_aware = self.prefer_emptier_on_tie;
        pick_best(vm, servers, excluded, |s| {
            if magnitude_aware {
                Self::projection(s, &demand)
            } else {
                Self::fitness(s, &demand)
            }
        })
    }

    fn place_in_tree(
        &self,
        vm: &VmSpec,
        tree: &ViewTree,
        eligible: Eligible<'_>,
    ) -> Option<PlacementDecision> {
        if self.prefer_emptier_on_tie {
            return tree.best_projection(vm, eligible);
        }
        let demand = vm.max_allocation;
        tree.pick_best(vm, eligible, |s| Self::fitness(s, &demand))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceVector;
    use crate::vm::{VmClass, VmId};

    fn server(id: u32, free: ResourceVector, deflatable: ResourceVector, oc: f64) -> ServerView {
        let total = ResourceVector::new(48_000.0, 131_072.0, 1_000.0, 10_000.0);
        ServerView {
            id: ServerId(id),
            total,
            used: total.saturating_sub(&free),
            deflatable,
            overcommitment: oc,
            partition: None,
        }
    }

    fn vm(cpu: f64, mem: f64) -> VmSpec {
        VmSpec::deflatable(
            VmId(1),
            VmClass::Interactive,
            ResourceVector::cpu_mem(cpu, mem),
        )
    }

    #[test]
    fn picks_server_whose_availability_matches_demand_shape() {
        // Demand is CPU-heavy. Server 1 has CPU-shaped availability, server 2
        // memory-shaped. Fitness should pick server 1 even though server 2
        // has more total free capacity.
        let s1 = server(
            1,
            ResourceVector::cpu_mem(20_000.0, 8_192.0),
            ResourceVector::ZERO,
            1.0,
        );
        let s2 = server(
            2,
            ResourceVector::cpu_mem(6_000.0, 100_000.0),
            ResourceVector::ZERO,
            1.0,
        );
        let d = CosineFitness::default()
            .place(&vm(16_000.0, 4_096.0), &[s2, s1], &[])
            .unwrap();
        assert_eq!(d.server, ServerId(1));
    }

    #[test]
    fn overcommitment_shrinks_the_availability_entering_the_score() {
        // Cosine fitness is computed on the availability vector
        // `free + deflatable/overcommitment`; a higher overcommitment factor
        // therefore reduces the weight of reclaimable headroom in the score.
        let fresh = server(
            1,
            ResourceVector::cpu_mem(2_000.0, 2_048.0),
            ResourceVector::cpu_mem(10_000.0, 2_048.0),
            1.0,
        );
        let overcommitted = ServerView {
            id: ServerId(2),
            overcommitment: 4.0,
            ..fresh
        };
        assert!(fresh.availability().cpu() > overcommitted.availability().cpu());
        // Placing onto a server that only has deflatable headroom left is
        // flagged as requiring deflation.
        let demand = vm(8_000.0, 2_048.0);
        let d = CosineFitness::default()
            .place(&demand, &[fresh], &[])
            .unwrap();
        assert!(d.requires_deflation);
    }

    #[test]
    fn returns_none_when_nothing_fits() {
        let s = server(
            1,
            ResourceVector::cpu_mem(1_000.0, 1_024.0),
            ResourceVector::ZERO,
            1.0,
        );
        assert!(CosineFitness::default()
            .place(&vm(2_000.0, 4_096.0), &[s], &[])
            .is_none());
    }

    #[test]
    fn tie_break_prefers_emptier_server() {
        let a = server(
            1,
            ResourceVector::cpu_mem(4_000.0, 4_096.0),
            ResourceVector::ZERO,
            1.0,
        );
        let b = server(
            2,
            ResourceVector::cpu_mem(8_000.0, 8_192.0),
            ResourceVector::ZERO,
            1.0,
        );
        // Availability vectors are parallel, so cosine fitness ties exactly.
        let d = CosineFitness::load_balancing()
            .place(&vm(2_000.0, 2_048.0), &[a, b], &[])
            .unwrap();
        assert_eq!(d.server, ServerId(2));
    }

    #[test]
    fn name() {
        assert_eq!(CosineFitness::default().name(), "cosine-fitness");
    }
}

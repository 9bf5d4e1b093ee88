//! Deflation-aware VM placement (§5.2).
//!
//! Placement decides *which server* a new VM lands on; deflation policies
//! (see [`crate::policy`]) then decide how the server makes room for it. The
//! paper's placement uses multi-dimensional bin-packing with a cosine
//! "fitness" score between the VM's demand vector and each server's
//! availability vector, where availability includes the resources that could
//! be reclaimed by deflating resident VMs, discounted by how overcommitted
//! the server already is.
//!
//! The module provides:
//!
//! * [`ServerView`] — the lightweight per-server state placement needs.
//! * [`PlacementPolicy`] — trait with [`CosineFitness`],
//!   [`FirstFit`], [`BestFit`] and
//!   [`WorstFit`] implementations.
//! * [`PartitionedPlacement`] — the cluster
//!   partitioning scheme of §5.2.1 that restricts each priority class to its
//!   own pool of servers.
//! * [`ViewTree`] — the views under a per-dimension max tree, which every
//!   policy can rank through ([`PlacementPolicy::place_in_tree`]) with the
//!   same answer as its slice scan.

pub mod binpack;
pub mod fitness;
pub mod partition;
pub mod tree;

pub use binpack::{BestFit, FirstFit, WorstFit};
pub use fitness::CosineFitness;
pub use partition::{PartitionScheme, PartitionedPlacement};
pub use tree::{Eligible, ViewTree};

use crate::resources::ResourceVector;
use crate::vm::{Priority, ServerId, VmSpec};
use serde::{Deserialize, Serialize};

/// Snapshot of a server's capacity state, as seen by the placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerView {
    /// Server identity.
    pub id: ServerId,
    /// Total hardware capacity of the server.
    pub total: ResourceVector,
    /// Sum of the *current* allocations of all resident VMs.
    pub used: ResourceVector,
    /// Resources that could still be reclaimed from resident deflatable VMs
    /// (`deflatable_j` in §5.2).
    pub deflatable: ResourceVector,
    /// Extent of deflation already performed on this server, expressed as an
    /// overcommitment factor `committed / total ≥ 1.0`
    /// (`overcommitted_j` in §5.2). Servers that have not deflated anything
    /// report `1.0`.
    pub overcommitment: f64,
    /// Partition this server belongs to (used only by
    /// [`PartitionedPlacement`]); `None` means the shared pool.
    pub partition: Option<u8>,
}

impl ServerView {
    /// Create a view for an empty server.
    pub fn empty(id: ServerId, total: ResourceVector) -> Self {
        ServerView {
            id,
            total,
            used: ResourceVector::ZERO,
            deflatable: ResourceVector::ZERO,
            overcommitment: 1.0,
            partition: None,
        }
    }

    /// Free (unallocated) capacity, ignoring deflation headroom.
    pub fn free(&self) -> ResourceVector {
        self.total.saturating_sub(&self.used)
    }

    /// The availability vector of §5.2:
    /// `A_j = Total_j − Used_j + deflatable_j / overcommitted_j`.
    ///
    /// Dividing the deflatable headroom by the overcommitment factor makes
    /// already-overcommitted servers look less attractive, "prefer\[ring\]
    /// servers with lower overcommitment" for better load balancing.
    pub fn availability(&self) -> ResourceVector {
        let oc = self.overcommitment.max(1.0);
        self.free() + self.deflatable / oc
    }

    /// Free capacity plus every reclaimable resource: the most a VM placed
    /// here could get (ignoring the overcommitment discount).
    pub fn headroom(&self) -> ResourceVector {
        self.free() + self.deflatable
    }

    /// Whether the VM could be accommodated at all, counting both free space
    /// and every reclaimable resource (ignoring the overcommitment discount).
    pub fn can_accommodate(&self, demand: &ResourceVector) -> bool {
        demand.fits_within(&self.headroom())
    }

    /// Whether the VM fits without deflating anyone.
    pub fn fits_without_deflation(&self, demand: &ResourceVector) -> bool {
        demand.fits_within(&self.free())
    }
}

/// A placement decision: the chosen server and the score it was chosen with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementDecision {
    /// Chosen server.
    pub server: ServerId,
    /// Policy-specific score (higher is better); informational.
    pub score: f64,
    /// Whether placing the VM will require deflating resident VMs.
    pub requires_deflation: bool,
}

/// A VM-to-server placement policy.
pub trait PlacementPolicy: Send + Sync {
    /// Short policy name used in experiment output.
    fn name(&self) -> &'static str;

    /// Choose a server for `vm` among `servers`, skipping every server
    /// whose id is in `excluded` (servers already tried, or a migration's
    /// own source). The answer is the one `servers` with the excluded
    /// entries filtered out would give. Returns `None` when no eligible
    /// server can accommodate the VM even after deflating everything.
    fn place(
        &self,
        vm: &VmSpec,
        servers: &[ServerView],
        excluded: &[ServerId],
    ) -> Option<PlacementDecision>;

    /// Choose a server for `vm` among the views held by `tree`, skipping
    /// every view `eligible` rejects. The answer, score bits included, is
    /// the one [`place`](Self::place) gives over `tree.views()` with the
    /// rejected views filtered out.
    fn place_in_tree(
        &self,
        vm: &VmSpec,
        tree: &ViewTree,
        eligible: Eligible<'_>,
    ) -> Option<PlacementDecision>;
}

/// Helper shared by concrete policies: iterate over feasible, non-excluded
/// servers and pick the one maximising `score`.
pub(crate) fn pick_best<F>(
    vm: &VmSpec,
    servers: &[ServerView],
    excluded: &[ServerId],
    mut score: F,
) -> Option<PlacementDecision>
where
    F: FnMut(&ServerView) -> f64,
{
    let demand = vm.max_allocation;
    let mut best: Option<PlacementDecision> = None;
    for server in servers {
        if !server.can_accommodate(&demand) || excluded.contains(&server.id) {
            continue;
        }
        let s = score(server);
        let candidate = PlacementDecision {
            server: server.id,
            score: s,
            requires_deflation: !server.fits_without_deflation(&demand),
        };
        match &best {
            Some(b) if b.score >= s => {}
            _ => best = Some(candidate),
        }
    }
    best
}

/// Group servers into priority partitions for [`PartitionedPlacement`]:
/// returns the partition index a VM of the given priority should use, when
/// the cluster is split into `partitions` equal pools ordered from lowest to
/// highest priority.
pub fn partition_for_priority(priority: Priority, partitions: u8) -> u8 {
    if partitions == 0 {
        return 0;
    }
    let idx = (priority.value() * partitions as f64).floor() as i64;
    idx.clamp(0, partitions as i64 - 1) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::{VmClass, VmId};

    fn view(id: u32, free_cpu: f64, deflatable_cpu: f64, oc: f64) -> ServerView {
        let total = ResourceVector::cpu_mem(48_000.0, 131_072.0);
        ServerView {
            id: ServerId(id),
            total,
            used: total - ResourceVector::cpu_mem(free_cpu, 65_536.0),
            deflatable: ResourceVector::cpu_mem(deflatable_cpu, 0.0),
            overcommitment: oc,
            partition: None,
        }
    }

    #[test]
    fn availability_includes_discounted_deflatable() {
        let v = view(1, 8_000.0, 4_000.0, 2.0);
        let a = v.availability();
        assert!((a.cpu() - (8_000.0 + 2_000.0)).abs() < 1e-6);
        // With no overcommitment the full deflatable headroom counts.
        let v1 = view(1, 8_000.0, 4_000.0, 1.0);
        assert!((v1.availability().cpu() - 12_000.0).abs() < 1e-6);
    }

    #[test]
    fn can_accommodate_uses_undiscounted_headroom() {
        let v = view(1, 1_000.0, 4_000.0, 4.0);
        let vm = VmSpec::deflatable(
            VmId(1),
            VmClass::Interactive,
            ResourceVector::cpu_mem(4_500.0, 1_024.0),
        );
        assert!(v.can_accommodate(&vm.max_allocation));
        assert!(!v.fits_without_deflation(&vm.max_allocation));
        let too_big = ResourceVector::cpu_mem(6_000.0, 1_024.0);
        assert!(!v.can_accommodate(&too_big));
    }

    #[test]
    fn empty_server_view() {
        let v = ServerView::empty(ServerId(3), ResourceVector::cpu_mem(1_000.0, 1_024.0));
        assert_eq!(v.free(), v.total);
        assert_eq!(v.availability(), v.total);
        assert_eq!(v.overcommitment, 1.0);
    }

    #[test]
    fn partition_for_priority_buckets() {
        assert_eq!(partition_for_priority(Priority::new(0.1), 4), 0);
        assert_eq!(partition_for_priority(Priority::new(0.3), 4), 1);
        assert_eq!(partition_for_priority(Priority::new(0.6), 4), 2);
        assert_eq!(partition_for_priority(Priority::new(0.99), 4), 3);
        assert_eq!(partition_for_priority(Priority::MAX, 4), 3);
        assert_eq!(partition_for_priority(Priority::new(0.5), 0), 0);
    }

    /// Numerical Recipes LCG: seeded, reproducible view tables.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0 >> 33
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn unit(&mut self) -> f64 {
            self.next() as f64 / (1u64 << 31) as f64
        }
    }

    fn random_views(rng: &mut Lcg, n: usize, pools: u64) -> Vec<ServerView> {
        (0..n)
            .map(|i| {
                let total = ResourceVector::new(48_000.0, 131_072.0, 1_000.0, 10_000.0);
                let used = ResourceVector::new(
                    48_000.0 * rng.unit(),
                    131_072.0 * rng.unit(),
                    1_000.0 * rng.unit(),
                    10_000.0 * rng.unit(),
                );
                ServerView {
                    id: ServerId(i as u32 * 3 + 1),
                    total,
                    used,
                    deflatable: used * (0.5 * rng.unit()),
                    overcommitment: 1.0 + rng.unit(),
                    partition: match rng.below(pools + 1) {
                        0 => None,
                        p => Some((p - 1) as u8),
                    },
                }
            })
            .collect()
    }

    fn random_vm(rng: &mut Lcg) -> VmSpec {
        let demand = ResourceVector::new(
            16_000.0 * rng.unit(),
            32_768.0 * rng.unit(),
            300.0 * rng.unit(),
            3_000.0 * rng.unit(),
        );
        if rng.below(4) == 0 {
            VmSpec::on_demand(VmId(1), VmClass::Unknown, demand)
        } else {
            VmSpec::deflatable(VmId(1), VmClass::Interactive, demand)
                .with_priority(Priority::new(rng.unit()))
        }
    }

    #[test]
    fn excluding_equals_ranking_a_filtered_copy() {
        let policies: Vec<Box<dyn PlacementPolicy>> = vec![
            Box::new(CosineFitness::load_balancing()),
            Box::new(CosineFitness::default()),
            Box::new(FirstFit),
            Box::new(BestFit),
            Box::new(WorstFit),
            Box::new(PartitionedPlacement::new(PartitionScheme::None, BestFit)),
            Box::new(PartitionedPlacement::new(
                PartitionScheme::ByPriority { pools: 2 },
                FirstFit,
            )),
            Box::new(PartitionedPlacement::new(
                PartitionScheme::ByPriority { pools: 3 },
                CosineFitness::load_balancing(),
            )),
            Box::new(PartitionedPlacement::new(
                PartitionScheme::OnDemandSplit {
                    on_demand_fraction: 0.25,
                },
                WorstFit,
            )),
        ];
        let mut rng = Lcg(42);
        let mut placed = 0;
        for n in [0, 1, 2, 5, 17, 40] {
            for _ in 0..25 {
                let views = random_views(&mut rng, n, 3);
                let all: Vec<ServerId> = views.iter().map(|v| v.id).collect();
                let some: Vec<ServerId> = all
                    .iter()
                    .copied()
                    .filter(|_| rng.below(3) == 0)
                    .chain([ServerId(0), ServerId(2)]) // ids not in the table
                    .collect();
                let one: Vec<ServerId> = all.iter().copied().take(1).collect();
                let vm = random_vm(&mut rng);
                for excluded in [&[][..], &one, &some, &all] {
                    let filtered: Vec<ServerView> = views
                        .iter()
                        .copied()
                        .filter(|v| !excluded.contains(&v.id))
                        .collect();
                    for policy in &policies {
                        let skipped = policy.place(&vm, &views, excluded);
                        let copied = policy.place(&vm, &filtered, &[]);
                        assert_eq!(skipped, copied, "{} over {n} servers", policy.name());
                        if let (Some(a), Some(b)) = (skipped, copied) {
                            assert_eq!(a.score.to_bits(), b.score.to_bits());
                            assert!(!excluded.contains(&a.server));
                            placed += 1;
                        }
                        if filtered.is_empty() {
                            assert!(skipped.is_none(), "every server excluded");
                        }
                    }
                }
            }
        }
        assert!(placed > 1_000, "the battery must exercise real picks");
    }

    #[test]
    fn pick_best_skips_infeasible_servers() {
        let vm = VmSpec::deflatable(
            VmId(1),
            VmClass::Interactive,
            ResourceVector::cpu_mem(10_000.0, 1_024.0),
        );
        let servers = vec![view(1, 2_000.0, 0.0, 1.0), view(2, 20_000.0, 0.0, 1.0)];
        let d = pick_best(&vm, &servers, &[], |s| s.free().cpu()).unwrap();
        assert_eq!(d.server, ServerId(2));
        assert!(!d.requires_deflation);
        // No server fits: None.
        let vm_huge = VmSpec::deflatable(
            VmId(2),
            VmClass::Interactive,
            ResourceVector::cpu_mem(1e9, 1_024.0),
        );
        assert!(pick_best(&vm_huge, &servers, &[], |s| s.free().cpu()).is_none());
    }
}

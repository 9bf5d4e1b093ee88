//! Placement-equivalence battery for the incremental score index (PR 7).
//!
//! The cluster manager keeps an incremental [`PlacementIndex`] of cached
//! server views and re-derives only servers marked dirty since the last
//! ranking pass. Correctness therefore hinges on one invariant: **every
//! view-affecting mutation marks its server dirty**. A missed mark makes
//! the index rank against a stale view and silently pick a different
//! server than the pre-index full rescan would.
//!
//! These property tests hammer that invariant with randomized mutation
//! sequences — arrivals, departures, capacity reclaim/restore, costed
//! migration completions, autoscale-style replica bursts and (view-neutral)
//! utilisation observations — and after **every** mutation compare the
//! index's pick ([`ClusterManager::placement_preview`]) against a
//! from-scratch full rescan ([`ClusterManager::placement_full_rescan`])
//! for a panel of probe VMs — with nothing excluded, and with the rescan's
//! own pick excluded — across every placement policy, every reclamation
//! mode and every partition scheme, score bits included. The index ranks
//! by descending a per-server max tree; a sequence on a 1,000-server
//! cluster puts ten levels under its root.
//!
//! [`PlacementIndex`]: vmdeflate::cluster::placement::PlacementIndex
//! [`ClusterManager::placement_preview`]: vmdeflate::cluster::manager::ClusterManager::placement_preview
//! [`ClusterManager::placement_full_rescan`]: vmdeflate::cluster::manager::ClusterManager::placement_full_rescan

use std::sync::Arc;
use vmdeflate::cluster::manager::{
    ClusterConfig, ClusterManager, PendingMigration, PlacementKind, PlacementResult,
    ReclamationMode,
};
use vmdeflate::core::placement::{PartitionScheme, PlacementDecision};
use vmdeflate::core::policy::ProportionalDeflation;
use vmdeflate::core::resources::ResourceVector;
use vmdeflate::core::vm::{Priority, ServerId, VmClass, VmId, VmSpec};
use vmdeflate::hypervisor::domain::DeflationMechanism;
use vmdeflate::hypervisor::migration::MigrationCostModel;

/// Tiny deterministic xorshift64 PRNG — no external dependency, stable
/// across platforms, so every CI run replays the same mutation sequences.
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `0..n` (`n > 0`). Modulo bias is irrelevant here — the
    /// sequences only need to be deterministic and varied, not unbiased.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A random arriving VM: sized so that a dozen-server cluster saturates
/// partway through a sequence, forcing the deflation / preemption /
/// rejection paths to all fire. Mostly deflatable (some with a priority
/// and a priority-derived floor), occasionally on-demand.
fn random_spec(rng: &mut XorShift64, id: u64) -> VmSpec {
    let cpu_millis = [2_000.0, 4_000.0, 8_000.0, 12_000.0, 16_000.0][rng.below(5)];
    let memory_mb = [4_096.0, 8_192.0, 16_384.0, 32_768.0][rng.below(4)];
    let class = VmClass::ALL[rng.below(3)];
    let size = ResourceVector::cpu_mem(cpu_millis, memory_mb);
    match rng.below(10) {
        0 => VmSpec::on_demand(VmId(id), class, size),
        1..=3 => VmSpec::deflatable(VmId(id), class, size)
            .with_priority(Priority::LEVELS[rng.below(4)])
            .with_priority_derived_min(),
        _ => VmSpec::deflatable(VmId(id), class, size),
    }
}

/// The probe panel: specs the index and the full rescan must agree on
/// after every mutation. Chosen to land in different partitions (deflatable
/// vs on-demand, low vs high priority) and different size regimes.
fn probe_specs() -> Vec<VmSpec> {
    let small = ResourceVector::cpu_mem(2_000.0, 4_096.0);
    let large = ResourceVector::cpu_mem(16_000.0, 32_768.0);
    vec![
        VmSpec::deflatable(VmId(9_000_001), VmClass::Interactive, small),
        VmSpec::deflatable(VmId(9_000_002), VmClass::DelayInsensitive, large)
            .with_priority(Priority::LEVELS[3])
            .with_priority_derived_min(),
        VmSpec::on_demand(VmId(9_000_003), VmClass::Unknown, small),
    ]
}

/// Bit-exact agreement: same server, same deflation requirement and the
/// score identical down to the last mantissa bit (or both `None`).
fn assert_same_pick(
    label: &str,
    step: usize,
    probe: &VmSpec,
    index_pick: Option<PlacementDecision>,
    rescan_pick: Option<PlacementDecision>,
) {
    let key = |d: &Option<PlacementDecision>| {
        d.map(|d| (d.server, d.requires_deflation, d.score.to_bits()))
    };
    assert_eq!(
        key(&index_pick),
        key(&rescan_pick),
        "{label}, step {step}, probe {}: incremental index picked {index_pick:?} but a \
         from-scratch full rescan picked {rescan_pick:?} — a view-affecting mutation \
         was not marked dirty",
        probe.id
    );
}

/// Compare the index with the full rescan on every probe: once with
/// nothing excluded, once with the rescan's pick excluded (so the
/// runner-up must agree too).
fn check_probes(label: &str, step: usize, manager: &mut ClusterManager, probes: &[VmSpec]) {
    for probe in probes {
        let rescan = manager.placement_full_rescan(probe, &[]);
        let index = manager.placement_preview(probe, &[]);
        assert_same_pick(label, step, probe, index, rescan);
        if let Some(first) = rescan {
            let excluded = [first.server];
            let rescan = manager.placement_full_rescan(probe, &excluded);
            let index = manager.placement_preview(probe, &excluded);
            assert_same_pick(label, step, probe, index, rescan);
        }
    }
}

/// Drive one randomized mutation sequence against `manager`, asserting
/// index/full-rescan agreement on the probe panel after every mutation.
fn drive(label: &str, manager: &mut ClusterManager, seed: u64, steps: usize) {
    let mut rng = XorShift64::new(seed);
    let probes = probe_specs();
    let num_servers = manager.num_servers() as u32;
    let mut placed: Vec<VmId> = Vec::new();
    let mut pending: Vec<PendingMigration> = Vec::new();
    let mut next_id: u64 = 1;
    let mut now: f64 = 0.0;

    let note_result = |result: &PlacementResult, id: VmId, placed: &mut Vec<VmId>| match result {
        PlacementResult::Rejected => {}
        PlacementResult::PlacedWithPreemption { preempted, .. } => {
            placed.retain(|vm| !preempted.contains(vm));
            placed.push(id);
        }
        _ => placed.push(id),
    };

    for step in 0..steps {
        now += 30.0 + rng.unit() * 270.0;
        match rng.below(100) {
            // Arrival — the op the index exists to serve.
            0..=34 => {
                let spec = random_spec(&mut rng, next_id);
                let id = spec.id;
                next_id += 1;
                let result = manager.place_vm(spec);
                note_result(&result, id, &mut placed);
            }
            // Departure of a random resident (in-flight VMs are settled
            // through complete_migration instead).
            35..=54 => {
                if let Some(pos) = (!placed.is_empty())
                    .then(|| rng.below(placed.len()))
                    .filter(|&p| !manager.is_in_flight(placed[p]))
                {
                    let vm = placed.swap_remove(pos);
                    manager.remove_vm(vm).expect("resident VM departs");
                }
            }
            // Provider reclaims part of a server: the deflate → migrate →
            // evict ladder runs, possibly starting costed transfers.
            55..=69 => {
                let server = ServerId(rng.below(num_servers as usize) as u32);
                let fraction = 0.3 + rng.unit() * 0.6;
                let outcome = manager.reclaim_capacity(server, fraction, now);
                placed.retain(|vm| !outcome.victims.contains(vm));
                pending.extend(outcome.started);
            }
            // Provider hands capacity back: reinflation plus migrate-backs.
            70..=81 => {
                let server = ServerId(rng.below(num_servers as usize) as u32);
                let outcome = manager.restore_capacity(server, 1.0, true, now);
                placed.retain(|vm| !outcome.victims.contains(vm));
                pending.extend(outcome.started);
            }
            // A transfer's MigrationComplete event fires (possibly past its
            // deadline, aborting the transfer and evicting the VM).
            82..=89 => {
                if !pending.is_empty() {
                    let flight = pending.swap_remove(rng.below(pending.len()));
                    now = now.max(flight.event_secs);
                    let outcome = manager.complete_migration(flight.id, now);
                    placed.retain(|vm| !outcome.victims.contains(vm));
                }
            }
            // Autoscale-style burst: an elastic app scales a replica pool
            // out (identical specs, back to back) or back in.
            90..=94 => {
                if rng.below(2) == 0 {
                    let template = random_spec(&mut rng, 0);
                    for _ in 0..3 {
                        let mut replica = template.clone();
                        replica.id = VmId(next_id);
                        next_id += 1;
                        let result = manager.place_vm(replica);
                        note_result(&result, VmId(next_id - 1), &mut placed);
                    }
                } else {
                    for _ in 0..3 {
                        if let Some(pos) = (!placed.is_empty())
                            .then(|| rng.below(placed.len()))
                            .filter(|&p| !manager.is_in_flight(placed[p]))
                        {
                            let vm = placed.swap_remove(pos);
                            manager.remove_vm(vm).expect("resident VM departs");
                        }
                    }
                }
            }
            // View-neutral utilisation observation: must NOT change any
            // pick (and must not be needed to keep the index fresh).
            _ => {
                if !placed.is_empty() {
                    let vm = placed[rng.below(placed.len())];
                    let sample = rng.unit();
                    manager.observe_vm_utilization(vm, sample);
                }
            }
        }

        check_probes(label, step, manager, &probes);
    }

    // Settle every still-pending transfer and re-check once more.
    for flight in pending.drain(..) {
        now = now.max(flight.event_secs);
        manager.complete_migration(flight.id, now);
        check_probes(label, steps, manager, &probes);
    }
}

fn config(
    num_servers: usize,
    placement: PlacementKind,
    partitions: PartitionScheme,
) -> ClusterConfig {
    ClusterConfig {
        placement,
        partitions,
        mechanism: DeflationMechanism::Transparent,
        ..ClusterConfig::paper_default(num_servers)
    }
}

fn modes() -> Vec<(&'static str, ReclamationMode)> {
    vec![
        (
            "deflation",
            ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default())),
        ),
        ("preemption", ReclamationMode::Preemption),
        ("migration-only", ReclamationMode::MigrationOnly),
    ]
}

/// Every placement policy × every reclamation mode: the index pick equals
/// the full-rescan pick after every mutation of a 150-step random
/// sequence (costed migrations included).
#[test]
fn index_matches_full_rescan_across_policies_and_modes() {
    let policies = [
        PlacementKind::CosineFitness,
        PlacementKind::FirstFit,
        PlacementKind::BestFit,
        PlacementKind::WorstFit,
    ];
    for (p, policy) in policies.into_iter().enumerate() {
        for (m, (mode_name, mode)) in modes().into_iter().enumerate() {
            let label = format!("{policy:?}/{mode_name}");
            let mut manager = ClusterManager::new(&config(12, policy, PartitionScheme::None), mode)
                .with_migration_cost(MigrationCostModel::lan_default());
            drive(
                &label,
                &mut manager,
                0xDEF1A7E + (p as u64) * 31 + m as u64,
                150,
            );
        }
    }
}

/// Partitioned clusters route probes into different server pools; the
/// index must agree with the full rescan inside every pool.
#[test]
fn index_matches_full_rescan_under_partitioning() {
    let schemes = [
        ("by-priority", PartitionScheme::ByPriority { pools: 2 }),
        (
            "on-demand-split",
            PartitionScheme::OnDemandSplit {
                on_demand_fraction: 0.25,
            },
        ),
    ];
    for (s, (name, scheme)) in schemes.into_iter().enumerate() {
        let label = format!("cosine/deflation/{name}");
        let mut manager = ClusterManager::new(
            &config(12, PlacementKind::CosineFitness, scheme),
            ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default())),
        )
        .with_migration_cost(MigrationCostModel::lan_default());
        drive(&label, &mut manager, 0x5EED + s as u64, 150);
    }
}

/// On 1,000 servers the tree has ten levels under its root, so pruning
/// and the tie rule act deep in it. Each placement policy first fills the
/// cluster to about three VMs a server, so the views differ, then runs a
/// mutation sequence; the index must agree with the full rescan after
/// every mutation.
#[test]
fn index_matches_full_rescan_on_a_thousand_servers() {
    let policies = [
        PlacementKind::CosineFitness,
        PlacementKind::FirstFit,
        PlacementKind::BestFit,
        PlacementKind::WorstFit,
    ];
    for (p, policy) in policies.into_iter().enumerate() {
        let label = format!("{policy:?}/deflation/1000 servers");
        let mut manager = ClusterManager::new(
            &config(1_000, policy, PartitionScheme::None),
            ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default())),
        )
        .with_migration_cost(MigrationCostModel::lan_default());
        let mut rng = XorShift64::new(0x7EE + p as u64);
        for id in 0..3_000 {
            manager.place_vm(random_spec(&mut rng, 5_000_000 + id));
        }
        check_probes(&label, 0, &mut manager, &probe_specs());
        drive(&label, &mut manager, 0x1000 + p as u64, 60);
    }
}

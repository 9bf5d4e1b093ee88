//! The transient-capacity experiment: deflation vs. preemption vs.
//! migration-only under provider-side capacity dynamics.
//!
//! This is the paper's headline scenario (§2, §7.4): servers are
//! *transient* — the provider reclaims part of their capacity and restores
//! it later — and the question is how much of that shock each reclamation
//! strategy absorbs. For each of the three capacity profiles of
//! `deflate-transient` (square wave, diurnal, spot market) the experiment
//! replays the same Azure-derived workload on the same seeded schedule and
//! reports reclamation-failure probability, throughput loss, migration
//! counts (with their page-transfer cost) and revenue per server.
//!
//! Migration is **not free** here: every transfer is priced by the
//! [`MigrationCostModel`] of `deflate-hypervisor` (page-copy time over a
//! shared per-server bandwidth budget, racing the provider's reclamation
//! deadline), which is precisely what makes the migration-only baseline
//! lose VMs the paper's deflation proposal keeps alive. The
//! [`bandwidth_sweep_table`] experiment sweeps the per-server budget to
//! show the effect directly.

use crate::report::{pct, RuntimeTally, Table, TallyRunStats};
use crate::scale::Scale;
use deflate_cluster::manager::{ClusterConfig, PlacementKind, ReclamationMode};
use deflate_cluster::metrics::SimResult;
use deflate_cluster::sim::ClusterSimulation;
use deflate_cluster::spec::{
    paper_server_capacity, servers_for_transient_overcommitment, workload_from_azure,
    MinAllocationRule,
};
use deflate_core::placement::PartitionScheme;
use deflate_core::policy::ProportionalDeflation;
use deflate_core::policy::TransferPolicy;
use deflate_core::pricing::{PricingPolicy, RateCard};
use deflate_hypervisor::domain::DeflationMechanism;
use deflate_hypervisor::migration::MigrationCostModel;
use deflate_traces::azure::{AzureTraceConfig, AzureTraceGenerator};
use deflate_transient::signal::{CapacityProfile, CapacitySchedule, TransientConfig};
use std::sync::Arc;

/// The reclamation strategies compared under transient capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientMode {
    /// Proportional deflation with deflation-aware migration fallback (the
    /// paper's proposal).
    Deflation,
    /// Kill lowest-priority residents on every reclamation (today's
    /// transient offerings).
    Preemption,
    /// Migrate residents at full size, never deflate (the live-migration
    /// strawman of §2).
    MigrationOnly,
}

impl TransientMode {
    /// All modes in report order.
    pub const ALL: [TransientMode; 3] = [
        TransientMode::Deflation,
        TransientMode::Preemption,
        TransientMode::MigrationOnly,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            TransientMode::Deflation => "deflation",
            TransientMode::Preemption => "preemption",
            TransientMode::MigrationOnly => "migration-only",
        }
    }

    /// The engine-level reclamation mode this strategy configures.
    pub fn mode(&self) -> ReclamationMode {
        match self {
            TransientMode::Deflation => {
                ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default()))
            }
            TransientMode::Preemption => ReclamationMode::Preemption,
            TransientMode::MigrationOnly => ReclamationMode::MigrationOnly,
        }
    }
}

/// The three capacity profiles the experiment sweeps, at the defaults of
/// `deflate-transient`.
pub fn profiles() -> [CapacityProfile; 3] {
    [
        CapacityProfile::square_wave_default(),
        CapacityProfile::diurnal_default(),
        CapacityProfile::spot_market_default(),
    ]
}

/// The Azure-derived workload all transient experiments replay (depends
/// only on the scale, so callers sweeping modes/profiles should build it
/// once and pass it to [`run_transient_on`]).
pub fn transient_workload(scale: Scale) -> Vec<deflate_cluster::spec::WorkloadVm> {
    let traces = AzureTraceGenerator::generate(&AzureTraceConfig {
        num_vms: scale.cluster_vms(),
        duration_hours: scale.cluster_trace_hours(),
        seed: scale.seed(),
        ..Default::default()
    });
    workload_from_azure(&traces, MinAllocationRule::None)
}

/// The migration cost model all transient experiments charge by default: a
/// 10 GbE link per transfer, 30 % dirty-page overhead, a one-link
/// per-server budget (transfers off the same server serialise) and the
/// 30-second preemption notice GCP-style transient offerings give — short
/// enough that draining a well-packed server by migration alone races the
/// deadline.
pub fn default_migration_cost() -> MigrationCostModel {
    MigrationCostModel::lan_default()
        .with_budget_mbps(1250.0)
        .with_deadline_secs(30.0)
}

/// Run one mode under one capacity profile with the default migration cost
/// model. The cluster is sized for the profile's mean availability (so all
/// modes face the same, non-trivial pressure), all servers are transient,
/// and displaced VMs migrate back when capacity returns.
pub fn run_transient(scale: Scale, mode: TransientMode, profile: CapacityProfile) -> SimResult {
    run_transient_on(&transient_workload(scale), scale, mode, profile)
}

/// [`run_transient`] with a pre-built workload, for callers sweeping many
/// (mode, profile) pairs over the same trace.
pub fn run_transient_on(
    workload: &[deflate_cluster::spec::WorkloadVm],
    scale: Scale,
    mode: TransientMode,
    profile: CapacityProfile,
) -> SimResult {
    run_transient_costed(workload, scale, mode, profile, default_migration_cost())
}

/// [`run_transient_on`] with an explicit migration cost model (used by the
/// bandwidth sweep; pass [`MigrationCostModel::instant`] to reproduce the
/// historical free-migration comparison). Transfers are scheduled FIFO —
/// the pre-scheduler greedy booking, bit-for-bit.
pub fn run_transient_costed(
    workload: &[deflate_cluster::spec::WorkloadVm],
    scale: Scale,
    mode: TransientMode,
    profile: CapacityProfile,
    cost: MigrationCostModel,
) -> SimResult {
    run_transient_scheduled(workload, scale, mode, profile, cost, TransferPolicy::fifo())
}

/// [`run_transient_costed`] with an explicit transfer-scheduling policy —
/// the entry point of the scheduler experiment.
pub fn run_transient_scheduled(
    workload: &[deflate_cluster::spec::WorkloadVm],
    scale: Scale,
    mode: TransientMode,
    profile: CapacityProfile,
    cost: MigrationCostModel,
    policy: TransferPolicy,
) -> SimResult {
    transient_simulation(workload, scale, mode, profile, cost, policy).run(workload)
}

/// The capacity schedule and server count every transient experiment runs
/// under: the cluster is sized for the profile's mean availability, all
/// servers are transient, and the change-points are seeded from the scale
/// preset — so two calls with the same inputs produce the identical
/// schedule. `fig_whatif` regenerates the schedule through this function
/// to learn the reclamation times its meta-scheduler decides at.
pub fn transient_capacity(
    workload: &[deflate_cluster::spec::WorkloadVm],
    scale: Scale,
    profile: CapacityProfile,
) -> (CapacitySchedule, usize) {
    let capacity = paper_server_capacity();
    let servers =
        servers_for_transient_overcommitment(workload, capacity, 0.0, profile.mean_availability());
    let schedule = CapacitySchedule::generate(&TransientConfig {
        num_servers: servers,
        transient_fraction: 1.0,
        duration_secs: scale.cluster_trace_hours() * 3600.0,
        profile,
        seed: scale.seed(),
    });
    (schedule, servers)
}

/// Build — without running — the fully configured [`ClusterSimulation`]
/// behind [`run_transient_scheduled`]. `fig_whatif` needs the simulation
/// itself rather than its result: the meta-scheduler checkpoints it,
/// forks the snapshot under sibling simulations that differ only in
/// [`TransferPolicy`], and resumes the winner.
pub fn transient_simulation(
    workload: &[deflate_cluster::spec::WorkloadVm],
    scale: Scale,
    mode: TransientMode,
    profile: CapacityProfile,
    cost: MigrationCostModel,
    policy: TransferPolicy,
) -> ClusterSimulation {
    let (schedule, servers) = transient_capacity(workload, scale, profile);
    let config = ClusterConfig {
        num_servers: servers,
        server_capacity: paper_server_capacity(),
        placement: PlacementKind::CosineFitness,
        partitions: PartitionScheme::None,
        mechanism: DeflationMechanism::Transparent,
    };
    ClusterSimulation::new(config, mode.mode())
        .with_capacity_schedule(schedule)
        .with_migrate_back(true)
        .with_migration_cost(cost)
        .with_transfer_policy(policy)
}

/// The transient-capacity comparison as a printable table: one row per
/// (profile, mode) pair, with the migration cost that used to be invisible
/// (total page-transfer seconds, volume moved, deadline aborts).
pub fn fig_transient_table(scale: Scale) -> Table {
    let mut table = Table::new(
        "Transient capacity: deflation vs preemption vs migration under reclamation",
        &[
            "profile",
            "mode",
            "failure probability",
            "evictions",
            "throughput loss",
            "migrations",
            "migration secs",
            "moved GiB",
            "aborts",
            "revenue/server",
        ],
    );
    let rates = RateCard::default();
    let pricing = PricingPolicy::static_default();
    let workload = transient_workload(scale);
    let mut tally = RuntimeTally::default();
    for profile in profiles() {
        for mode in TransientMode::ALL {
            let result = run_transient_on(&workload, scale, mode, profile);
            tally.add(result.runtime);
            table.row(&[
                profile.name().to_string(),
                mode.name().to_string(),
                pct(result.failure_probability()),
                pct(result.eviction_probability()),
                pct(result.mean_throughput_loss()),
                result.migration_count().to_string(),
                format!("{:.1}", result.total_migration_secs()),
                format!("{:.1}", result.total_migration_volume_mb() / 1024.0),
                result.migration_abort_count().to_string(),
                format!(
                    "{:.1}",
                    result.deflatable_revenue_per_server(&pricing, &rates)
                ),
            ]);
        }
    }
    table.set_footer(tally.footer());
    table
}

/// Per-server migration-bandwidth budgets the sweep explores, MiB/s
/// (`INFINITY` reproduces the free-migration baseline).
pub const BANDWIDTH_SWEEP_MBPS: [f64; 5] = [f64::INFINITY, 2500.0, 1250.0, 625.0, 312.5];

/// The bandwidth-sweep experiment: deflation vs migration-only under the
/// bursty spot-market profile as the per-server migration-bandwidth budget
/// shrinks. With generous bandwidth the migration-only baseline looks
/// almost free; every halving of the budget queues more transfers past the
/// reclamation deadline, turning them into aborts and evictions — while
/// deflation barely migrates at all. One row per (budget, mode) pair.
pub fn bandwidth_sweep_table(scale: Scale) -> Table {
    let mut table = Table::new(
        "Migration-bandwidth sweep under spot-market reclamation",
        &[
            "budget MiB/s",
            "mode",
            "failure probability",
            "evictions+aborts",
            "migrations",
            "mean migration secs",
            "aborts",
        ],
    );
    let workload = transient_workload(scale);
    let profile = CapacityProfile::spot_market_default();
    let mut tally = RuntimeTally::default();
    for budget in BANDWIDTH_SWEEP_MBPS {
        for mode in [TransientMode::Deflation, TransientMode::MigrationOnly] {
            let cost = if budget.is_infinite() {
                MigrationCostModel::instant()
            } else {
                default_migration_cost().with_budget_mbps(budget)
            };
            let result = run_transient_costed(&workload, scale, mode, profile, cost);
            tally.add(result.runtime);
            table.row(&[
                if budget.is_infinite() {
                    "unlimited (free)".to_string()
                } else {
                    format!("{budget:.0}")
                },
                mode.name().to_string(),
                pct(result.failure_probability()),
                result.eviction_or_abort_count().to_string(),
                result.migration_count().to_string(),
                format!("{:.2}", result.mean_migration_secs()),
                result.migration_abort_count().to_string(),
            ]);
        }
    }
    table.set_footer(tally.footer());
    table
}

/// The scheduling variants the scheduler sweep compares. The FIFO variant
/// charges the PR 2 cost model (constant dirty-page overhead) and books
/// greedily — bit-identical to the pre-scheduler behaviour; the
/// deadline-aware variants additionally feed the scheduler dirty-rate-aware
/// estimates ([`dirty_aware_migration_cost`]) so admission control compares
/// realistic copy times against the deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerVariant {
    /// Greedy request-order booking, constant overhead (the baseline).
    Fifo,
    /// Greedy request-order booking under the dirty-rate-aware cost model
    /// — the control that isolates the scheduling effect: any gap between
    /// this row and the EDF rows is due to ordering and admission
    /// control, not to the different migration physics.
    FifoDirty,
    /// Smallest transfer volume first, constant overhead.
    SmallestFirst,
    /// EDF + admission control, dirty-rate-aware estimates.
    Edf,
    /// EDF + admission control + deflate-then-migrate, dirty-rate-aware
    /// estimates. Only meaningful in deflation mode.
    EdfDeflate,
}

impl SchedulerVariant {
    /// All variants in report order.
    pub const ALL: [SchedulerVariant; 5] = [
        SchedulerVariant::Fifo,
        SchedulerVariant::FifoDirty,
        SchedulerVariant::SmallestFirst,
        SchedulerVariant::Edf,
        SchedulerVariant::EdfDeflate,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerVariant::FifoDirty => "fifo+dirty",
            _ => self.policy().name(),
        }
    }

    /// The transfer policy this variant schedules under.
    pub fn policy(&self) -> TransferPolicy {
        match self {
            SchedulerVariant::Fifo | SchedulerVariant::FifoDirty => TransferPolicy::fifo(),
            SchedulerVariant::SmallestFirst => TransferPolicy::smallest_first(),
            SchedulerVariant::Edf => TransferPolicy::edf(),
            SchedulerVariant::EdfDeflate => TransferPolicy::edf().with_deflate_then_migrate(true),
        }
    }

    /// The cost model this variant charges at a given per-server budget.
    pub fn cost(&self, budget_mbps: f64) -> MigrationCostModel {
        let base = default_migration_cost().with_budget_mbps(budget_mbps);
        match self {
            SchedulerVariant::Fifo | SchedulerVariant::SmallestFirst => base,
            SchedulerVariant::FifoDirty | SchedulerVariant::Edf | SchedulerVariant::EdfDeflate => {
                dirty_aware_migration_cost(budget_mbps)
            }
        }
    }

    /// Deflate-then-migrate is a rung of the deflation ladder; the
    /// migration-only baseline never deflates, so the variant does not
    /// apply there.
    pub fn applies_to(&self, mode: TransientMode) -> bool {
        !matches!(self, SchedulerVariant::EdfDeflate) || mode == TransientMode::Deflation
    }
}

/// [`default_migration_cost`] with dirty-rate-aware pre-copy: a fully busy
/// guest dirties 800 MiB/s (64 % of a 10 GbE migration stream), and
/// non-converging transfers pay 2 s of stop-and-copy downtime. Idle VMs
/// get cheaper estimates than the constant 1.3× overhead, write-heavy VMs
/// costlier ones — which is what lets EDF admission control tell doomed
/// copies from viable ones.
pub fn dirty_aware_migration_cost(budget_mbps: f64) -> MigrationCostModel {
    default_migration_cost()
        .with_budget_mbps(budget_mbps)
        .with_dirty_rate(800.0, 2.0)
}

/// Per-server bandwidth budgets the scheduler sweep explores, MiB/s. The
/// first entry is the PR 2 one-link default the acceptance comparison is
/// anchored to.
pub const SCHEDULER_SWEEP_MBPS: [f64; 3] = [1250.0, 625.0, 312.5];

/// The transfer-scheduler experiment: policy × bandwidth budget under
/// spot-market reclamation. FIFO booking wastes tight budgets on doomed
/// copies (aborts); smallest-first squeezes more copies under the
/// deadline; EDF rejects provably-late transfers up front (rejections
/// instead of aborts, no wasted link time), and deflate-then-migrate
/// shrinks the copies themselves so fewer transfers are doomed at all.
pub fn scheduler_sweep_table(scale: Scale) -> Table {
    let mut table = Table::new(
        "Transfer scheduling under spot-market reclamation: policy x bandwidth budget",
        &[
            "budget MiB/s",
            "mode",
            "policy",
            "failure probability",
            "evictions+aborts",
            "migrations",
            "aborts",
            "rejections",
            "mean queue-wait s",
        ],
    );
    let workload = transient_workload(scale);
    let profile = CapacityProfile::spot_market_default();
    let mut tally = RuntimeTally::default();
    for budget in SCHEDULER_SWEEP_MBPS {
        for mode in [TransientMode::Deflation, TransientMode::MigrationOnly] {
            for variant in SchedulerVariant::ALL {
                if !variant.applies_to(mode) {
                    continue;
                }
                let result = run_transient_scheduled(
                    &workload,
                    scale,
                    mode,
                    profile,
                    variant.cost(budget),
                    variant.policy(),
                );
                tally.add(result.runtime);
                table.row(&[
                    format!("{budget:.0}"),
                    mode.name().to_string(),
                    variant.name().to_string(),
                    pct(result.failure_probability()),
                    result.eviction_or_abort_count().to_string(),
                    result.migration_count().to_string(),
                    result.migration_abort_count().to_string(),
                    result.migration_rejection_count().to_string(),
                    format!("{:.2}", result.mean_queue_wait_secs()),
                ]);
            }
        }
    }
    table.set_footer(tally.footer());
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deflation_beats_preemption_under_every_profile() {
        for profile in profiles() {
            let deflation = run_transient(Scale::Quick, TransientMode::Deflation, profile);
            let preemption = run_transient(Scale::Quick, TransientMode::Preemption, profile);
            assert!(
                deflation.failure_probability() < preemption.failure_probability(),
                "{}: deflation {} vs preemption {}",
                profile.name(),
                deflation.failure_probability(),
                preemption.failure_probability()
            );
            // Capacity actually moved.
            assert!(deflation.transient.reclaim_events > 0);
        }
    }

    #[test]
    fn migration_only_records_migrations_with_nonzero_cost() {
        let result = run_transient(
            Scale::Quick,
            TransientMode::MigrationOnly,
            CapacityProfile::square_wave_default(),
        );
        assert!(
            result.transient.migrations > 0,
            "expected migrations, counters: {:?}",
            result.transient
        );
        assert_eq!(result.migration_count(), result.migrations.len());
        // Migration is no longer free: completed transfers took wall-clock
        // time and moved bytes.
        assert!(
            result.total_migration_secs() > 0.0,
            "migrations must be charged transfer time"
        );
        assert!(result.total_migration_volume_mb() > 0.0);
        assert!(result
            .migrations
            .iter()
            .all(|m| m.duration_secs > 0.0 && m.volume_mb > 0.0));
    }

    /// The acceptance check of the migration-cost model: under the bursty
    /// spot-market profile with a finite per-server bandwidth budget, the
    /// migration-only baseline loses strictly more VMs to evictions and
    /// deadline aborts than deflation does.
    #[test]
    fn finite_bandwidth_makes_migration_only_lose_more_vms_than_deflation() {
        let workload = transient_workload(Scale::Quick);
        let profile = CapacityProfile::spot_market_default();
        let cost = default_migration_cost();
        let deflation = run_transient_costed(
            &workload,
            Scale::Quick,
            TransientMode::Deflation,
            profile,
            cost,
        );
        let migration = run_transient_costed(
            &workload,
            Scale::Quick,
            TransientMode::MigrationOnly,
            profile,
            cost,
        );
        assert!(
            migration.eviction_or_abort_count() > deflation.eviction_or_abort_count(),
            "migration-only evictions+aborts {} must exceed deflation's {}",
            migration.eviction_or_abort_count(),
            deflation.eviction_or_abort_count()
        );
        // The costed run reports its durations and aborts in the counters.
        assert!(migration.total_migration_secs() > 0.0);
        assert!(
            migration.migration_abort_count() > 0,
            "a one-link budget under spot outages must abort some transfers: {:?}",
            migration.transient
        );
    }

    #[test]
    fn tables_have_one_row_per_mode_and_profile() {
        let table = fig_transient_table(Scale::Quick);
        assert_eq!(table.len(), profiles().len() * TransientMode::ALL.len());
        let sweep = bandwidth_sweep_table(Scale::Quick);
        assert_eq!(sweep.len(), BANDWIDTH_SWEEP_MBPS.len() * 2);
        // Per budget: all five variants in deflation mode, four in
        // migration-only (deflate-then-migrate does not apply there).
        let sched = scheduler_sweep_table(Scale::Quick);
        assert_eq!(sched.len(), SCHEDULER_SWEEP_MBPS.len() * 9);
    }

    /// The acceptance check of the transfer scheduler: under the default
    /// spot-market signal at the PR 2 one-link budget, EDF with
    /// deflate-then-migrate aborts strictly fewer migrations than the
    /// greedy FIFO booking — admission control refuses doomed copies up
    /// front and the pre-migration squeeze shrinks the rest under the
    /// deadline.
    #[test]
    fn edf_with_deflate_then_migrate_cuts_aborts_versus_fifo() {
        let workload = transient_workload(Scale::Quick);
        let profile = CapacityProfile::spot_market_default();
        let budget = 1250.0;
        let fifo = run_transient_costed(
            &workload,
            Scale::Quick,
            TransientMode::Deflation,
            profile,
            SchedulerVariant::Fifo.cost(budget),
        );
        let edf = run_transient_scheduled(
            &workload,
            Scale::Quick,
            TransientMode::Deflation,
            profile,
            SchedulerVariant::EdfDeflate.cost(budget),
            SchedulerVariant::EdfDeflate.policy(),
        );
        assert!(
            edf.migration_abort_count() < fifo.migration_abort_count(),
            "edf+deflate aborts {} must be strictly below fifo's {}",
            edf.migration_abort_count(),
            fifo.migration_abort_count()
        );
        assert!(
            fifo.migration_abort_count() > 0,
            "the comparison is vacuous without fifo aborts"
        );
        // Control for the cost-model difference: FIFO under the *same*
        // dirty-rate-aware physics still aborts transfers, so the win is
        // attributable to admission control and the pre-migration
        // squeeze, not to cheaper migrations.
        let fifo_dirty = run_transient_scheduled(
            &workload,
            Scale::Quick,
            TransientMode::Deflation,
            profile,
            SchedulerVariant::FifoDirty.cost(budget),
            SchedulerVariant::FifoDirty.policy(),
        );
        assert!(
            edf.migration_abort_count() < fifo_dirty.migration_abort_count(),
            "edf+deflate aborts {} must also beat the fifo+dirty control's {}",
            edf.migration_abort_count(),
            fifo_dirty.migration_abort_count()
        );
        // EDF never books a transfer that would miss its own deadline, so
        // deadline aborts are impossible; the counter can only be fed by
        // mid-flight cancellations. It also loses no more VMs overall.
        assert!(edf.eviction_or_abort_count() <= fifo.eviction_or_abort_count());
        assert_eq!(fifo.migration_rejection_count(), 0);
    }

    /// Regression pin for the satellite requirement that the FIFO policy
    /// reproduces the pre-scheduler `fig_bandwidth_sweep` numbers exactly:
    /// these rows were captured from the PR 2 implementation (greedy
    /// per-migration booking) at quick scale, before the scheduler
    /// existed. Any drift here means the refactor changed FIFO behaviour.
    #[test]
    fn fifo_reproduces_the_pre_scheduler_bandwidth_sweep_exactly() {
        let golden: [[&str; 7]; 10] = [
            [
                "unlimited (free)",
                "deflation",
                "0.5%",
                "0",
                "66",
                "0.00",
                "0",
            ],
            [
                "unlimited (free)",
                "migration-only",
                "1.5%",
                "1",
                "168",
                "0.00",
                "0",
            ],
            ["2500", "deflation", "0.7%", "1", "47", "4.51", "7"],
            ["2500", "migration-only", "2.0%", "2", "181", "5.48", "7"],
            ["1250", "deflation", "0.2%", "0", "54", "5.07", "4"],
            ["1250", "migration-only", "2.0%", "2", "174", "5.39", "8"],
            ["625", "deflation", "3.0%", "10", "43", "5.21", "24"],
            ["625", "migration-only", "3.0%", "7", "150", "5.65", "15"],
            ["312", "deflation", "3.5%", "12", "34", "6.39", "28"],
            ["312", "migration-only", "9.4%", "34", "73", "7.32", "48"],
        ];
        let sweep = bandwidth_sweep_table(Scale::Quick);
        assert_eq!(sweep.len(), golden.len());
        for (row, expected) in sweep.rows().iter().zip(golden) {
            assert_eq!(row, &expected, "bandwidth-sweep row drifted from PR 2");
        }
    }
}

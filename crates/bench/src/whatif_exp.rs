//! The what-if meta-scheduler experiment (`fig_whatif`): model-predictive
//! transfer-policy selection by **forking engine checkpoints**.
//!
//! A static [`TransferPolicy`] is a compromise: FIFO booking wastes tight
//! reclamation windows on doomed copies, EDF admission control refuses
//! them up front but leaves bandwidth idle when the window is generous,
//! and deflate-then-migrate trades guest page cache for copy time whether
//! or not the deadline is actually at risk. Which policy is right depends
//! on the *shape of the next capacity shock* — something a simulator can
//! simply try.
//!
//! This experiment runs the closed loop of model-predictive control over
//! the engine's own checkpoint/fork machinery
//! ([`ClusterSimulation::checkpoint`] / [`ClusterSimulation::resume`]):
//!
//! 1. The spot-market capacity schedule is known up front, so the decision
//!    points — bursts of reclamation change-points — are enumerated before
//!    the run ([`decision_times`]).
//! 2. Just before each burst, the committed run is snapshotted at an
//!    event boundary one ULP below the first reclamation
//!    ([`just_before`]).
//! 3. The snapshot is **forked**: one sibling simulation per candidate
//!    policy, identical in everything but the transfer-scheduling knob,
//!    each resumed to the end of the horizon. A snapshot stores only
//!    dynamic state, so the restoring simulation's policy is the one that
//!    governs the remainder — that is what makes the fork a genuine
//!    counterfactual rather than a re-run.
//! 4. The fork with the best full-horizon outcome ([`WhatifScore`]) is
//!    **committed**: the meta-scheduler leapfrogs the snapshot to the next
//!    decision point under the winning policy
//!    ([`ClusterSimulation::resume_until`]) and repeats.
//!
//! Because forks are bit-faithful (the checkpoint contract pinned by
//! `tests/checkpoint_restore.rs`), re-evaluating the committed policy at
//! the next decision point reproduces the previous winner's trajectory
//! exactly; the winning score is therefore monotonically non-increasing
//! across decisions, and the final committed run can never score worse
//! than the static policy the loop started from. The unit tests pin both
//! properties.
//!
//! [`ClusterSimulation::checkpoint`]: deflate_cluster::sim::ClusterSimulation::checkpoint
//! [`ClusterSimulation::resume`]: deflate_cluster::sim::ClusterSimulation::resume
//! [`ClusterSimulation::resume_until`]: deflate_cluster::sim::ClusterSimulation::resume_until

use crate::report::{pct, RuntimeTally, Table, TallyRunStats};
use crate::scale::Scale;
use crate::transient_exp::{
    dirty_aware_migration_cost, transient_capacity, transient_simulation, transient_workload,
    TransientMode,
};
use deflate_cluster::metrics::SimResult;
use deflate_cluster::sim::ClusterSimulation;
use deflate_cluster::spec::WorkloadVm;
use deflate_core::policy::TransferPolicy;
use deflate_transient::signal::{CapacityProfile, CapacitySchedule};

/// The candidate transfer policies every decision point forks under, in
/// deterministic evaluation order (ties go to the earliest candidate, so
/// the incumbent FIFO start policy wins exact draws).
pub fn whatif_candidates() -> [TransferPolicy; 4] {
    [
        TransferPolicy::fifo(),
        TransferPolicy::smallest_first(),
        TransferPolicy::edf(),
        TransferPolicy::edf().with_deflate_then_migrate(true),
    ]
}

/// The full-horizon objective a fork is scored by, lexicographic: VMs
/// lost (evictions plus deadline aborts) first, then aborts alone (link
/// time wasted on doomed copies), then total page-transfer seconds as the
/// cheapest-trajectory tie-break. Derived `Ord` compares fields in
/// declaration order, which is exactly the intended priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct WhatifScore {
    /// Evictions + deadline aborts over the whole horizon.
    pub vms_lost: usize,
    /// Deadline aborts alone.
    pub aborts: usize,
    /// Total migration seconds, as bits (non-negative, so bit order is
    /// value order).
    pub migration_secs_bits: u64,
}

/// Score a fork's full-horizon result.
pub fn score(result: &SimResult) -> WhatifScore {
    WhatifScore {
        vms_lost: result.eviction_or_abort_count(),
        aborts: result.migration_abort_count(),
        migration_secs_bits: result.total_migration_secs().to_bits(),
    }
}

/// One committed decision of the MPC loop.
#[derive(Debug, Clone)]
pub struct WhatifDecision {
    /// Simulated time of the burst's first reclamation (the snapshot is
    /// taken one ULP earlier).
    pub time_secs: f64,
    /// Number of distinct reclamation change-point times coalesced into
    /// this decision's burst.
    pub reclaims_in_burst: usize,
    /// The committed (winning) policy.
    pub chosen: TransferPolicy,
    /// Every candidate's full-horizon score from this snapshot, in
    /// [`whatif_candidates`] order.
    pub scores: Vec<(TransferPolicy, WhatifScore)>,
}

/// The experiment's complete outcome: the decision log, the final
/// committed trajectory and the static-policy baselines it is compared
/// against.
#[derive(Debug, Clone)]
pub struct WhatifOutcome {
    /// The committed decisions in time order.
    pub decisions: Vec<WhatifDecision>,
    /// The policy committed at the last decision point.
    pub committed: TransferPolicy,
    /// The piecewise-policy trajectory's result: FIFO until the first
    /// decision, then each decision's winner until the next.
    pub mpc: SimResult,
    /// Each candidate run statically over the whole horizon, in
    /// [`whatif_candidates`] order.
    pub statics: Vec<(TransferPolicy, SimResult)>,
}

/// Group the schedule's reclamation change-points into decision bursts:
/// distinct reclaim times sorted ascending, with every time within
/// `coalesce_secs` of a burst's first member joining that burst (spot
/// outages hit many servers within seconds — one decision covers the
/// storm). At most `max_decisions` bursts are kept; later reclamations
/// simply run under the last committed policy. Returns `(first reclaim
/// time, distinct reclaim times in burst)` pairs.
pub fn decision_times(
    schedule: &CapacitySchedule,
    coalesce_secs: f64,
    max_decisions: usize,
) -> Vec<(f64, usize)> {
    let mut times: Vec<f64> = schedule
        .changes()
        .iter()
        .filter(|c| c.is_reclaim && c.time_secs > 0.0)
        .map(|c| c.time_secs)
        .collect();
    times.sort_by(f64::total_cmp);
    times.dedup();
    let mut bursts: Vec<(f64, usize)> = Vec::new();
    for t in times {
        match bursts.last_mut() {
            Some((start, n)) if t - *start <= coalesce_secs => *n += 1,
            _ => bursts.push((t, 1)),
        }
    }
    bursts.truncate(max_decisions);
    bursts
}

/// Coalescing window and decision budget per scale preset. Quick mode
/// keeps the loop inside the CI envelope (each decision costs one fork
/// per candidate); full mode decides at twice as many bursts.
pub fn whatif_params(scale: Scale) -> (f64, usize) {
    match scale {
        Scale::Quick => (1800.0, 5),
        Scale::Full => (1800.0, 10),
    }
}

/// The largest `f64` strictly below `t` — the checkpoint boundary used to
/// snapshot *just before* a reclamation at `t`, since the engine's
/// checkpoint horizon is inclusive (every event with `time <= at_secs` is
/// processed before serializing).
pub fn just_before(t: f64) -> f64 {
    debug_assert!(t > 0.0 && t.is_finite());
    f64::from_bits(t.to_bits() - 1)
}

/// Run the what-if meta-scheduler at the given scale on the shared
/// transient workload.
pub fn whatif_mpc(scale: Scale) -> WhatifOutcome {
    whatif_mpc_on(&transient_workload(scale), scale)
}

/// [`whatif_mpc`] with a pre-built workload. The scenario is the
/// scheduler experiment's hardest row: deflation mode under the bursty
/// spot-market profile with the dirty-rate-aware cost model at the
/// one-link budget — the regime where the policies genuinely diverge.
pub fn whatif_mpc_on(workload: &[WorkloadVm], scale: Scale) -> WhatifOutcome {
    let profile = CapacityProfile::spot_market_default();
    let cost = dirty_aware_migration_cost(1250.0);
    let sim = |policy: TransferPolicy| -> ClusterSimulation {
        transient_simulation(
            workload,
            scale,
            TransientMode::Deflation,
            profile,
            cost,
            policy,
        )
    };
    let (schedule, _servers) = transient_capacity(workload, scale, profile);
    let (coalesce_secs, max_decisions) = whatif_params(scale);
    let bursts = decision_times(&schedule, coalesce_secs, max_decisions);
    let candidates = whatif_candidates();

    let mut committed = TransferPolicy::fifo();
    let mut decisions = Vec::new();
    let mut snapshot: Option<Vec<u8>> = None;
    for &(time_secs, reclaims_in_burst) in &bursts {
        let boundary = just_before(time_secs);
        // Advance the committed trajectory to this decision's boundary:
        // a fresh checkpoint for the first decision, a leapfrog of the
        // previous snapshot for every later one (the prefix is never
        // replayed).
        let snap = match snapshot.take() {
            None => sim(committed).checkpoint(workload, boundary),
            Some(prev) => sim(committed)
                .resume_until(workload, &prev, boundary)
                .expect("own snapshot must restore"),
        };
        // Fork: one counterfactual per candidate policy, all from the
        // same bytes.
        let scores: Vec<(TransferPolicy, WhatifScore)> = candidates
            .iter()
            .map(|&candidate| {
                let result = sim(candidate)
                    .resume(workload, &snap)
                    .expect("own snapshot must restore");
                (candidate, score(&result))
            })
            .collect();
        let (chosen, _) = scores
            .iter()
            .min_by_key(|(_, s)| *s)
            .copied()
            .expect("at least one candidate");
        committed = chosen;
        decisions.push(WhatifDecision {
            time_secs,
            reclaims_in_burst,
            chosen,
            scores,
        });
        snapshot = Some(snap);
    }
    let mpc = match snapshot {
        Some(snap) => sim(committed)
            .resume(workload, &snap)
            .expect("own snapshot must restore"),
        // A schedule with no reclamations has nothing to decide.
        None => sim(committed).run(workload),
    };
    let statics = candidates
        .iter()
        .map(|&policy| (policy, sim(policy).run(workload)))
        .collect();
    WhatifOutcome {
        decisions,
        committed,
        mpc,
        statics,
    }
}

/// The decision log as a printable table: one row per committed decision,
/// with every candidate's full-horizon `lost/aborts` score and the
/// winner.
pub fn whatif_decision_table(outcome: &WhatifOutcome) -> Table {
    let mut headers: Vec<String> = vec!["decision t (h)".into(), "reclaim times".into()];
    for policy in whatif_candidates() {
        headers.push(format!("{} lost/aborts", policy.name()));
    }
    headers.push("committed".into());
    let header_refs: Vec<&str> = headers.iter().map(|h| h.as_str()).collect();
    let mut table = Table::new(
        "What-if meta-scheduler: full-horizon fork scores at each reclamation burst",
        &header_refs,
    );
    for decision in &outcome.decisions {
        let mut row = vec![
            format!("{:.2}", decision.time_secs / 3600.0),
            decision.reclaims_in_burst.to_string(),
        ];
        for (_, s) in &decision.scores {
            row.push(format!("{}/{}", s.vms_lost, s.aborts));
        }
        row.push(decision.chosen.name().to_string());
        table.row(&row);
    }
    table
}

/// The summary table: every static policy against the meta-scheduled
/// trajectory, on the metrics the forks are scored by.
pub fn whatif_summary_table(outcome: &WhatifOutcome) -> Table {
    let mut table = Table::new(
        "What-if meta-scheduler vs static transfer policies (spot-market, deflation)",
        &[
            "policy",
            "failure probability",
            "evictions+aborts",
            "aborts",
            "migrations",
            "migration secs",
        ],
    );
    let mut tally = RuntimeTally::default();
    let mut push = |name: String, result: &SimResult, tally: &mut RuntimeTally| {
        tally.add(result.runtime);
        table.row(&[
            name,
            pct(result.failure_probability()),
            result.eviction_or_abort_count().to_string(),
            result.migration_abort_count().to_string(),
            result.migration_count().to_string(),
            format!("{:.1}", result.total_migration_secs()),
        ]);
    };
    for (policy, result) in &outcome.statics {
        push(format!("static {}", policy.name()), result, &mut tally);
    }
    push(
        format!("what-if (ends on {})", outcome.committed.name()),
        &outcome.mpc,
        &mut tally,
    );
    table.set_footer(tally.footer());
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn just_before_is_one_ulp_down() {
        let t = 1234.5678_f64;
        let b = just_before(t);
        assert!(b < t);
        assert_eq!(f64::from_bits(b.to_bits() + 1), t);
    }

    #[test]
    fn decision_times_coalesce_and_cap() {
        let (schedule, _) = {
            let workload = transient_workload(Scale::Quick);
            transient_capacity(
                &workload,
                Scale::Quick,
                CapacityProfile::spot_market_default(),
            )
        };
        let all = decision_times(&schedule, 0.0, usize::MAX);
        let coalesced = decision_times(&schedule, 1800.0, usize::MAX);
        assert!(!all.is_empty(), "spot market must reclaim");
        assert!(coalesced.len() <= all.len());
        // Every burst accounts for at least one reclaim time, and the
        // total distinct times are preserved by the grouping.
        assert_eq!(all.len(), coalesced.iter().map(|&(_, n)| n).sum::<usize>());
        let capped = decision_times(&schedule, 1800.0, 3);
        assert_eq!(capped.len(), 3.min(coalesced.len()));
        // Bursts are strictly ordered and separated by the window.
        for pair in coalesced.windows(2) {
            assert!(pair[1].0 - pair[0].0 > 1800.0);
        }
    }

    /// The MPC acceptance property: because forks are bit-faithful, the
    /// winning score never increases across decisions, and the final
    /// trajectory scores no worse than the static FIFO policy the loop
    /// started from. Both would break immediately if a restored fork
    /// diverged from the run it was forked off.
    #[test]
    fn mpc_never_scores_worse_than_its_static_start_policy() {
        let outcome = whatif_mpc(Scale::Quick);
        assert!(
            !outcome.decisions.is_empty(),
            "spot market must produce decisions"
        );
        let winners: Vec<WhatifScore> = outcome
            .decisions
            .iter()
            .map(|d| d.scores.iter().map(|&(_, s)| s).min().unwrap())
            .collect();
        for pair in winners.windows(2) {
            assert!(
                pair[1] <= pair[0],
                "winning score increased across decisions: {pair:?}"
            );
        }
        // The final resume re-runs the last winning fork bit for bit.
        assert_eq!(score(&outcome.mpc), *winners.last().unwrap());
        let fifo_static = &outcome.statics[0];
        assert_eq!(fifo_static.0, TransferPolicy::fifo());
        assert!(
            score(&outcome.mpc) <= score(&fifo_static.1),
            "meta-scheduler lost to its own start policy"
        );
    }
}

//! Span-based engine phase profiler with self-time attribution.
//!
//! The engine's phases nest — a VM arrival handler contains the
//! placement-ranking loop, a capacity-reclaim handler contains transfer
//! booking — so naive inclusive timing double-counts. The profiler keeps
//! an explicit span stack on the event-loop thread and attributes each
//! span its **self time** (elapsed minus time spent in child spans), so
//! the per-phase rows of a [`PhaseReport`] are disjoint and sum to the
//! engine total.
//!
//! The [`Phase::EngineTotal`] umbrella span wraps the whole run: its
//! elapsed time is the engine total and its *self* time is everything no
//! other span claimed, reported as the `other` row. Coverage — the
//! acceptance metric `fig_profile` enforces — is simply
//! `(total − other) / total`.

use std::time::Duration;

/// An engine phase a span can be attributed to.
///
/// `fig_profile` prints one row per phase; `docs/OBSERVABILITY.md`
/// documents where each phase begins and ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Umbrella span around the whole engine run. Its self time is the
    /// `other` (untracked) row.
    EngineTotal,
    /// Building initial per-VM records before the event loop.
    RecordInit,
    /// Building the event schedule (arrivals, departures, capacity
    /// signals, ticks) from the workload.
    ScheduleBuild,
    /// Bulk-heapifying the event queue.
    Heapify,
    /// Popping the next event off the queue.
    EventPop,
    /// Arrival bookkeeping around placement (record updates, routing).
    Arrival,
    /// Ranking candidate servers for one placement decision (the max-tree
    /// descent), attributed separately from [`Phase::Arrival`].
    PlacementRank,
    /// Re-scoring servers whose state changed since the last placement
    /// — the incremental score index's maintenance cost, nested inside
    /// [`Phase::PlacementRank`] so the two rows stay disjoint.
    PlacementIndex,
    /// A server's local controller admitting a VM the ranking chose: the
    /// deflation planning and apply of §6, nested inside
    /// [`Phase::PlacementRank`] (or whichever handler placed the VM) so
    /// tree ranking and local deflation are attributed separately.
    Admission,
    /// VM departure handling.
    Departure,
    /// The deflate → migrate → evict reclaim ladder for one capacity
    /// signal (restore handling included).
    ReclaimLadder,
    /// Booking staged transfers onto the migration scheduler.
    TransferBooking,
    /// Completing (or aborting) an in-flight migration.
    MigrationCompletion,
    /// Sampling cluster utilisation at a tick.
    UtilizationSampling,
    /// Autoscaler decision + actuation handling.
    Autoscale,
    /// Assembling the final `SimResult`.
    ResultAssembly,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 16] = [
        Phase::EngineTotal,
        Phase::RecordInit,
        Phase::ScheduleBuild,
        Phase::Heapify,
        Phase::EventPop,
        Phase::Arrival,
        Phase::PlacementRank,
        Phase::PlacementIndex,
        Phase::Admission,
        Phase::Departure,
        Phase::ReclaimLadder,
        Phase::TransferBooking,
        Phase::MigrationCompletion,
        Phase::UtilizationSampling,
        Phase::Autoscale,
        Phase::ResultAssembly,
    ];

    /// Stable snake_case name (span name in Chrome traces, row label in
    /// `fig_profile`).
    pub fn name(&self) -> &'static str {
        match self {
            Phase::EngineTotal => "engine_total",
            Phase::RecordInit => "record_init",
            Phase::ScheduleBuild => "schedule_build",
            Phase::Heapify => "heapify",
            Phase::EventPop => "event_pop",
            Phase::Arrival => "arrival",
            Phase::PlacementRank => "placement_rank",
            Phase::PlacementIndex => "placement_index",
            Phase::Admission => "admission",
            Phase::Departure => "departure",
            Phase::ReclaimLadder => "reclaim_ladder",
            Phase::TransferBooking => "transfer_booking",
            Phase::MigrationCompletion => "migration_completion",
            Phase::UtilizationSampling => "utilization_sampling",
            Phase::Autoscale => "autoscale",
            Phase::ResultAssembly => "result_assembly",
        }
    }

    fn index(&self) -> usize {
        Phase::ALL
            .iter()
            .position(|p| p == self)
            .expect("phase in ALL")
    }
}

const NUM_PHASES: usize = Phase::ALL.len();

/// Mutable profiler state, owned by the sink behind a mutex.
#[derive(Debug, Default)]
pub(crate) struct ProfilerState {
    /// Span stack: `(phase, time spent in child spans)`.
    stack: Vec<(Phase, Duration)>,
    /// Exclusive (self) time per phase.
    self_times: [Duration; NUM_PHASES],
    /// Span entry count per phase.
    counts: [u64; NUM_PHASES],
    /// Total elapsed of `EngineTotal` spans (inclusive).
    engine_total: Duration,
}

impl ProfilerState {
    pub(crate) fn enter(&mut self, phase: Phase) {
        self.stack.push((phase, Duration::ZERO));
    }

    pub(crate) fn exit(&mut self, phase: Phase, elapsed: Duration) {
        let (entered, child_accum) = self.stack.pop().unwrap_or((phase, Duration::ZERO));
        debug_assert_eq!(entered, phase, "unbalanced telemetry span exit");
        let self_time = elapsed.saturating_sub(child_accum);
        self.self_times[phase.index()] += self_time;
        self.counts[phase.index()] += 1;
        if phase == Phase::EngineTotal {
            self.engine_total += elapsed;
        }
        if let Some((_, parent_children)) = self.stack.last_mut() {
            *parent_children += elapsed;
        }
    }

    pub(crate) fn report(&self) -> PhaseReport {
        let mut phases = Vec::new();
        for phase in Phase::ALL {
            if phase == Phase::EngineTotal {
                continue;
            }
            let idx = phase.index();
            if self.counts[idx] == 0 {
                continue;
            }
            phases.push(PhaseRow {
                phase,
                self_time: self.self_times[idx],
                count: self.counts[idx],
            });
        }
        PhaseReport {
            phases,
            engine_total: self.engine_total,
            other: self.self_times[Phase::EngineTotal.index()],
        }
    }
}

/// One phase row: disjoint self time and span count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseRow {
    /// Which phase.
    pub phase: Phase,
    /// Exclusive wall-clock attributed to the phase.
    pub self_time: Duration,
    /// Number of spans entered.
    pub count: u64,
}

/// The profiler's output: disjoint per-phase self times that sum (with
/// `other`) to `engine_total`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseReport {
    /// Phases in [`Phase::ALL`] order, zero-count rows elided.
    pub phases: Vec<PhaseRow>,
    /// Inclusive elapsed of the engine-total umbrella span(s).
    pub engine_total: Duration,
    /// Self time of the umbrella span: wall-clock no named phase claimed.
    pub other: Duration,
}

impl PhaseReport {
    /// Fraction of engine total attributed to named phases: `(total −
    /// other) / total`. `None` before any engine-total span closed.
    pub fn coverage(&self) -> Option<f64> {
        let total = self.engine_total.as_secs_f64();
        (total > 0.0).then(|| (total - self.other.as_secs_f64()).max(0.0) / total)
    }

    /// Self time of one phase (zero when it never ran).
    pub fn self_time(&self, phase: Phase) -> Duration {
        self.phases
            .iter()
            .find(|row| row.phase == phase)
            .map(|row| row.self_time)
            .unwrap_or(Duration::ZERO)
    }

    /// True when the report saw no spans at all.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty() && self.engine_total == Duration::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn self_time_excludes_children() {
        let mut state = ProfilerState::default();
        // engine_total { arrival { placement_rank } }
        state.enter(Phase::EngineTotal);
        state.enter(Phase::Arrival);
        state.enter(Phase::PlacementRank);
        state.exit(Phase::PlacementRank, ms(30));
        state.exit(Phase::Arrival, ms(50)); // 20ms self
        state.exit(Phase::EngineTotal, ms(100)); // 50ms other

        let report = state.report();
        assert_eq!(report.engine_total, ms(100));
        assert_eq!(report.self_time(Phase::PlacementRank), ms(30));
        assert_eq!(report.self_time(Phase::Arrival), ms(20));
        assert_eq!(report.other, ms(50));
        let sum: Duration = report.phases.iter().map(|r| r.self_time).sum();
        assert_eq!(sum + report.other, report.engine_total);
        assert!((report.coverage().unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn phase_names_are_unique_and_stable() {
        let mut seen = std::collections::BTreeSet::new();
        for phase in Phase::ALL {
            assert!(seen.insert(phase.name()), "duplicate name {}", phase.name());
        }
        assert_eq!(Phase::PlacementRank.name(), "placement_rank");
        assert_eq!(Phase::PlacementIndex.name(), "placement_index");
        assert_eq!(Phase::Admission.name(), "admission");
        assert_eq!(Phase::EventPop.name(), "event_pop");
    }
}

//! Per-VM records and cluster-level metrics for the trace-driven simulation
//! (§7.4: failure probability, throughput loss, revenue).

use crate::manager::{AdmissionCounters, TransientCounters};
use crate::scheduler::SchedulerStats;
use deflate_autoscale::AutoscaleStats;
use deflate_core::checkpoint::{ByteReader, ByteWriter, CheckpointError, CheckpointResult};
use deflate_core::pricing::{PricingPolicy, RateCard};
use deflate_core::vm::VmSpec;
use deflate_core::vm::{ServerId, VmId};
use deflate_traces::timeseries::TimeSeries;
use serde::{Deserialize, Serialize};

/// What ultimately happened to a VM in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum VmOutcome {
    /// The VM ran from arrival to departure (possibly deflated part of the
    /// time).
    Completed,
    /// The cluster could not make room for the VM at arrival — a resource
    /// reclamation failure (Figure 20's failure event for deflatable VMs).
    Rejected,
    /// The VM was killed by the preemption baseline at the given time.
    Preempted {
        /// Simulation time of the preemption, seconds.
        at_secs: f64,
    },
    /// The VM was destroyed because a provider-side capacity reclamation
    /// could be absorbed neither by deflation nor by migration.
    Evicted {
        /// Simulation time of the eviction, seconds.
        at_secs: f64,
    },
}

/// [`UsageSummary`] flag: the VM has held an allocation.
const PLACED: u32 = 1;
/// [`UsageSummary`] flag: some recorded allocation was below the full one.
const DEFLATED: u32 = 2;

/// Entries in a summary's snapshot frame: a count followed by this many
/// 16-byte entries (the cursor and flags, then five `f64`s).
const SNAPSHOT_ENTRIES: usize = 3;

/// A VM's CPU allocation against its utilisation trace, summarised online.
///
/// The engine feeds every allocation change-point to
/// [`VmRecord::record_allocation`] as it happens and closes the summary at
/// the VM's departure event ([`VmRecord::close_usage`]). Trace samples are
/// folded into the demanded and lost work as soon as the allocation in
/// effect at their time is known, and each allocation segment joins the
/// time-weighted sum when it ends. No history is kept: the summary is a
/// fixed 48 bytes whatever the VM's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct UsageSummary {
    /// Index of the first trace sample not yet folded.
    next_sample: u32,
    /// `PLACED` and `DEFLATED` bits.
    flags: u32,
    /// Demanded CPU work of the folded samples (their sum).
    demanded: f64,
    /// Work lost in the folded samples: usage above the allocation.
    lost: f64,
    /// Allocation fraction × seconds over the finished segments.
    weighted: f64,
    /// Time of the last change-point, seconds (0 until placed).
    last_change_secs: f64,
    /// Allocation fraction at the last change-point (0 until placed).
    last_fraction: f64,
}

impl UsageSummary {
    /// True once the VM has held an allocation (never for rejected VMs).
    pub fn placed(&self) -> bool {
        self.flags & PLACED != 0
    }

    /// True when some recorded allocation was below the full one.
    pub fn ever_deflated(&self) -> bool {
        self.flags & DEFLATED != 0
    }

    /// The last allocation change-point `(time_secs, fraction)`, if the VM
    /// was ever placed.
    pub fn last_change(&self) -> Option<(f64, f64)> {
        self.placed()
            .then_some((self.last_change_secs, self.last_fraction))
    }

    /// Write the summary as its snapshot frame: the entry count, then the
    /// sample cursor, the flags and the five accumulators.
    pub fn write_snapshot(&self, w: &mut ByteWriter) {
        w.put_usize(SNAPSHOT_ENTRIES);
        w.put_u32(self.next_sample);
        w.put_u32(self.flags);
        w.put_f64(self.demanded);
        w.put_f64(self.lost);
        w.put_f64(self.weighted);
        w.put_f64(self.last_change_secs);
        w.put_f64(self.last_fraction);
    }

    /// Read a summary written by [`write_snapshot`](Self::write_snapshot)
    /// for a VM whose trace has `trace_len` samples. A cursor past the
    /// trace, unknown flag bits or a non-finite accumulator is `Corrupt`.
    pub fn read_snapshot(r: &mut ByteReader<'_>, trace_len: usize) -> CheckpointResult<Self> {
        let entries = r.get_usize()?;
        if entries != SNAPSHOT_ENTRIES {
            return Err(CheckpointError::Corrupt(format!(
                "usage summary of {entries} entries, expected {SNAPSHOT_ENTRIES}"
            )));
        }
        let summary = UsageSummary {
            next_sample: r.get_u32()?,
            flags: r.get_u32()?,
            demanded: r.get_f64()?,
            lost: r.get_f64()?,
            weighted: r.get_f64()?,
            last_change_secs: r.get_f64()?,
            last_fraction: r.get_f64()?,
        };
        if summary.next_sample as usize > trace_len {
            return Err(CheckpointError::Corrupt(format!(
                "usage cursor {} past a {trace_len}-sample trace",
                summary.next_sample
            )));
        }
        if summary.flags & !(PLACED | DEFLATED) != 0
            || (summary.ever_deflated() && !summary.placed())
        {
            return Err(CheckpointError::Corrupt(format!(
                "invalid usage flags {:#x}",
                summary.flags
            )));
        }
        let accumulators = [
            summary.demanded,
            summary.lost,
            summary.weighted,
            summary.last_change_secs,
            summary.last_fraction,
        ];
        if !accumulators.iter().all(|v| v.is_finite()) {
            return Err(CheckpointError::Corrupt(
                "non-finite usage accumulator".to_string(),
            ));
        }
        Ok(summary)
    }
}

/// One VM's outcome across the simulation, with its usage summarised.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmRecord {
    /// The VM's specification.
    pub spec: VmSpec,
    /// Arrival time, seconds.
    pub arrival_secs: f64,
    /// Scheduled departure time, seconds.
    pub departure_secs: f64,
    /// Final outcome.
    pub outcome: VmOutcome,
    /// CPU allocation against the VM's utilisation trace, folded online.
    /// Complete once the VM's departure event has been processed, which
    /// every record of a [`SimResult`] has.
    pub usage: UsageSummary,
}

impl VmRecord {
    /// A record for a VM that has not arrived yet (outcome `Rejected`
    /// until the engine places it).
    pub fn new(spec: VmSpec, arrival_secs: f64, departure_secs: f64) -> Self {
        VmRecord {
            spec,
            arrival_secs,
            departure_secs,
            outcome: VmOutcome::Rejected,
            usage: UsageSummary::default(),
        }
    }

    /// The time the VM actually stopped running (departure, or preemption
    /// time, or arrival for rejected VMs).
    pub fn end_secs(&self) -> f64 {
        match self.outcome {
            VmOutcome::Completed => self.departure_secs,
            VmOutcome::Rejected => self.arrival_secs,
            VmOutcome::Preempted { at_secs } | VmOutcome::Evicted { at_secs } => at_secs,
        }
    }

    /// Hours the VM actually ran.
    pub fn hours_run(&self) -> f64 {
        (self.end_secs() - self.arrival_secs).max(0.0) / 3600.0
    }

    /// Owned heap bytes behind the record. The usage summary is inline,
    /// so this is zero; it feeds the engine's `mem.vm_records` gauge
    /// together with the records' own size.
    pub fn accounted_bytes(&self) -> u64 {
        0
    }

    /// Record a CPU allocation change-point at `time_secs`. A fraction
    /// within `1e-9` of the one in effect is no change. Trace samples
    /// before `time_secs` are folded at the previous fraction, so a sample
    /// exactly at `time_secs` gets the new one. `trace` is the VM's CPU
    /// utilisation trace; change-points arrive in time order.
    pub fn record_allocation(&mut self, trace: &TimeSeries, time_secs: f64, fraction: f64) {
        debug_assert!(
            !self.usage.placed() || time_secs >= self.usage.last_change_secs,
            "change-points must arrive in time order"
        );
        if self.usage.placed() {
            let previous = self.usage.last_fraction;
            if (previous - fraction).abs() < 1e-9 {
                return;
            }
            self.fold_samples(trace, time_secs, previous);
            let seg_start = self.usage.last_change_secs.max(self.arrival_secs);
            if time_secs > seg_start {
                self.usage.weighted += previous * (time_secs - seg_start);
            }
        }
        self.usage.flags |= PLACED;
        if fraction < 1.0 - 1e-9 {
            self.usage.flags |= DEFLATED;
        }
        self.usage.last_change_secs = time_secs;
        self.usage.last_fraction = fraction;
    }

    /// Close the summary at the VM's departure event, once its outcome is
    /// final: samples before [`end_secs`](Self::end_secs) are folded at the
    /// last fraction and the last segment joins the weighted sum; samples
    /// from the end up to the scheduled departure count as fully lost.
    pub fn close_usage(&mut self, trace: &TimeSeries) {
        let end = self.end_secs();
        if self.usage.placed() {
            let fraction = self.usage.last_fraction;
            self.fold_samples(trace, end, fraction);
            let seg_start = self.usage.last_change_secs.max(self.arrival_secs);
            if end > seg_start {
                self.usage.weighted += fraction * (end - seg_start);
            }
        }
        self.fold_samples(trace, f64::INFINITY, 0.0);
    }

    /// Fold the unfolded samples taken before `until_secs` (and before the
    /// scheduled departure) at allocation `fraction`.
    fn fold_samples(&mut self, trace: &TimeSeries, until_secs: f64, fraction: f64) {
        let interval = trace.interval_secs();
        let samples = trace.samples();
        let mut k = self.usage.next_sample as usize;
        while let Some(&usage) = samples.get(k) {
            let t = self.arrival_secs + k as f64 * interval;
            if t >= self.departure_secs || t >= until_secs {
                break;
            }
            self.usage.demanded += usage;
            self.usage.lost += (usage - fraction).max(0.0);
            k += 1;
        }
        // A trace of 2^32 samples would be 32 GiB: the cursor fits.
        self.usage.next_sample = k as u32;
    }

    /// Time-average allocation fraction over the period the VM ran (1.0 =
    /// never deflated). Rejected VMs report 0.
    pub fn mean_allocation_fraction(&self) -> f64 {
        let start = self.arrival_secs;
        let end = self.end_secs();
        if end <= start || !self.usage.placed() {
            return 0.0;
        }
        (self.usage.weighted / (end - start)).clamp(0.0, 1.0)
    }

    /// Relative throughput loss of this VM: demanded CPU work that could not
    /// be served because the allocation was below the instantaneous usage
    /// (the area above the deflated allocation in Figure 4), divided by the
    /// total demanded work over the VM's intended lifetime. Work scheduled
    /// after a preemption is entirely lost.
    pub fn throughput_loss(&self) -> f64 {
        if self.usage.demanded <= 0.0 {
            0.0
        } else {
            (self.usage.lost / self.usage.demanded).clamp(0.0, 1.0)
        }
    }

    /// Revenue earned from this VM under a pricing policy.
    pub fn revenue(&self, pricing: &PricingPolicy, rates: &RateCard) -> f64 {
        pricing.revenue(
            &self.spec,
            self.hours_run(),
            self.mean_allocation_fraction(),
            rates,
        )
    }
}

/// One VM migration performed during the simulation (capacity-reclamation
/// fallback, or migrate-back after a restitution). Recorded when the
/// transfer *completes*; aborted transfers appear as evictions and in
/// [`TransientCounters::migration_aborts`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationEvent {
    /// Simulation time the migration completed, seconds. With a costed
    /// migration model this is the end of the page transfer, not its start.
    pub time_secs: f64,
    /// The migrated VM.
    pub vm: VmId,
    /// Server the VM left.
    pub from: ServerId,
    /// Server the VM moved to.
    pub to: ServerId,
    /// Page-transfer time charged by the migration cost model, seconds.
    /// `0.0` under the historical cost-free model, whose instantaneous
    /// migrations this field was retrofitted to expose (every migration
    /// used to be implicitly free).
    pub duration_secs: f64,
    /// Bytes moved over the wire, MiB (hot footprint × dirty-page
    /// overhead).
    pub volume_mb: f64,
    /// True when this was a migrate-back to the VM's origin server after a
    /// capacity restitution.
    pub back: bool,
}

/// Engine accounting for one simulation run: how long the run took and
/// how many events it processed. `events_processed` is deterministic —
/// part of the engine's bit-identity contract across runs — while `wall_clock_secs` is a measurement and is therefore **excluded
/// from [`SimResult`]'s equality** (two otherwise identical runs never
/// take exactly the same wall-clock time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Wall-clock duration of `ClusterSimulation::run`, seconds.
    pub wall_clock_secs: f64,
    /// Total events the engine delivered (arrivals, departures, capacity
    /// changes, migration completions, utilisation ticks).
    pub events_processed: u64,
}

impl RunStats {
    /// Engine throughput: events delivered per wall-clock second (0 when
    /// the run was too fast to time).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_clock_secs <= 0.0 {
            0.0
        } else {
            self.events_processed as f64 / self.wall_clock_secs
        }
    }
}

/// Aggregate result of one simulation run.
///
/// Equality compares the *simulation output* — records, counters,
/// migrations, utilisation samples and the deterministic event count —
/// and deliberately ignores the wall-clock time in
/// [`runtime`](Self::runtime): a resumed or observed run is required to
/// be `==` the plain run (the engine's bit-identity contract, pinned by
/// `tests/checkpoint_restore.rs` and `tests/telemetry_determinism.rs`)
/// even though it was timed differently.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Per-VM records, in arrival order.
    pub records: Vec<VmRecord>,
    /// Admission counters from the cluster manager.
    pub counters: AdmissionCounters,
    /// Transient-capacity counters from the cluster manager (all zero for
    /// runs without a capacity schedule).
    pub transient: TransientCounters,
    /// Transfer-scheduler accounting: bandwidth slots booked, EDF admission
    /// rejections, and queueing delay behind the per-server budgets.
    pub scheduler: SchedulerStats,
    /// Autoscaling accounting: scale actions, launches vs reinflations,
    /// replicas lost, setpoint error and the elastic application's
    /// response-time profile. All-default for runs without an enabled
    /// [`AutoscalePolicy`](deflate_core::policy::AutoscalePolicy).
    pub autoscale: AutoscaleStats,
    /// Every migration performed, in time order.
    pub migrations: Vec<MigrationEvent>,
    /// Cluster-utilisation samples `(time_secs, effective used / currently
    /// available capacity)`, populated when utilisation ticks are enabled.
    pub utilization: Vec<(f64, f64)>,
    /// Number of servers the cluster had.
    pub num_servers: usize,
    /// Nominal overcommitment level of the configuration (peak committed
    /// allocation over cluster capacity, minus one).
    pub overcommitment: f64,
    /// Human-readable name of the reclamation mode / policy that ran.
    pub policy_name: String,
    /// Engine accounting: wall-clock duration and events processed.
    pub runtime: RunStats,
}

impl PartialEq for SimResult {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive destructuring: adding a field to SimResult fails to
        // compile here until someone decides whether it joins the
        // bit-identity contract — it cannot silently fall out of it.
        let SimResult {
            records,
            counters,
            transient,
            scheduler,
            autoscale,
            migrations,
            utilization,
            num_servers,
            overcommitment,
            policy_name,
            runtime,
        } = self;
        *records == other.records
            && *counters == other.counters
            && *transient == other.transient
            && *scheduler == other.scheduler
            && *autoscale == other.autoscale
            && *migrations == other.migrations
            && *utilization == other.utilization
            && *num_servers == other.num_servers
            && *overcommitment == other.overcommitment
            && *policy_name == other.policy_name
            // Deterministic part of the runtime stats only: the event
            // count must match, the wall clock must not.
            && runtime.events_processed == other.runtime.events_processed
    }
}

impl SimResult {
    /// Number of deflatable (low-priority) VM arrivals.
    pub fn deflatable_arrivals(&self) -> usize {
        self.records.iter().filter(|r| r.spec.deflatable).count()
    }

    /// Figure 20's failure probability: the fraction of deflatable VMs that
    /// either could not be admitted (resource reclamation failed) or were
    /// preempted (baseline mode).
    pub fn failure_probability(&self) -> f64 {
        let deflatable = self.deflatable_arrivals();
        if deflatable == 0 {
            return 0.0;
        }
        let failures = self
            .records
            .iter()
            .filter(|r| r.spec.deflatable)
            .filter(|r| !matches!(r.outcome, VmOutcome::Completed))
            .count();
        failures as f64 / deflatable as f64
    }

    /// Fraction of deflatable VMs destroyed by capacity reclamations
    /// (evictions only; rejections and arrival-preemptions excluded).
    pub fn eviction_probability(&self) -> f64 {
        let deflatable = self.deflatable_arrivals();
        if deflatable == 0 {
            return 0.0;
        }
        let evicted = self
            .records
            .iter()
            .filter(|r| r.spec.deflatable)
            .filter(|r| matches!(r.outcome, VmOutcome::Evicted { .. }))
            .count();
        evicted as f64 / deflatable as f64
    }

    /// Total number of migrations performed (including migrate-backs).
    pub fn migration_count(&self) -> usize {
        self.migrations.len()
    }

    /// Number of migrations aborted mid-transfer because the source's
    /// reclamation deadline expired (each also evicted its VM).
    pub fn migration_abort_count(&self) -> usize {
        self.transient.migration_aborts
    }

    /// Number of migrations the transfer scheduler refused up front (EDF
    /// admission control: the copy provably could not beat its deadline).
    pub fn migration_rejection_count(&self) -> usize {
        self.transient.migration_rejections
    }

    /// Mean time booked transfers spent queued for a bandwidth slot,
    /// seconds.
    pub fn mean_queue_wait_secs(&self) -> f64 {
        self.scheduler.mean_queue_wait_secs()
    }

    /// Deflatable VMs lost to capacity reclamations either way: evicted
    /// outright or aborted mid-migration (aborts resolve to evictions, so
    /// this is the count of `Evicted` outcomes). The quantity the
    /// bandwidth-sweep experiment compares across reclamation modes.
    pub fn eviction_or_abort_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.spec.deflatable)
            .filter(|r| matches!(r.outcome, VmOutcome::Evicted { .. }))
            .count()
    }

    /// Total page-transfer time spent by completed migrations, seconds.
    /// Zero under the cost-free model — the non-zero value is the migration
    /// cost the transient experiments previously ignored.
    pub fn total_migration_secs(&self) -> f64 {
        // fold, not sum: this toolchain's empty f64 sum yields -0.0, which
        // prints as "-0.0" in experiment tables.
        self.migrations
            .iter()
            .fold(0.0, |acc, m| acc + m.duration_secs)
    }

    /// Mean page-transfer time per completed migration, seconds (0 when
    /// nothing migrated).
    pub fn mean_migration_secs(&self) -> f64 {
        if self.migrations.is_empty() {
            0.0
        } else {
            self.total_migration_secs() / self.migrations.len() as f64
        }
    }

    /// Total bytes moved by completed migrations, MiB.
    pub fn total_migration_volume_mb(&self) -> f64 {
        self.migrations.iter().fold(0.0, |acc, m| acc + m.volume_mb)
    }

    /// Figure 21's metric: mean relative throughput loss across deflatable
    /// VMs that were admitted.
    pub fn mean_throughput_loss(&self) -> f64 {
        let admitted: Vec<&VmRecord> = self
            .records
            .iter()
            .filter(|r| r.spec.deflatable && !matches!(r.outcome, VmOutcome::Rejected))
            .collect();
        if admitted.is_empty() {
            return 0.0;
        }
        admitted.iter().map(|r| r.throughput_loss()).sum::<f64>() / admitted.len() as f64
    }

    /// Total revenue from deflatable (low-priority) VMs under a pricing
    /// policy.
    pub fn deflatable_revenue(&self, pricing: &PricingPolicy, rates: &RateCard) -> f64 {
        self.records
            .iter()
            .filter(|r| r.spec.deflatable)
            .map(|r| r.revenue(pricing, rates))
            .sum()
    }

    /// Revenue from deflatable VMs per server — the quantity whose relative
    /// increase Figure 22 plots (shrinking the cluster at constant workload
    /// raises revenue per server until failures erode it).
    pub fn deflatable_revenue_per_server(&self, pricing: &PricingPolicy, rates: &RateCard) -> f64 {
        if self.num_servers == 0 {
            0.0
        } else {
            self.deflatable_revenue(pricing, rates) / self.num_servers as f64
        }
    }

    /// Fraction of admitted deflatable VMs that were deflated at least once.
    pub fn deflated_vm_fraction(&self) -> f64 {
        let admitted: Vec<&VmRecord> = self
            .records
            .iter()
            .filter(|r| r.spec.deflatable && !matches!(r.outcome, VmOutcome::Rejected))
            .collect();
        if admitted.is_empty() {
            return 0.0;
        }
        let deflated = admitted.iter().filter(|r| r.usage.ever_deflated()).count();
        deflated as f64 / admitted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflate_core::resources::ResourceVector;
    use deflate_core::vm::{VmClass, VmId};

    fn spec() -> VmSpec {
        VmSpec::deflatable(
            VmId(1),
            VmClass::Interactive,
            ResourceVector::cpu_mem(4000.0, 8192.0),
        )
    }

    /// Feed `history` to a record the way the engine does (change-points
    /// in time order, outcome settled before the departure closes it).
    fn record(history: Vec<(f64, f64)>, outcome: VmOutcome, util: Vec<f64>) -> VmRecord {
        let trace = TimeSeries::five_minute(util);
        let mut r = VmRecord::new(spec(), 0.0, 1200.0);
        for (t, f) in history {
            r.record_allocation(&trace, t, f);
        }
        r.outcome = outcome;
        r.close_usage(&trace);
        r
    }

    #[test]
    fn change_points_apply_from_their_own_sample_on() {
        // Samples at 0, 300, 600 and 900 s; usage 0.8 throughout.
        let loss_with_change_at = |t: f64| {
            record(
                vec![(0.0, 1.0), (t, 0.5)],
                VmOutcome::Completed,
                vec![0.8; 4],
            )
            .throughput_loss()
        };
        // A sample exactly at a change-point gets the new fraction.
        assert!((loss_with_change_at(600.0) - 0.6 / 3.2).abs() < 1e-12);
        assert!((loss_with_change_at(599.0) - 0.6 / 3.2).abs() < 1e-12);
        assert!((loss_with_change_at(601.0) - 0.3 / 3.2).abs() < 1e-12);
        // Past the last sample: nothing lost.
        assert_eq!(loss_with_change_at(1199.0), 0.0);
        // Of changes at one timestamp, the last one is in effect.
        let tied = record(
            vec![(0.0, 1.0), (600.0, 0.2), (600.0, 0.5)],
            VmOutcome::Completed,
            vec![0.8; 4],
        );
        assert!((tied.throughput_loss() - 0.6 / 3.2).abs() < 1e-12);
        assert!(tied.usage.ever_deflated());
        assert_eq!(tied.usage.last_change(), Some((600.0, 0.5)));
    }

    #[test]
    fn mean_allocation_fraction_time_weighted() {
        let r = record(
            vec![(0.0, 1.0), (600.0, 0.5)],
            VmOutcome::Completed,
            vec![0.2; 4],
        );
        assert!((r.mean_allocation_fraction() - 0.75).abs() < 1e-9);
        // Rejected VM: zero, never placed.
        let rej = record(vec![], VmOutcome::Rejected, vec![0.2; 4]);
        assert_eq!(rej.mean_allocation_fraction(), 0.0);
        assert_eq!(rej.hours_run(), 0.0);
        assert!(!rej.usage.placed());
        assert_eq!(rej.usage.last_change(), None);
    }

    #[test]
    fn throughput_loss_counts_usage_above_allocation() {
        // Usage 0.8 for 4 intervals; allocation drops to 0.5 halfway.
        let r = record(
            vec![(0.0, 1.0), (600.0, 0.5)],
            VmOutcome::Completed,
            vec![0.8; 4],
        );
        // Lost = 2 × (0.8 − 0.5) = 0.6 of demanded 3.2.
        assert!((r.throughput_loss() - 0.6 / 3.2).abs() < 1e-9);
        // Never-deflated VM loses nothing.
        let full = record(vec![(0.0, 1.0)], VmOutcome::Completed, vec![0.9; 4]);
        assert_eq!(full.throughput_loss(), 0.0);
        assert!(!full.usage.ever_deflated());
        // Idle VM loses nothing even when deflated.
        let idle = record(vec![(0.0, 0.2)], VmOutcome::Completed, vec![0.0; 4]);
        assert_eq!(idle.throughput_loss(), 0.0);
        assert!(idle.usage.ever_deflated());
    }

    #[test]
    fn preempted_vm_loses_remaining_work() {
        let r = record(
            vec![(0.0, 1.0)],
            VmOutcome::Preempted { at_secs: 600.0 },
            vec![0.5; 4],
        );
        // After 600 s the allocation is 0, so half the demand is lost.
        assert!((r.throughput_loss() - 0.5).abs() < 1e-9);
        assert!((r.hours_run() - 600.0 / 3600.0).abs() < 1e-9);
        assert_eq!(r.mean_allocation_fraction(), 1.0);
    }

    /// The snapshot frame is a count and three 16-byte entries, the
    /// shape readers that skip records rely on, and it round-trips.
    #[test]
    fn summary_snapshot_frame_round_trips() {
        let r = record(
            vec![(0.0, 1.0), (300.0, 0.4)],
            VmOutcome::Evicted { at_secs: 900.0 },
            vec![0.5; 4],
        );
        let mut w = ByteWriter::new();
        r.usage.write_snapshot(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8 + 3 * 16);
        assert_eq!(bytes[..8], 3u64.to_le_bytes());
        let read = UsageSummary::read_snapshot(&mut ByteReader::new(&bytes), 4).unwrap();
        assert_eq!(read, r.usage);
    }

    /// A tiny LCG (Knuth's MMIX constants): reproducible cases with no
    /// RNG dependency.
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

    /// The allocation-history formulas the summary replaced, kept as the
    /// oracle: `history` holds the de-duplicated change-points.
    mod oracle {
        pub fn fraction_at(history: &[(f64, f64)], start: f64, end: f64, time: f64) -> f64 {
            if history.is_empty() || time < start || time >= end {
                return 0.0;
            }
            let mut fraction = history[0].1;
            for &(t, f) in history {
                if t <= time {
                    fraction = f;
                } else {
                    break;
                }
            }
            fraction
        }

        pub fn mean_allocation_fraction(history: &[(f64, f64)], start: f64, end: f64) -> f64 {
            if end <= start || history.is_empty() {
                return 0.0;
            }
            let mut weighted = 0.0;
            for (i, &(t, f)) in history.iter().enumerate() {
                let seg_start = t.max(start);
                let seg_end = if i + 1 < history.len() {
                    history[i + 1].0.min(end)
                } else {
                    end
                };
                if seg_end > seg_start {
                    weighted += f * (seg_end - seg_start);
                }
            }
            (weighted / (end - start)).clamp(0.0, 1.0)
        }

        pub fn throughput_loss(
            history: &[(f64, f64)],
            trace: &super::TimeSeries,
            start: f64,
            departure: f64,
            end: f64,
        ) -> f64 {
            let interval = trace.interval_secs();
            let mut demanded = 0.0;
            let mut lost = 0.0;
            for (k, &usage) in trace.samples().iter().enumerate() {
                let t = start + k as f64 * interval;
                if t >= departure {
                    break;
                }
                demanded += usage;
                let alloc = fraction_at(history, start, end, t);
                lost += (usage - alloc).max(0.0);
            }
            if demanded <= 0.0 {
                0.0
            } else {
                (lost / demanded).clamp(0.0, 1.0)
            }
        }
    }

    /// The summary reproduces the history formulas bit for bit on LCG
    /// cases: ties at one timestamp, samples exactly at change-points,
    /// preemption and eviction before departure, rejected VMs, and traces
    /// shorter or longer than the lifetime.
    #[test]
    fn summary_matches_the_history_formulas_bit_for_bit() {
        let mut lcg = Lcg(0x5EED_0001);
        let fractions = [1.0, 0.5, 0.25, 0.8, 1.0 - 1e-10, 0.0];
        let mut seen = [0usize; 5];
        for case in 0..20_000 {
            let interval = [300.0, 60.0, 7.5][lcg.below(3) as usize];
            let arrival = lcg.below(100) as f64 * 60.0 + [0.0, 0.5][lcg.below(2) as usize];
            let lifetime = lcg.below(40) as f64 * interval + lcg.unit() * interval;
            let departure = arrival + lifetime;
            // From no samples to twice the lifetime's worth.
            let samples = lcg.below(2 * (lifetime / interval) as u64 + 3) as usize;
            let util: Vec<f64> = (0..samples)
                .map(|_| match lcg.below(4) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => lcg.unit(),
                })
                .collect();
            let trace = TimeSeries::new(interval, util);
            let outcome = match lcg.below(5) {
                0 => VmOutcome::Rejected,
                1 => VmOutcome::Preempted {
                    at_secs: arrival + lcg.unit() * lifetime,
                },
                2 => VmOutcome::Evicted {
                    at_secs: arrival + lcg.unit() * lifetime,
                },
                _ => VmOutcome::Completed,
            };
            let mut r = VmRecord::new(spec(), arrival, departure);
            r.outcome = outcome;
            let end = r.end_secs();
            let mut history: Vec<(f64, f64)> = Vec::new();
            if outcome != VmOutcome::Rejected {
                // Change-points from arrival to the end: on sample times,
                // between them, and tied at one timestamp.
                let mut t = arrival;
                for _ in 0..=lcg.below(12) {
                    let fraction = if lcg.below(3) == 0 {
                        lcg.unit()
                    } else {
                        fractions[lcg.below(fractions.len() as u64) as usize]
                    };
                    if history
                        .last()
                        .is_none_or(|&(_, last)| (last - fraction).abs() >= 1e-9)
                    {
                        history.push((t, fraction));
                    }
                    r.record_allocation(&trace, t, fraction);
                    let next = match lcg.below(3) {
                        0 => t,
                        1 => arrival + ((t - arrival) / interval).floor() * interval + interval,
                        _ => t + lcg.unit() * lifetime / 4.0,
                    };
                    if next > end {
                        break;
                    }
                    t = next;
                }
            }
            r.close_usage(&trace);
            let want_loss = oracle::throughput_loss(&history, &trace, arrival, departure, end);
            let want_mean = oracle::mean_allocation_fraction(&history, arrival, end);
            assert_eq!(
                r.throughput_loss().to_bits(),
                want_loss.to_bits(),
                "case {case}: loss {} vs {want_loss}, {history:?}",
                r.throughput_loss()
            );
            assert_eq!(
                r.mean_allocation_fraction().to_bits(),
                want_mean.to_bits(),
                "case {case}: mean {} vs {want_mean}, {history:?}",
                r.mean_allocation_fraction()
            );
            assert_eq!(
                r.usage.ever_deflated(),
                history.iter().any(|&(_, f)| f < 1.0 - 1e-9),
                "case {case}"
            );
            assert_eq!(r.usage.placed(), !history.is_empty(), "case {case}");
            seen[match outcome {
                VmOutcome::Rejected => 0,
                VmOutcome::Preempted { .. } => 1,
                VmOutcome::Evicted { .. } => 2,
                VmOutcome::Completed if trace.duration_secs() < lifetime => 3,
                VmOutcome::Completed => 4,
            }] += 1;
        }
        // Every kind of case was drawn often.
        assert!(seen.iter().all(|&n| n > 1000), "{seen:?}");
    }

    #[test]
    fn sim_result_aggregates() {
        let completed = record(vec![(0.0, 1.0)], VmOutcome::Completed, vec![0.5; 4]);
        let rejected = record(vec![], VmOutcome::Rejected, vec![0.5; 4]);
        let deflated = record(
            vec![(0.0, 1.0), (300.0, 0.4)],
            VmOutcome::Completed,
            vec![0.5; 4],
        );
        let result = SimResult {
            records: vec![completed, rejected, deflated],
            counters: AdmissionCounters::default(),
            transient: TransientCounters::default(),
            scheduler: SchedulerStats::default(),
            autoscale: AutoscaleStats::default(),
            migrations: vec![],
            utilization: vec![],
            num_servers: 2,
            overcommitment: 0.5,
            policy_name: "test".into(),
            runtime: RunStats::default(),
        };
        assert_eq!(result.deflatable_arrivals(), 3);
        assert!((result.failure_probability() - 1.0 / 3.0).abs() < 1e-9);
        assert!(result.mean_throughput_loss() > 0.0);
        assert!((result.deflated_vm_fraction() - 0.5).abs() < 1e-9);
        let rates = RateCard::default();
        let rev = result.deflatable_revenue(&PricingPolicy::static_default(), &rates);
        assert!(rev > 0.0);
        assert!(
            (result.deflatable_revenue_per_server(&PricingPolicy::static_default(), &rates)
                - rev / 2.0)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn empty_result_is_all_zero() {
        let result = SimResult {
            records: vec![],
            counters: AdmissionCounters::default(),
            transient: TransientCounters::default(),
            scheduler: SchedulerStats::default(),
            autoscale: AutoscaleStats::default(),
            migrations: vec![],
            utilization: vec![],
            num_servers: 0,
            overcommitment: 0.0,
            policy_name: "empty".into(),
            runtime: RunStats::default(),
        };
        assert_eq!(result.failure_probability(), 0.0);
        assert_eq!(result.mean_throughput_loss(), 0.0);
        assert_eq!(result.deflated_vm_fraction(), 0.0);
        assert_eq!(
            result
                .deflatable_revenue_per_server(&PricingPolicy::PriorityBased, &RateCard::default()),
            0.0
        );
    }

    #[test]
    fn equality_ignores_wall_clock_but_not_event_count() {
        let base = SimResult {
            records: vec![],
            counters: AdmissionCounters::default(),
            transient: TransientCounters::default(),
            scheduler: SchedulerStats::default(),
            autoscale: AutoscaleStats::default(),
            migrations: vec![],
            utilization: vec![],
            num_servers: 1,
            overcommitment: 0.0,
            policy_name: "x".into(),
            runtime: RunStats {
                wall_clock_secs: 1.0,
                events_processed: 42,
            },
        };
        let mut timed_differently = base.clone();
        timed_differently.runtime.wall_clock_secs = 9.0;
        assert_eq!(base, timed_differently);
        let mut different_events = base.clone();
        different_events.runtime.events_processed = 43;
        assert_ne!(base, different_events);
    }

    #[test]
    fn run_stats_throughput() {
        let stats = RunStats {
            wall_clock_secs: 2.0,
            events_processed: 100,
        };
        assert!((stats.events_per_sec() - 50.0).abs() < 1e-9);
        assert_eq!(RunStats::default().events_per_sec(), 0.0);
    }
}

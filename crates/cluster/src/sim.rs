//! Trace-driven discrete-event cluster simulation (§7.1.2, §7.4).
//!
//! The simulator replays a VM workload (arrival time, departure time, size,
//! CPU-utilisation history — normally derived from the synthetic Azure trace)
//! against a [`ClusterManager`], recording for every VM when it was admitted,
//! rejected, preempted or evicted and summarising its CPU allocation against
//! its utilisation trace as the run goes. The resulting [`SimResult`] yields
//! the three cluster-level metrics of §7.4: reclamation-failure probability
//! (Figure 20), throughput loss (Figure 21) and revenue (Figure 22).
//!
//! The simulation runs on the generalized event engine of
//! `deflate-transient`: a deterministic binary-heap event queue
//! ([`ShardedEventQueue`] — one heap per engine shard) over typed
//! [`SimEvent`]s. Besides VM arrivals and departures it understands
//! provider-side **capacity events** — attach a [`CapacitySchedule`] with
//! [`ClusterSimulation::with_capacity_schedule`] and every reclamation is
//! absorbed by deflation, then deflation-aware migration, and only then by
//! evicting VMs (see [`ClusterManager::reclaim_capacity`]).
//!
//! Migrations are priced by a [`MigrationCostModel`]
//! ([`ClusterSimulation::with_migration_cost`]): instead of completing
//! instantly, a costed transfer becomes *in flight* — the manager reports
//! it as started, the simulator schedules a [`SimEvent::MigrationComplete`]
//! at the transfer's end (or at the source's reclamation deadline, in which
//! case the VM is aborted and evicted) and feeds it back through
//! [`ClusterManager::complete_migration`].
//!
//! # Elastic autoscaling
//!
//! With [`ClusterSimulation::with_autoscale`] the run also hosts
//! **elastic applications** (`deflate-autoscale`): replica pools resized
//! by a target-tracking autoscaler that observes each `UtilizationTick`
//! and schedules [`SimEvent::ScaleOut`] / [`SimEvent::ScaleIn`] events
//! for its decisions. The deflation-aware policy scales in by *parking*
//! (deflating) replicas and scales out by *reinflating* them — instantly,
//! where a fresh launch pays a boot delay. `AutoscalePolicy::Disabled`
//! (the default) schedules nothing and is bit-identical to a run without
//! the call.
//!
//! # Sharded engine
//!
//! For large traces the simulator can run its engine **sharded**
//! ([`ClusterSimulation::with_shards`], default 1 = sequential): the event
//! queue splits into per-shard heaps built in parallel
//! ([`ShardedEventQueue`]), and the embarrassingly-parallel per-server
//! passes — trace-utilisation sampling ahead of capacity events and the
//! per-server sums behind each `UtilizationTick` — fan out to one
//! `std::thread` worker per shard.
//! Event *handling* (placement, reclamation ladders, transfer booking)
//! stays serialized at the coordinator in the queue's global total order,
//! which is what makes a sharded run **bit-identical** to the sequential
//! one (pinned by `tests/shard_parity.rs`, documented in
//! `docs/PERFORMANCE.md`).

use crate::audit::Auditor;
use crate::manager::{ClusterConfig, ClusterManager, PlacementResult, ReclamationMode};
use crate::metrics::{MigrationEvent, RunStats, SimResult, UsageSummary, VmOutcome, VmRecord};
use crate::spec::WorkloadVm;
use deflate_autoscale::{Autoscaler, ElasticApp};
use deflate_core::audit::AuditSpec;
use deflate_core::checkpoint::{ByteReader, ByteWriter, CheckpointError, CheckpointResult};
use deflate_core::policy::{AutoscalePolicy, RestorePolicy, TransferPolicy};
use deflate_core::shard::ShardConfig;
use deflate_core::telemetry::TelemetrySpec;
use deflate_core::vm::{IdMap, ServerId, VmId};
use deflate_hypervisor::domain::CacheRegrowthModel;
use deflate_hypervisor::migration::MigrationCostModel;
use deflate_telemetry::{EventField, MemoryLedger, Phase, TelemetryEventKind, TelemetrySink};
use deflate_transient::events::SimEvent;
use deflate_transient::pool::{run_tasks, Task, WorkerPool};
use deflate_transient::sharded::ShardedEventQueue;
use deflate_transient::signal::CapacitySchedule;
use std::sync::Arc;

/// The trace-driven cluster simulator.
pub struct ClusterSimulation {
    config: ClusterConfig,
    mode: ReclamationMode,
    schedule: CapacitySchedule,
    utilization_tick_secs: Option<f64>,
    migrate_back: bool,
    migration_cost: MigrationCostModel,
    transfer_policy: TransferPolicy,
    restore_policy: RestorePolicy,
    cache_regrowth: CacheRegrowthModel,
    autoscale_policy: AutoscalePolicy,
    elastic_apps: Vec<ElasticApp>,
    shards: ShardConfig,
    telemetry: TelemetrySink,
    audit: AuditSpec,
    /// Memory-ledger sampling cadence, in utilisation ticks (1 = every
    /// tick). Only consulted when telemetry is enabled.
    memory_sample_every_ticks: u64,
}

/// The engine's complete working state between event boundaries: the
/// cluster manager, the optional autoscaler, the pending event queue and
/// the per-VM bookkeeping. Built by `boot`, advanced by `drive`, folded
/// into a [`SimResult`] by `finish` — and, between `drive` calls,
/// serializable as a versioned snapshot
/// ([`ClusterSimulation::checkpoint`]).
struct EngineState {
    pool: Option<Arc<WorkerPool>>,
    manager: ClusterManager,
    autoscaler: Option<Autoscaler>,
    queue: ShardedEventQueue,
    index_of: IdMap<VmId, usize>,
    records: Vec<VmRecord>,
    running: Vec<bool>,
    migrations: Vec<MigrationEvent>,
    utilization: Vec<(f64, f64)>,
    events_processed: u64,
    /// Nominal overcommitment of the configuration. A function of the
    /// workload and cluster size only, computed at boot, before the
    /// per-VM state fills up.
    overcommitment: f64,
    /// The online invariant auditor, present only when an [`AuditSpec`]
    /// enables at least one checker. Pure observer: never serialized into
    /// snapshots, never consulted by any decision path.
    auditor: Option<Auditor>,
}

impl ClusterSimulation {
    /// Create a simulation with the given cluster configuration and
    /// reclamation mode (static capacity, no utilisation sampling, free
    /// instantaneous migrations).
    pub fn new(config: ClusterConfig, mode: ReclamationMode) -> Self {
        ClusterSimulation {
            config,
            mode,
            schedule: CapacitySchedule::empty(),
            utilization_tick_secs: None,
            migrate_back: false,
            migration_cost: MigrationCostModel::instant(),
            transfer_policy: TransferPolicy::default(),
            restore_policy: RestorePolicy::default(),
            cache_regrowth: CacheRegrowthModel::default(),
            autoscale_policy: AutoscalePolicy::default(),
            elastic_apps: Vec::new(),
            shards: ShardConfig::sequential(),
            telemetry: TelemetrySink::disabled(),
            audit: AuditSpec::off(),
            memory_sample_every_ticks: 1,
        }
    }

    /// Run the online invariant auditor with the given [`AuditSpec`]: the
    /// enabled checkers re-verify engine invariants after **every**
    /// processed event and fail fast (with a diagnostic naming the
    /// checker, event id, time and server) on the first violation. Off by
    /// default — and strictly observational when on: a run with every
    /// checker enabled is bit-identical to a run with auditing off
    /// (pinned by `tests/telemetry_determinism.rs`). See
    /// [`Auditor`] documentation.
    pub fn with_audit(mut self, spec: AuditSpec) -> Self {
        self.audit = spec;
        self
    }

    /// The audit spec in effect (off unless configured).
    pub fn audit_spec(&self) -> AuditSpec {
        self.audit
    }

    /// Sample the per-subsystem memory ledger every `ticks` utilisation
    /// ticks (default 1 = every tick; values below 1 are clamped). The
    /// ledger also publishes once at the end of every telemetry-enabled
    /// run, so runs without utilisation ticks still report final `mem.*`
    /// gauges.
    pub fn with_memory_sample_every(mut self, ticks: u64) -> Self {
        self.memory_sample_every_ticks = ticks.max(1);
        self
    }

    /// Observe the run through a telemetry sink (`deflate-telemetry`):
    /// engine phase spans, metrics, JSONL event log, Chrome trace — per
    /// the sink's [`TelemetrySpec`]. The disabled default costs one
    /// branch per call site, and an enabled sink **never changes
    /// results**: every `SimResult` field is bit-identical to a
    /// telemetry-off run at any shard count (pinned by
    /// `tests/telemetry_determinism.rs`).
    pub fn with_telemetry(mut self, telemetry: TelemetrySink) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// [`with_telemetry`](Self::with_telemetry) from a spec, opening any
    /// file sinks now (a bad path fails before the run starts).
    pub fn with_telemetry_spec(self, spec: &TelemetrySpec) -> std::io::Result<Self> {
        Ok(self.with_telemetry(TelemetrySink::from_spec(spec)?))
    }

    /// The sink the run will feed (disabled unless configured).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Run the engine with the given shard count ([`ShardConfig`]): per-
    /// shard event queues built in parallel, per-server passes fanned out
    /// to `std::thread` workers, one coordinator preserving the global
    /// event order. Sharding never changes results — any shard count is
    /// bit-identical to the sequential default — only how fast the run
    /// goes on multi-core hardware.
    pub fn with_shards(mut self, shards: ShardConfig) -> Self {
        self.shards = shards;
        self
    }

    /// Charge migrations with the given cost model: transfers take
    /// page-copy time, queue behind per-server bandwidth budgets and race
    /// the reclamation deadline (losing the race evicts the VM).
    pub fn with_migration_cost(mut self, model: MigrationCostModel) -> Self {
        self.migration_cost = model;
        self
    }

    /// Schedule migration-bandwidth slots under the given policy: FIFO
    /// (the default — bit-identical to the pre-scheduler greedy booking),
    /// smallest-transfer-first, or deadline-aware EDF with admission
    /// control. See [`TransferPolicy`].
    pub fn with_transfer_policy(mut self, policy: TransferPolicy) -> Self {
        self.transfer_policy = policy;
        self
    }

    /// Reinflate residents after capacity restitutions under the given
    /// [`RestorePolicy`]: the greedy default hands the whole returned room
    /// back immediately (bit-identical to the pre-knob behaviour);
    /// hysteresis and spread-out variants damp the response to
    /// fast-oscillating capacity signals.
    pub fn with_restore_policy(mut self, policy: RestorePolicy) -> Self {
        self.restore_policy = policy;
        self
    }

    /// Regrow squeezed page caches over simulated time with the given
    /// model (default: disabled — caches refill only on usage reports).
    /// With a positive rate, repeated deflate-then-migrate squeezes of the
    /// same guest are no longer free.
    pub fn with_cache_regrowth(mut self, model: CacheRegrowthModel) -> Self {
        self.cache_regrowth = model;
        self
    }

    /// Run elastic applications under the given [`AutoscalePolicy`]. With
    /// `Disabled` (the default) this is a no-op — no events, no replicas,
    /// bit-identical to a run without the call. Enabled policies require
    /// [`with_utilization_ticks`](Self::with_utilization_ticks), which is
    /// where scaling decisions are made; each app's replica-id range must
    /// be disjoint from the workload's VM ids.
    pub fn with_autoscale(mut self, policy: AutoscalePolicy, apps: Vec<ElasticApp>) -> Self {
        self.autoscale_policy = policy;
        self.elastic_apps = apps;
        self
    }

    /// Attach a provider-side capacity schedule: its reclamation and
    /// restitution change-points become `CapacityReclaim` / `CapacityRestore`
    /// events in the run.
    pub fn with_capacity_schedule(mut self, schedule: CapacitySchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sample cluster utilisation every `interval_secs` of simulated time
    /// (`UtilizationTick` events; results land in [`SimResult::utilization`]).
    pub fn with_utilization_ticks(mut self, interval_secs: f64) -> Self {
        self.utilization_tick_secs = (interval_secs > 0.0).then_some(interval_secs);
        self
    }

    /// Migrate displaced VMs back to their origin server when its capacity
    /// is restored.
    pub fn with_migrate_back(mut self, migrate_back: bool) -> Self {
        self.migrate_back = migrate_back;
        self
    }

    /// Replay the workload and return the per-VM records and aggregate
    /// counters.
    pub fn run(&self, workload: &[WorkloadVm]) -> SimResult {
        let started_at = std::time::Instant::now();
        // The umbrella span: its *self* time (total minus the attributed
        // phases below) is `fig_profile`'s "other" row, so the phase
        // table always sums to the engine total.
        let _engine_total = self.telemetry.span(Phase::EngineTotal);
        let mut state = self.boot(workload);
        self.drive(workload, &mut state, None);
        self.finish(workload, state, started_at)
    }

    /// Run the engine up to simulated time `at_secs` — processing every
    /// event with `time <= at_secs`, including events their handlers
    /// schedule back inside the horizon — and serialize the complete
    /// dynamic state as a versioned snapshot.
    ///
    /// The contract, pinned by `tests/checkpoint_restore.rs`: for any
    /// event-boundary `T`, `resume(checkpoint(T))` yields a `SimResult`
    /// equal to the uninterrupted `run` in **every** field (wall-clock
    /// time excepted — it is re-measured, never serialized, so snapshot
    /// bytes are machine-independent). The bytes are also independent of
    /// the shard count and of telemetry: queue contents are written in
    /// the queue's deterministic pop order and every map in sorted order.
    ///
    /// A snapshot holds only *dynamic* state. Configuration — the cluster
    /// layout, policies, cost models, telemetry sinks, shard count — is
    /// re-supplied by the [`ClusterSimulation`] that restores it, which is
    /// what lets a **fork** replay the same snapshot under a different
    /// [`TransferPolicy`] (the scheduler's ledgers persist; its policy is
    /// the restoring simulation's).
    pub fn checkpoint(&self, workload: &[WorkloadVm], at_secs: f64) -> Vec<u8> {
        let _engine_total = self.telemetry.span(Phase::EngineTotal);
        let mut state = self.boot(workload);
        self.drive(workload, &mut state, Some(at_secs));
        self.serialize_state(workload, &state, at_secs)
    }

    /// Restore a [`checkpoint`](Self::checkpoint) snapshot and run the
    /// remaining events to completion. The receiver must be configured
    /// identically to the checkpointing simulation — except for knobs
    /// that are *deliberately* part of a fork (the transfer policy) and
    /// knobs that never affect results (shards, placement engine,
    /// telemetry — sinks are re-attached here, never serialized).
    pub fn resume(&self, workload: &[WorkloadVm], snapshot: &[u8]) -> CheckpointResult<SimResult> {
        let started_at = std::time::Instant::now();
        let _engine_total = self.telemetry.span(Phase::EngineTotal);
        let mut state = self.boot_unscheduled(workload);
        self.restore_state(workload, &mut state, snapshot)?;
        self.drive(workload, &mut state, None);
        Ok(self.finish(workload, state, started_at))
    }

    /// Restore a snapshot, drive the engine further to `at_secs`, and
    /// re-serialize — advancing a checkpointed run to a later boundary
    /// without replaying its prefix. The meta-scheduling loop in
    /// `fig_whatif` leapfrogs snapshots this way from one capacity event
    /// to the next.
    pub fn resume_until(
        &self,
        workload: &[WorkloadVm],
        snapshot: &[u8],
        at_secs: f64,
    ) -> CheckpointResult<Vec<u8>> {
        let _engine_total = self.telemetry.span(Phase::EngineTotal);
        let mut state = self.boot_unscheduled(workload);
        self.restore_state(workload, &mut state, snapshot)?;
        self.drive(workload, &mut state, Some(at_secs));
        Ok(self.serialize_state(workload, &state, at_secs))
    }

    /// The simulated time a snapshot was taken at, without restoring it.
    pub fn snapshot_time(snapshot: &[u8]) -> CheckpointResult<f64> {
        let mut r = ByteReader::with_header(snapshot)?;
        r.get_f64()
    }

    /// Build the engine's working state for a fresh run: the cluster
    /// manager, the optional autoscaler, the fully scheduled event queue
    /// and the per-VM bookkeeping — everything `drive` advances.
    fn boot(&self, workload: &[WorkloadVm]) -> EngineState {
        let mut state = self.boot_unscheduled(workload);
        state.queue = self.schedule(workload, state.autoscaler.as_ref(), state.pool.as_deref());
        state
    }

    /// [`boot`](Self::boot) with an empty event queue: the state a
    /// snapshot restores over, which brings its own queue.
    fn boot_unscheduled(&self, workload: &[WorkloadVm]) -> EngineState {
        let overcommitment = crate::spec::overcommitment_of(
            workload,
            self.config.server_capacity,
            self.config.num_servers,
        );
        // One persistent worker pool is shared by every parallel section of
        // the run — shard heapify, utilisation sampling and snapshotting —
        // instead of each section respawning scoped threads. Absent
        // entirely for sequential runs.
        let pool_threads = self.shards.count();
        let pool = (pool_threads > 1).then(|| Arc::new(WorkerPool::new(pool_threads)));
        let manager = ClusterManager::new(&self.config, self.mode.clone())
            .with_migration_cost(self.migration_cost)
            .with_transfer_policy(self.transfer_policy)
            .with_restore_policy(self.restore_policy)
            .with_cache_regrowth(self.cache_regrowth)
            .with_worker_pool(pool.clone())
            .with_telemetry(self.telemetry.clone());
        // The autoscaler exists only for enabled policies: a Disabled run
        // schedules no scale events and touches no autoscaler state, so it
        // is bit-identical to a run of the engine before autoscaling
        // existed (pinned by the golden regression tests).
        let autoscaler = (self.autoscale_policy.is_enabled() && !self.elastic_apps.is_empty())
            .then(|| Autoscaler::new(self.autoscale_policy, self.elastic_apps.clone()));

        let queue = ShardedEventQueue::new(self.shards, self.config.num_servers, workload.len());

        // Working state.
        let (index_of, records) = {
            let _init = self.telemetry.span(Phase::RecordInit);
            let index_of: IdMap<VmId, usize> = workload
                .iter()
                .enumerate()
                .map(|(i, vm)| (vm.spec.id, i))
                .collect();
            let records = workload
                .iter()
                .map(|vm| VmRecord::new(vm.spec.clone(), vm.arrival_secs, vm.departure_secs))
                .collect();
            (index_of, records)
        };
        EngineState {
            pool,
            manager,
            autoscaler,
            queue,
            index_of,
            records,
            running: vec![false; workload.len()],
            migrations: Vec::new(),
            utilization: Vec::new(),
            events_processed: 0,
            overcommitment,
            auditor: (!self.audit.is_off()).then(|| Auditor::new(self.audit)),
        }
    }

    /// Schedule every workload, capacity, tick and bootstrap event of a
    /// fresh run into a new queue.
    fn schedule(
        &self,
        workload: &[WorkloadVm],
        autoscaler: Option<&Autoscaler>,
        pool: Option<&WorkerPool>,
    ) -> ShardedEventQueue {
        // Schedule every event up front. The queue's deterministic total
        // order (time, then kind, then id) makes the run independent of
        // insertion order: departures precede capacity changes precede
        // arrivals at equal timestamps, so back-to-back VMs never
        // artificially overlap and simultaneous arrivals see the already
        // shrunk server. The event list is routed into per-shard heaps and
        // heapified in parallel; popping merges the shard heads under the
        // same total order, so the shard count never changes the run.
        let events: Vec<(f64, SimEvent)> = {
            let _schedule = self.telemetry.span(Phase::ScheduleBuild);
            let mut events: Vec<(f64, SimEvent)> =
                Vec::with_capacity(workload.len() * 2 + self.schedule.len());
            let mut horizon: f64 = 0.0;
            for (i, vm) in workload.iter().enumerate() {
                events.push((vm.arrival_secs, SimEvent::Arrival(i)));
                events.push((vm.departure_secs, SimEvent::Departure(i)));
                horizon = horizon.max(vm.departure_secs);
            }
            for change in self.schedule.changes() {
                let event = if change.is_reclaim {
                    SimEvent::CapacityReclaim {
                        server: change.server,
                        available_fraction: change.available_fraction,
                    }
                } else {
                    SimEvent::CapacityRestore {
                        server: change.server,
                        available_fraction: change.available_fraction,
                    }
                };
                events.push((change.time_secs, event));
            }
            if let Some(interval) = self.utilization_tick_secs {
                let mut t = 0.0;
                while t <= horizon {
                    events.push((t, SimEvent::UtilizationTick));
                    t += interval;
                }
            }
            if let Some(autoscaler) = autoscaler {
                // Bootstrap scale-outs launch each app's initial pool.
                events.extend(autoscaler.initial_events());
            }
            events
        };
        ShardedEventQueue::build_with_workers(
            self.shards,
            self.config.num_servers,
            workload.len(),
            events,
            &self.telemetry,
            pool,
        )
    }

    /// The main event loop: pop events in the queue's global total order
    /// and dispatch them. With `stop_secs` set the loop stops at the first
    /// event **after** that time, leaving it queued — an event boundary a
    /// checkpoint can serialize; `None` drains the queue.
    fn drive(&self, workload: &[WorkloadVm], state: &mut EngineState, stop_secs: Option<f64>) {
        let EngineState {
            pool,
            manager,
            autoscaler,
            queue,
            index_of,
            records,
            running,
            migrations,
            utilization,
            events_processed,
            auditor,
            ..
        } = state;
        loop {
            if let Some(stop) = stop_secs {
                match queue.peek_time() {
                    Some(time) if time <= stop => {}
                    _ => break,
                }
            }
            // Time the k-way shard-head merge separately from the event
            // handlers it feeds.
            let popped = {
                let _merge = self.telemetry.span(Phase::CoordinatorMerge);
                queue.pop()
            };
            let Some((time, event)) = popped else { break };
            *events_processed += 1;
            match event {
                SimEvent::Arrival(i) => {
                    let _span = self.telemetry.span(Phase::Arrival);
                    // PlacementRank nests inside place_vm and is
                    // subtracted from this span's self time.
                    let result = manager.place_vm(workload[i].spec.clone());
                    if self.telemetry.wants(TelemetryEventKind::Arrival) {
                        let outcome = match &result {
                            PlacementResult::Rejected => "rejected",
                            PlacementResult::Placed { .. } => "placed",
                            PlacementResult::PlacedWithDeflation { .. } => "placed_with_deflation",
                            PlacementResult::PlacedWithPreemption { .. } => {
                                "placed_with_preemption"
                            }
                        };
                        self.telemetry.log_event(
                            TelemetryEventKind::Arrival,
                            time,
                            &[
                                ("vm", EventField::U64(workload[i].spec.id.0)),
                                ("outcome", EventField::Str(outcome)),
                            ],
                        );
                    }
                    let touched_server = match result {
                        PlacementResult::Rejected => {
                            records[i].outcome = VmOutcome::Rejected;
                            None
                        }
                        PlacementResult::PlacedWithPreemption {
                            server,
                            ref preempted,
                        } => {
                            records[i].outcome = VmOutcome::Completed;
                            running[i] = true;
                            for victim in preempted {
                                if let Some(&vi) = index_of.get(victim) {
                                    records[vi].outcome = VmOutcome::Preempted { at_secs: time };
                                    running[vi] = false;
                                } else if let Some(autoscaler) = autoscaler.as_mut() {
                                    // A preempted elastic replica must
                                    // leave the autoscaler's pool, or it
                                    // would count as active forever and
                                    // block its own replacement.
                                    autoscaler.on_replica_evicted(*victim);
                                }
                            }
                            Some(server)
                        }
                        PlacementResult::Placed { server }
                        | PlacementResult::PlacedWithDeflation { server, .. } => {
                            records[i].outcome = VmOutcome::Completed;
                            running[i] = true;
                            Some(server)
                        }
                    };
                    if let Some(server) = touched_server {
                        Self::record_allocations(
                            manager, server, workload, index_of, records, running, time,
                        );
                    }
                }
                SimEvent::Departure(i) => {
                    let _span = self.telemetry.span(Phase::Departure);
                    if self.telemetry.wants(TelemetryEventKind::Departure) {
                        self.telemetry.log_event(
                            TelemetryEventKind::Departure,
                            time,
                            &[
                                ("vm", EventField::U64(workload[i].spec.id.0)),
                                (
                                    "was_running",
                                    EventField::Str(if running[i] { "yes" } else { "no" }),
                                ),
                            ],
                        );
                    }
                    if running[i] {
                        let vm = workload[i].spec.id;
                        let server = manager.locate(vm);
                        // A mid-transfer departure also frees (and
                        // reinflates) the in-flight destination server.
                        let dest = manager.in_flight_destination(vm);
                        let _ = manager.remove_vm(vm);
                        running[i] = false;
                        for server in [server, dest].into_iter().flatten() {
                            Self::record_allocations(
                                manager, server, workload, index_of, records, running, time,
                            );
                        }
                    }
                    // Every VM gets its departure event, whatever its
                    // outcome, so this is where its summary completes.
                    records[i].close_usage(&workload[i].cpu_util);
                }
                SimEvent::CapacityReclaim {
                    server,
                    available_fraction,
                } => {
                    let _span = self.telemetry.span(Phase::ReclaimLadder);
                    {
                        let _sampling = self.telemetry.span(Phase::UtilizationSampling);
                        self.observe_utilizations(
                            manager,
                            workload,
                            running,
                            time,
                            pool.as_deref(),
                        );
                    }
                    let outcome = manager.reclaim_capacity(server, available_fraction, time);
                    if self.telemetry.wants(TelemetryEventKind::CapacityReclaim) {
                        self.telemetry.log_event(
                            TelemetryEventKind::CapacityReclaim,
                            time,
                            &[
                                ("server", EventField::U64(u64::from(server.0))),
                                ("available_fraction", EventField::F64(available_fraction)),
                                ("victims", EventField::U64(outcome.victims.len() as u64)),
                                (
                                    "migrations_started",
                                    EventField::U64(outcome.started.len() as u64),
                                ),
                            ],
                        );
                    }
                    Self::apply_capacity_outcome(
                        manager, &outcome, workload, time, index_of, records, running, migrations,
                        queue, autoscaler,
                    );
                }
                SimEvent::CapacityRestore {
                    server,
                    available_fraction,
                } => {
                    let _span = self.telemetry.span(Phase::ReclaimLadder);
                    {
                        let _sampling = self.telemetry.span(Phase::UtilizationSampling);
                        self.observe_utilizations(
                            manager,
                            workload,
                            running,
                            time,
                            pool.as_deref(),
                        );
                    }
                    let outcome = manager.restore_capacity(
                        server,
                        available_fraction,
                        self.migrate_back,
                        time,
                    );
                    if self.telemetry.wants(TelemetryEventKind::CapacityRestore) {
                        self.telemetry.log_event(
                            TelemetryEventKind::CapacityRestore,
                            time,
                            &[
                                ("server", EventField::U64(u64::from(server.0))),
                                ("available_fraction", EventField::F64(available_fraction)),
                                (
                                    "migrations_started",
                                    EventField::U64(outcome.started.len() as u64),
                                ),
                            ],
                        );
                    }
                    Self::apply_capacity_outcome(
                        manager, &outcome, workload, time, index_of, records, running, migrations,
                        queue, autoscaler,
                    );
                }
                SimEvent::MigrationComplete { migration } => {
                    let _span = self.telemetry.span(Phase::MigrationCompletion);
                    let outcome = manager.complete_migration(migration, time);
                    if self.telemetry.wants(TelemetryEventKind::MigrationComplete) {
                        self.telemetry.log_event(
                            TelemetryEventKind::MigrationComplete,
                            time,
                            &[
                                ("migration", EventField::U64(migration)),
                                ("completed", EventField::U64(outcome.migrated.len() as u64)),
                            ],
                        );
                    }
                    Self::apply_capacity_outcome(
                        manager, &outcome, workload, time, index_of, records, running, migrations,
                        queue, autoscaler,
                    );
                }
                SimEvent::UtilizationTick => {
                    let _span = self.telemetry.span(Phase::UtilizationSampling);
                    // Per-server values are read shard-parallel; the
                    // cross-server fold stays sequential in server order so
                    // the f64 sum is bit-identical for every shard count.
                    let (used, capacity) = manager.cpu_usage_snapshot(self.shards);
                    let value = if capacity <= 0.0 {
                        0.0
                    } else {
                        used / capacity
                    };
                    utilization.push((time, value));
                    if self.telemetry.wants(TelemetryEventKind::UtilizationTick) {
                        self.telemetry.log_event(
                            TelemetryEventKind::UtilizationTick,
                            time,
                            &[("utilization", EventField::F64(value))],
                        );
                    }
                    // Autoscaling decisions hang off the same ticks: the
                    // autoscaler observes each app against the settled
                    // cluster state and schedules ScaleOut / ScaleIn
                    // events at the coordinator — deterministic at any
                    // shard count.
                    if let Some(autoscaler) = autoscaler.as_mut() {
                        let _decide = self.telemetry.span(Phase::Autoscale);
                        for (t, event) in autoscaler.on_tick(time, &*manager) {
                            queue.push(t, event);
                        }
                    }
                    // Memory-ledger sampling rides the utilisation-tick
                    // cadence: per-subsystem byte gauges plus the live
                    // VmRSS ground truth. Gauges only — skipped entirely
                    // when telemetry is off, and never consulted by any
                    // decision path.
                    if self.telemetry.enabled()
                        && (utilization.len() as u64).is_multiple_of(self.memory_sample_every_ticks)
                    {
                        self.publish_memory(
                            workload,
                            manager,
                            queue,
                            index_of,
                            records,
                            running,
                            migrations,
                            utilization,
                            autoscaler.as_ref(),
                        );
                    }
                }
                SimEvent::ScaleOut { app } => {
                    let _span = self.telemetry.span(Phase::Autoscale);
                    if self.telemetry.wants(TelemetryEventKind::ScaleOut) {
                        self.telemetry.log_event(
                            TelemetryEventKind::ScaleOut,
                            time,
                            &[("app", EventField::U64(u64::from(app)))],
                        );
                    }
                    let Some(scaler) = autoscaler.as_mut() else {
                        continue;
                    };
                    let touched = scaler.on_scale_out(app, time, manager);
                    // Under the preemption baseline a replica launch can
                    // kill resident workload VMs — and other replicas;
                    // reconcile both (deflation and migration-only
                    // launches never preempt).
                    if matches!(self.mode, ReclamationMode::Preemption) {
                        for (i, record) in records.iter_mut().enumerate() {
                            if running[i] && manager.locate(workload[i].spec.id).is_none() {
                                record.outcome = VmOutcome::Preempted { at_secs: time };
                                running[i] = false;
                            }
                        }
                        scaler.reconcile_lost(&*manager);
                    }
                    for server in touched {
                        Self::record_allocations(
                            manager, server, workload, index_of, records, running, time,
                        );
                    }
                }
                SimEvent::ScaleIn { app } => {
                    let _span = self.telemetry.span(Phase::Autoscale);
                    if self.telemetry.wants(TelemetryEventKind::ScaleIn) {
                        self.telemetry.log_event(
                            TelemetryEventKind::ScaleIn,
                            time,
                            &[("app", EventField::U64(u64::from(app)))],
                        );
                    }
                    let Some(autoscaler) = autoscaler.as_mut() else {
                        continue;
                    };
                    for server in autoscaler.on_scale_in(app, time, manager) {
                        Self::record_allocations(
                            manager, server, workload, index_of, records, running, time,
                        );
                    }
                }
            }
            // The audit point: after the event's handler has settled, the
            // enabled checkers re-verify the engine's invariants against
            // the state the handler left behind. Strictly read-only; the
            // run fails fast on the first violation (every later number
            // would be untrustworthy), after logging it to the event log.
            if let Some(auditor) = auditor.as_mut() {
                if let Some(violation) =
                    auditor.after_event(*events_processed, time, manager, autoscaler.as_ref())
                {
                    if self.telemetry.wants(TelemetryEventKind::AuditViolation) {
                        self.telemetry.log_event(
                            TelemetryEventKind::AuditViolation,
                            time,
                            &[
                                ("checker", EventField::Str(violation.checker)),
                                ("event", EventField::U64(violation.event_id)),
                                (
                                    "server",
                                    EventField::U64(
                                        violation.server.map_or(u64::MAX, |s| u64::from(s.0)),
                                    ),
                                ),
                            ],
                        );
                    }
                    panic!("{violation}");
                }
            }
        }
    }

    /// Assemble the [`SimResult`] from a drained engine state. Wall-clock
    /// time is measured from `started_at` — the current portion of the
    /// run only, so a resumed run reports its own wall time while every
    /// *simulation* field (including the cumulative `events_processed`)
    /// matches the uninterrupted run.
    fn finish(
        &self,
        workload: &[WorkloadVm],
        state: EngineState,
        started_at: std::time::Instant,
    ) -> SimResult {
        // Final memory-ledger publish: runs without utilisation ticks
        // still report settled `mem.*` gauges (and the scale-sweep's
        // before-picture relies on exactly this).
        if self.telemetry.enabled() {
            self.publish_memory(
                workload,
                &state.manager,
                &state.queue,
                &state.index_of,
                &state.records,
                &state.running,
                &state.migrations,
                &state.utilization,
                state.autoscaler.as_ref(),
            );
        }
        let EngineState {
            manager,
            autoscaler,
            records,
            migrations,
            utilization,
            events_processed,
            overcommitment,
            ..
        } = state;
        debug_assert!(manager.check_invariants());
        let _assembly = self.telemetry.span(Phase::ResultAssembly);
        let autoscale = autoscaler.map(Autoscaler::into_stats).unwrap_or_default();
        // Final-state metrics are published exactly once, from settled
        // counters, so snapshots are deterministic at any shard count.
        manager.publish_metrics();
        autoscale.publish_metrics(&self.telemetry);
        self.telemetry
            .gauge_set("engine.events_processed", events_processed as f64);
        self.telemetry
            .gauge_set("engine.shards", self.shards.count() as f64);
        SimResult {
            records,
            counters: manager.counters(),
            transient: manager.transient_counters(),
            scheduler: manager.scheduler_stats(),
            autoscale,
            migrations,
            utilization,
            num_servers: self.config.num_servers,
            overcommitment,
            policy_name: self.mode.name().to_string(),
            runtime: RunStats {
                wall_clock_secs: started_at.elapsed().as_secs_f64(),
                events_processed,
                shards: self.shards.count(),
            },
        }
    }

    /// Publish the per-subsystem memory ledger into the telemetry metrics
    /// registry: one deterministic `mem.<subsystem>` byte gauge per owner
    /// (see [`MemoryLedger`]) plus `mem.accounted_total`, and alongside
    /// them the live `mem.rss_kib` VmRSS reading — the OS-level ground
    /// truth the accounted gauges are compared against by `fig_memory`
    /// (absent off Linux). Caller guards on `telemetry.enabled()`.
    #[allow(clippy::too_many_arguments)]
    fn publish_memory(
        &self,
        workload: &[WorkloadVm],
        manager: &ClusterManager,
        queue: &ShardedEventQueue,
        index_of: &IdMap<VmId, usize>,
        records: &[VmRecord],
        running: &[bool],
        migrations: &[MigrationEvent],
        utilization: &[(f64, f64)],
        autoscaler: Option<&Autoscaler>,
    ) {
        use deflate_core::mem::{map_entry_bytes, vec_bytes};
        use std::mem::size_of;
        let mut ledger = MemoryLedger::new();
        // The sink's own footprint first, measured before this publish
        // grows the registry with the `mem.*` entries themselves.
        ledger.record("telemetry", self.telemetry.accounted_bytes());
        manager.record_memory(&mut ledger);
        ledger.record("event_queue", queue.accounted_bytes());
        ledger.record(
            "vm_records",
            vec_bytes(records)
                + records.iter().map(VmRecord::accounted_bytes).sum::<u64>()
                + vec_bytes(running)
                + index_of.len() as u64 * map_entry_bytes(size_of::<VmId>(), size_of::<usize>()),
        );
        ledger.record(
            "workload",
            vec_bytes(workload)
                + workload
                    .iter()
                    .map(WorkloadVm::accounted_bytes)
                    .sum::<u64>(),
        );
        ledger.record("migration_log", vec_bytes(migrations));
        ledger.record("utilization", vec_bytes(utilization));
        if let Some(autoscaler) = autoscaler {
            ledger.record("autoscaler", autoscaler.accounted_bytes());
        }
        ledger.publish(&self.telemetry);
        if let Some(rss) = deflate_telemetry::rss_kib() {
            self.telemetry.gauge_set("mem.rss_kib", rss);
        }
    }

    /// Serialize a paused engine state as versioned snapshot bytes. The
    /// layout (all little-endian, maps sorted, queue in pop order) is
    /// golden-pinned by `tests/checkpoint_restore.rs`; changing it
    /// requires bumping [`deflate_core::checkpoint::SNAPSHOT_VERSION`].
    /// No wall-clock or otherwise host-dependent value is ever written,
    /// so two snapshots of the same run at the same boundary are
    /// byte-identical across machines, shard counts and telemetry modes.
    fn serialize_state(
        &self,
        workload: &[WorkloadVm],
        state: &EngineState,
        at_secs: f64,
    ) -> Vec<u8> {
        let mut w = ByteWriter::with_header();
        w.put_f64(at_secs);
        w.put_usize(workload.len());
        w.put_u64(state.events_processed);
        let queued = state.queue.contents();
        w.put_usize(queued.len());
        for (time, event) in queued {
            w.put_f64(time);
            event.write_snapshot(&mut w);
        }
        state.manager.write_snapshot(&mut w);
        w.put_bool(state.autoscaler.is_some());
        if let Some(autoscaler) = &state.autoscaler {
            autoscaler.write_snapshot(&mut w);
        }
        for (record, &running) in state.records.iter().zip(&state.running) {
            w.put_bool(running);
            match record.outcome {
                VmOutcome::Completed => w.put_u8(0),
                VmOutcome::Rejected => w.put_u8(1),
                VmOutcome::Preempted { at_secs } => {
                    w.put_u8(2);
                    w.put_f64(at_secs);
                }
                VmOutcome::Evicted { at_secs } => {
                    w.put_u8(3);
                    w.put_f64(at_secs);
                }
            }
            record.usage.write_snapshot(&mut w);
        }
        w.put_usize(state.migrations.len());
        for m in &state.migrations {
            w.put_f64(m.time_secs);
            w.put_u64(m.vm.0);
            w.put_u32(m.from.0);
            w.put_u32(m.to.0);
            w.put_f64(m.duration_secs);
            w.put_f64(m.volume_mb);
            w.put_bool(m.back);
        }
        w.put_usize(state.utilization.len());
        for &(t, u) in &state.utilization {
            w.put_f64(t);
            w.put_f64(u);
        }
        w.into_bytes()
    }

    /// Overwrite an [unscheduled](Self::boot_unscheduled) engine state
    /// with a snapshot's contents. The queue is built through the
    /// ordinary sharded construction —
    /// snapshot bytes store events in the canonical pop order, and routing
    /// is content-addressed, so restoring under any shard count reproduces
    /// the same pops.
    fn restore_state(
        &self,
        workload: &[WorkloadVm],
        state: &mut EngineState,
        snapshot: &[u8],
    ) -> CheckpointResult<()> {
        let mut r = ByteReader::with_header(snapshot)?;
        let _at_secs = r.get_f64()?;
        let num_vms = r.get_usize()?;
        if num_vms != workload.len() {
            return Err(CheckpointError::Corrupt(format!(
                "snapshot taken over {} workload VMs, restoring with {}",
                num_vms,
                workload.len()
            )));
        }
        state.events_processed = r.get_u64()?;
        // A time plus at least the one-byte event tag.
        let queued = r.get_len(9)?;
        let mut events = Vec::with_capacity(queued);
        for _ in 0..queued {
            let time = r.get_f64()?;
            let event = SimEvent::read_snapshot(&mut r)?;
            self.check_event(workload.len(), time, &event)?;
            events.push((time, event));
        }
        state.queue = ShardedEventQueue::build_with_workers(
            self.shards,
            self.config.num_servers,
            workload.len(),
            events,
            &self.telemetry,
            state.pool.as_deref(),
        );
        state.manager.read_snapshot(&mut r)?;
        let has_autoscaler = r.get_bool()?;
        if has_autoscaler != state.autoscaler.is_some() {
            return Err(CheckpointError::Corrupt(
                "snapshot and simulation disagree on autoscaling".to_string(),
            ));
        }
        if let Some(autoscaler) = state.autoscaler.as_mut() {
            autoscaler.read_snapshot(&mut r)?;
        }
        let vms = workload
            .iter()
            .zip(&mut state.records)
            .zip(&mut state.running);
        for ((vm, record), running) in vms {
            *running = r.get_bool()?;
            record.outcome = match r.get_u8()? {
                0 => VmOutcome::Completed,
                1 => VmOutcome::Rejected,
                2 => VmOutcome::Preempted {
                    at_secs: r.get_f64()?,
                },
                3 => VmOutcome::Evicted {
                    at_secs: r.get_f64()?,
                },
                other => {
                    return Err(CheckpointError::Corrupt(format!(
                        "unknown VmOutcome discriminant {other}"
                    )))
                }
            };
            record.usage = UsageSummary::read_snapshot(&mut r, vm.cpu_util.len())?;
        }
        // Time, vm, from, to, duration, volume and the back flag.
        let migrations = r.get_len(41)?;
        state.migrations = Vec::with_capacity(migrations);
        for _ in 0..migrations {
            state.migrations.push(MigrationEvent {
                time_secs: r.get_f64()?,
                vm: VmId(r.get_u64()?),
                from: ServerId(r.get_u32()?),
                to: ServerId(r.get_u32()?),
                duration_secs: r.get_f64()?,
                volume_mb: r.get_f64()?,
                back: r.get_bool()?,
            });
        }
        let samples = r.get_len(16)?;
        state.utilization = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t = r.get_f64()?;
            let u = r.get_f64()?;
            state.utilization.push((t, u));
        }
        r.finish()
    }

    /// Reject a decoded queue entry the engine could not dispatch: a
    /// non-finite time, a VM event past the workload or a capacity event
    /// past the cluster.
    fn check_event(&self, num_vms: usize, time: f64, event: &SimEvent) -> CheckpointResult<()> {
        let valid = time.is_finite()
            && match *event {
                SimEvent::Arrival(i) | SimEvent::Departure(i) => i < num_vms,
                SimEvent::CapacityReclaim { server, .. }
                | SimEvent::CapacityRestore { server, .. } => {
                    (server.0 as usize) < self.config.num_servers
                }
                _ => true,
            };
        if valid {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt(format!(
                "queued event {event:?} at {time} is outside the run"
            )))
        }
    }

    /// Refresh every running VM's recent-utilisation sample from its trace
    /// ahead of a capacity event, so the migration cost model estimates
    /// transfers from current behaviour rather than boot-time idleness.
    /// Only consequential — and only paid for — when a dirty-rate model
    /// is active: without one the samples could never influence an
    /// estimate, so the O(workload) pass is skipped.
    ///
    /// Sharded runs split the pass twice: trace sampling (pure per-VM
    /// reads) fans out over workload chunks, and the per-domain history
    /// updates fan out over server shards
    /// ([`ClusterManager::observe_vm_utilizations`]). Chunks concatenate
    /// in workload order and each domain receives exactly one sample per
    /// pass, so both halves are bit-identical to the sequential loop.
    fn observe_utilizations(
        &self,
        manager: &mut ClusterManager,
        workload: &[WorkloadVm],
        running: &[bool],
        time: f64,
        pool: Option<&WorkerPool>,
    ) {
        if manager.migration_cost().dirty_rate_mbps <= 0.0 {
            return;
        }
        let sample = |(i, vm): (usize, &WorkloadVm)| {
            running[i].then(|| (vm.spec.id, vm.cpu_util.at(time - vm.arrival_secs)))
        };
        let samples: Vec<(VmId, f64)> = if self.shards.is_parallel() {
            let spans = self.shards.spans(workload.len());
            let mut partials: Vec<Option<Vec<(VmId, f64)>>> =
                (0..spans.len()).map(|_| None).collect();
            {
                let mut tasks: Vec<Task<'_>> = Vec::with_capacity(spans.len());
                let mut slots = partials.as_mut_slice();
                for span in &spans {
                    let (slot, rest) = slots.split_first_mut().expect("one slot per span");
                    slots = rest;
                    let base = span.start;
                    let chunk = &workload[span.clone()];
                    tasks.push(Box::new(move || {
                        *slot = Some(
                            chunk
                                .iter()
                                .enumerate()
                                .filter_map(|(k, vm)| sample((base + k, vm)))
                                .collect(),
                        );
                    }));
                }
                run_tasks(pool, self.shards.count(), tasks);
            }
            partials
                .into_iter()
                .flat_map(|p| p.expect("trace-sampling worker ran"))
                .collect()
        } else {
            workload.iter().enumerate().filter_map(sample).collect()
        };
        manager.observe_vm_utilizations(&samples, self.shards);
    }

    /// Fold a capacity-change outcome into the per-VM bookkeeping: evicted
    /// VMs stop running, completed migrations are logged with their
    /// transfer cost, newly started transfers get a `MigrationComplete`
    /// event scheduled, and the usage summaries of every VM on a touched
    /// server are brought up to date. Victims outside the workload are elastic
    /// replicas — they have no record, but the autoscaler must drop them
    /// from its pool (and count the loss).
    #[allow(clippy::too_many_arguments)]
    fn apply_capacity_outcome(
        manager: &ClusterManager,
        outcome: &crate::manager::CapacityChangeOutcome,
        workload: &[WorkloadVm],
        time: f64,
        index_of: &IdMap<VmId, usize>,
        records: &mut [VmRecord],
        running: &mut [bool],
        migrations: &mut Vec<MigrationEvent>,
        queue: &mut ShardedEventQueue,
        autoscaler: &mut Option<Autoscaler>,
    ) {
        for &victim in &outcome.victims {
            if let Some(&vi) = index_of.get(&victim) {
                records[vi].outcome = VmOutcome::Evicted { at_secs: time };
                running[vi] = false;
            } else if let Some(autoscaler) = autoscaler.as_mut() {
                autoscaler.on_replica_evicted(victim);
            }
        }
        for migration in &outcome.migrated {
            migrations.push(MigrationEvent {
                time_secs: time,
                vm: migration.vm,
                from: migration.from,
                to: migration.to,
                duration_secs: migration.duration_secs,
                volume_mb: migration.volume_mb,
                back: migration.back,
            });
        }
        for started in &outcome.started {
            queue.push(
                started.event_secs,
                SimEvent::MigrationComplete {
                    migration: started.id,
                },
            );
        }
        for &server in &outcome.touched {
            Self::record_allocations(manager, server, workload, index_of, records, running, time);
        }
    }

    /// Feed the current CPU fraction of every running workload VM on the
    /// touched server to its usage summary, which ignores unchanged
    /// fractions.
    fn record_allocations(
        manager: &ClusterManager,
        server: deflate_core::vm::ServerId,
        workload: &[WorkloadVm],
        index_of: &IdMap<VmId, usize>,
        records: &mut [VmRecord],
        running: &[bool],
        time: f64,
    ) {
        for (vm, fraction) in manager.allocation_fractions_on(server) {
            let Some(&i) = index_of.get(&vm) else {
                continue;
            };
            if !running[i] {
                continue;
            }
            records[i].record_allocation(&workload[i].cpu_util, time, fraction);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::PlacementKind;
    use crate::spec::{workload_from_azure, MinAllocationRule};
    use deflate_core::placement::PartitionScheme;
    use deflate_core::policy::{DeterministicDeflation, PriorityDeflation, ProportionalDeflation};
    use deflate_core::resources::ResourceVector;
    use deflate_hypervisor::domain::DeflationMechanism;
    use deflate_traces::azure::{AzureTraceConfig, AzureTraceGenerator};
    use deflate_transient::signal::{CapacityProfile, TransientConfig};
    use std::sync::Arc;

    fn small_workload(num_vms: usize, seed: u64) -> Vec<crate::spec::WorkloadVm> {
        let traces = AzureTraceGenerator::generate(&AzureTraceConfig {
            num_vms,
            duration_hours: 12.0,
            seed,
            ..Default::default()
        });
        workload_from_azure(&traces, MinAllocationRule::None)
    }

    fn config(num_servers: usize) -> ClusterConfig {
        ClusterConfig {
            num_servers,
            server_capacity: ResourceVector::cpu_mem(48_000.0, 131_072.0),
            placement: PlacementKind::CosineFitness,
            partitions: PartitionScheme::None,
            mechanism: DeflationMechanism::Transparent,
        }
    }

    fn proportional() -> ReclamationMode {
        ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default()))
    }

    #[test]
    fn uncontended_cluster_admits_everything_with_no_loss() {
        let workload = small_workload(150, 11);
        let servers =
            crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0));
        let sim = ClusterSimulation::new(config(servers), proportional());
        let result = sim.run(&workload);
        assert_eq!(result.records.len(), workload.len());
        assert!(result.failure_probability() < 0.02);
        assert!(result.mean_throughput_loss() < 0.01);
        assert!(result.counters.attempts() >= workload.len());
        // No capacity schedule → no transient activity.
        assert_eq!(result.transient.reclaim_events, 0);
        assert!(result.migrations.is_empty());
    }

    #[test]
    fn overcommitted_cluster_deflates_instead_of_failing() {
        let workload = small_workload(200, 13);
        let baseline =
            crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0));
        let shrunk = (baseline as f64 / 1.5).floor().max(1.0) as usize;
        let sim = ClusterSimulation::new(config(shrunk), proportional());
        let result = sim.run(&workload);
        // Deflation happened.
        assert!(result.counters.admitted_with_deflation > 0 || result.deflated_vm_fraction() > 0.0);
        // Failure probability stays far below the preemption baseline.
        let preemption_sim = ClusterSimulation::new(config(shrunk), ReclamationMode::Preemption);
        let preemption = preemption_sim.run(&workload);
        assert!(
            result.failure_probability() <= preemption.failure_probability(),
            "deflation failures {} should not exceed preemption failures {}",
            result.failure_probability(),
            preemption.failure_probability()
        );
        // Throughput loss is modest at ~50% overcommitment (Figure 21).
        assert!(
            result.mean_throughput_loss() < 0.10,
            "throughput loss {}",
            result.mean_throughput_loss()
        );
    }

    #[test]
    fn policies_are_all_runnable() {
        let workload = small_workload(100, 17);
        let servers =
            (crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0))
                as f64
                / 1.4)
                .floor()
                .max(1.0) as usize;
        for mode in [
            ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default())),
            ReclamationMode::Deflation(Arc::new(PriorityDeflation::default())),
            ReclamationMode::Deflation(Arc::new(DeterministicDeflation::binary())),
            ReclamationMode::Preemption,
            ReclamationMode::MigrationOnly,
        ] {
            let name = mode.name().to_string();
            let sim = ClusterSimulation::new(config(servers), mode);
            let result = sim.run(&workload);
            assert_eq!(result.policy_name, name);
            assert!(result.failure_probability() <= 1.0);
            assert!(result.mean_throughput_loss() <= 1.0);
        }
    }

    /// Stepping the engine to each arrival time: a VM that was admitted
    /// has its last (so its first) change-point at its arrival, a
    /// rejected one was never placed. At the end every completed VM was
    /// placed, with change-points in time order and a fraction in (0, 1].
    #[test]
    fn allocation_summaries_start_at_admission() {
        let workload = small_workload(80, 23);
        let servers =
            crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0));
        let sim = ClusterSimulation::new(config(servers), proportional());
        let mut state = sim.boot(&workload);
        let mut admitted = 0;
        for (i, vm) in workload.iter().enumerate() {
            sim.drive(&workload, &mut state, Some(vm.arrival_secs));
            let record = &state.records[i];
            match record.outcome {
                VmOutcome::Rejected => assert!(!record.usage.placed()),
                _ => {
                    admitted += 1;
                    let (t0, f0) = record.usage.last_change().expect("admitted VMs are placed");
                    assert_eq!(t0, vm.arrival_secs);
                    assert!(f0 > 0.0 && f0 <= 1.0 + 1e-9);
                }
            }
        }
        assert!(admitted > 0);
        sim.drive(&workload, &mut state, None);
        let result = sim.finish(&workload, state, std::time::Instant::now());
        assert_eq!(result, sim.run(&workload));
        for record in result
            .records
            .iter()
            .filter(|r| matches!(r.outcome, VmOutcome::Completed))
        {
            let (t, f) = record
                .usage
                .last_change()
                .expect("completed VMs were placed");
            assert!(t >= record.arrival_secs && t <= record.departure_secs);
            assert!(f > 0.0 && f <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn partitioned_placement_runs() {
        let workload = small_workload(120, 29);
        let baseline =
            crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0));
        let mut cfg = config((baseline as f64 / 1.3).floor().max(2.0) as usize);
        cfg.partitions = PartitionScheme::ByPriority { pools: 2 };
        let sim = ClusterSimulation::new(cfg, proportional());
        let result = sim.run(&workload);
        assert!(result.failure_probability() <= 1.0);
    }

    #[test]
    fn capacity_schedule_triggers_reclaims_and_utilization_ticks() {
        let workload = small_workload(150, 31);
        let servers =
            crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0));
        let schedule = deflate_transient::signal::CapacitySchedule::generate(&TransientConfig {
            num_servers: servers,
            transient_fraction: 1.0,
            duration_secs: 12.0 * 3600.0,
            profile: CapacityProfile::SquareWave {
                period_secs: 2.0 * 3600.0,
                keep_fraction: 0.5,
                duty: 0.4,
            },
            seed: 5,
        });
        assert!(!schedule.is_empty());
        let sim = ClusterSimulation::new(config(servers), proportional())
            .with_capacity_schedule(schedule.clone())
            .with_utilization_ticks(1800.0)
            .with_migrate_back(true);
        let result = sim.run(&workload);
        assert_eq!(result.transient.reclaim_events, schedule.reclaim_count());
        assert!(result.transient.restore_events > 0);
        assert!(!result.utilization.is_empty());
        for &(_, u) in &result.utilization {
            assert!((0.0..=1.0 + 1e-9).contains(&u));
        }
        // Deterministic: the same run again yields the identical result.
        let again = ClusterSimulation::new(config(servers), proportional())
            .with_capacity_schedule(schedule)
            .with_utilization_ticks(1800.0)
            .with_migrate_back(true)
            .run(&workload);
        assert_eq!(result, again);
    }

    #[test]
    fn sharded_engine_is_bit_identical_to_sequential() {
        let workload = small_workload(160, 41);
        let servers =
            (crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0))
                as f64
                / 1.3)
                .floor()
                .max(2.0) as usize;
        let schedule = deflate_transient::signal::CapacitySchedule::generate(&TransientConfig {
            num_servers: servers,
            transient_fraction: 1.0,
            duration_secs: 12.0 * 3600.0,
            profile: CapacityProfile::SquareWave {
                period_secs: 2.0 * 3600.0,
                keep_fraction: 0.5,
                duty: 0.4,
            },
            seed: 7,
        });
        // A dirty-rate model makes the utilisation-observation pass (the
        // sharded trace sampling) actually run.
        let cost = deflate_hypervisor::migration::MigrationCostModel::lan_default()
            .with_budget_mbps(1250.0)
            .with_deadline_secs(30.0)
            .with_dirty_rate(800.0, 2.0);
        let run = |shards: usize| {
            ClusterSimulation::new(config(servers), proportional())
                .with_capacity_schedule(schedule.clone())
                .with_utilization_ticks(1800.0)
                .with_migrate_back(true)
                .with_migration_cost(cost)
                .with_shards(deflate_core::shard::ShardConfig::with_shards(shards))
                .run(&workload)
        };
        let sequential = run(1);
        assert!(sequential.runtime.events_processed > 0);
        assert_eq!(sequential.runtime.shards, 1);
        for shards in [2, 3, 4, 8] {
            let sharded = run(shards);
            assert_eq!(sharded.runtime.shards, shards);
            assert_eq!(
                sequential, sharded,
                "{shards}-shard run diverged from the sequential engine"
            );
        }
    }

    #[test]
    fn autoscaling_runs_deterministically_and_disabled_is_bit_identical() {
        let workload = small_workload(120, 43);
        let servers =
            crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0))
                + 2;
        let schedule = deflate_transient::signal::CapacitySchedule::generate(&TransientConfig {
            num_servers: servers,
            transient_fraction: 1.0,
            duration_secs: 12.0 * 3600.0,
            profile: CapacityProfile::spot_market_default(),
            seed: 11,
        });
        let app = deflate_autoscale::ElasticApp {
            app: 0,
            replica_size: ResourceVector::cpu_mem(4000.0, 8192.0),
            replica_priority: deflate_core::vm::Priority::new(0.5),
            replica_rate_rps: 100.0,
            replica_ids_from: 1_000_000,
            min_replicas: 2,
            max_replicas: 12,
            demand: deflate_autoscale::DemandCurve::Diurnal {
                base_rps: 150.0,
                peak_rps: 600.0,
                period_secs: 4.0 * 3600.0,
                peak_at_secs: 0.0,
            },
            start_secs: 0.0,
        };
        let run = |policy: deflate_core::policy::AutoscalePolicy| {
            ClusterSimulation::new(config(servers), proportional())
                .with_capacity_schedule(schedule.clone())
                .with_utilization_ticks(600.0)
                .with_migrate_back(true)
                .with_autoscale(policy, vec![app.clone()])
                .run(&workload)
        };
        // Disabled autoscaling is bit-identical to never configuring it.
        let plain = ClusterSimulation::new(config(servers), proportional())
            .with_capacity_schedule(schedule.clone())
            .with_utilization_ticks(600.0)
            .with_migrate_back(true)
            .run(&workload);
        let disabled = run(deflate_core::policy::AutoscalePolicy::Disabled);
        assert_eq!(plain, disabled);
        assert_eq!(disabled.autoscale, Default::default());
        // Enabled policies actually scale, deterministically.
        for policy in [
            deflate_core::policy::AutoscalePolicy::target_tracking(),
            deflate_core::policy::AutoscalePolicy::deflation_aware(),
        ] {
            let result = run(policy);
            assert!(result.autoscale.launches > 0, "{}", policy.name());
            assert!(result.autoscale.ticks > 0);
            assert!(result.autoscale.scale_actions() > 0);
            assert!(result.autoscale.replicas_conserved());
            // Every surviving replica is still accounted for by the
            // cluster: conservation holds at the manager level too.
            assert_eq!(result, run(policy), "{} not deterministic", policy.name());
        }
        // The deflation-aware run parks and reinflates.
        let da = run(deflate_core::policy::AutoscalePolicy::deflation_aware());
        assert!(da.autoscale.parks > 0);
        assert!(da.autoscale.reinflations > 0);
    }

    #[test]
    fn preemption_baseline_keeps_the_replica_ledger_consistent() {
        // A deliberately tight preemption-mode cluster: arrivals preempt
        // residents — including elastic replicas — and every such loss
        // must reach the autoscaler's books.
        let workload = small_workload(150, 47);
        let servers =
            (crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0))
                as f64
                / 1.6)
                .floor()
                .max(2.0) as usize;
        let app = deflate_autoscale::ElasticApp {
            app: 0,
            replica_size: ResourceVector::cpu_mem(4000.0, 8192.0),
            replica_priority: deflate_core::vm::Priority::new(0.2),
            replica_rate_rps: 100.0,
            replica_ids_from: 1_000_000,
            min_replicas: 2,
            max_replicas: 10,
            demand: deflate_autoscale::DemandCurve::Constant { rps: 500.0 },
            start_secs: 0.0,
        };
        let result = ClusterSimulation::new(config(servers), ReclamationMode::Preemption)
            .with_utilization_ticks(600.0)
            .with_autoscale(
                deflate_core::policy::AutoscalePolicy::target_tracking(),
                vec![app],
            )
            .run(&workload);
        let stats = &result.autoscale;
        assert!(stats.launches > 0);
        assert!(
            stats.replicas_lost > 0,
            "the tight cluster should preempt replicas: {stats:?}"
        );
        assert!(stats.replicas_conserved(), "{stats:?}");
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_to_uninterrupted_run() {
        let workload = small_workload(140, 53);
        let servers =
            (crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0))
                as f64
                / 1.3)
                .floor()
                .max(2.0) as usize;
        let schedule = deflate_transient::signal::CapacitySchedule::generate(&TransientConfig {
            num_servers: servers,
            transient_fraction: 1.0,
            duration_secs: 12.0 * 3600.0,
            profile: CapacityProfile::SquareWave {
                period_secs: 2.0 * 3600.0,
                keep_fraction: 0.5,
                duty: 0.4,
            },
            seed: 19,
        });
        let cost = deflate_hypervisor::migration::MigrationCostModel::lan_default()
            .with_budget_mbps(1250.0)
            .with_deadline_secs(30.0)
            .with_dirty_rate(800.0, 2.0);
        let sim = ClusterSimulation::new(config(servers), proportional())
            .with_capacity_schedule(schedule)
            .with_utilization_ticks(1800.0)
            .with_migrate_back(true)
            .with_migration_cost(cost);
        let full = sim.run(&workload);
        for at_secs in [0.0, 3.0 * 3600.0, 7.5 * 3600.0, 13.0 * 3600.0] {
            let snapshot = sim.checkpoint(&workload, at_secs);
            assert!(
                ClusterSimulation::snapshot_time(&snapshot).unwrap() == at_secs,
                "snapshot timestamp survives the round trip"
            );
            let resumed = sim.resume(&workload, &snapshot).unwrap();
            assert_eq!(full, resumed, "restore diverged at T={at_secs}");
            assert_eq!(
                full.runtime.events_processed, resumed.runtime.events_processed,
                "events_processed must be cumulative across the boundary"
            );
            // Snapshot bytes are a pure function of the simulated prefix:
            // taking the same checkpoint again (different wall clock) must
            // produce the identical bytes.
            assert_eq!(
                snapshot,
                sim.checkpoint(&workload, at_secs),
                "snapshot bytes must be wall-clock independent at T={at_secs}"
            );
        }
        // Leapfrog: advance an early snapshot instead of re-running the
        // prefix; the continuation must match a direct checkpoint.
        let early = sim.checkpoint(&workload, 2.0 * 3600.0);
        let advanced = sim.resume_until(&workload, &early, 9.0 * 3600.0).unwrap();
        assert_eq!(advanced, sim.checkpoint(&workload, 9.0 * 3600.0));
        let resumed = sim.resume(&workload, &advanced).unwrap();
        assert_eq!(full, resumed);
    }

    /// A resume builds only the queue its snapshot brings, never the
    /// fresh schedule, and still ends where the uninterrupted run does.
    #[test]
    fn resume_skips_the_fresh_schedule() {
        let workload = small_workload(80, 23);
        let servers =
            crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0));
        let sim = || {
            ClusterSimulation::new(config(servers), proportional()).with_utilization_ticks(1800.0)
        };
        let snapshot = sim().checkpoint(&workload, 3.0 * 3600.0);
        let sink = TelemetrySink::from_spec(&TelemetrySpec::profiling()).unwrap();
        let resumed = sim()
            .with_telemetry(sink.clone())
            .resume(&workload, &snapshot)
            .unwrap();
        assert_eq!(resumed, sim().run(&workload));
        let phases = sink.finish().unwrap().phases.phases;
        let entered = |phase| phases.iter().any(|row| row.phase == phase);
        assert!(!entered(Phase::ScheduleBuild), "resume built a schedule");
        assert!(entered(Phase::Heapify), "the restored queue is built");
    }

    #[test]
    fn deflation_survives_reclamation_better_than_preemption() {
        let workload = small_workload(180, 37);
        let servers =
            crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0));
        let schedule = deflate_transient::signal::CapacitySchedule::generate(&TransientConfig {
            num_servers: servers,
            transient_fraction: 1.0,
            duration_secs: 12.0 * 3600.0,
            profile: CapacityProfile::SquareWave {
                period_secs: 3.0 * 3600.0,
                keep_fraction: 0.4,
                duty: 0.3,
            },
            seed: 9,
        });
        let run = |mode: ReclamationMode| {
            ClusterSimulation::new(config(servers), mode)
                .with_capacity_schedule(schedule.clone())
                .run(&workload)
        };
        let deflation = run(proportional());
        let preemption = run(ReclamationMode::Preemption);
        assert!(
            deflation.failure_probability() < preemption.failure_probability(),
            "deflation {} should beat preemption {}",
            deflation.failure_probability(),
            preemption.failure_probability()
        );
        // Preemption killed VMs; deflation absorbed (most of) the shock.
        assert!(preemption.transient.reclamation_victims > 0);
        assert!(
            deflation.transient.absorbed_by_deflation > 0 || deflation.transient.migrations > 0
        );
    }
}

//! The traced replay: drives a workload through `ClusterManager`'s public
//! calls with its own `EventQueue`, dispatching events the way the engine
//! does, with a span around every call into a layer.
//!
//! Span names: `replay` (root, one per replayed run), `event.<kind>` (one
//! per delivered event), `transient.pop` / `transient.push` (queue
//! operations), `cluster.<fn>` (each manager call), `mem.record` (the
//! memory ledger read at each utilisation tick) and `core.read_snapshot`
//! (restoring the fork's snapshot into the manager).

use crate::spans::SpanRecorder;
use crate::workload::{fork_policies, reclamation_mode, spot_migration_cost, Prepared, Workload};
use deflate_cluster::manager::{
    AdmissionCounters, CapacityChangeOutcome, ClusterManager, PlacementResult, TransientCounters,
};
use deflate_cluster::scheduler::SchedulerStats;
use deflate_core::checkpoint::{ByteReader, CheckpointResult};
use deflate_core::policy::TransferPolicy;
use deflate_core::vm::VmId;
use deflate_telemetry::MemoryLedger;
use deflate_transient::events::{EventQueue, SimEvent};
use std::collections::HashMap;

/// The manager subsystems whose `record_memory` rows the replay tracks.
pub const MEMORY_ROWS: [&str; 4] = ["servers", "placement_index", "scheduler", "migrations"];

/// Peak and final bytes of each [`MEMORY_ROWS`] entry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryRows {
    /// High-water mark over every sample.
    pub peak: [u64; 4],
    /// The last sample.
    pub last: [u64; 4],
}

impl MemoryRows {
    fn sample(&mut self, manager: &ClusterManager) {
        let mut ledger = MemoryLedger::new();
        manager.record_memory(&mut ledger);
        for (k, row) in MEMORY_ROWS.iter().enumerate() {
            let bytes = ledger.get(row);
            self.last[k] = bytes;
            self.peak[k] = self.peak[k].max(bytes);
        }
    }

    fn merge_peak(&mut self, other: &MemoryRows) {
        for k in 0..MEMORY_ROWS.len() {
            self.peak[k] = self.peak[k].max(other.peak[k]);
        }
        self.last = other.last;
    }
}

/// What one replayed run ended with: the manager's counters (for the
/// equivalence check against the engine's `SimResult`) and the exact
/// outcome counts the replay saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayRun {
    /// `ClusterManager::counters` at the end.
    pub counters: AdmissionCounters,
    /// `ClusterManager::transient_counters` at the end.
    pub transient: TransientCounters,
    /// `ClusterManager::scheduler_stats` at the end.
    pub scheduler: SchedulerStats,
    /// Events popped (after the snapshot, for resumes).
    pub events: u64,
    /// Transfers started (`outcome.started`).
    pub migrations_started: u64,
    /// Migrations completed (`outcome.migrated`).
    pub migrations_completed: u64,
    /// VMs destroyed (`outcome.victims`).
    pub victims: u64,
    /// Transfers aborted at their deadline (after the snapshot, for
    /// resumes, whose restored counters include the earlier aborts).
    pub migration_aborts: u64,
}

/// A whole replay of a workload: one run, or one per fork policy.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// One entry per measured call, in call order.
    pub runs: Vec<ReplayRun>,
    /// Manager memory rows over all runs.
    pub memory: MemoryRows,
}

struct Dispatch<'a> {
    prepared: &'a Prepared,
    manager: ClusterManager,
    queue: EventQueue,
    running: Vec<bool>,
    index_of: &'a HashMap<VmId, usize>,
    memory: MemoryRows,
    run: ReplayRun,
}

/// Replay `prepared` through the manager, recording spans into `rec`.
pub fn replay(prepared: &Prepared, rec: &mut SpanRecorder) -> Result<Replay, String> {
    let index_of: HashMap<VmId, usize> = prepared
        .vms
        .iter()
        .enumerate()
        .map(|(i, vm)| (vm.spec.id, i))
        .collect();
    let mut out = Replay::default();
    match prepared.workload {
        Workload::Fork => {
            for policy in fork_policies() {
                let root = rec.open("replay");
                let restored = rec.time("core.read_snapshot", || {
                    restore(prepared, policy, &prepared.snapshot)
                });
                let (manager, queue, running) = restored.map_err(|e| e.to_string())?;
                let dispatch = Dispatch::new(prepared, manager, queue, running, &index_of);
                let (run, memory) = dispatch.drive(rec);
                rec.close(root);
                out.runs.push(run);
                out.memory.merge_peak(&memory);
            }
        }
        _ => {
            let root = rec.open("replay");
            let manager = new_manager(prepared, TransferPolicy::default());
            let queue = EventQueue::from_events(initial_events(prepared));
            let running = vec![false; prepared.vms.len()];
            let dispatch = Dispatch::new(prepared, manager, queue, running, &index_of);
            let (run, memory) = dispatch.drive(rec);
            rec.close(root);
            out.runs.push(run);
            out.memory.merge_peak(&memory);
        }
    }
    Ok(out)
}

/// A manager configured the way the engine boots one for `prepared`.
fn new_manager(prepared: &Prepared, policy: TransferPolicy) -> ClusterManager {
    let manager = ClusterManager::new(&prepared.config, reclamation_mode());
    if prepared.workload.is_transient() {
        manager
            .with_migration_cost(spot_migration_cost())
            .with_transfer_policy(policy)
    } else {
        manager
    }
}

/// The events the engine schedules up front: arrivals, departures,
/// capacity changes and utilisation ticks up to the last departure.
fn initial_events(prepared: &Prepared) -> Vec<(f64, SimEvent)> {
    let mut events = Vec::with_capacity(prepared.vms.len() * 2 + prepared.schedule.len());
    let mut horizon: f64 = 0.0;
    for (i, vm) in prepared.vms.iter().enumerate() {
        events.push((vm.arrival_secs, SimEvent::Arrival(i)));
        events.push((vm.departure_secs, SimEvent::Departure(i)));
        horizon = horizon.max(vm.departure_secs);
    }
    for change in prepared.schedule.changes() {
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
    let mut t = 0.0;
    while t <= horizon {
        events.push((t, SimEvent::UtilizationTick));
        t += crate::workload::TICK_SECS;
    }
    events
}

/// Restore a fork snapshot's queue, manager state and running flags.
/// Layout: header, time, VM count, event count, queued events, manager,
/// autoscaler flag, then per VM its running flag, outcome and allocation
/// history.
fn restore(
    prepared: &Prepared,
    policy: TransferPolicy,
    snapshot: &[u8],
) -> CheckpointResult<(ClusterManager, EventQueue, Vec<bool>)> {
    let mut r = ByteReader::with_header(snapshot)?;
    r.get_f64()?;
    let num_vms = r.get_usize()?;
    r.get_u64()?;
    let queued = r.get_usize()?;
    let mut events = Vec::with_capacity(queued.min(r.remaining()));
    for _ in 0..queued {
        let time = r.get_f64()?;
        events.push((time, SimEvent::read_snapshot(&mut r)?));
    }
    let mut manager = new_manager(prepared, policy);
    manager.read_snapshot(&mut r)?;
    r.get_bool()?;
    let mut running = Vec::with_capacity(num_vms.min(r.remaining()));
    for _ in 0..num_vms {
        running.push(r.get_bool()?);
        if r.get_u8()? >= 2 {
            r.get_f64()?;
        }
        let points = r.get_usize()?;
        r.take(points.saturating_mul(16))?;
    }
    Ok((manager, EventQueue::from_events(events), running))
}

impl<'a> Dispatch<'a> {
    fn new(
        prepared: &'a Prepared,
        manager: ClusterManager,
        queue: EventQueue,
        running: Vec<bool>,
        index_of: &'a HashMap<VmId, usize>,
    ) -> Self {
        Dispatch {
            prepared,
            manager,
            queue,
            running,
            index_of,
            memory: MemoryRows::default(),
            run: ReplayRun {
                counters: AdmissionCounters::default(),
                transient: TransientCounters::default(),
                scheduler: SchedulerStats::default(),
                events: 0,
                migrations_started: 0,
                migrations_completed: 0,
                victims: 0,
                migration_aborts: 0,
            },
        }
    }

    /// The engine's dispatch loop, one span per event and per call.
    fn drive(mut self, rec: &mut SpanRecorder) -> (ReplayRun, MemoryRows) {
        let vms = &self.prepared.vms;
        let aborts_before = self.manager.transient_counters().migration_aborts;
        loop {
            let popped = rec.time("transient.pop", || self.queue.pop());
            let Some((time, event)) = popped else { break };
            self.run.events += 1;
            match event {
                SimEvent::Arrival(i) => {
                    let span = rec.open("event.arrival");
                    let manager = &mut self.manager;
                    let placed =
                        rec.time("cluster.place_vm", || manager.place_vm(vms[i].spec.clone()));
                    match placed {
                        PlacementResult::Rejected => {}
                        PlacementResult::PlacedWithPreemption { preempted, .. } => {
                            self.running[i] = true;
                            for victim in preempted {
                                if let Some(&vi) = self.index_of.get(&victim) {
                                    self.running[vi] = false;
                                }
                            }
                        }
                        _ => self.running[i] = true,
                    }
                    rec.close(span);
                }
                SimEvent::Departure(i) => {
                    let span = rec.open("event.departure");
                    if self.running[i] {
                        let manager = &mut self.manager;
                        // The engine ignores the result the same way.
                        let _ = rec.time("cluster.remove_vm", || manager.remove_vm(vms[i].spec.id));
                        self.running[i] = false;
                    }
                    rec.close(span);
                }
                SimEvent::CapacityReclaim {
                    server,
                    available_fraction,
                } => {
                    let span = rec.open("event.reclaim");
                    let manager = &mut self.manager;
                    let outcome = rec.time("cluster.reclaim_capacity", || {
                        manager.reclaim_capacity(server, available_fraction, time)
                    });
                    self.apply(&outcome, rec);
                    rec.close(span);
                }
                SimEvent::CapacityRestore {
                    server,
                    available_fraction,
                } => {
                    let span = rec.open("event.restore");
                    let manager = &mut self.manager;
                    let outcome = rec.time("cluster.restore_capacity", || {
                        manager.restore_capacity(server, available_fraction, true, time)
                    });
                    self.apply(&outcome, rec);
                    rec.close(span);
                }
                SimEvent::MigrationComplete { migration } => {
                    let span = rec.open("event.migration_complete");
                    let manager = &mut self.manager;
                    let outcome = rec.time("cluster.complete_migration", || {
                        manager.complete_migration(migration, time)
                    });
                    self.apply(&outcome, rec);
                    rec.close(span);
                }
                SimEvent::UtilizationTick => {
                    let span = rec.open("event.tick");
                    let (memory, manager) = (&mut self.memory, &self.manager);
                    rec.time("mem.record", || memory.sample(manager));
                    rec.close(span);
                }
                // No workload runs elastic applications.
                SimEvent::ScaleOut { .. } | SimEvent::ScaleIn { .. } => {}
            }
        }
        self.memory.sample(&self.manager);
        self.run.counters = self.manager.counters();
        self.run.transient = self.manager.transient_counters();
        self.run.scheduler = self.manager.scheduler_stats();
        self.run.migration_aborts = (self.run.transient.migration_aborts - aborts_before) as u64;
        (self.run, self.memory)
    }

    /// Fold a capacity-change outcome back in, as the engine does: victims
    /// stop running, and every started transfer's completion is queued.
    fn apply(&mut self, outcome: &CapacityChangeOutcome, rec: &mut SpanRecorder) {
        for victim in &outcome.victims {
            if let Some(&vi) = self.index_of.get(victim) {
                self.running[vi] = false;
            }
        }
        self.run.victims += outcome.victims.len() as u64;
        self.run.migrations_completed += outcome.migrated.len() as u64;
        self.run.migrations_started += outcome.started.len() as u64;
        for started in &outcome.started {
            let queue = &mut self.queue;
            rec.time("transient.push", || {
                queue.push(
                    started.event_secs,
                    SimEvent::MigrationComplete {
                        migration: started.id,
                    },
                )
            });
        }
    }
}

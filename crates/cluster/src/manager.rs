//! The centralized cluster manager (§6).
//!
//! The cluster manager owns one [`LocalController`] per server, implements
//! the deflation-aware placement of §5.2 (fitness-based, optionally
//! partitioned by priority) and the three-step admission protocol of §6:
//!
//! 1. the manager picks the "best" server for the incoming VM based on the
//!    VM's size and all servers' utilisation;
//! 2. that server computes the deflation required to accommodate the VM and
//!    rejects it if any resource constraint would be violated;
//! 3. the deflation is performed and the VM is launched.
//!
//! If the chosen server rejects the VM the manager retries on the remaining
//! feasible servers; only when every server has rejected it is the VM
//! reported as a reclamation failure (the event counted by Figure 20).
//!
//! The manager can also run in **preemption mode**, the baseline current
//! clouds implement: instead of deflating resident low-priority VMs it kills
//! them (lowest priority first) until the new VM fits.
//!
//! # Migration cost
//!
//! Migrations are priced with a [`MigrationCostModel`]: moving a VM takes
//! `floor + hot footprint × overhead / bandwidth` seconds, each server can
//! drive only as many concurrent transfers as its migration-bandwidth
//! budget allows (excess transfers queue), and a transfer that cannot
//! finish before the source's reclamation deadline is **aborted** and the
//! VM evicted — the transient-server race of §2. While a transfer is in
//! flight the VM is accounted on *both* ends: its domain keeps running on
//! the source (which may transiently exceed its reclaimed capacity) and
//! its reservation occupies the destination. The default model is
//! [`MigrationCostModel::instant`], which reproduces the historical
//! free-migration behaviour; simulations opt into costed migration with
//! [`ClusterManager::with_migration_cost`].
//!
//! # Transfer scheduling
//!
//! *Which* queued transfer gets the next bandwidth slot is decided by the
//! global [`TransferScheduler`] (see [`crate::scheduler`]), configured via
//! [`ClusterManager::with_transfer_policy`]. The default FIFO policy books
//! slots in request order, bit-identical to the greedy booking that
//! predated the scheduler; `SmallestFirst` and deadline-aware `Edf`
//! reorder each capacity event's batch, and EDF additionally *rejects*
//! transfers that provably cannot finish before their source's reclamation
//! deadline (counted in [`TransientCounters::migration_rejections`] — the
//! VM falls through to the eviction rung instead of wasting link time on a
//! doomed copy). With `deflate_then_migrate` set, the reclaim ladder
//! deliberately deflates migration candidates first — the guest surrenders
//! its page cache, shrinking the hot footprint and the copy time under the
//! deadline.
//!
//! # Slots and the change log
//!
//! Every VM has a dense `u32` **slot**, carried by its domains
//! ([`Domain::slot`]): a caller that reserves slots
//! ([`ClusterManager::with_reserved_slots`]) places its own VMs by slot
//! (the simulator uses the workload index), and the [`VmId`] calls
//! (`place_vm`, `remove_vm`, `locate`, the autoscaler's) resolve an id
//! through one map to a slot appended after the reserved ones. The
//! manager's per-VM state — location, migration origin, in-flight
//! transfer — is one slot-indexed table.
//!
//! Every change a VM's recorded CPU fraction can see — its effective CPU
//! allocation moving, or the VM landing on or leaving a server — appends
//! its slot to the **change log** ([`ClusterManager::changed_slots`]).
//! The simulator folds only those slots into the usage summaries after
//! each event. Each event-level call (placement, removal, capacity change,
//! migration completion) starts a new log; the autoscaler's calls append
//! to the current one, so one scale event's calls are read together.

use crate::audit::AuditFinding;
use crate::placement::PlacementIndex;
use crate::scheduler::{SchedulerStats, TransferDecision, TransferRequest, TransferScheduler};
use deflate_autoscale::ElasticCluster;
use deflate_core::checkpoint::{ByteReader, ByteWriter, CheckpointError, CheckpointResult};
use deflate_core::error::{DeflateError, Result};
use deflate_core::placement::{
    BestFit, CosineFitness, FirstFit, PartitionScheme, PartitionedPlacement, PlacementDecision,
    PlacementPolicy, ServerView, WorstFit,
};
use deflate_core::policy::{DeflationPolicy, TransferPolicy};
use deflate_core::resources::{ResourceKind, ResourceVector};
use deflate_core::vm::{IdMap, ServerId, VmId, VmSpec};
use deflate_hypervisor::controller::{AdmissionOutcome, LocalController};
use deflate_hypervisor::domain::{DeflationMechanism, Domain};
use deflate_hypervisor::migration::MigrationCostModel;
use deflate_hypervisor::server::SimServer;
use deflate_telemetry::{MemoryLedger, Phase, TelemetrySink};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which placement heuristic the manager uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementKind {
    /// Cosine-similarity fitness (§5.2), the paper's default.
    CosineFitness,
    /// First-fit bin packing.
    FirstFit,
    /// Best-fit bin packing.
    BestFit,
    /// Worst-fit (most available) packing.
    WorstFit,
}

impl PlacementKind {
    fn build(&self, scheme: PartitionScheme) -> Box<dyn PlacementPolicy> {
        match self {
            PlacementKind::CosineFitness => Box::new(PartitionedPlacement::new(
                scheme,
                CosineFitness::load_balancing(),
            )),
            PlacementKind::FirstFit => Box::new(PartitionedPlacement::new(scheme, FirstFit)),
            PlacementKind::BestFit => Box::new(PartitionedPlacement::new(scheme, BestFit)),
            PlacementKind::WorstFit => Box::new(PartitionedPlacement::new(scheme, WorstFit)),
        }
    }

    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            PlacementKind::CosineFitness => "cosine-fitness",
            PlacementKind::FirstFit => "first-fit",
            PlacementKind::BestFit => "best-fit",
            PlacementKind::WorstFit => "worst-fit",
        }
    }
}

/// How resources are reclaimed from low-priority VMs under pressure.
#[derive(Clone)]
pub enum ReclamationMode {
    /// Deflate resident VMs using the given server-level policy.
    Deflation(Arc<dyn DeflationPolicy>),
    /// Preempt (kill) resident low-priority VMs — the transient-server
    /// baseline the paper compares against in Figure 20.
    Preemption,
    /// Never deflate or preempt for arrivals; absorb provider-side capacity
    /// reclamation by live-migrating resident VMs at full size. The
    /// migration-only baseline of the transient-capacity experiments.
    MigrationOnly,
}

impl ReclamationMode {
    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            ReclamationMode::Deflation(p) => p.name(),
            ReclamationMode::Preemption => "preemption",
            ReclamationMode::MigrationOnly => "migration-only",
        }
    }
}

impl std::fmt::Debug for ReclamationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReclamationMode({})", self.name())
    }
}

/// Static cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of physical servers.
    pub num_servers: usize,
    /// Per-server hardware capacity.
    pub server_capacity: ResourceVector,
    /// Placement heuristic.
    pub placement: PlacementKind,
    /// Cluster partitioning scheme (§5.2.1).
    pub partitions: PartitionScheme,
    /// Deflation mechanism used by the per-server controllers.
    pub mechanism: DeflationMechanism,
}

impl ClusterConfig {
    /// The paper's simulated cluster: `num_servers` servers of 48 CPUs /
    /// 128 GB, cosine-fitness placement, no partitions, transparent
    /// mechanisms (mechanism choice is irrelevant at cluster granularity).
    pub fn paper_default(num_servers: usize) -> Self {
        ClusterConfig {
            num_servers,
            server_capacity: crate::spec::paper_server_capacity(),
            placement: PlacementKind::CosineFitness,
            partitions: PartitionScheme::None,
            mechanism: DeflationMechanism::Transparent,
        }
    }
}

/// Result of asking the cluster to place one VM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlacementResult {
    /// Placed without disturbing anyone.
    Placed {
        /// Chosen server.
        server: ServerId,
    },
    /// Placed after deflating resident VMs.
    PlacedWithDeflation {
        /// Chosen server.
        server: ServerId,
        /// Resources reclaimed from residents.
        reclaimed: ResourceVector,
    },
    /// Placed after preempting resident VMs (preemption mode only).
    PlacedWithPreemption {
        /// Chosen server.
        server: ServerId,
        /// VMs that were killed to make room.
        preempted: Vec<VmId>,
    },
    /// No server could make room: a reclamation failure (Figure 20's event).
    Rejected,
}

impl PlacementResult {
    /// True when the VM ended up running somewhere.
    pub fn is_placed(&self) -> bool {
        !matches!(self, PlacementResult::Rejected)
    }
}

/// Aggregate admission counters maintained by the manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionCounters {
    /// VMs admitted without any reclamation.
    pub admitted_free: usize,
    /// VMs admitted after deflating residents.
    pub admitted_with_deflation: usize,
    /// VMs admitted after preempting residents.
    pub admitted_with_preemption: usize,
    /// VMs rejected because no server could reclaim enough resources.
    pub rejected: usize,
    /// Resident VMs killed by the preemption baseline.
    pub preempted_vms: usize,
}

impl AdmissionCounters {
    /// Total placement attempts.
    pub fn attempts(&self) -> usize {
        self.admitted_free
            + self.admitted_with_deflation
            + self.admitted_with_preemption
            + self.rejected
    }
}

/// Counters for provider-side transient-capacity dynamics (§7.4's
/// reclamation scenario): how often capacity changed hands and what the
/// cluster had to do about it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransientCounters {
    /// Capacity-reclamation events handled.
    pub reclaim_events: usize,
    /// Capacity-restitution events handled.
    pub restore_events: usize,
    /// Reclamations fully absorbed by deflating residents in place.
    pub absorbed_by_deflation: usize,
    /// VMs migrated off a shrinking server (the fallback when deflation
    /// alone cannot absorb a reclamation).
    pub migrations: usize,
    /// VMs migrated back to their origin server after a restitution.
    pub migrations_back: usize,
    /// Migrations aborted mid-transfer — the page copy could not finish
    /// before the source's reclamation deadline (or the transfer was
    /// cancelled by a further reclamation) and the VM was evicted.
    pub migration_aborts: usize,
    /// Migrations refused up front by the transfer scheduler's EDF
    /// admission control: the copy provably could not beat its deadline,
    /// so no bandwidth was spent and the VM fell straight through to the
    /// eviction rung instead of aborting mid-transfer.
    pub migration_rejections: usize,
    /// Resident VMs destroyed because neither deflation nor migration could
    /// absorb a reclamation — the reclamation-failure event of Figure 20.
    pub reclamation_victims: usize,
}

/// One VM moved between servers by the reclamation handler. Reported when
/// the transfer *completes* (instantly for the cost-free model).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// The migrated VM.
    pub vm: VmId,
    /// Server it left.
    pub from: ServerId,
    /// Server it now runs on.
    pub to: ServerId,
    /// Wall-clock page-transfer time charged by the cost model, seconds
    /// (0 for the cost-free instant model).
    pub duration_secs: f64,
    /// Bytes moved over the wire, MiB (hot footprint × dirty-page
    /// overhead).
    pub volume_mb: f64,
    /// True when this was a migrate-back to the VM's origin server after a
    /// capacity restitution.
    pub back: bool,
}

/// A live migration that has *started* but not yet completed: the cluster
/// manager hands these to the simulator, which schedules a
/// `MigrationComplete` event at [`event_secs`](Self::event_secs) and feeds
/// it back through [`ClusterManager::complete_migration`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingMigration {
    /// Identifier of the in-flight transfer (unique within a run).
    pub id: u64,
    /// The migrating VM.
    pub vm: VmId,
    /// Source server.
    pub from: ServerId,
    /// Destination server.
    pub to: ServerId,
    /// When the page copy actually starts (queued transfers start after
    /// earlier ones release the bandwidth budget).
    pub start_secs: f64,
    /// When the `MigrationComplete` event must fire: the transfer's finish
    /// time, or the source's reclamation deadline if that expires first
    /// (the manager then aborts the migration and evicts the VM).
    pub event_secs: f64,
}

/// What a capacity reclamation / restitution did to the cluster.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CapacityChangeOutcome {
    /// Migrations that completed during this change (instant-model moves).
    pub migrated: Vec<MigrationRecord>,
    /// Transfers that started and are now in flight; the caller must
    /// schedule a `MigrationComplete` event for each.
    pub started: Vec<PendingMigration>,
    /// VMs destroyed because nothing else worked (reclamation failures).
    pub victims: Vec<VmId>,
}

/// A [`VmSlot`] field naming no server.
const NOWHERE: u32 = u32::MAX;

/// A [`VmSlot`] field naming no migration.
const NO_FLIGHT: u64 = u64::MAX;

/// The manager's state for one VM, at the VM's slot.
#[derive(Debug, Clone, Copy)]
struct VmSlot {
    /// The VM in this slot (the last one placed there).
    id: VmId,
    /// Index of the server the VM runs on, or [`NOWHERE`]. During a
    /// transfer this is the source; the destination holds a reservation.
    location: u32,
    /// First server a migrated VM ran on, for migrate-back after a
    /// capacity restitution; [`NOWHERE`] unless displaced.
    origin: u32,
    /// The in-flight migration the VM is part of, or [`NO_FLIGHT`].
    flight: u64,
}

impl VmSlot {
    const VACANT: VmSlot = VmSlot {
        id: VmId(u64::MAX),
        location: NOWHERE,
        origin: NOWHERE,
        flight: NO_FLIGHT,
    };

    fn location(&self) -> Option<usize> {
        (self.location != NOWHERE).then_some(self.location as usize)
    }

    fn flight(&self) -> Option<u64> {
        (self.flight != NO_FLIGHT).then_some(self.flight)
    }
}

/// One transfer currently on the wire.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    vm: VmId,
    slot: u32,
    source: usize,
    dest: usize,
    start_secs: f64,
    /// When the page copy would finish.
    finish_secs: f64,
    /// Absolute reclamation deadline; the transfer aborts (VM evicted) when
    /// `finish_secs` exceeds it. Infinite for migrate-backs.
    deadline_secs: f64,
    volume_mb: f64,
    back: bool,
}

impl InFlight {
    fn aborts(&self) -> bool {
        self.finish_secs > self.deadline_secs
    }

    /// When the `MigrationComplete` event fires: completion, or the
    /// deadline if that comes first.
    fn event_secs(&self) -> f64 {
        self.finish_secs.min(self.deadline_secs)
    }
}

/// A transfer the reclamation/restitution handler has *selected* (the
/// destination reservation exists, the VM is pledged to leave its source)
/// but that has not been granted a bandwidth slot yet. Staged transfers
/// accumulate over one capacity event and are handed to the
/// [`TransferScheduler`] as a single decision batch, so the scheduling
/// policy can reorder them — or, under EDF admission control, refuse them
/// — before any slot is booked.
#[derive(Debug, Clone, Copy)]
struct StagedTransfer {
    vm: VmId,
    slot: u32,
    source: usize,
    dest: usize,
    duration_secs: f64,
    volume_mb: f64,
    /// Absolute abort deadline; infinite for migrate-backs.
    deadline_secs: f64,
    back: bool,
    /// Whether staging inserted the migration-origin entry, so a rejection
    /// can undo exactly its own bookkeeping.
    origin_inserted: bool,
}

/// The centralized cluster manager.
pub struct ClusterManager {
    controllers: Vec<LocalController>,
    placement: Box<dyn PlacementPolicy>,
    mechanism: DeflationMechanism,
    base_capacity: ResourceVector,
    mode: ReclamationMode,
    cost_model: MigrationCostModel,
    /// Per-VM state by slot: reserved slots first, then one per VM the
    /// `VmId` calls placed.
    vms: Vec<VmSlot>,
    /// Slots reserved for the caller's own slot calls.
    reserved_slots: usize,
    /// The slot of every VM placed through the `VmId` calls (or restored
    /// without a caller-given slot).
    slot_of: IdMap<VmId, u32>,
    /// Slots of the displaced VMs (those with a migration origin), in no
    /// order.
    displaced: Vec<u32>,
    /// The change log: slots whose recorded CPU fraction may have moved
    /// since the current event-level call began (see the module docs).
    changed: Vec<u32>,
    /// Transfers currently on the wire, by migration id.
    in_flight: IdMap<u64, InFlight>,
    next_migration_id: u64,
    /// Global bandwidth-slot scheduler (owns the per-server ledgers and the
    /// ordering policy).
    scheduler: TransferScheduler,
    /// Transfers selected but not yet booked, within the current capacity
    /// event only (always empty between manager calls).
    staged: Vec<StagedTransfer>,
    counters: AdmissionCounters,
    transient: TransientCounters,
    /// Observability sink (disabled by default): placement-ranking and
    /// transfer-booking spans, plus the end-of-run counter publish.
    /// Observation only — never consulted by any decision path.
    telemetry: TelemetrySink,
    /// Incremental placement index: cached per-server views, re-derived
    /// only for servers marked dirty since the last ranking pass. Every
    /// view-affecting mutation must go through
    /// [`mark_server_dirty`](Self::mark_server_dirty).
    index: PlacementIndex,
}

impl ClusterManager {
    /// Build a cluster with the given configuration and reclamation mode.
    pub fn new(config: &ClusterConfig, mode: ReclamationMode) -> Self {
        let partition_assignment = config.partitions.assign_servers(config.num_servers);
        let policy: Arc<dyn DeflationPolicy> = match &mode {
            ReclamationMode::Deflation(p) => Arc::clone(p),
            // The preemption and migration-only baselines never deflate for
            // arrivals, but the local controllers need a policy for
            // reinflation after departures.
            ReclamationMode::Preemption | ReclamationMode::MigrationOnly => {
                Arc::new(deflate_core::policy::ProportionalDeflation::default())
            }
        };
        let controllers: Vec<LocalController> = (0..config.num_servers)
            .map(|i| {
                let server = SimServer::new(ServerId(i as u32), config.server_capacity)
                    .with_partition(partition_assignment[i]);
                LocalController::new(server, Arc::clone(&policy), config.mechanism)
            })
            .collect();
        let index = PlacementIndex::new(controllers.iter().map(|c| c.server().view()).collect());
        ClusterManager {
            controllers,
            placement: config.placement.build(config.partitions),
            mechanism: config.mechanism,
            base_capacity: config.server_capacity,
            mode,
            cost_model: MigrationCostModel::instant(),
            vms: Vec::new(),
            reserved_slots: 0,
            slot_of: IdMap::default(),
            displaced: Vec::new(),
            changed: Vec::new(),
            in_flight: IdMap::default(),
            next_migration_id: 0,
            scheduler: TransferScheduler::new(config.num_servers, TransferPolicy::default()),
            staged: Vec::new(),
            counters: AdmissionCounters::default(),
            transient: TransientCounters::default(),
            telemetry: TelemetrySink::disabled(),
            index,
        }
    }

    /// Builder-style telemetry sink. The disabled default makes every
    /// span and counter a one-branch no-op; an enabled sink records
    /// placement-ranking / transfer-booking spans and publishes the
    /// manager's counters via [`publish_metrics`](Self::publish_metrics)
    /// without ever influencing a decision.
    pub fn with_telemetry(mut self, telemetry: TelemetrySink) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Reserve slots `0..n` for VMs the caller places and removes by slot
    /// ([`place_in_slot`](Self::place_in_slot),
    /// [`remove_slot`](Self::remove_slot)); the simulator gives workload
    /// VM `i` slot `i`. VMs placed by `VmId` get slots after these. Call
    /// before the first placement.
    pub fn with_reserved_slots(mut self, n: usize) -> Self {
        debug_assert!(
            self.vms.len() == self.reserved_slots,
            "slots already in use"
        );
        self.vms = vec![VmSlot::VACANT; n];
        self.reserved_slots = n;
        self
    }

    /// Slots whose recorded CPU fraction may have changed since the
    /// current event-level call began: the VM's effective CPU allocation
    /// moved, or it landed on or left a server. A slot can appear more
    /// than once.
    pub fn changed_slots(&self) -> &[u32] {
        &self.changed
    }

    /// Empty the change log once its reader has folded it.
    pub fn clear_changed_slots(&mut self) {
        self.changed.clear();
    }

    /// The slot of a VM placed by `VmId` (or restored without a
    /// caller-given slot).
    fn slot_by_id(&self, vm: VmId) -> Option<u32> {
        self.slot_of.get(&vm).copied()
    }

    /// The slot of a VM placed by `VmId`, appending one for a new id.
    fn slot_for_id(&mut self, vm: VmId) -> u32 {
        let next = self.vms.len() as u32;
        let slot = *self.slot_of.entry(vm).or_insert(next);
        if slot == next {
            self.vms.push(VmSlot {
                id: vm,
                ..VmSlot::VACANT
            });
        }
        slot
    }

    /// Move the VM in `slot` to server `location` (or off every server),
    /// logging the change: its fraction is now read there.
    fn set_location(&mut self, slot: u32, location: Option<usize>) {
        self.vms[slot as usize].location = location.map_or(NOWHERE, |idx| idx as u32);
        self.changed.push(slot);
    }

    /// Remember `origin` as where the VM in `slot` ran before it was first
    /// migrated; returns false when it was already displaced.
    fn displace(&mut self, slot: u32, origin: usize) -> bool {
        let vm = &mut self.vms[slot as usize];
        if vm.origin != NOWHERE {
            return false;
        }
        vm.origin = origin as u32;
        self.displaced.push(slot);
        true
    }

    /// Forget the migration origin of the VM in `slot`, if any.
    fn clear_origin(&mut self, slot: u32) {
        let vm = &mut self.vms[slot as usize];
        if vm.origin == NOWHERE {
            return;
        }
        vm.origin = NOWHERE;
        if let Some(at) = self.displaced.iter().position(|&s| s == slot) {
            self.displaced.swap_remove(at);
        }
    }

    /// Label server `idx`'s domain of the VM in `slot`, just created.
    fn label_domain(&mut self, idx: usize, slot: u32) {
        let vm = self.vms[slot as usize].id;
        if let Some(domain) = self.controllers[idx].server_mut().domain_mut(vm) {
            domain.slot = slot;
        }
    }

    /// Queue server `idx`'s cached placement view for re-derivation.
    ///
    /// Call sites are exactly the **view-affecting** mutations: capacity
    /// changes (`set_capacity`), domain admission/teardown
    /// (`create_domain*` / `destroy_domain`), deflation state changes
    /// (`deflate_to` / `apply_targets` / `deflate_into_capacity` /
    /// `reinflate*`). Page-cache-only moves (`deflate_for_migration`),
    /// usage observations
    /// (`observe_cpu_utilization`), guest-state copies and the parked
    /// flag do not change `ServerView` and deliberately skip the mark —
    /// `tests/placement_equivalence.rs` pins the index against a full
    /// rescan after every mutation kind.
    fn mark_server_dirty(&mut self, idx: usize) {
        self.index.mark_dirty(idx);
    }

    /// Rank all servers for `vm` through the incremental index: re-derive
    /// the views of servers dirtied since the last pass, then let the
    /// placement policy descend the index's max tree. `excluded` servers —
    /// already tried and rejected within the current placement loop, or a
    /// migration's own source — are skipped at the tree's leaves.
    fn rank_servers(&mut self, vm: &VmSpec, excluded: &[ServerId]) -> Option<PlacementDecision> {
        let controllers = &self.controllers;
        self.index
            .refresh(&self.telemetry, |i| controllers[i].server().view());
        self.index.rank(self.placement.as_ref(), vm, excluded)
    }

    /// Builder-style migration cost model override. The default is
    /// [`MigrationCostModel::instant`] (free, immediate migrations — the
    /// historical behaviour); anything else makes migrations take
    /// page-transfer time, respect per-server bandwidth budgets and race
    /// the reclamation deadline.
    pub fn with_migration_cost(mut self, model: MigrationCostModel) -> Self {
        self.cost_model = model;
        self
    }

    /// The migration cost model in effect.
    pub fn migration_cost(&self) -> MigrationCostModel {
        self.cost_model
    }

    /// Builder-style transfer-scheduling policy override. The default is
    /// [`TransferPolicy::fifo`] — greedy request-order booking, bit-identical
    /// to the behaviour before the scheduler existed. `SmallestFirst` and
    /// `Edf` reorder each capacity event's transfer batch; EDF additionally
    /// refuses transfers that provably cannot beat their deadline. Must be
    /// applied before the first capacity event (it resets the scheduler's
    /// bandwidth ledgers).
    pub fn with_transfer_policy(mut self, policy: TransferPolicy) -> Self {
        self.scheduler = TransferScheduler::new(self.controllers.len(), policy);
        self
    }

    /// The transfer-scheduling policy in effect.
    pub fn transfer_policy(&self) -> TransferPolicy {
        self.scheduler.policy()
    }

    /// Scheduler accounting: slots booked, EDF rejections, queueing delay.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.scheduler.stats()
    }

    /// Number of transfers currently on the wire.
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    /// True when the VM is part of an in-flight migration (accounted on
    /// both its source and destination server until the transfer ends).
    pub fn is_in_flight(&self, vm: VmId) -> bool {
        self.slot_by_id(vm)
            .is_some_and(|slot| self.vms[slot as usize].flight().is_some())
    }

    /// Number of servers in the cluster.
    pub fn num_servers(&self) -> usize {
        self.controllers.len()
    }

    /// Admission counters so far.
    pub fn counters(&self) -> AdmissionCounters {
        self.counters
    }

    /// Iterate over the underlying servers.
    pub fn servers(&self) -> impl Iterator<Item = &SimServer> {
        self.controllers.iter().map(|c| c.server())
    }

    /// Current placement views of all servers, derived from scratch.
    /// (The placement paths themselves rank over the incremental index;
    /// this full rescan remains the reference the equivalence tests —
    /// and external callers wanting a fresh snapshot — compare against.)
    pub fn views(&self) -> Vec<ServerView> {
        self.controllers.iter().map(|c| c.server().view()).collect()
    }

    /// Diagnostic: the server the *incremental index* would pick for `vm`
    /// right now (refreshing dirty views first), without placing anything.
    pub fn placement_preview(
        &mut self,
        vm: &VmSpec,
        excluded: &[ServerId],
    ) -> Option<PlacementDecision> {
        self.rank_servers(vm, excluded)
    }

    /// Diagnostic: the server a *from-scratch full rescan* (the pre-index
    /// code path) would pick for `vm` right now. The equivalence battery
    /// asserts this agrees with [`placement_preview`] after every
    /// mutation kind.
    ///
    /// [`placement_preview`]: Self::placement_preview
    pub fn placement_full_rescan(
        &self,
        vm: &VmSpec,
        excluded: &[ServerId],
    ) -> Option<PlacementDecision> {
        self.placement.place(vm, &self.views(), excluded)
    }

    /// The server currently hosting a VM placed by `VmId`.
    pub fn locate(&self, vm: VmId) -> Option<ServerId> {
        let idx = self.vms[self.slot_by_id(vm)? as usize].location()?;
        Some(self.controllers[idx].server().id)
    }

    /// The CPU allocation fraction (1.0 when undeflated) of a VM placed by
    /// `VmId`; `None` if the VM is not running.
    pub fn cpu_allocation_fraction(&self, vm: VmId) -> Option<f64> {
        self.slot_cpu_fraction(self.slot_by_id(vm)?)
    }

    /// The CPU allocation fraction of the VM in `slot`, read on the server
    /// it is located on; `None` if it runs nowhere.
    pub fn slot_cpu_fraction(&self, slot: u32) -> Option<f64> {
        let vm = self.vms.get(slot as usize)?;
        let domain = self.controllers[vm.location()?].server().domain(vm.id)?;
        Some(domain.cpu_fraction())
    }

    /// All VMs currently running, with their CPU allocation fractions.
    /// Each VM is reported once, from the server it is *located* on — the
    /// destination reservation of an in-flight migration is excluded.
    pub fn running_allocation_fractions(&self) -> Vec<(VmId, f64)> {
        let mut out = Vec::new();
        for (idx, controller) in self.controllers.iter().enumerate() {
            for domain in controller.server().domains() {
                if self.vms[domain.slot as usize].location() == Some(idx) {
                    out.push((domain.spec.id, domain.cpu_fraction()));
                }
            }
        }
        out
    }

    /// Cluster-wide overcommitment: committed allocations over hardware
    /// capacity, as a fraction above 1.0 (0.0 = not overcommitted), measured
    /// on the CPU dimension.
    pub fn current_overcommitment(&self) -> f64 {
        let committed: f64 = self
            .controllers
            .iter()
            .map(|c| c.server().committed()[ResourceKind::Cpu])
            .sum();
        let capacity: f64 = self
            .controllers
            .iter()
            .map(|c| c.server().capacity[ResourceKind::Cpu])
            .sum();
        if capacity <= 0.0 {
            0.0
        } else {
            (committed / capacity - 1.0).max(0.0)
        }
    }

    /// Admission counters for transient-capacity events so far.
    pub fn transient_counters(&self) -> TransientCounters {
        self.transient
    }

    /// The available-capacity fraction a server currently runs at (1.0 when
    /// the provider has not reclaimed anything), measured against the
    /// configured hardware capacity on the CPU dimension.
    pub fn capacity_fraction(&self, server: ServerId) -> f64 {
        let idx = self.server_index(server);
        let base = self.base_capacity[deflate_core::resources::ResourceKind::Cpu];
        if idx >= self.controllers.len() || base <= 0.0 {
            return 1.0;
        }
        self.controllers[idx].server().capacity[deflate_core::resources::ResourceKind::Cpu] / base
    }

    /// Record one CPU-utilisation sample (fraction of the full allocation)
    /// for a running VM placed by `VmId`. The
    /// domain's recent history drives the dirty-rate term of the migration
    /// cost model: write-heavy VMs get longer transfer estimates, which
    /// EDF admission control compares against the reclamation deadline.
    pub fn observe_vm_utilization(&mut self, vm: VmId, sample: f64) {
        if let Some(slot) = self.slot_by_id(vm) {
            self.observe_slot_utilization(slot, sample);
        }
    }

    /// [`observe_vm_utilization`](Self::observe_vm_utilization) for the VM
    /// in `slot`.
    ///
    /// Utilisation observations feed only the dirty-rate history — they
    /// never change a `ServerView` — so no placement-index mark is needed.
    pub fn observe_slot_utilization(&mut self, slot: u32, sample: f64) {
        let vm = self.vms[slot as usize];
        if let Some(idx) = vm.location() {
            if let Some(domain) = self.controllers[idx].server_mut().domain_mut(vm.id) {
                domain.observe_cpu_utilization(sample);
            }
        }
    }

    /// Cluster-wide `(effective CPU used, CPU capacity)` totals — the
    /// quantities behind each `UtilizationTick` sample, summed in server
    /// order.
    pub fn cpu_usage_snapshot(&self) -> (f64, f64) {
        self.controllers.iter().fold((0.0, 0.0), |(used, cap), c| {
            let server = c.server();
            (
                used + server.effective_used()[ResourceKind::Cpu],
                cap + server.capacity[ResourceKind::Cpu],
            )
        })
    }

    /// Place a new VM, reclaiming resources if necessary. Starts a new
    /// change log.
    pub fn place_vm(&mut self, spec: VmSpec) -> PlacementResult {
        self.changed.clear();
        let slot = self.slot_for_id(spec.id);
        self.place(slot, spec)
    }

    /// [`place_vm`](Self::place_vm) for a VM in a reserved slot (see
    /// [`with_reserved_slots`](Self::with_reserved_slots)).
    pub fn place_in_slot(&mut self, slot: u32, spec: VmSpec) -> PlacementResult {
        debug_assert!(
            (slot as usize) < self.reserved_slots,
            "slot {slot} is not reserved"
        );
        self.changed.clear();
        self.place(slot, spec)
    }

    fn place(&mut self, slot: u32, spec: VmSpec) -> PlacementResult {
        // The span guard owns its handle, so the placement paths below can
        // still borrow `self` mutably while the ranking is being timed.
        let _rank = self.telemetry.span(Phase::PlacementRank);
        self.vms[slot as usize].id = spec.id;
        let result = match self.mode.clone() {
            ReclamationMode::Deflation(_) => self.place_with_deflation(slot, &spec),
            ReclamationMode::Preemption => self.place_with_preemption(slot, &spec),
            ReclamationMode::MigrationOnly => self.place_without_reclamation(slot, &spec),
        };
        match &result {
            PlacementResult::Placed { .. } => self.counters.admitted_free += 1,
            PlacementResult::PlacedWithDeflation { .. } => {
                self.counters.admitted_with_deflation += 1
            }
            PlacementResult::PlacedWithPreemption { preempted, .. } => {
                self.counters.admitted_with_preemption += 1;
                self.counters.preempted_vms += preempted.len();
            }
            PlacementResult::Rejected => self.counters.rejected += 1,
        }
        result
    }

    fn server_index(&self, id: ServerId) -> usize {
        id.0 as usize
    }

    fn place_with_deflation(&mut self, slot: u32, spec: &VmSpec) -> PlacementResult {
        let mut excluded: Vec<ServerId> = Vec::new();
        loop {
            let Some(decision) = self.rank_servers(spec, &excluded) else {
                return PlacementResult::Rejected;
            };
            let idx = self.server_index(decision.server);
            // Admission deflates residents and/or adds a domain; a failed
            // attempt can still have deflated, so mark unconditionally.
            self.mark_server_dirty(idx);
            match self.admit(idx, slot, spec) {
                Ok(AdmissionOutcome::AdmittedWithoutDeflation) => {
                    self.set_location(slot, Some(idx));
                    return PlacementResult::Placed {
                        server: decision.server,
                    };
                }
                Ok(AdmissionOutcome::AdmittedWithDeflation { reclaimed }) => {
                    self.set_location(slot, Some(idx));
                    return PlacementResult::PlacedWithDeflation {
                        server: decision.server,
                        reclaimed,
                    };
                }
                Ok(AdmissionOutcome::Rejected { .. }) => {
                    excluded.push(decision.server);
                }
                Err(_) => {
                    excluded.push(decision.server);
                }
            }
            if excluded.len() >= self.controllers.len() {
                return PlacementResult::Rejected;
            }
        }
    }

    /// Admit the VM in `slot` on server `idx` through its local
    /// controller, timed as its own phase so local deflation shows apart
    /// from the ranking.
    fn admit(&mut self, idx: usize, slot: u32, spec: &VmSpec) -> Result<AdmissionOutcome> {
        let _admission = self.telemetry.span(Phase::Admission);
        let outcome = self.controllers[idx].try_admit(spec.clone(), &mut self.changed)?;
        if !matches!(outcome, AdmissionOutcome::Rejected { .. }) {
            self.label_domain(idx, slot);
        }
        Ok(outcome)
    }

    fn place_with_preemption(&mut self, slot: u32, spec: &VmSpec) -> PlacementResult {
        // The ranking reads only the maximum allocation, so an invalid spec
        // would pass it and then fail `create_domain` after the victims
        // died, on every server in turn.
        if spec.validate().is_err() {
            return PlacementResult::Rejected;
        }
        let mut excluded: Vec<ServerId> = Vec::new();
        loop {
            let Some(decision) = self.rank_servers(spec, &excluded) else {
                return PlacementResult::Rejected;
            };
            let idx = self.server_index(decision.server);
            // The ranking admits a server only if the VM fits its free
            // capacity plus what the deflatable residents hold above their
            // minimums, which is never more than killing them all frees:
            // residents that may not be killed cannot make the loop below
            // kill for a server it then gives up.
            debug_assert!(self.fits_after_preemption(idx, spec));
            // Victim teardown and the admission below both change the
            // server's view; mark once up front.
            self.mark_server_dirty(idx);
            // Preempt lowest-priority deflatable VMs until the new VM fits.
            let mut preempted = Vec::new();
            loop {
                let server = self.controllers[idx].server();
                if spec.max_allocation.fits_within(&server.free()) {
                    break;
                }
                let victim = server
                    .domains()
                    .filter(|d| d.spec.deflatable)
                    .min_by(|a, b| {
                        a.spec
                            .priority
                            .value()
                            .partial_cmp(&b.spec.priority.value())
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .map(|d| (d.spec.id, d.slot));
                let Some((victim, victim_slot)) = victim else {
                    break;
                };
                let _ = self.controllers[idx].server_mut().destroy_domain(victim);
                self.set_location(victim_slot, None);
                preempted.push(victim);
            }
            let server = self.controllers[idx].server();
            if spec.max_allocation.fits_within(&server.free()) {
                let mechanism = DeflationMechanism::Transparent;
                if let Ok(domain) = self.controllers[idx]
                    .server_mut()
                    .create_domain(spec.clone(), mechanism)
                {
                    domain.slot = slot;
                    self.set_location(slot, Some(idx));
                    return if preempted.is_empty() {
                        PlacementResult::Placed {
                            server: decision.server,
                        }
                    } else {
                        PlacementResult::PlacedWithPreemption {
                            server: decision.server,
                            preempted,
                        }
                    };
                }
            }
            excluded.push(decision.server);
            if excluded.len() >= self.controllers.len() {
                return PlacementResult::Rejected;
            }
        }
    }

    /// Whether `spec` fits on server `idx` once every deflatable resident
    /// is preempted: the free capacity the victim loop of
    /// [`place_with_preemption`](Self::place_with_preemption) ends at if it
    /// kills them all.
    fn fits_after_preemption(&self, idx: usize, spec: &VmSpec) -> bool {
        let server = self.controllers[idx].server();
        let kept: ResourceVector = server
            .domains()
            .filter(|d| !d.spec.deflatable)
            .map(|d| d.effective_allocation())
            .sum();
        spec.max_allocation
            .fits_within(&server.capacity.saturating_sub(&kept))
    }

    /// Place a VM only where its full allocation fits free capacity — no
    /// deflation, no preemption (the migration-only baseline's admission
    /// path).
    fn place_without_reclamation(&mut self, slot: u32, spec: &VmSpec) -> PlacementResult {
        match self.admit_on_best(spec, slot, Vec::new(), false) {
            Some(idx) => {
                self.set_location(slot, Some(idx));
                PlacementResult::Placed {
                    server: self.controllers[idx].server().id,
                }
            }
            None => PlacementResult::Rejected,
        }
    }

    /// Handle a provider-side **capacity reclamation** at one server: shrink
    /// it to `available_fraction` of its hardware capacity and absorb the
    /// shock in mode-dependent order. `now_secs` is the simulation time of
    /// the reclamation; migrations started by the handler are scheduled
    /// from it and race the cost model's reclamation deadline.
    ///
    /// * **Deflation mode** (the paper's proposal): first deflate residents
    ///   via the configured [`DeflationPolicy`]; if the policy's headroom is
    ///   exhausted, fall back to deflation-aware **migration** of the
    ///   most-deflated VMs to other servers; only when neither suffices are
    ///   the remaining over-capacity VMs destroyed and counted as
    ///   reclamation failures.
    /// * **Preemption mode**: kill lowest-priority residents until the
    ///   remainder fits (today's transient offerings).
    /// * **Migration-only mode**: migrate residents at full size to servers
    ///   with room, killing whatever cannot be placed.
    ///
    /// With a costed migration model the source server may transiently keep
    /// more than its reclaimed capacity: in-flight VMs stay resident until
    /// their `MigrationComplete` event (fed back through
    /// [`complete_migration`](Self::complete_migration)) either lands them
    /// on the destination or aborts them at the deadline.
    pub fn reclaim_capacity(
        &mut self,
        server: ServerId,
        available_fraction: f64,
        now_secs: f64,
    ) -> CapacityChangeOutcome {
        self.changed.clear();
        let idx = self.server_index(server);
        let mut outcome = CapacityChangeOutcome::default();
        if idx >= self.controllers.len() {
            return outcome;
        }
        let fraction = available_fraction.clamp(0.0, 1.0);
        self.transient.reclaim_events += 1;
        self.controllers[idx]
            .server_mut()
            .set_capacity(self.base_capacity * fraction);
        self.mark_server_dirty(idx);
        self.absorb_overage(idx, now_secs, &mut outcome);
        // Whatever room deflation/migration/preemption left is handed back
        // to the surviving residents.
        self.reinflate_if_fits(idx);
        debug_assert!(self.fits_with_pending(idx));
        outcome
    }

    /// Reinflate a server's residents — unless in-flight outbound transfers
    /// keep it transiently over capacity, in which case there is no room to
    /// hand out anyway (the completion of each transfer reinflates then).
    fn reinflate_if_fits(&mut self, idx: usize) {
        // Callers reach here right after a departure / capacity change on
        // `idx`; marking unconditionally (deduped) covers both that
        // mutation and any reinflation below.
        self.mark_server_dirty(idx);
        self.controllers[idx].reinflate_if_fits(&mut self.changed);
    }

    /// Destroy a VM's domain on one server and reinflate the survivors if
    /// the server fits (it may not, while other transfers are in flight).
    fn depart_and_reinflate(&mut self, idx: usize, vm: VmId) {
        let _ = self.controllers[idx].server_mut().destroy_domain(vm);
        self.reinflate_if_fits(idx);
    }

    /// Restore the capacity invariant of a server whose capacity was just
    /// changed, in mode-dependent order: deflation mode deflates first and
    /// falls back to migration then eviction; migration-only migrates then
    /// evicts; preemption evicts straight away. A no-op when the residents
    /// already fit (counting in-flight transfers as already gone).
    fn absorb_overage(&mut self, idx: usize, now_secs: f64, outcome: &mut CapacityChangeOutcome) {
        if self.fits_with_pending(idx) {
            return;
        }
        let deadline = now_secs + self.cost_model.reclaim_deadline_secs.max(0.0);
        match self.mode.clone() {
            ReclamationMode::Deflation(_) => {
                let remaining = self.controllers[idx].deflate_into_capacity(&mut self.changed);
                self.mark_server_dirty(idx);
                if remaining.is_zero() {
                    self.transient.absorbed_by_deflation += 1;
                    return;
                }
                self.migrate_until_fits(idx, true, now_secs, deadline, outcome);
                self.kill_until_fits(idx, outcome);
            }
            ReclamationMode::MigrationOnly => {
                self.migrate_until_fits(idx, false, now_secs, deadline, outcome);
                self.kill_until_fits(idx, outcome);
            }
            ReclamationMode::Preemption => {
                self.kill_until_fits(idx, outcome);
            }
        }
    }

    /// Handle a provider-side **capacity restitution** at one server: grow
    /// it back to `available_fraction` of its hardware capacity, reinflate
    /// residents into the returned room and — when `migrate_back` is set —
    /// pull previously displaced VMs back to this, their origin, server.
    /// Migrate-backs are charged by the cost model like any other transfer
    /// (but never race a deadline — restitutions are not emergencies).
    pub fn restore_capacity(
        &mut self,
        server: ServerId,
        available_fraction: f64,
        migrate_back: bool,
        now_secs: f64,
    ) -> CapacityChangeOutcome {
        self.changed.clear();
        let idx = self.server_index(server);
        let mut outcome = CapacityChangeOutcome::default();
        if idx >= self.controllers.len() {
            return outcome;
        }
        let fraction = available_fraction.clamp(0.0, 1.0);
        self.transient.restore_events += 1;
        self.controllers[idx]
            .server_mut()
            .set_capacity(self.base_capacity * fraction);
        self.reinflate_if_fits(idx);
        // A "restitution" to a fraction below the current usage is really a
        // reclamation in disguise (e.g. a hand-built schedule with a
        // mislabelled direction): absorb it the same way rather than leaving
        // the server over capacity, and hand any room migration freed back
        // to the surviving residents.
        if !self.fits_with_pending(idx) {
            self.absorb_overage(idx, now_secs, &mut outcome);
            self.reinflate_if_fits(idx);
        }

        if migrate_back {
            // Deterministic order: lowest VM id first.
            let mut displaced: Vec<(VmId, u32)> = self
                .displaced
                .iter()
                .map(|&slot| (&self.vms[slot as usize], slot))
                .filter(|(vm, _)| {
                    vm.origin as usize == idx
                        && vm.flight().is_none()
                        && vm.location().is_some_and(|cur| cur != idx)
                })
                .map(|(vm, slot)| (vm.id, slot))
                .collect();
            displaced.sort_unstable();
            for (vm, slot) in displaced {
                let Some(current) = self.vms[slot as usize].location() else {
                    continue;
                };
                let Some(domain) = self.controllers[current].server().domain(vm) else {
                    continue;
                };
                if domain.is_parked() {
                    // A parked replica stays put: moving it would undo the
                    // autoscaler's scale-in. It remains displaced, so a
                    // restitution after its unpark can still bring it home.
                    continue;
                }
                let spec = domain.spec.clone();
                let duration = self.cost_model.transfer_secs(domain);
                let volume = self.cost_model.transfer_volume_mb(domain);
                // Only move back when the VM fits its origin at full size —
                // a migrate-back must never force new deflation — and when
                // the cost model allows a transfer at all.
                if duration.is_infinite()
                    || !spec
                        .max_allocation
                        .fits_within(&self.controllers[idx].server().free())
                {
                    continue;
                }
                if duration <= 0.0 {
                    // Cost-free transfer: complete the move inline, the
                    // guest state travelling home with it.
                    let src = self.controllers[current].server().domain(vm).cloned();
                    self.depart_and_reinflate(current, vm);
                    self.mark_server_dirty(idx);
                    if let Ok(dst) = self.controllers[idx]
                        .server_mut()
                        .create_domain(spec, self.mechanism)
                    {
                        dst.slot = slot;
                        if let Some(src) = &src {
                            dst.migrate_guest_state_from(src);
                        }
                        self.set_location(slot, Some(idx));
                        self.clear_origin(slot);
                        self.transient.migrations_back += 1;
                        outcome.migrated.push(MigrationRecord {
                            vm,
                            from: self.controllers[current].server().id,
                            to: server,
                            duration_secs: 0.0,
                            volume_mb: volume,
                            back: true,
                        });
                    } else {
                        // The domain was destroyed but could not be recreated
                        // — should not happen since we checked the fit, but
                        // account for it rather than losing the VM silently.
                        self.set_location(slot, None);
                        self.clear_origin(slot);
                        self.transient.reclamation_victims += 1;
                        outcome.victims.push(vm);
                    }
                } else {
                    // Costed transfer: reserve the origin-side capacity now,
                    // keep the VM running where it is, and let the
                    // MigrationComplete event land it back home. Staged like
                    // any other transfer; the deadline is infinite because
                    // restitutions are not emergencies.
                    self.mark_server_dirty(idx);
                    if let Ok(reservation) = self.controllers[idx]
                        .server_mut()
                        .create_domain(spec, self.mechanism)
                    {
                        reservation.slot = slot;
                        self.staged.push(StagedTransfer {
                            vm,
                            slot,
                            source: current,
                            dest: idx,
                            duration_secs: duration,
                            volume_mb: volume,
                            deadline_secs: f64::INFINITY,
                            back: true,
                            origin_inserted: false,
                        });
                    }
                }
            }
            self.finalize_staged(now_secs, &mut outcome);
        }
        debug_assert!(self.fits_with_pending(idx));
        outcome
    }

    /// Migrate residents off an over-capacity server until its effective
    /// usage — minus what in-flight transfers have already pledged to take
    /// away — fits. Candidates are tried most-deflated first (deflatable
    /// VMs ordered by ascending allocation fraction, then on-demand VMs),
    /// and each is re-admitted on the best other server — deflating that
    /// server's residents when `deflation_aware` is set. Each migration is
    /// charged by the cost model: instant transfers complete inline, costed
    /// ones are *staged* and handed to the [`TransferScheduler`] as one
    /// batch — the scheduling policy decides their slot order, and under
    /// EDF admission control may refuse transfers that provably cannot
    /// finish before `deadline_secs` (those VMs fall through to the
    /// eviction rung instead of aborting mid-transfer).
    ///
    /// With deflate-then-migrate enabled (and in deflation mode), each
    /// candidate surrenders its page cache *before* its transfer is
    /// estimated, shrinking the hot footprint — and thus the copy time —
    /// under the deadline.
    fn migrate_until_fits(
        &mut self,
        source: usize,
        deflation_aware: bool,
        now_secs: f64,
        deadline_secs: f64,
        outcome: &mut CapacityChangeOutcome,
    ) {
        debug_assert!(self.staged.is_empty());
        self.stage_migrations_until_fits(source, deflation_aware, deadline_secs, outcome);
        self.finalize_staged(now_secs, outcome);
    }

    /// The candidate-selection half of [`migrate_until_fits`]: pick
    /// migration candidates and destinations, completing cost-free moves
    /// inline and staging costed ones for the scheduler.
    fn stage_migrations_until_fits(
        &mut self,
        source: usize,
        deflation_aware: bool,
        deadline_secs: f64,
        outcome: &mut CapacityChangeOutcome,
    ) {
        let source_id = self.controllers[source].server().id;
        let deflate_first = self.scheduler.policy().deflate_then_migrate && deflation_aware;
        let mut attempted: Vec<u32> = Vec::new();
        loop {
            if self.fits_with_pending(source) {
                return;
            }
            // Pick the most-deflated untried resident (deflatable first),
            // skipping VMs already part of an in-flight transfer and
            // autoscale-parked replicas — a parked domain would sort
            // first (it is the most-deflated by construction), but
            // migrating it would silently undo the park on landing, and
            // its sliver of capacity is hardly worth a transfer; the
            // eviction rung may still take it as a last resort.
            let candidate = {
                let server = self.controllers[source].server();
                let mut best: Option<((bool, f64, VmId), u32)> = None;
                for domain in server.domains() {
                    if attempted.contains(&domain.slot)
                        || self.vms[domain.slot as usize].flight().is_some()
                        || domain.is_parked()
                    {
                        continue;
                    }
                    let max = domain.spec.max_allocation.total();
                    let frac = if max <= 0.0 {
                        1.0
                    } else {
                        domain.effective_allocation().total() / max
                    };
                    // Sort key: on-demand after deflatable, then by
                    // allocation fraction, then by id for determinism.
                    let key = (!domain.spec.deflatable, frac, domain.spec.id);
                    if best.is_none_or(|(b, _)| key < b) {
                        best = Some((key, domain.slot));
                    }
                }
                best.map(|((_, _, id), slot)| (id, slot))
            };
            let Some((vm, slot)) = candidate else { return };
            attempted.push(slot);
            if deflate_first {
                // Deflate-then-migrate: the guest gives up its page cache
                // before the copy is estimated, so only the RSS has to
                // cross the link. (The squeeze persists if no destination
                // is found — the cache regrows with the next usage
                // report, and a cheaper future transfer is no loss.)
                if let Some(domain) = self.controllers[source].server_mut().domain_mut(vm) {
                    if domain.spec.deflatable {
                        domain.deflate_for_migration();
                    }
                }
            }
            let Some((spec, duration, volume)) =
                self.controllers[source].server().domain(vm).map(|d| {
                    (
                        d.spec.clone(),
                        self.cost_model.transfer_secs(d),
                        self.cost_model.transfer_volume_mb(d),
                    )
                })
            else {
                continue;
            };
            if duration.is_infinite() {
                // Zero link bandwidth: migration is impossible, fall
                // through to eviction for this VM.
                continue;
            }
            let Some(target) = self.admit_on_best(&spec, slot, vec![source_id], deflation_aware)
            else {
                continue;
            };
            if duration <= 0.0 {
                // Cost-free transfer: the VM now exists on the target;
                // its guest state moves over, and the source copy is
                // destroyed without reinflating yet (the server is still
                // over capacity).
                if let Some(src) = self.controllers[source].server().domain(vm) {
                    let src = src.clone();
                    if let Some(dst) = self.controllers[target].server_mut().domain_mut(vm) {
                        dst.migrate_guest_state_from(&src);
                    }
                }
                let _ = self.controllers[source].server_mut().destroy_domain(vm);
                self.mark_server_dirty(source);
                self.set_location(slot, Some(target));
                self.displace(slot, source);
                self.transient.migrations += 1;
                outcome.migrated.push(MigrationRecord {
                    vm,
                    from: source_id,
                    to: self.controllers[target].server().id,
                    duration_secs: 0.0,
                    volume_mb: volume,
                    back: false,
                });
            } else {
                // Costed transfer: the destination reservation exists, the
                // source copy keeps running; the scheduler grants (or
                // refuses) the bandwidth slot when the batch is finalised.
                let origin_inserted = self.displace(slot, source);
                self.staged.push(StagedTransfer {
                    vm,
                    slot,
                    source,
                    dest: target,
                    duration_secs: duration,
                    volume_mb: volume,
                    deadline_secs,
                    back: false,
                    origin_inserted,
                });
            }
        }
    }

    /// Hand the current decision batch to the [`TransferScheduler`] and
    /// resolve its verdicts: booked transfers become in-flight (the caller
    /// schedules a `MigrationComplete` event for each), EDF-rejected ones
    /// release their destination reservation and leave the VM on its
    /// source — the eviction rung handles it if the room is still needed.
    fn finalize_staged(&mut self, now_secs: f64, outcome: &mut CapacityChangeOutcome) {
        if self.staged.is_empty() {
            return;
        }
        let _booking = self.telemetry.span(Phase::TransferBooking);
        let staged = std::mem::take(&mut self.staged);
        let requests: Vec<TransferRequest> = staged
            .iter()
            .map(|s| TransferRequest {
                vm: s.vm,
                source: s.source,
                dest: s.dest,
                duration_secs: s.duration_secs,
                volume_mb: s.volume_mb,
                deadline_secs: s.deadline_secs,
            })
            .collect();
        let slots = self.cost_model.concurrent_slots();
        let decisions = self.scheduler.book_batch(&requests, now_secs, slots);
        for (s, decision) in staged.into_iter().zip(decisions) {
            match decision {
                TransferDecision::Booked {
                    start_secs,
                    event_secs,
                } => {
                    let flight = InFlight {
                        vm: s.vm,
                        slot: s.slot,
                        source: s.source,
                        dest: s.dest,
                        start_secs,
                        finish_secs: start_secs + s.duration_secs,
                        deadline_secs: s.deadline_secs,
                        volume_mb: s.volume_mb,
                        back: s.back,
                    };
                    debug_assert_eq!(flight.event_secs(), event_secs);
                    let id = self.next_migration_id;
                    self.next_migration_id += 1;
                    self.in_flight.insert(id, flight);
                    self.vms[s.slot as usize].flight = id;
                    outcome.started.push(PendingMigration {
                        id,
                        vm: s.vm,
                        from: self.controllers[s.source].server().id,
                        to: self.controllers[s.dest].server().id,
                        start_secs,
                        event_secs,
                    });
                }
                TransferDecision::Rejected => {
                    // Admission control: the copy provably cannot beat the
                    // deadline, so no link time is wasted on it. Drop the
                    // destination reservation; the VM stays on its source.
                    self.depart_and_reinflate(s.dest, s.vm);
                    if s.origin_inserted {
                        self.clear_origin(s.slot);
                    }
                    self.transient.migration_rejections += 1;
                }
            }
        }
    }

    /// Resolve an in-flight migration when its `MigrationComplete` event
    /// fires. If the page copy finished before the reclamation deadline the
    /// VM lands on its destination (the source copy is destroyed and its
    /// residents reinflate); otherwise the transfer is **aborted**: both
    /// copies are destroyed and the VM is evicted, counted as a
    /// reclamation victim *and* a migration abort. Unknown ids (transfers
    /// cancelled by a departure or a forced eviction) are a no-op.
    pub fn complete_migration(&mut self, id: u64, _now_secs: f64) -> CapacityChangeOutcome {
        self.changed.clear();
        let mut outcome = CapacityChangeOutcome::default();
        let Some(flight) = self.in_flight.remove(&id) else {
            return outcome;
        };
        self.vms[flight.slot as usize].flight = NO_FLIGHT;
        let from = self.controllers[flight.source].server().id;
        let to = self.controllers[flight.dest].server().id;
        if flight.aborts() {
            // The provider's deadline expired mid-transfer: the source is
            // gone and the partial destination copy is useless.
            self.depart_and_reinflate(flight.source, flight.vm);
            self.depart_and_reinflate(flight.dest, flight.vm);
            self.set_location(flight.slot, None);
            self.clear_origin(flight.slot);
            self.transient.migration_aborts += 1;
            self.transient.reclamation_victims += 1;
            outcome.victims.push(flight.vm);
        } else {
            // Success: land on the destination — carrying the guest's
            // memory state (RSS, squeezed-or-not page cache, utilisation
            // history) with it, as live migration does — and free the
            // source.
            if let Some(src) = self.controllers[flight.source].server().domain(flight.vm) {
                let src = src.clone();
                if let Some(dst) = self.controllers[flight.dest]
                    .server_mut()
                    .domain_mut(flight.vm)
                {
                    dst.migrate_guest_state_from(&src);
                }
            }
            // The guest-state copy above carries the source's hotplug /
            // deflation state onto the destination domain, changing its
            // effective allocation — a view-affecting mutation.
            self.mark_server_dirty(flight.dest);
            self.depart_and_reinflate(flight.source, flight.vm);
            self.set_location(flight.slot, Some(flight.dest));
            if flight.back {
                self.clear_origin(flight.slot);
                self.transient.migrations_back += 1;
            } else {
                self.transient.migrations += 1;
            }
            outcome.migrated.push(MigrationRecord {
                vm: flight.vm,
                from,
                to,
                duration_secs: flight.finish_secs - flight.start_secs,
                volume_mb: flight.volume_mb,
                back: flight.back,
            });
        }
        outcome
    }

    /// Resources pledged to leave this server: the effective allocations of
    /// resident domains whose in-flight *or staged* transfer has this
    /// server as its source. They still physically occupy the server but
    /// are on their way out (or will be evicted at the deadline), so
    /// capacity checks during a transfer subtract them.
    fn pending_outbound(&self, idx: usize) -> ResourceVector {
        // Sum in VM-id order (the server's map order), not HashMap
        // iteration order: f64 addition is not associative and a
        // run-to-run fold-order difference could flip a borderline
        // fits_within decision, breaking the bit-exact determinism the
        // simulator guarantees.
        self.controllers[idx]
            .server()
            .domains()
            .filter(|d| self.leaves(idx, d))
            .fold(ResourceVector::ZERO, |acc, d| {
                acc + d.effective_allocation()
            })
    }

    /// Whether `domain`, resident on server `idx`, is pledged to leave it:
    /// its in-flight or staged transfer has `idx` as its source.
    fn leaves(&self, idx: usize, domain: &Domain) -> bool {
        let vm = domain.spec.id;
        let in_flight = self
            .vms
            .get(domain.slot as usize)
            .and_then(VmSlot::flight)
            .and_then(|mid| self.in_flight.get(&mid))
            .is_some_and(|f| f.source == idx && f.vm == vm);
        in_flight || self.staged.iter().any(|s| s.source == idx && s.vm == vm)
    }

    /// The capacity invariant adjusted for in-flight transfers: effective
    /// usage minus pending outbound allocations fits the (possibly
    /// reclaimed) capacity.
    fn fits_with_pending(&self, idx: usize) -> bool {
        let server = self.controllers[idx].server();
        server
            .effective_used()
            .saturating_sub(&self.pending_outbound(idx))
            .fits_within(&server.capacity)
    }

    /// Admit the VM in `slot` on the best server outside `excluded`,
    /// optionally deflating the target's residents. Returns the chosen
    /// server index; the caller sets the VM's location.
    fn admit_on_best(
        &mut self,
        spec: &VmSpec,
        slot: u32,
        mut excluded: Vec<ServerId>,
        deflation_aware: bool,
    ) -> Option<usize> {
        loop {
            if excluded.len() >= self.controllers.len() {
                return None;
            }
            let decision = self.rank_servers(spec, &excluded)?;
            let idx = self.server_index(decision.server);
            // Both admission paths below may mutate the target (deflation
            // and/or a new domain); mark before attempting.
            self.mark_server_dirty(idx);
            let admitted = if deflation_aware {
                matches!(
                    self.admit(idx, slot, spec),
                    Ok(AdmissionOutcome::AdmittedWithoutDeflation)
                        | Ok(AdmissionOutcome::AdmittedWithDeflation { .. })
                )
            } else {
                spec.max_allocation
                    .fits_within(&self.controllers[idx].server().free())
                    && self.controllers[idx]
                        .server_mut()
                        .create_domain(spec.clone(), self.mechanism)
                        .map(|domain| domain.slot = slot)
                        .is_ok()
            };
            if admitted {
                return Some(idx);
            }
            excluded.push(decision.server);
            if excluded.len() >= self.controllers.len() {
                return None;
            }
        }
    }

    /// Destroy residents of an over-capacity server until the rest fits
    /// (in-flight outbound allocations count as already gone): the
    /// last-resort path, counted as reclamation failures. Victims are
    /// chosen lowest-priority first among deflatable VMs, then on-demand
    /// VMs, ids breaking ties. VMs whose transfer has this server as its
    /// *source* are never selected — their capacity is already pledged to
    /// leave. An inbound in-flight *reservation* can be selected, which
    /// cancels the transfer and frees the reservation but spares the VM —
    /// it is still running healthily on its source server.
    fn kill_until_fits(&mut self, idx: usize, outcome: &mut CapacityChangeOutcome) {
        while !self.fits_with_pending(idx) {
            let victim = self.controllers[idx]
                .server()
                .domains()
                .filter(|d| {
                    // Skip outbound in-flight VMs (already subtracted by
                    // fits_with_pending; killing them would not help).
                    self.vms[d.slot as usize]
                        .flight()
                        .and_then(|mid| self.in_flight.get(&mid))
                        .is_none_or(|m| m.source != idx)
                })
                .map(|d| {
                    (
                        !d.spec.deflatable,
                        d.spec.priority.value(),
                        d.spec.id,
                        d.slot,
                    )
                })
                .min_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)))
                .map(|(_, _, id, slot)| (id, slot));
            let Some((victim, slot)) = victim else { return };
            self.evict_vm(idx, victim, slot, outcome);
        }
    }

    /// Make room on `idx` at the expense of `vm`. If `vm`'s domain here is
    /// only the destination reservation of an in-flight transfer, the
    /// transfer is cancelled (counted as an abort) and the VM survives on
    /// its source server; otherwise the VM is destroyed everywhere and
    /// counted as a reclamation victim.
    fn evict_vm(&mut self, idx: usize, vm: VmId, slot: u32, outcome: &mut CapacityChangeOutcome) {
        if let Some(mid) = self.vms[slot as usize].flight() {
            let Some(flight) = self.in_flight.get(&mid).copied() else {
                return;
            };
            self.vms[slot as usize].flight = NO_FLIGHT;
            self.in_flight.remove(&mid);
            // The migration is aborted either way. (Its bandwidth
            // reservation is left to drain — the link was in use until the
            // abort.)
            self.transient.migration_aborts += 1;
            if flight.dest == idx && self.fits_with_pending(flight.source) {
                // Only the reservation lives here, and the source does not
                // need this transfer to restore its own invariant (true
                // for migrate-backs and for sources that have recovered):
                // drop the reservation and keep the VM running where it
                // is. It stays displaced, so its migrate-back eligibility
                // (if any) is preserved.
                self.depart_and_reinflate(flight.dest, vm);
                return;
            }
            // The running copy lives here (or the source relies on this
            // transfer to drain): the VM is lost mid-transfer.
            self.depart_and_reinflate(flight.source, vm);
            self.depart_and_reinflate(flight.dest, vm);
        } else if let Some(loc) = self.vms[slot as usize].location() {
            let _ = self.controllers[loc].server_mut().destroy_domain(vm);
            self.mark_server_dirty(loc);
        }
        self.set_location(slot, None);
        self.clear_origin(slot);
        self.transient.reclamation_victims += 1;
        outcome.victims.push(vm);
    }

    /// Handle a VM departure: remove its domain and reinflate the residents
    /// of the server it was on. A departure mid-transfer cancels the
    /// migration and frees both ends (the pending `MigrationComplete` event
    /// then resolves to a no-op). Starts a new change log.
    pub fn remove_vm(&mut self, vm: VmId) -> Result<()> {
        self.changed.clear();
        let slot = self.slot_by_id(vm).ok_or(DeflateError::UnknownVm(vm))?;
        self.depart(slot)
    }

    /// [`remove_vm`](Self::remove_vm) for the VM in a reserved slot.
    pub fn remove_slot(&mut self, slot: u32) -> Result<()> {
        self.changed.clear();
        self.depart(slot)
    }

    fn depart(&mut self, slot: u32) -> Result<()> {
        let vm = self.vms[slot as usize];
        let idx = vm.location().ok_or(DeflateError::UnknownVm(vm.id))?;
        self.set_location(slot, None);
        self.clear_origin(slot);
        if let Some(mid) = vm.flight() {
            self.vms[slot as usize].flight = NO_FLIGHT;
            if let Some(flight) = self.in_flight.remove(&mid) {
                self.depart_and_reinflate(flight.dest, vm.id);
            }
        }
        self.controllers[idx].server_mut().destroy_domain(vm.id)?;
        self.reinflate_if_fits(idx);
        Ok(())
    }

    /// Check every server's capacity invariant, allowing in-flight
    /// transfers' pending outbound allocations to transiently exceed a
    /// reclaimed source's capacity (used by tests and debug assertions).
    /// With no transfer in flight this is the strict physical invariant.
    pub fn check_invariants(&self) -> bool {
        (0..self.controllers.len()).all(|idx| self.fits_with_pending(idx))
    }

    /// Audit probe: capacity conservation. Every server's effective usage,
    /// minus allocations pledged to leave on an in-flight transfer, must
    /// fit its (possibly reclaimed) capacity. Read-only; returns the first
    /// offending server with a diagnostic.
    pub(crate) fn audit_capacity(&self) -> std::result::Result<(), AuditFinding> {
        for idx in 0..self.controllers.len() {
            if !self.fits_with_pending(idx) {
                let server = self.controllers[idx].server();
                return Err(AuditFinding {
                    server: Some(server.id),
                    detail: format!(
                        "capacity conservation violated on server {}: effective used {} \
                         minus pending outbound {} exceeds capacity {}",
                        server.id.0,
                        server.effective_used(),
                        self.pending_outbound(idx),
                        server.capacity
                    ),
                });
            }
        }
        Ok(())
    }

    /// Audit probe: bandwidth-ledger balance. Every live in-flight transfer
    /// (resolving strictly after `now_secs`, booked before its deadline)
    /// must hold a reservation — an entry whose end time equals the
    /// transfer's event time — on **both** endpoints' scheduler ledgers.
    /// The reverse is deliberately not checked: cancelled transfers
    /// (forced evictions, departures mid-transfer) leave their
    /// reservations to drain, so the ledger may legitimately hold entries
    /// with no matching flight. Skipped entirely under an unlimited
    /// bandwidth budget, where the scheduler reserves nothing.
    pub(crate) fn audit_bandwidth_ledger(
        &self,
        now_secs: f64,
    ) -> std::result::Result<(), AuditFinding> {
        if self.cost_model.concurrent_slots() == usize::MAX {
            return Ok(());
        }
        // Group required reservation end times per endpoint. Sorted-order
        // iteration is not needed for correctness (the multiset check is
        // order-independent) but keeps the first-failure diagnostic
        // deterministic despite HashMap iteration order.
        let mut required: Vec<Vec<f64>> = vec![Vec::new(); self.controllers.len()];
        for flight in self.in_flight.values() {
            let end = flight.event_secs();
            if end > now_secs && flight.start_secs < flight.deadline_secs {
                required[flight.source].push(end);
                required[flight.dest].push(end);
            }
        }
        let ledgers = self.scheduler.ledgers();
        for (idx, req) in required.iter_mut().enumerate() {
            if req.is_empty() {
                continue;
            }
            req.sort_by(f64::total_cmp);
            let mut live: Vec<f64> = ledgers[idx]
                .iter()
                .copied()
                .filter(|&end| end > now_secs)
                .collect();
            live.sort_by(f64::total_cmp);
            // Multiset containment: every required end must be matched by a
            // distinct live ledger entry with the same end time.
            let mut li = 0;
            for &end in req.iter() {
                while li < live.len() && live[li] < end {
                    li += 1;
                }
                if li >= live.len() || live[li] != end {
                    return Err(AuditFinding {
                        server: Some(self.controllers[idx].server().id),
                        detail: format!(
                            "bandwidth ledger unbalanced on server {}: in-flight transfer \
                             resolving at t={end:.3}s has no backing reservation \
                             ({} live ledger entries, {} required)",
                            self.controllers[idx].server().id.0,
                            live.len(),
                            req.len()
                        ),
                    });
                }
                li += 1;
            }
        }
        Ok(())
    }

    /// Audit probe: placement-index consistency. Every server *not* marked
    /// dirty must have a cached view identical to one freshly derived from
    /// the server — a stale clean entry means some view-affecting mutation
    /// skipped [`mark_server_dirty`](Self::mark_server_dirty) and the
    /// ranking pass is reading corrupt data. Read-only: dirty entries are
    /// skipped, never refreshed (refreshing would mutate state the
    /// determinism contract says an auditor must not touch).
    pub(crate) fn audit_placement_index(&self) -> std::result::Result<(), AuditFinding> {
        if !self.index.tree_is_consistent() {
            return Err(AuditFinding {
                server: None,
                detail: "placement index tree inconsistent: a node is not the \
                         maximum of its children, or a leaf disagrees with its view"
                    .to_string(),
            });
        }
        let dirty = self.index.dirty_indices();
        for (idx, cached) in self.index.views().iter().enumerate() {
            if dirty.binary_search(&idx).is_ok() {
                continue;
            }
            let fresh = self.controllers[idx].server().view();
            if *cached != fresh {
                return Err(AuditFinding {
                    server: Some(self.controllers[idx].server().id),
                    detail: format!(
                        "placement index inconsistent on server {}: cached view \
                         (used {}, overcommitment {:.4}) differs from a fresh rescan \
                         (used {}, overcommitment {:.4}) but the server is not dirty",
                        self.controllers[idx].server().id.0,
                        cached.used,
                        cached.overcommitment,
                        fresh.used,
                        fresh.overcommitment
                    ),
                });
            }
        }
        Ok(())
    }

    /// Record this subsystem's owned heap bytes into the engine's memory
    /// ledger: the per-server controllers (their domains), the
    /// incremental placement index, the transfer scheduler's reservation
    /// ledgers, and the per-VM table with the migration bookkeeping.
    pub fn record_memory(&self, ledger: &mut MemoryLedger) {
        use deflate_core::mem::{map_entry_bytes, vec_capacity_bytes};
        use std::mem::size_of;
        let servers = vec_capacity_bytes(&self.controllers)
            + self
                .controllers
                .iter()
                .map(|c| c.accounted_bytes())
                .sum::<u64>();
        ledger.record("servers", servers);
        ledger.record("placement_index", self.index.accounted_bytes());
        ledger.record("scheduler", self.scheduler.accounted_bytes());
        let migrations = vec_capacity_bytes(&self.vms)
            + self.slot_of.len() as u64 * map_entry_bytes(size_of::<VmId>(), size_of::<u32>())
            + vec_capacity_bytes(&self.displaced)
            + vec_capacity_bytes(&self.changed)
            + self.in_flight.len() as u64
                * map_entry_bytes(size_of::<u64>(), size_of::<InFlight>())
            + vec_capacity_bytes(&self.staged);
        ledger.record("migrations", migrations);
    }

    /// Mutable controller access for the auditor's mutation-style tests
    /// (corrupting a server *without* marking it dirty is exactly the bug
    /// class `audit_placement_index` exists to catch).
    #[cfg(test)]
    pub(crate) fn controller_mut(&mut self, idx: usize) -> &mut LocalController {
        &mut self.controllers[idx]
    }

    /// Mutable scheduler access for the auditor's mutation-style tests.
    #[cfg(test)]
    pub(crate) fn scheduler_mut(&mut self) -> &mut TransferScheduler {
        &mut self.scheduler
    }

    /// Insert a synthetic in-flight transfer (no domains, no reservations)
    /// so the bandwidth-ledger checker can be exercised in isolation.
    /// Returns the migration id.
    #[cfg(test)]
    pub(crate) fn inject_test_flight(
        &mut self,
        vm: VmId,
        source: usize,
        dest: usize,
        start_secs: f64,
        finish_secs: f64,
        deadline_secs: f64,
    ) -> u64 {
        let id = self.next_migration_id;
        self.next_migration_id += 1;
        let slot = self.slot_for_id(vm);
        self.in_flight.insert(
            id,
            InFlight {
                vm,
                slot,
                source,
                dest,
                start_secs,
                finish_secs,
                deadline_secs,
                volume_mb: 0.0,
                back: false,
            },
        );
        self.vms[slot as usize].flight = id;
        id
    }

    /// Serialize the manager's **dynamic** state for an engine checkpoint:
    /// per-server capacities and resident domains (in `VmId` order — the
    /// `BTreeMap` iteration order), the VM location and migration-origin
    /// maps (sorted by VM id), the in-flight transfers (sorted by
    /// migration id), the transfer scheduler's ledgers, the
    /// admission/transient counters and the placement index's queued dirty
    /// marks. Static configuration (placement policy, partitions,
    /// mechanism, cost model, telemetry) is **not** written — the
    /// restoring side rebuilds it
    /// from the same [`ClusterConfig`] and builder calls,
    /// which is also what lets a fork restore under a *different*
    /// [`TransferPolicy`]. Every map is emitted in sorted order, so the
    /// bytes are independent of `HashMap` layout and host.
    ///
    /// Must be called at an event boundary: `staged` transfers only exist
    /// within one capacity event and are never snapshotted.
    pub fn write_snapshot(&self, w: &mut ByteWriter) {
        debug_assert!(
            self.staged.is_empty(),
            "checkpoints are taken between manager calls only"
        );
        w.put_usize(self.controllers.len());
        for controller in &self.controllers {
            let server = controller.server();
            w.put_resources(&server.capacity);
            w.put_usize(server.domains().count());
            for domain in server.domains() {
                domain.write_snapshot(w);
            }
        }
        let mut locations: Vec<(u64, u64)> = self
            .vms
            .iter()
            .filter_map(|vm| vm.location().map(|idx| (vm.id.0, idx as u64)))
            .collect();
        locations.sort_unstable();
        w.put_usize(locations.len());
        for (vm, idx) in locations {
            w.put_u64(vm);
            w.put_u64(idx);
        }
        let mut origins: Vec<(u64, u64)> = self
            .displaced
            .iter()
            .map(|&slot| &self.vms[slot as usize])
            .map(|vm| (vm.id.0, u64::from(vm.origin)))
            .collect();
        origins.sort_unstable();
        w.put_usize(origins.len());
        for (vm, idx) in origins {
            w.put_u64(vm);
            w.put_u64(idx);
        }
        let mut flights: Vec<(u64, InFlight)> =
            self.in_flight.iter().map(|(&id, &f)| (id, f)).collect();
        flights.sort_unstable_by_key(|&(id, _)| id);
        w.put_usize(flights.len());
        for (id, f) in flights {
            w.put_u64(id);
            w.put_u64(f.vm.0);
            w.put_usize(f.source);
            w.put_usize(f.dest);
            w.put_f64(f.start_secs);
            w.put_f64(f.finish_secs);
            w.put_f64(f.deadline_secs);
            w.put_f64(f.volume_mb);
            w.put_bool(f.back);
        }
        w.put_u64(self.next_migration_id);
        self.scheduler.write_snapshot(w);
        w.put_usize(self.counters.admitted_free);
        w.put_usize(self.counters.admitted_with_deflation);
        w.put_usize(self.counters.admitted_with_preemption);
        w.put_usize(self.counters.rejected);
        w.put_usize(self.counters.preempted_vms);
        w.put_usize(self.transient.reclaim_events);
        w.put_usize(self.transient.restore_events);
        w.put_usize(self.transient.absorbed_by_deflation);
        w.put_usize(self.transient.migrations);
        w.put_usize(self.transient.migrations_back);
        w.put_usize(self.transient.migration_aborts);
        w.put_usize(self.transient.migration_rejections);
        w.put_usize(self.transient.reclamation_victims);
        let dirty = self.index.dirty_indices();
        w.put_usize(dirty.len());
        for idx in dirty {
            w.put_usize(idx);
        }
    }

    /// Restore [`write_snapshot`](Self::write_snapshot) state onto a
    /// **freshly constructed** manager (same [`ClusterConfig`], mode and
    /// builder overrides — the transfer policy in effect is kept, so a
    /// fork may have swapped it before restoring). The placement index is
    /// rebuilt from the restored servers and the snapshot's dirty marks
    /// are replayed onto it. Every VM gets a `VmId` slot.
    pub fn read_snapshot(&mut self, r: &mut ByteReader<'_>) -> CheckpointResult<()> {
        self.read_snapshot_with(r, |_| None)
    }

    /// [`read_snapshot`](Self::read_snapshot) for a caller that places its
    /// VMs by slot: `reserved_slot` names the reserved slot of each of its
    /// VMs (`None` for any other VM, which gets a `VmId` slot). Slots are
    /// not in the snapshot; this is how they are rebuilt.
    pub fn read_snapshot_with(
        &mut self,
        r: &mut ByteReader<'_>,
        reserved_slot: impl Fn(VmId) -> Option<u32>,
    ) -> CheckpointResult<()> {
        let num_servers = r.field("manager.servers.len").get_usize()?;
        if num_servers != self.controllers.len() {
            return Err(CheckpointError::Corrupt(format!(
                "snapshot has {} servers, cluster has {}",
                num_servers,
                self.controllers.len()
            )));
        }
        for (s, controller) in self.controllers.iter_mut().enumerate() {
            let server = controller.server_mut();
            r.field_at("manager.server", s).read(|r| {
                server.capacity = r.field("capacity").get_resources()?;
                let count = r.field("domains.len").get_usize()?;
                for d in 0..count {
                    server.restore_domain(r.field_at("domain", d).read(Domain::read_snapshot)?);
                }
                Ok(())
            })?;
        }
        // Every decoded server index must name a server of this cluster.
        let server_index = |what: &str, idx: u64| match usize::try_from(idx) {
            Ok(idx) if idx < num_servers => Ok(idx),
            _ => Err(CheckpointError::Corrupt(format!(
                "{what} names server {idx} of {num_servers}"
            ))),
        };
        self.vms = vec![VmSlot::VACANT; self.reserved_slots];
        self.slot_of.clear();
        self.displaced.clear();
        self.changed.clear();
        let slot_for = |this: &mut Self, vm: VmId| match reserved_slot(vm) {
            Some(slot) => {
                this.vms[slot as usize].id = vm;
                slot
            }
            None => this.slot_for_id(vm),
        };
        // A VM id and a server index per entry.
        let location = |r: &mut ByteReader<'_>| {
            let vm = VmId(r.field("vm").get_u64()?);
            Ok((vm, r.field("server_index").get_u64()?))
        };
        let n = r.field("manager.vm_location.len").get_len(16)?;
        for i in 0..n {
            let (vm, idx) = r.field_at("manager.vm_location", i).read(location)?;
            let idx = server_index("vm_location", idx)?;
            let slot = slot_for(self, vm);
            self.vms[slot as usize].location = idx as u32;
        }
        let n = r.field("manager.migration_origin.len").get_len(16)?;
        for i in 0..n {
            let (vm, idx) = r.field_at("manager.migration_origin", i).read(location)?;
            let idx = server_index("migration_origin", idx)?;
            let slot = slot_for(self, vm);
            self.clear_origin(slot);
            self.displace(slot, idx);
        }
        // id, vm, source, dest and four f64s of 8 bytes each, plus a bool.
        let n = r.field("manager.in_flight.len").get_len(65)?;
        self.in_flight = IdMap::with_capacity_and_hasher(n, Default::default());
        for i in 0..n {
            r.field_at("manager.in_flight", i).read(|r| {
                let id = r.field("id").get_u64()?;
                if id == NO_FLIGHT {
                    return Err(CheckpointError::Corrupt(format!(
                        "in-flight migration id {id} is reserved"
                    )));
                }
                let vm = VmId(r.field("vm").get_u64()?);
                let slot = slot_for(self, vm);
                let flight = InFlight {
                    vm,
                    slot,
                    source: server_index("in-flight source", r.field("source").get_u64()?)?,
                    dest: server_index("in-flight dest", r.field("dest").get_u64()?)?,
                    start_secs: r.field("start_secs").get_f64()?,
                    finish_secs: r.field("finish_secs").get_f64()?,
                    deadline_secs: r.field("deadline_secs").get_f64()?,
                    volume_mb: r.field("volume_mb").get_f64()?,
                    back: r.field("back").get_bool()?,
                };
                self.vms[slot as usize].flight = id;
                self.in_flight.insert(id, flight);
                Ok(())
            })?;
        }
        for idx in 0..num_servers {
            let ids: Vec<VmId> = self.controllers[idx]
                .server()
                .domains()
                .map(|d| d.spec.id)
                .collect();
            for vm in ids {
                let slot = slot_for(self, vm);
                self.label_domain(idx, slot);
            }
        }
        self.next_migration_id = r.field("manager.next_migration_id").get_u64()?;
        let policy = self.scheduler.policy();
        self.scheduler = r
            .field("scheduler")
            .read(|r| TransferScheduler::read_snapshot(r, policy))?;
        self.counters = r.field("manager.admission").read(|r| {
            Ok(AdmissionCounters {
                admitted_free: r.field("admitted_free").get_usize()?,
                admitted_with_deflation: r.field("admitted_with_deflation").get_usize()?,
                admitted_with_preemption: r.field("admitted_with_preemption").get_usize()?,
                rejected: r.field("rejected").get_usize()?,
                preempted_vms: r.field("preempted_vms").get_usize()?,
            })
        })?;
        self.transient = r.field("manager.transient").read(|r| {
            Ok(TransientCounters {
                reclaim_events: r.field("reclaim_events").get_usize()?,
                restore_events: r.field("restore_events").get_usize()?,
                absorbed_by_deflation: r.field("absorbed_by_deflation").get_usize()?,
                migrations: r.field("migrations").get_usize()?,
                migrations_back: r.field("migrations_back").get_usize()?,
                migration_aborts: r.field("migration_aborts").get_usize()?,
                migration_rejections: r.field("migration_rejections").get_usize()?,
                reclamation_victims: r.field("reclamation_victims").get_usize()?,
            })
        })?;
        self.staged.clear();
        self.index =
            PlacementIndex::new(self.controllers.iter().map(|c| c.server().view()).collect());
        let dirty = r.field("placement_index.dirty_len").get_usize()?;
        for i in 0..dirty {
            let idx = r.field_at("placement_index.dirty", i).get_usize()?;
            self.index.mark_dirty(idx);
        }
        Ok(())
    }

    /// Publish the manager's admission, transient and transfer-scheduler
    /// accounting into the telemetry metrics registry (one-branch no-op
    /// when the metrics sink is off). Called once at the end of a run so
    /// the published values are the final counters.
    pub fn publish_metrics(&self) {
        if !self.telemetry.enabled() {
            return;
        }
        let t = &self.telemetry;
        t.count("manager.admitted_free", self.counters.admitted_free as u64);
        t.count(
            "manager.admitted_with_deflation",
            self.counters.admitted_with_deflation as u64,
        );
        t.count(
            "manager.admitted_with_preemption",
            self.counters.admitted_with_preemption as u64,
        );
        t.count("manager.rejected", self.counters.rejected as u64);
        t.count("manager.preempted_vms", self.counters.preempted_vms as u64);
        t.count(
            "transient.reclaim_events",
            self.transient.reclaim_events as u64,
        );
        t.count(
            "transient.restore_events",
            self.transient.restore_events as u64,
        );
        t.count(
            "transient.absorbed_by_deflation",
            self.transient.absorbed_by_deflation as u64,
        );
        t.count("transient.migrations", self.transient.migrations as u64);
        t.count(
            "transient.migrations_back",
            self.transient.migrations_back as u64,
        );
        t.count(
            "transient.migration_aborts",
            self.transient.migration_aborts as u64,
        );
        t.count(
            "transient.migration_rejections",
            self.transient.migration_rejections as u64,
        );
        t.count(
            "transient.reclamation_victims",
            self.transient.reclamation_victims as u64,
        );
        let sched = self.scheduler.stats();
        t.count("scheduler.booked", sched.booked as u64);
        t.count("scheduler.rejected", sched.rejected as u64);
        t.gauge_set(
            "scheduler.mean_queue_wait_secs",
            sched.mean_queue_wait_secs(),
        );
        t.gauge_set("manager.in_flight_at_end", self.in_flight.len() as f64);
        t.gauge_set("manager.num_servers", self.controllers.len() as f64);
    }
}

/// The autoscaler's view of the cluster: every replica operation goes
/// through the manager's own placement, deflation and reinflation
/// machinery, so elastic capacity is always accounted for exactly like
/// trace capacity — the autoscaler can neither create nor destroy
/// resources outside the manager's books. These calls append to the
/// current change log rather than start a new one: one scale event makes
/// several of them.
impl ElasticCluster for ClusterManager {
    /// Place a new replica through the ordinary admission path (it may
    /// deflate residents, exactly like a trace arrival). `None` when every
    /// server rejects it — counted as a rejected admission.
    fn launch_replica(&mut self, spec: VmSpec) -> Option<ServerId> {
        let slot = self.slot_for_id(spec.id);
        match self.place(slot, spec) {
            PlacementResult::Placed { server }
            | PlacementResult::PlacedWithDeflation { server, .. }
            | PlacementResult::PlacedWithPreemption { server, .. } => Some(server),
            PlacementResult::Rejected => None,
        }
    }

    /// Terminate a replica like a departure: its domain is destroyed and
    /// the server's residents reinflate into the freed room.
    fn retire_replica(&mut self, vm: VmId) -> Option<ServerId> {
        let server = self.locate(vm)?;
        self.depart(self.slot_by_id(vm)?).ok()?;
        Some(server)
    }

    /// Deflate a replica to `fraction` of its allocation and mark its
    /// domain parked, so server-level reinflation passes leave it alone
    /// until [`unpark_replica`](Self::unpark_replica). The surrendered
    /// room goes to the server's other residents. `None` while the VM is
    /// part of an in-flight migration (its footprint is pledged to two
    /// servers at once — the autoscaler picks another replica).
    fn park_replica(&mut self, vm: VmId, fraction: f64) -> Option<ServerId> {
        let entry = self.vms[self.slot_by_id(vm)? as usize];
        if entry.flight().is_some() {
            return None;
        }
        let idx = entry.location()?;
        let domain = self.controllers[idx].server_mut().domain_mut(vm)?;
        let target = domain.spec.max_allocation * fraction.clamp(0.0, 1.0);
        domain.retarget(target, &mut self.changed);
        domain.set_parked(true);
        self.reinflate_if_fits(idx);
        Some(self.controllers[idx].server().id)
    }

    /// Clear the replica's parked flag and reinflate its server — the
    /// reinflate-on-demand path. Under reclamation pressure the replica
    /// may come back only partially inflated (it shares the room with its
    /// neighbours), which is still infinitely better than a boot delay.
    fn unpark_replica(&mut self, vm: VmId) -> Option<ServerId> {
        let idx = self.vms[self.slot_by_id(vm)? as usize].location()?;
        let domain = self.controllers[idx].server_mut().domain_mut(vm)?;
        domain.set_parked(false);
        self.reinflate_if_fits(idx);
        Some(self.controllers[idx].server().id)
    }

    fn replica_allocation_fraction(&self, vm: VmId) -> Option<f64> {
        self.cpu_allocation_fraction(vm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflate_core::policy::ProportionalDeflation;
    use deflate_core::vm::{Priority, VmClass};
    use std::collections::BTreeMap;

    fn small_cluster(mode: ReclamationMode) -> ClusterManager {
        let config = ClusterConfig {
            num_servers: 2,
            server_capacity: ResourceVector::cpu_mem(16_000.0, 32_768.0),
            placement: PlacementKind::CosineFitness,
            partitions: PartitionScheme::None,
            mechanism: DeflationMechanism::Transparent,
        };
        ClusterManager::new(&config, mode)
    }

    fn deflation_mode() -> ReclamationMode {
        ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default()))
    }

    fn vm(id: u64, cores: f64, priority: f64) -> VmSpec {
        VmSpec::deflatable(
            VmId(id),
            VmClass::Interactive,
            ResourceVector::cpu_mem(cores * 1000.0, 8_192.0),
        )
        .with_priority(Priority::new(priority))
    }

    #[test]
    fn places_vms_across_servers() {
        let mut cluster = small_cluster(deflation_mode());
        for i in 0..4 {
            let result = cluster.place_vm(vm(i, 8.0, 0.5));
            assert!(result.is_placed(), "VM {i} not placed: {result:?}");
        }
        assert!(cluster.check_invariants());
        // 4 × 8 cores over 2 × 16-core servers: both servers are full and
        // balanced.
        let views = cluster.views();
        assert_eq!(views.len(), 2);
        for v in views {
            assert!(v.used.cpu() >= 15_999.0);
        }
        assert_eq!(cluster.counters().attempts(), 4);
        assert_eq!(cluster.counters().rejected, 0);
    }

    #[test]
    fn deflation_mode_overcommits_instead_of_rejecting() {
        let mut cluster = small_cluster(deflation_mode());
        for i in 0..4 {
            assert!(cluster.place_vm(vm(i, 8.0, 0.5)).is_placed());
        }
        // Cluster is full; a fifth VM forces deflation.
        let result = cluster.place_vm(vm(5, 8.0, 0.5));
        assert!(matches!(
            result,
            PlacementResult::PlacedWithDeflation { .. }
        ));
        assert!(cluster.check_invariants());
        assert!(cluster.current_overcommitment() > 0.2);
        assert_eq!(cluster.counters().admitted_with_deflation, 1);
        // The deflated VMs report allocation fractions below 1.
        let fractions = cluster.running_allocation_fractions();
        assert!(fractions.iter().any(|(_, f)| *f < 1.0));
    }

    #[test]
    fn rejects_when_nothing_can_be_reclaimed() {
        let mut cluster = small_cluster(deflation_mode());
        for i in 0..4 {
            let od = VmSpec::on_demand(
                VmId(i),
                VmClass::Unknown,
                ResourceVector::cpu_mem(16_000.0, 32_768.0),
            );
            // Two fit (one per server), two are rejected.
            cluster.place_vm(od);
        }
        let result = cluster.place_vm(vm(10, 4.0, 0.5));
        assert_eq!(result, PlacementResult::Rejected);
        assert!(cluster.counters().rejected >= 1);
    }

    #[test]
    fn preemption_mode_kills_low_priority_vms() {
        let mut cluster = small_cluster(ReclamationMode::Preemption);
        for i in 0..4 {
            assert!(cluster.place_vm(vm(i, 8.0, 0.2)).is_placed());
        }
        let result = cluster.place_vm(vm(10, 8.0, 0.9));
        match result {
            PlacementResult::PlacedWithPreemption { preempted, .. } => {
                assert!(!preempted.is_empty());
                // Preempted VMs are gone from the location map.
                for vm in &preempted {
                    assert!(cluster.locate(*vm).is_none());
                }
            }
            other => panic!("expected preemption, got {other:?}"),
        }
        assert!(cluster.counters().preempted_vms >= 1);
        assert!(cluster.check_invariants());
    }

    #[test]
    fn preemption_spares_residents_of_servers_it_cannot_use() {
        let mut cluster = small_cluster(ReclamationMode::Preemption);
        // Each server: a 10-core on-demand VM plus a 6-core deflatable one
        // filling the rest. Fit alone forces one of each per server.
        for i in 0..2 {
            let od = VmSpec::on_demand(
                VmId(i),
                VmClass::Unknown,
                ResourceVector::cpu_mem(10_000.0, 8_192.0),
            );
            assert!(cluster.place_vm(od).is_placed());
        }
        for i in 2..4 {
            assert!(cluster.place_vm(vm(i, 6.0, 0.2)).is_placed());
        }
        // 8 cores fit nowhere, even with every deflatable resident killed.
        let result = cluster.place_vm(vm(10, 8.0, 0.9));
        assert_eq!(result, PlacementResult::Rejected);
        for i in 0..4 {
            assert!(
                cluster.locate(VmId(i)).is_some(),
                "VM {i} was killed for a placement that failed"
            );
        }
        assert_eq!(cluster.counters().preempted_vms, 0);
        assert!(cluster.check_invariants());
    }

    #[test]
    fn preemption_kills_nobody_for_an_invalid_spec() {
        let mut cluster = small_cluster(ReclamationMode::Preemption);
        for i in 0..4 {
            assert!(cluster.place_vm(vm(i, 8.0, 0.2)).is_placed());
        }
        let mut bad = vm(10, 8.0, 0.9);
        bad.min_allocation = ResourceVector::cpu_mem(12_000.0, 8_192.0);
        assert_eq!(cluster.place_vm(bad), PlacementResult::Rejected);
        for i in 0..4 {
            assert!(
                cluster.locate(VmId(i)).is_some(),
                "VM {i} was killed for a placement that failed"
            );
        }
        assert!(cluster.check_invariants());
    }

    #[test]
    fn reclaim_deflates_and_restore_reinflates_residents() {
        let mut cluster = small_cluster(deflation_mode());
        for i in 0..4 {
            assert!(cluster.place_vm(vm(i, 8.0, 0.5)).is_placed());
        }
        // Halve server 0: both servers are full, so nothing can migrate and
        // the residents must be deflated in place.
        let outcome = cluster.reclaim_capacity(ServerId(0), 0.5, 0.0);
        assert!(
            outcome.victims.is_empty(),
            "deflation should absorb: {outcome:?}"
        );
        assert!(cluster.check_invariants());
        assert!((cluster.capacity_fraction(ServerId(0)) - 0.5).abs() < 1e-9);
        assert!(cluster
            .running_allocation_fractions()
            .iter()
            .any(|(_, f)| *f < 1.0 - 1e-9));
        assert_eq!(cluster.transient_counters().reclaim_events, 1);
        assert_eq!(cluster.transient_counters().absorbed_by_deflation, 1);
        // Give it back: everyone reinflates to full.
        cluster.restore_capacity(ServerId(0), 1.0, false, 0.0);
        assert!(cluster
            .running_allocation_fractions()
            .iter()
            .all(|(_, f)| (*f - 1.0).abs() < 1e-6));
    }

    #[test]
    fn parked_replicas_are_never_migration_candidates() {
        // First-fit packs both VMs onto server 0 of a 3-server cluster.
        let config = ClusterConfig {
            num_servers: 3,
            server_capacity: ResourceVector::cpu_mem(16_000.0, 32_768.0),
            placement: PlacementKind::FirstFit,
            partitions: PartitionScheme::None,
            mechanism: DeflationMechanism::Transparent,
        };
        let mut cluster = ClusterManager::new(&config, ReclamationMode::MigrationOnly);
        assert!(cluster.place_vm(vm(1, 8.0, 0.5)).is_placed());
        assert!(cluster.place_vm(vm(2, 8.0, 0.5)).is_placed());
        // Park VM 1: most-deflated resident by construction.
        assert!(cluster.park_replica(VmId(1), 0.1).is_some());
        // Reclaim server 0 below the pair's footprint: migration must
        // skip the parked replica and move VM 2 instead.
        let outcome = cluster.reclaim_capacity(ServerId(0), 0.5, 0.0);
        assert!(outcome.victims.is_empty(), "{outcome:?}");
        assert_eq!(cluster.locate(VmId(1)), Some(ServerId(0)));
        assert_ne!(cluster.locate(VmId(2)), Some(ServerId(0)));
        let d1 = cluster.controllers[0].server().domain(VmId(1)).unwrap();
        assert!(d1.is_parked(), "the park must survive the reclamation");
        assert!(
            d1.effective_allocation().cpu() <= 1600.0 + 1e-6,
            "the parked sliver must not reinflate"
        );
        assert!(cluster.check_invariants());
    }

    #[test]
    fn restore_below_usage_behaves_like_reclaim() {
        let mut cluster = small_cluster(deflation_mode());
        for i in 0..4 {
            assert!(cluster.place_vm(vm(i, 8.0, 0.5)).is_placed());
        }
        // A "restore" to half capacity while residents use all of it is a
        // reclamation in disguise: the invariant must still hold afterwards.
        let outcome = cluster.restore_capacity(ServerId(0), 0.5, false, 0.0);
        assert!(cluster.check_invariants());
        assert!(outcome.victims.is_empty());
        assert!(cluster
            .running_allocation_fractions()
            .iter()
            .any(|(_, f)| *f < 1.0 - 1e-9));
    }

    #[test]
    fn departures_reinflate_and_allow_reuse() {
        let mut cluster = small_cluster(deflation_mode());
        for i in 0..5 {
            assert!(cluster.place_vm(vm(i, 8.0, 0.5)).is_placed());
        }
        // Remove two VMs; the rest should reinflate back to full size.
        cluster.remove_vm(VmId(0)).unwrap();
        cluster.remove_vm(VmId(1)).unwrap();
        let fractions = cluster.running_allocation_fractions();
        assert_eq!(fractions.len(), 3);
        assert!(fractions.iter().all(|(_, f)| (*f - 1.0).abs() < 1e-6));
        // Removing an unknown VM errors.
        assert!(cluster.remove_vm(VmId(99)).is_err());
    }

    #[test]
    fn locate_and_allocation_fraction() {
        let mut cluster = small_cluster(deflation_mode());
        cluster.place_vm(vm(1, 4.0, 0.5));
        assert!(cluster.locate(VmId(1)).is_some());
        assert_eq!(cluster.cpu_allocation_fraction(VmId(1)), Some(1.0));
        assert_eq!(cluster.cpu_allocation_fraction(VmId(42)), None);
    }

    /// A slow-but-unconstrained cost model: 100 MiB/s links, no dirty-page
    /// overhead, no floor, one transfer slot per server, no deadline.
    fn slow_model() -> MigrationCostModel {
        MigrationCostModel {
            link_bandwidth_mbps: 100.0,
            dirty_page_overhead: 1.0,
            setup_floor_secs: 0.0,
            per_server_bandwidth_mbps: 100.0,
            reclaim_deadline_secs: f64::INFINITY,
            ..MigrationCostModel::instant()
        }
    }

    /// `pending_outbound` as it was before it walked the source's domains:
    /// kept verbatim as the oracle the current one must match bit for bit.
    fn pending_outbound_oracle(cluster: &ClusterManager, idx: usize) -> ResourceVector {
        let mut vms: Vec<VmId> = cluster
            .in_flight
            .values()
            .filter(|m| m.source == idx)
            .map(|m| m.vm)
            .chain(
                cluster
                    .staged
                    .iter()
                    .filter(|s| s.source == idx)
                    .map(|s| s.vm),
            )
            .collect();
        vms.sort();
        vms.dedup();
        vms.into_iter()
            .filter_map(|vm| cluster.controllers[idx].server().domain(vm))
            .fold(ResourceVector::ZERO, |acc, d| {
                acc + d.effective_allocation()
            })
    }

    /// Over deflated residents, real in-flight transfers (with their
    /// destination copies), synthetic flights from the VM's server or from
    /// elsewhere, and staged transfers — alone, on top of a flight, or
    /// from a server the VM is not on — the walk over the source's
    /// domains sums the same allocations in the same order as the oracle.
    #[test]
    fn pending_outbound_matches_the_oracle() {
        let mut seed = 5u64;
        let mut next = move |n: usize| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((seed >> 33) % n as u64) as usize
        };
        let (mut started, mut nonzero) = (0, 0);
        for round in 0..40 {
            let config = ClusterConfig {
                num_servers: 4,
                server_capacity: ResourceVector::cpu_mem(16_000.0, 32_768.0),
                placement: PlacementKind::CosineFitness,
                partitions: PartitionScheme::None,
                mechanism: DeflationMechanism::Transparent,
            };
            let mut cluster =
                ClusterManager::new(&config, deflation_mode()).with_migration_cost(slow_model());
            let count = 6 + next(14) as u64;
            for id in 0..count {
                let cores = 1.0 + next(7) as f64 + 0.25 * next(4) as f64;
                let priority = 0.1 + 0.1 * next(9) as f64;
                // A floor under each VM: deflation cannot absorb the
                // whole reclamation, so some VMs must leave.
                cluster.place_vm(vm(id, cores, priority).with_priority_derived_min());
            }
            if round % 2 == 0 {
                let victim = ServerId(next(4) as u32);
                started += cluster.reclaim_capacity(victim, 0.1, 10.0).started.len();
            }
            let residents: Vec<(VmId, usize)> = (0..count)
                .filter_map(|id| {
                    let vm = VmId(id);
                    let server = cluster.locate(vm)?;
                    (!cluster.is_in_flight(vm)).then(|| (vm, cluster.server_index(server)))
                })
                .collect();
            for &(vm, location) in &residents {
                let elsewhere = (location + 1 + next(3)) % 4;
                let slot = cluster.slot_by_id(vm).unwrap();
                let stage = |cluster: &mut ClusterManager, source: usize| {
                    cluster.staged.push(StagedTransfer {
                        vm,
                        slot,
                        source,
                        dest: (source + 1) % 4,
                        duration_secs: 1.0,
                        volume_mb: 0.0,
                        deadline_secs: f64::INFINITY,
                        back: false,
                        origin_inserted: false,
                    });
                };
                match next(6) {
                    0 => {
                        cluster.inject_test_flight(vm, location, elsewhere, 0.0, 1.0, 2.0);
                    }
                    1 => {
                        cluster.inject_test_flight(vm, elsewhere, location, 0.0, 1.0, 2.0);
                    }
                    2 => stage(&mut cluster, location),
                    3 => stage(&mut cluster, elsewhere),
                    4 => {
                        cluster.inject_test_flight(vm, location, elsewhere, 0.0, 1.0, 2.0);
                        stage(&mut cluster, location);
                    }
                    _ => {}
                }
            }
            let bits = |v: ResourceVector| v.iter().map(|(_, x)| x.to_bits()).collect::<Vec<_>>();
            for idx in 0..4 {
                let pending = cluster.pending_outbound(idx);
                assert_eq!(
                    bits(pending),
                    bits(pending_outbound_oracle(&cluster, idx)),
                    "round {round}, server {idx}"
                );
                nonzero += usize::from(!pending.is_zero());
            }
        }
        assert!(
            started > 10 && nonzero > 80,
            "{started} real transfers, {nonzero} sums"
        );
    }

    #[test]
    fn costed_migration_is_asynchronous_and_lands_on_completion() {
        let mut cluster =
            small_cluster(ReclamationMode::MigrationOnly).with_migration_cost(slow_model());
        assert!(cluster.place_vm(vm(1, 8.0, 0.5)).is_placed());
        let source = cluster.locate(VmId(1)).unwrap();
        let dest_expected = ServerId(1 - source.0);
        // Reclaim the VM's server below its footprint: it must migrate, and
        // with a costed model the transfer is in flight, not instant.
        let outcome = cluster.reclaim_capacity(source, 0.4, 100.0);
        assert_eq!(outcome.started.len(), 1, "outcome: {outcome:?}");
        assert!(outcome.migrated.is_empty());
        assert!(outcome.victims.is_empty());
        let pending = outcome.started[0];
        assert_eq!(pending.vm, VmId(1));
        assert_eq!(pending.from, source);
        assert_eq!(pending.to, dest_expected);
        assert_eq!(pending.start_secs, 100.0);
        // Fresh 8192 MiB guest: hot footprint 4096 MiB at 100 MiB/s.
        assert!((pending.event_secs - (100.0 + 40.96)).abs() < 1e-9);
        // In flight: accounted on both ends, located on the source, and
        // reported exactly once.
        assert_eq!(cluster.in_flight_count(), 1);
        assert!(cluster.is_in_flight(VmId(1)));
        assert_eq!(cluster.locate(VmId(1)), Some(source));
        assert_eq!(cluster.running_allocation_fractions().len(), 1);
        assert!(cluster.check_invariants());
        assert_eq!(cluster.transient_counters().migrations, 0);
        // Completion lands the VM on the destination with its cost.
        let done = cluster.complete_migration(pending.id, pending.event_secs);
        assert_eq!(done.migrated.len(), 1);
        assert!((done.migrated[0].duration_secs - 40.96).abs() < 1e-9);
        assert!((done.migrated[0].volume_mb - 4096.0).abs() < 1e-9);
        assert!(!done.migrated[0].back);
        assert_eq!(cluster.locate(VmId(1)), Some(dest_expected));
        assert_eq!(cluster.in_flight_count(), 0);
        assert_eq!(cluster.transient_counters().migrations, 1);
        assert!(cluster.check_invariants());
        // A stale completion id is a no-op.
        assert_eq!(
            cluster.complete_migration(pending.id, 1e9),
            CapacityChangeOutcome::default()
        );
    }

    #[test]
    fn migration_aborts_when_deadline_expires_mid_transfer() {
        let model = slow_model().with_deadline_secs(10.0);
        let mut cluster = small_cluster(ReclamationMode::MigrationOnly).with_migration_cost(model);
        assert!(cluster.place_vm(vm(1, 8.0, 0.5)).is_placed());
        let source = cluster.locate(VmId(1)).unwrap();
        let outcome = cluster.reclaim_capacity(source, 0.4, 100.0);
        assert_eq!(outcome.started.len(), 1);
        let pending = outcome.started[0];
        // The ~41 s transfer cannot finish inside the 10 s deadline: the
        // completion event fires at the deadline instead.
        assert!((pending.event_secs - 110.0).abs() < 1e-9);
        let done = cluster.complete_migration(pending.id, pending.event_secs);
        assert_eq!(done.victims, vec![VmId(1)]);
        assert!(done.migrated.is_empty());
        assert_eq!(cluster.transient_counters().migration_aborts, 1);
        assert_eq!(cluster.transient_counters().reclamation_victims, 1);
        assert_eq!(cluster.locate(VmId(1)), None);
        assert_eq!(cluster.running_allocation_fractions().len(), 0);
        assert!(cluster.check_invariants());
    }

    #[test]
    fn bandwidth_budget_queues_excess_transfers() {
        let config = ClusterConfig {
            num_servers: 3,
            server_capacity: ResourceVector::cpu_mem(16_000.0, 32_768.0),
            placement: PlacementKind::FirstFit,
            partitions: PartitionScheme::None,
            mechanism: DeflationMechanism::Transparent,
        };
        let mut cluster = ClusterManager::new(&config, ReclamationMode::MigrationOnly)
            .with_migration_cost(slow_model());
        // First-fit packs both VMs onto server 0.
        assert!(cluster.place_vm(vm(1, 8.0, 0.5)).is_placed());
        assert!(cluster.place_vm(vm(2, 8.0, 0.5)).is_placed());
        assert_eq!(cluster.locate(VmId(1)), Some(ServerId(0)));
        assert_eq!(cluster.locate(VmId(2)), Some(ServerId(0)));
        // Reclaim almost everything: both VMs must migrate, but the budget
        // allows only one concurrent transfer per server, so the second
        // starts when the first finishes.
        let outcome = cluster.reclaim_capacity(ServerId(0), 0.1, 0.0);
        assert_eq!(outcome.started.len(), 2, "outcome: {outcome:?}");
        let (first, second) = (outcome.started[0], outcome.started[1]);
        assert_eq!(first.start_secs, 0.0);
        assert!(
            (second.start_secs - first.event_secs).abs() < 1e-9,
            "second transfer must queue behind the first: {outcome:?}"
        );
        assert!(cluster.check_invariants());
        for pending in [first, second] {
            cluster.complete_migration(pending.id, pending.event_secs);
        }
        assert_eq!(cluster.transient_counters().migrations, 2);
        assert_eq!(cluster.transient_counters().migration_aborts, 0);
        assert!(cluster.check_invariants());
    }

    #[test]
    fn reclaim_cancels_inbound_migrate_back_without_evicting() {
        let mut cluster =
            small_cluster(ReclamationMode::MigrationOnly).with_migration_cost(slow_model());
        assert!(cluster.place_vm(vm(1, 8.0, 0.5)).is_placed());
        let origin = cluster.locate(VmId(1)).unwrap();
        let refuge = ServerId(1 - origin.0);
        // Displace the VM, complete the transfer, then restore the origin
        // so a migrate-back gets in flight.
        let out = cluster.reclaim_capacity(origin, 0.4, 0.0);
        let forward = out.started[0];
        cluster.complete_migration(forward.id, forward.event_secs);
        assert_eq!(cluster.locate(VmId(1)), Some(refuge));
        let restore = cluster.restore_capacity(origin, 1.0, true, 1000.0);
        assert_eq!(restore.started.len(), 1, "migrate-back must be costed");
        let back = restore.started[0];
        assert_eq!(back.to, origin);
        // A new reclamation at the origin hits only the inbound
        // reservation: the transfer is cancelled but the VM — running
        // healthily on the other server — survives.
        let reclaim = cluster.reclaim_capacity(origin, 0.3, 1001.0);
        assert!(
            reclaim.victims.is_empty(),
            "cancelling a reservation must not evict: {reclaim:?}"
        );
        assert_eq!(cluster.locate(VmId(1)), Some(refuge));
        assert_eq!(cluster.in_flight_count(), 0);
        assert_eq!(cluster.transient_counters().migration_aborts, 1);
        assert_eq!(cluster.transient_counters().reclamation_victims, 0);
        assert_eq!(cluster.transient_counters().migrations_back, 0);
        assert_eq!(cluster.running_allocation_fractions().len(), 1);
        assert!(cluster.check_invariants());
        // The stale completion event is a no-op.
        assert_eq!(
            cluster.complete_migration(back.id, back.event_secs),
            CapacityChangeOutcome::default()
        );
    }

    #[test]
    fn zero_bandwidth_falls_back_to_eviction() {
        let model = MigrationCostModel {
            link_bandwidth_mbps: 0.0,
            ..slow_model()
        };
        let mut cluster = small_cluster(ReclamationMode::MigrationOnly).with_migration_cost(model);
        assert!(cluster.place_vm(vm(1, 8.0, 0.5)).is_placed());
        let source = cluster.locate(VmId(1)).unwrap();
        let outcome = cluster.reclaim_capacity(source, 0.4, 0.0);
        // No link: migration impossible, the VM is evicted instead.
        assert!(outcome.started.is_empty());
        assert_eq!(outcome.victims, vec![VmId(1)]);
        assert_eq!(cluster.transient_counters().reclamation_victims, 1);
        assert!(cluster.check_invariants());
    }

    #[test]
    fn departure_mid_transfer_cancels_the_migration() {
        let mut cluster =
            small_cluster(ReclamationMode::MigrationOnly).with_migration_cost(slow_model());
        assert!(cluster.place_vm(vm(1, 8.0, 0.5)).is_placed());
        let source = cluster.locate(VmId(1)).unwrap();
        let outcome = cluster.reclaim_capacity(source, 0.4, 0.0);
        let pending = outcome.started[0];
        // The VM departs while its pages are still being copied.
        cluster.remove_vm(VmId(1)).unwrap();
        assert_eq!(cluster.in_flight_count(), 0);
        assert!(cluster.servers().all(|s| s.domain_count() == 0));
        // The already-scheduled completion event resolves to a no-op.
        assert_eq!(
            cluster.complete_migration(pending.id, pending.event_secs),
            CapacityChangeOutcome::default()
        );
        assert!(cluster.check_invariants());
    }

    #[test]
    fn edf_rejects_doomed_transfers_instead_of_aborting_them() {
        // Two VMs on one server, one transfer slot, and a deadline that
        // only fits one ~41 s copy: FIFO books both (the second aborts at
        // the deadline); EDF refuses the second up front.
        let config = ClusterConfig {
            num_servers: 3,
            server_capacity: ResourceVector::cpu_mem(16_000.0, 32_768.0),
            placement: PlacementKind::FirstFit,
            partitions: PartitionScheme::None,
            mechanism: DeflationMechanism::Transparent,
        };
        let model = slow_model().with_deadline_secs(50.0);
        let run = |policy: TransferPolicy| {
            let mut cluster = ClusterManager::new(&config, ReclamationMode::MigrationOnly)
                .with_migration_cost(model)
                .with_transfer_policy(policy);
            assert!(cluster.place_vm(vm(1, 8.0, 0.5)).is_placed());
            assert!(cluster.place_vm(vm(2, 8.0, 0.5)).is_placed());
            let outcome = cluster.reclaim_capacity(ServerId(0), 0.1, 0.0);
            for pending in outcome.started.clone() {
                cluster.complete_migration(pending.id, pending.event_secs);
            }
            (cluster, outcome)
        };

        let (fifo, fifo_out) = run(TransferPolicy::fifo());
        assert_eq!(fifo_out.started.len(), 2);
        assert_eq!(fifo.transient_counters().migration_aborts, 1);
        assert_eq!(fifo.transient_counters().migration_rejections, 0);
        assert_eq!(fifo.scheduler_stats().rejected, 0);

        let (edf, edf_out) = run(TransferPolicy::edf());
        assert_eq!(edf_out.started.len(), 1, "outcome: {edf_out:?}");
        assert_eq!(edf.transient_counters().migration_aborts, 0);
        assert_eq!(edf.transient_counters().migration_rejections, 1);
        assert_eq!(edf.scheduler_stats().rejected, 1);
        // Both policies lose the second VM — but EDF evicts it immediately
        // without spending 9 seconds of link time on a doomed copy, and
        // records no abort.
        assert_eq!(edf.transient_counters().reclamation_victims, 1);
        assert!(edf.check_invariants());
    }

    #[test]
    fn smallest_first_reorders_a_batch_by_volume() {
        let config = ClusterConfig {
            num_servers: 3,
            server_capacity: ResourceVector::cpu_mem(16_000.0, 65_536.0),
            placement: PlacementKind::FirstFit,
            partitions: PartitionScheme::None,
            mechanism: DeflationMechanism::Transparent,
        };
        let mut cluster = ClusterManager::new(&config, ReclamationMode::MigrationOnly)
            .with_migration_cost(slow_model())
            .with_transfer_policy(TransferPolicy::smallest_first());
        // A big VM (lower id → selected first) and a small one.
        let big = VmSpec::deflatable(
            VmId(1),
            VmClass::Interactive,
            ResourceVector::cpu_mem(8_000.0, 16_384.0),
        );
        let small = VmSpec::deflatable(
            VmId(2),
            VmClass::Interactive,
            ResourceVector::cpu_mem(8_000.0, 4_096.0),
        );
        assert!(cluster.place_vm(big).is_placed());
        assert!(cluster.place_vm(small).is_placed());
        let outcome = cluster.reclaim_capacity(ServerId(0), 0.05, 0.0);
        assert_eq!(outcome.started.len(), 2);
        let by_vm = |id: u64| {
            outcome
                .started
                .iter()
                .find(|p| p.vm == VmId(id))
                .copied()
                .unwrap()
        };
        // The small copy gets the slot first; the big one queues behind it.
        assert_eq!(by_vm(2).start_secs, 0.0);
        assert!((by_vm(1).start_secs - by_vm(2).event_secs).abs() < 1e-9);
        assert!(cluster.check_invariants());
    }

    #[test]
    fn deflate_then_migrate_shrinks_the_copy_under_the_deadline() {
        // One VM whose full hot footprint (4096 MiB at 100 MiB/s ≈ 41 s)
        // blows a 30 s deadline, but whose RSS alone (2048 MiB ≈ 20.5 s)
        // fits. Plain EDF must reject the transfer; EDF + deflate-then-
        // migrate squeezes the cache first and the copy makes it.
        let model = slow_model().with_deadline_secs(30.0);
        let run = |policy: TransferPolicy| {
            let mut cluster = small_cluster(deflation_mode())
                .with_migration_cost(model)
                .with_transfer_policy(policy);
            // A minimum allocation keeps deflation from absorbing the
            // reclamation, forcing the migration rung of the ladder.
            let spec = VmSpec::deflatable(
                VmId(1),
                VmClass::Interactive,
                ResourceVector::cpu_mem(8_000.0, 8_192.0),
            )
            .with_min_allocation(ResourceVector::cpu_mem(6_000.0, 8_192.0));
            assert!(cluster.place_vm(spec).is_placed());
            let source = cluster.locate(VmId(1)).unwrap();
            let outcome = cluster.reclaim_capacity(source, 0.1, 0.0);
            (cluster, outcome)
        };

        let (plain, plain_out) = run(TransferPolicy::edf());
        assert!(
            plain_out.started.is_empty(),
            "a 41 s copy cannot beat a 30 s deadline: {plain_out:?}"
        );
        assert_eq!(plain.transient_counters().migration_rejections, 1);

        let (squeezed, squeezed_out) = run(TransferPolicy::edf().with_deflate_then_migrate(true));
        assert_eq!(squeezed_out.started.len(), 1, "outcome: {squeezed_out:?}");
        let pending = squeezed_out.started[0];
        // Only the RSS crosses the link: 2048 MiB at 100 MiB/s.
        assert!((pending.event_secs - 20.48).abs() < 1e-9);
        assert_eq!(squeezed.transient_counters().migration_rejections, 0);
        assert!(squeezed.check_invariants());
    }

    #[test]
    fn utilization_observations_feed_transfer_estimates() {
        let model = slow_model().with_dirty_rate(50.0, 1.0);
        let mut cluster = small_cluster(ReclamationMode::MigrationOnly).with_migration_cost(model);
        assert!(cluster.place_vm(vm(1, 8.0, 0.5)).is_placed());
        let source = cluster.locate(VmId(1)).unwrap();
        // A busy guest dirties pages at half the link rate: the transfer
        // stretches by 1/(1−0.5) over the idle estimate.
        for _ in 0..8 {
            cluster.observe_vm_utilization(VmId(1), 1.0);
        }
        let outcome = cluster.reclaim_capacity(source, 0.4, 0.0);
        assert_eq!(outcome.started.len(), 1);
        // Idle: 4096/100 = 40.96 s; busy: ×2.
        assert!((outcome.started[0].event_secs - 81.92).abs() < 1e-9);
        assert!(cluster.check_invariants());
    }

    /// Where every placed VM runs and at what CPU fraction.
    fn placements(cluster: &ClusterManager) -> BTreeMap<VmId, (Option<ServerId>, Option<f64>)> {
        cluster
            .slot_of
            .keys()
            .map(|&vm| {
                let at = (cluster.locate(vm), cluster.cpu_allocation_fraction(vm));
                (vm, at)
            })
            .collect()
    }

    /// Every event-level call starts a new change log, and the log names
    /// every VM whose location or CPU fraction the call moved: through
    /// deflating admissions, reclamation with costed migrations, landing,
    /// migrate-back, departures mid-transfer and evictions.
    #[test]
    fn the_change_log_names_every_moved_vm() {
        let config = ClusterConfig {
            num_servers: 3,
            server_capacity: ResourceVector::cpu_mem(16_000.0, 32_768.0),
            placement: PlacementKind::FirstFit,
            partitions: PartitionScheme::None,
            mechanism: DeflationMechanism::Transparent,
        };
        let mut cluster =
            ClusterManager::new(&config, deflation_mode()).with_migration_cost(slow_model());
        let mut pending: Vec<PendingMigration> = Vec::new();
        let mut moved_total = 0;
        for step in 0..48u64 {
            let before = placements(&cluster);
            let now = step as f64 * 10.0;
            let server = ServerId((step / 8 % 3) as u32);
            let outcome = match step % 8 {
                0..=2 => {
                    // A floor of 60 % keeps deflation from absorbing every
                    // reclamation, so VMs migrate and get evicted too.
                    let spec = vm(step, 4.0 + (step % 3) as f64, 0.5);
                    let floor = spec.max_allocation * 0.6;
                    cluster.place_vm(spec.with_min_allocation(floor));
                    None
                }
                3 => Some(cluster.reclaim_capacity(server, 0.3, now)),
                5 => Some(cluster.restore_capacity(server, 1.0, true, now)),
                4 | 6 => (!pending.is_empty())
                    .then(|| cluster.complete_migration(pending.remove(0).id, now)),
                _ => {
                    let _ = cluster.remove_vm(VmId(step - 6));
                    None
                }
            };
            if let Some(outcome) = outcome {
                pending.extend(outcome.started);
            }
            let logged: Vec<VmId> = cluster
                .changed_slots()
                .iter()
                .map(|&slot| cluster.vms[slot as usize].id)
                .collect();
            for (vm, now_at) in placements(&cluster) {
                let was_at = before.get(&vm).copied().unwrap_or((None, None));
                if was_at != now_at {
                    moved_total += 1;
                    assert!(
                        logged.contains(&vm),
                        "step {step}: {vm} moved {was_at:?} -> {now_at:?} unlogged ({logged:?})"
                    );
                }
            }
            assert!(cluster.check_invariants());
        }
        let t = cluster.transient_counters();
        assert!(moved_total > 40, "the sequence moves VMs: {moved_total}");
        assert!(t.migrations > 0 && t.migrations_back > 0, "{t:?}");
        assert!(t.reclamation_victims > 0, "{t:?}");
    }

    #[test]
    fn names_and_config() {
        assert_eq!(PlacementKind::CosineFitness.name(), "cosine-fitness");
        assert_eq!(PlacementKind::FirstFit.name(), "first-fit");
        assert_eq!(deflation_mode().name(), "proportional-min-aware");
        assert_eq!(ReclamationMode::Preemption.name(), "preemption");
        let cfg = ClusterConfig::paper_default(40);
        assert_eq!(cfg.num_servers, 40);
        assert_eq!(cfg.server_capacity.cpu(), 48_000.0);
    }
}

//! The four benchmark workloads: how each one's inputs are generated from
//! the seed, and the engine calls it measures.

use crate::digest::result_digest;
use deflate_cluster::manager::{ClusterConfig, PlacementKind, ReclamationMode};
use deflate_cluster::metrics::SimResult;
use deflate_cluster::sim::ClusterSimulation;
use deflate_cluster::spec::{
    paper_server_capacity, servers_for_overcommitment, servers_for_transient_overcommitment,
    workload_from_azure, MinAllocationRule, WorkloadVm,
};
use deflate_core::checkpoint::ByteReader;
use deflate_core::placement::PartitionScheme;
use deflate_core::policy::{ProportionalDeflation, TransferPolicy};
use deflate_core::telemetry::{TelemetryEventSet, TelemetrySpec};
use deflate_hypervisor::domain::DeflationMechanism;
use deflate_hypervisor::migration::MigrationCostModel;
use deflate_telemetry::TelemetrySink;
use deflate_traces::azure::{AzureTraceConfig, AzureTraceGenerator};
use deflate_transient::signal::{CapacityProfile, CapacitySchedule, TransientConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Simulated horizon of every workload's synthetic Azure trace.
pub const TRACE_HOURS: f64 = 4.0;
/// Utilisation-tick interval (the `fig_scale` cadence), simulated seconds.
pub const TICK_SECS: f64 = 900.0;
/// Where the fork workload checkpoints its run, simulated seconds.
pub const FORK_AT_SECS: f64 = 7200.0;
/// Overcommitment of the packed workload (the paper's headline level).
pub const PACKED_OVERCOMMITMENT: f64 = 0.5;
/// The seed whose results are pinned in [`pinned_digests`].
pub const DEFAULT_SEED: u64 = 1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `fig_scale` cell: spot-market reclamation on every server.
    Spot,
    /// Static capacity, cosine-fitness placement at 50 % overcommitment.
    Packed,
    /// Spot checkpointed at 2 h, resumed under four transfer policies.
    Fork,
    /// Spot at a smaller size with every telemetry sink on.
    Observed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Spot,
        Workload::Packed,
        Workload::Fork,
        Workload::Observed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Spot => "spot",
            Workload::Packed => "packed",
            Workload::Fork => "fork",
            Workload::Observed => "observed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// VMs in the workload's trace. Sized so that one repetition takes
    /// 0.5–2 s on a 2-vCPU host and a 25 s run holds ten or more; fork
    /// keeps 20k because at 10k its work varies too much between seeds.
    pub fn num_vms(self) -> usize {
        match self {
            Workload::Spot | Workload::Packed | Workload::Fork => 20_000,
            Workload::Observed => 10_000,
        }
    }

    /// True for the workloads running on spot-market transient servers.
    pub fn is_transient(self) -> bool {
        self != Workload::Packed
    }
}

/// The transfer policies the fork workload resumes under, in order.
pub fn fork_policies() -> [TransferPolicy; 4] {
    [
        TransferPolicy::fifo(),
        TransferPolicy::smallest_first(),
        TransferPolicy::edf(),
        TransferPolicy::edf().with_deflate_then_migrate(true),
    ]
}

/// Digests of every measured call's `SimResult` on [`DEFAULT_SEED`], in
/// call order. A run on that seed fails any call that disagrees.
pub fn pinned_digests(workload: Workload) -> &'static [u64] {
    match workload {
        Workload::Spot => &[0x7543_13ff_ed0c_5ab2],
        Workload::Packed => &[0x4388_14b5_3098_3f03],
        // The FIFO resume equals the uninterrupted spot run.
        Workload::Fork => &[
            0x7543_13ff_ed0c_5ab2,
            0xe8db_bdcc_4272_a7da,
            0xb368_18f2_4b33_7241,
            0xaf73_3862_61a7_4455,
        ],
        Workload::Observed => &[0x7c90_5fbd_ef49_cc4c],
    }
}

/// Raw wall-clock seconds of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `AzureTraceGenerator::generate`.
    pub generate_s: f64,
    /// `workload_from_azure`.
    pub workload_s: f64,
    /// Cluster sizing and `CapacitySchedule::generate`.
    pub schedule_s: f64,
    /// The fork workload's `ClusterSimulation::checkpoint` (0 elsewhere).
    pub checkpoint_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.generate_s + self.workload_s + self.schedule_s + self.checkpoint_s
    }
}

/// A workload's generated inputs.
pub struct Prepared {
    /// Which workload.
    pub workload: Workload,
    /// The VMs, sorted by arrival.
    pub vms: Vec<WorkloadVm>,
    /// Cluster layout.
    pub config: ClusterConfig,
    /// Capacity schedule (empty for packed).
    pub schedule: CapacitySchedule,
    /// The fork workload's 2 h snapshot (empty elsewhere).
    pub snapshot: Vec<u8>,
    /// How long each set-up step took.
    pub times: SetupTimes,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Generate a workload's inputs from `seed`: the trace, the workload, the
/// cluster size and capacity schedule, and for fork the checkpoint.
pub fn prepare(workload: Workload, seed: u64) -> Prepared {
    let (traces, generate_s) = timed(|| {
        AzureTraceGenerator::generate(&AzureTraceConfig {
            num_vms: workload.num_vms(),
            duration_hours: TRACE_HOURS,
            seed,
            ..Default::default()
        })
    });
    let (vms, workload_s) = timed(|| workload_from_azure(&traces, MinAllocationRule::None));
    drop(traces);
    let capacity = paper_server_capacity();
    let ((config, schedule), schedule_s) = timed(|| {
        if workload.is_transient() {
            let profile = CapacityProfile::spot_market_default();
            let servers = servers_for_transient_overcommitment(
                &vms,
                capacity,
                0.0,
                profile.mean_availability(),
            );
            let schedule = CapacitySchedule::generate(&TransientConfig {
                num_servers: servers,
                transient_fraction: 1.0,
                duration_secs: TRACE_HOURS * 3600.0,
                profile,
                seed,
            });
            (cluster_config(servers, PlacementKind::FirstFit), schedule)
        } else {
            let servers = servers_for_overcommitment(&vms, capacity, PACKED_OVERCOMMITMENT);
            (
                cluster_config(servers, PlacementKind::CosineFitness),
                CapacitySchedule::empty(),
            )
        }
    });
    let mut prepared = Prepared {
        workload,
        vms,
        config,
        schedule,
        snapshot: Vec::new(),
        times: SetupTimes {
            generate_s,
            workload_s,
            schedule_s,
            checkpoint_s: 0.0,
        },
    };
    if workload == Workload::Fork {
        let sim = prepared.simulation(TransferPolicy::default());
        let (snapshot, checkpoint_s) = timed(|| sim.checkpoint(&prepared.vms, FORK_AT_SECS));
        prepared.snapshot = snapshot;
        prepared.times.checkpoint_s = checkpoint_s;
    }
    prepared
}

fn cluster_config(num_servers: usize, placement: PlacementKind) -> ClusterConfig {
    ClusterConfig {
        num_servers,
        server_capacity: paper_server_capacity(),
        placement,
        partitions: PartitionScheme::None,
        mechanism: DeflationMechanism::Transparent,
    }
}

/// The reclamation mode every workload runs: proportional deflation.
pub fn reclamation_mode() -> ReclamationMode {
    ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default()))
}

/// The spot workloads' migration cost: the LAN model with a 1250 Mbps
/// per-server budget and a 30 s reclamation deadline.
pub fn spot_migration_cost() -> MigrationCostModel {
    MigrationCostModel::lan_default()
        .with_budget_mbps(1250.0)
        .with_deadline_secs(30.0)
}

/// The telemetry the observed workload turns on: metrics, profiler, a
/// JSONL log of every event kind and a Chrome trace, written under `dir`.
pub fn observed_spec(dir: &Path) -> TelemetrySpec {
    TelemetrySpec {
        metrics: true,
        profile: true,
        ..TelemetrySpec::default()
    }
    .with_event_log(dir.join("events.jsonl"))
    .with_event_kinds(TelemetryEventSet::all())
    .with_chrome_trace(dir.join("trace.json"))
}

/// Result of one measured call.
pub struct CallResult {
    /// The call's simulation result.
    pub result: SimResult,
    /// Events the call delivered (after the snapshot, for resumes).
    pub events: u64,
}

/// What one repetition of a workload's measured calls produced.
pub struct Rep {
    /// Host seconds the measured calls took together.
    pub wall_s: f64,
    /// One entry per call: the result, or why the call failed.
    pub calls: Vec<Result<CallResult, String>>,
    /// Seconds `TelemetrySink::finish` took (observed only).
    pub finish_s: f64,
    /// Sink heap bytes just before `finish` (observed only).
    pub telemetry_bytes: u64,
    /// Bytes the file sinks left on disk (observed only).
    pub trace_bytes: u64,
}

impl Rep {
    /// Events delivered by the calls that returned.
    pub fn events(&self) -> u64 {
        self.calls.iter().flatten().map(|c| c.events).sum()
    }
}

/// The events processed a snapshot records (header, time, VM count, then
/// the cumulative event count).
pub fn snapshot_events(snapshot: &[u8]) -> Result<u64, String> {
    let mut r = ByteReader::with_header(snapshot).map_err(|e| e.to_string())?;
    r.get_f64().map_err(|e| e.to_string())?;
    r.get_usize().map_err(|e| e.to_string())?;
    r.get_u64().map_err(|e| e.to_string())
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Run `f`, turning a panic into an error.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|payload| Err(format!("panicked: {}", panic_message(payload))))
}

impl Prepared {
    /// The workload's simulation under `policy`, telemetry off. Only the
    /// packed workload ignores the policy (it never migrates).
    pub fn simulation(&self, policy: TransferPolicy) -> ClusterSimulation {
        let sim = ClusterSimulation::new(self.config.clone(), reclamation_mode())
            .with_utilization_ticks(TICK_SECS);
        if !self.workload.is_transient() {
            return sim;
        }
        sim.with_capacity_schedule(self.schedule.clone())
            .with_migrate_back(true)
            .with_migration_cost(spot_migration_cost())
            .with_transfer_policy(policy)
    }

    /// One repetition of the workload's measured calls. `scratch` is where
    /// the observed workload's file sinks write (emptied afterwards).
    pub fn measure(&self, scratch: &Path) -> Rep {
        match self.workload {
            Workload::Spot | Workload::Packed => {
                let sim = self.simulation(TransferPolicy::default());
                let start = Instant::now();
                let call = guarded(|| Ok(sim.run(&self.vms)));
                let wall_s = start.elapsed().as_secs_f64();
                Rep::single(wall_s, call)
            }
            Workload::Observed => self.measure_observed(scratch),
            Workload::Fork => {
                let sims: Vec<ClusterSimulation> = fork_policies()
                    .into_iter()
                    .map(|p| self.simulation(p))
                    .collect();
                let before = snapshot_events(&self.snapshot);
                let start = Instant::now();
                let calls = sims
                    .iter()
                    .map(|sim| {
                        guarded(|| {
                            let result = sim
                                .resume(&self.vms, &self.snapshot)
                                .map_err(|e| e.to_string())?;
                            let events = result.runtime.events_processed - before.clone()?;
                            Ok(CallResult { result, events })
                        })
                    })
                    .collect();
                Rep {
                    wall_s: start.elapsed().as_secs_f64(),
                    calls,
                    finish_s: 0.0,
                    telemetry_bytes: 0,
                    trace_bytes: 0,
                }
            }
        }
    }

    fn measure_observed(&self, scratch: &Path) -> Rep {
        let dir = scratch.join("observed");
        let opened = std::fs::create_dir_all(&dir)
            .and_then(|()| TelemetrySink::from_spec(&observed_spec(&dir)));
        let sink = match opened {
            Ok(sink) => sink,
            Err(e) => return Rep::single(0.0, Err(format!("telemetry sink: {e}"))),
        };
        let sim = self
            .simulation(TransferPolicy::default())
            .with_telemetry(sink.clone());
        let mut finish_s = 0.0;
        let mut telemetry_bytes = 0;
        let start = Instant::now();
        let call = guarded(|| {
            let result = sim.run(&self.vms);
            telemetry_bytes = sink.accounted_bytes();
            let (report, secs) = timed(|| sink.finish());
            finish_s = secs;
            let report = report.map_err(|e| format!("telemetry finish: {e}"))?;
            if report.io_errors > 0 {
                return Err(format!("telemetry: {} sink write errors", report.io_errors));
            }
            Ok(result)
        });
        let wall_s = start.elapsed().as_secs_f64();
        drop(sim);
        drop(sink);
        let trace_bytes = dir_bytes(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        let mut rep = Rep::single(wall_s, call);
        rep.finish_s = finish_s;
        rep.telemetry_bytes = telemetry_bytes;
        rep.trace_bytes = trace_bytes;
        rep
    }

    /// Digest of each call's result, `None` for a failed call.
    pub fn digests(rep: &Rep) -> Vec<Option<u64>> {
        rep.calls
            .iter()
            .map(|c| c.as_ref().ok().map(|c| result_digest(&c.result)))
            .collect()
    }
}

impl Rep {
    fn single(wall_s: f64, call: Result<SimResult, String>) -> Rep {
        Rep {
            wall_s,
            calls: vec![call.map(|result| CallResult {
                events: result.runtime.events_processed,
                result,
            })],
            finish_s: 0.0,
            telemetry_bytes: 0,
            trace_bytes: 0,
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The scratch directory a run writes into, inside the working directory.
pub fn scratch_dir(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(".bench_out").join(format!(
        "{}-{}-{}",
        workload.name(),
        seed,
        std::process::id()
    ))
}

//! Conversion from trace VMs to cluster workload items, and cluster-sizing
//! helpers.
//!
//! The cluster simulation (§7.1.2) uses the Azure trace to determine "the
//! starting and stopping times of VMs, their size (aka resource vectors), and
//! CPU utilization history", treats interactive VMs as deflatable and the
//! rest as on-demand, derives 4 priority levels from the 95th-percentile CPU
//! utilisation, and sizes the cluster by first finding "the minimum cluster
//! size capable of running all VMs without any preemptions or
//! admission-controlled rejections", then shrinking it to reach a target
//! overcommitment level.

use deflate_core::resources::ResourceVector;
use deflate_core::vm::{Priority, VmClass, VmSpec};
use deflate_traces::azure::AzureVmTrace;
use deflate_traces::timeseries::TimeSeries;
use serde::{Deserialize, Serialize};

/// How a deflatable VM's minimum allocation (`m_i`) is derived.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MinAllocationRule {
    /// No floor: VMs can be deflated to (nearly) zero.
    None,
    /// Priority-derived floor `m_i = π_i · M_i` (§5.1.2).
    PriorityTimesMax,
    /// Fixed fraction of the maximum allocation.
    Fraction(f64),
}

impl MinAllocationRule {
    fn apply(&self, max: ResourceVector, priority: Priority) -> ResourceVector {
        match self {
            MinAllocationRule::None => ResourceVector::ZERO,
            MinAllocationRule::PriorityTimesMax => max * priority.value(),
            MinAllocationRule::Fraction(f) => max * f.clamp(0.0, 1.0),
        }
    }
}

/// One VM of the cluster workload: its spec, lifetime and utilisation
/// history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadVm {
    /// The VM specification handed to the cluster manager at arrival.
    pub spec: VmSpec,
    /// Arrival time in seconds from the start of the simulation.
    pub arrival_secs: f64,
    /// Departure time in seconds.
    pub departure_secs: f64,
    /// CPU utilisation history (relative to the full allocation), used for
    /// throughput-loss accounting.
    pub cpu_util: TimeSeries,
}

impl WorkloadVm {
    /// Build a workload VM from an Azure trace VM.
    ///
    /// Interactive VMs become deflatable with a priority derived from their
    /// 95th-percentile CPU usage; batch and unknown VMs become on-demand
    /// (§7.1.2). The Azure dataset does not report disk/network needs, so the
    /// cluster bin-packs on CPU and memory only ("we consider each VM's CPU
    /// core count and memory size for bin-packing").
    pub fn from_azure(trace: &AzureVmTrace, min_rule: MinAllocationRule) -> Self {
        let size = ResourceVector::cpu_mem(trace.size.cpu(), trace.size.memory());
        let spec = if trace.deflatable() {
            let priority = trace.priority();
            let min = min_rule.apply(size, priority);
            VmSpec::deflatable(trace.vm_id, VmClass::Interactive, size)
                .with_priority(priority)
                .with_min_allocation(min)
        } else {
            VmSpec::on_demand(trace.vm_id, trace.class, size)
        };
        WorkloadVm {
            spec,
            arrival_secs: trace.start_secs,
            departure_secs: trace.end_secs(),
            cpu_util: trace.cpu_util.clone(),
        }
    }

    /// Lifetime in hours (used by revenue accounting).
    pub fn lifetime_hours(&self) -> f64 {
        (self.departure_secs - self.arrival_secs).max(0.0) / 3600.0
    }

    /// Owned heap bytes behind the workload entry (the utilisation trace).
    /// Feeds the engine's `mem.workload` gauge.
    pub fn accounted_bytes(&self) -> u64 {
        self.cpu_util.accounted_bytes()
    }
}

/// Convert a whole Azure trace into a workload, sorted by arrival time.
pub fn workload_from_azure(
    traces: &[AzureVmTrace],
    min_rule: MinAllocationRule,
) -> Vec<WorkloadVm> {
    let mut vms: Vec<WorkloadVm> = traces
        .iter()
        .map(|t| WorkloadVm::from_azure(t, min_rule))
        .collect();
    vms.sort_by(|a, b| {
        a.arrival_secs
            .partial_cmp(&b.arrival_secs)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    vms
}

/// The peak simultaneous committed allocation of a workload — the capacity a
/// cluster needs to run every VM undeflated.
pub fn peak_committed(vms: &[WorkloadVm]) -> ResourceVector {
    // Sweep arrival/departure events in time order, tracking the running
    // sum. Events are 16-byte `(time, VM index, is_arrival)` entries, and
    // the key `(time, is_arrival, index)` is a total order for finite
    // times: departures before arrivals at the same instant, then
    // workload order.
    let mut events: Vec<(f64, u32, bool)> = Vec::with_capacity(vms.len() * 2);
    for (i, vm) in vms.iter().enumerate() {
        // 2^32 workload VMs would take hundreds of GiB: the index fits.
        let i = i as u32;
        events.push((vm.arrival_secs, i, true));
        events.push((vm.departure_secs, i, false));
    }
    events.sort_unstable_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.2.cmp(&b.2))
            .then(a.1.cmp(&b.1))
    });
    let mut current = ResourceVector::ZERO;
    let mut peak = ResourceVector::ZERO;
    for (_, i, is_arrival) in events {
        let alloc = vms[i as usize].spec.max_allocation;
        if is_arrival {
            current += alloc;
            peak = peak.max(&current);
        } else {
            current = current.saturating_sub(&alloc);
        }
    }
    peak
}

/// The number of servers of the given capacity needed to hold the peak
/// committed allocation without any overcommitment (the baseline, 0 %
/// overcommitment cluster of §7.1.2).
pub fn min_cluster_size(vms: &[WorkloadVm], server_capacity: ResourceVector) -> usize {
    let peak = peak_committed(vms);
    let mut needed = 1usize;
    for (kind, cap) in server_capacity.iter() {
        if cap > 0.0 {
            needed = needed.max((peak[kind] / cap).ceil() as usize);
        }
    }
    needed.max(1)
}

/// The number of servers that yields (approximately) the requested
/// overcommitment level: `overcommitment = peak committed / capacity − 1`.
pub fn servers_for_overcommitment(
    vms: &[WorkloadVm],
    server_capacity: ResourceVector,
    overcommitment: f64,
) -> usize {
    let baseline = min_cluster_size(vms, server_capacity) as f64;
    let factor = 1.0 + overcommitment.max(0.0);
    ((baseline / factor).floor() as usize).max(1)
}

/// The number of servers that yields the requested overcommitment level
/// against the *mean available* capacity of a transient cluster: a provider
/// that reclaims capacity with time-average availability `a` effectively
/// offers `a · capacity` per server, so holding the overcommitment target
/// constant requires `1/a` times the servers of the static sizing.
pub fn servers_for_transient_overcommitment(
    vms: &[WorkloadVm],
    server_capacity: ResourceVector,
    overcommitment: f64,
    mean_availability: f64,
) -> usize {
    let baseline = min_cluster_size(vms, server_capacity) as f64;
    let availability = mean_availability.clamp(1e-9, 1.0);
    let factor = (1.0 + overcommitment.max(0.0)) * availability;
    ((baseline / factor).floor() as usize).max(1)
}

/// The overcommitment level a given server count corresponds to.
pub fn overcommitment_of(
    vms: &[WorkloadVm],
    server_capacity: ResourceVector,
    servers: usize,
) -> f64 {
    let peak = peak_committed(vms);
    let mut worst: f64 = 0.0;
    for (kind, cap) in server_capacity.iter() {
        let total = cap * servers as f64;
        if total > 0.0 {
            worst = worst.max(peak[kind] / total - 1.0);
        }
    }
    worst.max(0.0)
}

/// The standard simulated server of §7.1.2: 48 CPUs and 128 GB of RAM.
pub fn paper_server_capacity() -> ResourceVector {
    ResourceVector::cpu_mem(48_000.0, 131_072.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflate_core::vm::VmId;
    use deflate_traces::azure::{AzureTraceConfig, AzureTraceGenerator};

    fn workload() -> Vec<WorkloadVm> {
        let traces = AzureTraceGenerator::generate(&AzureTraceConfig {
            num_vms: 200,
            duration_hours: 12.0,
            ..Default::default()
        });
        workload_from_azure(&traces, MinAllocationRule::None)
    }

    #[test]
    fn interactive_vms_become_deflatable() {
        let vms = workload();
        let deflatable = vms.iter().filter(|v| v.spec.deflatable).count();
        let on_demand = vms.len() - deflatable;
        assert!(deflatable > 0);
        assert!(on_demand > 0);
        for vm in &vms {
            if vm.spec.deflatable {
                assert_eq!(vm.spec.class, VmClass::Interactive);
                assert!(Priority::LEVELS.contains(&vm.spec.priority));
            } else {
                assert_eq!(vm.spec.min_allocation, vm.spec.max_allocation);
            }
            assert!(vm.departure_secs >= vm.arrival_secs);
            assert!(vm.lifetime_hours() >= 0.0);
        }
    }

    #[test]
    fn workload_is_sorted_by_arrival() {
        let vms = workload();
        for w in vms.windows(2) {
            assert!(w[0].arrival_secs <= w[1].arrival_secs);
        }
    }

    #[test]
    fn min_allocation_rules() {
        let traces = AzureTraceGenerator::generate(&AzureTraceConfig::with_vms(50, 3));
        let interactive = traces
            .iter()
            .find(|t| t.deflatable())
            .expect("at least one interactive VM");
        let none = WorkloadVm::from_azure(interactive, MinAllocationRule::None);
        assert!(none.spec.min_allocation.is_zero());
        let pri = WorkloadVm::from_azure(interactive, MinAllocationRule::PriorityTimesMax);
        let expected = interactive.priority().value() * interactive.size.cpu();
        assert!((pri.spec.min_allocation.cpu() - expected).abs() < 1e-6);
        let frac = WorkloadVm::from_azure(interactive, MinAllocationRule::Fraction(0.25));
        assert!((frac.spec.min_allocation.cpu() - 0.25 * interactive.size.cpu()).abs() < 1e-6);
    }

    #[test]
    fn peak_committed_simple_overlap() {
        let make = |id: u64, start: f64, end: f64, cores: f64| WorkloadVm {
            spec: VmSpec::deflatable(
                VmId(id),
                VmClass::Interactive,
                ResourceVector::cpu_mem(cores * 1000.0, 1024.0),
            ),
            arrival_secs: start,
            departure_secs: end,
            cpu_util: TimeSeries::five_minute(vec![0.5]),
        };
        // Two overlapping VMs and one later: peak = 2 VMs.
        let vms = vec![
            make(1, 0.0, 100.0, 4.0),
            make(2, 50.0, 150.0, 4.0),
            make(3, 200.0, 300.0, 8.0),
        ];
        let peak = peak_committed(&vms);
        assert!((peak.cpu() - 8_000.0).abs() < 1e-9);
        // Back-to-back VMs do not stack (departure processed first).
        let vms2 = vec![make(1, 0.0, 100.0, 4.0), make(2, 100.0, 200.0, 4.0)];
        assert!((peak_committed(&vms2).cpu() - 4_000.0).abs() < 1e-9);
    }

    /// The sweep before it sorted 16-byte entries: a stable sort of
    /// `(time, allocation, is_arrival)` tuples on `(time, is_arrival)`.
    fn peak_committed_oracle(vms: &[WorkloadVm]) -> ResourceVector {
        let mut events: Vec<(f64, ResourceVector, bool)> = Vec::with_capacity(vms.len() * 2);
        for vm in vms {
            events.push((vm.arrival_secs, vm.spec.max_allocation, true));
            events.push((vm.departure_secs, vm.spec.max_allocation, false));
        }
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.2.cmp(&b.2))
        });
        let mut current = ResourceVector::ZERO;
        let mut peak = ResourceVector::ZERO;
        for (_, alloc, is_arrival) in events {
            if is_arrival {
                current += alloc;
                peak = peak.max(&current);
            } else {
                current = current.saturating_sub(&alloc);
            }
        }
        peak
    }

    /// The compact sort reproduces the stable sweep bit for bit, on
    /// workloads whose times sit on a 600 s grid so that most events tie
    /// and the float sums depend on the tie order.
    #[test]
    fn peak_committed_matches_the_stable_sweep_bit_for_bit() {
        let mut state: u64 = 0x9E37_79B9;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        let mut ties = 0;
        for case in 0..160u64 {
            let vms: Vec<WorkloadVm> = (0..next(600) + 1)
                .map(|i| {
                    let arrival = next(24) as f64 * 600.0;
                    let size = ResourceVector::cpu_mem(
                        next(64_000) as f64 / 7.0,
                        next(256_000) as f64 / 3.0,
                    );
                    WorkloadVm {
                        spec: VmSpec::deflatable(VmId(i), VmClass::Interactive, size),
                        arrival_secs: arrival,
                        departure_secs: arrival + next(12) as f64 * 600.0,
                        cpu_util: TimeSeries::five_minute(vec![]),
                    }
                })
                .collect();
            let mut times: Vec<f64> = vms
                .iter()
                .flat_map(|vm| [vm.arrival_secs, vm.departure_secs])
                .collect();
            times.sort_by(f64::total_cmp);
            ties += times.windows(2).filter(|w| w[0] == w[1]).count();
            let (got, want) = (peak_committed(&vms), peak_committed_oracle(&vms));
            for (kind, value) in got.iter() {
                assert_eq!(value.to_bits(), want[kind].to_bits(), "case {case}, {kind}");
            }
        }
        assert!(ties > 10_000, "only {ties} tied events");
    }

    #[test]
    fn cluster_sizing_round_trip() {
        let vms = workload();
        let cap = paper_server_capacity();
        let baseline = min_cluster_size(&vms, cap);
        assert!(baseline >= 1);
        // 0 % overcommitment keeps the baseline size.
        assert_eq!(servers_for_overcommitment(&vms, cap, 0.0), baseline);
        // 50 % overcommitment uses roughly two-thirds of the servers.
        let at_50 = servers_for_overcommitment(&vms, cap, 0.5);
        assert!(at_50 < baseline || baseline == 1);
        let measured = overcommitment_of(&vms, cap, at_50);
        assert!(measured >= 0.3, "measured overcommitment {measured}");
        // More servers → less overcommitment.
        assert!(overcommitment_of(&vms, cap, baseline) <= 0.05);
    }

    #[test]
    fn empty_workload_sizing() {
        let cap = paper_server_capacity();
        assert_eq!(min_cluster_size(&[], cap), 1);
        assert_eq!(overcommitment_of(&[], cap, 1), 0.0);
    }
}

//! Allocation gate for the engine's placement and departure paths.
//!
//! A packed-style workload (static capacity, cosine-fitness placement at
//! 50 % overcommitment) is replayed through the cluster manager in the
//! simulator's event order, with each workload VM in its reserved slot
//! and the change log read and cleared after every event, as the
//! simulator does. A counting global allocator measures the heap
//! allocations of each arrival and departure once the workload and the
//! manager are set up. Beyond the growth of reused buffers, an arrival
//! allocates only when a server's domain map grows a node and a departure
//! not at all; in particular the change log must never allocate per
//! event.
//!
//! Allocation elision differs between opt levels, so CI also runs this
//! file in release mode: `cargo test --release --test engine_allocations`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use vmdeflate::cluster::prelude::*;
use vmdeflate::cluster::spec::{
    paper_server_capacity, servers_for_overcommitment, workload_from_azure, MinAllocationRule,
};
use vmdeflate::core::placement::PartitionScheme;
use vmdeflate::core::policy::ProportionalDeflation;
use vmdeflate::hypervisor::domain::DeflationMechanism;
use vmdeflate::traces::azure::{AzureTraceConfig, AzureTraceGenerator};
use vmdeflate::transient::events::{EventQueue, SimEvent};

struct CountingAllocator;

thread_local! {
    /// True while the current thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Run `f` and return the heap allocations it made on this thread.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let result = f();
    COUNTING.with(|on| on.set(false));
    (ALLOCATIONS.with(Cell::get), result)
}

/// An arrival allocates when its server's domain map grows a node, and
/// while the reused buffers (the planner's, the change log) grow to the
/// largest server: 491 allocations over the 3,000 arrivals here, against
/// 497 before VM slots (when an id map of VM locations also grew). The
/// gate is that earlier figure.
const MAX_ALLOCATIONS_PER_ARRIVAL: f64 = 497.0 / 3_000.0;

/// A departure allocates only while the reused buffers grow: 5 times over
/// the 2,988 departures here, before and after VM slots. A log that
/// allocated per event would cost one per departure.
const MAX_ALLOCATIONS_PER_DEPARTURE: f64 = 5.0 / 2_988.0;

#[test]
fn arrivals_and_departures_allocate_no_more_than_before_vm_slots() {
    let traces = AzureTraceGenerator::generate(&AzureTraceConfig {
        num_vms: 3_000,
        duration_hours: 4.0,
        seed: 1,
        ..Default::default()
    });
    let workload = workload_from_azure(&traces, MinAllocationRule::None);
    let capacity = paper_server_capacity();
    let config = ClusterConfig {
        num_servers: servers_for_overcommitment(&workload, capacity, 0.5),
        server_capacity: capacity,
        placement: PlacementKind::CosineFitness,
        partitions: PartitionScheme::None,
        mechanism: DeflationMechanism::Transparent,
    };
    let mode = ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default()));
    let mut manager = ClusterManager::new(&config, mode).with_reserved_slots(workload.len());
    let mut queue = EventQueue::from_events(
        workload
            .iter()
            .enumerate()
            .flat_map(|(i, vm)| {
                [
                    (vm.arrival_secs, SimEvent::Arrival(i)),
                    (vm.departure_secs, SimEvent::Departure(i)),
                ]
            })
            .collect(),
    );
    let mut running = vec![false; workload.len()];
    let (mut arrivals, mut departures) = (0u64, 0u64);
    let (mut arrival_allocations, mut departure_allocations) = (0u64, 0u64);
    let mut deflated = 0;
    while let Some((_, event)) = queue.pop() {
        match event {
            SimEvent::Arrival(i) => {
                let spec = workload[i].spec.clone();
                let (n, result) = allocations_of(|| manager.place_in_slot(i as u32, spec));
                arrivals += 1;
                arrival_allocations += n;
                running[i] = result.is_placed();
                if matches!(result, PlacementResult::PlacedWithDeflation { .. }) {
                    deflated += 1;
                }
            }
            SimEvent::Departure(i) if running[i] => {
                let (n, removed) = allocations_of(|| manager.remove_slot(i as u32));
                removed.expect("a running VM departs");
                departures += 1;
                departure_allocations += n;
                running[i] = false;
            }
            _ => {}
        }
        assert!(
            manager
                .changed_slots()
                .iter()
                .all(|&slot| (slot as usize) < workload.len()),
            "only workload VMs are placed"
        );
        manager.clear_changed_slots();
    }
    assert!(
        deflated > 100,
        "the packing deflates: {deflated} admissions"
    );
    assert_eq!(
        departures,
        running.len() as u64 - manager.counters().rejected as u64
    );
    let per_arrival = arrival_allocations as f64 / arrivals as f64;
    let per_departure = departure_allocations as f64 / departures as f64;
    eprintln!(
        "{arrivals} arrivals: {arrival_allocations} allocations ({per_arrival:.4} each); \
         {departures} departures: {departure_allocations} allocations ({per_departure:.4} each)"
    );
    assert!(
        per_arrival <= MAX_ALLOCATIONS_PER_ARRIVAL,
        "{per_arrival:.4} allocations per arrival, gate {MAX_ALLOCATIONS_PER_ARRIVAL}"
    );
    assert!(
        per_departure <= MAX_ALLOCATIONS_PER_DEPARTURE,
        "{per_departure:.4} allocations per departure, gate {MAX_ALLOCATIONS_PER_DEPARTURE}"
    );
}

/// The counter itself works: a boxed value is one allocation.
#[test]
fn the_counting_allocator_counts() {
    let (n, boxed) = allocations_of(|| Box::new(7u64));
    assert_eq!(n, 1);
    assert_eq!(*boxed, 7);
}

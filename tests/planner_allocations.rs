//! Allocation regression test for the per-server deflation hot path.
//!
//! Once warm, a `LocalController` plans and applies deflation through
//! reused buffers: reinflation, capacity-reclaim deflation and the
//! deflation half of an admission make no heap allocation at all. A
//! counting global allocator checks this per thread, so other tests of
//! the same binary running in parallel do not disturb the count.
//!
//! Allocation elision differs between opt levels, so CI also runs this
//! file in release mode: `cargo test --release --test planner_allocations`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use vmdeflate::core::policy::{DeterministicDeflation, PriorityDeflation, ProportionalDeflation};
use vmdeflate::core::prelude::*;
use vmdeflate::hypervisor::prelude::*;

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

const RESIDENTS: u64 = 32;

fn capacity() -> ResourceVector {
    ResourceVector::new(64_000.0, 131_072.0, 4_000.0, 20_000.0)
}

fn vm(id: u64) -> VmSpec {
    VmSpec::deflatable(
        VmId(id),
        VmClass::Interactive,
        ResourceVector::new(3_000.0, 6_144.0, 200.0, 1_000.0),
    )
    .with_priority(Priority::new(0.1 + 0.3 * (id % 7) as f64 / 7.0))
}

/// A controller whose 32 residents commit 1.5 times its CPU and memory,
/// so every one of them is deflated.
fn packed_controller(
    policy: Arc<dyn DeflationPolicy>,
    mechanism: DeflationMechanism,
) -> LocalController {
    let mut c = LocalController::new(SimServer::new(ServerId(0), capacity()), policy, mechanism);
    let mut changed = Vec::new();
    for id in 0..RESIDENTS {
        let out = c.try_admit(vm(id), &mut changed);
        assert!(
            matches!(
                out,
                Ok(AdmissionOutcome::AdmittedWithDeflation { .. })
                    | Ok(AdmissionOutcome::AdmittedWithoutDeflation)
            ),
            "VM {id} under {} / {}: {out:?}",
            c.policy_name(),
            mechanism.name()
        );
    }
    assert_eq!(c.server().domain_count(), RESIDENTS as usize);
    c
}

/// One reclaim, restore and rejected-admission round: the operations
/// under test, each returning what it changed. They log the residents
/// whose allocation moved into `changed`, which the caller keeps warm.
fn cycle(c: &mut LocalController, changed: &mut Vec<u32>) -> [u64; 4] {
    let used = |c: &LocalController| c.server().effective_used();

    c.server_mut().set_capacity(capacity() * 0.75);
    let before = used(c);
    changed.clear();
    let (reclaim, _) = allocations_of(|| c.deflate_into_capacity(changed));
    assert!(used(c).total() < before.total(), "the reclaim deflated");
    assert!(!changed.is_empty(), "the reclaim logged its changes");

    c.server_mut().set_capacity(capacity());
    let before = used(c);
    changed.clear();
    let (restore, _) = allocations_of(|| c.reinflate(changed));
    assert!(used(c).total() > before.total(), "the restore reinflated");

    // A VM larger than any headroom: planned, rejected, nothing applied.
    let huge = VmSpec::on_demand(VmId(1_000), VmClass::Unknown, capacity() * 4.0);
    changed.clear();
    let (rejected, out) = allocations_of(|| c.try_admit(huge, changed).unwrap());
    assert!(matches!(out, AdmissionOutcome::Rejected { .. }), "{out:?}");
    assert!(changed.is_empty(), "a rejected admission changes nobody");

    // The deflation half of an admission under pressure: plan and apply.
    let before = used(c);
    let needed = ResourceVector::new(3_000.0, 6_144.0, 200.0, 1_000.0);
    changed.clear();
    let (make_room, plan) = allocations_of(|| c.make_room(needed, changed).unwrap());
    assert!(plan.satisfied(), "{plan:?}");
    assert!(used(c).total() < before.total(), "the admission deflated");
    [reclaim, restore, rejected, make_room]
}

#[test]
fn warm_controller_plans_and_applies_without_allocating() {
    let policies: Vec<Arc<dyn DeflationPolicy>> = vec![
        Arc::new(ProportionalDeflation::default()),
        Arc::new(ProportionalDeflation::by_size()),
        Arc::new(PriorityDeflation::weighted()),
        Arc::new(PriorityDeflation::with_priority_floor()),
        Arc::new(DeterministicDeflation::binary()),
        Arc::new(DeterministicDeflation::with_partial_last()),
    ];
    // Explicit hotplug alone cannot pack 32 residents this tightly.
    let mechanisms = [DeflationMechanism::Transparent, DeflationMechanism::Hybrid];
    for policy in &policies {
        for mechanism in mechanisms {
            let mut c = packed_controller(policy.clone(), mechanism);
            // One entry per resident at most between clears.
            let mut changed = Vec::with_capacity(RESIDENTS as usize);
            // Warm-up: the shared planner grows to this server's size.
            cycle(&mut c, &mut changed);
            let counts = cycle(&mut c, &mut changed);
            assert_eq!(
                counts,
                [0; 4],
                "allocations in [reclaim, restore, rejected admission, make_room] \
                 under {} / {}",
                policy.name(),
                mechanism.name()
            );
        }
    }
}

/// The counter itself works: a boxed value is one allocation.
#[test]
fn the_counting_allocator_counts() {
    let (n, boxed) = allocations_of(|| Box::new(7u64));
    assert_eq!(n, 1);
    assert_eq!(*boxed, 7);
}

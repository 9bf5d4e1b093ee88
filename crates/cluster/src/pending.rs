//! The engine's pending events: the workload's arrivals and departures
//! as two sorted cursors, merged on every pop with a small
//! [`EventQueue`] that holds everything else.
//!
//! Arrivals and departures are about 95 % of a trace replay's events,
//! and all of them are known before the run starts. So instead of
//! heaping them, each kind is kept as a `Vec<u32>` of workload indices,
//! sorted once by the [`event_cmp`] key `(time, index)`: exactly the
//! order a heap over every event pops them in. Their times are read from
//! the workload. The queue holds capacity changes, utilisation ticks,
//! migration completions and scale events. A pop compares the three
//! heads under [`event_cmp`], so the merged sequence is the one a single
//! [`EventQueue`] over all the events pops, by construction.

use crate::spec::WorkloadVm;
use deflate_core::checkpoint::{CheckpointError, CheckpointResult};
use deflate_core::mem::vec_capacity_bytes;
use deflate_transient::events::{event_cmp, EventQueue, SimEvent};
use std::cmp::Ordering;

/// The end of a VM's lifetime an order holds.
#[derive(Debug, Clone, Copy)]
enum Edge {
    Arrival,
    Departure,
}

impl Edge {
    fn time(self, vm: &WorkloadVm) -> f64 {
        match self {
            Edge::Arrival => vm.arrival_secs,
            Edge::Departure => vm.departure_secs,
        }
    }

    fn event(self, index: usize) -> SimEvent {
        match self {
            Edge::Arrival => SimEvent::Arrival(index),
            Edge::Departure => SimEvent::Departure(index),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Edge::Arrival => "arrivals",
            Edge::Departure => "departures",
        }
    }
}

/// One edge's events: workload indices in pop order, and the position
/// of the next one to pop.
#[derive(Debug)]
struct Cursor {
    edge: Edge,
    order: Vec<u32>,
    next: usize,
}

impl Cursor {
    /// Every VM's event of this edge, in [`event_cmp`] order. Panics on a
    /// non-finite time, as [`EventQueue::push`] does.
    fn sorted(workload: &[WorkloadVm], edge: Edge) -> Self {
        let mut keyed: Vec<(f64, u32)> = workload
            .iter()
            .enumerate()
            .map(|(i, vm)| {
                let time = edge.time(vm);
                assert!(time.is_finite(), "event scheduled at non-finite time");
                (time, i as u32)
            })
            .collect();
        keyed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        Cursor {
            edge,
            order: keyed.iter().map(|&(_, i)| i).collect(),
            next: 0,
        }
    }

    /// An empty order for a restore to fill with the pending events of a
    /// snapshot taken at `at_secs`: room for every VM whose time is not
    /// at or before `at_secs`, the ones a run stopped there has not
    /// popped. `Vec::with_capacity` allocates exactly that room, so the
    /// capacity is the count due.
    fn restoring(workload: &[WorkloadVm], edge: Edge, at_secs: f64) -> Self {
        let due = workload
            .iter()
            .filter(|vm| after(edge.time(vm), at_secs))
            .count();
        Cursor {
            edge,
            order: Vec::with_capacity(due),
            next: 0,
        }
    }

    /// Append a snapshot's next pending event of this edge, checked to
    /// continue the suffix: at the workload's time, due after `at_secs`,
    /// and after the previous one in [`event_cmp`] order, so none is
    /// repeated or out of order.
    fn restore_next(
        &mut self,
        workload: &[WorkloadVm],
        at_secs: f64,
        time: f64,
        index: usize,
    ) -> CheckpointResult<()> {
        let expected = self.edge.time(&workload[index]);
        let after_previous = self.order.last().is_none_or(|&j| {
            let previous = self.edge.time(&workload[j as usize]);
            previous.total_cmp(&time).then((j as usize).cmp(&index)) == Ordering::Less
        });
        let fault = if time.to_bits() != expected.to_bits() {
            format!("VM {index} at {time}, but the workload has {expected}")
        } else if !after(time, at_secs) {
            format!("VM {index} at {time}, due by {at_secs}")
        } else if !after_previous {
            format!("VM {index} out of order or repeated")
        } else if self.order.len() == self.order.capacity() {
            format!("VM {index} past the {} due", self.order.len())
        } else {
            self.order.push(index as u32);
            return Ok(());
        };
        Err(CheckpointError::Corrupt(format!(
            "pending {}: {fault}",
            self.edge.name()
        )))
    }

    /// Check that the restore appended every event it made room for.
    fn restore_complete(self) -> CheckpointResult<Self> {
        if self.order.len() == self.order.capacity() {
            Ok(self)
        } else {
            Err(CheckpointError::Corrupt(format!(
                "pending {}: {} of the {} due",
                self.edge.name(),
                self.order.len(),
                self.order.capacity()
            )))
        }
    }

    /// The event at position `k` of the order.
    #[inline]
    fn at(&self, workload: &[WorkloadVm], k: usize) -> Option<(f64, SimEvent)> {
        let i = *self.order.get(k)? as usize;
        Some((self.edge.time(&workload[i]), self.edge.event(i)))
    }

    fn remaining(&self) -> usize {
        self.order.len() - self.next
    }
}

/// Whether an event at `time` is not yet due at `stop`: a run stopped at
/// `stop` delivers exactly the events with `time <= stop`, so a NaN on
/// either side means the event is still pending.
fn after(time: f64, stop: f64) -> bool {
    !matches!(
        time.partial_cmp(&stop),
        Some(Ordering::Less | Ordering::Equal)
    )
}

/// The index of the earliest of the heads under [`event_cmp`]. Heads
/// never compare equal: each source holds its own event kinds.
#[inline]
fn earliest(heads: &[Option<(f64, SimEvent)>; 3]) -> Option<usize> {
    let mut best: Option<(usize, (f64, SimEvent))> = None;
    for (k, head) in heads.iter().enumerate() {
        if let Some(head) = *head {
            if best.is_none_or(|(_, b)| event_cmp(head, b) == Ordering::Less) {
                best = Some((k, head));
            }
        }
    }
    best.map(|(k, _)| k)
}

/// Every event of a run not yet delivered, popped in [`event_cmp`]
/// order.
#[derive(Debug)]
pub(crate) struct PendingEvents<'w> {
    workload: &'w [WorkloadVm],
    arrivals: Cursor,
    departures: Cursor,
    queue: EventQueue,
}

impl<'w> PendingEvents<'w> {
    /// Nothing pending.
    pub(crate) fn empty(workload: &'w [WorkloadVm]) -> Self {
        let none = |edge| Cursor {
            edge,
            order: Vec::new(),
            next: 0,
        };
        PendingEvents {
            workload,
            arrivals: none(Edge::Arrival),
            departures: none(Edge::Departure),
            queue: EventQueue::new(),
        }
    }

    /// Every arrival and departure of `workload`, sorted. Panics on a
    /// non-finite arrival or departure time.
    pub(crate) fn sorted(workload: &'w [WorkloadVm]) -> Self {
        PendingEvents {
            workload,
            arrivals: Cursor::sorted(workload, Edge::Arrival),
            departures: Cursor::sorted(workload, Edge::Departure),
            queue: EventQueue::new(),
        }
    }

    /// The pending events of a snapshot taken at `at_secs`, decoded one
    /// by one in the order it stores them. The arrivals and departures
    /// among them must be exactly those a run stopped at `at_secs` has
    /// not popped, in [`event_cmp`] order and at the workload's times, or
    /// the snapshot is `Corrupt`. The other events are heaped.
    pub(crate) fn restored(
        workload: &'w [WorkloadVm],
        at_secs: f64,
        events: impl IntoIterator<Item = CheckpointResult<(f64, SimEvent)>>,
    ) -> CheckpointResult<Self> {
        let mut arrivals = Cursor::restoring(workload, Edge::Arrival, at_secs);
        let mut departures = Cursor::restoring(workload, Edge::Departure, at_secs);
        let mut queued = Vec::new();
        for event in events {
            let (time, event) = event?;
            match event {
                SimEvent::Arrival(i) | SimEvent::Departure(i) if i >= workload.len() => {
                    return Err(CheckpointError::Corrupt(format!(
                        "pending {event:?} is past the workload"
                    )))
                }
                SimEvent::Arrival(i) => arrivals.restore_next(workload, at_secs, time, i)?,
                SimEvent::Departure(i) => departures.restore_next(workload, at_secs, time, i)?,
                _ => queued.push((time, event)),
            }
        }
        Ok(PendingEvents {
            workload,
            arrivals: arrivals.restore_complete()?,
            departures: departures.restore_complete()?,
            queue: EventQueue::from_events(queued),
        })
    }

    /// Heap `events` next to the sorted orders. They must not be arrivals
    /// or departures.
    pub(crate) fn queue_all(&mut self, events: Vec<(f64, SimEvent)>) {
        debug_assert!(self.queue.is_empty());
        debug_assert!(!events
            .iter()
            .any(|(_, e)| matches!(e, SimEvent::Arrival(_) | SimEvent::Departure(_))));
        self.queue = EventQueue::from_events(events);
    }

    /// Schedule an event during the run: anything but an arrival or a
    /// departure, which are all sorted up front.
    #[inline]
    pub(crate) fn push(&mut self, time: f64, event: SimEvent) {
        debug_assert!(!matches!(
            event,
            SimEvent::Arrival(_) | SimEvent::Departure(_)
        ));
        self.queue.push(time, event);
    }

    /// Remove and return the earliest pending event, if there is one and
    /// its time is at most `stop_secs` (any time for `None`).
    #[inline]
    pub(crate) fn pop_through(&mut self, stop_secs: Option<f64>) -> Option<(f64, SimEvent)> {
        let heads = [
            self.arrivals.at(self.workload, self.arrivals.next),
            self.departures.at(self.workload, self.departures.next),
            self.queue.peek(),
        ];
        let k = earliest(&heads)?;
        let head = heads[k]?;
        if stop_secs.is_some_and(|stop| after(head.0, stop)) {
            return None;
        }
        match k {
            0 => self.arrivals.next += 1,
            1 => self.departures.next += 1,
            _ => {
                self.queue.pop();
            }
        }
        Some(head)
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.arrivals.remaining() + self.departures.remaining() + self.queue.len()
    }

    /// Every pending event in pop order, without popping any: the three
    /// sources merged under [`event_cmp`].
    pub(crate) fn contents(&self) -> impl Iterator<Item = (f64, SimEvent)> + '_ {
        let queued = self.queue.contents();
        let (mut a, mut d, mut q) = (self.arrivals.next, self.departures.next, 0);
        std::iter::from_fn(move || {
            let heads = [
                self.arrivals.at(self.workload, a),
                self.departures.at(self.workload, d),
                queued.get(q).copied(),
            ];
            let k = earliest(&heads)?;
            match k {
                0 => a += 1,
                1 => d += 1,
                _ => q += 1,
            }
            heads[k]
        })
    }

    /// Owned heap bytes: both orders' capacity and the queue's buffer.
    pub(crate) fn accounted_bytes(&self) -> u64 {
        vec_capacity_bytes(&self.arrivals.order)
            + vec_capacity_bytes(&self.departures.order)
            + self.queue.accounted_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload_from_azure, MinAllocationRule};
    use deflate_core::vm::ServerId;
    use deflate_traces::azure::{AzureTraceConfig, AzureTraceGenerator};

    /// A small deterministic generator (Knuth's MMIX constants).
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % n
        }
    }

    /// A workload whose times come from a coarse grid, so arrivals,
    /// departures, capacity changes and ticks collide: every tenth VM
    /// lives zero seconds and every tenth departs before it arrives.
    fn colliding_workload(num_vms: usize, seed: u64) -> Vec<WorkloadVm> {
        let traces = AzureTraceGenerator::generate(&AzureTraceConfig {
            num_vms,
            duration_hours: 2.0,
            seed,
            ..Default::default()
        });
        let mut workload = workload_from_azure(&traces, MinAllocationRule::None);
        let mut lcg = Lcg(seed);
        for vm in &mut workload {
            vm.arrival_secs = 60.0 * lcg.below(40) as f64;
            vm.departure_secs = match lcg.below(10) {
                0 => vm.arrival_secs,
                1 => vm.arrival_secs - 60.0 * (1 + lcg.below(5)) as f64,
                _ => vm.arrival_secs + 60.0 * (1 + lcg.below(30)) as f64,
            };
        }
        // Unsorted slices: shuffle the workload order.
        for i in (1..workload.len()).rev() {
            workload.swap(i, lcg.below(i as u64 + 1) as usize);
        }
        workload
    }

    /// Capacity changes and ticks on the same minute grid.
    fn grid_events(lcg: &mut Lcg) -> Vec<(f64, SimEvent)> {
        let mut events: Vec<(f64, SimEvent)> = (0..40)
            .map(|m| (60.0 * m as f64, SimEvent::UtilizationTick))
            .collect();
        for _ in 0..30 {
            let time = 60.0 * lcg.below(40) as f64;
            let server = ServerId(lcg.below(4) as u32);
            let available_fraction = 0.25 * lcg.below(5) as f64;
            events.push((
                time,
                if lcg.below(2) == 0 {
                    SimEvent::CapacityReclaim {
                        server,
                        available_fraction,
                    }
                } else {
                    SimEvent::CapacityRestore {
                        server,
                        available_fraction,
                    }
                },
            ));
        }
        events
    }

    fn workload_events(workload: &[WorkloadVm]) -> Vec<(f64, SimEvent)> {
        workload
            .iter()
            .enumerate()
            .flat_map(|(i, vm)| {
                [
                    (vm.arrival_secs, SimEvent::Arrival(i)),
                    (vm.departure_secs, SimEvent::Departure(i)),
                ]
            })
            .collect()
    }

    /// Pop both to the end. Every third capacity change schedules a
    /// migration completion 0–2 minutes later (sometimes at the same
    /// instant) in both, as the engine's handlers do mid-run.
    fn drain_both(
        pending: &mut PendingEvents<'_>,
        reference: &mut EventQueue,
        lcg: &mut Lcg,
    ) -> Vec<(f64, SimEvent)> {
        let mut popped = Vec::new();
        let mut migration = 0;
        loop {
            assert_eq!(pending.len(), reference.len());
            let expected = reference.pop();
            assert_eq!(pending.pop_through(None), expected, "after {popped:?}");
            let Some((time, event)) = expected else {
                return popped;
            };
            popped.push((time, event));
            let capacity = matches!(
                event,
                SimEvent::CapacityReclaim { .. } | SimEvent::CapacityRestore { .. }
            );
            if capacity && lcg.below(3) == 0 {
                migration += 1;
                let at = time + 60.0 * lcg.below(3) as f64;
                let event = SimEvent::MigrationComplete { migration };
                pending.push(at, event);
                reference.push(at, event);
            }
        }
    }

    #[test]
    fn merged_pops_equal_one_queue_over_every_event() {
        for seed in 1..=20 {
            let workload = colliding_workload(150, seed);
            let mut lcg = Lcg(seed ^ 0x5eed);
            let queued = grid_events(&mut lcg);
            let mut all = workload_events(&workload);
            all.extend(queued.iter().copied());
            let mut reference = EventQueue::from_events(all);
            let mut pending = PendingEvents::sorted(&workload);
            pending.queue_all(queued);
            assert_eq!(
                pending.contents().collect::<Vec<_>>(),
                reference.contents(),
                "seed {seed}"
            );
            let popped = drain_both(&mut pending, &mut reference, &mut lcg);
            assert!(popped.len() > 2 * workload.len());
            // The grid really collides: some arrival shares its instant
            // with a departure, a capacity change and a tick.
            let at = |t: f64, pred: fn(&SimEvent) -> bool| {
                popped.iter().any(|(u, e)| *u == t && pred(e))
            };
            assert!(popped.iter().any(|&(t, e)| {
                matches!(e, SimEvent::Arrival(_))
                    && at(t, |e| matches!(e, SimEvent::Departure(_)))
                    && at(t, |e| matches!(e, SimEvent::CapacityReclaim { .. }))
                    && at(t, |e| matches!(e, SimEvent::UtilizationTick))
            }));
        }
    }

    /// `contents` is the pop sequence from any point on, and a restore
    /// from it at the popped boundary pops the same remainder.
    #[test]
    fn contents_and_restore_continue_the_sequence() {
        let workload = colliding_workload(200, 7);
        let mut lcg = Lcg(7);
        let queued = grid_events(&mut lcg);
        for stop in [-1.0, 0.0, 59.0, 600.0, 1200.0, 2340.0, 1e9, f64::NAN] {
            let mut pending = PendingEvents::sorted(&workload);
            pending.queue_all(queued.clone());
            while pending.pop_through(Some(stop)).is_some() {}
            let contents: Vec<_> = pending.contents().collect();
            let mut restored =
                PendingEvents::restored(&workload, stop, contents.iter().copied().map(Ok)).unwrap();
            let rest: Vec<_> = std::iter::from_fn(|| pending.pop_through(None)).collect();
            assert_eq!(rest, contents, "stop {stop}");
            let again: Vec<_> = std::iter::from_fn(|| restored.pop_through(None)).collect();
            assert_eq!(again, contents, "stop {stop}");
        }
    }

    #[test]
    fn restore_rejects_anything_but_the_pending_suffix() {
        let workload = colliding_workload(120, 3);
        let stop = 900.0;
        let mut pending = PendingEvents::sorted(&workload);
        while pending.pop_through(Some(stop)).is_some() {}
        let contents: Vec<_> = pending.contents().collect();
        let vm_events: Vec<usize> = (0..contents.len())
            .filter(|&k| matches!(contents[k].1, SimEvent::Arrival(_) | SimEvent::Departure(_)))
            .collect();
        let restore = |at: f64, events: &[(f64, SimEvent)]| {
            PendingEvents::restored(&workload, at, events.iter().copied().map(Ok))
        };
        assert!(restore(stop, &contents).is_ok());
        let mut broken: Vec<(&str, Vec<(f64, SimEvent)>)> = Vec::new();
        for &k in [vm_events[0], vm_events[vm_events.len() / 2]].iter() {
            let mut dropped = contents.clone();
            dropped.remove(k);
            broken.push(("dropped", dropped));
            let mut duplicated = contents.clone();
            duplicated.insert(k, contents[k]);
            broken.push(("duplicated", duplicated));
            let mut moved = contents.clone();
            moved[k].0 += 1.0;
            broken.push(("retimed", moved));
        }
        let same_kind =
            |a: SimEvent, b: SimEvent| std::mem::discriminant(&a) == std::mem::discriminant(&b);
        let (a, b) = vm_events
            .iter()
            .flat_map(|&a| vm_events.iter().map(move |&b| (a, b)))
            .find(|&(a, b)| a < b && same_kind(contents[a].1, contents[b].1))
            .unwrap();
        let mut reordered = contents.clone();
        reordered.swap(a, b);
        broken.push(("reordered", reordered));
        // A boundary earlier than the one the run stopped at.
        let early = restore(stop - 60.0, &contents);
        assert!(matches!(early, Err(CheckpointError::Corrupt(_))));
        for (what, events) in broken {
            match restore(stop, &events) {
                Err(CheckpointError::Corrupt(_)) => {}
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    #[test]
    fn pending_orders_are_four_bytes_a_vm_edge() {
        let workload = colliding_workload(100, 5);
        let pending = PendingEvents::sorted(&workload);
        assert_eq!(pending.accounted_bytes(), 2 * 4 * 100);
        assert_eq!(pending.len(), 200);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_workload_times_are_rejected() {
        let mut workload = colliding_workload(10, 9);
        workload[3].departure_secs = f64::NAN;
        let _ = PendingEvents::sorted(&workload);
    }
}

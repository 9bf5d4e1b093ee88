//! The global transfer scheduler: who gets the next migration-bandwidth
//! slot.
//!
//! The migration cost model makes bandwidth a scarce resource — each
//! server drives only `budget / link` concurrent transfers — but the
//! original reclamation handler booked slots *greedily*, in the order it
//! happened to pick migration candidates. Under a tight budget that order
//! is what decides survival: a long transfer booked first can pin the only
//! slot past the reclamation deadline, turning every transfer queued
//! behind it (and often itself) into a deadline abort and an eviction.
//!
//! [`TransferScheduler`] centralises the booking. It owns the per-server
//! bandwidth ledgers and grants slots to each *decision batch* (the
//! transfers requested by one capacity event) in the order prescribed by a
//! [`TransferPolicy`]:
//!
//! * [`TransferOrdering::Fifo`] — request order, bit-identical to the
//!   historical greedy booking (the default, kept for reproducibility);
//! * [`TransferOrdering::SmallestFirst`] — ascending transfer volume, the
//!   classic order that maximises the number of copies finishing before a
//!   shared deadline;
//! * [`TransferOrdering::Edf`] — ascending deadline, with **admission
//!   control**: a transfer whose earliest start plus estimated duration
//!   already overshoots its deadline is [`TransferDecision::Rejected`]
//!   instead of booked, so the doomed copy never wastes link time and its
//!   VM falls back to deflate-or-evict immediately.
//!
//! Bookings persist across batches (the ledger serialises transfers from
//! later events behind in-flight ones); reordering applies within each
//! batch, which is exactly the set of transfers whose start times are
//! still negotiable.

use deflate_core::checkpoint::{ByteReader, ByteWriter, CheckpointResult};
use deflate_core::policy::{TransferOrdering, TransferPolicy};
use deflate_core::vm::VmId;
use serde::{Deserialize, Serialize};

/// One transfer a capacity event wants booked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferRequest {
    /// The migrating VM (identification / tie-breaking only).
    pub vm: VmId,
    /// Source server index.
    pub source: usize,
    /// Destination server index.
    pub dest: usize,
    /// Estimated page-copy duration, seconds (finite).
    pub duration_secs: f64,
    /// Estimated bytes on the wire, MiB (the `SmallestFirst` sort key).
    pub volume_mb: f64,
    /// Absolute abort deadline (the `Edf` sort key); `f64::INFINITY` for
    /// transfers that never race a deadline (migrate-backs).
    pub deadline_secs: f64,
}

/// The scheduler's verdict on one [`TransferRequest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransferDecision {
    /// A slot was granted on both endpoints.
    Booked {
        /// When the page copy starts (`>= now`; later when queued).
        start_secs: f64,
        /// When the transfer resolves: completion, or the deadline if that
        /// expires first (the manager then aborts it).
        event_secs: f64,
    },
    /// Admission control refused the transfer: even started as early as
    /// possible it provably cannot finish before its deadline. Only the
    /// `Edf` ordering rejects; the others book doomed transfers and let
    /// them abort at the deadline, as the greedy booking always did.
    Rejected,
}

/// Aggregate scheduler accounting, surfaced per run in
/// [`SimResult`](crate::metrics::SimResult).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Transfers granted a bandwidth slot.
    pub booked: usize,
    /// Transfers refused by EDF admission control.
    pub rejected: usize,
    /// Total time booked transfers spent queued for a slot, seconds
    /// (`start − request` summed over bookings).
    pub total_queue_wait_secs: f64,
}

impl SchedulerStats {
    /// Mean queueing delay per booked transfer, seconds.
    pub fn mean_queue_wait_secs(&self) -> f64 {
        if self.booked == 0 {
            0.0
        } else {
            self.total_queue_wait_secs / self.booked as f64
        }
    }
}

/// Global deadline-aware scheduler for migration-bandwidth slots.
#[derive(Debug, Clone)]
pub struct TransferScheduler {
    policy: TransferPolicy,
    /// Per-server ledger: end times of transfers holding one link worth of
    /// that server's budget.
    reservations: Vec<Vec<f64>>,
    stats: SchedulerStats,
}

impl TransferScheduler {
    /// A scheduler for `num_servers` servers under the given policy.
    pub fn new(num_servers: usize, policy: TransferPolicy) -> Self {
        TransferScheduler {
            policy,
            reservations: vec![Vec::new(); num_servers],
            stats: SchedulerStats::default(),
        }
    }

    /// The policy in effect.
    pub fn policy(&self) -> TransferPolicy {
        self.policy
    }

    /// Accounting so far.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Owned heap bytes behind the scheduler: the per-server reservation
    /// ledgers (spine plus each ledger's capacity). Feeds the engine's
    /// `mem.scheduler` gauge.
    pub fn accounted_bytes(&self) -> u64 {
        deflate_core::mem::vec_capacity_bytes(&self.reservations)
            + self
                .reservations
                .iter()
                .map(deflate_core::mem::vec_capacity_bytes)
                .sum::<u64>()
    }

    /// Read-only view of the per-server reservation ledgers: each entry is
    /// the end time of a transfer holding one link worth of that server's
    /// budget. Used by the bandwidth-ledger audit checker, which verifies
    /// that every live in-flight transfer is backed by reservations on
    /// both endpoints. (The reverse is deliberately *not* an invariant:
    /// cancelled transfers leave their reservations to drain.)
    pub(crate) fn ledgers(&self) -> &[Vec<f64>] {
        &self.reservations
    }

    /// Mutable ledger access for the auditor's mutation-style tests.
    #[cfg(test)]
    pub(crate) fn ledger_mut(&mut self, idx: usize) -> &mut Vec<f64> {
        &mut self.reservations[idx]
    }

    /// Serialize the scheduler's *dynamic* state — the per-server
    /// reservation ledgers and the accumulated stats — for an engine
    /// checkpoint. The policy is deliberately not written: it is
    /// configuration, supplied again on restore, which is what lets a
    /// fork resume the same in-flight ledgers under a *different*
    /// [`TransferPolicy`].
    pub fn write_snapshot(&self, w: &mut ByteWriter) {
        w.put_usize(self.reservations.len());
        for ledger in &self.reservations {
            w.put_f64_slice(ledger);
        }
        w.put_usize(self.stats.booked);
        w.put_usize(self.stats.rejected);
        w.put_f64(self.stats.total_queue_wait_secs);
    }

    /// Rebuild a scheduler from [`write_snapshot`](Self::write_snapshot)
    /// bytes under the given policy, preserving ledgers and stats
    /// bit-identically.
    pub fn read_snapshot(r: &mut ByteReader<'_>, policy: TransferPolicy) -> CheckpointResult<Self> {
        // Each ledger is at least its own 8-byte length prefix.
        let num_servers = r.field("ledgers.len").get_len(8)?;
        let mut reservations = Vec::with_capacity(num_servers);
        for i in 0..num_servers {
            reservations.push(r.field_at("ledger", i).get_f64_vec()?);
        }
        let stats = SchedulerStats {
            booked: r.field("booked").get_usize()?,
            rejected: r.field("rejected").get_usize()?,
            total_queue_wait_secs: r.field("total_queue_wait_secs").get_f64()?,
        };
        Ok(TransferScheduler {
            policy,
            reservations,
            stats,
        })
    }

    /// Book one decision batch: grant (or refuse) a slot to every request,
    /// visiting them in policy order, and return the decisions indexed
    /// like `requests`. `slots` is the per-server concurrent-transfer
    /// budget (`usize::MAX` = unlimited).
    pub fn book_batch(
        &mut self,
        requests: &[TransferRequest],
        now_secs: f64,
        slots: usize,
    ) -> Vec<TransferDecision> {
        let mut order: Vec<usize> = (0..requests.len()).collect();
        match self.policy.ordering {
            TransferOrdering::Fifo => {}
            TransferOrdering::SmallestFirst => order.sort_by(|&a, &b| {
                requests[a]
                    .volume_mb
                    .total_cmp(&requests[b].volume_mb)
                    .then(a.cmp(&b))
            }),
            TransferOrdering::Edf => order.sort_by(|&a, &b| {
                requests[a]
                    .deadline_secs
                    .total_cmp(&requests[b].deadline_secs)
                    .then(a.cmp(&b))
            }),
        }
        let mut decisions = vec![TransferDecision::Rejected; requests.len()];
        for &i in &order {
            let req = &requests[i];
            let start = self
                .earliest_slot(req.source, now_secs, slots)
                .max(self.earliest_slot(req.dest, now_secs, slots));
            if self.policy.ordering == TransferOrdering::Edf
                && start + req.duration_secs > req.deadline_secs
            {
                self.stats.rejected += 1;
                continue;
            }
            let event = (start + req.duration_secs).min(req.deadline_secs);
            // The transfer occupies one link worth of both endpoints'
            // budgets until it completes or is aborted at the deadline.
            if start < req.deadline_secs {
                self.reserve(req.source, now_secs, event, slots);
                self.reserve(req.dest, now_secs, event, slots);
            }
            self.stats.booked += 1;
            self.stats.total_queue_wait_secs += start - now_secs;
            decisions[i] = TransferDecision::Booked {
                start_secs: start,
                event_secs: event,
            };
        }
        decisions
    }

    /// The earliest time a new transfer can start on this server given the
    /// concurrent-transfer budget: `now` when a slot is free, otherwise the
    /// moment enough ongoing transfers have drained.
    fn earliest_slot(&mut self, idx: usize, now_secs: f64, slots: usize) -> f64 {
        if slots == usize::MAX {
            return now_secs;
        }
        // Drop reservations that have already drained.
        let ledger = &mut self.reservations[idx];
        ledger.retain(|&end| end > now_secs);
        if ledger.len() < slots {
            return now_secs;
        }
        let mut ends = ledger.clone();
        ends.sort_by(f64::total_cmp);
        ends[ends.len() - slots]
    }

    fn reserve(&mut self, idx: usize, now_secs: f64, until_secs: f64, slots: usize) {
        if slots == usize::MAX || until_secs <= now_secs {
            return;
        }
        self.reservations[idx].push(until_secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(
        vm: u64,
        source: usize,
        dest: usize,
        duration: f64,
        volume: f64,
        deadline: f64,
    ) -> TransferRequest {
        TransferRequest {
            vm: VmId(vm),
            source,
            dest,
            duration_secs: duration,
            volume_mb: volume,
            deadline_secs: deadline,
        }
    }

    fn starts(decisions: &[TransferDecision]) -> Vec<f64> {
        decisions
            .iter()
            .map(|d| match d {
                TransferDecision::Booked { start_secs, .. } => *start_secs,
                TransferDecision::Rejected => f64::NAN,
            })
            .collect()
    }

    #[test]
    fn fifo_books_in_request_order() {
        let mut s = TransferScheduler::new(3, TransferPolicy::fifo());
        // Two transfers off server 0, one slot each: the second queues.
        let batch = [
            req(1, 0, 1, 10.0, 1000.0, f64::INFINITY),
            req(2, 0, 2, 5.0, 500.0, f64::INFINITY),
        ];
        let d = s.book_batch(&batch, 100.0, 1);
        assert_eq!(starts(&d), vec![100.0, 110.0]);
        assert_eq!(s.stats().booked, 2);
        assert_eq!(s.stats().rejected, 0);
        assert!((s.stats().total_queue_wait_secs - 10.0).abs() < 1e-9);
        assert!((s.stats().mean_queue_wait_secs() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn smallest_first_lets_short_copies_jump_the_queue() {
        let mut s = TransferScheduler::new(3, TransferPolicy::smallest_first());
        let batch = [
            req(1, 0, 1, 10.0, 1000.0, f64::INFINITY),
            req(2, 0, 2, 5.0, 500.0, f64::INFINITY),
        ];
        let d = s.book_batch(&batch, 0.0, 1);
        // The small transfer goes first now.
        assert_eq!(starts(&d), vec![5.0, 0.0]);
    }

    #[test]
    fn edf_rejects_provably_late_transfers() {
        let mut s = TransferScheduler::new(3, TransferPolicy::edf());
        // Deadline 12 s out, one slot: the first copy (10 s) fits, the
        // second would start at 10 and needs 10 more — provably late.
        let batch = [
            req(1, 0, 1, 10.0, 1000.0, 12.0),
            req(2, 0, 2, 10.0, 1000.0, 12.0),
        ];
        let d = s.book_batch(&batch, 0.0, 1);
        assert_eq!(
            d,
            vec![
                TransferDecision::Booked {
                    start_secs: 0.0,
                    event_secs: 10.0
                },
                TransferDecision::Rejected,
            ]
        );
        assert_eq!(s.stats().rejected, 1);
        // The rejected transfer reserved nothing: a later request starts
        // right after the booked one, not after a phantom reservation.
        let later = s.book_batch(&[req(3, 0, 1, 1.0, 100.0, f64::INFINITY)], 0.0, 1);
        assert_eq!(starts(&later), vec![10.0]);
    }

    #[test]
    fn edf_orders_by_deadline_across_a_batch() {
        let mut s = TransferScheduler::new(2, TransferPolicy::edf());
        // The urgent transfer is requested *second* but booked first.
        let batch = [
            req(1, 0, 1, 4.0, 400.0, 100.0),
            req(2, 0, 1, 4.0, 400.0, 10.0),
        ];
        let d = s.book_batch(&batch, 0.0, 1);
        assert_eq!(starts(&d), vec![4.0, 0.0]);
        // Infinite deadlines (migrate-backs) are always admitted, last.
        let back = s.book_batch(&[req(3, 0, 1, 2.0, 200.0, f64::INFINITY)], 0.0, 1);
        assert_eq!(starts(&back), vec![8.0]);
        assert_eq!(s.stats().rejected, 0);
    }

    #[test]
    fn bookings_persist_across_batches_and_unlimited_budgets_never_queue() {
        let mut s = TransferScheduler::new(2, TransferPolicy::fifo());
        let first = s.book_batch(&[req(1, 0, 1, 10.0, 1000.0, f64::INFINITY)], 0.0, 1);
        assert_eq!(starts(&first), vec![0.0]);
        // A later batch queues behind the in-flight transfer…
        let second = s.book_batch(&[req(2, 0, 1, 1.0, 100.0, f64::INFINITY)], 5.0, 1);
        assert_eq!(starts(&second), vec![10.0]);
        // …but an unlimited budget never queues anything.
        let mut open = TransferScheduler::new(2, TransferPolicy::fifo());
        let d = open.book_batch(
            &[
                req(1, 0, 1, 10.0, 1000.0, f64::INFINITY),
                req(2, 0, 1, 10.0, 1000.0, f64::INFINITY),
            ],
            0.0,
            usize::MAX,
        );
        assert_eq!(starts(&d), vec![0.0, 0.0]);
    }
}

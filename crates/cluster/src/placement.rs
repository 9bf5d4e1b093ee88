//! The incremental placement index: cached server views + dirty tracking.
//!
//! Every placement decision ranks candidate servers through a
//! [`PlacementPolicy`] over [`ServerView`] snapshots. Before PR 7 the
//! cluster manager rebuilt **every** view from scratch on **every**
//! ranking pass — an `O(servers × resident domains)` walk per arrival that
//! `fig_profile` measured at 75.6 % of engine self time on the 100k-VM
//! `fig_scale` cell. The views barely change between arrivals, though:
//! one admission touches one server, a reclamation touches one server, a
//! migration two. [`PlacementIndex`] exploits that by keeping the views
//! *resident* and re-deriving only the servers marked dirty since the
//! last pass.
//!
//! The index is deliberately **not** a score cache: scores depend on the
//! demand vector of the VM being placed, so they cannot outlive a single
//! ranking pass. What *is* demand-independent — and what was expensive —
//! is the per-server `ServerView` itself (a sum over resident domains).
//! With views cached, a ranking pass is a linear scan over `Copy` structs.
//!
//! Two standing contracts, pinned by `tests/placement_equivalence.rs`,
//! `tests/placement_golden.rs` and `tests/shard_parity.rs`:
//!
//! 1. **Index == full rescan.** After any mutation sequence, ranking over
//!    the cached views picks the *same server with the same score* as a
//!    from-scratch rescan of every server. (This holds because the manager
//!    marks every view-affecting mutation dirty; see
//!    `ClusterManager::mark_server_dirty` for the taxonomy.)
//! 2. **Parallel == sequential.** The opt-in [`PlacementEngine::Parallel`]
//!    fan-out reduces per-span argmaxes in span order — strictly-greater
//!    score replaces, ties keep the earlier span — reproducing the
//!    sequential first-argmax bit for bit.

use deflate_core::placement::{PlacementDecision, PlacementEngine, PlacementPolicy, ServerView};
use deflate_core::vm::{ServerId, VmSpec};
use deflate_telemetry::{Phase, TelemetrySink};
use deflate_transient::pool::{run_tasks, Task, WorkerPool};

/// Cached per-server [`ServerView`]s with dirty tracking, plus the ranking
/// pass itself (sequential or parallel, per [`PlacementEngine`]).
#[derive(Debug, Clone)]
pub struct PlacementIndex {
    /// The resident view of every server, in server order. Entry `i` is
    /// exact unless `i` is queued dirty.
    views: Vec<ServerView>,
    /// `dirty[i]` — whether server `i` is queued for re-derivation.
    /// Doubles as the dedup bit for `dirty_queue`.
    dirty: Vec<bool>,
    /// Queued dirty server indices (unordered; order does not matter
    /// because refresh rewrites whole entries).
    dirty_queue: Vec<usize>,
}

impl PlacementIndex {
    /// Build an index over freshly derived views (starts clean).
    pub fn new(views: Vec<ServerView>) -> Self {
        let n = views.len();
        PlacementIndex {
            views,
            dirty: vec![false; n],
            dirty_queue: Vec::new(),
        }
    }

    /// Number of servers indexed.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether the index covers no servers.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Number of servers currently queued for re-derivation (telemetry /
    /// test visibility).
    pub fn pending_dirty(&self) -> usize {
        self.dirty_queue.len()
    }

    /// Queue server `idx` for re-derivation on the next [`refresh`]
    /// (O(1), deduplicated). Call after any mutation that changes the
    /// server's capacity, allocations, deflatable headroom, overcommitment
    /// or partition.
    ///
    /// [`refresh`]: PlacementIndex::refresh
    pub fn mark_dirty(&mut self, idx: usize) {
        if let Some(flag) = self.dirty.get_mut(idx) {
            if !*flag {
                *flag = true;
                self.dirty_queue.push(idx);
            }
        }
    }

    /// Re-derive every queued dirty view through `view_of` (under the
    /// `placement_index` telemetry phase). No-op when nothing is dirty —
    /// the common case between clustered mutations.
    pub fn refresh<F>(&mut self, telemetry: &TelemetrySink, mut view_of: F)
    where
        F: FnMut(usize) -> ServerView,
    {
        if self.dirty_queue.is_empty() {
            return;
        }
        let _span = telemetry.span(Phase::PlacementIndex);
        for idx in self.dirty_queue.drain(..) {
            self.views[idx] = view_of(idx);
            self.dirty[idx] = false;
        }
    }

    /// The queued dirty server indices, sorted ascending — the canonical
    /// form written into an engine checkpoint. (The live queue keeps
    /// insertion order, which is deterministic but irrelevant: refresh
    /// rewrites whole entries, so a restored index may replay the marks
    /// in any fixed order.)
    pub fn dirty_indices(&self) -> Vec<usize> {
        let mut indices = self.dirty_queue.clone();
        indices.sort_unstable();
        indices
    }

    /// The cached views, in server order. Exact only after [`refresh`]
    /// drained the dirty queue.
    ///
    /// [`refresh`]: PlacementIndex::refresh
    pub fn views(&self) -> &[ServerView] {
        &self.views
    }

    /// Owned heap bytes behind the index: the cached view table, the
    /// dirty bitmap and the dirty queue (see `deflate_core::mem` for the
    /// convention). Feeds the engine's `mem.placement_index` gauge.
    pub fn accounted_bytes(&self) -> u64 {
        deflate_core::mem::vec_capacity_bytes(&self.views)
            + deflate_core::mem::vec_capacity_bytes(&self.dirty)
            + deflate_core::mem::vec_capacity_bytes(&self.dirty_queue)
    }

    /// Rank the cached views for `vm` and pick a server — the incremental
    /// replacement for "rebuild all views, then `policy.place`". The
    /// caller must [`refresh`](PlacementIndex::refresh) first; `excluded`
    /// servers (already tried and rejected this placement loop, or a
    /// migration's own source) are passed through to the policy, which
    /// skips them while it scans, so the view table is never copied.
    ///
    /// Under [`PlacementEngine::Sequential`] this delegates to
    /// `policy.place` over the cached views — literally the pre-index
    /// code path over equal inputs, hence bit-identical by construction.
    /// Under [`PlacementEngine::Parallel`] the views are split into
    /// `workers` contiguous spans, each span ranked by the same policy
    /// (with the same exclusions) on a pool worker, and the per-span
    /// winners reduced in span order (strictly-greater replaces, ties keep
    /// the earlier span) — the sequential first-argmax, reproduced
    /// exactly.
    pub fn rank(
        &self,
        policy: &dyn PlacementPolicy,
        vm: &VmSpec,
        excluded: &[ServerId],
        engine: PlacementEngine,
        pool: Option<&WorkerPool>,
        telemetry: &TelemetrySink,
    ) -> Option<PlacementDecision> {
        debug_assert!(
            self.dirty_queue.is_empty(),
            "rank() requires a refreshed index"
        );
        let views: &[ServerView] = &self.views;
        let workers = engine.workers();
        // Spans below ~2 servers per worker cost more to fan out than to
        // scan; the sequential pass is the exact same argmax either way.
        if workers < 2 || views.len() < 2 * workers {
            return policy.place(vm, views, excluded);
        }
        let span = views.len().div_ceil(workers);
        let chunks: Vec<&[ServerView]> = views.chunks(span).collect();
        let mut partials: Vec<Option<Option<PlacementDecision>>> = vec![None; chunks.len()];
        {
            let tasks: Vec<Task<'_>> = partials
                .iter_mut()
                .zip(&chunks)
                .enumerate()
                .map(|(shard, (slot, chunk))| {
                    let chunk: &[ServerView] = chunk;
                    let worker_sink = telemetry.clone();
                    Box::new(move || {
                        let _span = worker_sink.shard_span(shard, Phase::PlacementRank);
                        *slot = Some(policy.place(vm, chunk, excluded));
                    }) as Task<'_>
                })
                .collect();
            run_tasks(pool, workers, tasks);
        }
        // Span-order reduce: strictly-greater score replaces, ties keep
        // the earlier span — the same `b.score >= s` comparison the
        // sequential `pick_best` applies server by server, so the winner
        // (and its score bits) match the sequential scan exactly. A
        // first-fit style policy scores every pick 0.0: the tie rule then
        // keeps the earliest span's pick, which is the sequential answer.
        let mut best: Option<PlacementDecision> = None;
        for partial in partials.into_iter().flatten().flatten() {
            match &best {
                Some(b) if b.score >= partial.score => {}
                _ => best = Some(partial),
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflate_core::placement::{BestFit, CosineFitness, FirstFit, WorstFit};
    use deflate_core::resources::ResourceVector;
    use deflate_core::vm::{VmClass, VmId};

    fn view(id: u32, free_cpu: f64, deflatable_cpu: f64) -> ServerView {
        let total = ResourceVector::cpu_mem(48_000.0, 131_072.0);
        ServerView {
            id: ServerId(id),
            total,
            used: total - ResourceVector::cpu_mem(free_cpu, 65_536.0),
            deflatable: ResourceVector::cpu_mem(deflatable_cpu, 0.0),
            overcommitment: 1.0,
            partition: None,
        }
    }

    fn demand(cpu: f64) -> VmSpec {
        VmSpec::deflatable(
            VmId(7),
            VmClass::Interactive,
            ResourceVector::cpu_mem(cpu, 1_024.0),
        )
    }

    fn sink() -> TelemetrySink {
        TelemetrySink::disabled()
    }

    #[test]
    fn mark_dirty_dedups_and_refresh_drains() {
        let mut index = PlacementIndex::new(vec![view(0, 1_000.0, 0.0), view(1, 2_000.0, 0.0)]);
        assert_eq!(index.pending_dirty(), 0);
        index.mark_dirty(1);
        index.mark_dirty(1);
        index.mark_dirty(0);
        assert_eq!(index.pending_dirty(), 2);
        // Out-of-range marks are ignored (parked capacity shrink races).
        index.mark_dirty(99);
        assert_eq!(index.pending_dirty(), 2);
        index.refresh(&sink(), |i| view(i as u32, 5_000.0 * (i + 1) as f64, 0.0));
        assert_eq!(index.pending_dirty(), 0);
        assert!((index.views()[0].free().cpu() - 5_000.0).abs() < 1e-9);
        assert!((index.views()[1].free().cpu() - 10_000.0).abs() < 1e-9);
        // Clean refresh is a no-op and must not call view_of.
        index.refresh(&sink(), |_| unreachable!("no dirty servers queued"));
    }

    #[test]
    fn sequential_rank_matches_policy_place() {
        let views: Vec<ServerView> = (0..20)
            .map(|i| view(i, 500.0 * (i + 1) as f64, 250.0 * (i % 3) as f64))
            .collect();
        let index = PlacementIndex::new(views.clone());
        let vm = demand(900.0);
        for policy in [
            Box::new(CosineFitness::load_balancing()) as Box<dyn PlacementPolicy>,
            Box::new(FirstFit),
            Box::new(BestFit),
            Box::new(WorstFit),
        ] {
            let direct = policy.place(&vm, &views, &[]);
            let ranked = index.rank(
                policy.as_ref(),
                &vm,
                &[],
                PlacementEngine::Sequential,
                None,
                &sink(),
            );
            assert_eq!(direct, ranked, "policy {}", policy.name());
        }
    }

    #[test]
    fn parallel_rank_is_bit_identical_to_sequential() {
        let views: Vec<ServerView> = (0..53)
            .map(|i| {
                view(
                    i,
                    300.0 + 137.0 * ((i as f64 * 1.7).sin().abs()),
                    90.0 * (i % 5) as f64,
                )
            })
            .collect();
        let index = PlacementIndex::new(views);
        let pool = WorkerPool::new(4);
        for cpu in [100.0, 350.0, 420.0] {
            let vm = demand(cpu);
            for policy in [
                Box::new(CosineFitness::load_balancing()) as Box<dyn PlacementPolicy>,
                Box::new(FirstFit),
                Box::new(BestFit),
                Box::new(WorstFit),
            ] {
                let sequential = index.rank(
                    policy.as_ref(),
                    &vm,
                    &[],
                    PlacementEngine::Sequential,
                    None,
                    &sink(),
                );
                for workers in [2, 3, 4, 7] {
                    let parallel = index.rank(
                        policy.as_ref(),
                        &vm,
                        &[],
                        PlacementEngine::parallel(workers),
                        Some(&pool),
                        &sink(),
                    );
                    assert_eq!(
                        sequential,
                        parallel,
                        "policy {} with {workers} workers",
                        policy.name()
                    );
                    // Score bits, not just the pick.
                    if let (Some(s), Some(p)) = (sequential, parallel) {
                        assert_eq!(s.score.to_bits(), p.score.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn excluded_servers_never_win() {
        let index = PlacementIndex::new(vec![
            view(0, 9_000.0, 0.0),
            view(1, 8_000.0, 0.0),
            view(2, 7_000.0, 0.0),
        ]);
        let vm = demand(1_000.0);
        let policy = WorstFit;
        let all = index
            .rank(
                &policy,
                &vm,
                &[],
                PlacementEngine::Sequential,
                None,
                &sink(),
            )
            .unwrap();
        assert_eq!(all.server, ServerId(0));
        let without_best = index
            .rank(
                &policy,
                &vm,
                &[ServerId(0)],
                PlacementEngine::Sequential,
                None,
                &sink(),
            )
            .unwrap();
        assert_eq!(without_best.server, ServerId(1));
        assert!(index
            .rank(
                &policy,
                &vm,
                &[ServerId(0), ServerId(1), ServerId(2)],
                PlacementEngine::Sequential,
                None,
                &sink(),
            )
            .is_none());
    }

    #[test]
    fn tiny_eligible_sets_skip_the_fan_out() {
        // 3 eligible servers with 4 workers: the parallel path would fan
        // out more tasks than servers; rank degrades to the sequential
        // scan (no pool needed even with a parallel engine).
        let index = PlacementIndex::new(vec![
            view(0, 2_000.0, 0.0),
            view(1, 3_000.0, 0.0),
            view(2, 4_000.0, 0.0),
        ]);
        let vm = demand(500.0);
        let got = index.rank(
            &WorstFit,
            &vm,
            &[],
            PlacementEngine::parallel(4),
            None,
            &sink(),
        );
        assert_eq!(got.unwrap().server, ServerId(2));
    }
}

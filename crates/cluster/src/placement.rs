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
//! The views live in a [`ViewTree`], a max tree over each server's
//! feasibility headroom and projection row, so a ranking pass descends the
//! tree instead of scanning every view: first fit finds the leftmost
//! feasible server in close to O(log n) node visits, the cosine projection
//! prunes by branch-and-bound, and best/worst fit skip infeasible
//! subtrees.
//!
//! Two standing contracts, pinned by `tests/placement_equivalence.rs`,
//! `tests/placement_golden.rs` and the `deflate-core` tree battery:
//!
//! 1. **Index == full rescan.** After any mutation sequence, ranking over
//!    the cached views picks the *same server with the same score* as a
//!    from-scratch rescan of every server. (This holds because the manager
//!    marks every view-affecting mutation dirty; see
//!    `ClusterManager::mark_server_dirty` for the taxonomy.)
//! 2. **Tree == slice scan.** Every policy's
//!    [`PlacementPolicy::place_in_tree`] picks the server, and the score
//!    bits, that its slice [`PlacementPolicy::place`] picks over the same
//!    views.

use deflate_core::placement::{PlacementDecision, PlacementPolicy, ServerView, ViewTree};
use deflate_core::vm::{ServerId, VmSpec};
use deflate_telemetry::{Phase, TelemetrySink};

/// Cached per-server [`ServerView`]s in a [`ViewTree`], with dirty
/// tracking, plus the ranking pass itself.
#[derive(Debug, Clone)]
pub struct PlacementIndex {
    /// The resident view of every server, in server order, under the
    /// max tree. Entry `i` is exact unless `i` is queued dirty.
    tree: ViewTree,
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
            tree: ViewTree::new(views),
            dirty: vec![false; n],
            dirty_queue: Vec::new(),
        }
    }

    /// Number of servers indexed.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the index covers no servers.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
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

    /// Re-derive every queued dirty view through `view_of` and rewrite
    /// its tree leaf and ancestors (under the `placement_index` telemetry
    /// phase). No-op when nothing is dirty — the common case between
    /// clustered mutations.
    pub fn refresh<F>(&mut self, telemetry: &TelemetrySink, mut view_of: F)
    where
        F: FnMut(usize) -> ServerView,
    {
        if self.dirty_queue.is_empty() {
            return;
        }
        let _span = telemetry.span(Phase::PlacementIndex);
        for idx in self.dirty_queue.drain(..) {
            self.tree.set(idx, view_of(idx));
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
        self.tree.views()
    }

    /// Whether the tree's nodes agree with the cached views (an audit
    /// probe; O(n)).
    pub fn tree_is_consistent(&self) -> bool {
        self.tree.is_consistent()
    }

    /// Owned heap bytes behind the index: the cached view table and tree
    /// nodes, the dirty bitmap and the dirty queue (see `deflate_core::mem`
    /// for the convention). Feeds the engine's `mem.placement_index` gauge.
    pub fn accounted_bytes(&self) -> u64 {
        self.tree.accounted_bytes()
            + deflate_core::mem::vec_capacity_bytes(&self.dirty)
            + deflate_core::mem::vec_capacity_bytes(&self.dirty_queue)
    }

    /// Rank the cached views for `vm` and pick a server — the incremental
    /// replacement for "rebuild all views, then `policy.place`". The
    /// caller must [`refresh`](PlacementIndex::refresh) first; `excluded`
    /// servers (already tried and rejected this placement loop, or a
    /// migration's own source) are skipped at the tree's leaves, so the
    /// view table is never copied. The answer is `policy.place` over the
    /// cached views, score bits included.
    pub fn rank(
        &self,
        policy: &dyn PlacementPolicy,
        vm: &VmSpec,
        excluded: &[ServerId],
    ) -> Option<PlacementDecision> {
        debug_assert!(
            self.dirty_queue.is_empty(),
            "rank() requires a refreshed index"
        );
        policy.place_in_tree(vm, &self.tree, &|s| !excluded.contains(&s.id))
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
    fn rank_matches_policy_place() {
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
            for excluded in [&[][..], &[ServerId(19), ServerId(1)]] {
                let direct = policy.place(&vm, &views, excluded);
                let ranked = index.rank(policy.as_ref(), &vm, excluded);
                assert_eq!(direct, ranked, "policy {}", policy.name());
                assert_eq!(
                    direct.map(|d| d.score.to_bits()),
                    ranked.map(|d| d.score.to_bits())
                );
            }
        }
    }

    #[test]
    fn refresh_rewrites_the_tree_ranking_reads() {
        let mut index = PlacementIndex::new((0..9).map(|i| view(i, 1_000.0, 0.0)).collect());
        let vm = demand(4_000.0);
        assert!(index.rank(&FirstFit, &vm, &[]).is_none());
        index.mark_dirty(6);
        index.mark_dirty(3);
        index.refresh(&sink(), |i| view(i as u32, 1_000.0 * i as f64, 0.0));
        assert!(index.tree_is_consistent());
        assert_eq!(index.rank(&FirstFit, &vm, &[]).unwrap().server, ServerId(6));
        let best = index.rank(&CosineFitness::load_balancing(), &vm, &[]);
        assert_eq!(best.unwrap().server, ServerId(6));
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
        let all = index.rank(&policy, &vm, &[]).unwrap();
        assert_eq!(all.server, ServerId(0));
        let without_best = index.rank(&policy, &vm, &[ServerId(0)]).unwrap();
        assert_eq!(without_best.server, ServerId(1));
        assert!(index
            .rank(&policy, &vm, &[ServerId(0), ServerId(1), ServerId(2)])
            .is_none());
    }
}

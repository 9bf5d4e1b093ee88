//! A per-dimension max tree over cached server views.
//!
//! A placement pass ranks every server's [`ServerView`] against the new
//! VM's demand. [`ViewTree`] keeps the views in server order under a
//! complete binary tree whose every node stores maxima, over the servers
//! below it, of demand-independent vectors:
//!
//! * the **feasibility headroom** `free + deflatable`
//!   ([`ServerView::headroom`], what [`ServerView::can_accommodate`]
//!   tests against), component-wise;
//! * the **coupled headroom** `min(h_cpu, h_mem / ratio)` at a few fixed
//!   memory-to-CPU ratios. Component-wise maxima may come from different
//!   servers, so a subtree mixing CPU-rich and memory-rich servers passes
//!   the per-dimension test without holding any server that fits both;
//!   the coupled maxima prune it;
//! * the **projection row** `free + deflatable · (0.5 / overcommitment)`
//!   ([`CosineFitness::scoring_availability`], the vector the
//!   load-balancing projection dots with the demand), component-wise.
//!
//! All give exact pruning:
//!
//! * `fits_within` is a per-dimension `d ≤ h + 1e-9`, monotone in `h`
//!   (float addition and comparison are monotone). A node whose maximum
//!   headroom fails the test has no feasible server below it. The same
//!   monotonicity, of rounded division and `min`, makes the coupled test
//!   necessary for every server that fits.
//! * For a demand `d ≥ 0`, `max_row · d / |d|` bounds the projection of
//!   every server below the node: each product `row_k · d_k` is monotone in
//!   `row_k`, and so are the float sum and the division by `|d| > 0`. The
//!   bound holds bit for bit, not just in real arithmetic.
//!
//! The queries answer exactly what the slice scans of
//! [`PlacementPolicy::place`](super::PlacementPolicy::place) answer, score
//! bits included:
//!
//! * [`first_feasible`](ViewTree::first_feasible) descends to the leftmost
//!   feasible, eligible server: Johnson's fast first fit ("Fast algorithms
//!   for bin packing", JCSS 1974), O(log n) in one dimension. With several
//!   dimensions a subtree can pass every test and still hold no server
//!   that fits, which costs a backtrack.
//! * [`best_projection`](ViewTree::best_projection) is a depth-first
//!   branch-and-bound on the projection that keeps the slice scan's
//!   first-argmax tie rule. Tetris-style multi-resource scoring (Grandl et
//!   al., SIGCOMM'14) is what §5.2 adopts. It still visits every subtree
//!   whose bound reaches the best score, so a cluster with many
//!   near-best servers costs more than log n.
//! * [`pick_best`](ViewTree::pick_best) visits the feasible servers in
//!   server order with feasibility pruning only; best fit, worst fit and
//!   the raw cosine use it.
//!
//! Eligibility (exclusions, partition pools) is a predicate checked at the
//! leaves, so no query copies a view.

use super::{CosineFitness, PlacementDecision, ServerView};
use crate::resources::{ResourceKind, ResourceVector};
use crate::vm::VmSpec;
use std::ops::ControlFlow;

/// Which cached views a tree query may pick (exclusions and partition
/// pools). Checked only at feasible leaves.
pub type Eligible<'a> = &'a dyn Fn(&ServerView) -> bool;

/// Memory-to-CPU ratios (MiB per CPU millicore) at which a node keeps
/// the coupled headroom `min(cpu, memory / ratio)`.
const RATIOS: [f64; 4] = [0.25, 1.0, 4.0, 16.0];

const CPU: usize = ResourceKind::Cpu.index();
const MEMORY: usize = ResourceKind::Memory.index();

/// What feasibility pruning reads at a node: maxima, over the servers
/// below it, in [`ResourceKind::ALL`](crate::resources::ResourceKind::ALL)
/// order.
#[derive(Debug, Clone, Copy)]
struct Fit {
    /// Maximum of `free + deflatable`.
    headroom: [f64; 4],
    /// Maximum, for each of [`RATIOS`], of `min(h_cpu + 1e-9, (h_mem +
    /// 1e-9) / ratio)` over the servers' headrooms `h`. Per-dimension
    /// maxima may come from different servers; this couples CPU and
    /// memory, so a subtree is pruned too when its CPU-rich servers lack
    /// the memory and its memory-rich servers lack the CPU.
    coupled: [f64; 4],
}

/// What the projection bound reads at a node: the component-wise maximum
/// of the servers' projection scoring rows.
#[derive(Debug, Clone, Copy)]
struct Row([f64; 4]);

/// Padding leaves: NaN fails every feasibility test, and `f64::max`
/// ignores it when a real server shares the node.
const PAD: [f64; 4] = [f64::NAN; 4];

fn max4(a: &[f64; 4], b: &[f64; 4]) -> [f64; 4] {
    std::array::from_fn(|k| a[k].max(b[k]))
}

/// Bit-for-bit equality (NaN padding and signed zeros included).
fn same4(a: &[f64; 4], b: &[f64; 4]) -> bool {
    a.map(f64::to_bits) == b.map(f64::to_bits)
}

/// A demand as the feasibility test reads it.
struct Need {
    demand: [f64; 4],
    /// `min(d_cpu, d_mem / ratio)` for each of [`RATIOS`].
    coupled: [f64; 4],
}

impl Need {
    fn of(demand: &ResourceVector) -> Self {
        let demand = components(demand);
        Need {
            demand,
            coupled: RATIOS.map(|r| demand[CPU].min(demand[MEMORY] / r)),
        }
    }
}

impl Fit {
    const PAD: Fit = Fit {
        headroom: PAD,
        coupled: PAD,
    };

    fn of(view: &ServerView) -> Self {
        let headroom = components(&view.headroom());
        let (cpu, mem) = (headroom[CPU] + 1e-9, headroom[MEMORY] + 1e-9);
        Fit {
            headroom,
            coupled: RATIOS.map(|r| cpu.min(mem / r)),
        }
    }

    fn max(&self, other: &Self) -> Self {
        Fit {
            headroom: max4(&self.headroom, &other.headroom),
            coupled: max4(&self.coupled, &other.coupled),
        }
    }

    fn same_bits(&self, other: &Self) -> bool {
        same4(&self.headroom, &other.headroom) && same4(&self.coupled, &other.coupled)
    }

    /// Whether some server below this node may pass `fits_within`: the
    /// same per-component `d <= h + 1e-9` against the maximum headroom,
    /// and the coupled test. A server that passes `fits_within` has
    /// `d_cpu <= h_cpu + 1e-9` and `d_mem <= h_mem + 1e-9`, and rounded
    /// division and `min` are monotone, so it also passes the coupled
    /// test: at a leaf the answer is exactly `fits_within`, above one it
    /// is a necessary condition.
    #[inline]
    fn admits(&self, need: &Need) -> bool {
        (0..4).all(|k| need.demand[k] <= self.headroom[k] + 1e-9)
            && (0..4).all(|j| need.coupled[j] <= self.coupled[j])
    }
}

impl Row {
    /// `row · demand / norm`, summed in component order. Monotone in every
    /// row component for `demand >= 0`, so it bounds each leaf's score.
    #[inline]
    fn bound(&self, demand: &[f64; 4], norm: f64) -> f64 {
        let r = &self.0;
        (r[0] * demand[0] + r[1] * demand[1] + r[2] * demand[2] + r[3] * demand[3]) / norm
    }
}

/// The components of `v` in `ResourceKind::ALL` order.
fn components(v: &ResourceVector) -> [f64; 4] {
    let mut out = [0.0; 4];
    for (k, (_, c)) in v.iter().enumerate() {
        out[k] = c;
    }
    out
}

/// Whether a projection row keeps the bound exact: finite and
/// non-negative in every component, so `row · d` can never be NaN.
fn regular(row: &[f64; 4]) -> bool {
    row.iter().all(|c| c.is_finite() && *c >= 0.0)
}

/// Cached server views in server order under a per-dimension max tree.
#[derive(Debug, Clone)]
pub struct ViewTree {
    /// The views, in server order.
    views: Vec<ServerView>,
    /// Heap-ordered nodes, in two parallel arrays: the root is node 1,
    /// node `k` has children `2k` and `2k + 1`, and server `i` is the leaf
    /// `width + i`. Feasibility reads `fits`; the projection also `rows`.
    fits: Vec<Fit>,
    rows: Vec<Row>,
    /// Number of leaves: the smallest power of two `>= views.len()`.
    width: usize,
    /// Number of servers whose projection row is not [`regular`]; while
    /// non-zero, the projection falls back to the in-order walk.
    irregular: usize,
}

impl ViewTree {
    /// Build the tree over `views` (server `i` is `views[i]`).
    pub fn new(views: Vec<ServerView>) -> Self {
        let width = views.len().next_power_of_two();
        let mut fits = vec![Fit::PAD; 2 * width];
        let mut rows = vec![Row(PAD); 2 * width];
        for (i, view) in views.iter().enumerate() {
            fits[width + i] = Fit::of(view);
            rows[width + i] = row_of(view);
        }
        for k in (1..width).rev() {
            fits[k] = fits[2 * k].max(&fits[2 * k + 1]);
            rows[k] = Row(max4(&rows[2 * k].0, &rows[2 * k + 1].0));
        }
        let irregular = rows[width..width + views.len()]
            .iter()
            .filter(|r| !regular(&r.0))
            .count();
        ViewTree {
            views,
            fits,
            rows,
            width,
            irregular,
        }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether the tree holds no server.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// The views, in server order.
    pub fn views(&self) -> &[ServerView] {
        &self.views
    }

    /// Replace server `i`'s view and rewrite its leaf and ancestors. The
    /// climb stops at the first ancestor whose maxima do not change.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn set(&mut self, i: usize, view: ServerView) {
        self.views[i] = view;
        let mut k = self.width + i;
        let row = row_of(&view);
        self.irregular -= usize::from(!regular(&self.rows[k].0));
        self.irregular += usize::from(!regular(&row.0));
        self.fits[k] = Fit::of(&view);
        self.rows[k] = row;
        while k > 1 {
            k /= 2;
            let fit = self.fits[2 * k].max(&self.fits[2 * k + 1]);
            let row = max4(&self.rows[2 * k].0, &self.rows[2 * k + 1].0);
            if fit.same_bits(&self.fits[k]) && same4(&row, &self.rows[k].0) {
                break;
            }
            self.fits[k] = fit;
            self.rows[k] = Row(row);
        }
    }

    /// Owned heap bytes: the view table and the node arrays.
    pub fn accounted_bytes(&self) -> u64 {
        crate::mem::vec_capacity_bytes(&self.views)
            + crate::mem::vec_capacity_bytes(&self.fits)
            + crate::mem::vec_capacity_bytes(&self.rows)
    }

    /// Whether every leaf holds its view's maxima and every internal node
    /// the maximum of its children (an audit probe; O(n)).
    pub fn is_consistent(&self) -> bool {
        let leaves = (0..self.width).all(|i| {
            let k = self.width + i;
            let (fit, row) = self
                .views
                .get(i)
                .map_or((Fit::PAD, PAD), |v| (Fit::of(v), row_of(v).0));
            self.fits[k].same_bits(&fit) && same4(&self.rows[k].0, &row)
        });
        let inner = (1..self.width).all(|k| {
            let fit = self.fits[2 * k].max(&self.fits[2 * k + 1]);
            let row = max4(&self.rows[2 * k].0, &self.rows[2 * k + 1].0);
            self.fits[k].same_bits(&fit) && same4(&self.rows[k].0, &row)
        });
        let irregular = self.rows[self.width..self.width + self.views.len()]
            .iter()
            .filter(|r| !regular(&r.0))
            .count();
        leaves && inner && irregular == self.irregular
    }

    /// Index of the first server that passes `fits_within` for `demand`
    /// and that `eligible` accepts — exactly the server
    /// [`FirstFit`](super::FirstFit) picks from the slice.
    pub fn first_feasible(&self, demand: &ResourceVector, eligible: Eligible<'_>) -> Option<usize> {
        let mut found = None;
        self.walk_feasible(&Need::of(demand), |i| {
            if eligible(&self.views[i]) {
                found = Some(i);
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        found
    }

    /// The first argmax of `score` over the feasible, eligible servers, in
    /// server order — the tree form of the slice `pick_best`, visiting
    /// only subtrees that may hold a feasible server.
    pub fn pick_best<F>(
        &self,
        vm: &VmSpec,
        eligible: Eligible<'_>,
        mut score: F,
    ) -> Option<PlacementDecision>
    where
        F: FnMut(&ServerView) -> f64,
    {
        let demand = vm.max_allocation;
        let mut best: Option<PlacementDecision> = None;
        self.walk_feasible(&Need::of(&demand), |i| {
            let server = &self.views[i];
            if eligible(server) {
                let s = score(server);
                match &best {
                    Some(b) if b.score >= s => {}
                    _ => best = Some(decision(server, s, &demand)),
                }
            }
            ControlFlow::Continue(())
        });
        best
    }

    /// The pick of [`CosineFitness::load_balancing`] over the eligible
    /// servers: the first argmax of [`CosineFitness::projection`], found
    /// by depth-first branch-and-bound. The higher-bound child goes first
    /// (the left one on a tie). A subtree is pruned when its bound is below
    /// the best score so far, or equal to it while its leftmost server lies
    /// after the best's, since the slice scan keeps the first of equal
    /// scores. Exclusions and pools are checked only at servers that would
    /// beat the best. A zero-norm demand, a demand with a negative or
    /// non-finite component, or a server with an irregular row makes the
    /// bound unusable; the query then walks the feasible servers in order.
    pub fn best_projection(
        &self,
        vm: &VmSpec,
        eligible: Eligible<'_>,
    ) -> Option<PlacementDecision> {
        let demand = vm.max_allocation;
        let norm = demand.norm();
        let need = Need::of(&demand);
        let d = &need.demand;
        let bounded = self.irregular == 0
            && norm.is_finite()
            && norm > f64::EPSILON
            && d.iter().all(|c| c.is_finite() && *c >= 0.0);
        if !bounded {
            return self.pick_best(vm, eligible, |s| CosineFitness::projection(s, &demand));
        }
        let levels = self.width.ilog2();
        // Whether a server (a leaf node) or a subtree with score or bound
        // `b` can still beat the best so far; on a tie, only from further
        // left. The leftmost server below node `k` is `first_leaf(k)`.
        let first_leaf = |k: usize| (k << (levels - k.ilog2())) - self.width;
        let beats = |best: Option<(f64, usize)>, b: f64, k: usize| match best {
            Some((s, i)) => b > s || (b == s && first_leaf(k) < i),
            None => true,
        };
        // A leaf's row is its server's `scoring_availability`, bit for
        // bit, so this is `CosineFitness::projection` without re-deriving
        // the row.
        let leaf_score = |k: usize| {
            let [cpu, mem, disk, net] = self.rows[k].0;
            ResourceVector::new(cpu, mem, disk, net).dot(&demand) / norm
        };
        let mut best: Option<(f64, usize)> = None;
        // Settle a feasible server directly instead of stacking it.
        let settle = |best: &mut Option<(f64, usize)>, k: usize| {
            let i = k - self.width;
            let Some(server) = self.views.get(i) else {
                return;
            };
            let s = leaf_score(k);
            if beats(*best, s, k) && eligible(server) {
                *best = Some((s, i));
            }
        };
        // Pending (node, bound) pairs of internal nodes, explored last-in
        // first-out. Each expansion pops one and pushes at most two, so
        // the stack never holds more than one entry per level plus one.
        let mut stack = [(0usize, 0.0f64); usize::BITS as usize + 1];
        let mut top = 0;
        if !self.views.is_empty() && self.fits[1].admits(&need) {
            if self.width == 1 {
                settle(&mut best, 1);
            } else {
                stack[0] = (1, self.rows[1].bound(d, norm));
                top = 1;
            }
        }
        while top > 0 {
            top -= 1;
            let (k, b) = stack[top];
            if !beats(best, b, k) {
                continue;
            }
            let mut children = [None; 2];
            for (slot, c) in children.iter_mut().zip([2 * k, 2 * k + 1]) {
                if !self.fits[c].admits(&need) {
                    continue;
                }
                if c >= self.width {
                    settle(&mut best, c);
                    continue;
                }
                let b = self.rows[c].bound(d, norm);
                if beats(best, b, c) {
                    *slot = Some((c, b));
                }
            }
            // The higher bound is explored first, the left child on a
            // tie: push it last.
            let [left, right] = children;
            let (first, second) = match (left, right) {
                (Some(l), Some(r)) if r.1 > l.1 => (Some(r), Some(l)),
                (l, r) => (l.or(r), l.and(r)),
            };
            for entry in [second, first].into_iter().flatten() {
                stack[top] = entry;
                top += 1;
            }
        }
        best.map(|(score, i)| decision(&self.views[i], score, &demand))
    }

    /// Visit, in server order, every server that passes `fits_within` for
    /// the demand, skipping subtrees that cannot hold one.
    fn walk_feasible(&self, need: &Need, mut visit: impl FnMut(usize) -> ControlFlow<()>) {
        if self.views.is_empty() {
            return;
        }
        // Pending right siblings, deepest on top: at most one per level.
        let mut stack = [0usize; usize::BITS as usize];
        stack[0] = 1;
        let mut top = 1;
        while top > 0 {
            top -= 1;
            let mut k = stack[top];
            while self.fits[k].admits(need) {
                if k >= self.width {
                    let i = k - self.width;
                    if i < self.views.len() && visit(i).is_break() {
                        return;
                    }
                    break;
                }
                stack[top] = 2 * k + 1;
                top += 1;
                k *= 2;
            }
        }
    }
}

/// The projection scoring row of `view`, as a leaf stores it.
fn row_of(view: &ServerView) -> Row {
    Row(components(&CosineFitness::scoring_availability(view)))
}

/// The decision for placing `demand` on `server` with score `score`.
fn decision(server: &ServerView, score: f64, demand: &ResourceVector) -> PlacementDecision {
    PlacementDecision {
        server: server.id,
        score,
        requires_deflation: !server.fits_without_deflation(demand),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{
        BestFit, FirstFit, PartitionScheme, PartitionedPlacement, PlacementPolicy, WorstFit,
    };
    use crate::vm::{Priority, ServerId, VmClass, VmId};

    /// Numerical Recipes LCG: seeded, reproducible view tables.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0 >> 33
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn unit(&mut self) -> f64 {
            self.next() as f64 / (1u64 << 31) as f64
        }

        /// A coarse draw from `{0, 0.25, 0.5, 0.75}`: values repeat
        /// exactly, so different servers tie exactly.
        fn step(&mut self) -> f64 {
            self.below(4) as f64 * 0.25
        }
    }

    const TOTAL: ResourceVector = ResourceVector::new(48_000.0, 131_072.0, 1_000.0, 10_000.0);

    /// A random view for server `i`. One in four draws is coarse, so
    /// exact score ties are common; one in forty is irregular (negative
    /// deflatable headroom, or an infinite capacity), which turns the
    /// projection's bound off.
    fn random_view(rng: &mut Lcg, i: usize) -> ServerView {
        let coarse = rng.below(4) == 0;
        let mut draw = || if coarse { rng.step() } else { rng.unit() };
        let used = TOTAL.hadamard(&ResourceVector::new(draw(), draw(), draw(), draw()));
        let mut view = ServerView {
            id: ServerId(i as u32 * 2 + 1),
            total: TOTAL,
            used,
            deflatable: used * (0.5 * draw()),
            overcommitment: 1.0 + draw(),
            partition: match rng.below(4) {
                0 => None,
                p => Some((p - 1) as u8),
            },
        };
        match rng.below(40) {
            0 => view.deflatable = ResourceVector::cpu_mem(-1_000.0, 0.0),
            1 => view.total = ResourceVector::splat(f64::INFINITY),
            _ => {}
        }
        view
    }

    /// A random table; one server in eight copies an earlier one (under
    /// its own id), so exact ties sit at different indices.
    fn random_views(rng: &mut Lcg, n: usize) -> Vec<ServerView> {
        let mut views: Vec<ServerView> = Vec::with_capacity(n);
        for i in 0..n {
            let view = match rng.below(8) {
                0 if i > 0 => ServerView {
                    id: ServerId(i as u32 * 2 + 1),
                    ..views[rng.below(i as u64) as usize]
                },
                _ => random_view(rng, i),
            };
            views.push(view);
        }
        views
    }

    /// Ordinary demands, plus the edge cases: one resource only (so that
    /// resource decides the score), zero norm, larger than any server, a
    /// negative component, and one server's exact headroom, also raised
    /// by less than the `fits_within` slack.
    fn demands(rng: &mut Lcg, views: &[ServerView]) -> Vec<ResourceVector> {
        let mut out: Vec<ResourceVector> = (0..5)
            .map(|_| {
                ResourceVector::new(
                    16_000.0 * rng.unit(),
                    32_768.0 * rng.unit(),
                    300.0 * rng.unit(),
                    3_000.0 * rng.unit(),
                )
            })
            .collect();
        out.push(ResourceVector::new(
            8_000.0 * rng.step(),
            16_384.0 * rng.step(),
            0.0,
            0.0,
        ));
        for kind in ResourceKind::ALL {
            out.push(ResourceVector::only(kind, TOTAL[kind] * 0.3 * rng.unit()));
        }
        out.push(ResourceVector::ZERO);
        out.push(ResourceVector::splat(1e12));
        out.push(ResourceVector::new(4_000.0, -1.0, 0.0, 0.0));
        if let Some(v) = views.get(rng.below(views.len().max(1) as u64) as usize) {
            out.push(v.headroom());
            let kind = ResourceKind::ALL[rng.below(4) as usize];
            out.push(v.headroom() + ResourceVector::only(kind, 5e-10));
        }
        out
    }

    fn vm(rng: &mut Lcg, demand: ResourceVector) -> VmSpec {
        if rng.below(4) == 0 {
            VmSpec::on_demand(VmId(1), VmClass::Unknown, demand)
        } else {
            VmSpec::deflatable(VmId(1), VmClass::Interactive, demand)
                .with_priority(Priority::new(rng.unit()))
        }
    }

    fn policies() -> Vec<Box<dyn PlacementPolicy>> {
        fn inner() -> Vec<Box<dyn PlacementPolicy>> {
            vec![
                Box::new(CosineFitness::load_balancing()),
                Box::new(CosineFitness::default()),
                Box::new(FirstFit),
                Box::new(BestFit),
                Box::new(WorstFit),
            ]
        }
        let schemes = [
            PartitionScheme::None,
            PartitionScheme::ByPriority { pools: 2 },
            PartitionScheme::ByPriority { pools: 3 },
            PartitionScheme::OnDemandSplit {
                on_demand_fraction: 0.25,
            },
        ];
        let mut all = inner();
        for scheme in schemes {
            all.push(Box::new(PartitionedPlacement::new(
                scheme,
                CosineFitness::load_balancing(),
            )));
            all.push(Box::new(PartitionedPlacement::new(
                scheme,
                CosineFitness::default(),
            )));
            all.push(Box::new(PartitionedPlacement::new(scheme, FirstFit)));
            all.push(Box::new(PartitionedPlacement::new(scheme, BestFit)));
            all.push(Box::new(PartitionedPlacement::new(scheme, WorstFit)));
        }
        all
    }

    /// Tree pick == slice pick, score bits included (so NaN scores from
    /// infinite capacities compare too).
    fn assert_same(
        policy: &dyn PlacementPolicy,
        tree: &ViewTree,
        vm: &VmSpec,
        excluded: &[ServerId],
        what: &str,
    ) -> bool {
        let slice = policy.place(vm, tree.views(), excluded);
        let descended = policy.place_in_tree(vm, tree, &|s| !excluded.contains(&s.id));
        let key = |d: Option<PlacementDecision>| {
            d.map(|d| (d.server, d.requires_deflation, d.score.to_bits()))
        };
        assert_eq!(key(slice), key(descended), "{} {what}", policy.name());
        slice.is_some()
    }

    #[test]
    fn every_policy_descends_to_the_slice_pick() {
        let policies = policies();
        let mut rng = Lcg(0x7EE);
        let (mut picks, mut bounded) = (0, 0);
        for n in [0, 1, 2, 3, 17, 127, 128, 129, 1000] {
            let mut tree = ViewTree::new(random_views(&mut rng, n));
            assert!(tree.is_consistent(), "fresh tree over {n} servers");
            let rounds = if n >= 1000 { 3 } else { 8 };
            for round in 0..rounds {
                // Leaf updates between queries: fresh views, copies of
                // another server's view, and unchanged rewrites.
                for _ in 0..(n / 10).max(1).min(n) {
                    let i = rng.below(n as u64) as usize;
                    let view = match rng.below(3) {
                        0 => ServerView {
                            id: tree.views()[i].id,
                            ..tree.views()[rng.below(n as u64) as usize]
                        },
                        1 => tree.views()[i],
                        _ => random_view(&mut rng, i),
                    };
                    tree.set(i, view);
                }
                assert!(tree.is_consistent(), "{n} servers, round {round}");
                bounded += usize::from(tree.irregular == 0);
                let ids: Vec<ServerId> = tree.views().iter().map(|v| v.id).collect();
                for demand in demands(&mut rng, tree.views()) {
                    let vm = vm(&mut rng, demand);
                    let some: Vec<ServerId> =
                        ids.iter().copied().filter(|_| rng.below(3) == 0).collect();
                    for policy in &policies {
                        let what = format!("over {n} servers, round {round}, demand {demand}");
                        // The unrestricted pick, then without it (the
                        // runner-up), a random subset and everything.
                        let first = policy.place(&vm, tree.views(), &[]);
                        let runner_up: Vec<ServerId> = first.iter().map(|d| d.server).collect();
                        for excluded in [&[][..], &runner_up, &some, &ids] {
                            picks += usize::from(assert_same(
                                policy.as_ref(),
                                &tree,
                                &vm,
                                excluded,
                                &what,
                            ));
                        }
                    }
                }
            }
        }
        assert!(
            picks > 20_000,
            "the battery must exercise real picks ({picks})"
        );
        assert!(
            bounded > 20,
            "the bounded projection path must run ({bounded})"
        );
    }

    #[test]
    fn exact_ties_go_to_the_leftmost_eligible_server() {
        let view = |i: u32| ServerView {
            id: ServerId(i),
            ..ServerView::empty(ServerId(i), TOTAL)
        };
        let tree = ViewTree::new((0..129).map(view).collect());
        let vm = VmSpec::deflatable(
            VmId(1),
            VmClass::Interactive,
            ResourceVector::cpu_mem(1_000.0, 1_000.0),
        );
        let policy = CosineFitness::load_balancing();
        let excluded: Vec<ServerId> = (0..70).map(ServerId).collect();
        let pick = policy.place_in_tree(&vm, &tree, &|s| !excluded.contains(&s.id));
        assert_eq!(pick.unwrap().server, ServerId(70));
        assert_eq!(
            FirstFit
                .place_in_tree(&vm, &tree, &|_| true)
                .unwrap()
                .server,
            ServerId(0)
        );
    }

    /// The right subtree has the higher bound, so it is explored first
    /// and finds a copy of server 0's view at index 2. The left subtree's
    /// bound equals that score exactly; it must still be explored, since
    /// the slice scan keeps the first of equal scores.
    #[test]
    fn a_tie_found_later_on_the_left_still_wins() {
        let view = |i: u32, cpu: f64, mem: f64| ServerView {
            used: TOTAL - ResourceVector::cpu_mem(cpu, mem),
            ..ServerView::empty(ServerId(i), TOTAL)
        };
        let tree = ViewTree::new(vec![
            view(0, 8_000.0, 16_000.0),
            view(1, 1_000.0, 1_000.0),
            view(2, 8_000.0, 16_000.0),
            view(3, 20_000.0, 1_000.0),
        ]);
        let vm = VmSpec::deflatable(
            VmId(1),
            VmClass::Interactive,
            ResourceVector::cpu_mem(1_000.0, 1_000.0),
        );
        let policy = CosineFitness::load_balancing();
        assert_eq!(
            policy.place(&vm, tree.views(), &[]).unwrap().server,
            ServerId(0)
        );
        let pick = policy.place_in_tree(&vm, &tree, &|_| true);
        assert_eq!(pick.unwrap().server, ServerId(0));
    }

    #[test]
    fn set_rewrites_the_ancestors_a_query_reads() {
        let mut tree = ViewTree::new(
            (0..100)
                .map(|i| ServerView {
                    used: TOTAL,
                    ..ServerView::empty(ServerId(i), TOTAL)
                })
                .collect(),
        );
        let vm = VmSpec::deflatable(
            VmId(1),
            VmClass::Interactive,
            ResourceVector::cpu_mem(1_000.0, 1_000.0),
        );
        assert!(FirstFit.place_in_tree(&vm, &tree, &|_| true).is_none());
        tree.set(77, ServerView::empty(ServerId(77), TOTAL));
        tree.set(93, ServerView::empty(ServerId(93), TOTAL));
        assert!(tree.is_consistent());
        assert_eq!(
            FirstFit
                .place_in_tree(&vm, &tree, &|_| true)
                .unwrap()
                .server,
            ServerId(77)
        );
        tree.set(77, tree.views()[0]);
        assert!(tree.is_consistent());
        let pick = CosineFitness::load_balancing().place_in_tree(&vm, &tree, &|_| true);
        assert_eq!(pick.unwrap().server, ServerId(93));
    }
}

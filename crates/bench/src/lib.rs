//! # deflate-bench
//!
//! Experiment harness reproducing every figure of the paper's evaluation.
//!
//! Each `figNN` module function regenerates the data series behind the
//! corresponding figure and returns it both as structured data and as a
//! printable [`report::Table`]. The `src/bin/figNN.rs` binaries print the
//! tables (`cargo run --release -p deflate-bench --bin fig20`).
//!
//! | Module | Figures |
//! |---|---|
//! | [`apps_exp`] | 3, 14 |
//! | [`feasibility`] | 5, 6, 7, 8, 9, 10, 11, 12 |
//! | [`web`] | 16, 17, 18, 19 |
//! | [`cluster_exp`] | 20, 21, 22 |
//! | [`transient_exp`] | transient-capacity reclamation comparison + migration-bandwidth sweep + transfer-scheduler sweep |
//! | [`autoscale_exp`] | elastic autoscaling under transient capacity: launch-only vs deflation-aware (`fig_autoscale`) |
//! | [`scale_exp`] | engine-scaling sweep: events/s and peak RSS per cluster size (`fig_scale`) |
//! | [`whatif_exp`] | what-if meta-scheduler: checkpoint/fork model-predictive transfer-policy selection (`fig_whatif`) |
//! | [`profile_exp`] | engine phase profile: per-phase self time + Chrome trace (`fig_profile`) |
//! | [`memory_exp`] | per-subsystem memory accounting vs procfs RSS (`fig_memory`) |
//! | [`audit_exp`] | checkpoint-bisection divergence diagnosis (`deflate-audit`) |
//! | [`ablation`] | placement / partition / mechanism ablations |
//!
//! Beyond the paper's figures, the transient experiments charge every live
//! migration with the page-transfer cost model of `deflate-hypervisor`
//! (see [`transient_exp::default_migration_cost`]); the
//! `fig_bandwidth_sweep` binary shows how shrinking the per-server
//! migration-bandwidth budget turns the "free" migration-only baseline
//! into deadline aborts and evictions, and the `fig_scheduler` binary
//! shows the deadline-aware transfer scheduler (EDF admission control +
//! deflate-then-migrate, see [`transient_exp::scheduler_sweep_table`])
//! winning those aborts back. `docs/EXPERIMENTS.md` is the reproduction
//! guide; `docs/ARCHITECTURE.md` maps every figure to the binary that
//! reproduces it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablation;
pub mod apps_exp;
pub mod audit_exp;
pub mod autoscale_exp;
pub mod cluster_exp;
pub mod feasibility;
pub mod memory_exp;
pub mod profile_exp;
pub mod report;
pub mod scale;
pub mod scale_exp;
pub mod transient_exp;
pub mod web;
pub mod whatif_exp;

pub use report::Table;
pub use scale::Scale;

/// Print every figure's table at the given scale (used by the `all_figures`
/// binary). The engine-scaling sweep (`fig_scale`) and the what-if
/// meta-scheduler (`fig_whatif`) are deliberately not included: they
/// measure the simulator rather than reproducing a figure, and the
/// full-scale million-VM sweep rows would dominate the sequence — run
/// them on their own.
pub fn print_all(scale: Scale) {
    apps_exp::fig03().print();
    feasibility::fig05(scale).print();
    feasibility::fig06(scale).print();
    feasibility::fig07(scale).print();
    feasibility::fig08(scale).print();
    feasibility::fig09(scale).print();
    feasibility::fig10(scale).print();
    feasibility::fig11(scale).print();
    feasibility::fig12(scale).print();
    apps_exp::fig14().print();
    web::fig16(scale).print();
    web::fig17(scale).print();
    web::fig18_table(scale).print();
    web::fig19_table(scale).print();
    cluster_exp::fig20_table(scale).print();
    cluster_exp::fig21_table(scale).print();
    cluster_exp::fig22_table(scale).print();
    transient_exp::fig_transient_table(scale).print();
    transient_exp::bandwidth_sweep_table(scale).print();
    transient_exp::scheduler_sweep_table(scale).print();
    autoscale_exp::fig_autoscale_table(scale).print();
    ablation::placement_ablation(scale).print();
    ablation::partition_ablation(scale).print();
    ablation::mechanism_ablation().print();
}

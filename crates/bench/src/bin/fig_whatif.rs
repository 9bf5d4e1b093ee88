//! The what-if meta-scheduler: at each burst of capacity reclamations,
//! checkpoint the engine, fork the snapshot under every transfer policy,
//! score the full-horizon counterfactuals and commit the winner — model-
//! predictive control over the engine's own checkpoint/fork machinery.
//! Prints the decision log and the comparison against every static
//! policy; see docs/EXPERIMENTS.md.
//!
//! Exits non-zero if the meta-scheduled trajectory scores worse than the
//! static FIFO policy the loop starts from — by construction that can
//! only happen when a restored fork diverges from the run it was forked
//! off, i.e. when the checkpoint contract breaks.
use deflate_bench::whatif_exp::{score, whatif_decision_table, whatif_mpc, whatif_summary_table};
use deflate_bench::Scale;
fn main() {
    let outcome = whatif_mpc(Scale::from_env_and_args());
    whatif_decision_table(&outcome).print();
    whatif_summary_table(&outcome).print();
    let fifo_static = &outcome.statics[0];
    if score(&outcome.mpc) > score(&fifo_static.1) {
        eprintln!(
            "WHATIF FAILURE: meta-scheduler lost to its static start policy \
             ({:?} > {:?}) — fork/restore is no longer bit-faithful",
            score(&outcome.mpc),
            score(&fifo_static.1)
        );
        std::process::exit(1);
    }
}

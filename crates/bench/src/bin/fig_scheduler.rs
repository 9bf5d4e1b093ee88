//! Sweep transfer-scheduling policy × per-server bandwidth budget under
//! spot-market reclamation: FIFO vs smallest-first vs deadline-aware EDF
//! (with admission control and deflate-then-migrate), showing EDF cutting
//! migration aborts at tight budgets.
use deflate_bench::Scale;
fn main() {
    deflate_bench::transient_exp::scheduler_sweep_table(Scale::from_env_and_args()).print();
}

//! Sweep the per-server migration-bandwidth budget under spot-market
//! reclamation: deflation vs migration-only, showing how finite bandwidth
//! turns "free" migrations into deadline aborts and evictions.
use deflate_bench::Scale;
fn main() {
    deflate_bench::transient_exp::bandwidth_sweep_table(Scale::from_env_and_args()).print();
}

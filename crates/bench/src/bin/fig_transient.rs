//! Reproduce the transient-capacity comparison: deflation vs preemption vs
//! migration-only under square-wave, diurnal and spot-market reclamation.
use deflate_bench::Scale;
fn main() {
    deflate_bench::transient_exp::fig_transient_table(Scale::from_env_and_args()).print();
}

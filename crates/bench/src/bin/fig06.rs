//! Reproduce Figure 6: CPU deflation feasibility by workload class.
use deflate_bench::Scale;
fn main() {
    deflate_bench::feasibility::fig06(Scale::from_env_and_args()).print();
}

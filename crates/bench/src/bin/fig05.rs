//! Reproduce Figure 5: CPU deflation feasibility across all VMs.
use deflate_bench::Scale;
fn main() {
    deflate_bench::feasibility::fig05(Scale::from_env_and_args()).print();
}

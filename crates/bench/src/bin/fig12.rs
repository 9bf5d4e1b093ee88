//! Reproduce Figure 12: network bandwidth deflation feasibility.
use deflate_bench::Scale;
fn main() {
    deflate_bench::feasibility::fig12(Scale::from_env_and_args()).print();
}

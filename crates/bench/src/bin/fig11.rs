//! Reproduce Figure 11: disk bandwidth deflation feasibility.
use deflate_bench::Scale;
fn main() {
    deflate_bench::feasibility::fig11(Scale::from_env_and_args()).print();
}

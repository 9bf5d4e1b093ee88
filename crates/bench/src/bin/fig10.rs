//! Reproduce Figure 10: memory bandwidth usage across containers.
use deflate_bench::Scale;
fn main() {
    deflate_bench::feasibility::fig10(Scale::from_env_and_args()).print();
}

//! Regenerate every figure of the paper in one run.
//!
//! Usage: `cargo run --release -p deflate-bench --bin all_figures [quick|full]`
use deflate_bench::Scale;
fn main() {
    deflate_bench::print_all(Scale::from_env_and_args());
}

//! Reproduce Figure 7: CPU deflation feasibility by VM memory size.
use deflate_bench::Scale;
fn main() {
    deflate_bench::feasibility::fig07(Scale::from_env_and_args()).print();
}

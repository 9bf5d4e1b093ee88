//! Reproduce Figure 8: CPU deflation feasibility by 95th-percentile CPU usage.
use deflate_bench::Scale;
fn main() {
    deflate_bench::feasibility::fig08(Scale::from_env_and_args()).print();
}

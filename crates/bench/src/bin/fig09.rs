//! Reproduce Figure 9: memory usage of applications (Alibaba containers).
use deflate_bench::Scale;
fn main() {
    deflate_bench::feasibility::fig09(Scale::from_env_and_args()).print();
}

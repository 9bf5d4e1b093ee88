//! Reproduce Figure 19: deflation-aware vs vanilla load balancing.
use deflate_bench::Scale;
fn main() {
    deflate_bench::web::fig19_table(Scale::from_env_and_args()).print();
}

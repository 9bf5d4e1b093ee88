//! Reproduce Figure 16: Wikipedia response times with CPU deflation.
use deflate_bench::Scale;
fn main() {
    deflate_bench::web::fig16(Scale::from_env_and_args()).print();
}

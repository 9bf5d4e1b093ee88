//! Reproduce Figure 17: fraction of Wikipedia requests served vs deflation.
use deflate_bench::Scale;
fn main() {
    deflate_bench::web::fig17(Scale::from_env_and_args()).print();
}

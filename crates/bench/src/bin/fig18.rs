//! Reproduce Figure 18: social-network microservice response times.
use deflate_bench::Scale;
fn main() {
    deflate_bench::web::fig18_table(Scale::from_env_and_args()).print();
}

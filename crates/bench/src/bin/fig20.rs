//! Reproduce Figure 20: reclamation-failure probability vs overcommitment.
use deflate_bench::Scale;
fn main() {
    deflate_bench::cluster_exp::fig20_table(Scale::from_env_and_args()).print();
}

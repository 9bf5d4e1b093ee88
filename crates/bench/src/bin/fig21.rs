//! Reproduce Figure 21: throughput decrease of deflatable VMs vs overcommitment.
use deflate_bench::Scale;
fn main() {
    deflate_bench::cluster_exp::fig21_table(Scale::from_env_and_args()).print();
}

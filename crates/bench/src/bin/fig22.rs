//! Reproduce Figure 22: increase in cloud revenue from deflatable VMs.
use deflate_bench::Scale;
fn main() {
    deflate_bench::cluster_exp::fig22_table(Scale::from_env_and_args()).print();
}

//! Run the placement / partition / mechanism ablation studies.
use deflate_bench::Scale;
fn main() {
    let scale = Scale::from_env_and_args();
    deflate_bench::ablation::placement_ablation(scale).print();
    deflate_bench::ablation::partition_ablation(scale).print();
    deflate_bench::ablation::mechanism_ablation().print();
}

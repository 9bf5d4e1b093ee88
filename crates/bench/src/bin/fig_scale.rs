//! The engine-scaling sweep: cluster size (10k → 1M VMs) under
//! spot-market reclamation, reporting wall-clock, events/s and peak RSS;
//! see docs/PERFORMANCE.md.
use deflate_bench::scale_exp::scale_sweep_table;
use deflate_bench::Scale;
fn main() {
    scale_sweep_table(Scale::from_env_and_args()).print();
}

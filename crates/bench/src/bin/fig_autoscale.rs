//! Sweep autoscaling policy × capacity signal (diurnal harvesting,
//! spot-market revocations): deflation-aware elasticity — park deflated
//! replicas on scale-in, reinflate them instantly on scale-out — against
//! launch-only target tracking, on response latency and replicas lost.
use deflate_bench::Scale;
fn main() {
    deflate_bench::autoscale_exp::fig_autoscale_table(Scale::from_env_and_args()).print();
}

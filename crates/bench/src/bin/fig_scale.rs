//! The engine-scaling sweep: cluster size (10k → 1M VMs) under
//! spot-market reclamation, reporting wall-clock, events/s and peak RSS;
//! see docs/PERFORMANCE.md.
//!
//! Set `DEFLATE_SCALE_STATE=/path/to/file` to make the sweep
//! **resumable**: every measured size is flushed to the state file, and
//! a re-run skips sizes already recorded there — an interrupted
//! million-VM sweep picks up at the size it died in instead of starting
//! over. Delete the file to force a fresh sweep.
use deflate_bench::scale_exp::{scale_sweep, scale_sweep_resumable, table_from_rows};
use deflate_bench::Scale;
fn main() {
    let scale = Scale::from_env_and_args();
    let rows = match std::env::var("DEFLATE_SCALE_STATE") {
        Ok(path) if !path.is_empty() => scale_sweep_resumable(scale, std::path::Path::new(&path)),
        _ => scale_sweep(scale),
    };
    table_from_rows(&rows).print();
}

//! The engine-profiling run: replay the `fig_scale` spot-market
//! scenario with the `deflate-telemetry` phase profiler on and print a
//! per-phase self-time table per cluster size, the layer-by-layer cost
//! any engine change is judged against. Each run also
//! writes a Chrome `trace_event` file openable in Perfetto /
//! `chrome://tracing` (`DEFLATE_TRACE_OUT` names it, with each row's
//! size spliced in before the extension; without it the trace goes to
//! the temp directory and is deleted once validated).
//!
//! Exits non-zero when the observability acceptance contract breaks:
//! attributed phases must cover ≥ 90 % of the engine total,
//! `placement_rank` must be separately attributed, the combined
//! `placement_rank` + `placement_index` self-time share must stay below
//! the 40 % ceiling (the incremental-placement regression gate), and the
//! written trace must validate (parseable JSON array, matched begin/end
//! pairs), and the process's peak RSS (`VmHWM`) must stay under
//! `PROFILE_RSS_CEILING_MIB` (256 MiB) for quick runs and
//! `PROFILE_RSS_CEILING_FULL_MIB` (1024 MiB) for full ones (skipped
//! where procfs is absent).
//! CI runs the quick profile as a smoke step and relies on this.
use deflate_bench::profile_exp::{phase_table, profile_sweep, rss_ceiling_failure};
use deflate_bench::Scale;

fn main() {
    let scale = Scale::from_env_and_args();
    let runs = match profile_sweep(scale) {
        Ok(runs) => runs,
        Err(err) => {
            eprintln!("fig_profile: telemetry sink setup failed: {err}");
            std::process::exit(1);
        }
    };
    let mut failures: Vec<String> = Vec::new();
    for run in &runs {
        phase_table(run).print();
        if run.trace_kept {
            println!("trace: {}", run.trace_path.display());
        } else {
            println!(
                "trace: {} (validated and deleted; set DEFLATE_TRACE_OUT to keep it)",
                run.trace_path.display()
            );
        }
        failures.extend(run.failures());
    }
    failures.extend(rss_ceiling_failure(
        scale,
        deflate_telemetry::peak_rss_mib(),
    ));
    if !failures.is_empty() {
        eprintln!("PROFILE FAILURE: {}", failures.join("; "));
        std::process::exit(1);
    }
}

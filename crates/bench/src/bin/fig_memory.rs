//! The memory-accounting run: replay the `fig_scale` spot-market
//! scenario with the metrics sink on and print the `MemoryLedger`'s
//! per-subsystem byte breakdown next to the process's procfs numbers
//! (`VmRSS` live, `VmHWM` peak over the run) at each swept cluster
//! size.
//!
//! Exits non-zero when the accounting acceptance contract breaks: from
//! 100k VMs up
//! ([`COVERAGE_GATE_MIN_VMS`](deflate_bench::memory_exp::COVERAGE_GATE_MIN_VMS))
//! the accounted total must cover ≥ 70 % of the run's peak RSS
//! ([`MEMORY_COVERAGE_FLOOR`](deflate_bench::memory_exp::MEMORY_COVERAGE_FLOOR)),
//! and on every row the load-bearing subsystems (workload, vm_records,
//! servers, event_queue) must all report bytes. The 10k row prints its
//! coverage without gating it. CI runs the quick sweep as a gating step.
use deflate_bench::memory_exp::{memory_sweep, memory_table};
use deflate_bench::Scale;

fn main() {
    let scale = Scale::from_env_and_args();
    let runs = match memory_sweep(scale) {
        Ok(runs) => runs,
        Err(err) => {
            eprintln!("fig_memory: telemetry sink setup failed: {err}");
            std::process::exit(1);
        }
    };
    let mut failures: Vec<String> = Vec::new();
    for run in &runs {
        memory_table(run).print();
        failures.extend(run.failures());
    }
    if !failures.is_empty() {
        eprintln!("MEMORY FAILURE: {}", failures.join("; "));
        std::process::exit(1);
    }
}

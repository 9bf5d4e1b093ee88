//! The engine-profiling experiment (`fig_profile`): where does the
//! simulator spend its wall clock?
//!
//! Replays the `fig_scale` spot-market scenario (same workload, sizes,
//! and knobs) with the `deflate-telemetry` phase profiler enabled and
//! prints a per-phase self-time table per cluster size: each handler
//! (arrival, departure, reclaim ladder, migration completion) and each
//! layer inside it (`placement_rank`, `placement_index`, `admission`)
//! in its own row, so an engine change can be judged phase by phase.
//! A Chrome `trace_event` file (openable in Perfetto /
//! `chrome://tracing`) is written per run; `DEFLATE_TRACE_OUT` names the
//! output file, which gets the row's size spliced in before its
//! extension (`fig_profile.trace.json` → `fig_profile-10000vms.trace.json`)
//! and is kept. Without it the trace goes to the system temp directory
//! and is deleted once validated.
//!
//! The binary enforces the observability acceptance contract and exits
//! non-zero when it breaks: attributed phases must cover ≥ 90 % of the
//! engine total (the profiler's "other" bucket stays small), the
//! placement-ranking phase must be separately attributed, the combined
//! `placement_rank` + `placement_index` share must stay below
//! [`PLACEMENT_SHARE_CEILING`] (the PR 7 incremental-index gate), and
//! the written Chrome trace must validate (parseable JSON array, matched
//! begin/end pairs). The binary also holds the process's peak RSS under
//! [`PROFILE_RSS_CEILING_MIB`] (quick) or
//! [`PROFILE_RSS_CEILING_FULL_MIB`] (full): the trace streams to disk
//! and is validated by streaming it back, so neither may buffer it.

use crate::report::{secs, RuntimeTally, Table, TallyRunStats};
use crate::scale::Scale;
use crate::scale_exp::{run_scale_cell_with_telemetry, scale_workload};
use deflate_telemetry::{
    validate_chrome_trace_from, ChromeTraceStats, Phase, TelemetryReport, TelemetrySink,
    TelemetrySpec,
};
use std::path::PathBuf;

/// Fraction of the engine total the attributed phases must cover.
pub const COVERAGE_FLOOR: f64 = 0.90;

/// Ceiling on the combined self-time share of the placement phases
/// (`placement_rank` + `placement_index`) relative to the engine total —
/// the PR 7 placement-bottleneck gate. The PR 6 full-rescan engine
/// measured 54.9% at 10k VMs (75.6% at 100k); the incremental score
/// index must keep the combined share strictly below this ceiling on
/// every profiled size, and CI's `fig_profile quick` smoke step goes red
/// when it creeps back up.
pub const PLACEMENT_SHARE_CEILING: f64 = 0.40;

/// Ceiling on the quick profiling process's peak RSS (`VmHWM`), MiB.
/// The Chrome trace streams to disk and is validated in one streaming
/// pass, so a profile should cost about what the unprofiled engine does
/// (76 MiB at the 100k quick row); buffering the trace and parsing it
/// into a JSON tree peaked at 1617 MiB.
pub const PROFILE_RSS_CEILING_MIB: f64 = 256.0;

/// [`PROFILE_RSS_CEILING_MIB`] for the full sweep, whose 1M row needs
/// 720–741 MiB for the engine alone. Its capped 4M-event trace is about
/// 250 MiB of JSON, so buffering it would still cross this ceiling.
pub const PROFILE_RSS_CEILING_FULL_MIB: f64 = 1024.0;

/// The reason a process peak of `peak_mib` breaks the RSS ceiling of
/// `scale`, if it does. `None` peak (no procfs) skips the check.
pub fn rss_ceiling_failure(scale: Scale, peak_mib: Option<f64>) -> Option<String> {
    let peak = peak_mib?;
    let ceiling = match scale {
        Scale::Quick => PROFILE_RSS_CEILING_MIB,
        Scale::Full => PROFILE_RSS_CEILING_FULL_MIB,
    };
    (peak > ceiling).then(|| {
        format!(
            "peak RSS {peak:.0} MiB above the {ceiling:.0} MiB ceiling \
             (the trace sink or its validator is buffering)"
        )
    })
}

/// One profiled run of the spot-market scenario.
#[derive(Debug)]
pub struct ProfileRun {
    /// VMs in the replayed trace.
    pub vms: usize,
    /// Servers the cluster was sized to.
    pub servers: usize,
    /// Events the engine delivered.
    pub events: u64,
    /// Wall-clock duration of the run, seconds.
    pub wall_clock_secs: f64,
    /// Everything the sink collected (phase report, metrics, trace
    /// counters).
    pub report: TelemetryReport,
    /// Validation result for the written Chrome trace.
    pub trace: Result<ChromeTraceStats, String>,
    /// Where the Chrome trace was written.
    pub trace_path: PathBuf,
    /// Whether the trace is still there: kept when `DEFLATE_TRACE_OUT`
    /// named it, deleted after validation when it went to the temp
    /// directory.
    pub trace_kept: bool,
    /// The process's peak RSS (`VmHWM`) when this run and its trace
    /// validation finished, MiB (`None` without procfs). Sampled then,
    /// not when the table prints: a sweep prints every table after its
    /// last, largest row.
    pub peak_rss_mib: Option<f64>,
}

impl ProfileRun {
    /// Fraction of the engine total covered by attributed phases (`None`
    /// before any run).
    pub fn coverage(&self) -> Option<f64> {
        self.report.phases.coverage()
    }

    /// True when this run satisfies the acceptance contract: coverage at
    /// or above [`COVERAGE_FLOOR`], `placement_rank` separately
    /// attributed (non-zero count), the combined placement share strictly
    /// below [`PLACEMENT_SHARE_CEILING`], and a valid Chrome trace.
    pub fn accepted(&self) -> bool {
        self.coverage().is_some_and(|c| c >= COVERAGE_FLOOR)
            && self.placement_rank_attributed()
            && self
                .placement_share()
                .is_some_and(|s| s < PLACEMENT_SHARE_CEILING)
            && self.trace.is_ok()
    }

    /// Combined self-time share of `placement_rank` + `placement_index`
    /// relative to the engine total (`None` before any run): what
    /// fraction of the engine's wall clock goes to ranking servers for
    /// arrivals, the number the placement-share gate holds down.
    pub fn placement_share(&self) -> Option<f64> {
        let total = self.report.phases.engine_total.as_secs_f64();
        if total <= 0.0 {
            return None;
        }
        let placement: f64 = self
            .report
            .phases
            .phases
            .iter()
            .filter(|row| matches!(row.phase, Phase::PlacementRank | Phase::PlacementIndex))
            .map(|row| row.self_time.as_secs_f64())
            .sum();
        Some(placement / total)
    }

    /// True when the placement-ranking phase was entered at least once,
    /// so ranking is attributed apart from the rest of arrival handling.
    pub fn placement_rank_attributed(&self) -> bool {
        self.report
            .phases
            .phases
            .iter()
            .any(|row| row.phase == Phase::PlacementRank && row.count > 0)
    }

    /// Human-readable reasons this run fails acceptance (empty when
    /// [`accepted`](Self::accepted)).
    pub fn failures(&self) -> Vec<String> {
        let mut reasons = Vec::new();
        match self.coverage() {
            Some(c) if c >= COVERAGE_FLOOR => {}
            Some(c) => reasons.push(format!(
                "phase coverage {:.1}% below the {:.0}% floor at {} VMs",
                100.0 * c,
                100.0 * COVERAGE_FLOOR,
                self.vms
            )),
            None => reasons.push(format!("no phases profiled at {} VMs", self.vms)),
        }
        if !self.placement_rank_attributed() {
            reasons.push(format!(
                "placement_rank not separately attributed at {} VMs",
                self.vms
            ));
        }
        match self.placement_share() {
            Some(s) if s < PLACEMENT_SHARE_CEILING => {}
            Some(s) => reasons.push(format!(
                "placement share {:.1}% at or above the {:.0}% ceiling at {} VMs \
                 (placement_rank + placement_index of engine total)",
                100.0 * s,
                100.0 * PLACEMENT_SHARE_CEILING,
                self.vms
            )),
            None => {}
        }
        if let Err(err) = &self.trace {
            reasons.push(format!(
                "Chrome trace {} invalid at {} VMs: {err}",
                self.trace_path.display(),
                self.vms
            ));
        }
        reasons
    }
}

/// The `DEFLATE_TRACE_OUT` override, if set and non-empty.
fn trace_out() -> Option<String> {
    std::env::var("DEFLATE_TRACE_OUT")
        .ok()
        .filter(|p| !p.is_empty())
}

/// Where the run's Chrome trace goes: derived from `DEFLATE_TRACE_OUT`
/// if set (see [`trace_path_with`]), otherwise a per-size, pid-suffixed
/// file in the system temp directory.
pub fn trace_path_for(vms: usize) -> PathBuf {
    trace_path_with(trace_out().as_deref(), vms)
}

/// [`trace_path_for`] with the override passed in. A non-empty
/// `override_path` gets `-{vms}vms` spliced in before its extension
/// (`.trace.json` counts as one), so each row of a sweep keeps its own
/// file: `out/fig_profile.trace.json` → `out/fig_profile-10000vms.trace.json`.
pub fn trace_path_with(override_path: Option<&str>, vms: usize) -> PathBuf {
    let Some(path) = override_path.filter(|p| !p.is_empty()) else {
        return std::env::temp_dir().join(format!(
            "fig_profile_{}vms_{}.trace.json",
            vms,
            std::process::id()
        ));
    };
    let path = PathBuf::from(path);
    let name = path
        .file_name()
        .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    let split = name
        .strip_suffix(".trace.json")
        .map(str::len)
        .or_else(|| name.rfind('.').filter(|&dot| dot > 0))
        .unwrap_or(name.len());
    let (stem, ext) = name.split_at(split);
    path.with_file_name(format!("{stem}-{vms}vms{ext}"))
}

/// Profile one cluster size of the spot-market scenario.
pub fn profile_cell(scale: Scale, vms: usize) -> std::io::Result<ProfileRun> {
    let trace_kept = trace_out().is_some();
    let trace_path = trace_path_for(vms);
    let spec = TelemetrySpec::profiling().with_chrome_trace(&trace_path);
    let sink = TelemetrySink::from_spec(&spec)?;
    let workload = scale_workload(scale, vms);
    let (result, servers) = run_scale_cell_with_telemetry(&workload, scale, sink.clone());
    let report = sink.finish()?;
    let trace = match std::fs::File::open(&trace_path) {
        Ok(file) => validate_chrome_trace_from(std::io::BufReader::new(file)),
        Err(err) => Err(format!("unreadable: {err}")),
    };
    if !trace_kept {
        // About 100 MB at 100k VMs; nobody asked to keep it.
        let _ = std::fs::remove_file(&trace_path);
    }
    let peak_rss_mib = deflate_telemetry::peak_rss_mib();
    Ok(ProfileRun {
        vms,
        servers,
        events: result.runtime.events_processed,
        wall_clock_secs: result.runtime.wall_clock_secs,
        report,
        trace,
        trace_path,
        trace_kept,
        peak_rss_mib,
    })
}

/// Profile every cluster size of the scale preset's sweep.
pub fn profile_sweep(scale: Scale) -> std::io::Result<Vec<ProfileRun>> {
    scale
        .scale_sweep_vms()
        .iter()
        .map(|&vms| profile_cell(scale, vms))
        .collect()
}

/// One profiled run as the printable per-phase table: self time (child
/// spans subtracted), share of the engine total, and entry count — plus
/// the unattributed remainder (`other`) and the engine total, which the
/// phase rows and `other` sum to exactly.
pub fn phase_table(run: &ProfileRun) -> Table {
    let mut table = Table::new(
        &format!(
            "Engine phase profile: {} VMs, {} servers (coverage {})",
            run.vms,
            run.servers,
            run.coverage()
                .map_or_else(|| "n/a".to_string(), |c| format!("{:.1}%", 100.0 * c)),
        ),
        &["phase", "self time", "share", "count"],
    );
    let total = run.report.phases.engine_total.as_secs_f64();
    let share = |t: f64| {
        if total > 0.0 {
            format!("{:.1}%", 100.0 * t / total)
        } else {
            "n/a".to_string()
        }
    };
    for row in &run.report.phases.phases {
        if row.phase == Phase::EngineTotal {
            continue;
        }
        let t = row.self_time.as_secs_f64();
        table.row(&[
            row.phase.name().to_string(),
            secs(t),
            share(t),
            row.count.to_string(),
        ]);
    }
    let other = run.report.phases.other.as_secs_f64();
    table.row(&[
        "other".to_string(),
        secs(other),
        share(other),
        "-".to_string(),
    ]);
    table.row(&[
        "engine_total".to_string(),
        secs(total),
        share(total),
        "-".to_string(),
    ]);
    let mut tally = RuntimeTally::default();
    tally.add(deflate_cluster::metrics::RunStats {
        wall_clock_secs: run.wall_clock_secs,
        events_processed: run.events,
    });
    table.set_footer(tally.footer_with_rss(run.peak_rss_mib));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end on a small profiled run: the acceptance contract the
    /// binary enforces must hold, and the phase table must carry the
    /// load-bearing rows. 2 000 VMs rather than a few hundred: with the
    /// incremental index the engine's per-event work is cheap, so at
    /// tiny sizes the profiler's fixed per-span overhead dominates the
    /// "other" bucket and coverage dips below the floor the real
    /// (10k/100k) gate sizes comfortably clear.
    #[test]
    fn mini_profile_meets_the_acceptance_contract() {
        let run = profile_cell(Scale::Quick, 2_000).expect("profile run");
        assert!(run.accepted(), "acceptance failures: {:?}", run.failures());
        let share = run.placement_share().expect("engine total profiled");
        assert!(
            share < PLACEMENT_SHARE_CEILING,
            "placement share {share:.3} at/above ceiling"
        );
        assert!(share > 0.0, "placement phases attributed no time at all");
        let stats = run.trace.as_ref().expect("valid trace");
        assert!(stats.spans > 0);
        assert_eq!(stats.threads, 1, "every span is on the event-loop tid");
        let rendered = phase_table(&run).render();
        assert!(rendered.contains("placement_rank"));
        assert!(rendered.contains("event_pop"));
        assert!(rendered.contains("engine_total"));
        assert!(rendered.contains("engine:"), "runtime footer expected");
        // The footer shows the RSS stored with the run, not the
        // process's peak at print time.
        let rss = run
            .peak_rss_mib
            .map_or_else(|| "rss=n/a".to_string(), |mib| format!("rss={mib:.0} MiB"));
        assert!(rendered.contains(&rss), "{rss} expected in:\n{rendered}");
        // Tests run without `DEFLATE_TRACE_OUT` unless a caller sets it;
        // then the trace is the caller's to keep.
        assert_eq!(run.trace_kept, run.trace_path.exists());
        if trace_out().is_none() {
            assert!(
                !run.trace_kept,
                "a temp-dir trace is deleted once validated"
            );
        }
        let mut later = run;
        later.peak_rss_mib = Some(12_345.0);
        assert!(phase_table(&later).render().contains("rss=12345 MiB"));
    }

    #[test]
    fn rss_ceiling_gate() {
        let quick = Scale::Quick;
        assert_eq!(rss_ceiling_failure(quick, None), None, "no procfs: skipped");
        assert_eq!(rss_ceiling_failure(quick, Some(76.0)), None);
        assert_eq!(
            rss_ceiling_failure(quick, Some(PROFILE_RSS_CEILING_MIB)),
            None
        );
        let err = rss_ceiling_failure(quick, Some(1617.0)).expect("over the ceiling");
        assert!(err.contains("1617 MiB"), "{err}");
        // The 1M row's engine peak passes at full scale only.
        assert!(rss_ceiling_failure(quick, Some(741.0)).is_some());
        assert_eq!(rss_ceiling_failure(Scale::Full, Some(741.0)), None);
        let err = rss_ceiling_failure(Scale::Full, Some(1617.0)).expect("over the ceiling");
        assert!(err.contains("1024 MiB ceiling"), "{err}");
    }

    #[test]
    fn trace_path_env_override_shape() {
        // No env manipulation (tests run in parallel): the override is
        // passed to the pure helper instead.
        for unset in [None, Some("")] {
            let path = trace_path_with(unset, 123);
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            assert!(name.starts_with("fig_profile_123vms_"));
            assert!(name.ends_with(".trace.json"));
        }
        for (given, want) in [
            (
                "out/fig_profile.trace.json",
                "out/fig_profile-10000vms.trace.json",
            ),
            ("/tmp/engine.json", "/tmp/engine-10000vms.json"),
            ("trace", "trace-10000vms"),
            ("run.v2/.trace", "run.v2/.trace-10000vms"),
        ] {
            assert_eq!(
                trace_path_with(Some(given), 10_000),
                PathBuf::from(want),
                "{given}"
            );
        }
    }
}

//! `enginebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` it sets the workload up several times, then repeats
//! the workload's measured engine calls until `--seconds` have passed,
//! and prints the end-to-end metrics. With `--trace 1` it replays the
//! workload through the cluster manager with spans and prints the
//! per-layer metrics. Either way the last stdout line is one JSON object;
//! progress goes to stderr.

use deflate_cluster::sim::ClusterSimulation;
use deflate_core::mem::vec_bytes;
use deflate_core::policy::TransferPolicy;
use enginebench::hostref::{bracket, nominal_rate, nominal_secs, time_reference};
use enginebench::replay::{replay, Replay, MEMORY_ROWS};
use enginebench::report::{per_layer, result_json, PeakRss, CLUSTER_CALLS, END_TO_END, MIB};
use enginebench::spans::{by_name, SpanRecorder};
use enginebench::stats::{median, tail_summary};
use enginebench::workload::{
    guarded, pinned_digests, prepare, scratch_dir, Prepared, Rep, Workload, DEFAULT_SEED,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per end-to-end run (`setup_s` is their median): at least
/// `MIN_SETUPS`, and more while less than `SETUP_SECS` have passed.
const MIN_SETUPS: usize = 5;
const SETUP_SECS: f64 = 2.0;
/// Fewest measured repetitions per end-to-end run, however long they take.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Checks every measured call's digest: against the pinned digest on the
/// default seed, against the first repetition's on any other.
struct DigestGate {
    expected: Option<Vec<u64>>,
}

impl DigestGate {
    fn new(workload: Workload, seed: u64) -> Self {
        DigestGate {
            expected: (seed == DEFAULT_SEED).then(|| pinned_digests(workload).to_vec()),
        }
    }

    /// Failed calls in `rep`, logging each.
    fn failures(&mut self, rep: &Rep) -> u64 {
        let digests = Prepared::digests(rep);
        let expected = self
            .expected
            .get_or_insert_with(|| digests.iter().map(|d| d.unwrap_or(0)).collect());
        let mut failed = 0;
        for (i, (call, digest)) in rep.calls.iter().zip(&digests).enumerate() {
            match (call, digest) {
                (Err(e), _) => {
                    eprintln!("call {i} failed: {e}");
                    failed += 1;
                }
                (Ok(_), Some(d)) if *d != expected[i] => {
                    eprintln!(
                        "call {i} digest {d:#018x} != expected {:#018x}",
                        expected[i]
                    );
                    failed += 1;
                }
                _ => {}
            }
        }
        failed
    }
}

fn end_to_end(args: &Args, scratch: &Path) -> Result<String, String> {
    let mut peak = PeakRss::default();
    // Consecutive steps share the reference timing between them.
    let mut reference = time_reference();
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut prepared = None;
    while setups.len() < MIN_SETUPS || started.elapsed().as_secs_f64() < SETUP_SECS {
        drop(prepared.take());
        peak.begin();
        let p = prepare(args.workload, args.seed);
        peak.end();
        let after = time_reference();
        setups.push(nominal_secs(p.times.total(), bracket(reference, after)));
        reference = after;
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");
    eprintln!(
        "{} set-ups: median {:.4} s nominal, range {:.4}..{:.4} s",
        setups.len(),
        median(&setups),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max)
    );

    let mut gate = DigestGate::new(args.workload, args.seed);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rates = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while rates.len() < MIN_REPS || Instant::now() < deadline {
        let before = reference;
        peak.begin();
        let rep = prepared.measure(scratch);
        peak.end();
        let after = time_reference();
        reference = after;
        attempted += rep.calls.len() as u64;
        failed += gate.failures(&rep);
        let raw = rep.events() as f64 / rep.wall_s;
        let rate = nominal_rate(raw, bracket(before, after));
        eprintln!(
            "rep {}: {} events in {:.4} s, raw {:.1}/s, ref {:.4}/{:.4} s, nominal {:.1}/s",
            rates.len(),
            rep.events(),
            rep.wall_s,
            raw,
            before,
            after,
            rate
        );
        rates.push(rate);
    }
    let rss = peak
        .peak_mib()
        .ok_or("VmHWM unavailable (needs Linux procfs)")?;
    let values: BTreeMap<String, f64> = [
        ("events_per_s".to_string(), median(&rates)),
        ("setup_s".to_string(), median(&setups)),
        ("peak_rss_mib".to_string(), rss),
    ]
    .into();
    let catalogue: Vec<(String, &'static str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    result_json(failed == 0, attempted, failed, &catalogue, &values)
}

/// Replay-equivalence failures: each replayed call's manager counters
/// must equal the engine's result for the same call.
fn equivalence_failures(rep: &Rep, replayed: &Replay) -> u64 {
    let mut failed = 0;
    for (i, (call, run)) in rep.calls.iter().zip(&replayed.runs).enumerate() {
        let Ok(call) = call else { continue };
        let r = &call.result;
        let same = r.counters == run.counters
            && r.transient == run.transient
            && r.scheduler == run.scheduler
            && call.events == run.events;
        if !same {
            eprintln!(
                "replay {i} diverges from the engine:\n  engine {:?} {:?} {:?} events {}\n  replay {:?} {:?} {:?} events {}",
                r.counters, r.transient, r.scheduler, call.events,
                run.counters, run.transient, run.scheduler, run.events
            );
            failed += 1;
        }
    }
    failed + rep.calls.len().saturating_sub(replayed.runs.len()) as u64
}

/// What one traced pass measured.
struct Pass {
    values: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    spans: SpanRecorder,
}

/// One traced pass: the untraced calls, then the replay, then the
/// workload-specific extras.
fn traced_pass(prepared: &Prepared, scratch: &Path, gate: &mut DigestGate) -> Pass {
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut refs = Vec::new();

    let before = time_reference();
    let rep = prepared.measure(scratch);
    let after = time_reference();
    refs.extend([before, after]);
    let base_ref = bracket(before, after);
    let attempted = rep.calls.len() as u64;
    let mut failed = gate.failures(&rep);

    let mut rec = SpanRecorder::new();
    let before = time_reference();
    let start = Instant::now();
    let replayed = guarded(|| replay(prepared, &mut rec));
    let replay_wall = start.elapsed().as_secs_f64();
    let after = time_reference();
    refs.extend([before, after]);
    let replay_ref = bracket(before, after);
    let replayed = match replayed {
        Ok(r) => r,
        Err(e) => {
            eprintln!("replay failed: {e}");
            Replay::default()
        }
    };
    failed += equivalence_failures(&rep, &replayed);

    // Per-call spans.
    let stats = by_name(rec.spans());
    let to_nominal = |secs: f64| nominal_secs(secs, replay_ref);
    for call in CLUSTER_CALLS {
        let mut s = stats
            .get(format!("cluster.{call}").as_str())
            .cloned()
            .unwrap_or_default();
        let tail = tail_summary(&mut s.durations_us);
        v.insert(format!("cluster.{call}.calls"), s.calls as f64);
        v.insert(
            format!("cluster.{call}.self_s"),
            to_nominal(s.self_ns as f64 / 1e9),
        );
        let p50 = if tail.n == 0 {
            0.0
        } else {
            to_nominal(tail.p50)
        };
        v.insert(format!("cluster.{call}.p50_us"), p50);
        v.insert(
            format!("cluster.{call}.p99_us"),
            tail.p99.map_or(0.0, to_nominal),
        );
    }
    let queue_ns: u64 = ["transient.pop", "transient.push"]
        .iter()
        .filter_map(|n| stats.get(n))
        .map(|s| s.self_ns)
        .sum();
    let events: u64 = replayed.runs.iter().map(|r| r.events).sum();
    v.insert(
        "transient.queue_us_per_event".into(),
        to_nominal(queue_ns as f64 / 1e3 / events.max(1) as f64),
    );

    // Exact outcome counts.
    let sum = |f: fn(&enginebench::replay::ReplayRun) -> u64| -> f64 {
        replayed.runs.iter().map(f).sum::<u64>() as f64
    };
    let started = sum(|r| r.migrations_started);
    let completed = sum(|r| r.migrations_completed);
    v.insert("cluster.migrations_started".into(), started);
    v.insert("cluster.migrations_completed".into(), completed);
    v.insert(
        "cluster.migration_aborts".into(),
        sum(|r| r.migration_aborts),
    );
    v.insert("cluster.victims".into(), sum(|r| r.victims));
    v.insert(
        "cluster.migration_useful_ratio".into(),
        if started > 0.0 {
            completed / started
        } else {
            0.0
        },
    );

    // Memory rows.
    for (k, row) in MEMORY_ROWS.iter().enumerate() {
        v.insert(
            format!("mem.{row}.peak_mib"),
            replayed.memory.peak[k] as f64 / MIB,
        );
        v.insert(
            format!("mem.{row}.final_mib"),
            replayed.memory.last[k] as f64 / MIB,
        );
    }
    let records_bytes = rep
        .calls
        .iter()
        .flatten()
        .map(|c| {
            vec_bytes(&c.result.records)
                + c.result
                    .records
                    .iter()
                    .map(|r| r.accounted_bytes())
                    .sum::<u64>()
        })
        .max()
        .unwrap_or(0);
    let workload_bytes = vec_bytes(&prepared.vms)
        + prepared
            .vms
            .iter()
            .map(|vm| vm.accounted_bytes())
            .sum::<u64>();
    v.insert("mem.records_mib".into(), records_bytes as f64 / MIB);
    v.insert("mem.workload_mib".into(), workload_bytes as f64 / MIB);

    // Checkpoint layer (fork only).
    let mut restore_s = 0.0;
    if prepared.workload == Workload::Fork {
        let sim: ClusterSimulation = prepared.simulation(TransferPolicy::default());
        let before = time_reference();
        let start = Instant::now();
        let restored = guarded(|| {
            let at =
                ClusterSimulation::snapshot_time(&prepared.snapshot).map_err(|e| e.to_string())?;
            sim.resume_until(&prepared.vms, &prepared.snapshot, at)
                .map_err(|e| e.to_string())
        });
        let raw = start.elapsed().as_secs_f64();
        let after = time_reference();
        refs.extend([before, after]);
        match restored {
            Ok(bytes) if bytes == prepared.snapshot => {}
            Ok(_) => {
                eprintln!("resume_until at the snapshot time changed the snapshot");
                failed += 1;
            }
            Err(e) => {
                eprintln!("resume_until failed: {e}");
                failed += 1;
            }
        }
        restore_s = nominal_secs(raw, bracket(before, after));
    }
    v.insert("core.restore_s".into(), restore_s);
    v.insert(
        "core.snapshot_mib".into(),
        prepared.snapshot.len() as f64 / MIB,
    );

    // Telemetry layer (observed only; zero elsewhere).
    v.insert(
        "telemetry.finish_s".into(),
        nominal_secs(rep.finish_s, base_ref),
    );
    v.insert(
        "telemetry.accounted_mib".into(),
        rep.telemetry_bytes as f64 / MIB,
    );
    v.insert("telemetry.trace_mib".into(), rep.trace_bytes as f64 / MIB);

    // Diagnostics.
    let raw_rate = rep.events() as f64 / rep.wall_s;
    v.insert("host.ref_s".into(), median(&refs));
    v.insert("raw_events_per_s".into(), raw_rate);
    v.insert("trace_overhead".into(), replay_wall / rep.wall_s);
    v.insert(
        "trace_overhead_base_s".into(),
        nominal_secs(rep.wall_s, base_ref),
    );
    eprintln!(
        "pass: untraced {:.4} s, replay {:.4} s, {} spans, {} failed",
        rep.wall_s,
        replay_wall,
        rec.spans().len(),
        failed
    );
    Pass {
        values: v,
        attempted,
        failed,
        spans: rec,
    }
}

fn traced(args: &Args, scratch: &Path) -> Result<String, String> {
    let prepared = prepare(args.workload, args.seed);
    let reference = time_reference();
    let t = prepared.times;
    let mut setup: BTreeMap<String, f64> = BTreeMap::new();
    setup.insert(
        "traces.generate_s".into(),
        nominal_secs(t.generate_s, reference),
    );
    setup.insert(
        "spec.workload_s".into(),
        nominal_secs(t.workload_s, reference),
    );
    setup.insert(
        "transient.schedule_s".into(),
        nominal_secs(t.schedule_s, reference),
    );
    setup.insert(
        "core.checkpoint_s".into(),
        nominal_secs(t.checkpoint_s, reference),
    );

    let mut gate = DigestGate::new(args.workload, args.seed);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut passes: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut rec = SpanRecorder::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while passes.is_empty() || Instant::now() < deadline {
        let pass = traced_pass(&prepared, scratch, &mut gate);
        attempted += pass.attempted;
        failed += pass.failed;
        passes.push(pass.values);
        rec = pass.spans;
    }
    let spans_path = Path::new(".bench_out").join(format!("spans-{}.tsv", args.workload.name()));
    let written = std::fs::File::create(&spans_path).and_then(|file| {
        let mut out = std::io::BufWriter::new(file);
        rec.write_tsv(&mut out)?;
        std::io::Write::flush(&mut out)
    });
    match written {
        Ok(()) => eprintln!("spans of the last pass: {}", spans_path.display()),
        Err(e) => eprintln!("could not write {}: {e}", spans_path.display()),
    }

    let mut values = setup;
    for (name, _) in per_layer() {
        if values.contains_key(&name) {
            continue;
        }
        let samples: Vec<f64> = passes
            .iter()
            .filter_map(|p| p.get(&name).copied())
            .collect();
        if !samples.is_empty() {
            values.insert(name, median(&samples));
        }
    }
    result_json(failed == 0, attempted, failed, &per_layer(), &values)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("enginebench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = scratch_dir(args.workload, args.seed);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("enginebench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let outcome = if args.trace {
        traced(&args, &scratch)
    } else {
        end_to_end(&args, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("enginebench: {e}");
            ExitCode::FAILURE
        }
    }
}

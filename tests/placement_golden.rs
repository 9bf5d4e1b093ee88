//! Golden pins for the incremental placement index (PR 7).
//!
//! The cluster manager no longer rescans every server on each placement:
//! it keeps an **incremental score index** of cached [`ServerView`]s and
//! re-views only servers whose state changed since the last ranking pass,
//! and ranks by descending a per-server max tree over those views instead
//! of scanning them. Both rewrites are purely performance changes. These
//! tests pin the contract: the default engine reproduces the pre-index
//! `SimResult`s **byte for byte** on the `fig_transient` and
//! `fig_scheduler` quick configurations.
//!
//! The pinned values are FNV-1a hashes over the `Debug` rendering of every
//! deterministic `SimResult` field (per-VM records, counters, scheduler
//! stats, migration events, utilisation series, …; `Debug` for `f64` is
//! the shortest round-trip form, so the hash is bit-faithful). They were
//! captured from the PR 6 implementation — the full from-scratch rescan —
//! at quick scale. Any drift here means the index (or its tree) changed a
//! placement decision.
//!
//! The digests were re-pinned once, when per-VM records replaced their
//! allocation histories and trace copies with an online usage summary.
//! That changed the records' `Debug` form only: before the histories were
//! deleted, the summary ran beside them and matched the history formulas
//! bit for bit on every configuration here, with these digests unmoved.
//!
//! To re-pin after an *intentional* semantic change:
//! `cargo test --release --test placement_golden -- --ignored --nocapture`

use deflate_bench::transient_exp::{
    default_migration_cost, profiles, run_transient_on, run_transient_scheduled,
    transient_workload, SchedulerVariant, TransientMode, SCHEDULER_SWEEP_MBPS,
};
use deflate_bench::Scale;
use vmdeflate::transient::signal::CapacityProfile;

mod common;
use common::sim_result_digest as digest;

/// The `fig_transient` quick grid: one digest per (profile, mode).
fn transient_digests() -> Vec<(String, u64)> {
    let workload = transient_workload(Scale::Quick);
    let mut out = Vec::new();
    for profile in profiles() {
        for mode in TransientMode::ALL {
            let result = run_transient_on(&workload, Scale::Quick, mode, profile);
            out.push((
                format!("{}/{}", profile.name(), mode.name()),
                digest(&result),
            ));
        }
    }
    out
}

/// The `fig_scheduler` quick grid: one digest per (budget, mode, variant).
fn scheduler_digests() -> Vec<(String, u64)> {
    let workload = transient_workload(Scale::Quick);
    let profile = CapacityProfile::spot_market_default();
    let mut out = Vec::new();
    for budget in SCHEDULER_SWEEP_MBPS {
        for mode in [TransientMode::Deflation, TransientMode::MigrationOnly] {
            for variant in SchedulerVariant::ALL {
                if !variant.applies_to(mode) {
                    continue;
                }
                let result = run_transient_scheduled(
                    &workload,
                    Scale::Quick,
                    mode,
                    profile,
                    variant.cost(budget),
                    variant.policy(),
                );
                out.push((
                    format!("{budget:.0}/{}/{}", mode.name(), variant.name()),
                    digest(&result),
                ));
            }
        }
    }
    out
}

/// Golden digests of the full-rescan implementation on the `fig_transient`
/// quick grid (see the module docs for the one re-pin).
const TRANSIENT_GOLDEN: [(&str, u64); 9] = [
    ("square-wave/deflation", 0x5366c46388f88895),
    ("square-wave/preemption", 0xefafbecd367ab6f1),
    ("square-wave/migration-only", 0x5cd547f42bc1a1ab),
    ("diurnal/deflation", 0xc24e1ff5f4fed298),
    ("diurnal/preemption", 0x5fb9afb025a9634a),
    ("diurnal/migration-only", 0x6ef2655e74dcf6c4),
    ("spot-market/deflation", 0xdd6ce3f6029267d6),
    ("spot-market/preemption", 0x21da0b3426aa0d7a),
    ("spot-market/migration-only", 0xfa11268d0a19e0ea),
];

/// Golden digests of the full-rescan implementation on the `fig_scheduler`
/// quick grid (see the module docs for the one re-pin).
const SCHEDULER_GOLDEN: [(&str, u64); 27] = [
    ("1250/deflation/fifo", 0xdd6ce3f6029267d6),
    ("1250/deflation/fifo+dirty", 0xa70d96bd79122334),
    ("1250/deflation/smallest-first", 0x58cc75070725ce91),
    ("1250/deflation/edf", 0xcdef133859d736f6),
    ("1250/deflation/edf+deflate", 0x8b7b1f8ca3c4b505),
    ("1250/migration-only/fifo", 0xfa11268d0a19e0ea),
    ("1250/migration-only/fifo+dirty", 0xe30478f4a7a202cc),
    ("1250/migration-only/smallest-first", 0x94e7b4f5c9389835),
    ("1250/migration-only/edf", 0x351d6cb749c5fc3b),
    ("625/deflation/fifo", 0xac75786cbee9ae67),
    ("625/deflation/fifo+dirty", 0xcb6e12de65ae8466),
    ("625/deflation/smallest-first", 0xa09c4a64343aabc9),
    ("625/deflation/edf", 0x7e1f9123fdc0c83a),
    ("625/deflation/edf+deflate", 0x2d4019b918b4d6ba),
    ("625/migration-only/fifo", 0x163434f211453172),
    ("625/migration-only/fifo+dirty", 0x7ebb1416c3e49de9),
    ("625/migration-only/smallest-first", 0xcf28af62d1213bb5),
    ("625/migration-only/edf", 0xd9ebbe2ee5011c40),
    ("312/deflation/fifo", 0x0c60e96cbe050b2b),
    ("312/deflation/fifo+dirty", 0x6e0b1b9d6f745b02),
    ("312/deflation/smallest-first", 0x4974b1e57fdc9efe),
    ("312/deflation/edf", 0x076eb2fd04ed5e77),
    ("312/deflation/edf+deflate", 0xda8fcdf39ca11d7b),
    ("312/migration-only/fifo", 0xc8c15840e02ca13a),
    ("312/migration-only/fifo+dirty", 0x06983962c32ad061),
    ("312/migration-only/smallest-first", 0xb8fbe054c487e176),
    ("312/migration-only/edf", 0x4f4345e74de3e9d2),
];

fn assert_matches_golden(actual: &[(String, u64)], golden: &[(&str, u64)], what: &str) {
    assert_eq!(actual.len(), golden.len(), "{what}: row count drifted");
    for ((label, hash), (want_label, want_hash)) in actual.iter().zip(golden) {
        assert_eq!(label, want_label, "{what}: row order drifted");
        assert_eq!(
            *hash, *want_hash,
            "{what} row `{label}`: SimResult drifted from the PR 6 full-rescan golden \
             (digest 0x{hash:016x}, pinned 0x{want_hash:016x})"
        );
    }
}

/// The incremental index and its tree reproduce the full-rescan
/// `fig_transient` results byte for byte.
#[test]
fn default_engine_reproduces_pr6_fig_transient() {
    assert_matches_golden(&transient_digests(), &TRANSIENT_GOLDEN, "fig_transient");
}

/// The incremental index and its tree reproduce the full-rescan
/// `fig_scheduler` results byte for byte.
#[test]
fn default_engine_reproduces_pr6_fig_scheduler() {
    assert_eq!(default_migration_cost().reclaim_deadline_secs, 30.0);
    assert_matches_golden(&scheduler_digests(), &SCHEDULER_GOLDEN, "fig_scheduler");
}

/// Re-pinning helper: prints the two golden arrays in source form.
#[test]
#[ignore = "re-pinning helper, run with --ignored --nocapture"]
fn print_current_digests() {
    println!("const TRANSIENT_GOLDEN: [(&str, u64); 9] = [");
    for (label, hash) in transient_digests() {
        println!("    (\"{label}\", 0x{hash:016x}),");
    }
    println!("];");
    println!("const SCHEDULER_GOLDEN: [(&str, u64); 27] = [");
    for (label, hash) in scheduler_digests() {
        println!("    (\"{label}\", 0x{hash:016x}),");
    }
    println!("];");
}

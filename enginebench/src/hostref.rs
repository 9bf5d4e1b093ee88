//! The host-speed reference: a fixed kernel that never calls program code,
//! timed around every measured repetition so that timings can be scaled
//! to a nominal host.
//!
//! On a shared machine the same binary runs faster or slower from one
//! minute to the next with no change in the program. The kernel hashes and
//! sorts a working set of a few tens of MiB, the same kind of work the
//! engine does (pointer-heavy maps, comparisons, allocation), so its time
//! moves with the host the way the engine's does. A measured time `t`
//! next to a reference time `r` becomes `t · NOMINAL_REF_SECS / r`; a
//! rate `x` becomes `x · r / NOMINAL_REF_SECS`.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// What the reference kernel takes on the nominal host. A fixed constant
/// of the benchmark: changing it rescales every normalised number.
pub const NOMINAL_REF_SECS: f64 = 0.25;

/// Keys inserted into (and looked up in) the kernel's hash map, and
/// values sorted.
const KERNEL_ITEMS: usize = 1 << 20;

/// A fixed-key SipHash, so the kernel's collision pattern is identical in
/// every process (the default `RandomState` is reseeded per process).
type FixedState = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state ^ (*state >> 29)
}

/// The reference work: 2^20 hash-map inserts and lookups, then a sort of
/// 2^20 `u64`s. Returns a checksum so the work cannot be optimised away.
pub fn reference_kernel() -> u64 {
    let mut state = 0x5EED_u64;
    let mut map: HashMap<u64, u64, FixedState> =
        HashMap::with_capacity_and_hasher(KERNEL_ITEMS, FixedState::default());
    for i in 0..KERNEL_ITEMS as u64 {
        map.insert(lcg(&mut state), i);
    }
    let mut probe = 0x5EED_u64;
    let mut checksum = 0u64;
    for _ in 0..KERNEL_ITEMS {
        if let Some(v) = map.get(&lcg(&mut probe)) {
            checksum = checksum.wrapping_add(*v);
        }
    }
    drop(black_box(map));
    let mut values: Vec<u64> = (0..KERNEL_ITEMS).map(|_| lcg(&mut state)).collect();
    values.sort_unstable();
    checksum ^ black_box(values)[KERNEL_ITEMS / 2]
}

/// Wall-clock seconds one [`reference_kernel`] call takes right now.
pub fn time_reference() -> f64 {
    let start = Instant::now();
    black_box(reference_kernel());
    start.elapsed().as_secs_f64()
}

/// The reference time for a repetition bracketed by two kernel timings.
pub fn bracket(before_secs: f64, after_secs: f64) -> f64 {
    0.5 * (before_secs + after_secs)
}

/// A rate measured next to reference time `ref_secs`, scaled to the
/// nominal host.
pub fn nominal_rate(raw_rate: f64, ref_secs: f64) -> f64 {
    raw_rate * ref_secs / NOMINAL_REF_SECS
}

/// A duration measured next to reference time `ref_secs`, scaled to the
/// nominal host.
pub fn nominal_secs(raw_secs: f64, ref_secs: f64) -> f64 {
    raw_secs * NOMINAL_REF_SECS / ref_secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(reference_kernel(), reference_kernel());
    }

    #[test]
    fn nominal_host_is_the_identity() {
        assert_eq!(nominal_rate(1000.0, NOMINAL_REF_SECS), 1000.0);
        assert_eq!(nominal_secs(2.0, NOMINAL_REF_SECS), 2.0);
    }

    #[test]
    fn host_slowdown_cancels_out() {
        // A host twice as slow halves the raw rate and doubles both the
        // raw duration and the reference time: the nominal figures agree.
        let (rate, secs, reference) = (40_000.0, 1.5, 0.3);
        assert!(
            (nominal_rate(rate / 2.0, reference * 2.0) - nominal_rate(rate, reference)).abs()
                < 1e-9
        );
        assert!(
            (nominal_secs(secs * 2.0, reference * 2.0) - nominal_secs(secs, reference)).abs()
                < 1e-12
        );
        // A slower-than-nominal host reports a higher nominal rate than raw.
        assert!(nominal_rate(rate, 2.0 * NOMINAL_REF_SECS) > rate);
    }

    #[test]
    fn bracket_is_the_mean_of_both_timings() {
        assert!((bracket(0.2, 0.4) - 0.3).abs() < 1e-12);
        assert_eq!(bracket(0.25, 0.25), 0.25);
    }
}

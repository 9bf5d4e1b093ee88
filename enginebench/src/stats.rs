//! Order statistics for the benchmark's reports.

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported: fewer than this and the "p99" is really the maximum of a
/// handful of values.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Nearest-rank percentile `q` (0 < q ≤ 1) of an ascending slice: the
/// smallest value with at least `q · n` samples at or below it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank_index(sorted.len(), q)]
}

fn nearest_rank_index(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - nearest_rank_index(n, q)
    }
}

/// A latency sample summarised by its median and its 99th percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailSummary {
    /// Sample count.
    pub n: usize,
    /// Median (`NaN` when `n == 0`).
    pub p50: f64,
    /// 99th percentile, present only when at least
    /// [`MIN_TAIL_SAMPLES`] samples lie beyond it (`n ≥ 1000`).
    pub p99: Option<f64>,
}

/// Summarise a sample; sorts it in place.
pub fn tail_summary(samples: &mut [f64]) -> TailSummary {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n == 0 {
        return TailSummary {
            n,
            p50: f64::NAN,
            p99: None,
        };
    }
    TailSummary {
        n,
        p50: median(samples),
        p99: (samples_beyond(n, 0.99) >= MIN_TAIL_SAMPLES).then(|| nearest_rank(samples, 0.99)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_matches_definition() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 0.5), 50.0);
        assert_eq!(nearest_rank(&sorted, 0.99), 99.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(0, 0.99), 0);

        let mut short: Vec<f64> = (0..999).map(f64::from).collect();
        let summary = tail_summary(&mut short);
        assert_eq!(summary.n, 999);
        assert_eq!(summary.p99, None);
        assert_eq!(summary.p50, 499.0);

        let mut long: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let summary = tail_summary(&mut long);
        assert_eq!(summary.n, 1000);
        // 10 samples (990..=999) lie beyond the reported value.
        assert_eq!(summary.p99, Some(989.0));
        assert_eq!(long.iter().filter(|&&v| v > 989.0).count(), 10);
    }

    #[test]
    fn empty_summary_states_zero_samples() {
        let summary = tail_summary(&mut []);
        assert_eq!(summary.n, 0);
        assert!(summary.p50.is_nan());
        assert_eq!(summary.p99, None);
    }
}

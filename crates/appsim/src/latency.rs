//! Response-time statistics collection.
//!
//! The web-application experiments report latency distributions: Figure 16 is
//! a violin plot of Wikipedia response times, Figure 18 reports median / 90th
//! / 99th percentiles for the social-network application, Figure 19 reports
//! mean and 90th percentile under different load balancers, and Figure 17
//! reports the fraction of requests served before the timeout.
//! [`LatencyStats`] accumulates per-request outcomes and produces those
//! summary numbers.

use deflate_core::checkpoint::{ByteReader, ByteWriter, CheckpointResult};
use serde::{Deserialize, Serialize};

/// Outcome of one simulated request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RequestOutcome {
    /// The request completed with the given response time in seconds.
    Served {
        /// Response time (seconds).
        response_time: f64,
    },
    /// The request exceeded its timeout (or never completed before the end
    /// of the experiment) and is counted as dropped.
    Dropped,
}

/// Accumulator for request outcomes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    response_times: Vec<f64>,
    dropped: usize,
}

impl LatencyStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one outcome.
    pub fn record(&mut self, outcome: RequestOutcome) {
        match outcome {
            RequestOutcome::Served { response_time } => {
                self.response_times.push(response_time.max(0.0));
            }
            RequestOutcome::Dropped => self.dropped += 1,
        }
    }

    /// Record a served request directly.
    pub fn record_served(&mut self, response_time: f64) {
        self.record(RequestOutcome::Served { response_time });
    }

    /// Record a dropped request directly.
    pub fn record_dropped(&mut self) {
        self.record(RequestOutcome::Dropped);
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.response_times.extend_from_slice(&other.response_times);
        self.dropped += other.dropped;
    }

    /// Number of served requests.
    pub fn served(&self) -> usize {
        self.response_times.len()
    }

    /// Number of dropped requests.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Total requests observed.
    pub fn total(&self) -> usize {
        self.served() + self.dropped()
    }

    /// Fraction of requests served (Figure 17's metric). Returns 1.0 when no
    /// requests were observed.
    pub fn served_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            1.0
        } else {
            self.served() as f64 / total as f64
        }
    }

    /// Mean response time of served requests (0 when none were served).
    pub fn mean(&self) -> f64 {
        if self.response_times.is_empty() {
            0.0
        } else {
            self.response_times.iter().sum::<f64>() / self.response_times.len() as f64
        }
    }

    /// The `p`-th percentile response time of served requests.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.response_times.is_empty() {
            return 0.0;
        }
        let mut sorted = self.response_times.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let p = p.clamp(0.0, 100.0) / 100.0;
        let rank = p * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = rank - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    /// Median response time.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 90th-percentile response time.
    pub fn p90(&self) -> f64 {
        self.percentile(90.0)
    }

    /// 99th-percentile response time.
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// All served response times (for violin-style distribution output).
    pub fn response_times(&self) -> &[f64] {
        &self.response_times
    }

    /// Owned heap bytes behind the accumulator: the response-time sample
    /// buffer's capacity. Feeds the engine's per-subsystem memory ledger.
    pub fn accounted_bytes(&self) -> u64 {
        deflate_core::mem::vec_capacity_bytes(&self.response_times)
    }

    /// Serialize the accumulator for an engine checkpoint: every served
    /// response time (in arrival order — the order drives nothing, but
    /// keeping it makes the restored accumulator bit-identical) plus the
    /// dropped count.
    pub fn write_snapshot(&self, w: &mut ByteWriter) {
        w.put_f64_slice(&self.response_times);
        w.put_usize(self.dropped);
    }

    /// Rebuild an accumulator from [`write_snapshot`](Self::write_snapshot)
    /// bytes.
    pub fn read_snapshot(r: &mut ByteReader<'_>) -> CheckpointResult<Self> {
        Ok(LatencyStats {
            response_times: r.field("response_times").get_f64_vec()?,
            dropped: r.field("dropped").get_usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = LatencyStats::new();
        assert_eq!(s.total(), 0);
        assert_eq!(s.served_fraction(), 1.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.p99(), 0.0);
    }

    #[test]
    fn records_and_summarises() {
        let mut s = LatencyStats::new();
        for rt in [0.1, 0.2, 0.3, 0.4, 1.0] {
            s.record_served(rt);
        }
        s.record_dropped();
        assert_eq!(s.served(), 5);
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.total(), 6);
        assert!((s.served_fraction() - 5.0 / 6.0).abs() < 1e-12);
        assert!((s.mean() - 0.4).abs() < 1e-12);
        assert!((s.median() - 0.3).abs() < 1e-12);
        assert!(s.p90() > s.median());
        assert!(s.p99() <= 1.0 + 1e-12);
    }

    #[test]
    fn negative_response_times_clamped() {
        let mut s = LatencyStats::new();
        s.record_served(-3.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyStats::new();
        a.record_served(0.5);
        let mut b = LatencyStats::new();
        b.record_served(1.5);
        b.record_dropped();
        a.merge(&b);
        assert_eq!(a.served(), 2);
        assert_eq!(a.dropped(), 1);
        assert!((a.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_sample() {
        let mut s = LatencyStats::new();
        s.record_served(0.7);
        assert_eq!(s.percentile(10.0), 0.7);
        assert_eq!(s.percentile(99.0), 0.7);
    }
}

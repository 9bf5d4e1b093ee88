//! Accounting for one simulation run's autoscaling activity.

use deflate_appsim::latency::LatencyStats;
use serde::{Deserialize, Serialize};

/// Latency cap applied to the per-tick response-time model, seconds: an
/// overloaded (or pathologically deflated) pool reports this instead of an
/// unbounded value, which keeps percentile summaries meaningful.
pub const LATENCY_CAP_SECS: f64 = 60.0;

/// What the autoscaler did — and how well the application fared — over one
/// simulation run. Every field is deterministic and joins `SimResult`'s
/// bit-identity contract (a resumed or observed run must reproduce it
/// exactly).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleStats {
    /// Scale-out decisions scheduled (one `ScaleOut` event each).
    pub scale_out_actions: usize,
    /// Scale-in decisions scheduled (one `ScaleIn` event each).
    pub scale_in_actions: usize,
    /// New replica VMs launched (each pays the boot time before serving).
    pub launches: usize,
    /// Launch attempts the cluster rejected — no server could make room
    /// (typically mid-reclamation). The capacity deficit persists until
    /// the next decision.
    pub launch_failures: usize,
    /// Scale-outs served by *reinflating* a parked replica instead of
    /// launching a new VM — the deflation-aware policy's signature move,
    /// instantaneous where a launch pays the boot time.
    pub reinflations: usize,
    /// Scale-ins served by *parking* (deflating) a replica instead of
    /// terminating it.
    pub parks: usize,
    /// Replicas terminated by launch-only scale-ins.
    pub retirements: usize,
    /// Replicas destroyed by capacity reclamations (evicted or lost
    /// mid-migration) — the elastic population's share of "VMs lost".
    pub replicas_lost: usize,
    /// Utilisation ticks the autoscaler evaluated (per application).
    pub ticks: usize,
    /// Ticks at which the pool was overloaded (utilisation ≥ 1): demand
    /// exceeded the pool's effective service capacity and requests
    /// queued without bound. Each also records a dropped sample in
    /// [`latency`](Self::latency).
    pub overload_ticks: usize,
    /// Sum over ticks of `|utilisation − setpoint|`; divide by
    /// [`ticks`](Self::ticks) for the mean tracking error.
    pub setpoint_error_sum: f64,
    /// Per-tick response-time samples of the application (processor-
    /// sharing model, capped at [`LATENCY_CAP_SECS`]); overload ticks are
    /// recorded as dropped, so `served_fraction` doubles as an SLO metric.
    pub latency: LatencyStats,
    /// Replicas serving (or booting) when the run ended.
    pub final_active: usize,
    /// Replicas parked (deflated, instantly reinflatable) when the run
    /// ended.
    pub final_parked: usize,
}

impl AutoscaleStats {
    /// Mean absolute distance between the observed utilisation and the
    /// setpoint, over all evaluated ticks (0 when autoscaling never ran).
    pub fn mean_setpoint_error(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.setpoint_error_sum / self.ticks as f64
        }
    }

    /// Mean per-tick response time of non-overloaded ticks, seconds.
    pub fn mean_latency_secs(&self) -> f64 {
        self.latency.mean()
    }

    /// 99th-percentile per-tick response time, seconds.
    pub fn p99_latency_secs(&self) -> f64 {
        self.latency.p99()
    }

    /// Fraction of ticks at which the pool met demand (was not
    /// overloaded) — the run's service-level indicator.
    pub fn slo_fraction(&self) -> f64 {
        self.latency.served_fraction()
    }

    /// Total scaling actions of either direction.
    pub fn scale_actions(&self) -> usize {
        self.scale_out_actions + self.scale_in_actions
    }

    /// Replica-conservation check: every replica ever launched is either
    /// still in the pool (active or parked), was retired by a scale-in, or
    /// was lost to a reclamation. The autoscaler cannot create or destroy
    /// capacity any other way.
    pub fn replicas_conserved(&self) -> bool {
        self.launches
            == self.retirements + self.replicas_lost + self.final_active + self.final_parked
    }

    /// Publish the run's autoscaling accounting into the telemetry
    /// metrics registry (no-op when the metrics sink is off). Called once
    /// at the end of a run with the final stats.
    pub fn publish_metrics(&self, telemetry: &deflate_telemetry::TelemetrySink) {
        if !telemetry.enabled() {
            return;
        }
        telemetry.count("autoscale.scale_out_actions", self.scale_out_actions as u64);
        telemetry.count("autoscale.scale_in_actions", self.scale_in_actions as u64);
        telemetry.count("autoscale.launches", self.launches as u64);
        telemetry.count("autoscale.launch_failures", self.launch_failures as u64);
        telemetry.count("autoscale.reinflations", self.reinflations as u64);
        telemetry.count("autoscale.parks", self.parks as u64);
        telemetry.count("autoscale.retirements", self.retirements as u64);
        telemetry.count("autoscale.replicas_lost", self.replicas_lost as u64);
        telemetry.count("autoscale.ticks", self.ticks as u64);
        telemetry.count("autoscale.overload_ticks", self.overload_ticks as u64);
        telemetry.gauge_set("autoscale.mean_setpoint_error", self.mean_setpoint_error());
        telemetry.gauge_set("autoscale.p99_latency_secs", self.p99_latency_secs());
        // The full latency distribution, not just the summary gauges:
        // samples land in the registry's default duration buckets.
        for &secs in self.latency.response_times() {
            telemetry.observe("autoscale.latency_secs", secs);
        }
        telemetry.gauge_set("autoscale.slo_fraction", self.slo_fraction());
        telemetry.gauge_set("autoscale.final_active", self.final_active as f64);
        telemetry.gauge_set("autoscale.final_parked", self.final_parked as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_neutral() {
        let s = AutoscaleStats::default();
        assert_eq!(s.mean_setpoint_error(), 0.0);
        assert_eq!(s.mean_latency_secs(), 0.0);
        assert_eq!(s.slo_fraction(), 1.0);
        assert_eq!(s.scale_actions(), 0);
        assert!(s.replicas_conserved());
    }

    #[test]
    fn conservation_balances_the_ledger() {
        let mut s = AutoscaleStats {
            launches: 10,
            retirements: 3,
            replicas_lost: 2,
            final_active: 4,
            final_parked: 1,
            ..Default::default()
        };
        assert!(s.replicas_conserved());
        s.final_parked = 0;
        assert!(!s.replicas_conserved());
    }

    #[test]
    fn publish_lands_in_the_registry() {
        use deflate_telemetry::{TelemetrySink, TelemetrySpec};
        let mut stats = AutoscaleStats {
            launches: 5,
            parks: 2,
            ticks: 8,
            ..Default::default()
        };
        stats.latency.record_served(0.2);
        stats.latency.record_served(0.9);
        let sink = TelemetrySink::in_memory(&TelemetrySpec::profiling());
        stats.publish_metrics(&sink);
        let snap = sink.report().metrics;
        assert_eq!(snap.counter("autoscale.launches"), 5);
        assert_eq!(snap.counter("autoscale.parks"), 2);
        assert_eq!(snap.gauge("autoscale.slo_fraction"), Some(1.0));
        let hist = snap
            .histogram("autoscale.latency_secs")
            .expect("latency histogram published");
        assert_eq!(hist.count, 2);
        assert!((hist.sum - 1.1).abs() < 1e-9);
        // disabled sink: publish is a no-op, not a panic
        stats.publish_metrics(&TelemetrySink::disabled());
    }

    #[test]
    fn setpoint_error_is_averaged_over_ticks() {
        let s = AutoscaleStats {
            ticks: 4,
            setpoint_error_sum: 1.0,
            ..Default::default()
        };
        assert!((s.mean_setpoint_error() - 0.25).abs() < 1e-12);
    }
}

//! The "degraded but not failed" scenario the paper's emulation could
//! not express (§5.1 models DDoS as memoryless random drop; real floods
//! congest: loss arrives in bursts, latency inflates, and the victim's
//! queue eats service capacity).
//!
//! This module composes the richer fault vocabulary of `dike-faults`
//! into one runnable experiment: both `cachetest.nl` authoritatives
//! suffer bursty Gilbert–Elliott loss with latency inflation *and* a
//! flood consuming most of their ingress service capacity, over the same
//! minutes 60–120 window as Table 4. Clients keep getting answers —
//! late, and only after retries — which is precisely the regime the
//! paper distinguishes from outright failure.

use dike_faults::{Fault, FaultPlan, Waveform};
use dike_netsim::{QueueConfig, SimDuration};

use crate::report::Report;
use crate::setup::ExperimentSetup;
use crate::topology;

/// Fraction of each victim's service capacity the flood consumes.
pub const FLOOD_LOAD: f64 = 0.9;

/// Knobs for the degraded scenario. Defaults mirror Experiment H's
/// shape (TTL 1800, window 60–120 of a 180-minute run) with the loss
/// made bursty and the flood made a queue load instead of a drop rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedParams {
    /// Zone TTL, seconds.
    pub ttl: u32,
    /// Degradation start, minutes after experiment start.
    pub start_min: u64,
    /// Degradation duration, minutes.
    pub duration_min: u64,
    /// Total experiment duration, minutes.
    pub total_min: u64,
    /// Long-run loss fraction at the victims during the window.
    pub mean_loss: f64,
    /// Mean loss-burst length in packets (1 ≈ memoryless, larger =
    /// burstier; real congestion sits well above 1).
    pub mean_burst: f64,
    /// Latency multiplier on paths into the victims during the window.
    pub latency_factor: f64,
    /// The ingress queue installed at each victim.
    pub queue: QueueConfig,
}

impl Default for DegradedParams {
    fn default() -> Self {
        DegradedParams {
            ttl: 1800,
            start_min: 60,
            duration_min: 60,
            total_min: 180,
            mean_loss: 0.75,
            mean_burst: 20.0,
            latency_factor: 4.0,
            queue: QueueConfig {
                rate_pps: 2_000.0,
                capacity: 2_000,
            },
        }
    }
}

impl DegradedParams {
    /// The scenario as a [`FaultPlan`]: per victim, one bursty link
    /// degrade plus one square-wave flood over the same window.
    pub fn plan(&self) -> FaultPlan {
        let start = SimDuration::from_mins(self.start_min).after_zero();
        let duration = SimDuration::from_mins(self.duration_min);
        let mut plan = FaultPlan::new();
        for ns in topology::ns_addrs() {
            plan.push(
                Fault::link_degrade(ns, start, duration, self.mean_loss, self.mean_burst)
                    .with_latency_factor(self.latency_factor),
            );
            plan.push(
                Fault::flood(ns, start, duration, FLOOD_LOAD, self.queue)
                    .with_shape(Waveform::Square),
            );
        }
        plan
    }
}

/// Runs the degraded scenario. `scale` scales the probe count exactly as
/// the Table 4 runners do (1.0 ≈ 9.2k probes). The window is
/// `[params.start_min, params.start_min + params.duration_min)`; read its
/// OK share with [`Report::ok_fraction_between`].
pub fn run_degraded(params: DegradedParams, scale: f64, seed: u64) -> Report {
    let mut setup = ExperimentSetup::table4_paced(scale, params.ttl, params.total_min, seed);
    setup.faults = Some(params.plan());
    Report::run(&setup)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DegradedParams {
        DegradedParams {
            total_min: 120,
            start_min: 40,
            duration_min: 40,
            ..DegradedParams::default()
        }
    }

    #[test]
    fn plan_is_valid() {
        let plan = small().plan();
        assert_eq!(plan.len(), 4, "degrade + flood per victim");
        plan.validate().expect("valid plan");
    }

    #[test]
    fn degraded_run_degrades_but_does_not_fail() {
        let r = run_degraded(small(), 0.006, 11);
        let before = r.ok_fraction_between(10, 40).expect("pre-window rounds");
        let during = r.ok_fraction_between(40, 80).expect("in-window rounds");
        assert!(before > 0.9, "healthy before: {before}");
        assert!(
            during < before,
            "bursty loss + flood must hurt: {during} vs {before}"
        );
        assert!(
            during > 0.05,
            "degraded is not failed — some queries still land: {during}"
        );
    }

    #[test]
    fn degraded_run_is_deterministic_and_audit_clean() {
        let run = || {
            let params = small();
            let n_probes = 40;
            let mut setup = ExperimentSetup::new(n_probes, params.ttl);
            setup.seed = 17;
            setup.rounds = (params.total_min / 10) as u32;
            setup.round_interval = SimDuration::from_mins(10);
            setup.total_duration = SimDuration::from_mins(params.total_min);
            setup.faults = Some(params.plan());
            setup.audit = true;
            crate::setup::run_experiment(&setup)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.log.records.len(), b.log.records.len());
        assert_eq!(a.log.ok_count(), b.log.ok_count());
        assert_eq!(a.server.total_queries, b.server.total_queries);
    }
}

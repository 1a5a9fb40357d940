//! One run, one record: [`Report`] pairs an [`ExperimentOutput`] with the
//! series every table and figure reads off it, and carries the paper's
//! headline attack metrics — per-query OK share over the attack window
//! (§5.4, Table 4) and the offered-load ratio at the authoritatives
//! (Fig. 10) — so every runner and comparison row computes them the same
//! way.

use crate::setup::{run_experiment, AttackPlan, ExperimentOutput, ExperimentSetup};
use dike_netsim::SimDuration;
use dike_stats::classify::{Classification, Classifier};
use dike_stats::latency::{latency_timeseries, LatencyBin};
use dike_stats::timeseries::{ok_fraction_in, outcome_timeseries, OutcomeBin};

/// Everything a run produced, with convenience accessors for the paper's
/// headline metrics.
#[derive(Debug)]
pub struct Report {
    /// Raw experiment output (client log, server view, population).
    pub output: ExperimentOutput,
    /// Fig. 6/8/14: OK / SERVFAIL / no-answer per 10-minute round.
    pub outcomes: Vec<OutcomeBin>,
    /// Fig. 9/15: latency quantiles per round.
    pub latencies: Vec<LatencyBin>,
    /// The §3.4 answer classification (Fig. 7's AA/CC/CA classes come
    /// from binning it with `dike_stats::timeseries::class_timeseries`).
    pub classification: Classification,
    attack: Option<AttackPlan>,
}

impl Report {
    /// Runs `setup` and derives the per-round series from its log.
    pub fn run(setup: &ExperimentSetup) -> Report {
        let output = run_experiment(setup);
        let round = SimDuration::from_mins(10);
        Report {
            outcomes: outcome_timeseries(&output.log, round),
            latencies: latency_timeseries(&output.log, round),
            classification: Classifier::default().classify(&output.log),
            output,
            attack: setup.attack,
        }
    }

    /// Fraction of queries answered OK over the whole run.
    pub fn ok_fraction(&self) -> f64 {
        let total = self.output.log.records.len();
        if total == 0 {
            return 0.0;
        }
        self.output.log.ok_count() as f64 / total as f64
    }

    /// Per-query OK fraction over the rounds starting in
    /// `[from_min, to_min)` — for runs whose window is a fault plan
    /// rather than an [`AttackPlan`]. `None` when the window holds no
    /// traffic.
    pub fn ok_fraction_between(&self, from_min: u64, to_min: u64) -> Option<f64> {
        ok_fraction_in(&self.outcomes, from_min, to_min)
    }

    /// Per-query OK fraction inside the attack window (the whole run
    /// when there was no attack), matching the paper's per-query Tables.
    /// `None` when no round with traffic overlaps the window — an attack
    /// scheduled past the end of the run, or a run that produced no
    /// queries at all.
    pub fn ok_fraction_during_attack(&self) -> Option<f64> {
        match self.attack {
            Some(a) => {
                self.ok_fraction_between(a.start_min, a.start_min.saturating_add(a.duration_min))
            }
            None => self.ok_fraction_between(0, u64::MAX),
        }
    }

    /// The §3.4 cache-miss rate.
    pub fn miss_rate(&self) -> f64 {
        self.classification.summary.miss_rate()
    }

    /// Offered-load multiplier at the authoritatives during the attack:
    /// mean queries per round inside the window over the mean before it
    /// (Fig. 10's headline 3.5×/8.2× factors). `Some(1.0)` without an
    /// attack. `None` when there is no usable baseline: an attack
    /// starting in the first round (nothing before it but the cold-start
    /// bin, which is excluded) or a run with no pre-attack traffic.
    pub fn traffic_multiplier(&self) -> Option<f64> {
        let Some(a) = self.attack else {
            return Some(1.0);
        };
        let start = (a.start_min / 10) as usize;
        let end = ((a.start_min.saturating_add(a.duration_min)) / 10) as usize;
        let bins = self.output.server.bins();
        let mean = |lo: usize, hi: usize| {
            let v: Vec<usize> = bins
                .iter()
                .enumerate()
                .filter(|(i, _)| *i >= lo && *i < hi)
                .map(|(_, b)| b.total())
                .collect();
            if v.is_empty() {
                None
            } else {
                Some(v.iter().sum::<usize>() as f64 / v.len() as f64)
            }
        };
        // Skip the cold-start bin: every cache is empty in round 0, so its
        // load is not a representative baseline.
        let before = mean(1, start)?;
        if before == 0.0 {
            return None;
        }
        Some(mean(start, end).unwrap_or(0.0) / before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::AttackScope;
    use dike_netsim::Addr;

    /// A report over hand-made outcome bins: a dense round (100 queries,
    /// half OK) and a sparse partial round (2 queries, both OK). The
    /// unweighted mean of per-round fractions says 75%; per-query
    /// weighting says 52/102.
    fn dense_and_sparse(attack: Option<AttackPlan>) -> Report {
        let log = dike_stub::ProbeLog::default();
        let classification = Classifier::default().classify(&log);
        Report {
            output: ExperimentOutput {
                log,
                server: dike_stats::server_view::ServerView::new(
                    [Addr(1), Addr(2)],
                    SimDuration::from_mins(10),
                ),
                vps: Vec::new(),
                google_backends: Vec::new(),
                public_r1s: Default::default(),
                n_probes: 0,
                n_vps: 0,
                metrics: None,
                perf: Default::default(),
                spoofed: None,
                late: None,
                exhaustion: None,
                nxns: None,
            },
            outcomes: vec![
                OutcomeBin {
                    start_min: 60,
                    ok: 50,
                    servfail: 25,
                    no_answer: 25,
                },
                OutcomeBin {
                    start_min: 70,
                    ok: 2,
                    servfail: 0,
                    no_answer: 0,
                },
            ],
            latencies: Vec::new(),
            classification,
            attack,
        }
    }

    #[test]
    fn ok_fraction_during_attack_weights_per_query() {
        let report = dense_and_sparse(Some(AttackPlan {
            start_min: 60,
            duration_min: 60,
            loss: 1.0,
            scope: AttackScope::BothNs,
        }));
        let got = report
            .ok_fraction_during_attack()
            .expect("window has traffic");
        assert!((got - 52.0 / 102.0).abs() < 1e-12, "weighted: {got}");
        assert!((got - 0.75).abs() > 0.2, "must not be the unweighted mean");
    }

    /// The degraded scenario's window comes from a fault plan, not an
    /// attack: the same fixture through `ok_fraction_between`.
    #[test]
    fn ok_fraction_between_weights_a_fault_window_per_query() {
        let report = dense_and_sparse(None);
        let got = report.ok_fraction_between(60, 120).expect("traffic");
        assert!((got - 52.0 / 102.0).abs() < 1e-12, "weighted: {got}");
        assert_eq!(report.ok_fraction_between(120, 180), None);
        // Without an attack the "attack window" is the whole run.
        assert_eq!(report.ok_fraction_during_attack(), Some(got));
    }

    /// A default-population run: `n_probes` probes at TTL 1800, a round
    /// every 10 minutes for `total_min` minutes.
    fn run(n_probes: usize, total_min: u64, seed: u64, attack: Option<AttackPlan>) -> Report {
        Report::run(&ExperimentSetup {
            seed,
            attack,
            ..ExperimentSetup::paced(n_probes, 1800, 10, total_min)
        })
    }

    #[test]
    fn healthy_run_reports_high_ok_fraction() {
        let report = run(40, 60, 3, None);
        assert!(report.ok_fraction() > 0.9, "{}", report.ok_fraction());
        assert_eq!(report.traffic_multiplier(), Some(1.0));
        // The population's cache-miss mix shows through the report too.
        let miss = report.miss_rate();
        assert!((0.05..0.6).contains(&miss), "miss rate {miss}");
    }

    #[test]
    fn attack_degrades_and_amplifies() {
        let report = Report::run(&ExperimentSetup {
            seed: 5,
            attack: Some(AttackPlan::loss(0.95).window_min(40, 60)),
            ..ExperimentSetup::paced(60, 60, 10, 120) // TTL 60: no cache protection
        });
        let during = report
            .ok_fraction_during_attack()
            .expect("rounds in window");
        assert!(during < 0.8, "ok during 95% attack: {during}");
        assert!(report.traffic_multiplier().expect("baseline exists") > 1.5);
    }

    #[test]
    fn attack_window_past_end_of_run_yields_none() {
        let attack = AttackPlan::complete().window_min(500, 60);
        let report = run(10, 30, 11, Some(attack));
        // No round overlaps the window, so there is no "during" fraction —
        // previously this reported a misleading 0.0.
        assert_eq!(report.ok_fraction_during_attack(), None);
        // The multiplier exists (quiet window over a real baseline) and
        // shows no amplification.
        let mult = report.traffic_multiplier().expect("baseline exists");
        assert!(mult < 0.5, "empty attack window amplifies nothing: {mult}");
    }

    #[test]
    fn attack_from_minute_zero_has_no_baseline() {
        let report = run(10, 40, 12, Some(AttackPlan::loss(0.5).window_min(0, 40)));
        // Everything is under attack: no pre-attack rounds to compare
        // against — previously this reported a misleading 0.0.
        assert_eq!(report.traffic_multiplier(), None);
        // The OK fraction during the attack is still well-defined.
        assert!(report.ok_fraction_during_attack().is_some());
    }

    #[test]
    fn zero_round_run_yields_none_not_zero() {
        let report = run(10, 0, 13, None);
        assert!(report.output.log.records.is_empty());
        assert_eq!(report.ok_fraction_during_attack(), None);
    }

    #[test]
    fn metric_snapshots_are_deterministic_per_seed() {
        let run = || {
            Report::run(&ExperimentSetup {
                seed: 21,
                attack: Some(AttackPlan::loss(0.9).window_min(20, 20)),
                telemetry: Some(dike_telemetry::TelemetryConfig::every_mins(10)),
                ..ExperimentSetup::paced(15, 1800, 10, 40)
            })
        };
        let (a, b) = (run(), run());
        let (ra, rb) = (a.output.metrics.unwrap(), b.output.metrics.unwrap());
        assert!(!ra.is_empty());
        assert_eq!(ra.snapshot_times(), rb.snapshot_times());
        assert_eq!(
            ra.to_json(),
            rb.to_json(),
            "identical seeds, identical series"
        );
    }
}

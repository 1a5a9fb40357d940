//! The DDoS experiments of paper §5–6: Table 4's scenarios A–I and the
//! figures they feed (6–12, 14, 15, Table 7).

use dike_netsim::SimDuration;
use dike_stats::classify::Classifier;
use dike_stats::latency::{latency_timeseries, LatencyBin};
use dike_stats::timeseries::{class_timeseries, outcome_timeseries, ClassBin, OutcomeBin};

use crate::setup::{run_experiment, AttackPlan, AttackScope, ExperimentOutput, ExperimentSetup};

/// Table 4's experiment identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DdosExperiment {
    /// 3600 s TTL, one warm-up query, complete failure of both servers.
    A,
    /// 3600 s TTL, six queries before, complete failure, then recovery.
    B,
    /// 1800 s TTL, six queries before, complete failure, then recovery.
    C,
    /// 1800 s TTL, 50% loss at one server.
    D,
    /// 1800 s TTL, 50% loss at both servers.
    E,
    /// 1800 s TTL, 75% loss at both servers.
    F,
    /// 300 s TTL, 75% loss at both servers.
    G,
    /// 1800 s TTL, 90% loss at both servers.
    H,
    /// 60 s TTL, 90% loss at both servers.
    I,
}

/// All nine, in paper order.
pub const ALL: [DdosExperiment; 9] = [
    DdosExperiment::A,
    DdosExperiment::B,
    DdosExperiment::C,
    DdosExperiment::D,
    DdosExperiment::E,
    DdosExperiment::F,
    DdosExperiment::G,
    DdosExperiment::H,
    DdosExperiment::I,
];

/// Table 4 parameters for one experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdosParams {
    /// Experiment letter.
    pub name: char,
    /// Zone TTL, seconds.
    pub ttl: u32,
    /// Attack start, minutes after experiment start.
    pub ddos_start_min: u64,
    /// Attack duration, minutes.
    pub ddos_duration_min: u64,
    /// Probe rounds before the attack begins.
    pub queries_before: u32,
    /// Total experiment duration, minutes.
    pub total_min: u64,
    /// Probe interval, minutes.
    pub interval_min: u64,
    /// Loss rate at the victims.
    pub loss: f64,
    /// Whether one or both name servers are hit.
    pub both_ns: bool,
}

impl DdosExperiment {
    /// The letter.
    pub fn letter(self) -> char {
        match self {
            DdosExperiment::A => 'A',
            DdosExperiment::B => 'B',
            DdosExperiment::C => 'C',
            DdosExperiment::D => 'D',
            DdosExperiment::E => 'E',
            DdosExperiment::F => 'F',
            DdosExperiment::G => 'G',
            DdosExperiment::H => 'H',
            DdosExperiment::I => 'I',
        }
    }

    /// Parses a letter.
    pub fn from_letter(c: char) -> Option<Self> {
        Some(match c.to_ascii_uppercase() {
            'A' => DdosExperiment::A,
            'B' => DdosExperiment::B,
            'C' => DdosExperiment::C,
            'D' => DdosExperiment::D,
            'E' => DdosExperiment::E,
            'F' => DdosExperiment::F,
            'G' => DdosExperiment::G,
            'H' => DdosExperiment::H,
            'I' => DdosExperiment::I,
            _ => return None,
        })
    }

    /// The Table 4 parameter row.
    pub fn params(self) -> DdosParams {
        let (ttl, start, dur, before, total, loss, both) = match self {
            // Experiment A's attack runs to the end of the measurement:
            // Fig. 6a marks only the attack start and the cache expiry,
            // never a recovery (unlike B and C).
            DdosExperiment::A => (3600, 10, 110, 1, 120, 1.0, true),
            DdosExperiment::B => (3600, 60, 60, 6, 240, 1.0, true),
            DdosExperiment::C => (1800, 60, 60, 6, 180, 1.0, true),
            DdosExperiment::D => (1800, 60, 60, 6, 180, 0.5, false),
            DdosExperiment::E => (1800, 60, 60, 6, 180, 0.5, true),
            DdosExperiment::F => (1800, 60, 60, 6, 180, 0.75, true),
            DdosExperiment::G => (300, 60, 60, 6, 180, 0.75, true),
            DdosExperiment::H => (1800, 60, 60, 6, 180, 0.9, true),
            DdosExperiment::I => (60, 60, 60, 6, 180, 0.9, true),
        };
        DdosParams {
            name: self.letter(),
            ttl,
            ddos_start_min: start,
            ddos_duration_min: dur,
            queries_before: before,
            total_min: total,
            interval_min: 10,
            loss,
            both_ns: both,
        }
    }
}

/// A completed DDoS run with its derived series.
#[derive(Debug)]
pub struct DdosResult {
    /// Which experiment.
    pub experiment: DdosExperiment,
    /// Its parameters.
    pub params: DdosParams,
    /// Raw output (client log, server view, population).
    pub output: ExperimentOutput,
    /// Fig. 6/8/14: OK / SERVFAIL / no-answer per 10-minute round.
    pub outcomes: Vec<OutcomeBin>,
    /// Fig. 9/15: latency quantiles per round.
    pub latencies: Vec<LatencyBin>,
    /// Fig. 7: AA/CC/CA class series (meaningful for B, C).
    pub classes: Vec<ClassBin>,
}

/// Optional knobs for a DDoS run beyond the Table 4 parameters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DdosOptions {
    /// The paper's future-work queueing model at the authoritatives: the
    /// attack then also consumes service capacity, so surviving queries
    /// see queueing delay (§5.1).
    pub queueing: Option<dike_netsim::QueueConfig>,
    /// Collect sim-time metric snapshots; the registry comes back in
    /// [`ExperimentOutput::metrics`].
    pub telemetry: Option<dike_telemetry::TelemetryConfig>,
}

/// Runs one of Table 4's experiments. `scale` scales the probe count
/// (1.0 ≈ 9.2k probes).
pub fn run_ddos(exp: DdosExperiment, scale: f64, seed: u64) -> DdosResult {
    run_ddos_with_options(exp, scale, seed, DdosOptions::default())
}

/// Like [`run_ddos`] but optionally with the queueing model at the
/// authoritatives. Kept for callers predating [`DdosOptions`].
pub fn run_ddos_with_queueing(
    exp: DdosExperiment,
    scale: f64,
    seed: u64,
    queueing: Option<dike_netsim::QueueConfig>,
) -> DdosResult {
    run_ddos_with_options(
        exp,
        scale,
        seed,
        DdosOptions {
            queueing,
            ..DdosOptions::default()
        },
    )
}

/// Runs one of Table 4's experiments with every optional knob.
pub fn run_ddos_with_options(
    exp: DdosExperiment,
    scale: f64,
    seed: u64,
    opts: DdosOptions,
) -> DdosResult {
    let p = exp.params();
    let n_probes = ((9_200.0 * scale).round() as usize).max(10);
    let mut setup = ExperimentSetup::new(n_probes, p.ttl);
    setup.seed = seed;
    setup.round_interval = SimDuration::from_mins(p.interval_min);
    setup.rounds = (p.total_min / p.interval_min) as u32;
    setup.total_duration = SimDuration::from_mins(p.total_min);
    // Spread first rounds so the configured number of pre-attack queries
    // happens: the first round fires within the first interval.
    setup.first_round_spread = SimDuration::from_mins(p.interval_min.min(8));
    setup.round_jitter = SimDuration::from_mins(4);
    setup.attack = Some(AttackPlan {
        start_min: p.ddos_start_min,
        duration_min: p.ddos_duration_min,
        loss: p.loss,
        scope: if p.both_ns {
            AttackScope::BothNs
        } else {
            AttackScope::OneNs
        },
    });
    // Table 7 drills into one probe; track a mid-range id.
    setup.track_probe = Some((n_probes as u16 / 2).max(1));
    setup.queueing = opts.queueing;
    setup.telemetry = opts.telemetry;

    let output = run_experiment(&setup);
    let outcomes = outcome_timeseries(&output.log, SimDuration::from_mins(10));
    let latencies = latency_timeseries(&output.log, SimDuration::from_mins(10));
    let classes = class_timeseries(
        &Classifier::default().classify(&output.log),
        SimDuration::from_mins(10),
    );
    DdosResult {
        experiment: exp,
        params: p,
        output,
        outcomes,
        latencies,
        classes,
    }
}

/// Per-query OK fraction over the attack window's rounds: total OK
/// answers over total queries, weighting each query once the way the
/// paper's Tables do (an unweighted mean of per-round fractions would
/// over-count sparse partial rounds). `None` when no round with traffic
/// overlaps the window.
pub fn ok_fraction_during_attack(r: &DdosResult) -> Option<f64> {
    let start = (r.params.ddos_start_min / 10) as usize;
    let end = ((r.params.ddos_start_min + r.params.ddos_duration_min) / 10) as usize;
    let (ok, total) = r
        .outcomes
        .iter()
        .filter(|b| {
            let i = (b.start_min / 10) as usize;
            i >= start && i < end
        })
        .fold((0usize, 0usize), |(ok, total), b| {
            (ok + b.ok, total + b.total())
        });
    if total == 0 {
        return None;
    }
    Some(ok as f64 / total as f64)
}

/// The server-side traffic multiplier: mean offered queries per round
/// during the attack over the mean before it (Fig. 10's headline 3.5× /
/// 8.2× factors). `None` when there is no usable baseline — an attack
/// starting in the first round (the excluded cold-start bin is all that
/// precedes it) or no pre-attack traffic.
pub fn traffic_multiplier(r: &DdosResult) -> Option<f64> {
    let start = (r.params.ddos_start_min / 10) as usize;
    let end = ((r.params.ddos_start_min + r.params.ddos_duration_min) / 10) as usize;
    let bins = r.output.server.bins();
    let before: Vec<usize> = bins
        .iter()
        .enumerate()
        .filter(|(i, _)| *i >= 1 && *i < start) // skip the cold-start bin
        .map(|(_, b)| b.total())
        .collect();
    let during: Vec<usize> = bins
        .iter()
        .enumerate()
        .filter(|(i, _)| *i >= start && *i < end)
        .map(|(_, b)| b.total())
        .collect();
    let mean = |v: &[usize]| {
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<usize>() as f64 / v.len() as f64)
        }
    };
    let b = mean(&before)?;
    if b == 0.0 {
        return None;
    }
    Some(mean(&during).unwrap_or(0.0) / b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_match_table_4() {
        let a = DdosExperiment::A.params();
        assert_eq!(
            (a.ttl, a.ddos_start_min, a.ddos_duration_min, a.loss),
            (3600, 10, 110, 1.0)
        );
        let d = DdosExperiment::D.params();
        assert!(!d.both_ns);
        let i = DdosExperiment::I.params();
        assert_eq!((i.ttl, i.loss), (60, 0.9));
        for e in ALL {
            assert_eq!(DdosExperiment::from_letter(e.letter()), Some(e));
        }
    }

    /// Experiment E at small scale: 50% loss at both servers barely dents
    /// client success (paper: "nearly all VPs are successful").
    #[test]
    fn experiment_e_clients_mostly_survive() {
        let r = run_ddos(DdosExperiment::E, 0.012, 21);
        let ok = ok_fraction_during_attack(&r).expect("attack window has rounds");
        assert!(ok > 0.85, "ok fraction during 50% attack: {ok}");
    }

    /// The future-work extension (paper §5.1): adding a queueing model at
    /// the authoritatives inflates the latency of *successful* queries
    /// during the attack relative to the loss-only emulation. Experiment
    /// I (no cache protection) makes the effect visible on the median:
    /// every success must traverse the congested authoritative.
    #[test]
    fn queueing_extension_inflates_attack_latency() {
        // A small authoritative: the 90% flood leaves an effective
        // service rate of 4 q/s, i.e. >= 250 ms of service delay per
        // surviving query.
        let queue = dike_netsim::QueueConfig {
            rate_pps: 40.0,
            capacity: 400,
        };
        let plain = run_ddos(DdosExperiment::I, 0.012, 23);
        let queued = run_ddos_with_queueing(DdosExperiment::I, 0.012, 23, Some(queue));
        let median_during = |r: &DdosResult| {
            let meds: Vec<f64> = r
                .latencies
                .iter()
                .filter(|b| b.start_min >= 60 && b.start_min < 120)
                .filter_map(|b| b.summary.map(|s| s.median))
                .collect();
            meds.iter().sum::<f64>() / meds.len().max(1) as f64
        };
        let plain_med = median_during(&plain);
        let queued_med = median_during(&queued);
        assert!(
            queued_med > plain_med + 100.0,
            "queueing adds delay to every success: {queued_med} vs {plain_med}"
        );
        // Outside the attack the queue is idle and changes nothing much.
        let pre = |r: &DdosResult| {
            let meds: Vec<f64> = r
                .latencies
                .iter()
                .filter(|b| b.start_min >= 20 && b.start_min < 60)
                .filter_map(|b| b.summary.map(|s| s.median))
                .collect();
            meds.iter().sum::<f64>() / meds.len().max(1) as f64
        };
        assert!(
            (pre(&queued) - pre(&plain)).abs() < 100.0,
            "{} vs {}",
            pre(&queued),
            pre(&plain)
        );
    }

    /// Experiment I: 90% loss with a 60 s TTL (no cache protection)
    /// hurts badly, but retries still save a sizable minority (paper:
    /// ~37–40% answered).
    #[test]
    fn experiment_i_retries_save_a_minority() {
        let r = run_ddos(DdosExperiment::I, 0.012, 22);
        let ok = ok_fraction_during_attack(&r).expect("attack window has rounds");
        assert!(
            (0.10..0.75).contains(&ok),
            "ok fraction during 90% attack with no cache: {ok}"
        );
        // And the offered load on the server grows several-fold.
        let mult = traffic_multiplier(&r).expect("pre-attack baseline exists");
        assert!(mult > 2.0, "traffic multiplier {mult}");
    }
}

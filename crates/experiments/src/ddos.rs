//! The DDoS experiments of paper §5–6: Table 4's scenarios A–I and the
//! figures they feed (6–12, 14, 15, Table 7).

use crate::report::Report;
use crate::setup::{AttackPlan, AttackScope, ExperimentSetup};

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

    /// This Table 4 row as a runnable setup: the population at `scale`
    /// (1.0 ≈ 9.2k probes) under Table 4's pacing, the row's attack, and
    /// Table 7's drill-down on a mid-range probe id. Callers wanting the
    /// queueing model or telemetry set `faults` (see
    /// [`AttackPlan::queue_floods`]) / `telemetry` on the result.
    pub fn setup(self, scale: f64, seed: u64) -> ExperimentSetup {
        let p = self.params();
        let mut setup = ExperimentSetup::table4_paced(scale, p.ttl, p.total_min, seed);
        setup.attack = Some(p.attack());
        setup.track_probe = Some((setup.n_probes as u16 / 2).max(1));
        setup
    }
}

impl DdosParams {
    /// The row's attack window, loss and scope.
    pub fn attack(&self) -> AttackPlan {
        AttackPlan {
            start_min: self.ddos_start_min,
            duration_min: self.ddos_duration_min,
            loss: self.loss,
            scope: if self.both_ns {
                AttackScope::BothNs
            } else {
                AttackScope::OneNs
            },
        }
    }
}

/// Runs one of Table 4's experiments. `scale` scales the probe count
/// (1.0 ≈ 9.2k probes).
pub fn run_ddos(exp: DdosExperiment, scale: f64, seed: u64) -> Report {
    Report::run(&exp.setup(scale, seed))
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

    /// Golden `Debug` strings, captured at commit 747963d from the setup
    /// its Table 4 runner built by hand: seed 42, all nine letters, two
    /// scales (110 and 9200 probes).
    #[test]
    fn setup_matches_the_captured_table_4_setups() {
        const BOTH: &str = "BothNs";
        // (letter, ttl, rounds, total ns, start, duration, loss, scope)
        let rows = [
            ('A', 3600, 12, 7_200_000_000_000u64, 10, 110, "1.0", BOTH),
            ('B', 3600, 24, 14_400_000_000_000, 60, 60, "1.0", BOTH),
            ('C', 1800, 18, 10_800_000_000_000, 60, 60, "1.0", BOTH),
            ('D', 1800, 18, 10_800_000_000_000, 60, 60, "0.5", "OneNs"),
            ('E', 1800, 18, 10_800_000_000_000, 60, 60, "0.5", BOTH),
            ('F', 1800, 18, 10_800_000_000_000, 60, 60, "0.75", BOTH),
            ('G', 300, 18, 10_800_000_000_000, 60, 60, "0.75", BOTH),
            ('H', 1800, 18, 10_800_000_000_000, 60, 60, "0.9", BOTH),
            ('I', 60, 18, 10_800_000_000_000, 60, 60, "0.9", BOTH),
        ];
        for (scale, n_probes, tracked) in [(0.012, 110, 55), (1.0, 9200, 4600)] {
            for (letter, ttl, rounds, total, start, dur, loss, scope) in rows {
                let expected = format!(
                    "ExperimentSetup {{ seed: 42, population_seed: 7, n_probes: {n_probes}, \
                     ttl: {ttl}, round_interval: SimDuration(600000000000), rounds: {rounds}, \
                     total_duration: SimDuration({total}), attack: Some(AttackPlan {{ \
                     start_min: {start}, duration_min: {dur}, loss: {loss}, scope: {scope} }}), \
                     mix: PopulationMix {{ recursives_per_probe: [0.55, 0.3, 0.15], \
                     frac_public: 0.33, google_share: 0.75, frac_isp: 0.45, \
                     frac_home_router: 0.12, frac_capper: 0.1, probes_per_isp: 3, \
                     isp_bind_share: 0.5, isp_sixhour_cap_share: 0.3, isp_flush_share: 0.08, \
                     farm_serve_stale_share: 0.25, farm_frontends: 3, farm_backends: 5, \
                     farm_count: 3, home_router_public_upstream_share: 0.15 }}, \
                     first_round_spread: SimDuration(480000000000), \
                     round_jitter: SimDuration(240000000000), track_probe: Some({tracked}), \
                     regional_latency: true, telemetry: None, faults: None, \
                     defense: None, spoofed_flood: None, late_wave: None, tcp: None, \
                     cookie_secret: None, tcp_exhaustion: None, nxns: None, \
                     resolver_max_fetch: None, audit: false, shards: 1 }}"
                );
                let exp = DdosExperiment::from_letter(letter).expect("a Table 4 letter");
                assert_eq!(format!("{:?}", exp.setup(scale, 42)), expected);
            }
        }
    }

    /// Experiment E at small scale: 50% loss at both servers barely dents
    /// client success (paper: "nearly all VPs are successful").
    #[test]
    fn experiment_e_clients_mostly_survive() {
        let r = run_ddos(DdosExperiment::E, 0.012, 21);
        let ok = r
            .ok_fraction_during_attack()
            .expect("attack window has rounds");
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
        let mut queued = DdosExperiment::I.setup(0.012, 23);
        queued.faults = queued.attack.map(|a| a.queue_floods(queue));
        let queued = Report::run(&queued);
        let median_during = |r: &Report| {
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
        let pre = |r: &Report| {
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
        let ok = r
            .ok_fraction_during_attack()
            .expect("attack window has rounds");
        assert!(
            (0.10..0.75).contains(&ok),
            "ok fraction during 90% attack with no cache: {ok}"
        );
        // And the offered load on the server grows several-fold.
        let mult = r.traffic_multiplier().expect("pre-attack baseline exists");
        assert!(mult > 2.0, "traffic multiplier {mult}");
    }
}

//! The caching baselines of paper §3: Tables 1–3, Figure 3 and
//! Figure 13.
//!
//! Five experiments probe the test zone from every vantage point, varying
//! the zone TTL (60 / 1800 / 3600 / 86400 s at 20-minute pacing, plus
//! 3600 s at 10-minute pacing), and the answers are classified into
//! AA / CC / AC / CA.

use dike_netsim::SimDuration;
use dike_stats::classify::{AnswerClass, Classification, Classifier};
use dike_stats::timeseries::{class_timeseries, ClassBin};

use crate::population::R1Kind;
use crate::setup::{run_experiment, ExperimentOutput, ExperimentSetup};

/// One baseline configuration (a column of Tables 1 and 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineConfig {
    /// Human-readable label ("3600-10min" etc.).
    pub label: &'static str,
    /// Zone TTL in seconds.
    pub ttl: u32,
    /// Probing interval in minutes.
    pub interval_min: u64,
    /// Rounds per probe.
    pub rounds: u32,
}

/// The paper's five baseline experiments (Table 1's columns).
pub const BASELINES: [BaselineConfig; 5] = [
    BaselineConfig {
        label: "60",
        ttl: 60,
        interval_min: 20,
        rounds: 6,
    },
    BaselineConfig {
        label: "1800",
        ttl: 1800,
        interval_min: 20,
        rounds: 6,
    },
    BaselineConfig {
        label: "3600",
        ttl: 3600,
        interval_min: 20,
        rounds: 6,
    },
    BaselineConfig {
        label: "86400",
        ttl: 86_400,
        interval_min: 20,
        rounds: 6,
    },
    BaselineConfig {
        label: "3600-10min",
        ttl: 3600,
        interval_min: 10,
        rounds: 12,
    },
];

/// Table 3's public/non-public split of the AC (cache miss) answers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublicSplit {
    /// Total AC answers.
    pub ac_total: usize,
    /// AC answers whose R1 is any public resolver.
    pub public_r1: usize,
    /// AC answers whose R1 is the Google-like farm.
    pub google_r1: usize,
    /// AC answers whose R1 is another public resolver.
    pub other_public_r1: usize,
    /// AC answers from non-public R1s.
    pub non_public_r1: usize,
    /// Of the non-public-R1 AC answers, those whose queries emerged from
    /// a Google-farm backend at the authoritatives (multi-level paths
    /// ending in a public Rn).
    pub google_rn_behind_non_public: usize,
}

/// A full baseline run with its classification products.
#[derive(Debug)]
pub struct BaselineResult {
    /// The configuration that produced it.
    pub config: BaselineConfig,
    /// Raw run output.
    pub output: ExperimentOutput,
    /// §3.4 classification.
    pub classification: Classification,
    /// Fig. 13's per-round class bins.
    pub class_bins: Vec<ClassBin>,
    /// Table 3's split.
    pub public_split: PublicSplit,
}

impl BaselineResult {
    /// Queries sent (Table 1 "Queries").
    pub fn queries(&self) -> usize {
        self.output.log.records.len()
    }

    /// Answers received (Table 1 "Answers").
    pub fn answers(&self) -> usize {
        self.output.log.records.len() - self.output.log.timeout_count()
    }
}

/// Runs one baseline experiment. `scale` scales the probe population
/// (1.0 ≈ the paper's 9.2k probes).
pub fn run_baseline(config: BaselineConfig, scale: f64, seed: u64) -> BaselineResult {
    let mut setup = ExperimentSetup::new(ExperimentSetup::probes_at_scale(scale), config.ttl);
    setup.seed = seed;
    setup.round_interval = SimDuration::from_mins(config.interval_min);
    setup.rounds = config.rounds;
    setup.total_duration = SimDuration::from_mins(config.interval_min * config.rounds as u64 + 15);
    let output = run_experiment(&setup);

    let classification = Classifier::default().classify(&output.log);
    let class_bins = class_timeseries(&classification, SimDuration::from_mins(10));
    let public_split = split_by_r1(&output, &classification);
    BaselineResult {
        config,
        output,
        classification,
        class_bins,
        public_split,
    }
}

/// Computes Table 3's split from the classification and the topology
/// metadata.
pub(crate) fn split_by_r1(output: &ExperimentOutput, c: &Classification) -> PublicSplit {
    use std::collections::HashMap;
    let kind_of: HashMap<_, _> = output.vps.iter().map(|m| (m.vp, m.kind)).collect();
    let google_backends: std::collections::HashSet<_> =
        output.google_backends.iter().copied().collect();

    let mut split = PublicSplit::default();
    for a in &c.answers {
        if a.class != AnswerClass::AC {
            continue;
        }
        split.ac_total += 1;
        match kind_of.get(&a.vp).copied() {
            Some(R1Kind::PublicGoogle) => {
                split.public_r1 += 1;
                split.google_r1 += 1;
            }
            Some(R1Kind::PublicOther) => {
                split.public_r1 += 1;
                split.other_public_r1 += 1;
            }
            _ => {
                split.non_public_r1 += 1;
                // Did this probe's queries emerge from a Google backend?
                let sources = output.server.probe_sources(a.vp.probe);
                if sources.iter().any(|s| google_backends.contains(s)) {
                    split.google_rn_behind_non_public += 1;
                }
            }
        }
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One reduced-scale baseline exercises the whole §3 pipeline. The
    /// headline result — roughly 30% cache misses, most of them behind
    /// public resolvers — must hold at small scale too.
    #[test]
    fn baseline_3600_reproduces_miss_rate_shape() {
        let r = run_baseline(BASELINES[2], 0.025, 11);
        let s = r.classification.summary;
        assert!(s.valid_answers > 500, "valid answers {}", s.valid_answers);
        assert!(s.warmup > 200, "warmups {}", s.warmup);
        let miss = s.miss_rate();
        assert!(
            (0.15..0.45).contains(&miss),
            "miss rate {miss} should be near the paper's ~30%"
        );
        // Misses are dominated by public resolvers (Table 3).
        let frac_public = r.public_split.public_r1 as f64 / r.public_split.ac_total.max(1) as f64;
        assert!(
            frac_public > 0.3,
            "public share of misses {frac_public} (paper: about half)"
        );
    }

    /// With a 60 s TTL and 20-minute probing, no query can legitimately
    /// expect a cached answer: almost everything is AA.
    #[test]
    fn baseline_60s_has_no_cache_expectations() {
        let r = run_baseline(BASELINES[0], 0.02, 12);
        let s = r.classification.summary;
        assert_eq!(s.ac, 0, "no expected-cache answers at all");
        assert!(s.aa > 300, "AA dominates: {}", s.aa);
        assert!(s.miss_rate() < 0.01);
    }
}

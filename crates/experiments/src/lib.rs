#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # dike-experiments
//!
//! The paper's experiments as code. Each module owns one family of
//! results and knows how to regenerate its tables and figures:
//!
//! | module | paper results |
//! |---|---|
//! | [`baseline`] | Table 1–3, Fig. 3, Fig. 13 (caching in controlled experiments) |
//! | [`ddos`] | Table 4, Fig. 6–12, Fig. 14–15, Table 7 (DDoS scenarios A–I) |
//! | [`defense`] | §7: server-side defenses (RRL, admission, scale-out) vs the spoofed flood |
//! | [`degraded`] | §5.1 future work: degraded-but-not-failed (bursty loss + latency + flood) |
//! | [`software`] | Fig. 16 (BIND vs Unbound retry behaviour) |
//! | [`glue`] | Table 5, Table 6 (referral vs authoritative TTL precedence) |
//! | [`nxns`] | NXNSAttack recursive amplification and the MaxFetch(k) mitigation |
//! | [`production`] | Fig. 4, Fig. 5 (`.nl` and root-DITL trace emulation) |
//! | [`implications`] | §8's root-vs-Dyn contrast as a controlled anycast sweep |
//!
//! [`population`] holds the calibrated resolver-population mix,
//! [`topology`] assembles the simulated world (hierarchy + resolvers +
//! probes), [`setup`] runs one [`ExperimentSetup`] — the one description
//! of a run — [`report`] pairs the run with its per-round series and the
//! paper's headline attack metrics ([`Report`]), and [`sweep`] varies a
//! setup along axes ([`SweepEngine`]).
//!
//! ```
//! use dike_experiments::{AttackPlan, ExperimentSetup, Report};
//!
//! let report = Report::run(&ExperimentSetup {
//!     // 90% ingress loss at both authoritatives, minutes 60–120.
//!     attack: Some(AttackPlan::loss(0.9).window_min(60, 60)),
//!     seed: 7,
//!     // 150 probes, TTL 1800 s, a round every 10 minutes for 3 hours.
//!     ..ExperimentSetup::paced(150, 1800, 10, 180)
//! });
//!
//! // Half-hour caches plus retries keep most clients alive (paper §5.4).
//! assert!(report.ok_fraction_during_attack().unwrap() > 0.4);
//! assert!(report.traffic_multiplier().unwrap() > 1.0);
//! ```
//!
//! The `repro` binary prints any table or figure:
//!
//! ```text
//! repro table2 --scale 0.05
//! repro fig8 --scale 0.05 --seed 7
//! repro all
//! ```

pub mod baseline;
pub mod cookies;
pub mod ddos;
pub mod defense;
pub mod degraded;
pub mod glue;
pub mod implications;
pub mod nxns;
pub mod population;
pub mod production;
pub mod report;
pub mod setup;
pub mod shard;
pub mod software;
pub mod sweep;
pub mod topology;

pub use population::PopulationMix;
pub use report::Report;
pub use setup::{AttackPlan, AttackScope, ExperimentOutput, ExperimentSetup};
pub use shard::run_experiment_sharded;
pub use sweep::{
    ArmSummary, Band, ReplicateSummary, SweepAxis, SweepEngine, SweepJob, SweepResult,
};

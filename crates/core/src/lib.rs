#![warn(missing_docs)]

//! # dike-core
//!
//! The high-level entry point to the *When the Dike Breaks* simulator.
//!
//! The lower crates expose every moving part (wire codec, event
//! simulator, caches, resolvers, probes, attacks, analysis); this crate
//! wraps them in a scenario builder for the common question the paper
//! asks: *what do clients and authoritatives experience when a DNS zone
//! comes under DDoS?*
//!
//! ```
//! use dike_core::{Attack, Scenario};
//!
//! let report = Scenario::new()
//!     .probes(150)
//!     .ttl(1800)
//!     // 90% ingress loss at both authoritatives, minutes 60–120.
//!     .with_attack(Attack::loss(0.9).window_min(60, 60))
//!     .seed(7)
//!     .run();
//!
//! // Half-hour caches plus retries keep most clients alive (paper §5.4).
//! assert!(report.ok_fraction_during_attack().unwrap() > 0.4);
//! assert!(report.traffic_multiplier().unwrap() > 1.0);
//! ```

pub mod sweep;

use dike_experiments::setup::ExperimentSetup;
use dike_netsim::SimDuration;

// Re-export the building blocks for users who outgrow the builder.
pub use dike_attack as attack;
pub use dike_auth as auth;
pub use dike_cache as cache;
pub use dike_defense as defense;
pub use dike_defense::{Defense, DefensePlan, RrlConfig};
pub use dike_experiments as experiments;
pub use dike_experiments::cookies::{CookieArm, CookieComparison, CookieRow, TcpExhaustion};
pub use dike_experiments::defense::{DefensePreset, LateResolverWave, SpoofedFlood, SpoofedStats};
pub use dike_experiments::nxns::{NxnsArm, NxnsAttack, NxnsComparison, NxnsRow, NxnsStats};
pub use dike_experiments::setup::AttackScope;
pub use dike_experiments::Report;
pub use dike_faults as faults;
pub use dike_faults::{Fault, FaultPlan};
pub use dike_netsim as netsim;
pub use dike_netsim::TcpConfig;
pub use dike_resolver as resolver;
pub use dike_stats as stats;
pub use dike_stub as stub;
pub use dike_telemetry as telemetry;
pub use dike_telemetry::{MetricsRegistry, TelemetryConfig};
pub use dike_wire as wire;
pub use sweep::{
    ArmSummary, Band, ReplicateSummary, SeedStrategy, SweepAxis, SweepEngine, SweepJob,
    SweepResult, LATE_RESOLVER_QPS, SWEEP_COOKIE_SECRET,
};

/// A typed attack description for [`Scenario::with_attack`]: loss rate,
/// scope, and window, in the vocabulary of the paper's Table 4 — the
/// experiment layer's own [`AttackPlan`](dike_experiments::setup::AttackPlan)
/// under its builder-facing name.
///
/// ```
/// use dike_core::{Attack, AttackScope};
///
/// // Experiment D: 50% loss at one name server, minutes 60–120.
/// let d = Attack::loss(0.5)
///     .scope(AttackScope::OneNs)
///     .window_min(60, 60);
/// ```
pub use dike_experiments::setup::AttackPlan as Attack;

/// How a scenario's server-side defense is specified: not at all, or
/// as intent ([`DefensePreset`] / bare RRL rate) that resolves against
/// the attack window and the standard two-authoritative topology when
/// the scenario runs.
#[derive(Debug, Clone)]
enum DefenseSpec {
    None,
    Preset(DefensePreset),
    /// RRL at both authoritatives: this sustained rate per source, slip
    /// 2, armed at attack onset.
    RrlRate(f64),
}

/// A declarative scenario: a probe population querying a zone through the
/// calibrated resolver mix, optionally under attack.
#[derive(Debug, Clone)]
pub struct Scenario {
    setup: ExperimentSetup,
    // Duration and pacing are stored as intent and reconciled in `run()`,
    // so `.duration_min(120).round_interval_min(20)` and the reverse
    // order mean the same thing.
    duration_min: u64,
    interval_min: u64,
    attack: Attack,
    attack_armed: bool,
    defense: DefenseSpec,
    /// Spoofed-flood intent as `(sources, qps_per_source)`, aligned with
    /// the attack window when the scenario runs.
    spoofed: Option<(usize, f64)>,
    /// Late-resolver-wave intent as `(arrivals_per_min,
    /// qps_per_resolver)`, aligned with the attack window.
    late_wave: Option<(f64, f64)>,
}

impl Scenario {
    /// A scenario with the paper's defaults: 10-minute rounds, three
    /// hours, no attack.
    pub fn new() -> Self {
        let setup = ExperimentSetup::new(200, 1800);
        Scenario {
            setup,
            duration_min: 180,
            interval_min: 10,
            attack: Attack::loss(1.0),
            attack_armed: false,
            defense: DefenseSpec::None,
            spoofed: None,
            late_wave: None,
        }
    }

    /// Number of probes (each contributes 1–3 vantage points).
    pub fn probes(mut self, n: usize) -> Self {
        self.setup.n_probes = n.max(1);
        self
    }

    /// The zone TTL in seconds.
    pub fn ttl(mut self, ttl: u32) -> Self {
        self.setup.ttl = ttl;
        self
    }

    /// RNG seed for packet-level randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.setup.seed = seed;
        self
    }

    /// Population seed (who uses which resolvers).
    pub fn population_seed(mut self, seed: u64) -> Self {
        self.setup.population_seed = seed;
        self
    }

    /// Probe round interval in minutes. Order-independent with
    /// [`Scenario::duration_min`]; rounds are derived when the scenario
    /// runs.
    pub fn round_interval_min(mut self, mins: u64) -> Self {
        self.interval_min = mins.max(1);
        self
    }

    /// Total duration in minutes. Order-independent with
    /// [`Scenario::round_interval_min`]; rounds are derived when the
    /// scenario runs.
    pub fn duration_min(mut self, mins: u64) -> Self {
        self.duration_min = mins;
        self
    }

    /// Schedules `attack` for this run, replacing any earlier attack.
    pub fn with_attack(mut self, attack: Attack) -> Self {
        self.attack = attack;
        self.attack_armed = true;
        self
    }

    /// The faults this scenario will schedule, as a [`FaultPlan`]: the
    /// armed attack's random-drop fault, or an empty plan when no attack
    /// is armed. Every attack configuration resolves through here, so
    /// equality of fault plans is equality of runs.
    pub fn fault_plan(&self) -> FaultPlan {
        if self.attack_armed {
            self.attack.fault_plan()
        } else {
            FaultPlan::new()
        }
    }

    /// Arms one of the §7 defense presets at both authoritatives,
    /// activating at the attack onset (minute 0 when no attack is
    /// armed). Replaces any earlier defense.
    pub fn defense_preset(mut self, preset: DefensePreset) -> Self {
        self.defense = DefenseSpec::Preset(preset);
        self
    }

    /// Arms plain RRL at both authoritatives: `rate_qps` sustained
    /// responses per second per source address (must be positive), slip
    /// 2 (every second over-rate query gets a TC=1 nudge to retry over
    /// TCP), activating at the attack onset. Replaces any earlier
    /// defense.
    pub fn rrl_qps(mut self, rate_qps: f64) -> Self {
        self.defense = DefenseSpec::RrlRate(rate_qps);
        self
    }

    /// The defenses this scenario will schedule, as a [`DefensePlan`]:
    /// intent (preset or RRL rate) resolved against the attack window
    /// and the standard topology, or an empty plan when no defense is
    /// configured. Like
    /// [`Scenario::fault_plan`], equality of defense plans is equality
    /// of the installed defenses.
    pub fn defense_plan(&self) -> DefensePlan {
        let onset = || {
            let start = if self.attack_armed {
                self.attack.start_min
            } else {
                0
            };
            SimDuration::from_mins(start).after_zero()
        };
        let mut plan = match &self.defense {
            DefenseSpec::None => DefensePlan::new(),
            DefenseSpec::Preset(preset) => {
                preset.plan(dike_experiments::topology::ns_addrs(), onset())
            }
            DefenseSpec::RrlRate(rate) => {
                let config = RrlConfig {
                    // Per-address buckets: simulated sources are dense,
                    // so /24 aggregation would lump unrelated clients.
                    prefix_bits: 32,
                    ..RrlConfig::slip_at(*rate, 2)
                };
                let mut plan = DefensePlan::new();
                for ns in dike_experiments::topology::ns_addrs() {
                    plan.push(Defense::rrl(ns, config).starting_at(onset()));
                }
                plan
            }
        };
        // Cookie exemptions ride on whatever gate the plan installs: one
        // layer per authoritative that has an RRL or admission gate (the
        // exemption is meaningless — and rejected by validation —
        // without one).
        if let Some(secret) = self.setup.cookie_secret {
            for ns in dike_experiments::topology::ns_addrs() {
                let gated = plan.defenses.iter().any(|d| {
                    matches!(d,
                        Defense::Rrl { target, .. } | Defense::Admission { target, .. }
                            if *target == ns)
                });
                if gated {
                    plan.push(Defense::cookie(ns, secret));
                }
            }
        }
        plan
    }

    /// Arms the RFC 7766 TC=1 → TCP fallback path: TCP listeners at all
    /// four hierarchy servers with a connection table of `capacity`
    /// slots (default handshake cost and idle reaping), and a TCP retry
    /// path at every recursive. Without this, a TC=1 slip is a dead
    /// end — the resolver falls back to its UDP retry schedule.
    pub fn tcp_fallback(mut self, capacity: usize) -> Self {
        self.setup.tcp = Some(TcpConfig {
            table_capacity: capacity.max(1),
            ..TcpConfig::default()
        });
        self
    }

    /// Arms RFC 7873 DNS cookies end to end: authoritatives mint server
    /// cookies with `secret`, every recursive attaches cookies upstream,
    /// and — for each authoritative where the resolved defense plan has
    /// an RRL or admission gate — a cookie-validation exemption layer is
    /// appended so return-routable clients bypass the limiter. Without a
    /// gate the cookie exchange still runs but exempts nothing.
    pub fn cookies(mut self, secret: u64) -> Self {
        self.setup.cookie_secret = Some(secret);
        self
    }

    /// Arms the NXNSAttack: the malicious `attack` and victim `victim`
    /// zones join the hierarchy and a dedicated attack client cycles
    /// fresh delegation cuts through its own recursive. The client's
    /// tally comes back as `Report::output.nxns`; the victim's load is
    /// visible through [`Scenario::telemetry`] as the
    /// `auth:nxns-victim` node's `queries` counter.
    pub fn nxns(mut self, attack: NxnsAttack) -> Self {
        self.setup.nxns = Some(attack);
        self
    }

    /// Arms MaxFetch(k), the NXNSAttack mitigation, at every recursive
    /// in the population: at most `k` NS-address fetches per referral
    /// (clamped to at least 1 — benign delegations need some fetches).
    pub fn max_fetch(mut self, k: u32) -> Self {
        self.setup.resolver_max_fetch = Some(k.max(1));
        self
    }

    /// Adds a deterministic spoofed-source flood against the two
    /// authoritatives, aligned with the attack window (the default
    /// minutes 60–120 when no attack is armed): `sources` timer-paced
    /// sender nodes at `qps_per_source` each. The fleet's tally comes
    /// back via [`Report::spoofed_stats`].
    pub fn spoofed_flood(mut self, sources: usize, qps_per_source: f64) -> Self {
        self.spoofed = Some((sources, qps_per_source));
        self
    }

    /// Adds a wave of *legitimate* resolvers that first appear after the
    /// attack onset, arriving at `arrivals_per_min` spread over the
    /// attack window and each querying at `qps_per_resolver` until the
    /// window closes. History-based classifiers (cutoff = onset) have
    /// never seen them, so they land in the unknown class with the
    /// flood — the false-positive population. Keep `qps_per_resolver`
    /// well under the RRL presets' rate (0.1 qps) so what refuses them
    /// is classification, not volume. Tally via
    /// [`Report::late_resolver_stats`].
    pub fn late_resolvers(mut self, arrivals_per_min: f64, qps_per_resolver: f64) -> Self {
        self.late_wave = Some((arrivals_per_min, qps_per_resolver));
        self
    }

    /// Overrides the population mix.
    pub fn population(mut self, mix: dike_experiments::PopulationMix) -> Self {
        self.setup.mix = mix;
        self
    }

    /// Collects sim-time metric snapshots during the run (counters and
    /// histograms from the network, caches, resolvers, authoritatives and
    /// probes). The registry comes back via [`Report::metrics`].
    pub fn telemetry(mut self, config: TelemetryConfig) -> Self {
        self.setup.telemetry = Some(config);
        self
    }

    /// Cuts the run across `k` parallel shard worker threads (see
    /// `dike_experiments::shard`). `0` or `1` keeps the single-threaded
    /// engine and its pinned digest; higher counts give one digest that
    /// is independent of `k`, but some features (TCP, cookies,
    /// telemetry, the auxiliary fleets) reject sharded runs. The
    /// [`SweepEngine`] shrinks its own worker pool so `workers × k`
    /// stays within the machine's parallelism.
    pub fn shards(mut self, k: usize) -> Self {
        self.setup.shards = k.max(1);
        self
    }

    /// Reconciles stored intent (duration, pacing, attack) into the
    /// underlying [`ExperimentSetup`]. Called once by [`Scenario::run`].
    fn resolve(&mut self) {
        self.setup.round_interval = SimDuration::from_mins(self.interval_min);
        self.setup.total_duration = SimDuration::from_mins(self.duration_min);
        self.setup.rounds = (self.duration_min / self.interval_min) as u32;
        if self.attack_armed {
            self.setup.attack = Some(self.attack);
        }
        // An absent defense stays `None` so the simulator keeps its
        // defense-free hot path (and the pinned determinism digest).
        let defense = self.defense_plan();
        self.setup.defense = if defense.is_empty() {
            None
        } else {
            Some(defense)
        };
        // Both fleets align with the attack window (the default window
        // when no attack is armed — the fleets still need an onset).
        if let Some((sources, qps)) = self.spoofed {
            self.setup.spoofed_flood = Some(dike_experiments::defense::SpoofedFlood::aligned_with(
                &self.attack,
                sources,
                qps,
            ));
        }
        if let Some((arrivals_per_min, qps_per_resolver)) = self.late_wave {
            self.setup.late_wave = Some(LateResolverWave {
                arrivals_per_min,
                qps_per_resolver,
                start_min: self.attack.start_min,
                window_min: self.attack.duration_min,
            });
        }
    }

    /// Runs the scenario and gathers the derived series.
    pub fn run(mut self) -> Report {
        self.resolve();
        Report::run(&self.setup)
    }
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes_setup() {
        let mut s = Scenario::new()
            .probes(50)
            .ttl(300)
            .seed(9)
            .round_interval_min(20)
            .duration_min(120)
            .with_attack(Attack::loss(0.75).window_min(40, 40));
        s.resolve();
        assert_eq!(s.setup.n_probes, 50);
        assert_eq!(s.setup.ttl, 300);
        assert_eq!(s.setup.rounds, 6);
        let plan = s.setup.attack.expect("attack armed");
        assert_eq!(plan.loss, 0.75);
        assert_eq!((plan.start_min, plan.duration_min), (40, 40));
    }

    #[test]
    fn duration_and_interval_compose_in_either_order() {
        // Regression: deriving rounds inside `duration_min()` made the
        // result depend on whether the interval was set before or after.
        let mut a = Scenario::new().duration_min(120).round_interval_min(20);
        let mut b = Scenario::new().round_interval_min(20).duration_min(120);
        a.resolve();
        b.resolve();
        assert_eq!(a.setup.rounds, 6);
        assert_eq!(b.setup.rounds, 6);
        assert_eq!(a.setup.round_interval, b.setup.round_interval);
        assert_eq!(a.setup.total_duration, b.setup.total_duration);
    }

    #[test]
    fn typed_attacks_produce_valid_single_fault_plans() {
        // Every attack shape resolves to exactly one valid random-drop
        // fault, and equal attacks mean equal plans (same JSON too).
        let cases = [
            Attack::loss(0.5),
            Attack::complete().scope(AttackScope::OneNs),
            Attack::loss(0.9).window_min(20, 45),
            Attack::loss(0.75)
                .scope(AttackScope::OneNs)
                .window_min(30, 20),
        ];
        for attack in cases {
            let a = Scenario::new().with_attack(attack).fault_plan();
            let b = Scenario::new().with_attack(attack).fault_plan();
            assert_eq!(a, b);
            assert_eq!(a.to_json(), b.to_json());
            assert_eq!(a.len(), 1, "one random-drop fault");
            a.validate().expect("typed-attack plan is valid");
        }
    }

    #[test]
    fn defense_intent_resolves_against_the_attack_window() {
        let s = Scenario::new()
            .with_attack(Attack::loss(0.9).window_min(60, 60))
            .defense_preset(DefensePreset::RrlSlip);
        let plan = s.defense_plan();
        assert_eq!(plan.len(), 2, "one RRL layer per authoritative");
        plan.validate().expect("preset plans are valid");
        assert_eq!(DefensePlan::from_json(&plan.to_json()).unwrap(), plan);

        // The RRL-rate shorthand arms both authoritatives too.
        let rrl = Scenario::new()
            .with_attack(Attack::loss(0.9).window_min(30, 30))
            .rrl_qps(0.2)
            .defense_plan();
        assert_eq!(rrl.len(), 2);
        rrl.validate().expect("rrl_qps plans are valid");

        // No defense configured → empty plan, and the resolved setup
        // keeps `None` so the simulator stays on its defense-free hot
        // path (the pinned determinism digest depends on this).
        assert!(Scenario::new().defense_plan().is_empty());
        let mut none = Scenario::new().probes(5);
        none.resolve();
        assert!(none.setup.defense.is_none());
        let mut armed = s;
        armed.resolve();
        assert_eq!(armed.setup.defense.as_ref().map(|p| p.len()), Some(2));
    }

    #[test]
    fn cookie_intent_rides_on_the_plan_gates() {
        // With an RRL gate at both authoritatives, cookies() appends one
        // exemption layer per gate — and the combined plan validates.
        let s = Scenario::new()
            .with_attack(Attack::loss(0.9).window_min(60, 60))
            .rrl_qps(0.05)
            .cookies(0xc00c_1e5);
        let plan = s.defense_plan();
        assert_eq!(plan.len(), 4, "2 RRL gates + 2 cookie exemptions");
        plan.validate().expect("gated cookie plans are valid");
        assert_eq!(DefensePlan::from_json(&plan.to_json()).unwrap(), plan);

        // Without a gate there is nothing to exempt from: no cookie
        // layers, so the plan stays empty (and the setup stays on the
        // defense-free hot path) while the end-to-end cookie exchange
        // still arms via the setup field.
        let mut bare = Scenario::new().probes(5).cookies(0xc00c_1e5);
        assert!(bare.defense_plan().is_empty());
        bare.resolve();
        assert!(bare.setup.defense.is_none());
        assert_eq!(bare.setup.cookie_secret, Some(0xc00c_1e5));
    }

    #[test]
    fn tcp_fallback_builder_arms_the_setup() {
        let mut s = Scenario::new().probes(5).tcp_fallback(8);
        s.resolve();
        let tcp = s.setup.tcp.expect("tcp armed");
        assert_eq!(tcp.table_capacity, 8);
        // Capacity is clamped to at least one slot.
        assert_eq!(
            Scenario::new()
                .tcp_fallback(0)
                .setup
                .tcp
                .unwrap()
                .table_capacity,
            1
        );
        // And the default world stays TCP-free (the pinned digest
        // depends on this).
        assert!(Scenario::new().setup.tcp.is_none());
    }

    #[test]
    fn nxns_builders_arm_the_setup() {
        let mut s = Scenario::new()
            .probes(5)
            .nxns(NxnsAttack::with_fanout(32))
            .max_fetch(2);
        s.resolve();
        assert_eq!(s.setup.nxns.expect("nxns armed").zone.fanout, 32);
        assert_eq!(s.setup.resolver_max_fetch, Some(2));
        // k is clamped to at least one fetch per referral.
        assert_eq!(
            Scenario::new().max_fetch(0).setup.resolver_max_fetch,
            Some(1)
        );
        // And the default world stays NXNS-free with the fan-out
        // uncapped (the pinned digest depends on this).
        assert!(Scenario::new().setup.nxns.is_none());
        assert!(Scenario::new().setup.resolver_max_fetch.is_none());
    }

    #[test]
    fn scenario_defense_is_installed_and_counted() {
        // A near-zero rate (burst 1, one token per ~100 s) rate-limits
        // most repeat queries, so the netsim defense counters must move.
        let report = Scenario::new()
            .probes(12)
            .ttl(60)
            .duration_min(60)
            .with_attack(Attack::loss(0.0).window_min(10, 50))
            .rrl_qps(0.01)
            .seed(8)
            .telemetry(TelemetryConfig::every_mins(10))
            .run();
        let m = report.metrics().expect("telemetry on");
        assert!(m.counter_total("netsim", None, "rrl_limited").unwrap_or(0) > 0);
        assert!(
            m.counter_total("netsim", None, "defense_drops")
                .unwrap_or(0)
                > 0
        );
    }

    #[test]
    fn unarmed_scenario_has_an_empty_fault_plan() {
        let plan = Scenario::new().probes(10).fault_plan();
        assert!(plan.is_empty());
        // And the armed plan survives the portable JSON round trip.
        let armed = Scenario::new()
            .with_attack(Attack::loss(0.9).window_min(60, 60))
            .fault_plan();
        assert_eq!(FaultPlan::from_json(&armed.to_json()).unwrap(), armed);
    }

    #[test]
    fn healthy_scenario_reports_high_ok_fraction() {
        let report = Scenario::new().probes(40).duration_min(60).seed(3).run();
        assert!(report.ok_fraction() > 0.9, "{}", report.ok_fraction());
        assert_eq!(report.traffic_multiplier(), Some(1.0));
        // The population's cache-miss mix shows through the facade too.
        let miss = report.miss_rate();
        assert!((0.05..0.6).contains(&miss), "miss rate {miss}");
    }

    #[test]
    fn attack_scenario_degrades_and_amplifies() {
        let report = Scenario::new()
            .probes(60)
            .ttl(60) // no cache protection
            .with_attack(Attack::loss(0.95).window_min(40, 60))
            .duration_min(120)
            .seed(5)
            .run();
        let during = report
            .ok_fraction_during_attack()
            .expect("rounds in window");
        assert!(during < 0.8, "ok during 95% attack: {during}");
        assert!(report.traffic_multiplier().expect("baseline exists") > 1.5);
    }

    #[test]
    fn attack_window_past_end_of_run_yields_none() {
        let report = Scenario::new()
            .probes(10)
            .duration_min(30)
            .with_attack(Attack::complete().window_min(500, 60))
            .seed(11)
            .run();
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
        let report = Scenario::new()
            .probes(10)
            .duration_min(40)
            .with_attack(Attack::loss(0.5).window_min(0, 40))
            .seed(12)
            .run();
        // Everything is under attack: no pre-attack rounds to compare
        // against — previously this reported a misleading 0.0.
        assert_eq!(report.traffic_multiplier(), None);
        // The OK fraction during the attack is still well-defined.
        assert!(report.ok_fraction_during_attack().is_some());
    }

    #[test]
    fn zero_round_scenario_yields_none_not_zero() {
        let report = Scenario::new().probes(10).duration_min(0).seed(13).run();
        assert!(report.output.log.records.is_empty());
        assert_eq!(report.ok_fraction_during_attack(), None);
    }

    #[test]
    fn metric_snapshots_are_deterministic_per_seed() {
        let run = || {
            Scenario::new()
                .probes(15)
                .duration_min(40)
                .with_attack(Attack::loss(0.9).window_min(20, 20))
                .seed(21)
                .telemetry(TelemetryConfig::every_mins(10))
                .run()
        };
        let (a, b) = (run(), run());
        let (ra, rb) = (a.metrics().unwrap(), b.metrics().unwrap());
        assert!(!ra.is_empty());
        assert_eq!(ra.snapshot_times(), rb.snapshot_times());
        assert_eq!(
            ra.to_json(),
            rb.to_json(),
            "identical seeds, identical series"
        );
    }
}

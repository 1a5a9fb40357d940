//! Experiment orchestration: one [`ExperimentSetup`] describes a run in
//! the shape of the paper's Table 4; [`run_experiment`] executes it and
//! returns the client log, the authoritative-side view, and the
//! population metadata.

use std::sync::Arc;

use dike_attack::Attack;
use dike_auth::NxnsZoneConfig;
use dike_defense::{Defense, DefensePlan};
use dike_faults::{Fault, FaultPlan};
use dike_netsim::{trace, Addr, QueueConfig, SimDuration, SimTime, Simulator};
use dike_stats::server_view::ServerView;
use dike_stub::ProbeLog;
use dike_telemetry::sync::Mutex;
use dike_telemetry::{MetricsRegistry, TelemetryConfig};

use crate::cookies::{install_tcp_exhaustion, ExhaustionStats, TcpExhaustion};
use crate::defense::{
    install_late_wave, install_spoofed_flood, LateResolverWave, SpoofedFlood, SpoofedStats,
};
use crate::nxns::{install_nxns, NxnsStats};
use crate::population::PopulationMix;
use crate::topology::{self, BuildConfig, VpMeta};

/// Which authoritatives the attack hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackScope {
    /// Only `ns1` (Experiment D).
    OneNs,
    /// Both name servers (everything else).
    BothNs,
}

/// An attack in Table 4 terms: loss rate, scope, and window. Built
/// field by field, or through [`AttackPlan::loss`] and the setters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackPlan {
    /// Minutes after start when the attack begins.
    pub start_min: u64,
    /// Attack duration in minutes.
    pub duration_min: u64,
    /// Packet loss at the victims (1.0 = complete failure).
    pub loss: f64,
    /// One or both name servers.
    pub scope: AttackScope,
}

impl AttackPlan {
    /// An attack dropping this fraction of ingress at the victims
    /// (`1.0` = complete failure). Defaults: both name servers, minutes
    /// 60–120 (Table 4's common window). Loss is clamped to `[0, 1]`.
    pub fn loss(loss: f64) -> Self {
        AttackPlan {
            start_min: 60,
            duration_min: 60,
            loss: loss.clamp(0.0, 1.0),
            scope: AttackScope::BothNs,
        }
    }

    /// A complete outage (loss `1.0`), the paper's experiments A–C.
    pub fn complete() -> Self {
        AttackPlan::loss(1.0)
    }

    /// Which authoritatives the attack hits.
    pub fn scope(mut self, scope: AttackScope) -> Self {
        self.scope = scope;
        self
    }

    /// When the attack starts and how long it lasts, in minutes.
    pub fn window_min(mut self, start: u64, duration: u64) -> Self {
        self.start_min = start;
        self.duration_min = duration;
        self
    }

    /// The victim addresses this plan targets (the scope resolved against
    /// the fixed hierarchy layout, see [`crate::topology::ns_addrs`]).
    pub fn targets(&self) -> Vec<Addr> {
        let ns = crate::topology::ns_addrs();
        match self.scope {
            AttackScope::OneNs => vec![ns[0]],
            AttackScope::BothNs => ns.to_vec(),
        }
    }

    /// This plan as a [`Fault`]: the paper's random-drop attack is the
    /// compatibility case of the fault engine, so every Table 4 scenario
    /// is also a serializable [`FaultPlan`].
    pub fn fault(&self) -> Fault {
        Fault::random_drop(Attack::partial(
            self.targets(),
            self.loss,
            SimDuration::from_mins(self.start_min).after_zero(),
            SimDuration::from_mins(self.duration_min),
        ))
    }

    /// This attack as a one-fault [`FaultPlan`] — the exact faults a
    /// setup carrying it will schedule. Random drop is the fault
    /// engine's compatibility case, so the same plan can be serialized
    /// ([`FaultPlan::to_json`]) or composed with richer faults.
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::new().with(self.fault())
    }

    /// The paper's future-work extension (§5.1) as faults: one square
    /// [`Fault::flood`] per target over the attack window, installing a
    /// `queue` there whose capacity the flood eats at the attack's
    /// `loss`, so queries that survive the random drop also pay
    /// queueing delay.
    pub fn queue_floods(&self, queue: QueueConfig) -> FaultPlan {
        let start = SimDuration::from_mins(self.start_min).after_zero();
        let duration = SimDuration::from_mins(self.duration_min);
        self.targets()
            .into_iter()
            .map(|ns| Fault::flood(ns, start, duration, self.loss, queue))
            .fold(FaultPlan::new(), FaultPlan::with)
    }
}

/// A full experiment description.
#[derive(Debug, Clone)]
pub struct ExperimentSetup {
    /// Simulator seed (packet-level randomness).
    pub seed: u64,
    /// Population seed (who talks to whom).
    pub population_seed: u64,
    /// Probe count.
    pub n_probes: usize,
    /// Zone answer TTL.
    pub ttl: u32,
    /// Round pacing.
    pub round_interval: SimDuration,
    /// Rounds per probe.
    pub rounds: u32,
    /// Total simulated duration.
    pub total_duration: SimDuration,
    /// The attack, if any.
    pub attack: Option<AttackPlan>,
    /// Population mix.
    pub mix: PopulationMix,
    /// First-round spread window.
    pub first_round_spread: SimDuration,
    /// Per-round jitter.
    pub round_jitter: SimDuration,
    /// Record full server-side drill-down for this probe id (Table 7).
    pub track_probe: Option<u16>,
    /// Model regional last-mile latencies (see
    /// [`crate::topology::BuildConfig::regional_latency`]).
    pub regional_latency: bool,
    /// Collect sim-time metric snapshots during the run. The registry
    /// comes back in [`ExperimentOutput::metrics`]; auth servers and the
    /// public-farm resolvers get human-readable node labels.
    pub telemetry: Option<TelemetryConfig>,
    /// Additional faults beyond the classic random-drop attack: node
    /// crashes/restarts, bursty link degrades, queue floods (see
    /// `dike-faults`; [`AttackPlan::queue_floods`] adds the paper's
    /// future-work queueing to an attack). Scheduled after `attack`, so
    /// the two compose.
    pub faults: Option<FaultPlan>,
    /// Server-side defenses at the authoritatives: RRL, class-based
    /// admission, anycast scale-out (see `dike-defense`). Installed
    /// before the run starts so history classifiers observe pre-attack
    /// traffic; composes with `attack` and `faults`.
    pub defense: Option<DefensePlan>,
    /// A deterministic spoofed-source query flood against the two
    /// cachetest.nl authoritatives — the traffic server-side defenses
    /// exist to refuse. The fleet's tally comes back in
    /// [`ExperimentOutput::spoofed`].
    pub spoofed_flood: Option<SpoofedFlood>,
    /// A wave of legitimate resolvers that first appear after the attack
    /// onset — the population history-based classifiers misfile as
    /// unknown. Tally in [`ExperimentOutput::late`].
    pub late_wave: Option<LateResolverWave>,
    /// Install TCP listeners (with this config) at all four hierarchy
    /// servers and give every recursive an RFC 7766 TC=1 → TCP retry
    /// path. `None` keeps the pure-UDP world (and its pinned digest).
    pub tcp: Option<dike_netsim::TcpConfig>,
    /// Arm RFC 7873 DNS cookies end to end: authoritatives mint server
    /// cookies with this secret and every recursive attaches cookies to
    /// upstream queries. Pair with a `Defense::cookie` layer in
    /// [`ExperimentSetup::defense`] to exempt cookie-validated queries
    /// from RRL.
    pub cookie_secret: Option<u64>,
    /// A TCP connection-table exhaustion attack against the two
    /// cachetest.nl authoritatives: hog nodes that open connections and
    /// hold them. Tally in [`ExperimentOutput::exhaustion`].
    pub tcp_exhaustion: Option<TcpExhaustion>,
    /// Arm the NXNSAttack: a malicious `attack` zone and a victim
    /// `victim` zone join the hierarchy, and a dedicated attack client
    /// cycles fresh delegation cuts through its own recursive. Tally in
    /// [`ExperimentOutput::nxns`].
    pub nxns: Option<NxnsZoneConfig>,
    /// MaxFetch(k), the NXNSAttack mitigation, applied to every
    /// recursive in the population (see
    /// [`crate::topology::BuildConfig::resolver_max_fetch`]).
    pub resolver_max_fetch: Option<u32>,
    /// Run the simulator's invariant auditor at the end of the run and
    /// panic on violations (datagram conservation, timer hygiene,
    /// crash/restart pairing). Also enabled by the `DIKE_AUDIT`
    /// environment variable (any value but `0`).
    pub audit: bool,
    /// Cut the world into this many shards and run them on parallel
    /// worker threads (see [`crate::shard`]); the only way into the
    /// sharded engine. `0` or `1` keeps the single-threaded engine and
    /// its pinned digest; `>= 2` switches to the sharded engine, whose
    /// outcome is identical for every shard count but *not* to the
    /// single-threaded engine's (per-node RNG streams and the
    /// cross-shard latency floor). Several features are not shard-aware
    /// and are rejected — see [`crate::shard::run_experiment_sharded`].
    /// Sharding does not pay: at the paper's 9.2k probes two shards ran
    /// at 0.76–0.93× the speed of one, so parallelism across sweep cells
    /// and replicates ([`crate::SweepEngine`]) is the parallelism.
    pub shards: usize,
}

impl ExperimentSetup {
    /// A setup with sensible defaults: no attack, 20-minute rounds.
    pub fn new(n_probes: usize, ttl: u32) -> Self {
        ExperimentSetup {
            seed: 42,
            population_seed: 7,
            n_probes,
            ttl,
            round_interval: SimDuration::from_mins(20),
            rounds: 6,
            total_duration: SimDuration::from_mins(130),
            attack: None,
            mix: PopulationMix::default(),
            first_round_spread: SimDuration::from_mins(5),
            round_jitter: SimDuration::from_mins(4),
            track_probe: None,
            regional_latency: true,
            telemetry: None,
            faults: None,
            defense: None,
            spoofed_flood: None,
            late_wave: None,
            tcp: None,
            cookie_secret: None,
            tcp_exhaustion: None,
            nxns: None,
            resolver_max_fetch: None,
            audit: false,
            shards: 1,
        }
    }

    /// `n_probes` probes asked once every `interval_min` minutes (must be
    /// positive) for `total_min` minutes. Duration, pacing and round
    /// count are reconciled here and nowhere else:
    /// `rounds = total_min / interval_min`. Everything else as in
    /// [`ExperimentSetup::new`].
    pub fn paced(n_probes: usize, ttl: u32, interval_min: u64, total_min: u64) -> Self {
        ExperimentSetup {
            round_interval: SimDuration::from_mins(interval_min),
            rounds: (total_min / interval_min) as u32,
            total_duration: SimDuration::from_mins(total_min),
            ..ExperimentSetup::new(n_probes, ttl)
        }
    }

    /// The probe count at `scale` (1.0 ≈ the paper's 9.2k probes).
    pub fn probes_at_scale(scale: f64) -> usize {
        ((9_200.0 * scale).round() as usize).max(10)
    }

    /// A run paced like Table 4's: the population at `scale`, one round
    /// every 10 minutes for `total_min` minutes, first rounds spread over
    /// 8 minutes (so the first round fires within the first interval and
    /// the configured number of pre-attack queries happens), 4 minutes of
    /// per-round jitter. No attack yet.
    pub fn table4_paced(scale: f64, ttl: u32, total_min: u64, seed: u64) -> Self {
        ExperimentSetup {
            seed,
            first_round_spread: SimDuration::from_mins(8),
            round_jitter: SimDuration::from_mins(4),
            ..ExperimentSetup::paced(Self::probes_at_scale(scale), ttl, 10, total_min)
        }
    }

    /// Arms server-side defenses at the two authoritatives. `plan`
    /// builds them from the name-server addresses and the onset — the
    /// attack's first minute, or minute 0 without an attack. With
    /// cookies armed ([`ExperimentSetup::cookie_secret`]), every
    /// authoritative the plan gates with RRL or admission also gets the
    /// cookie exemption (validation rejects one without a gate). An
    /// empty plan leaves `defense` at `None`, so the simulator keeps its
    /// defense-free hot path and the pinned determinism digest.
    pub fn arm_defense(&mut self, plan: impl FnOnce([Addr; 2], SimTime) -> DefensePlan) {
        let ns = topology::ns_addrs();
        let onset = SimDuration::from_mins(self.attack.map_or(0, |a| a.start_min)).after_zero();
        let mut plan = plan(ns, onset);
        if let Some(secret) = self.cookie_secret {
            for ns in ns {
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
        self.defense = (!plan.is_empty()).then_some(plan);
    }
}

/// The world a setup asks [`topology::build`] for.
impl From<&ExperimentSetup> for BuildConfig {
    fn from(setup: &ExperimentSetup) -> Self {
        BuildConfig {
            n_probes: setup.n_probes,
            ttl: setup.ttl,
            mix: setup.mix,
            first_round_spread: setup.first_round_spread,
            round_interval: setup.round_interval,
            round_jitter: setup.round_jitter,
            rounds: setup.rounds,
            population_seed: setup.population_seed,
            regional_latency: setup.regional_latency,
            resolver_tcp_fallback: setup.tcp.is_some(),
            cookie_secret: setup.cookie_secret,
            resolver_max_fetch: setup.resolver_max_fetch,
            nxns: setup.nxns,
        }
    }
}

/// Whether runs should end with an invariant audit: the setup's `audit`
/// flag, or the `DIKE_AUDIT` environment variable set to anything but
/// `0`.
pub(crate) fn audit_enabled(setup: &ExperimentSetup) -> bool {
    setup.audit || std::env::var("DIKE_AUDIT").is_ok_and(|v| v != "0")
}

/// Everything a run produces.
#[derive(Debug)]
pub struct ExperimentOutput {
    /// The client-side answer log.
    pub log: ProbeLog,
    /// The authoritative-side traffic view.
    pub server: ServerView,
    /// Per-VP wiring metadata.
    pub vps: Vec<VpMeta>,
    /// Addresses of the Google-like farm backends.
    pub google_backends: Vec<dike_netsim::Addr>,
    /// All public frontend (R1) addresses.
    pub public_r1s: std::collections::HashSet<dike_netsim::Addr>,
    /// Probes in the run.
    pub n_probes: usize,
    /// Vantage points in the run.
    pub n_vps: usize,
    /// Metric snapshots, present when [`ExperimentSetup::telemetry`] was
    /// set. Query counters for `auth:ns1`/`auth:ns2` here agree with
    /// [`ExperimentOutput::server`]'s totals — two views of one run.
    pub metrics: Option<MetricsRegistry>,
    /// Hot-path throughput counters (events popped, datagrams decoded,
    /// wall-clock nanoseconds). Observability only — not part of the
    /// deterministic simulation state.
    pub perf: dike_netsim::SimPerf,
    /// The spoofed fleet's tally, present when
    /// [`ExperimentSetup::spoofed_flood`] was set.
    pub spoofed: Option<SpoofedStats>,
    /// The late legitimate wave's tally, present when
    /// [`ExperimentSetup::late_wave`] was set.
    pub late: Option<SpoofedStats>,
    /// The connection-hog fleet's tally, present when
    /// [`ExperimentSetup::tcp_exhaustion`] was set.
    pub exhaustion: Option<ExhaustionStats>,
    /// The NXNS attack client's tally, present when
    /// [`ExperimentSetup::nxns`] was set.
    pub nxns: Option<NxnsStats>,
}

/// Runs one experiment to completion. With [`ExperimentSetup::shards`]
/// `>= 2` the run goes through the sharded parallel engine instead (see
/// [`crate::shard`]).
pub fn run_experiment(setup: &ExperimentSetup) -> ExperimentOutput {
    if setup.shards >= 2 {
        return crate::shard::run_experiment_sharded(setup);
    }
    let mut sim = Simulator::new(setup.seed);
    let topo = topology::build(&mut sim, &BuildConfig::from(setup));

    // The TCP fallback path needs listeners at every hierarchy server;
    // installing none keeps the pure-UDP world (and its pinned digest)
    // untouched.
    if let Some(tcp_cfg) = setup.tcp {
        for addr in [topo.root, topo.nl, topo.ns[0], topo.ns[1]] {
            sim.set_tcp_listener(addr, tcp_cfg);
        }
    }

    // Optional telemetry: snapshot every node's counters on sim-time
    // boundaries; label the servers the analysis will look up by name.
    let registry = setup.telemetry.map(|tcfg| {
        let reg = dike_telemetry::shared_registry();
        sim.attach_telemetry(reg.clone(), tcfg);
        sim.label_addr(topo.root, "auth:root");
        sim.label_addr(topo.nl, "auth:nl-tld");
        sim.label_addr(topo.ns[0], "auth:ns1");
        sim.label_addr(topo.ns[1], "auth:ns2");
        for (i, b) in topo.google_backends.iter().enumerate() {
            sim.label_addr(*b, &format!("resolver:google-backend{i}"));
        }
        for r1 in &topo.public_r1s {
            sim.label_addr(*r1, "resolver:public-frontend");
        }
        if let Some(nx) = &topo.nxns {
            sim.label_addr(nx.attacker, "auth:nxns-attacker");
            sim.label_addr(nx.victim, "auth:nxns-victim");
            sim.label_addr(nx.resolver, "resolver:nxns-attack");
        }
        reg
    });

    // Server-side accounting at the two cachetest.nl authoritatives.
    let mut view = ServerView::new(topo.ns, SimDuration::from_mins(10));
    if let Some(pid) = setup.track_probe {
        view.track_probe(pid);
    }
    let (view_handle, sink) = trace::shared(view);
    sim.add_sink(sink);

    if let Some(plan) = setup.attack {
        // The classic attack rides through the fault engine as its
        // compatibility case; plan.targets() matches topo.ns by the
        // fixed build order.
        debug_assert_eq!(plan.targets()[0], topo.ns[0]);
        plan.fault_plan()
            .schedule(&mut sim)
            .unwrap_or_else(|(_, e)| panic!("invalid attack plan: {e}"));
    }

    if let Some(faults) = &setup.faults {
        faults
            .schedule(&mut sim)
            .unwrap_or_else(|(i, e)| panic!("invalid fault plan (fault {i}): {e}"));
    }

    if let Some(defense) = &setup.defense {
        defense
            .schedule(&mut sim)
            .unwrap_or_else(|(i, e)| panic!("invalid defense plan (defense {i}): {e}"));
    }

    let spoofed_handle = setup
        .spoofed_flood
        .as_ref()
        .map(|flood| install_spoofed_flood(&mut sim, flood, topo.ns));

    let late_handle = setup
        .late_wave
        .as_ref()
        .map(|wave| install_late_wave(&mut sim, wave, topo.ns));

    let exhaustion_handle = setup
        .tcp_exhaustion
        .as_ref()
        .map(|ex| install_tcp_exhaustion(&mut sim, ex, topo.ns));

    let nxns_handle = setup.nxns.as_ref().map(|zone| {
        let nx = topo.nxns.expect("BuildConfig armed the NXNS world");
        install_nxns(&mut sim, zone, nx.resolver)
    });

    sim.run_until(setup.total_duration.after_zero());
    if audit_enabled(setup) {
        sim.audit().assert_clean();
    }
    let perf = sim.perf();
    drop(sim); // release the Arc clones the simulator holds

    let log = sole(topo.log, "log");
    let server = sole(view_handle, "view");
    let metrics = registry.map(|h| sole(h, "registry"));
    let spoofed = spoofed_handle.map(|h| sole(h, "spoofed tally"));
    let late = late_handle.map(|h| sole(h, "late-wave tally"));
    let exhaustion = exhaustion_handle.map(|h| sole(h, "hog tally"));
    let nxns = nxns_handle.map(|h| sole(h, "nxns tally"));
    let n_vps = topo.vps.len();
    ExperimentOutput {
        log,
        server,
        vps: topo.vps,
        google_backends: topo.google_backends,
        public_r1s: topo.public_r1s,
        n_probes: topo.n_probes,
        n_vps,
        metrics,
        perf,
        spoofed,
        late,
        exhaustion,
        nxns,
    }
}

/// Takes back a run's shared handle once the simulator (or the shards),
/// which held the other clones, is dropped. `what` names the handle in
/// the panic.
pub(crate) fn sole<T>(handle: Arc<Mutex<T>>, what: &str) -> T {
    Arc::try_unwrap(handle)
        .unwrap_or_else(|_| panic!("simulator dropped, so the {what} has one owner"))
        .into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_run_produces_rounds_times_vps_queries() {
        let mut setup = ExperimentSetup::new(40, 3600);
        setup.rounds = 3;
        setup.total_duration = SimDuration::from_mins(70);
        let out = run_experiment(&setup);
        // Every VP fires every round (jitter may push the tail past the
        // horizon, so allow slack).
        let expected = out.n_vps * 3;
        assert!(
            out.log.records.len() as f64 > expected as f64 * 0.8,
            "{} records for {} expected",
            out.log.records.len(),
            expected
        );
        assert!(out.server.total_queries > 0);
    }

    #[test]
    fn telemetry_auth_counters_agree_with_server_view() {
        let mut setup = ExperimentSetup::new(30, 3600);
        setup.rounds = 2;
        setup.total_duration = SimDuration::from_mins(50);
        setup.telemetry = Some(TelemetryConfig::every_mins(10));
        let out = run_experiment(&setup);
        let reg = out.metrics.expect("telemetry requested");

        // The two cachetest.nl authoritatives, found by label.
        let ns_ids: Vec<u32> = reg
            .node_labels()
            .filter(|(_, l)| *l == "auth:ns1" || *l == "auth:ns2")
            .map(|(id, _)| id)
            .collect();
        assert_eq!(ns_ids.len(), 2);

        // The registry's query counters and the trace-sink ServerView are
        // two independent accountings of the same run; they must agree.
        let telemetry_total: u64 = ns_ids
            .iter()
            .map(|&id| reg.counter_total("auth", Some(id), "queries").unwrap_or(0))
            .sum();
        assert!(telemetry_total > 0);
        assert_eq!(telemetry_total, out.server.total_queries);

        // Offered-datagram counters at the same nodes use the same
        // accounting point (before loss filters), so they agree too.
        let offered: u64 = ns_ids
            .iter()
            .map(|&id| {
                reg.counter_total("netsim", Some(id), "datagrams_offered")
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(offered, out.server.total_queries);
    }

    #[test]
    fn complete_attack_starves_clients_after_ttl() {
        let mut setup = ExperimentSetup::new(40, 1800);
        setup.round_interval = SimDuration::from_mins(10);
        setup.rounds = 12;
        setup.total_duration = SimDuration::from_mins(125);
        setup.attack = Some(AttackPlan {
            start_min: 60,
            duration_min: 65,
            loss: 1.0,
            scope: AttackScope::BothNs,
        });
        let out = run_experiment(&setup);
        let bins = dike_stats::timeseries::outcome_timeseries(&out.log, SimDuration::from_mins(10));
        // Before the attack: nearly everything OK.
        let pre: f64 = bins[..5].iter().map(|b| b.ok_fraction()).sum::<f64>() / 5.0;
        assert!(pre > 0.9, "pre-attack ok fraction {pre}");
        // Well after the attack started and caches (30 min) expired:
        // mostly failures.
        let late = &bins[10.min(bins.len() - 1)];
        assert!(
            late.ok_fraction() < 0.35,
            "late ok fraction {} should collapse",
            late.ok_fraction()
        );
    }

    #[test]
    fn paced_derives_rounds_from_duration_and_interval() {
        let s = ExperimentSetup::paced(50, 300, 20, 120);
        assert_eq!((s.n_probes, s.ttl, s.rounds), (50, 300, 6));
        assert_eq!(s.round_interval, SimDuration::from_mins(20));
        assert_eq!(s.total_duration, SimDuration::from_mins(120));
        // A partial last interval holds no round.
        assert_eq!(ExperimentSetup::paced(50, 300, 10, 125).rounds, 12);
        // Table 4's pacing is the same arithmetic at 10 minutes.
        assert_eq!(ExperimentSetup::table4_paced(0.01, 1800, 180, 1).rounds, 18);
    }

    #[test]
    fn typed_attacks_produce_valid_single_fault_plans() {
        // Every attack shape resolves to exactly one valid random-drop
        // fault, and equal attacks mean equal plans (same JSON too).
        let cases = [
            AttackPlan::loss(0.5),
            AttackPlan::complete().scope(AttackScope::OneNs),
            AttackPlan::loss(0.9).window_min(20, 45),
            AttackPlan::loss(0.75)
                .scope(AttackScope::OneNs)
                .window_min(30, 20),
        ];
        for attack in cases {
            let (a, b) = (attack.fault_plan(), attack.fault_plan());
            assert_eq!(a, b);
            assert_eq!(a.to_json(), b.to_json());
            assert_eq!(a.len(), 1, "one random-drop fault");
            a.validate().expect("typed-attack plan is valid");
            // And it survives the portable JSON round trip.
            assert_eq!(FaultPlan::from_json(&a.to_json()).unwrap(), a);
        }
    }

    fn rrl_at_both(rate_qps: f64) -> impl FnOnce([Addr; 2], SimTime) -> DefensePlan {
        move |ns, onset| {
            let config = dike_defense::RrlConfig {
                prefix_bits: 32,
                ..dike_defense::RrlConfig::slip_at(rate_qps, 2)
            };
            let mut plan = DefensePlan::new();
            for ns in ns {
                plan.push(Defense::rrl(ns, config).starting_at(onset));
            }
            plan
        }
    }

    #[test]
    fn defenses_arm_at_the_attack_onset_and_cookies_ride_on_gates() {
        let mut s = ExperimentSetup::new(5, 1800);
        s.attack = Some(AttackPlan::loss(0.9).window_min(30, 30));
        s.arm_defense(rrl_at_both(0.2));
        let plan = s.defense.clone().expect("two RRL layers");
        assert_eq!(plan.len(), 2, "one RRL layer per authoritative");
        plan.validate().expect("armed plans are valid");
        let onset = SimDuration::from_mins(30).after_zero();
        assert!(plan
            .defenses
            .iter()
            .all(|d| matches!(d, Defense::Rrl { start, .. } if *start == onset)));

        // With cookies armed, each gate gets its exemption — and the
        // combined plan validates and survives the JSON round trip.
        s.cookie_secret = Some(crate::cookies::COOKIE_SECRET);
        s.arm_defense(rrl_at_both(0.05));
        let plan = s.defense.clone().expect("gates and exemptions");
        assert_eq!(plan.len(), 4, "2 RRL gates + 2 cookie exemptions");
        plan.validate().expect("gated cookie plans are valid");
        assert_eq!(DefensePlan::from_json(&plan.to_json()).unwrap(), plan);

        // No gate, nothing to exempt from; an empty plan is no defense
        // at all (the pinned determinism digest depends on this), and
        // without an attack the onset is minute 0.
        s.arm_defense(|_, _| DefensePlan::new());
        assert!(s.defense.is_none());
        s.attack = None;
        s.arm_defense(|_, onset| {
            assert_eq!(onset, SimDuration::ZERO.after_zero());
            DefensePlan::new()
        });
    }

    #[test]
    fn armed_defense_is_installed_and_counted() {
        // A near-zero rate (burst 1, one token per ~100 s) rate-limits
        // most repeat queries, so the netsim defense counters must move.
        let mut setup = ExperimentSetup {
            seed: 8,
            attack: Some(AttackPlan::loss(0.0).window_min(10, 50)),
            telemetry: Some(TelemetryConfig::every_mins(10)),
            ..ExperimentSetup::paced(12, 60, 10, 60)
        };
        setup.arm_defense(rrl_at_both(0.01));
        let m = run_experiment(&setup).metrics.expect("telemetry on");
        assert!(m.counter_total("netsim", None, "rrl_limited").unwrap_or(0) > 0);
        assert!(
            m.counter_total("netsim", None, "defense_drops")
                .unwrap_or(0)
                > 0
        );
    }
}

//! Paper §8 ("Implications") as a controlled experiment.
//!
//! The paper *explains* the different outcomes of the Nov 2015 root DDoS
//! (no visible user impact) and the Oct 2016 Dyn attack (prominent sites
//! down) by three factors: cache lifetimes vs. attack duration,
//! nameserver replication, and IP anycast — but could only argue from
//! natural-experiment evidence. Here we turn the argument into a
//! controlled sweep:
//!
//! * a zone served by `ns_count` nameservers, each an **anycast VIP**
//!   over `sites_per_ns` sites;
//! * a DDoS takes out a chosen number of sites completely;
//! * clients (probes behind recursive resolvers) keep querying.
//!
//! Sweeping TTL × attacked-sites reproduces both stories: the root
//! (long TTLs, many sites, some always alive) sails through; a Dyn-like
//! setup (CDN-style 120 s TTLs, every site under fire) collapses.

use std::sync::Arc;

use dike_netsim::{Addr, NodeId, SimDuration, Simulator};
use dike_resolver::{profiles, RecursiveResolver};
use dike_stats::timeseries::{ok_fraction_in, outcome_timeseries, OutcomeBin};
use dike_stub::{new_shared_log, StubConfig, StubProbe};
use dike_wire::{Name, RData, Record};

use dike_attack::Attack;
use dike_auth::{AuthServer, CacheTestZone};
use dike_faults::{Fault, FaultPlan};

/// One point in the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImplicationsConfig {
    /// Nameservers for the zone (NS records), each its own anycast VIP.
    pub ns_count: usize,
    /// Anycast sites behind each nameserver.
    pub sites_per_ns: usize,
    /// Sites hit by the attack (spread round-robin across nameservers,
    /// so `ns_count * sites_per_ns` means total service failure).
    pub sites_attacked: usize,
    /// Zone TTL in seconds.
    pub ttl: u32,
    /// Attack concentration: `true` fills whole nameservers first (all
    /// of NS1's sites before touching NS2 — the "strongest authoritative
    /// survives" case); `false` spreads victims round-robin across
    /// nameservers.
    pub concentrated: bool,
    /// Probes.
    pub n_probes: usize,
    /// Seed.
    pub seed: u64,
}

impl ImplicationsConfig {
    /// A root-like service: 2 NS × 4 sites, day-scale TTL (root-zone
    /// records carry TTLs of 1–6 days, §8).
    pub fn root_like(n_probes: usize, seed: u64) -> Self {
        ImplicationsConfig {
            ns_count: 2,
            sites_per_ns: 4,
            sites_attacked: 4,
            ttl: 86_400,
            concentrated: false,
            n_probes,
            seed,
        }
    }

    /// A Dyn-customer-like service: CDN-style 120 s TTLs.
    pub fn dyn_like(n_probes: usize, seed: u64) -> Self {
        ImplicationsConfig {
            ttl: 120,
            ..ImplicationsConfig::root_like(n_probes, seed)
        }
    }
}

/// One sweep point's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImplicationsResult {
    /// The configuration.
    pub config: ImplicationsConfig,
    /// Share of the attack window's queries that were answered; `None`
    /// when the window saw no query.
    pub ok_during_attack: Option<f64>,
    /// The same share before the attack (sanity baseline; skips the
    /// first, cold-cache round).
    pub ok_before_attack: Option<f64>,
}

impl ImplicationsResult {
    /// Folds a run's 10-minute outcome bins into the two windows, each
    /// query counting once ([`ok_fraction_in`]).
    fn from_bins(config: ImplicationsConfig, bins: &[OutcomeBin]) -> Self {
        let attack_end = ATTACK_START_MIN + ATTACK_DURATION_MIN;
        ImplicationsResult {
            config,
            ok_during_attack: ok_fraction_in(bins, ATTACK_START_MIN, attack_end),
            ok_before_attack: ok_fraction_in(bins, 10, ATTACK_START_MIN),
        }
    }
}

/// Attack timing: warm for 60 minutes, attack for 60, observe 30 more.
const ATTACK_START_MIN: u64 = 60;
const ATTACK_DURATION_MIN: u64 = 60;
const TOTAL_MIN: u64 = 150;

/// Runs one sweep point. Panics at 40,000 probes or more, the fleet
/// limit [`crate::topology::build`] sets for probe ids.
pub fn run_implications(cfg: &ImplicationsConfig) -> ImplicationsResult {
    crate::topology::assert_probe_count(cfg.n_probes);
    let mut sim = Simulator::new(cfg.seed);

    // --- Build the anycast service: sites first, then the VIPs. ---
    // VIP addresses are deterministic (198.18.0.1, .2, ...), so the
    // parent zones can reference them as glue before the groups exist.
    let vip_base: u32 = 0xc612_0001;
    let vips: Vec<Addr> = (0..cfg.ns_count)
        .map(|i| Addr(vip_base + i as u32))
        .collect();

    // Root and nl zones (unicast, never attacked here).
    let root_addr = sim.next_addr();
    let nl_addr = Addr(root_addr.0 + 1);
    let v4 = |a: Addr| std::net::Ipv4Addr::from(a.0);

    let (root_zone, mut nl_zone) = crate::topology::root_and_nl_zones(nl_addr);
    let ct = Name::parse("cachetest.nl").expect("static");
    let ns_v4: Vec<std::net::Ipv4Addr> = vips.iter().map(|a| v4(*a)).collect();
    for (i, vip) in vips.iter().enumerate() {
        let ns_name = ct.child(&format!("ns{}", i + 1)).expect("static");
        nl_zone.add(Record::new(ct.clone(), 3_600, RData::Ns(ns_name.clone())));
        nl_zone.add(Record::new(ns_name, 3_600, RData::A(v4(*vip))));
    }

    sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(root_zone))));
    sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(nl_zone))));

    // Site nodes: `sites_per_ns` AuthServers per nameserver, grouped
    // into one anycast VIP each.
    let mut all_sites: Vec<Addr> = Vec::new();
    for (i, expected_vip) in vips.iter().enumerate() {
        let mut members: Vec<NodeId> = Vec::new();
        for _ in 0..cfg.sites_per_ns {
            let (id, addr) = sim.add_node(Box::new(
                AuthServer::new().with_zone(Box::new(CacheTestZone::new(cfg.ttl, &ns_v4))),
            ));
            members.push(id);
            all_sites.push(addr);
        }
        let vip = sim.add_anycast_group(&members);
        assert_eq!(vip, *expected_vip, "VIP allocation is deterministic");
        let _ = i;
    }

    // --- Resolver population: plain iterative resolvers shared by a few
    // probes each (anycast effects, not cache-miss mix, are under test).
    let n_resolvers = (cfg.n_probes / 3).max(1);
    let mut resolvers = Vec::with_capacity(n_resolvers);
    for i in 0..n_resolvers {
        let rc = if i % 2 == 0 {
            profiles::bind_like(vec![root_addr])
        } else {
            profiles::unbound_like(vec![root_addr])
        };
        let (_, addr) = sim.add_node(Box::new(RecursiveResolver::new(rc)));
        resolvers.push(addr);
    }

    let log = new_shared_log();
    for p in 0..cfg.n_probes {
        let pid = (p + 1) as u16;
        let r = resolvers[p % resolvers.len()];
        let mut stub = StubConfig::new(
            pid,
            vec![r],
            SimDuration::from_secs((p as u64 * 37) % 480),
            SimDuration::from_mins(10),
            (TOTAL_MIN / 10) as u32,
        );
        stub.round_jitter = SimDuration::from_mins(3);
        sim.add_node(Box::new(StubProbe::new(stub, log.clone())));
    }

    // --- The attack: kill `sites_attacked` sites. A concentrated attack
    // fills whole nameservers first; a spread attack takes one site per
    // nameserver round-robin (a volumetric attack hitting the weakest
    // site of every letter).
    let pick_victims = |cfg: &ImplicationsConfig, all_sites: &[Addr]| -> Vec<Addr> {
        let k = cfg.sites_attacked.min(all_sites.len());
        if cfg.concentrated {
            all_sites[..k].to_vec()
        } else {
            (0..k)
                .map(|j| {
                    let ns = j % cfg.ns_count;
                    let slot = j / cfg.ns_count;
                    all_sites[ns * cfg.sites_per_ns + slot]
                })
                .collect()
        }
    };
    let victims = pick_victims(cfg, &all_sites);
    if !victims.is_empty() {
        FaultPlan::new()
            .with(Fault::random_drop(Attack::complete_failure(
                victims,
                SimDuration::from_mins(ATTACK_START_MIN).after_zero(),
                SimDuration::from_mins(ATTACK_DURATION_MIN),
            )))
            .schedule(&mut sim)
            .unwrap_or_else(|(_, e)| panic!("invalid attack: {e}"));
    }

    sim.run_until(SimDuration::from_mins(TOTAL_MIN).after_zero());
    drop(sim);
    let log = Arc::try_unwrap(log).expect("single owner").into_inner();

    let bins = outcome_timeseries(&log, SimDuration::from_mins(10));
    ImplicationsResult::from_bins(*cfg, &bins)
}

/// The sweep the `repro implications` target prints: TTLs × attacked
/// site counts for a 2-NS × 4-sites service.
pub fn sweep(n_probes: usize, seed: u64) -> Vec<ImplicationsResult> {
    let mut out = Vec::new();
    for &ttl in &[120u32, 1800, 86_400] {
        for &attacked in &[2usize, 4, 6, 8] {
            out.push(run_implications(&ImplicationsConfig {
                ns_count: 2,
                sites_per_ns: 4,
                sites_attacked: attacked,
                ttl,
                concentrated: false,
                n_probes,
                seed,
            }));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(before, during)` shares of a run whose windows saw traffic.
    fn shares(r: &ImplicationsResult) -> (f64, f64) {
        (
            r.ok_before_attack.expect("pre-attack rounds have traffic"),
            r.ok_during_attack.expect("attack rounds have traffic"),
        )
    }

    /// A dense round (100 queries, half OK) and a sparse partial round
    /// (2 queries, both OK) in the attack window: per-query weighting
    /// says 52/102 where the mean of per-round fractions said 75%. A
    /// window without a query has no share — it is not 0%.
    #[test]
    fn windows_weight_per_query_and_an_empty_window_has_no_share() {
        let bin = |start_min, ok, no_answer| OutcomeBin {
            start_min,
            ok,
            servfail: 0,
            no_answer,
        };
        let cfg = ImplicationsConfig::dyn_like(60, 1);
        let r = ImplicationsResult::from_bins(cfg, &[bin(60, 50, 50), bin(70, 2, 0)]);
        let during = r.ok_during_attack.expect("window has traffic");
        assert!((during - 52.0 / 102.0).abs() < 1e-12, "weighted: {during}");
        assert_eq!(r.ok_before_attack, None);
    }

    /// §8's core claim, controlled: the same partial-site attack that a
    /// long-TTL, multi-site service rides out takes down a short-TTL
    /// service once every site is hit.
    #[test]
    fn root_rides_it_out_dyn_does_not() {
        // Root-like: half the sites die; caches + surviving catchments
        // keep nearly everyone served.
        let root = run_implications(&ImplicationsConfig {
            sites_attacked: 4,
            ..ImplicationsConfig::root_like(60, 11)
        });
        let (root_before, root_during) = shares(&root);
        assert!(root_before > 0.95, "{root:?}");
        assert!(
            root_during > 0.85,
            "root-like service barely notices: {root:?}"
        );

        // Dyn-like: every site of every NS under fire, 120 s TTLs.
        let dyn_ = run_implications(&ImplicationsConfig {
            sites_attacked: 8,
            ..ImplicationsConfig::dyn_like(60, 11)
        });
        let (_, dyn_during) = shares(&dyn_);
        assert!(dyn_during < 0.35, "dyn-like service collapses: {dyn_:?}");
        assert!(
            root_during > dyn_during + 0.4,
            "the paper's contrast: {root_during} vs {dyn_during}"
        );
    }

    #[test]
    #[should_panic(expected = "40000 probes requested, but probe ids must stay below 40000")]
    fn a_fleet_that_reaches_the_wave_ids_is_refused() {
        run_implications(&ImplicationsConfig::root_like(40_000, 1));
    }

    /// "A DNS service composed of multiple authoritatives using IP
    /// anycast tends to be as resilient as the strongest individual
    /// authoritative" (§8): with a short TTL (caching can't help), a
    /// *concentrated* attack that kills every site of one nameserver
    /// barely matters — resolvers retry across to the surviving NS —
    /// while the same number of victims *spread* over both nameservers
    /// strands the resolvers whose catchments died on both.
    #[test]
    fn strongest_nameserver_carries_the_service() {
        let base = ImplicationsConfig {
            ns_count: 2,
            sites_per_ns: 2,
            sites_attacked: 2,
            ttl: 300, // short TTL: caching barely helps, diversity must
            concentrated: true,
            n_probes: 60,
            seed: 12,
        };
        let concentrated = run_implications(&base);
        let (before, concentrated_during) = shares(&concentrated);
        assert!(before > 0.95);
        assert!(
            concentrated_during > 0.9,
            "one whole NS dead, the other carries everyone: {concentrated:?}"
        );

        let spread = run_implications(&ImplicationsConfig {
            concentrated: false,
            ..base
        });
        assert!(
            shares(&spread).1 < concentrated_during - 0.1,
            "spread victims strand double-dead catchments: {spread:?} vs {concentrated:?}"
        );
    }
}

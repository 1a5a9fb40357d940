//! Builds the simulated world: the DNS hierarchy (root → `nl` →
//! `cachetest.nl`), the calibrated resolver population, and the probe
//! fleet.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use dike_auth::{nxns, AuthServer, CacheTestZone, NxnsZoneConfig, Zone};
use dike_cache::CacheConfig;
use dike_netsim::{Addr, LatencyModel, LinkParams, NodeId, SimDuration, Simulator};
use dike_resolver::{profiles, RecursiveResolver};
use dike_stub::{new_shared_log, SharedProbeLog, StubConfig, StubProbe, VpKey};
use dike_telemetry::rng::Rng;
use dike_wire::{Name, RData, Record, SoaData};

use crate::population::{PopulationMix, R1Kind};

/// Per-vantage-point wiring, kept for the analysis (Table 3 needs to know
/// which VPs sit behind public resolvers).
#[derive(Debug, Clone, Copy)]
pub struct VpMeta {
    /// The vantage point.
    pub vp: VpKey,
    /// What kind of R1 it queries.
    pub kind: R1Kind,
    /// The R1's address.
    pub r1: Addr,
}

/// The deterministic addresses of the two `cachetest.nl` authoritatives.
/// [`build`] always creates the hierarchy first (root, `nl`, ns1, ns2),
/// so these hold for every topology regardless of population size —
/// letting fault plans target the name servers before the world exists.
pub fn ns_addrs() -> [Addr; 2] {
    [Simulator::addr_at(2), Simulator::addr_at(3)]
}

/// The node ids behind [`ns_addrs`], for node-level faults (crashes).
pub fn ns_node_ids() -> [NodeId; 2] {
    [NodeId(2), NodeId(3)]
}

/// Addresses of the NXNSAttack cast, present when [`BuildConfig::nxns`]
/// is set. Like [`ns_addrs`], these are deterministic: the attacker and
/// victim authoritatives are always nodes 4 and 5, the dedicated attack
/// recursive node 6.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NxnsAddrs {
    /// The attacker's authoritative (serves the malicious `attack` zone).
    pub(crate) attacker: Addr,
    /// The victim's authoritative (absorbs the amplified NS fetches).
    pub(crate) victim: Addr,
    /// The recursive resolver the attack client queries.
    pub(crate) resolver: Addr,
}

/// Every probe id `1..=n_probes` must lie below this, the late wave's
/// first id: a larger fleet would reuse the late wave's query ids, then
/// the spoofed flood's query names, then wrap past `u16::MAX`.
pub const PROBE_ID_LIMIT: usize = crate::defense::WAVE_FIRST_ID as usize;

/// Panics unless every probe id `1..=n_probes` lies below
/// [`PROBE_ID_LIMIT`].
pub(crate) fn assert_probe_count(n_probes: usize) {
    assert!(
        n_probes < PROBE_ID_LIMIT,
        "{n_probes} probes requested, but probe ids must stay below {PROBE_ID_LIMIT}"
    );
}

/// Everything the analysis needs to know about the built world.
#[derive(Debug)]
pub struct Topology {
    /// Root server address.
    pub root: Addr,
    /// `nl` TLD server address.
    pub nl: Addr,
    /// The two `cachetest.nl` authoritatives.
    pub ns: [Addr; 2],
    /// The shared probe answer log.
    pub log: SharedProbeLog,
    /// Per-VP wiring.
    pub vps: Vec<VpMeta>,
    /// Backend addresses of the Google-like farm (farm 0).
    pub(crate) google_backends: Vec<Addr>,
    /// All public frontend addresses (the public R1s).
    pub(crate) public_r1s: HashSet<Addr>,
    /// Probes actually created.
    pub n_probes: usize,
    /// The NXNSAttack cast, when [`BuildConfig::nxns`] armed it.
    pub(crate) nxns: Option<NxnsAddrs>,
}

/// Topology build parameters.
#[derive(Debug, Clone, Copy)]
pub struct BuildConfig {
    /// Number of probes (the paper uses ~9.2k).
    pub n_probes: usize,
    /// The experiment zone's answer TTL.
    pub ttl: u32,
    /// Population mix.
    pub mix: PopulationMix,
    /// Probes' first rounds are spread uniformly over this window.
    pub first_round_spread: SimDuration,
    /// Round pacing (10 or 20 minutes in the paper).
    pub round_interval: SimDuration,
    /// Extra per-round jitter (Atlas spreads a round over ~5 minutes).
    pub round_jitter: SimDuration,
    /// Rounds per probe.
    pub rounds: u32,
    /// Seed for population sampling (distinct from the simulator seed so
    /// the same population can face different packet-level randomness).
    pub population_seed: u64,
    /// Model regional access latency: probes get a per-probe last-mile
    /// RTT class (close / medium / far, mirroring Atlas's geographic
    /// spread, paper §3.2), installed as the probe's access profile: it
    /// governs every path to and from the probe, and a probe talks only
    /// to its recursives.
    pub regional_latency: bool,
    /// Give every recursive resolver an RFC 7766 TCP-retry path: a TC=1
    /// answer (an RRL slip) re-asks the same server over a simulated
    /// connection instead of burning a UDP retry. Off by default — the
    /// TCP machinery draws no randomness and schedules no events until a
    /// resolver actually dials, so the UDP-only digest is unchanged.
    pub resolver_tcp_fallback: bool,
    /// Arm RFC 7873 DNS cookies end to end: the authoritatives mint
    /// server cookies with this secret, and every recursive attaches its
    /// (learned or client-only) cookie to upstream queries. Gate-side
    /// exemption is separate — a `Defense::cookie` layer with the same
    /// secret.
    pub cookie_secret: Option<u64>,
    /// MaxFetch(k), the NXNSAttack mitigation, applied population-wide:
    /// cap every recursive's NS-address fetches per referral. `None`
    /// leaves the fan-out uncapped (the paper-era default).
    pub resolver_max_fetch: Option<u32>,
    /// Arm the NXNSAttack world: an attacker authoritative serving a
    /// malicious delegation zone (`attack`), a victim authoritative
    /// (`victim`) absorbing the amplified NS-address fetches — both
    /// delegated from the root — and a dedicated attack recursive.
    /// `None` builds the classic world (and keeps its pinned digest).
    pub nxns: Option<NxnsZoneConfig>,
}

fn v4(addr: Addr) -> Ipv4Addr {
    Ipv4Addr::from(addr.0)
}

pub(crate) fn soa_for(origin: &Name) -> SoaData {
    SoaData {
        mname: origin.child("ns1").unwrap_or_else(|_| origin.clone()),
        rname: origin
            .child("hostmaster")
            .unwrap_or_else(|_| origin.clone()),
        serial: 1,
        refresh: 14_400,
        retry: 3_600,
        expire: 1_209_600,
        minimum: 60,
    }
}

/// The top of every simulated hierarchy: the root zone, delegating `nl`
/// to `ns1.dns.nl` at `nl_addr`, and the `nl` zone with its own apex NS
/// and address. Callers add their `cachetest.nl` delegation (and the
/// NXNS TLDs) to the zones they get back.
pub(crate) fn root_and_nl_zones(nl_addr: Addr) -> (Zone, Zone) {
    let nl = Name::parse("nl").expect("static");
    let nl_ns = Name::parse("ns1.dns.nl").expect("static");
    let zone = |origin: &Name, ttl: u32| {
        let mut zone = Zone::new(origin.clone(), ttl, soa_for(origin));
        zone.add(Record::new(nl.clone(), ttl, RData::Ns(nl_ns.clone())));
        zone.add(Record::new(nl_ns.clone(), ttl, RData::A(v4(nl_addr))));
        zone
    };
    (zone(&Name::root(), 86_400), zone(&nl, 3_600))
}

/// Adds the three-level hierarchy (root, `nl`, two `cachetest.nl`
/// servers) as the first four nodes. Returns `(root, nl, [ns1, ns2])`.
pub fn add_hierarchy(sim: &mut Simulator, ttl: u32) -> (Addr, Addr, [Addr; 2]) {
    add_hierarchy_with(sim, ttl, None)
}

/// [`add_hierarchy`] with RFC 7873 cookie minting armed at every server
/// when `cookie_secret` is set (a no-op for queries without a client
/// cookie, so UDP-only runs stay byte-identical).
pub(crate) fn add_hierarchy_with(
    sim: &mut Simulator,
    ttl: u32,
    cookie_secret: Option<u64>,
) -> (Addr, Addr, [Addr; 2]) {
    let (root, nl, ns, _) = hierarchy(sim, ttl, cookie_secret, None);
    (root, nl, ns)
}

/// The full hierarchy builder: the classic four servers, plus — when an
/// NXNS zone config is given — the attacker and victim authoritatives
/// delegated from the root as the TLDs `attack` and `victim`. Returns
/// their addresses as the fourth element.
fn hierarchy(
    sim: &mut Simulator,
    ttl: u32,
    cookie_secret: Option<u64>,
    nxns_cfg: Option<&NxnsZoneConfig>,
) -> (Addr, Addr, [Addr; 2], Option<(Addr, Addr)>) {
    let base = sim.next_addr().0;
    let root_addr = Addr(base);
    let nl_addr = Addr(base + 1);
    let ns1_addr = Addr(base + 2);
    let ns2_addr = Addr(base + 3);

    let (mut root_zone, mut nl_zone) = root_and_nl_zones(nl_addr);

    // The NXNS cast: two extra TLDs delegated straight from the root,
    // each served by its own authoritative at a deterministic address.
    let nxns_attack = Name::parse("attack").expect("static");
    let nxns_victim = Name::parse("victim").expect("static");
    let (attacker_addr, victim_addr) = (Addr(base + 4), Addr(base + 5));
    if nxns_cfg.is_some() {
        for (tld, addr) in [(&nxns_attack, attacker_addr), (&nxns_victim, victim_addr)] {
            let ns = tld.child("ns").expect("static");
            root_zone.add(Record::new((*tld).clone(), 86_400, RData::Ns(ns.clone())));
            root_zone.add(Record::new(ns, 86_400, RData::A(v4(addr))));
        }
    }

    let ct = Name::parse("cachetest.nl").expect("static");
    for (i, a) in [ns1_addr, ns2_addr].iter().enumerate() {
        let ns = ct.child(&format!("ns{}", i + 1)).expect("static");
        nl_zone.add(Record::new(ct.clone(), 3_600, RData::Ns(ns.clone())));
        nl_zone.add(Record::new(ns, 3_600, RData::A(v4(*a))));
    }

    let auth = || match cookie_secret {
        Some(s) => AuthServer::new().with_cookie_secret(s),
        None => AuthServer::new(),
    };
    let (_, root) = sim.add_node(Box::new(auth().with_zone(Box::new(root_zone))));
    let (_, nl_a) = sim.add_node(Box::new(auth().with_zone(Box::new(nl_zone))));
    let (_, ns1) = sim.add_node(Box::new(auth().with_zone(Box::new(CacheTestZone::new(
        ttl,
        &[v4(ns1_addr), v4(ns2_addr)],
    )))));
    let (_, ns2) = sim.add_node(Box::new(auth().with_zone(Box::new(CacheTestZone::new(
        ttl,
        &[v4(ns1_addr), v4(ns2_addr)],
    )))));
    debug_assert_eq!(
        (root, nl_a, ns1, ns2),
        (root_addr, nl_addr, ns1_addr, ns2_addr)
    );
    let nxns_addrs = nxns_cfg.map(|zcfg| {
        let (_, atk) = sim.add_node(Box::new(auth().with_zone(Box::new(nxns::attacker_zone(
            &nxns_attack,
            &nxns_victim,
            v4(attacker_addr),
            zcfg,
        )))));
        let (_, vic) = sim.add_node(Box::new(auth().with_zone(Box::new(nxns::victim_zone(
            &nxns_victim,
            v4(victim_addr),
            ttl,
        )))));
        debug_assert_eq!((atk, vic), (attacker_addr, victim_addr));
        (atk, vic)
    });
    (root, nl_a, [ns1, ns2], nxns_addrs)
}

/// Builds the whole measurement world into `sim`. Panics at 40,000
/// probes or more, where probe ids would run into the late wave's.
pub fn build(sim: &mut Simulator, cfg: &BuildConfig) -> Topology {
    assert_probe_count(cfg.n_probes);
    let mut rng = Rng::seed_from_u64(cfg.population_seed);
    let (root, nl, ns, nxns_auths) = hierarchy(sim, cfg.ttl, cfg.cookie_secret, cfg.nxns.as_ref());
    let roots = vec![root];

    // Transport knobs applied uniformly to every recursive in the
    // population (no-ops in config → identical behavior when off).
    let transport = |mut rc: dike_resolver::ResolverConfig| {
        rc.tcp_fallback = cfg.resolver_tcp_fallback;
        if cfg.cookie_secret.is_some() {
            rc.use_cookies = true;
        }
        if let Some(k) = cfg.resolver_max_fetch {
            rc.max_fetch = Some(k);
        }
        rc
    };

    // The NXNS attack client gets a dedicated recursive, built through
    // the same transport knobs as the population — so MaxFetch(k)
    // applies to it exactly like to everyone else.
    let nxns_cast = nxns_auths.map(|(attacker, victim)| {
        let (_, resolver) = sim.add_node(Box::new(RecursiveResolver::new(transport(
            profiles::unbound_like(roots.clone()),
        ))));
        NxnsAddrs {
            attacker,
            victim,
            resolver,
        }
    });

    // --- Public farms: backends first (iterative), then frontends. ---
    let mut google_backends = Vec::new();
    let mut farm_frontends: Vec<Vec<Addr>> = Vec::new();
    for farm in 0..cfg.mix.farm_count {
        let mut backends = Vec::new();
        for b in 0..cfg.mix.farm_backends {
            let serve_stale =
                (b as f64 + 0.5) / cfg.mix.farm_backends as f64 <= cfg.mix.farm_serve_stale_share;
            let mut rc = profiles::unbound_like(roots.clone());
            if serve_stale {
                rc = profiles::with_serve_stale(rc);
            }
            let (_, addr) = sim.add_node(Box::new(RecursiveResolver::new(transport(rc))));
            backends.push(addr);
        }
        let mut frontends = Vec::new();
        for _ in 0..cfg.mix.farm_frontends {
            let (_, addr) = sim.add_node(Box::new(RecursiveResolver::new(transport(
                profiles::farm_frontend(backends.clone()),
            ))));
            frontends.push(addr);
        }
        if farm == 0 {
            google_backends = backends;
        }
        farm_frontends.push(frontends);
    }
    let public_r1s: HashSet<Addr> = farm_frontends.iter().flatten().copied().collect();

    // --- Shared ISP iterative resolvers. ---
    let mean_vps = cfg.mix.mean_vps_per_probe();
    let isp_count = ((cfg.n_probes as f64 * cfg.mix.frac_isp * mean_vps)
        / cfg.mix.probes_per_isp as f64)
        .ceil()
        .max(1.0) as usize;
    let mut isp_addrs = Vec::with_capacity(isp_count);
    for i in 0..isp_count {
        let mut rc = if (i as f64 + 0.5) / isp_count as f64 <= cfg.mix.isp_bind_share {
            profiles::bind_like(roots.clone())
        } else {
            profiles::unbound_like(roots.clone())
        };
        // A slice of ISP resolvers caps cached TTLs at six hours — the
        // day-long-TTL truncators of Table 2.
        if rng.random_range(0.0..1.0) < cfg.mix.isp_sixhour_cap_share {
            rc.cache = CacheConfig {
                max_ttl: 21_600,
                ..rc.cache
            };
        }
        // Another slice flushes periodically (operator flushes and
        // restarts) — the paper's remaining source of early cache loss.
        if rng.random_range(0.0..1.0) < cfg.mix.isp_flush_share {
            rc.flush_interval = Some(SimDuration::from_secs(rng.random_range(1_800..3_600)));
        }
        let (_, addr) = sim.add_node(Box::new(RecursiveResolver::new(transport(rc))));
        isp_addrs.push(addr);
    }

    // --- Shared EC2-style TTL cappers. ---
    let capper_count = ((cfg.n_probes as f64 * cfg.mix.frac_capper * mean_vps)
        / cfg.mix.probes_per_isp as f64)
        .ceil()
        .max(1.0) as usize;
    let mut capper_addrs = Vec::with_capacity(capper_count);
    for _ in 0..capper_count {
        let (_, addr) = sim.add_node(Box::new(RecursiveResolver::new(transport(
            profiles::ttl_capper(roots.clone()),
        ))));
        capper_addrs.push(addr);
    }

    // --- Probes (and their dedicated home routers). ---
    let mut vps = Vec::new();
    let log = new_shared_log();
    for probe_idx in 0..cfg.n_probes {
        let probe_id = (probe_idx + 1) as u16;
        let n_rec = cfg.mix.sample_recursive_count(&mut rng);
        let mut recursives = Vec::with_capacity(n_rec);
        for rec_idx in 0..n_rec {
            let kind = cfg.mix.sample_r1_kind(&mut rng);
            let r1 = match kind {
                R1Kind::PublicGoogle => {
                    let f = &farm_frontends[0];
                    f[rng.random_range(0..f.len())]
                }
                R1Kind::PublicOther => {
                    if cfg.mix.farm_count > 1 {
                        let farm = rng.random_range(1..cfg.mix.farm_count);
                        let f = &farm_frontends[farm];
                        f[rng.random_range(0..f.len())]
                    } else {
                        let f = &farm_frontends[0];
                        f[rng.random_range(0..f.len())]
                    }
                }
                R1Kind::IspDirect => isp_addrs[rng.random_range(0..isp_addrs.len())],
                R1Kind::TtlCapper => capper_addrs[rng.random_range(0..capper_addrs.len())],
                R1Kind::HomeRouter => {
                    // A dedicated forwarder in front of 2 upstreams.
                    let mut upstreams = Vec::with_capacity(2);
                    for _ in 0..2 {
                        let up = if rng.random_range(0.0..1.0)
                            < cfg.mix.home_router_public_upstream_share
                        {
                            // Forward into a public farm (frontend).
                            let farm = rng.random_range(0..cfg.mix.farm_count);
                            let f = &farm_frontends[farm];
                            f[rng.random_range(0..f.len())]
                        } else {
                            isp_addrs[rng.random_range(0..isp_addrs.len())]
                        };
                        upstreams.push(up);
                    }
                    upstreams.dedup();
                    let (_, addr) = sim.add_node(Box::new(RecursiveResolver::new(transport(
                        profiles::home_router(upstreams),
                    ))));
                    addr
                }
            };
            recursives.push(r1);
            vps.push(VpMeta {
                vp: VpKey {
                    probe: probe_id,
                    recursive: rec_idx as u8,
                },
                kind,
                r1,
            });
        }

        let phase =
            SimDuration::from_nanos(rng.random_range(0..cfg.first_round_spread.as_nanos().max(1)));
        let mut stub_cfg = StubConfig::new(
            probe_id,
            recursives.clone(),
            phase,
            cfg.round_interval,
            cfg.rounds,
        );
        stub_cfg.round_jitter = cfg.round_jitter;
        let probe_addr = sim.next_addr();
        sim.add_node(Box::new(StubProbe::new(stub_cfg, log.clone())));

        if cfg.regional_latency {
            // Last-mile one-way delay class for this probe: most clients
            // sit near their recursive, a tail does not (Atlas spans
            // homes, campuses and far-flung networks).
            let class: f64 = rng.random_range(0.0..1.0);
            let median_ms = if class < 0.60 {
                rng.random_range(2..12)
            } else if class < 0.90 {
                rng.random_range(12..45)
            } else {
                rng.random_range(45..150)
            };
            let params = LinkParams {
                latency: LatencyModel::LogNormal {
                    median: SimDuration::from_millis(median_ms),
                    sigma: 0.25,
                },
                loss: 0.0,
            };
            sim.links_mut().set_access(probe_addr, params);
        }
    }
    // A stub logs one record per VP per round at most, so the log never
    // grows during the run (a doubling would hold both buffers at once).
    log.lock()
        .records
        .reserve_exact(vps.len() * cfg.rounds as usize);

    Topology {
        root,
        nl,
        ns,
        log,
        vps,
        google_backends,
        public_r1s,
        n_probes: cfg.n_probes,
        nxns: nxns_cast,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(n_probes: usize) -> BuildConfig {
        BuildConfig {
            n_probes,
            ttl: 3600,
            mix: PopulationMix::default(),
            first_round_spread: SimDuration::from_mins(5),
            round_interval: SimDuration::from_mins(20),
            round_jitter: SimDuration::from_mins(2),
            rounds: 3,
            population_seed: 7,
            regional_latency: true,
            resolver_tcp_fallback: false,
            cookie_secret: None,
            resolver_max_fetch: None,
            nxns: None,
        }
    }

    #[test]
    fn builds_expected_vp_population() {
        let mut sim = Simulator::new(1);
        let topo = build(&mut sim, &small_cfg(200));
        assert_eq!(topo.n_probes, 200);
        // Mean ≈ 1.6 VPs per probe.
        let vps = topo.vps.len() as f64;
        assert!((280.0..380.0).contains(&vps), "vps {vps}");
        assert!(!topo.google_backends.is_empty());
        assert!(!topo.public_r1s.is_empty());
    }

    #[test]
    fn population_is_deterministic_per_seed() {
        let mut sim1 = Simulator::new(1);
        let t1 = build(&mut sim1, &small_cfg(100));
        let mut sim2 = Simulator::new(99); // different sim seed
        let t2 = build(&mut sim2, &small_cfg(100));
        let k1: Vec<_> = t1.vps.iter().map(|v| (v.vp, v.kind)).collect();
        let k2: Vec<_> = t2.vps.iter().map(|v| (v.vp, v.kind)).collect();
        assert_eq!(k1, k2, "population depends only on population_seed");
    }

    #[test]
    fn nxns_world_gets_deterministic_addresses() {
        let mut sim = Simulator::new(1);
        let mut cfg = small_cfg(20);
        cfg.nxns = Some(NxnsZoneConfig::default());
        let topo = build(&mut sim, &cfg);
        let nx = topo.nxns.expect("nxns armed");
        assert_eq!(nx.attacker, Simulator::addr_at(4));
        assert_eq!(nx.victim, Simulator::addr_at(5));
        assert_eq!(nx.resolver, Simulator::addr_at(6));
        // The classic world stays exactly as it was.
        let mut plain = Simulator::new(1);
        assert!(build(&mut plain, &small_cfg(20)).nxns.is_none());
    }

    #[test]
    fn a_probes_access_class_covers_both_directions_of_its_paths() {
        let mut sim = Simulator::new(1);
        let topo = build(&mut sim, &small_cfg(200));
        // The population ends with each probe's home routers followed by
        // the probe itself, in probe-id order.
        let r1s = |probe: u16| topo.vps.iter().filter(move |v| v.vp.probe == probe);
        let homes = |probe: u16| r1s(probe).filter(|v| v.kind == R1Kind::HomeRouter).count() as u32;
        let probe_ids = 1..=topo.n_probes as u16;
        let tail: u32 = probe_ids.clone().map(|p| 1 + homes(p)).sum();
        let mut next = sim.next_addr().0 - tail;
        let links = sim.world_mut().links();
        for probe_id in probe_ids {
            next += homes(probe_id);
            let probe = Addr(next);
            next += 1;
            let first = r1s(probe_id)
                .next()
                .expect("every probe has a recursive")
                .r1;
            let class = links.params(probe, first);
            let LatencyModel::LogNormal { median, sigma } = class.latency else {
                panic!("probe {probe_id}: {class:?} is not an access class");
            };
            assert_eq!(sigma, 0.25, "probe {probe_id}");
            assert!(
                (2..150).contains(&(median.as_nanos() / 1_000_000)),
                "probe {probe_id}: median {median:?}"
            );
            for r1 in r1s(probe_id).map(|v| v.r1) {
                assert_eq!(links.params(probe, r1), class, "probe {probe_id} → {r1}");
                assert_eq!(links.params(r1, probe), class, "{r1} → probe {probe_id}");
                assert_eq!(
                    links.params(r1, topo.ns[0]),
                    LinkParams::default(),
                    "{r1} → ns1"
                );
            }
        }
        assert_eq!(Addr(next), sim.next_addr());
    }

    #[test]
    #[should_panic(expected = "40000 probes requested, but probe ids must stay below 40000")]
    fn a_fleet_that_reaches_the_wave_ids_is_refused() {
        assert_probe_count(39_999);
        build(&mut Simulator::new(1), &small_cfg(40_000));
    }

    #[test]
    fn the_probe_log_holds_every_round_without_growing() {
        let mut sim = Simulator::new(2);
        let cfg = small_cfg(50);
        let topo = build(&mut sim, &cfg);
        let bound = topo.vps.len() * cfg.rounds as usize;
        let capacity = topo.log.lock().records.capacity();
        assert!(capacity >= bound, "capacity {capacity} < {bound}");
        // Past the last round's timeouts.
        sim.run_until(SimDuration::from_mins(70).after_zero());
        let log = topo.log.lock();
        assert!(log.records.len() <= bound, "{} records", log.records.len());
        assert_eq!(log.records.capacity(), capacity, "the log grew");
    }

    #[test]
    fn end_to_end_small_run_answers_most_queries() {
        let mut sim = Simulator::new(2);
        let topo = build(&mut sim, &small_cfg(50));
        sim.run_until(SimDuration::from_mins(70).after_zero());
        let log = topo.log.lock();
        assert!(
            !log.records.is_empty(),
            "probes produced queries: {}",
            log.records.len()
        );
        let ok = log.ok_count() as f64 / log.records.len() as f64;
        assert!(ok > 0.95, "healthy network answers nearly all: {ok}");
    }
}

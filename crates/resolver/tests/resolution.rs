//! End-to-end resolver tests against a real simulated DNS hierarchy:
//! root → `nl` → `cachetest.nl`, exercising iterative resolution,
//! caching, retries under loss, forwarding farms, and serve-stale.

use std::net::Ipv4Addr;
use std::sync::Arc;

use dike_telemetry::sync::Mutex;

use dike_auth::{decode_probe_aaaa, AuthServer, CacheTestZone, Zone};
use dike_netsim::{
    Addr, Context, LatencyModel, LinkParams, LinkTable, Node, SimDuration, SimTime, Simulator,
    TimerToken,
};
use dike_resolver::{profiles, RecursiveResolver, ResolverConfig};
use dike_wire::{Message, Name, RData, Rcode, Record, RecordType, SoaData};

fn name(s: &str) -> Name {
    Name::parse(s).unwrap()
}

fn soa_for(origin: &Name) -> SoaData {
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

/// Converts a simulator [`Addr`] into the IPv4 form stored in glue.
fn v4(addr: Addr) -> Ipv4Addr {
    Ipv4Addr::from(addr.0)
}

/// The standard three-level hierarchy used by these tests.
///
/// Node layout (addresses are deterministic):
///   0: root server, 1: nl server, 2: cachetest ns1, 3: cachetest ns2
struct Hierarchy {
    root: Addr,
    ns1: Addr,
    ns2: Addr,
}

fn build_hierarchy(sim: &mut Simulator, answer_ttl: u32) -> Hierarchy {
    let root_addr = Simulator::addr_at(0);
    let nl_addr = Simulator::addr_at(1);
    let ns1_addr = Simulator::addr_at(2);
    let ns2_addr = Simulator::addr_at(3);

    // Root zone: delegates nl.
    let origin = Name::root();
    let mut root_zone = Zone::new(origin.clone(), 86_400, soa_for(&origin));
    root_zone.add(Record::new(
        name("nl"),
        86_400,
        RData::Ns(name("ns1.dns.nl")),
    ));
    root_zone.add(Record::new(
        name("ns1.dns.nl"),
        86_400,
        RData::A(v4(nl_addr)),
    ));

    // nl zone: delegates cachetest.nl to two name servers.
    let nl_origin = name("nl");
    let mut nl_zone = Zone::new(nl_origin.clone(), 3_600, soa_for(&nl_origin));
    nl_zone.add(Record::new(
        nl_origin.clone(),
        3_600,
        RData::Ns(name("ns1.dns.nl")),
    ));
    nl_zone.add(Record::new(
        name("ns1.dns.nl"),
        3_600,
        RData::A(v4(nl_addr)),
    ));
    for (i, a) in [ns1_addr, ns2_addr].iter().enumerate() {
        let ns = name(&format!("ns{}.cachetest.nl", i + 1));
        nl_zone.add(Record::new(
            name("cachetest.nl"),
            3_600,
            RData::Ns(ns.clone()),
        ));
        nl_zone.add(Record::new(ns, 3_600, RData::A(v4(*a))));
    }

    let (_, root) = sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(root_zone))));
    let (_, _nl) = sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(nl_zone))));
    let (_, ns1) = sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(
        CacheTestZone::new(answer_ttl, &[v4(ns1_addr), v4(ns2_addr)]),
    ))));
    let (_, ns2) = sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(
        CacheTestZone::new(answer_ttl, &[v4(ns1_addr), v4(ns2_addr)]),
    ))));
    assert_eq!(root, root_addr);
    assert_eq!(ns1, ns1_addr);
    assert_eq!(ns2, ns2_addr);
    Hierarchy { root, ns1, ns2 }
}

/// One observed answer at the test client.
#[derive(Debug, Clone)]
struct Observed {
    at: SimTime,
    rcode: Rcode,
    records: Vec<Record>,
}

/// A scripted client: sends the given queries at the given times and
/// records every response.
struct TestClient {
    resolver: Addr,
    script: Vec<(SimDuration, Name, RecordType)>,
    observed: Arc<Mutex<Vec<Observed>>>,
    next_id: u16,
}

impl TestClient {
    fn new(
        resolver: Addr,
        script: Vec<(SimDuration, Name, RecordType)>,
    ) -> (Self, Arc<Mutex<Vec<Observed>>>) {
        let observed = Arc::new(Mutex::new(Vec::new()));
        (
            TestClient {
                resolver,
                script,
                observed: observed.clone(),
                next_id: 1,
            },
            observed,
        )
    }
}

impl Node for TestClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (i, (delay, _, _)) in self.script.iter().enumerate() {
            ctx.set_timer(*delay, TimerToken(i as u64));
        }
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, _src: Addr, msg: &Message, _len: usize) {
        if msg.is_response {
            self.observed.lock().push(Observed {
                at: ctx.now(),
                rcode: msg.rcode,
                records: msg.answers.clone(),
            });
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        let (_, qname, qtype) = self.script[token.0 as usize].clone();
        let id = self.next_id;
        self.next_id += 1;
        ctx.send(self.resolver, &Message::query(id, qname, qtype));
    }
}

fn fast_fabric(sim: &mut Simulator) {
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(10)),
        loss: 0.0,
    });
}

fn probe_serial(records: &[Record]) -> u16 {
    match records.first().map(|r| &r.rdata) {
        Some(RData::Aaaa(a)) => decode_probe_aaaa(*a).expect("probe payload").serial,
        other => panic!("expected AAAA answer, got {other:?}"),
    }
}

#[test]
fn iterative_resolution_walks_the_hierarchy() {
    let mut sim = Simulator::new(101);
    fast_fabric(&mut sim);
    let h = build_hierarchy(&mut sim, 3600);
    let (_, resolver_addr) = sim.add_node(Box::new(RecursiveResolver::new(
        ResolverConfig::iterative(vec![h.root]),
    )));
    let (client, observed) = TestClient::new(
        resolver_addr,
        vec![(
            SimDuration::from_secs(1),
            name("1414.cachetest.nl"),
            RecordType::AAAA,
        )],
    );
    sim.add_node(Box::new(client));
    sim.run_until(SimDuration::from_secs(30).after_zero());

    let obs = observed.lock();
    assert_eq!(obs.len(), 1, "client got exactly one answer");
    assert_eq!(obs[0].rcode, Rcode::NoError);
    let payload = match &obs[0].records[0].rdata {
        RData::Aaaa(a) => decode_probe_aaaa(*a).unwrap(),
        other => panic!("expected AAAA, got {other:?}"),
    };
    assert_eq!(payload.probe_id, 1414);
    assert_eq!(payload.ttl, 3600);
    assert_eq!(obs[0].records[0].ttl, 3600, "full TTL on a fresh answer");
}

#[test]
fn second_query_is_served_from_cache() {
    let mut sim = Simulator::new(102);
    fast_fabric(&mut sim);
    let h = build_hierarchy(&mut sim, 3600);
    let (_, resolver_addr) = sim.add_node(Box::new(RecursiveResolver::new(
        ResolverConfig::iterative(vec![h.root]),
    )));
    let (client, observed) = TestClient::new(
        resolver_addr,
        vec![
            (
                SimDuration::from_secs(1),
                name("7.cachetest.nl"),
                RecordType::AAAA,
            ),
            (
                SimDuration::from_secs(601),
                name("7.cachetest.nl"),
                RecordType::AAAA,
            ),
        ],
    );
    sim.add_node(Box::new(client));
    // Count queries arriving at the authoritatives.
    let (counts, sink) = dike_netsim::trace::shared(dike_netsim::trace::CountingTrace::default());
    sim.add_sink(sink);
    sim.run_until(SimDuration::from_secs(700).after_zero());

    let obs = observed.lock();
    assert_eq!(obs.len(), 2);
    // Zone serial rotates every 10 min; the second answer (at 601 s,
    // after one rotation) must still carry the *old* serial — proof it
    // came from the cache — and a decremented TTL.
    let s1 = probe_serial(&obs[0].records);
    let s2 = probe_serial(&obs[1].records);
    assert_eq!(s1, 1);
    assert_eq!(s2, 1, "cached answer keeps the old serial");
    // Inserted just after t=1 s, queried at t=601 s: ~600 s elapsed
    // (TTL math is at second granularity, so allow one second of slack).
    let ttl = obs[1].records[0].ttl;
    assert!((2999..=3001).contains(&ttl), "decremented TTL, got {ttl}");
    assert!(counts.lock().delivered > 0);
}

#[test]
fn expired_ttl_triggers_refetch_with_new_serial() {
    let mut sim = Simulator::new(103);
    fast_fabric(&mut sim);
    let h = build_hierarchy(&mut sim, 60);
    let (_, resolver_addr) = sim.add_node(Box::new(RecursiveResolver::new(
        ResolverConfig::iterative(vec![h.root]),
    )));
    let (client, observed) = TestClient::new(
        resolver_addr,
        vec![
            (
                SimDuration::from_secs(1),
                name("7.cachetest.nl"),
                RecordType::AAAA,
            ),
            // 20 minutes later: TTL 60 long expired, serial rotated twice.
            (
                SimDuration::from_secs(1201),
                name("7.cachetest.nl"),
                RecordType::AAAA,
            ),
        ],
    );
    sim.add_node(Box::new(client));
    sim.run_until(SimDuration::from_secs(1300).after_zero());

    let obs = observed.lock();
    assert_eq!(obs.len(), 2);
    assert_eq!(probe_serial(&obs[0].records), 1);
    assert_eq!(
        probe_serial(&obs[1].records),
        3,
        "fresh answer has rotated serial"
    );
}

#[test]
fn resolver_survives_50_percent_loss_via_retries() {
    let mut sim = Simulator::new(104);
    fast_fabric(&mut sim);
    let h = build_hierarchy(&mut sim, 1800);
    let (_, resolver_addr) = sim.add_node(Box::new(RecursiveResolver::new(
        profiles::unbound_like(vec![h.root]),
    )));
    // 20 clients querying distinct names during a 50% attack on both NSes.
    let mut handles = Vec::new();
    for pid in 0..20u16 {
        let (client, observed) = TestClient::new(
            resolver_addr,
            vec![(
                SimDuration::from_secs(30 + pid as u64),
                name(&format!("{pid}.cachetest.nl")),
                RecordType::AAAA,
            )],
        );
        sim.add_node(Box::new(client));
        handles.push(observed);
    }
    let (ns1, ns2) = (h.ns1, h.ns2);
    sim.schedule_control(SimDuration::from_secs(10).after_zero(), move |w| {
        w.links_mut().set_ingress_loss(ns1, 0.5);
        w.links_mut().set_ingress_loss(ns2, 0.5);
    });
    sim.run_until(SimDuration::from_secs(120).after_zero());

    let answered = handles
        .iter()
        .filter(|h| h.lock().iter().any(|o| o.rcode == Rcode::NoError))
        .count();
    assert!(
        answered >= 18,
        "with 50% loss and retries nearly all clients succeed, got {answered}/20"
    );
}

#[test]
fn complete_outage_yields_servfail_without_cache() {
    let mut sim = Simulator::new(105);
    fast_fabric(&mut sim);
    let h = build_hierarchy(&mut sim, 1800);
    let (_, resolver_addr) =
        sim.add_node(Box::new(RecursiveResolver::new(profiles::bind_like(vec![
            h.root,
        ]))));
    let (client, observed) = TestClient::new(
        resolver_addr,
        vec![(
            SimDuration::from_secs(30),
            name("5.cachetest.nl"),
            RecordType::AAAA,
        )],
    );
    sim.add_node(Box::new(client));
    let (ns1, ns2) = (h.ns1, h.ns2);
    sim.schedule_control(SimDuration::from_secs(10).after_zero(), move |w| {
        w.links_mut().set_ingress_loss(ns1, 1.0);
        w.links_mut().set_ingress_loss(ns2, 1.0);
    });
    sim.run_until(SimDuration::from_secs(200).after_zero());

    let obs = observed.lock();
    assert_eq!(obs.len(), 1, "resolver reports failure exactly once");
    assert_eq!(obs[0].rcode, Rcode::ServFail);
    // Failure takes at least the sum of the backoff timeouts.
    assert!(obs[0].at > SimDuration::from_secs(31).after_zero());
}

#[test]
fn cached_answer_survives_complete_outage_within_ttl() {
    let mut sim = Simulator::new(106);
    fast_fabric(&mut sim);
    let h = build_hierarchy(&mut sim, 3600);
    let (_, resolver_addr) =
        sim.add_node(Box::new(RecursiveResolver::new(profiles::bind_like(vec![
            h.root,
        ]))));
    let (client, observed) = TestClient::new(
        resolver_addr,
        vec![
            (
                SimDuration::from_secs(1),
                name("9.cachetest.nl"),
                RecordType::AAAA,
            ),
            // During the outage but within TTL.
            (
                SimDuration::from_secs(900),
                name("9.cachetest.nl"),
                RecordType::AAAA,
            ),
        ],
    );
    sim.add_node(Box::new(client));
    let (ns1, ns2, root) = (h.ns1, h.ns2, h.root);
    sim.schedule_control(SimDuration::from_secs(60).after_zero(), move |w| {
        w.links_mut().set_ingress_loss(ns1, 1.0);
        w.links_mut().set_ingress_loss(ns2, 1.0);
        w.links_mut().set_ingress_loss(root, 1.0);
    });
    sim.run_until(SimDuration::from_secs(1000).after_zero());

    let obs = observed.lock();
    assert_eq!(obs.len(), 2);
    assert_eq!(obs[1].rcode, Rcode::NoError, "cache rides out the outage");
    assert_eq!(probe_serial(&obs[1].records), 1);
}

#[test]
fn serve_stale_answers_after_ttl_expiry_during_outage() {
    let mut sim = Simulator::new(107);
    fast_fabric(&mut sim);
    let h = build_hierarchy(&mut sim, 60);
    let (_, resolver_addr) = sim.add_node(Box::new(RecursiveResolver::new(
        profiles::with_serve_stale(profiles::bind_like(vec![h.root])),
    )));
    let (client, observed) = TestClient::new(
        resolver_addr,
        vec![
            (
                SimDuration::from_secs(1),
                name("9.cachetest.nl"),
                RecordType::AAAA,
            ),
            // Long after the 60 s TTL expired, during a full outage.
            (
                SimDuration::from_secs(600),
                name("9.cachetest.nl"),
                RecordType::AAAA,
            ),
        ],
    );
    sim.add_node(Box::new(client));
    let (ns1, ns2) = (h.ns1, h.ns2);
    sim.schedule_control(SimDuration::from_secs(30).after_zero(), move |w| {
        w.links_mut().set_ingress_loss(ns1, 1.0);
        w.links_mut().set_ingress_loss(ns2, 1.0);
    });
    sim.run_until(SimDuration::from_secs(700).after_zero());

    let obs = observed.lock();
    assert_eq!(obs.len(), 2);
    assert_eq!(
        obs[1].rcode,
        Rcode::NoError,
        "stale answer instead of SERVFAIL"
    );
    assert_eq!(obs[1].records[0].ttl, 0, "stale answers carry TTL 0");
}

#[test]
fn forwarding_farm_retries_across_upstreams() {
    let mut sim = Simulator::new(108);
    fast_fabric(&mut sim);
    let h = build_hierarchy(&mut sim, 1800);
    // Two upstream iterative resolvers (indices 4, 5), then an R1
    // forwarder (index 6) in front of them.
    let (_, rn_a) = sim.add_node(Box::new(RecursiveResolver::new(profiles::unbound_like(
        vec![h.root],
    ))));
    let (_, rn_b) = sim.add_node(Box::new(RecursiveResolver::new(profiles::unbound_like(
        vec![h.root],
    ))));
    let (_, r1) = sim.add_node(Box::new(RecursiveResolver::new(profiles::home_router(
        vec![rn_a, rn_b],
    ))));
    let (client, observed) = TestClient::new(
        r1,
        vec![(
            SimDuration::from_secs(5),
            name("3.cachetest.nl"),
            RecordType::AAAA,
        )],
    );
    sim.add_node(Box::new(client));
    sim.run_until(SimDuration::from_secs(60).after_zero());

    let obs = observed.lock();
    assert_eq!(obs.len(), 1);
    assert_eq!(obs[0].rcode, Rcode::NoError, "forwarding chain resolves");
    assert_eq!(probe_serial(&obs[0].records), 1);
}

/// The paper's fragmented public-resolver farm (§3.5), as the topology
/// builds it: a `farm_frontend` spraying queries over backends that each
/// keep their own cache. One backend fetches the hot name once; four
/// backends fetch it again on every cold one.
#[test]
fn fragmented_cache_produces_both_hits_and_misses() {
    for backends in [1, 4] {
        let mut sim = Simulator::new(109);
        fast_fabric(&mut sim);
        let h = build_hierarchy(&mut sim, 3600);
        let farm: Vec<Addr> = (0..backends)
            .map(|_| {
                let rc = profiles::unbound_like(vec![h.root]);
                sim.add_node(Box::new(RecursiveResolver::new(rc))).1
            })
            .collect();
        let frontend = profiles::farm_frontend(farm);
        let (_, frontend) = sim.add_node(Box::new(RecursiveResolver::new(frontend)));
        // 12 queries for the hot name, a minute apart, each followed by
        // one for another name: the frontend's one-entry cache would
        // otherwise answer every repeat itself.
        let script: Vec<_> = (0..12)
            .flat_map(|i| {
                let at = |s: u64| SimDuration::from_secs(1 + i * 60 + s);
                [
                    (at(0), name("8.cachetest.nl"), RecordType::AAAA),
                    (at(30), name("9.cachetest.nl"), RecordType::AAAA),
                ]
            })
            .collect();
        let (client, observed) = TestClient::new(frontend, script);
        sim.add_node(Box::new(client));
        sim.run_until(SimDuration::from_secs(800).after_zero());

        let obs = observed.lock();
        assert_eq!(obs.len(), 24, "{backends} backends");
        let hot: Vec<_> = obs
            .iter()
            .filter(|o| o.records[0].name == name("8.cachetest.nl"))
            .collect();
        assert_eq!(hot.len(), 12, "{backends} backends");
        // TTLs differentiate cache hits (decremented) from fresh fetches
        // (full 3600).
        let fresh = hot.iter().filter(|o| o.records[0].ttl == 3600).count();
        let cached = hot.iter().filter(|o| o.records[0].ttl < 3600).count();
        if backends == 1 {
            assert_eq!(fresh, 1, "one cache fetches the hot name once");
        } else {
            assert!(
                fresh >= 2,
                "expected multiple cold-backend fetches, got {fresh}"
            );
            assert!(cached >= 2, "expected some cache hits, got {cached}");
        }
    }
}

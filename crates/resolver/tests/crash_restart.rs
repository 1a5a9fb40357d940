//! Crash/restart fault tests: a resolver that dies mid-run loses its
//! in-flight work, optionally its cache (the paper's cache-loss
//! sensitivity axis), and the simulation stays panic-free and
//! audit-clean throughout.

use std::net::Ipv4Addr;
use std::sync::Arc;

use dike_telemetry::sync::Mutex;

use dike_auth::{AuthServer, CacheTestZone, Zone};
use dike_netsim::{
    Addr, Context, LatencyModel, LinkParams, LinkTable, Node, NodeId, SimDuration, Simulator,
    TimerToken,
};
use dike_resolver::{RecursiveResolver, ResolverConfig};
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

fn v4(addr: Addr) -> Ipv4Addr {
    Ipv4Addr::from(addr.0)
}

/// root → nl → cachetest.nl, same layout as the resolution tests:
/// node 0 root, 1 nl, 2/3 cachetest NSes.
fn build_hierarchy(sim: &mut Simulator, answer_ttl: u32) -> Addr {
    let nl_addr = Simulator::addr_at(1);
    let ns1_addr = Simulator::addr_at(2);
    let ns2_addr = Simulator::addr_at(3);

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
    sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(nl_zone))));
    sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(
        CacheTestZone::new(answer_ttl, &[v4(ns1_addr), v4(ns2_addr)]),
    ))));
    sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(
        CacheTestZone::new(answer_ttl, &[v4(ns1_addr), v4(ns2_addr)]),
    ))));
    root
}

struct TestClient {
    resolver: Addr,
    script: Vec<(SimDuration, Name, RecordType)>,
    answers: Arc<Mutex<Vec<Rcode>>>,
    next_id: u16,
}

impl Node for TestClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (i, (delay, _, _)) in self.script.iter().enumerate() {
            ctx.set_timer(*delay, TimerToken(i as u64));
        }
    }

    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, msg: &Message, _len: usize) {
        if msg.is_response {
            self.answers.lock().push(msg.rcode);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        let (_, qname, qtype) = self.script[token.0 as usize].clone();
        let id = self.next_id;
        self.next_id += 1;
        ctx.send(self.resolver, &Message::query(id, qname, qtype));
    }
}

struct Setup {
    sim: Simulator,
    resolver_id: NodeId,
    answers: Arc<Mutex<Vec<Rcode>>>,
}

/// Hierarchy + resolver + one client querying the same name at each of
/// `query_at` (seconds).
fn setup(seed: u64, query_at: &[u64]) -> Setup {
    let mut sim = Simulator::new(seed);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(10)),
        loss: 0.0,
    });
    let root = build_hierarchy(&mut sim, 3_600);
    let (resolver_id, resolver_addr) = sim.add_node(Box::new(RecursiveResolver::new(
        ResolverConfig::iterative(vec![root]),
    )));
    let answers = Arc::new(Mutex::new(Vec::new()));
    sim.add_node(Box::new(TestClient {
        resolver: resolver_addr,
        script: query_at
            .iter()
            .map(|&s| {
                (
                    SimDuration::from_secs(s),
                    name("7.cachetest.nl"),
                    RecordType::AAAA,
                )
            })
            .collect(),
        answers: answers.clone(),
        next_id: 1,
    }));
    Setup {
        sim,
        resolver_id,
        answers,
    }
}

fn resolver_cache_hits(sim: &Simulator, id: NodeId) -> u64 {
    sim.node(id)
        .and_then(|n| n.as_any())
        .and_then(|a| a.downcast_ref::<RecursiveResolver>())
        .expect("resolver node")
        .stats()
        .cache_hits
}

/// Runs the crash-at-60s/restart-at-120s scenario and reports
/// (cache_hits, answers).
fn crash_scenario(cold: bool) -> (u64, Vec<Rcode>) {
    let mut s = setup(7, &[1, 180]);
    s.sim
        .schedule_node_down(SimDuration::from_secs(60).after_zero(), s.resolver_id);
    s.sim.schedule_node_up(
        SimDuration::from_secs(120).after_zero(),
        s.resolver_id,
        cold,
    );
    s.sim.run_until(SimDuration::from_secs(300).after_zero());
    s.sim.audit().assert_clean();
    let answers = s.answers.lock().clone();
    (resolver_cache_hits(&s.sim, s.resolver_id), answers)
}

#[test]
fn cold_restart_loses_the_cache() {
    let (hits, answers) = crash_scenario(true);
    assert_eq!(
        answers,
        vec![Rcode::NoError, Rcode::NoError],
        "both queries answered (TTL 3600 covers the gap)"
    );
    assert_eq!(hits, 0, "cold restart wiped the cache: full re-walk");
}

#[test]
fn warm_restart_keeps_the_cache() {
    let (hits, answers) = crash_scenario(false);
    assert_eq!(answers, vec![Rcode::NoError, Rcode::NoError]);
    assert_eq!(hits, 1, "warm restart preserved the cached answer");
}

#[test]
fn downed_resolver_blackholes_queries() {
    let mut s = setup(8, &[10]);
    s.sim
        .schedule_node_down(SimDuration::from_secs(5).after_zero(), s.resolver_id);
    s.sim.run_until(SimDuration::from_secs(60).after_zero());
    assert!(!s.sim.world_mut().node_is_up(s.resolver_id));
    assert!(
        s.answers.lock().is_empty(),
        "a downed resolver answers nothing"
    );
    let report = s.sim.audit();
    report.assert_clean();
    assert!(report.dropped > 0, "the query was counted dropped");
}

#[test]
fn crash_mid_resolution_drops_in_flight_work_cleanly() {
    // The resolver is killed 25 ms after the query lands — mid-iteration,
    // with a task outstanding and a retry timer armed — and revived two
    // seconds later. The client's first query is lost (stub retries are
    // the client's job); a repeat query after the restart succeeds.
    let mut s = setup(9, &[1, 10]);
    s.sim
        .schedule_node_down(SimDuration::from_millis(1_025).after_zero(), s.resolver_id);
    s.sim
        .schedule_node_up(SimDuration::from_secs(3).after_zero(), s.resolver_id, true);
    s.sim.run_until(SimDuration::from_secs(60).after_zero());
    let report = s.sim.audit();
    report.assert_clean();
    assert_eq!(report.node_crashes, 1);
    assert_eq!(report.node_restarts, 1);
    let answers = s.answers.lock().clone();
    assert_eq!(
        answers,
        vec![Rcode::NoError],
        "only the post-restart query is answered"
    );
}

#[test]
fn crashed_auth_forces_failover_to_its_sibling() {
    // Take down one of the two cachetest.nl authoritatives: resolution
    // still succeeds via the sibling (the paper's observation that spare
    // capacity at surviving sites rides out a partial outage).
    let mut s = setup(10, &[5]);
    let ns1 = NodeId(2);
    s.sim
        .schedule_node_down(SimDuration::from_secs(1).after_zero(), ns1);
    s.sim.run_until(SimDuration::from_secs(120).after_zero());
    s.sim.audit().assert_clean();
    assert_eq!(s.answers.lock().clone(), vec![Rcode::NoError]);
}

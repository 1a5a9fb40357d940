//! What one client query reads from the resolver's cache. Each case warms
//! a resolver, then pins the reads of one more client query: the cache's
//! hits + misses + expired (the resolver's one `ResolverCache`'s
//! `stats()`, as the resolver publishes them), from just before the query reaches the resolver to
//! just before any upstream answer could come back.

use std::net::Ipv4Addr;

use dike_auth::{AuthServer, Zone};
use dike_netsim::{
    Addr, Context, LatencyModel, LinkParams, LinkTable, Node, NodeId, SimDuration, Simulator,
    TimerToken,
};
use dike_resolver::{profiles, RecursiveResolver};
use dike_telemetry::{MetricsRegistry, NodePublisher};
use dike_wire::{Message, Name, RData, Record, RecordType, SoaData};

fn name(s: &str) -> Name {
    Name::parse(s).unwrap()
}

fn soa(origin: &Name) -> SoaData {
    SoaData {
        mname: origin.child("ns1").unwrap_or_else(|_| origin.clone()),
        rname: origin
            .child("hostmaster")
            .unwrap_or_else(|_| origin.clone()),
        serial: 1,
        refresh: 1,
        retry: 1,
        expire: 1,
        minimum: 60,
    }
}

/// The zones below the root, each served by its own server at the
/// root's address plus its position.
const ZONES: [&str; 3] = ["alpha.test", "beta.test", "gamma.test"];

/// A root delegating each of [`ZONES`] to its `ns1` (with glue), and
/// their servers: `www` is a CNAME to `web`, which has an A and an AAAA
/// record; every other name is NXDOMAIN. Returns the root's address.
fn build(sim: &mut Simulator) -> Addr {
    let root_addr = sim.next_addr();
    let mut root = Zone::new(Name::root(), 3600, soa(&Name::root()));
    let mut zones = Vec::new();
    for (i, origin) in ZONES.iter().enumerate() {
        let addr = Ipv4Addr::from(root_addr.0 + 1 + i as u32);
        let origin = name(origin);
        let ns1 = origin.child("ns1").unwrap();
        root.add(Record::new(origin.clone(), 3600, RData::Ns(ns1.clone())));
        root.add(Record::new(ns1.clone(), 3600, RData::A(addr)));

        let mut zone = Zone::new(origin.clone(), 3600, soa(&origin));
        let web = origin.child("web").unwrap();
        zone.add(Record::new(origin.clone(), 3600, RData::Ns(ns1.clone())));
        zone.add(Record::new(ns1, 3600, RData::A(addr)));
        zone.add(Record::new(
            origin.child("www").unwrap(),
            300,
            RData::Cname(web.clone()),
        ));
        zone.add(Record::new(
            web.clone(),
            300,
            RData::A(Ipv4Addr::new(203, 0, 113, 80)),
        ));
        zone.add(Record::new(
            web,
            300,
            RData::Aaaa("2001:db8::80".parse().unwrap()),
        ));
        zones.push(zone);
    }
    sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(root))));
    for zone in zones {
        sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(zone))));
    }
    root_addr
}

/// Asks each scripted question at its time (ms).
struct Client {
    resolver: Addr,
    script: Vec<(u64, &'static str, RecordType)>,
}

impl Node for Client {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (i, &(at, _, _)) in self.script.iter().enumerate() {
            ctx.set_timer(SimDuration::from_millis(at), TimerToken(i as u64));
        }
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, _msg: &Message, _l: usize) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, t: TimerToken) {
        let (_, qname, qtype) = self.script[t.0 as usize];
        ctx.send(
            self.resolver,
            &Message::query(t.0 as u16 + 1, name(qname), qtype),
        );
    }
}

/// The resolver's cache reads, client queries and upstream retries so
/// far.
fn counters(sim: &Simulator, resolver: NodeId) -> (u64, u64, u64) {
    let mut registry = MetricsRegistry::new();
    let node = sim.node(resolver).expect("resolver node");
    node.publish_metrics(&mut NodePublisher::new(&mut registry, 0));
    let total = |component, metric| registry.counter_total(component, Some(0), metric).unwrap();
    let reads = total("cache", "hits") + total("cache", "misses") + total("cache", "expired");
    (
        reads,
        total("resolver", "client_queries"),
        total("resolver", "retries"),
    )
}

/// A simulator holding [`build`]'s servers, a BIND-like resolver over
/// them and a client running `script`; the resolver's node id and the
/// root's address. Client → resolver takes 6 ms, resolver → server →
/// resolver 12 ms.
fn world(script: Vec<(u64, &'static str, RecordType)>) -> (Simulator, NodeId, Addr) {
    let mut sim = Simulator::new(5);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(6)),
        loss: 0.0,
    });
    let root = build(&mut sim);
    let (resolver_id, resolver) =
        sim.add_node(Box::new(RecursiveResolver::new(profiles::bind_like(vec![
            root,
        ]))));
    sim.add_node(Box::new(Client { resolver, script }));
    (sim, resolver_id, root)
}

fn run_to(sim: &mut Simulator, ms: u64) {
    sim.run_until(SimDuration::from_millis(ms).after_zero());
}

/// Asks each `warm` name a second apart, then `qname` at t = 10 s, and
/// returns the cache reads of that last query.
fn reads_of(warm: &[&'static str], qname: &'static str) -> u64 {
    const ASK_MS: u64 = 10_000;
    let mut script: Vec<(u64, &'static str, RecordType)> = warm
        .iter()
        .enumerate()
        .map(|(i, &n)| (1_000 * (i as u64 + 1), n, RecordType::A))
        .collect();
    script.push((ASK_MS, qname, RecordType::A));
    let (mut sim, resolver, _) = world(script);
    // The window holds the query's arrival and nothing after it.
    run_to(&mut sim, ASK_MS);
    let (reads_before, queries_before, _) = counters(&sim, resolver);
    run_to(&mut sim, ASK_MS + 10);
    let (reads_after, queries_after, _) = counters(&sim, resolver);
    assert_eq!(queries_after - queries_before, 1, "one client query");
    reads_after - reads_before
}

/// The cache reads of one upstream retry. `new.beta.test` is asked at
/// t = 10 s, after `beta.test`'s delegation is cached and its server has
/// gone silent; the first attempt times out at 10.806 s (BIND's 800 ms).
/// `between`, when given, is asked at 10.5 s of a live zone and is
/// answered well before the retry.
fn retry_reads(between: Option<(&'static str, RecordType)>) -> u64 {
    let mut script = vec![
        (1_000, "web.alpha.test", RecordType::A),
        (2_000, "web.beta.test", RecordType::A),
        (10_000, "new.beta.test", RecordType::A),
    ];
    script.extend(between.map(|(qname, qtype)| (10_500, qname, qtype)));
    let (mut sim, resolver, root) = world(script);
    run_to(&mut sim, 5_000);
    let beta = Addr(root.0 + 2);
    sim.links_mut().set_ingress_loss(beta, 1.0);
    run_to(&mut sim, 10_600);
    let (reads_before, _, retries_before) = counters(&sim, resolver);
    run_to(&mut sim, 10_810);
    let (reads_after, _, retries_after) = counters(&sim, resolver);
    assert_eq!(retries_after - retries_before, 1, "one retry in the window");
    reads_after - reads_before
}

#[test]
fn a_fresh_hit_reads_once() {
    assert_eq!(reads_of(&["web.alpha.test"], "web.alpha.test"), 1);
}

/// The cached NXDOMAIN answers the question; nothing probes the name
/// again, or its CNAME.
#[test]
fn a_negative_hit_reads_once() {
    assert_eq!(reads_of(&["nope.alpha.test"], "nope.alpha.test"), 1);
}

/// `www` misses for A, hits for its CNAME, and `web` hits for A.
#[test]
fn a_cached_cname_chain_reads_each_link_once() {
    assert_eq!(reads_of(&["www.alpha.test"], "www.alpha.test"), 3);
}

/// The A and CNAME probes miss; then one walk finds the servers: NS at
/// `new.alpha.test` misses, NS at `alpha.test` hits, and so does its
/// target's A record.
#[test]
fn a_cold_miss_under_a_cached_delegation_walks_once() {
    assert_eq!(reads_of(&["web.alpha.test"], "new.alpha.test"), 2 + 3);
}

/// Nothing has entered the cache since the first attempt's walk: the
/// retry keeps its servers and reads nothing.
#[test]
fn a_retry_under_an_unchanged_cache_reads_nothing() {
    assert_eq!(retry_reads(None), 0);
}

/// An AAAA answer cannot deepen a delegation, so it does not move the
/// cache generation, and the retry still reads nothing.
#[test]
fn a_retry_after_an_aaaa_insert_reads_nothing() {
    assert_eq!(retry_reads(Some(("web.alpha.test", RecordType::AAAA))), 0);
}

/// A referral to `gamma.test` caches an NS RRset and glue A records: the
/// retry walks again. NS at `new.beta.test` misses, NS at `beta.test`
/// hits, and so does its target's A record.
#[test]
fn a_retry_after_a_glue_a_insert_walks_again() {
    assert_eq!(retry_reads(Some(("web.gamma.test", RecordType::A))), 3);
}

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

/// A root delegating `alpha.test` to `ns1.alpha.test` (with glue), and
/// the `alpha.test` server: `www` is a CNAME to `web`, which has an A
/// record; every other name is NXDOMAIN.
fn build(sim: &mut Simulator) -> Addr {
    let root_addr = sim.next_addr();
    let alpha_addr = Ipv4Addr::from(root_addr.0 + 1);
    let alpha = name("alpha.test");
    let ns1 = name("ns1.alpha.test");

    let mut root = Zone::new(Name::root(), 3600, soa(&Name::root()));
    root.add(Record::new(alpha.clone(), 3600, RData::Ns(ns1.clone())));
    root.add(Record::new(ns1.clone(), 3600, RData::A(alpha_addr)));

    let mut zone = Zone::new(alpha.clone(), 3600, soa(&alpha));
    zone.add(Record::new(alpha, 3600, RData::Ns(ns1.clone())));
    zone.add(Record::new(ns1, 3600, RData::A(alpha_addr)));
    zone.add(Record::new(
        name("www.alpha.test"),
        300,
        RData::Cname(name("web.alpha.test")),
    ));
    zone.add(Record::new(
        name("web.alpha.test"),
        300,
        RData::A(Ipv4Addr::new(203, 0, 113, 80)),
    ));

    sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(root))));
    sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(zone))));
    root_addr
}

/// Asks for the A record of each scripted name at its time (ms).
struct Client {
    resolver: Addr,
    script: Vec<(u64, &'static str)>,
}

impl Node for Client {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (i, &(at, _)) in self.script.iter().enumerate() {
            ctx.set_timer(SimDuration::from_millis(at), TimerToken(i as u64));
        }
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, _msg: &Message, _l: usize) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, t: TimerToken) {
        let qname = name(self.script[t.0 as usize].1);
        ctx.send(
            self.resolver,
            &Message::query(t.0 as u16 + 1, qname, RecordType::A),
        );
    }
}

/// The resolver's cache reads and client queries so far.
fn counters(sim: &Simulator, resolver: NodeId) -> (u64, u64) {
    let mut registry = MetricsRegistry::new();
    let node = sim.node(resolver).expect("resolver node");
    node.publish_metrics(&mut NodePublisher::new(&mut registry, 0));
    let total = |component, metric| registry.counter_total(component, Some(0), metric).unwrap();
    let reads = total("cache", "hits") + total("cache", "misses") + total("cache", "expired");
    (reads, total("resolver", "client_queries"))
}

/// Asks each `warm` name a second apart, then `qname` at t = 10 s, and
/// returns the cache reads of that last query.
fn reads_of(warm: &[&'static str], qname: &'static str) -> u64 {
    const ASK_MS: u64 = 10_000;
    let mut sim = Simulator::new(5);
    // Client → resolver takes 6 ms, resolver → server → resolver 12 ms:
    // the window below holds the query's arrival and nothing after it.
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(6)),
        loss: 0.0,
    });
    let root = build(&mut sim);
    let (resolver_id, resolver) =
        sim.add_node(Box::new(RecursiveResolver::new(profiles::bind_like(vec![
            root,
        ]))));
    let mut script: Vec<(u64, &'static str)> = warm
        .iter()
        .enumerate()
        .map(|(i, &n)| (1_000 * (i as u64 + 1), n))
        .collect();
    script.push((ASK_MS, qname));
    sim.add_node(Box::new(Client { resolver, script }));

    sim.run_until(SimDuration::from_millis(ASK_MS).after_zero());
    let (reads_before, queries_before) = counters(&sim, resolver_id);
    sim.run_until(SimDuration::from_millis(ASK_MS + 10).after_zero());
    let (reads_after, queries_after) = counters(&sim, resolver_id);
    assert_eq!(queries_after - queries_before, 1, "one client query");
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

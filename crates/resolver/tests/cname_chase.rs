//! Cross-zone CNAME chasing: an alias in one zone pointing into another
//! forces the resolver to restart iteration for the target name, and the
//! client receives the full chain.

use std::net::Ipv4Addr;
use std::sync::Arc;

use dike_telemetry::sync::Mutex;

use dike_auth::{AuthServer, Zone};
use dike_netsim::{
    Addr, Context, LatencyModel, LinkParams, LinkTable, Node, SimDuration, Simulator, TimerToken,
};
use dike_resolver::{profiles, RecursiveResolver};
use dike_wire::{Message, Name, RData, Rcode, Record, RecordType, SoaData};

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

struct OneQuery {
    resolver: Addr,
    qname: Name,
    answers: Arc<Mutex<Vec<Record>>>,
    rcode: Arc<Mutex<Option<Rcode>>>,
}

impl Node for OneQuery {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs(1), TimerToken(0));
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, msg: &Message, _l: usize) {
        if msg.is_response {
            *self.rcode.lock() = Some(msg.rcode);
            *self.answers.lock() = msg.answers.clone();
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
        ctx.send(
            self.resolver,
            &Message::query(3, self.qname.clone(), RecordType::A),
        );
    }
}

/// Builds a root serving two delegated zones, `alpha.test` and
/// `beta.test`, on separate servers. `www.alpha.test` is a CNAME to
/// `web.beta.test`, which has an A record.
fn build(sim: &mut Simulator) -> Addr {
    let root_addr = sim.next_addr();
    let alpha_addr = Addr(root_addr.0 + 1);
    let beta_addr = Addr(root_addr.0 + 2);
    let v4 = |a: Addr| Ipv4Addr::from(a.0);

    let origin = Name::root();
    let mut root_zone = Zone::new(origin.clone(), 3600, soa(&origin));
    for (zone, addr) in [("alpha.test", alpha_addr), ("beta.test", beta_addr)] {
        let z = name(zone);
        let ns = z.child("ns1").unwrap();
        root_zone.add(Record::new(z, 3600, RData::Ns(ns.clone())));
        root_zone.add(Record::new(ns, 3600, RData::A(v4(addr))));
    }

    let alpha = name("alpha.test");
    let mut alpha_zone = Zone::new(alpha.clone(), 3600, soa(&alpha));
    alpha_zone.add(Record::new(
        name("www.alpha.test"),
        300,
        RData::Cname(name("web.beta.test")),
    ));

    let beta = name("beta.test");
    let mut beta_zone = Zone::new(beta.clone(), 3600, soa(&beta));
    beta_zone.add(Record::new(
        name("web.beta.test"),
        120,
        RData::A(Ipv4Addr::new(203, 0, 113, 80)),
    ));

    sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(root_zone))));
    sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(alpha_zone))));
    sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(beta_zone))));
    root_addr
}

#[test]
fn cross_zone_cname_is_chased_and_chain_returned() {
    let mut sim = Simulator::new(91);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(6)),
        loss: 0.0,
    });
    let root = build(&mut sim);
    let (_, resolver) = sim.add_node(Box::new(RecursiveResolver::new(profiles::bind_like(vec![
        root,
    ]))));
    let answers = Arc::new(Mutex::new(Vec::new()));
    let rcode = Arc::new(Mutex::new(None));
    sim.add_node(Box::new(OneQuery {
        resolver,
        qname: name("www.alpha.test"),
        answers: answers.clone(),
        rcode: rcode.clone(),
    }));
    sim.run_until(SimDuration::from_secs(30).after_zero());

    assert_eq!(*rcode.lock(), Some(Rcode::NoError));
    let answers = answers.lock();
    assert_eq!(answers.len(), 2, "chain + final record: {answers:?}");
    assert_eq!(answers[0].rtype(), RecordType::CNAME);
    assert_eq!(answers[0].name, name("www.alpha.test"));
    assert_eq!(answers[1].rtype(), RecordType::A);
    assert_eq!(answers[1].name, name("web.beta.test"));
    assert_eq!(answers[1].rdata, RData::A(Ipv4Addr::new(203, 0, 113, 80)));
}

#[test]
fn second_lookup_hits_the_cached_chain() {
    let mut sim = Simulator::new(92);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(6)),
        loss: 0.0,
    });
    let root = build(&mut sim);
    let (resolver_id, resolver) =
        sim.add_node(Box::new(RecursiveResolver::new(profiles::bind_like(vec![
            root,
        ]))));
    // Two sequential clients for the same alias.
    for delay in [1u64, 10] {
        struct Delayed {
            resolver: Addr,
            delay: u64,
            answers: Arc<Mutex<Vec<Record>>>,
        }
        impl Node for Delayed {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_secs(self.delay), TimerToken(0));
            }
            fn on_datagram(
                &mut self,
                _ctx: &mut Context<'_>,
                _src: Addr,
                msg: &Message,
                _l: usize,
            ) {
                if msg.is_response {
                    *self.answers.lock() = msg.answers.clone();
                }
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
                ctx.send(
                    self.resolver,
                    &Message::query(7, name("www.alpha.test"), RecordType::A),
                );
            }
        }
        let answers = Arc::new(Mutex::new(Vec::new()));
        sim.add_node(Box::new(Delayed {
            resolver,
            delay,
            answers: answers.clone(),
        }));
        if delay == 10 {
            sim.run_until(SimDuration::from_secs(30).after_zero());
            let a = answers.lock();
            // The A record for the CNAME target is served from cache
            // with a decremented TTL.
            let final_a = a.iter().find(|r| r.rtype() == RecordType::A).unwrap();
            assert!(
                final_a.ttl < 120,
                "cached target decremented: {}",
                final_a.ttl
            );
        }
    }
    // The second resolution required no new upstream queries for the
    // target A record (it was cached); resolutions counter shows the
    // dedup: alias + target + infra for two zones on the first pass only.
    let node = sim.node(resolver_id).unwrap();
    let r = node
        .as_any()
        .unwrap()
        .downcast_ref::<RecursiveResolver>()
        .unwrap();
    assert!(r.stats().cache_hits >= 1, "{:?}", r.stats());
}

#[test]
fn cname_loops_are_bounded() {
    // zone with a -> b -> a alias loop.
    let mut sim = Simulator::new(93);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(4)),
        loss: 0.0,
    });
    let origin = Name::root();
    let mut z = Zone::new(origin.clone(), 3600, soa(&origin));
    z.add(Record::new(
        name("a.loop"),
        60,
        RData::Cname(name("b.loop")),
    ));
    z.add(Record::new(
        name("b.loop"),
        60,
        RData::Cname(name("a.loop")),
    ));
    let (_, auth) = sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(z))));
    let (_, resolver) = sim.add_node(Box::new(RecursiveResolver::new(profiles::bind_like(vec![
        auth,
    ]))));
    let answers = Arc::new(Mutex::new(Vec::new()));
    let rcode = Arc::new(Mutex::new(None));
    sim.add_node(Box::new(OneQuery {
        resolver,
        qname: name("a.loop"),
        answers,
        rcode: rcode.clone(),
    }));
    sim.run_until(SimDuration::from_secs(60).after_zero());
    // The resolver terminates (SERVFAIL) instead of looping forever.
    assert_eq!(*rcode.lock(), Some(Rcode::ServFail));
}

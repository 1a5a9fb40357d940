//! Cross-crate integration: wire ↔ netsim ↔ auth ↔ resolver ↔ stub glued
//! together by hand (no experiment harness), checking that the pieces
//! compose the way a downstream user would assemble them.

use std::net::Ipv4Addr;
use std::sync::Arc;

use dike::auth::{AuthServer, Zone};
use dike::cache::{CacheAnswer, CacheConfig, ResolverCache};
use dike::netsim::{
    Addr, Context, LatencyModel, LinkParams, LinkTable, Node, SimDuration, SimTime, Simulator,
    TimerToken,
};
use dike::resolver::{profiles, RecursiveResolver};
use dike::stub::{new_shared_log, StubConfig, StubProbe};
use dike::telemetry::sync::Mutex;
use dike::wire::{codec, Message, Name, RData, Record, RecordType, SoaData};

fn name(s: &str) -> Name {
    Name::parse(s).unwrap()
}

/// A hand-built single zone served straight to a stub via one resolver.
#[test]
fn hand_assembled_stack_resolves() {
    let mut sim = Simulator::new(77);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(7)),
        loss: 0.0,
    });

    // One self-contained zone acting as "the root" for this resolver.
    let auth_addr = sim.next_addr();
    let origin = Name::root();
    let mut zone = Zone::new(
        origin.clone(),
        3600,
        SoaData {
            mname: name("ns1"),
            rname: name("hostmaster"),
            serial: 1,
            refresh: 1,
            retry: 1,
            expire: 1,
            minimum: 60,
        },
    );
    zone.add(Record::new(
        name("www.example"),
        300,
        RData::A(Ipv4Addr::new(203, 0, 113, 80)),
    ));
    sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(zone))));

    let (_, resolver) = sim.add_node(Box::new(RecursiveResolver::new(profiles::bind_like(vec![
        auth_addr,
    ]))));

    let observed = Arc::new(Mutex::new(Vec::new()));
    struct Client {
        resolver: Addr,
        observed: Arc<Mutex<Vec<Message>>>,
    }
    impl Node for Client {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_secs(1), TimerToken(0));
        }
        fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, msg: &Message, _l: usize) {
            self.observed.lock().push(msg.clone());
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
            ctx.send(
                self.resolver,
                &Message::query(5, Name::parse("www.example").unwrap(), RecordType::A),
            );
        }
    }
    sim.add_node(Box::new(Client {
        resolver,
        observed: observed.clone(),
    }));

    sim.run_until(SimDuration::from_secs(30).after_zero());
    let msgs = observed.lock();
    assert_eq!(msgs.len(), 1);
    assert_eq!(
        msgs[0].answers[0].rdata,
        RData::A(Ipv4Addr::new(203, 0, 113, 80))
    );
    assert!(msgs[0].recursion_available);
}

/// The stub's log feeds the classifier across crate boundaries.
#[test]
fn stub_log_flows_into_classifier() {
    use dike::experiments::topology::add_hierarchy;
    let mut sim = Simulator::new(78);
    let (root, _, _) = add_hierarchy(&mut sim, 3600);
    let (_, resolver) = sim.add_node(Box::new(RecursiveResolver::new(profiles::unbound_like(
        vec![root],
    ))));
    let log = new_shared_log();
    for pid in 1..=10u16 {
        let cfg = StubConfig::new(
            pid,
            vec![resolver],
            SimDuration::from_secs(pid as u64),
            SimDuration::from_mins(20),
            4,
        );
        sim.add_node(Box::new(StubProbe::new(cfg, log.clone())));
    }
    sim.run_until(SimDuration::from_mins(90).after_zero());

    let log_data = log.lock();
    assert_eq!(log_data.records.len(), 40, "10 probes x 4 rounds");
    let classification = dike::stats::classify::Classifier::default().classify(&log_data);
    let s = classification.summary;
    assert_eq!(s.warmup, 10);
    // All probes share one honoring resolver: everything after warm-up is
    // a cache hit.
    assert_eq!(s.cc, 30);
    assert_eq!(s.ac, 0);
}

/// The wire codec round-trips everything the auth server emits for a
/// messy query mix (codec-in-the-loop invariant, asserted explicitly).
#[test]
fn auth_responses_survive_the_codec() {
    let mut server = AuthServer::new().with_zone(Box::new(dike::auth::CacheTestZone::new(
        300,
        &[
            Ipv4Addr::new(198, 51, 100, 1),
            Ipv4Addr::new(198, 51, 100, 2),
        ],
    )));
    let queries = [
        ("1414.cachetest.nl", RecordType::AAAA),
        ("1414.cachetest.nl", RecordType::A),
        ("cachetest.nl", RecordType::NS),
        ("cachetest.nl", RecordType::SOA),
        ("ns1.cachetest.nl", RecordType::A),
        ("ns1.cachetest.nl", RecordType::AAAA),
        ("nope!!.cachetest.nl", RecordType::AAAA),
        ("example.com", RecordType::A),
    ];
    for (i, (qname, qtype)) in queries.iter().enumerate() {
        let Ok(qname) = Name::parse(qname) else {
            continue; // invalid labels never reach the server
        };
        let q = Message::iterative_query(i as u16, qname, *qtype);
        let resp = server.handle_query(SimTime::ZERO, &q);
        let bytes = codec::encode(&resp).expect("encodes");
        let back = codec::decode(&bytes).expect("decodes");
        assert_eq!(back, resp, "round trip for query {i}");
    }
}

/// Cache crate behaviour matches what the resolver relies on: negative
/// entries expire on the SOA minimum, and serve-stale only fires via the
/// dedicated lookup.
#[test]
fn cache_contract_for_resolver() {
    let mut cache = ResolverCache::new(CacheConfig::honoring().with_serve_stale());
    let now = SimTime::ZERO;
    cache.insert_negative(
        now,
        name("missing.cachetest.nl"),
        RecordType::AAAA,
        dike::cache::NegativeKind::NoData,
        60,
    );
    let later = SimDuration::from_secs(30).after_zero();
    assert!(matches!(
        cache.lookup(later, &name("missing.cachetest.nl"), RecordType::AAAA),
        CacheAnswer::Negative(dike::cache::NegativeKind::NoData)
    ));
    let expired = SimDuration::from_secs(61).after_zero();
    assert_eq!(
        cache.lookup(expired, &name("missing.cachetest.nl"), RecordType::AAAA),
        CacheAnswer::Miss
    );
    // Negative entries are never served stale.
    assert_eq!(
        cache.lookup_stale(
            expired,
            &name("missing.cachetest.nl"),
            RecordType::AAAA,
            dike::cache::TrustLevel::Glue
        ),
        CacheAnswer::Miss
    );
}

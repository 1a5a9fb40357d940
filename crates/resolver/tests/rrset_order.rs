//! The order a response's RRsets enter the cache is the order of the
//! records in the response, never a hash seed's: it is the LRU order, so
//! it decides which RRset survives in a full cache.

use std::net::Ipv4Addr;

use dike_cache::{CacheKey, TrustLevel};
use dike_netsim::{
    Addr, Context, LatencyModel, LinkParams, LinkTable, Node, SimDuration, Simulator, TimerToken,
};
use dike_resolver::{profiles, RecursiveResolver};
use dike_wire::{Message, MessageBuilder, Name, RData, Record, RecordType};

fn name(s: &str) -> Name {
    Name::parse(s).unwrap()
}

/// A parent that answers every question with one referral to
/// `sub.cachetest.nl`, served by ns1 then ns2, with glue for each in
/// that order. The glue addresses belong to no node.
struct ReferringParent;

impl Node for ReferringParent {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _l: usize) {
        if msg.is_response {
            return;
        }
        let child = name("sub.cachetest.nl");
        let mut b = MessageBuilder::respond_to(msg);
        for (i, ns) in ["ns1.sub.cachetest.nl", "ns2.sub.cachetest.nl"]
            .into_iter()
            .enumerate()
        {
            b = b
                .authority(Record::new(child.clone(), 3_600, RData::Ns(name(ns))))
                .additional(Record::new(
                    name(ns),
                    3_600,
                    RData::A(Ipv4Addr::new(192, 0, 2, i as u8 + 1)),
                ));
        }
        ctx.send(src, &b.build());
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _t: TimerToken) {}
}

/// Asks the resolver one question at start-up.
struct OneQuery {
    resolver: Addr,
}

impl Node for OneQuery {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.send(
            self.resolver,
            &Message::query(1, name("www.sub.cachetest.nl"), RecordType::A),
        );
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, _msg: &Message, _l: usize) {}
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _t: TimerToken) {}
}

#[test]
fn a_one_slot_cache_keeps_the_last_glue_rrset_of_a_referral() {
    // Regression: glue used to be grouped in a `HashMap` and cached in
    // its iteration order, which a per-instance random seed decides, so
    // either ns1's or ns2's address could end up as the survivor.
    for seed in 0..32 {
        let mut sim = Simulator::new(seed);
        *sim.links_mut() = LinkTable::new(LinkParams {
            latency: LatencyModel::Fixed(SimDuration::from_millis(5)),
            loss: 0.0,
        });
        let (_, parent) = sim.add_node(Box::new(ReferringParent));
        let mut config = profiles::bind_like(vec![parent]);
        config.cache.capacity = 1;
        let (resolver_id, resolver) = sim.add_node(Box::new(RecursiveResolver::new(config)));
        sim.add_node(Box::new(OneQuery { resolver }));
        // Past the referral and the infrastructure fetches' referrals,
        // short of the first retry.
        sim.run_until(SimDuration::from_millis(100).after_zero());

        let r = sim
            .node(resolver_id)
            .unwrap()
            .as_any()
            .unwrap()
            .downcast_ref::<RecursiveResolver>()
            .unwrap();
        assert!(r.stats().referrals >= 1, "{:?}", r.stats());
        let cached: Vec<(CacheKey, TrustLevel)> = r
            .dump_cache(sim.now())
            .into_iter()
            .map(|(key, _, trust)| (key, trust))
            .collect();
        assert_eq!(
            cached,
            [(
                CacheKey::new(name("ns2.sub.cachetest.nl"), RecordType::A),
                TrustLevel::Glue
            )],
            "seed {seed}"
        );
    }
}

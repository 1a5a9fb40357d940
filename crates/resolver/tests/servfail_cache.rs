//! RFC 2308 §7 failure caching: repeated client queries for a dead name
//! inside the SERVFAIL TTL get an immediate error without new upstream
//! traffic; after the TTL, resolution is attempted again.

use std::sync::Arc;

use dike_telemetry::sync::Mutex;

use dike_netsim::{
    Addr, Context, LatencyModel, LinkParams, LinkTable, Node, SimDuration, SimTime, Simulator,
    TimerToken,
};
use dike_resolver::{profiles, RecursiveResolver};
use dike_wire::{Message, Name, Rcode, RecordType};

/// Sends a query at each scripted time and records (time, rcode, rtt).
struct Repeater {
    resolver: Addr,
    times: Vec<u64>, // seconds
    sent: std::collections::HashMap<u16, SimTime>,
    next_id: u16,
    observed: Arc<Mutex<Vec<(u64, Rcode, u64)>>>, // (sent s, rcode, rtt ms)
}

impl Node for Repeater {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (i, &t) in self.times.iter().enumerate() {
            ctx.set_timer(SimDuration::from_secs(t), TimerToken(i as u64));
        }
    }
    fn on_datagram(&mut self, ctx: &mut Context<'_>, _src: Addr, msg: &Message, _l: usize) {
        if let Some(sent) = self.sent.remove(&msg.id) {
            self.observed
                .lock()
                .push((sent.as_secs(), msg.rcode, (ctx.now() - sent).as_millis()));
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
        self.next_id += 1;
        let id = self.next_id;
        self.sent.insert(id, ctx.now());
        ctx.send(
            self.resolver,
            &Message::query(id, Name::parse("7.cachetest.nl").unwrap(), RecordType::AAAA),
        );
    }
}

#[test]
fn failure_cache_short_circuits_repeat_queries() {
    let mut sim = Simulator::new(55);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(10)),
        loss: 0.0,
    });
    let (root, _, ns) = dike_experiments::topology::add_hierarchy(&mut sim, 60);
    let mut cfg = profiles::bind_like(vec![root]);
    cfg.servfail_ttl = SimDuration::from_secs(30);
    let (resolver_id, resolver) = sim.add_node(Box::new(RecursiveResolver::new(cfg)));

    // Authoritatives dead from the start.
    sim.links_mut().set_ingress_loss(ns[0], 1.0);
    sim.links_mut().set_ingress_loss(ns[1], 1.0);

    let observed = Arc::new(Mutex::new(Vec::new()));
    // Query at t=1 (fails slowly), t=20 (inside failure TTL: instant
    // SERVFAIL), t=60 (failure TTL expired: full retry cycle again).
    sim.add_node(Box::new(Repeater {
        resolver,
        times: vec![1, 20, 60],
        sent: Default::default(),
        next_id: 0,
        observed: observed.clone(),
    }));
    sim.run_until(SimDuration::from_secs(120).after_zero());

    let obs = observed.lock();
    assert_eq!(obs.len(), 3, "every query answered: {obs:?}");
    let by_time: std::collections::HashMap<u64, (Rcode, u64)> =
        obs.iter().map(|&(t, rc, rtt)| (t, (rc, rtt))).collect();

    let (rc1, rtt1) = by_time[&1];
    assert_eq!(rc1, Rcode::ServFail);
    assert!(
        rtt1 > 2_000,
        "first failure takes the retry budget: {rtt1}ms"
    );

    let (rc2, rtt2) = by_time[&20];
    assert_eq!(rc2, Rcode::ServFail);
    assert!(rtt2 < 100, "failure-cache hit is immediate: {rtt2}ms");

    let (rc3, rtt3) = by_time[&60];
    assert_eq!(rc3, Rcode::ServFail);
    assert!(
        rtt3 > 2_000,
        "after the failure TTL, retries resume: {rtt3}ms"
    );

    // The stats agree.
    let node = sim.node(resolver_id).unwrap();
    let r = node
        .as_any()
        .unwrap()
        .downcast_ref::<RecursiveResolver>()
        .unwrap();
    assert_eq!(r.stats().servfail_cache_hits, 1);
    // Two client resolutions failed (t=1 and t=60); infra (NS-address)
    // tasks fail alongside them.
    assert!(r.stats().failures >= 2, "{:?}", r.stats());
}

#[test]
fn zero_ttl_disables_the_failure_cache() {
    let mut sim = Simulator::new(56);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(10)),
        loss: 0.0,
    });
    let (root, _, ns) = dike_experiments::topology::add_hierarchy(&mut sim, 60);
    let mut cfg = profiles::bind_like(vec![root]);
    cfg.servfail_ttl = SimDuration::ZERO;
    let (resolver_id, resolver) = sim.add_node(Box::new(RecursiveResolver::new(cfg)));
    sim.links_mut().set_ingress_loss(ns[0], 1.0);
    sim.links_mut().set_ingress_loss(ns[1], 1.0);

    let observed = Arc::new(Mutex::new(Vec::new()));
    sim.add_node(Box::new(Repeater {
        resolver,
        times: vec![1, 20],
        sent: Default::default(),
        next_id: 0,
        observed: observed.clone(),
    }));
    sim.run_until(SimDuration::from_secs(90).after_zero());

    let obs = observed.lock();
    assert_eq!(obs.len(), 2);
    assert!(
        obs.iter().all(|&(_, _, rtt)| rtt > 2_000),
        "without the failure cache every query pays full retries: {obs:?}"
    );
    let node = sim.node(resolver_id).unwrap();
    let r = node
        .as_any()
        .unwrap()
        .downcast_ref::<RecursiveResolver>()
        .unwrap();
    assert_eq!(r.stats().servfail_cache_hits, 0);
}

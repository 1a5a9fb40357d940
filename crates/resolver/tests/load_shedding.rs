//! Load shedding: a resolver whose pending-task table is full refuses
//! new questions with SERVFAIL instead of amplifying the retry storm —
//! BIND's `recursive-clients` behaviour.

use std::sync::Arc;

use dike_telemetry::sync::Mutex;

use dike_netsim::{
    Addr, Context, LatencyModel, LinkParams, LinkTable, Node, SimDuration, Simulator, TimerToken,
};
use dike_resolver::{profiles, RecursiveResolver};
use dike_wire::{Message, Name, Rcode, RecordType};

/// Fires `n` distinct-name queries in one burst and tallies outcomes.
struct BurstClient {
    resolver: Addr,
    n: u32,
    servfails: Arc<Mutex<usize>>,
    oks: Arc<Mutex<usize>>,
}

impl Node for BurstClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs(1), TimerToken(0));
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, msg: &Message, _l: usize) {
        if msg.is_response {
            match msg.rcode {
                Rcode::ServFail => *self.servfails.lock() += 1,
                Rcode::NoError if !msg.answers.is_empty() => *self.oks.lock() += 1,
                _ => {}
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
        for pid in 1..=self.n {
            ctx.send(
                self.resolver,
                &Message::query(
                    pid as u16,
                    Name::parse(&format!("{pid}.cachetest.nl")).unwrap(),
                    RecordType::AAAA,
                ),
            );
        }
    }
}

/// A server that never answers.
struct Silent;

impl Node for Silent {
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, _msg: &Message, _l: usize) {}
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _t: TimerToken) {}
}

fn shed_of(sim: &Simulator, resolver: dike_netsim::NodeId) -> u64 {
    sim.node(resolver)
        .unwrap()
        .as_any()
        .unwrap()
        .downcast_ref::<RecursiveResolver>()
        .unwrap()
        .stats()
        .shed
}

fn run(max_pending: usize, authoritatives_up: bool) -> (usize, usize, u64) {
    let mut sim = Simulator::new(71);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(8)),
        loss: 0.0,
    });
    let (root, _, ns) = dike_experiments::topology::add_hierarchy(&mut sim, 300);
    let mut cfg = profiles::bind_like(vec![root]);
    cfg.max_pending = max_pending;
    let (resolver_id, resolver) = sim.add_node(Box::new(RecursiveResolver::new(cfg)));
    if !authoritatives_up {
        sim.links_mut().set_ingress_loss(ns[0], 1.0);
        sim.links_mut().set_ingress_loss(ns[1], 1.0);
    }
    let servfails = Arc::new(Mutex::new(0));
    let oks = Arc::new(Mutex::new(0));
    sim.add_node(Box::new(BurstClient {
        resolver,
        n: 200,
        servfails: servfails.clone(),
        oks: oks.clone(),
    }));
    sim.run_until(SimDuration::from_secs(90).after_zero());
    let shed = shed_of(&sim, resolver_id);
    let s = *servfails.lock();
    let o = *oks.lock();
    (o, s, shed)
}

#[test]
fn healthy_resolver_with_headroom_answers_everything() {
    let (ok, servfail, shed) = run(10_000, true);
    assert_eq!(ok, 200);
    assert_eq!(servfail, 0);
    assert_eq!(shed, 0);
}

#[test]
fn full_table_sheds_excess_load_under_outage() {
    // Dead authoritatives: every resolution hangs in retries, so a burst
    // of 200 distinct questions against a 50-task table sheds most of
    // the burst instantly.
    let (ok, servfail, shed) = run(50, false);
    assert_eq!(ok, 0);
    assert!(shed >= 140, "most of the burst shed: {shed}");
    // Every query is eventually answered SERVFAIL (shed fast, the rest
    // after the retry budget).
    assert_eq!(servfail, 200);
}

#[test]
fn shedding_does_not_trigger_when_authoritatives_answer() {
    // With servers up, the 50-task table drains as fast as answers come
    // back at 8 ms RTT hops; in a single instantaneous burst, though,
    // everything past the cap is shed. That is correct: real resolvers
    // shed bursts too. What must hold: the shed count plus successes
    // covers the burst, and nothing is silently dropped.
    let (ok, servfail, shed) = run(50, true);
    assert_eq!(ok + servfail, 200);
    assert_eq!(servfail as u64, shed);
}

#[test]
fn exhausted_message_ids_shed_instead_of_spinning() {
    // A pending table larger than the 65,535 upstream message ids, and
    // one more distinct question than there are ids, all asked at once
    // of a root that never answers. The last task finds no free id: it
    // is shed with SERVFAIL instead of searching the id space forever.
    let mut sim = Simulator::new(72);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(8)),
        loss: 0.0,
    });
    let (_, root) = sim.add_node(Box::new(Silent));
    let mut cfg = profiles::bind_like(vec![root]);
    cfg.max_pending = 70_000;
    let (resolver_id, resolver) = sim.add_node(Box::new(RecursiveResolver::new(cfg)));
    let servfails = Arc::new(Mutex::new(0));
    let n = u32::from(u16::MAX) + 1;
    sim.add_node(Box::new(BurstClient {
        resolver,
        n,
        servfails: servfails.clone(),
        oks: Arc::new(Mutex::new(0)),
    }));
    sim.run_until_idle();
    assert_eq!(shed_of(&sim, resolver_id), 1, "one question more than ids");
    assert_eq!(*servfails.lock(), n as usize, "every question answered");
}

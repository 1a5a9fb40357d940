//! A failed resolution must not hand referral (glue) data to a client of a
//! resolver that does not answer from glue: the serve-stale fallback keeps
//! the client trust floor that a cache hit keeps (RFC 2181 §5.4.1).

use std::net::Ipv4Addr;
use std::sync::Arc;

use dike_netsim::{
    Addr, Context, LatencyModel, LinkParams, LinkTable, Node, SimDuration, Simulator, TimerToken,
};
use dike_resolver::{profiles, RecursiveResolver};
use dike_telemetry::sync::Mutex;
use dike_wire::{Message, MessageBuilder, Name, RData, Rcode, Record, RecordType};

fn name(s: &str) -> Name {
    Name::parse(s).unwrap()
}

/// A parent that refers every question to `sub.test`, served by
/// `ns1.sub.test`, with glue for it. The glue address belongs to no node:
/// the child's only authoritative is dead.
struct ReferringParent;

impl Node for ReferringParent {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _l: usize) {
        if msg.is_response {
            return;
        }
        let ns = name("ns1.sub.test");
        let resp = MessageBuilder::respond_to(msg)
            .authority(Record::new(name("sub.test"), 3_600, RData::Ns(ns.clone())))
            .additional(Record::new(
                ns,
                3_600,
                RData::A(Ipv4Addr::new(192, 0, 2, 53)),
            ))
            .build();
        ctx.send(src, &resp);
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _t: TimerToken) {}
}

/// Asks the resolver for the name server's own address, and keeps the
/// answer.
struct AskNameServer {
    resolver: Addr,
    answer: Arc<Mutex<Option<Message>>>,
}

impl Node for AskNameServer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.send(
            self.resolver,
            &Message::query(1, name("ns1.sub.test"), RecordType::A),
        );
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, msg: &Message, _l: usize) {
        if msg.is_response {
            *self.answer.lock() = Some(msg.clone());
        }
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _t: TimerToken) {}
}

#[test]
fn a_failed_resolution_does_not_serve_glue_to_the_client() {
    let mut sim = Simulator::new(7);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(5)),
        loss: 0.0,
    });
    let (_, parent) = sim.add_node(Box::new(ReferringParent));
    let config = profiles::with_serve_stale(profiles::bind_like(vec![parent]));
    assert!(!config.answer_from_glue);
    let (resolver_id, resolver) = sim.add_node(Box::new(RecursiveResolver::new(config)));
    let answer = Arc::new(Mutex::new(None));
    sim.add_node(Box::new(AskNameServer {
        resolver,
        answer: answer.clone(),
    }));
    // Past the whole retry budget against the dead child.
    sim.run_until(SimDuration::from_secs(30).after_zero());

    let r = sim
        .node(resolver_id)
        .unwrap()
        .as_any()
        .unwrap()
        .downcast_ref::<RecursiveResolver>()
        .unwrap();
    assert_eq!(r.stats().referrals, 1, "{:?}", r.stats());
    assert_eq!(r.stats().failures, 1, "{:?}", r.stats());
    assert_eq!(r.stats().stale_served, 0, "{:?}", r.stats());
    let answer = answer.lock().clone().expect("the client got an answer");
    assert_eq!(answer.rcode, Rcode::ServFail, "{answer:?}");
    assert!(answer.answers.is_empty(), "glue served: {answer:?}");
}

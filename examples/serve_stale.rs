//! Serve-stale (RFC 8767) as a DDoS defense: the paper's §5.3 spotted
//! early adopters serving expired records with TTL 0 when every
//! authoritative was unreachable. This example measures how much that
//! helps during a complete outage, by running the same outage against a
//! single resolver with the feature off and on.
//!
//! ```text
//! cargo run --release --example serve_stale
//! ```

use std::sync::Arc;

use dike::netsim::{
    Addr, Context, LatencyModel, LinkParams, LinkTable, Node, SimDuration, Simulator, TimerToken,
};
use dike::resolver::{profiles, RecursiveResolver};
use dike::telemetry::sync::Mutex;
use dike::wire::{Message, Name, Rcode, RecordType};
use dike_experiments::topology::add_hierarchy;

/// One observation: (minute, rcode, first answer TTL).
type Obs = (u64, Rcode, Option<u32>);

/// Queries the resolver every minute and records outcomes.
struct Poller {
    resolver: Addr,
    next_id: u16,
    results: Arc<Mutex<Vec<Obs>>>,
}

impl Node for Poller {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs(30), TimerToken(0));
    }
    fn on_datagram(&mut self, ctx: &mut Context<'_>, _src: Addr, msg: &Message, _l: usize) {
        if msg.is_response {
            let ttl = msg.answers.first().map(|r| r.ttl);
            self.results
                .lock()
                .push((ctx.now().as_mins(), msg.rcode, ttl));
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
        self.next_id += 1;
        ctx.send(
            self.resolver,
            &Message::query(
                self.next_id,
                Name::parse("7.cachetest.nl").expect("static"),
                RecordType::AAAA,
            ),
        );
        ctx.set_timer(SimDuration::from_mins(1), TimerToken(0));
    }
}

fn run(serve_stale: bool) -> Vec<Obs> {
    let mut sim = Simulator::new(11);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(15)),
        loss: 0.0,
    });
    // Zone TTL of 120 s: caches expire two minutes into the outage.
    let (root, _nl, ns) = add_hierarchy(&mut sim, 120);
    let config = if serve_stale {
        profiles::with_serve_stale(profiles::unbound_like(vec![root]))
    } else {
        profiles::unbound_like(vec![root])
    };
    let (_, resolver) = sim.add_node(Box::new(RecursiveResolver::new(config)));
    let results = Arc::new(Mutex::new(Vec::new()));
    sim.add_node(Box::new(Poller {
        resolver,
        next_id: 0,
        results: results.clone(),
    }));
    // Complete outage of both authoritatives from minute 5 to minute 25.
    let (a, b) = (ns[0], ns[1]);
    sim.schedule_control(SimDuration::from_mins(5).after_zero(), move |w| {
        w.links_mut().set_ingress_loss(a, 1.0);
        w.links_mut().set_ingress_loss(b, 1.0);
    });
    sim.run_until(SimDuration::from_mins(25).after_zero());
    drop(sim);
    Arc::try_unwrap(results).expect("single owner").into_inner()
}

fn main() {
    for serve_stale in [false, true] {
        let results = run(serve_stale);
        let ok = results
            .iter()
            .filter(|(_, rc, _)| *rc == Rcode::NoError)
            .count();
        let servfail = results
            .iter()
            .filter(|(_, rc, _)| *rc == Rcode::ServFail)
            .count();
        let stale = results
            .iter()
            .filter(|(_, rc, ttl)| *rc == Rcode::NoError && *ttl == Some(0))
            .count();
        println!(
            "serve-stale {}: {} answers OK ({} of them stale with TTL 0), {} SERVFAIL",
            if serve_stale { "ON " } else { "OFF" },
            ok,
            stale,
            servfail
        );
        if serve_stale {
            println!(
                "  -> stale answers carry TTL 0, exactly what the paper observed in\n\
                 \x20    the wild: 1031 of 1048 late-outage successes had TTL=0 (§5.3)"
            );
        }
    }
}

//! Build a public-resolver farm by hand with the low-level API and watch
//! cache fragmentation happen — the serial-number regression fingerprint
//! from the paper's §3.5 ("one VP reports serial numbers 1, 3, 3, 7,
//! 3, 3").
//!
//! ```text
//! cargo run --release --example resolver_farm
//! ```

use std::sync::Arc;

use dike::auth::decode_probe_aaaa;
use dike::netsim::{
    Addr, Context, LatencyModel, LinkParams, LinkTable, Node, SimDuration, Simulator, TimerToken,
};
use dike::resolver::{profiles, RecursiveResolver};
use dike::telemetry::sync::Mutex;
use dike::wire::{Message, Name, RData, RecordType};
use dike_experiments::topology::add_hierarchy;

/// Queries the farm every 5 minutes and records the serial embedded in
/// each answer.
struct SerialWatcher {
    frontend: Addr,
    next_id: u16,
    serials: Arc<Mutex<Vec<u16>>>,
}

impl Node for SerialWatcher {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs(10), TimerToken(0));
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, msg: &Message, _l: usize) {
        for r in &msg.answers {
            if let RData::Aaaa(a) = r.rdata {
                if let Some(p) = decode_probe_aaaa(a) {
                    self.serials.lock().push(p.serial);
                }
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
        self.next_id += 1;
        ctx.send(
            self.frontend,
            &Message::query(
                self.next_id,
                Name::parse("42.cachetest.nl").expect("static"),
                RecordType::AAAA,
            ),
        );
        ctx.set_timer(SimDuration::from_mins(5), TimerToken(0));
    }
}

fn main() {
    let mut sim = Simulator::new(3);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::LogNormal {
            median: SimDuration::from_millis(15),
            sigma: 0.3,
        },
        loss: 0.0,
    });
    // A 30-minute TTL: backends refresh at staggered times, so their
    // caches hold different zone serials.
    let (root, _nl, _ns) = add_hierarchy(&mut sim, 1800);

    // The farm: four independent backend resolvers...
    let mut backends = Vec::new();
    for _ in 0..4 {
        let (_, addr) = sim.add_node(Box::new(RecursiveResolver::new(profiles::unbound_like(
            vec![root],
        ))));
        backends.push(addr);
    }
    // ...behind a frontend that sprays queries across them. For this
    // demo the frontend's own cache is disabled (max_ttl 0) so every
    // query reaches a backend; in the full population model the same
    // effect comes from thousands of distinct names thrashing the
    // frontend's cache.
    let mut frontend_cfg = profiles::farm_frontend(backends);
    frontend_cfg.cache.max_ttl = 0;
    let (_, frontend) = sim.add_node(Box::new(RecursiveResolver::new(frontend_cfg)));

    let serials = Arc::new(Mutex::new(Vec::new()));
    sim.add_node(Box::new(SerialWatcher {
        frontend,
        next_id: 0,
        serials: serials.clone(),
    }));

    // Two hours: the zone serial rotates every 10 minutes, so fresh
    // fetches carry ever-larger serials while cached answers lag.
    sim.run_until(SimDuration::from_mins(120).after_zero());
    drop(sim);

    let serials = Arc::try_unwrap(serials).expect("single owner").into_inner();
    println!("answers' serials over two hours, one query every 5 minutes:");
    println!("{serials:?}");
    let regressions = serials.windows(2).filter(|w| w[1] < w[0]).count();
    println!(
        "\nserial went backwards {regressions} times — each regression is a query \n\
         landing on a farm backend with an older cached copy, the same \n\
         fingerprint the paper used to detect fragmented caches (§3.5)."
    );
    assert!(
        regressions > 0,
        "with 4 fragmented backends, regressions are expected"
    );
}

//! Hot-path invariants: decode-once delivery, malformed-payload handling,
//! and generation-stamped timer-slot reuse.

use std::sync::Arc;

use dike_telemetry::sync::Mutex;

use dike_netsim::trace::{shared, CountingTrace};
use dike_netsim::{
    Addr, Context, LatencyModel, LinkParams, LinkTable, Node, SimDuration, Simulator, TimerToken,
};
use dike_wire::{Message, Name, RecordType};

struct Echo;
impl Node for Echo {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _l: usize) {
        if !msg.is_response {
            ctx.send(src, &Message::response_to(msg));
        }
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _t: TimerToken) {}
}

/// Fires `n` queries at start and counts responses.
struct Client {
    target: Addr,
    n: u16,
    responses: Arc<Mutex<u64>>,
}

impl Node for Client {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs(1), TimerToken(0));
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, msg: &Message, _l: usize) {
        if msg.is_response {
            *self.responses.lock() += 1;
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
        for id in 0..self.n {
            ctx.send(
                self.target,
                &Message::query(id, Name::parse("x.nl").unwrap(), RecordType::A),
            );
        }
    }
}

fn lossless_sim(seed: u64) -> Simulator {
    let mut sim = Simulator::new(seed);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(5)),
        loss: 0.0,
    });
    sim
}

#[test]
fn decode_once_per_delivered_datagram() {
    let mut sim = lossless_sim(7);
    let (_, echo) = sim.add_node(Box::new(Echo));
    let responses = Arc::new(Mutex::new(0u64));
    sim.add_node(Box::new(Client {
        target: echo,
        n: 200,
        responses: responses.clone(),
    }));
    sim.run_until_idle();
    let perf = sim.perf();
    drop(sim);

    assert_eq!(*responses.lock(), 200);
    // The whole point of the overhaul: exactly one decode per delivered
    // datagram, none wasted on a second pass.
    assert_eq!(perf.datagrams_delivered, 400, "200 queries + 200 responses");
    assert_eq!(perf.datagrams_decoded, perf.datagrams_delivered);
    assert_eq!(perf.datagrams_undecodable, 0);
    assert!(perf.bytes_encoded > 0);
    assert_eq!(perf.bytes_encoded, perf.bytes_decoded);
}

/// A node that sprays undecodable bytes at its target.
struct Garbler {
    target: Addr,
    count: u32,
}

impl Node for Garbler {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs(1), TimerToken(0));
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, _msg: &Message, _l: usize) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
        for _ in 0..self.count {
            // Too short to hold a DNS header; the decoder must reject it.
            ctx.send_wire(self.target, Arc::from([0xde, 0xad]));
        }
    }
}

#[test]
fn malformed_payloads_are_counted_and_dropped_not_panicked() {
    let mut sim = lossless_sim(8);
    let (_, echo) = sim.add_node(Box::new(Echo));
    sim.add_node(Box::new(Garbler {
        target: echo,
        count: 5,
    }));
    let (counts, sink) = shared(CountingTrace::default());
    sim.add_sink(sink);
    sim.run_until_idle();
    let perf = sim.perf();
    drop(sim);

    let counts = Arc::try_unwrap(counts).expect("one owner").into_inner();
    assert_eq!(counts.malformed, 5);
    assert_eq!(counts.delivered, 0, "garbage is dropped before any node");
    assert_eq!(perf.datagrams_undecodable, 5);
    assert_eq!(perf.datagrams_delivered, 0);
}

/// Sets and cancels timers in patterns that force slot reuse.
struct TimerChurner {
    fired: Arc<Mutex<Vec<u64>>>,
    round: u32,
}

impl Node for TimerChurner {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Two timers; cancel the first immediately so its slot frees when
        // the event pops and later timers recycle it.
        let doomed = ctx.set_timer(SimDuration::from_secs(1), TimerToken(100));
        ctx.set_timer(SimDuration::from_secs(2), TimerToken(1));
        ctx.cancel_timer(doomed);
        // Double-cancel must be a no-op.
        ctx.cancel_timer(doomed);
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, _msg: &Message, _l: usize) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, t: TimerToken) {
        self.fired.lock().push(t.0);
        self.round += 1;
        if self.round < 4 {
            // Re-arm: these reuse the freed slot with a bumped generation;
            // a stale-generation cancel of the recycled slot must not kill
            // the new timer.
            let live = ctx.set_timer(SimDuration::from_secs(1), TimerToken(u64::from(self.round)));
            let doomed = ctx.set_timer(SimDuration::from_millis(10), TimerToken(200));
            ctx.cancel_timer(doomed);
            let _ = live;
        }
    }
}

#[test]
fn cancelled_timer_slots_are_recycled_safely() {
    let mut sim = Simulator::new(11);
    let fired = Arc::new(Mutex::new(Vec::new()));
    sim.add_node(Box::new(TimerChurner {
        fired: fired.clone(),
        round: 0,
    }));
    sim.run_until_idle();
    drop(sim);

    // Only the live timers fire, in order; no cancelled token (100/200)
    // ever leaks through a recycled slot.
    assert_eq!(*fired.lock(), vec![1, 1, 2, 3]);
}

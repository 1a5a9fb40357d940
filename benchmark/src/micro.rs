//! Small fixed worlds that price one layer operation each, for the
//! traced run: a query/response round trip through the event loop, a
//! timer set + fire/cancel, a send into a link that drops everything,
//! and a client query through one recursive (warm and cold cache).
//! Each runs three times and reports the median host nanoseconds per
//! operation.

use dike_experiments::topology::add_hierarchy;
use dike_netsim::{
    Addr, Context, LatencyModel, LinkParams, LinkTable, Node, SimDuration, Simulator, TimerId,
    TimerToken,
};
use dike_resolver::{profiles, RecursiveResolver};
use dike_wire::{Message, Name, RecordType};

use crate::numeric::median;

/// A simulator whose every path takes exactly 1 ms and loses nothing, so
/// the arms below measure the engine and not the latency sampler.
fn fixed_fabric(seed: u64) -> Simulator {
    let mut sim = Simulator::new(seed);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(1)),
        loss: 0.0,
    });
    sim
}

/// Simulated time every arm finishes well within. A deadline rather than
/// running until idle, because authoritatives and resolvers re-arm
/// housekeeping timers forever.
const HORIZON: SimDuration = SimDuration::from_mins(60);

/// Median over three runs of `world`'s host nanoseconds per operation;
/// `world` returns a simulator ready to run, its operation count, and
/// the datagrams it must deliver to have done them all.
fn ns_per_op(world: impl Fn() -> (Simulator, u64, u64)) -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let (mut sim, ops, deliveries) = world();
            sim.run_until(HORIZON.after_zero());
            let perf = sim.perf();
            assert!(
                perf.datagrams_delivered >= deliveries,
                "arm delivered {} of {deliveries} datagrams within the horizon",
                perf.datagrams_delivered
            );
            perf.wall_nanos as f64 / ops as f64
        })
        .collect();
    median(&runs)
}

/// Answers every query with an empty NOERROR response.
struct Echo;

impl Node for Echo {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _len: usize) {
        if !msg.is_response {
            ctx.send(src, &Message::response_to(msg));
        }
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: TimerToken) {}
}

/// Asks `target` back to back: the next query leaves when the previous
/// answer arrives. `distinct` walks the probe-name space instead of
/// repeating one name.
struct Asker {
    target: Addr,
    remaining: u32,
    distinct: bool,
    qtype: RecordType,
    sent: u32,
}

impl Asker {
    fn ask(&mut self, ctx: &mut Context<'_>) {
        let label = if self.distinct {
            self.sent % 60_000 + 1
        } else {
            1
        };
        let name = Name::parse(&format!("{label}.cachetest.nl")).expect("probe name");
        ctx.send(
            self.target,
            &Message::query(self.sent as u16, name, self.qtype),
        );
        self.sent += 1;
    }
}

impl Node for Asker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_millis(1), TimerToken(0));
    }
    fn on_datagram(&mut self, ctx: &mut Context<'_>, _src: Addr, msg: &Message, _len: usize) {
        if msg.is_response && self.remaining > 0 {
            self.remaining -= 1;
            self.ask(ctx);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
        self.ask(ctx);
    }
}

/// Host nanoseconds per query/response round trip through the event loop
/// (two sends, two encodes, two deliveries, two decodes, two node calls).
pub fn round_trip_ns(round_trips: u32) -> f64 {
    ns_per_op(|| {
        let mut sim = fixed_fabric(1);
        let (_, echo) = sim.add_node(Box::new(Echo));
        sim.add_node(Box::new(Asker {
            target: echo,
            remaining: round_trips - 1,
            distinct: false,
            qtype: RecordType::A,
            sent: 0,
        }));
        (sim, u64::from(round_trips), 2 * u64::from(round_trips))
    })
}

/// Re-arms itself `left` times; every firing also arms a far decoy and
/// cancels the previous one, so half the timers set fire and half are
/// cancelled.
struct Ticker {
    left: u32,
    decoy: Option<TimerId>,
}

impl Node for Ticker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_millis(10), TimerToken(0));
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, _msg: &Message, _len: usize) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
        if let Some(id) = self.decoy.take() {
            ctx.cancel_timer(id);
        }
        if self.left > 0 {
            self.left -= 1;
            ctx.set_timer(SimDuration::from_millis(10), TimerToken(0));
            self.decoy = Some(ctx.set_timer(SimDuration::from_secs(300), TimerToken(1)));
        }
    }
}

/// Host nanoseconds per timer set through `Context`, fired or cancelled.
pub fn timer_ns(nodes: u32, fires_per_node: u32) -> f64 {
    ns_per_op(|| {
        let mut sim = fixed_fabric(2);
        for _ in 0..nodes {
            sim.add_node(Box::new(Ticker {
                left: fires_per_node,
                decoy: None,
            }));
        }
        // The first timer of each node plus two sets per firing.
        (
            sim,
            u64::from(nodes) * (1 + 2 * u64::from(fires_per_node)),
            0,
        )
    })
}

/// Sends `batch` queries per timer tick at a target nothing reaches.
struct Pelter {
    target: Addr,
    ticks: u32,
    batch: u32,
}

impl Node for Pelter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_millis(1), TimerToken(0));
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, _msg: &Message, _len: usize) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
        let q = Message::iterative_query(
            7,
            Name::parse("50000.cachetest.nl").expect("static"),
            RecordType::AAAA,
        );
        for _ in 0..self.batch {
            ctx.send(self.target, &q);
        }
        if self.ticks > 1 {
            self.ticks -= 1;
            ctx.set_timer(SimDuration::from_millis(5), TimerToken(0));
        }
    }
}

/// Host nanoseconds per datagram sent into a link whose ingress filter
/// drops everything: encode, wheel push and pop, loss draw, decode at
/// ingress for the sinks, drop.
pub fn dropped_send_ns(ticks: u32, batch: u32) -> f64 {
    ns_per_op(|| {
        let mut sim = fixed_fabric(3);
        let (_, victim) = sim.add_node(Box::new(Echo));
        sim.links_mut().set_ingress_loss(victim, 1.0);
        sim.add_node(Box::new(Pelter {
            target: victim,
            ticks,
            batch,
        }));
        (sim, u64::from(ticks) * u64::from(batch), 0)
    })
}

/// Host nanoseconds per client query through one recursive in a 1-stub /
/// 1-recursive / root → nl → cachetest world. Warm repeats one name
/// inside its TTL (answered from cache); cold walks distinct names, each
/// a fresh upstream resolution at the cachetest authoritatives.
pub fn resolve_ns(queries: u32, warm: bool) -> f64 {
    ns_per_op(|| {
        let mut sim = fixed_fabric(4);
        let (root, _, _) = add_hierarchy(&mut sim, 3_600);
        let (_, resolver) = sim.add_node(Box::new(RecursiveResolver::new(profiles::unbound_like(
            vec![root],
        ))));
        sim.add_node(Box::new(Asker {
            target: resolver,
            remaining: queries - 1,
            distinct: !warm,
            qtype: RecordType::AAAA,
            sent: 0,
        }));
        (sim, u64::from(queries), 2 * u64::from(queries))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_complete_their_operation_counts() {
        // Each arm returns a positive per-op cost; the worlds drain.
        assert!(round_trip_ns(200) > 0.0);
        assert!(timer_ns(8, 20) > 0.0);
        assert!(dropped_send_ns(10, 16) > 0.0);
        let warm = resolve_ns(300, true);
        let cold = resolve_ns(300, false);
        assert!(
            warm > 0.0 && cold > warm,
            "cold {cold} should cost more than warm {warm}"
        );
    }

    #[test]
    fn echo_world_does_the_round_trips_it_is_priced_for() {
        let mut sim = fixed_fabric(1);
        let (_, echo) = sim.add_node(Box::new(Echo));
        sim.add_node(Box::new(Asker {
            target: echo,
            remaining: 99,
            distinct: false,
            qtype: RecordType::A,
            sent: 0,
        }));
        sim.run_until(HORIZON.after_zero());
        assert_eq!(sim.perf().datagrams_delivered, 200);
    }
}

//! # dike-bench
//!
//! Criterion benchmarks for the dike workspace. Each paper table/figure
//! has a bench that executes the generating experiment at a reduced
//! scale, so regressions in simulation cost are caught per-result; the
//! `ablations` bench quantifies the design decisions called out in
//! DESIGN.md §5 (codec-in-the-loop, retries, serve-stale, fragmentation).
//!
//! Shared helpers live here so the benches stay small.

use dike_netsim::{
    even_starts, Addr, Context, LatencyModel, LinkParams, LinkTable, Node, ShardConfig, ShardedSim,
    SimDuration, Simulator, TimerToken, DEFAULT_LOOKAHEAD,
};
use dike_wire::{Message, Name, RecordType};

/// The scale every experiment bench runs at (fraction of the paper's
/// 9.2k probes). Small enough for Criterion iteration, large enough to
/// exercise the full machinery.
pub const BENCH_SCALE: f64 = 0.004;

/// A simulator with a fixed-latency fabric — removes latency-sampling
/// noise from microbenches that are not about the fabric.
pub fn fixed_latency_sim(seed: u64, ms: u64) -> Simulator {
    let mut sim = Simulator::new(seed);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(ms)),
        loss: 0.0,
    });
    sim
}

/// One iteration of the `netsim_core/sharded_round_trips` arm: the
/// back-to-back query/response burst of `query_response_round_trips`, cut into two
/// shards (echo plus one client on shard 0, three clients on shard 1)
/// over a fixed 1 ms fabric — the lookahead floor, so every round trip
/// spans two conservative windows. Against the single-threaded baseline
/// arm this prices the barrier loop itself: two barrier crossings per
/// window plus envelope posting/draining/merging, on top of the same
/// per-datagram cost.
///
/// `round_trips` is the *total* element count across the four clients
/// (matching the criterion group's `Throughput::Elements`).
pub fn sharded_round_trips_iter(round_trips: u32) -> u64 {
    struct Echo;
    impl Node for Echo {
        fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _l: usize) {
            if !msg.is_response {
                ctx.send(src, &Message::response_to(msg));
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _t: TimerToken) {}
    }
    struct Burst {
        target: Addr,
        remaining: u32,
    }
    impl Node for Burst {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), TimerToken(0));
        }
        fn on_datagram(&mut self, ctx: &mut Context<'_>, _src: Addr, msg: &Message, _l: usize) {
            if msg.is_response && self.remaining > 0 {
                self.remaining -= 1;
                ctx.send(
                    self.target,
                    &Message::query(
                        self.remaining as u16,
                        Name::parse("x.nl").unwrap(),
                        RecordType::A,
                    ),
                );
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
            ctx.send(
                self.target,
                &Message::query(0, Name::parse("x.nl").unwrap(), RecordType::A),
            );
        }
    }

    const CLIENTS: usize = 4;
    let n = CLIENTS + 1;
    let per_client = (round_trips as usize / CLIENTS) as u32;
    let starts = even_starts(n, 2);
    let links = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(1)),
        loss: 0.0,
    });
    let echo_addr = Addr(starts[0]);
    let mut shards = Vec::new();
    let mut next_global = 0usize;
    for i in 0..starts.len() {
        let end = starts.get(i + 1).map_or(n, |s| (s - starts[0]) as usize);
        let mut sim = Simulator::new_sharded(
            1,
            ShardConfig {
                id: i,
                starts: starts.clone(),
                floor: DEFAULT_LOOKAHEAD,
            },
        );
        *sim.links_mut() = links.clone();
        for g in next_global..end {
            if g == 0 {
                sim.add_node(Box::new(Echo));
            } else {
                sim.add_node(Box::new(Burst {
                    target: echo_addr,
                    remaining: per_client.saturating_sub(1),
                }));
            }
        }
        next_global = end;
        shards.push(sim);
    }
    let mut sharded = ShardedSim::new(shards);
    sharded.run_until(SimDuration::from_secs(30).after_zero());
    let perf = sharded.perf();
    debug_assert!(perf.datagrams_delivered >= 2 * round_trips as u64);
    perf.events_popped
}

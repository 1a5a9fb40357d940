//! What a probe's in-flight queries cost: 10,000 probes with two
//! recursives each, after one round, keep at most 100 heap bytes per
//! probe beyond the same world whose probes ask nothing and whose round
//! timers a ticker arms instead. Every query is answered, so what stays
//! is the pending table's capacity. A counting global allocator
//! measures it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dike_netsim::{
    Addr, Context, LatencyModel, LinkParams, LinkTable, Node, SimDuration, Simulator, TimerToken,
};
use dike_stub::{new_shared_log, StubConfig, StubProbe};
use dike_wire::{Message, RData, Record};

/// [`System`], counting the bytes live on each thread, so that tests
/// running in parallel do not mix their counts.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

fn count(delta: isize) {
    LIVE.with(|n| n.set(n.get() + delta));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local cell.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PROBES: usize = 10_000;

/// Answers every query with one AAAA record.
struct Answering;

impl Node for Answering {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _: usize) {
        let mut resp = Message::response_to(msg);
        resp.answers.push(Record::new(
            msg.question().unwrap().name.clone(),
            60,
            RData::Aaaa(std::net::Ipv6Addr::LOCALHOST),
        ));
        ctx.send(src, &resp);
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: TimerToken) {}
}

/// The first round's instant for probe `i`: one probe at a time.
fn round_at(i: usize) -> SimDuration {
    SimDuration::from_millis(10 * i as u64 + 1)
}

/// Arms one timer at each probe's round instant and does nothing else:
/// the event queue grows as the probes' round timers grow it.
struct Ticker;

impl Node for Ticker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for i in 0..PROBES {
            ctx.set_timer(round_at(i), TimerToken(i as u64));
        }
    }
    fn on_datagram(&mut self, _: &mut Context<'_>, _: Addr, _: &Message, _: usize) {}
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: TimerToken) {}
}

/// The heap bytes a world of [`PROBES`] probes, each asking
/// `recursives` resolvers once, keeps after its round. The configs and
/// the log's records are allocated before the count starts.
fn kept_after_one_round(recursives: usize) -> isize {
    let resolvers = [Simulator::addr_at(0), Simulator::addr_at(1)];
    let configs: Vec<StubConfig> = (0..PROBES)
        .map(|i| {
            StubConfig::new(
                i as u16,
                resolvers[..recursives].to_vec(),
                round_at(i),
                SimDuration::from_mins(10),
                1,
            )
        })
        .collect();
    let log = new_shared_log();
    log.lock().records.reserve(PROBES * recursives);
    let before = live_bytes();
    let mut sim = Simulator::new(7);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(1)),
        loss: 0.0,
    });
    for want in resolvers {
        assert_eq!(sim.add_node(Box::new(Answering)).1, want);
    }
    if recursives == 0 {
        sim.add_node(Box::new(Ticker));
    }
    for config in configs {
        sim.add_node(Box::new(StubProbe::new(config, log.clone())));
    }
    sim.run_until_idle();
    let kept = live_bytes() - before;
    assert_eq!(log.lock().ok_count(), PROBES * recursives);
    drop(sim);
    kept
}

#[test]
fn a_probe_keeps_at_most_100_bytes_for_its_pending_queries() {
    let asking = kept_after_one_round(2);
    let silent = kept_after_one_round(0);
    let per_probe = (asking - silent) / PROBES as isize;
    assert!(per_probe <= 100, "{per_probe} bytes per probe");
}

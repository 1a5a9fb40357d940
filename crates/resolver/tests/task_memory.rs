//! What in-flight resolutions cost once they are over: a world whose
//! resolver ran a storm of 600 concurrent tasks, all failed against a
//! silent root, keeps at most 200 KiB more heap than the same world
//! whose 600 client queries asked one question and so joined one task.
//! The difference is the resolver's task tables, grown for 600 tasks and
//! empty again, plus what the rest of the world keeps after 600 upstream
//! queries were in flight at once: about 140 KiB, the same whatever the
//! task tables are, since the world sends the same datagrams at the same
//! instants. Three hash maps (task, question and message id to task id)
//! kept about 85 KB of 1,024 buckets each; a task slab with a tag index
//! and a message-id map to slots keeps about 30. A counting global
//! allocator measures it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dike_netsim::{
    Addr, Context, LatencyModel, LinkParams, LinkTable, Node, SimDuration, Simulator, TimerToken,
};
use dike_resolver::{profiles, RecursiveResolver};
use dike_wire::{Message, Name, RecordType};

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

const STORM: u16 = 600;

/// A server that never answers.
struct Silent;

impl Node for Silent {
    fn on_datagram(&mut self, _: &mut Context<'_>, _: Addr, _: &Message, _: usize) {}
    fn on_timer(&mut self, _: &mut Context<'_>, _: TimerToken) {}
}

/// Asks `distinct` questions, [`STORM`] in all, in one burst at 1 s.
struct Client {
    resolver: Addr,
    distinct: u16,
}

impl Node for Client {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs(1), TimerToken(0));
    }
    fn on_datagram(&mut self, _: &mut Context<'_>, _: Addr, _: &Message, _: usize) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _: TimerToken) {
        for id in 0..STORM {
            let name = Name::parse(&format!("q{}.test", id % self.distinct)).unwrap();
            ctx.send(self.resolver, &Message::query(id, name, RecordType::A));
        }
    }
}

/// The heap bytes a world keeps once `distinct` questions have failed.
fn kept_after(distinct: u16) -> isize {
    let before = live_bytes();
    let mut sim = Simulator::new(53);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(8)),
        loss: 0.0,
    });
    let (_, root) = sim.add_node(Box::new(Silent));
    let mut cfg = profiles::bind_like(vec![root]);
    cfg.servfail_ttl = SimDuration::ZERO;
    let (_, resolver) = sim.add_node(Box::new(RecursiveResolver::new(cfg)));
    sim.add_node(Box::new(Client { resolver, distinct }));
    sim.run_until_idle();
    let kept = live_bytes() - before;
    drop(sim);
    kept
}

#[test]
fn a_drained_storm_leaves_at_most_200_kib_behind() {
    let kept = kept_after(STORM) - kept_after(1);
    assert!(kept <= 200 << 10, "{kept} bytes kept");
}

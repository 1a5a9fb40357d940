//! What a stored point costs the registry: a registry in the shape of
//! `flood-rrl`'s (thousands of rows across 20 families, 18 cuts, most
//! rows changing at a third of the cuts) must hold at most 20 live heap
//! bytes per stored point, its rows counted in, and the cuts after the
//! first must allocate no more for more rows. A counting global
//! allocator measures both.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dike_telemetry::{Histogram, MetricsRegistry, NodePublisher};

/// [`System`], counting the bytes live and the allocations made on
/// each thread, so that tests running in parallel do not mix their
/// counts.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn count(delta: isize) {
    LIVE.with(|n| n.set(n.get() + delta));
}

fn count_allocation() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are plain thread-local cells.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// 18 counter families; with the gauge and the histogram, 20.
const COUNTERS: [&str; 18] = [
    "datagrams_offered",
    "datagrams_delivered",
    "datagrams_dropped",
    "queue_accepted",
    "queue_dropped",
    "queries",
    "queries_a",
    "queries_aaaa",
    "queries_ns",
    "queries_other",
    "answers",
    "referrals",
    "negatives",
    "nxdomain",
    "errors",
    "truncated",
    "rrl_limited",
    "rrl_slipped",
];
const CUTS: u64 = 18;

/// One cut's publishes for `nodes` nodes. A counter's total steps once
/// every third cut, at a phase set by its node and family; the gauge
/// does the same; the histogram gains a sample in a bin it already has
/// every sixth cut.
fn publish(reg: &mut MetricsRegistry, nodes: u32, cut: u64, h: &Histogram) {
    for node in 0..nodes {
        let phase = cut + u64::from(node);
        let mut p = NodePublisher::new(reg, node);
        for (f, metric) in (0..).zip(COUNTERS) {
            p.counter("flood", metric, (phase + f) / 3);
        }
        p.gauge("flood", "backlog", (phase / 3) as f64);
        p.histogram("flood", "delay", h);
    }
}

/// A registry built over [`CUTS`] cuts, with the live bytes it holds and
/// the allocations its publishes and cuts made after the first cut.
fn build(nodes: u32) -> (MetricsRegistry, isize, u64) {
    let before = live_bytes();
    let mut reg = MetricsRegistry::new();
    let mut h = Histogram::new();
    h.observe(3);
    publish(&mut reg, nodes, 0, &h);
    reg.snapshot(60);
    let after_first = allocations();
    for cut in 1..CUTS {
        if cut % 6 == 0 {
            h.observe(2);
        }
        publish(&mut reg, nodes, cut, &h);
        reg.snapshot(60 * (cut + 1));
    }
    let later = allocations() - after_first;
    (reg, live_bytes() - before, later)
}

#[test]
fn a_stored_point_costs_at_most_20_bytes() {
    let nodes = 2_000;
    let (reg, live, _) = build(nodes);
    assert_eq!(reg.len(), 20 * nodes as usize);
    let points = reg.to_json().matches("\"snapshot\":").count();
    let per_point = live as f64 / points as f64;
    assert!(
        points > 6 * reg.len(),
        "{points} points: most rows change at a third of the cuts"
    );
    assert!(
        per_point <= 20.0,
        "{per_point:.1} live bytes per point ({live} bytes, {points} points)"
    );
}

#[test]
fn cuts_after_the_first_allocate_no_more_for_more_rows() {
    let (_, _, few) = build(100);
    let (_, _, many) = build(800);
    assert!(
        many <= few,
        "{many} allocations after the first cut with 800 nodes, {few} with 100"
    );
}

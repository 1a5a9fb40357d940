//! Republishing a metric the registry already holds allocates nothing:
//! after the first cut has created every family and row, a cut's
//! publishes are lookups and stores only. A counting global allocator
//! checks it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dike_telemetry::{Histogram, MetricsRegistry, NodePublisher};

/// [`System`], counting the allocations made on each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local cell.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One cut's publishes: a counter and a gauge for each of 500 nodes, the
/// way `publish_metrics` hooks write them, plus each node's histogram.
fn publish(reg: &mut MetricsRegistry, cut: u64, h: &Histogram) {
    for node in 0..500 {
        let mut p = NodePublisher::new(reg, node);
        p.counter("resolver", "queries", cut * u64::from(node));
        p.gauge("resolver", "in_flight", (cut + u64::from(node)) as f64);
        p.histogram("resolver", "retries", h);
    }
}

#[test]
fn republishing_known_counters_and_gauges_does_not_allocate() {
    let mut reg = MetricsRegistry::new();
    let mut h = Histogram::new();
    h.observe(2);
    publish(&mut reg, 1, &h);
    reg.snapshot(60);

    // New values, same bins occupied: every row changes, none is new.
    h.observe(3);
    let before = allocations();
    publish(&mut reg, 2, &h);
    assert_eq!(allocations() - before, 0, "a republish allocated");

    // The next cut stores the changed values.
    reg.snapshot(120);
    assert_eq!(reg.len(), 1_500);
    assert_eq!(
        reg.counter_sum("resolver", "queries"),
        2 * (0..500).sum::<u64>()
    );
    assert!(allocations() > before, "the allocator counts this thread");
}

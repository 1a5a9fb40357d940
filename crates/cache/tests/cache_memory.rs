//! What one entry costs the cache's own structures: a cache holding
//! 100,000 single-record RRsets must keep its index and slot slab within
//! 150 live heap bytes per entry, and 6,000 caches of 11 entries each
//! (the shape of a retry-storm run's resolvers) within 120. The RRsets
//! are built before the count starts and shared into the caches, and
//! their short owner names are stored inline, so the count is the index
//! and the slab alone. A counting global allocator measures it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::Arc;

use dike_cache::{CacheConfig, ResolverCache};
use dike_netsim::SimTime;
use dike_wire::{Name, RData, Record};

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

const ENTRIES: usize = 100_000;

/// `n` single-record A RRsets at distinct short names.
fn rrsets(n: usize) -> Vec<Arc<[Record]>> {
    (0..n)
        .map(|i| {
            let name = Name::parse(&format!("p{i}.cachetest.nl")).unwrap();
            let ip = Ipv4Addr::from(0x0a00_0000 | i as u32);
            Arc::from([Record::new(name, 3_600, RData::A(ip))])
        })
        .collect()
}

#[test]
fn an_entry_costs_at_most_150_bytes_of_index_and_slab() {
    let rrsets = rrsets(ENTRIES);
    let before = live_bytes();
    let mut cache = ResolverCache::new(CacheConfig {
        capacity: ENTRIES,
        ..CacheConfig::honoring()
    });
    for rrset in &rrsets {
        cache.insert(SimTime::ZERO, Arc::clone(rrset));
    }
    let per_entry = (live_bytes() - before) as usize / ENTRIES;
    assert_eq!(cache.len(), ENTRIES);
    assert!(per_entry <= 150, "{per_entry} live bytes per entry");
}

/// Small caches pay for their slab's slack entry by entry: 11 entries
/// in a slab that doubled hold 16 slots.
#[test]
fn small_caches_cost_at_most_120_bytes_an_entry() {
    const CACHES: usize = 6_000;
    const EACH: usize = 11;
    let rrsets = rrsets(CACHES * EACH);
    let mut caches = Vec::with_capacity(CACHES);
    let before = live_bytes();
    for chunk in rrsets.chunks(EACH) {
        let mut cache = ResolverCache::new(CacheConfig::honoring());
        for rrset in chunk {
            cache.insert(SimTime::ZERO, Arc::clone(rrset));
        }
        caches.push(cache);
    }
    let per_entry = (live_bytes() - before) as usize / (CACHES * EACH);
    assert!(caches.iter().all(|c| c.len() == EACH));
    assert!(per_entry <= 120, "{per_entry} live bytes per entry");
}

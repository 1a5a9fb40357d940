//! What one owner costs the zone index: a 10,000-owner zone in the
//! shape `dike-serve`'s benchmark zone has (one A record per host, a
//! second on every eighth) must hold at most 160 live heap bytes per
//! owner. A counting global allocator measures it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use dike_auth::Zone;
use dike_wire::{Name, RData, Record, SoaData};

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

const OWNERS: usize = 10_000;

#[test]
fn an_owner_costs_at_most_160_bytes() {
    let origin = Name::parse("bench.test").unwrap();
    let soa = SoaData {
        mname: origin.child("ns1").unwrap(),
        rname: origin.child("hostmaster").unwrap(),
        serial: 1,
        refresh: 14_400,
        retry: 3_600,
        expire: 1_209_600,
        minimum: 60,
    };
    let before = live_bytes();
    let mut zone = Zone::new(origin.clone(), 3_600, soa);
    for i in 0..OWNERS {
        let name = origin.child(&format!("h{i:x}-{:05x}", i * 7919)).unwrap();
        let addresses = if i % 8 == 0 { 2 } else { 1 };
        for k in 0..addresses {
            let ip = Ipv4Addr::from(0x0a00_0000 | (i as u32) << 1 | k);
            zone.add(Record::new(name.clone(), 300, RData::A(ip)));
        }
    }
    let per_owner = (live_bytes() - before) as usize / OWNERS;
    assert_eq!(zone.record_count(), 1 + OWNERS + OWNERS.div_ceil(8));
    assert!(per_owner <= 160, "{per_owner} live bytes per owner");
}

//! Loading a zone is linear in its records, however one owner's types
//! interleave. An add appends to the owner's slice, so 100,000 records
//! at `@` alternating A and TXT load about as fast as the same records
//! in type runs. A slice kept sorted by type moved half the owner on
//! every A, and took 50 times as long.
//!
//! Timed, so CI runs it in release; each side is the fastest of three
//! loads, which keeps a stray scheduler pause out of the ratio.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dike_auth::zonefile;

const RECORDS: u32 = 100_000;

/// A zone whose apex holds `RECORDS` A and TXT records, alternating
/// when `interleaved`, else every A before every TXT.
fn apex_zone(interleaved: bool) -> String {
    let mut text = String::from(
        "$ORIGIN build.test.\n$TTL 3600\n\
         @ IN SOA ns1 hostmaster 1 14400 3600 1209600 60\n",
    );
    let (mut a, mut txt) = (String::new(), String::new());
    for i in 0..RECORDS / 2 {
        let [_, _, hi, lo] = i.to_be_bytes();
        writeln!(a, "@ IN A 10.0.{hi}.{lo}").unwrap();
        writeln!(txt, "@ IN TXT \"r{i}\"").unwrap();
        if interleaved {
            text.push_str(&a);
            text.push_str(&txt);
            a.clear();
            txt.clear();
        }
    }
    text + &a + &txt
}

/// The fastest of three loads of `text`.
fn load_time(text: &str) -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let zone = zonefile::parse(text, None).unwrap();
            let took = start.elapsed();
            assert_eq!(zone.record_count(), RECORDS as usize + 1);
            took
        })
        .min()
        .unwrap()
}

#[test]
fn an_interleaved_owner_loads_in_linear_time() {
    let runs = load_time(&apex_zone(false));
    let interleaved = load_time(&apex_zone(true));
    assert!(
        interleaved <= runs * 3,
        "interleaved {interleaved:?} against type runs {runs:?}"
    );
}

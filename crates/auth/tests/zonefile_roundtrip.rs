//! Property test: any zone the generators can build survives
//! serialize → parse → serialize unchanged.

use std::net::{Ipv4Addr, Ipv6Addr};

use dike_auth::{zonefile, Zone};
use dike_telemetry::check::{self, Gen};
use dike_wire::{Name, RData, Record, RecordType, SoaData};

/// A letter, then up to twelve letters, digits or hyphens.
fn arb_label(g: &mut Gen) -> String {
    const LETTERS: &str = "abcdefghijklmnopqrstuvwxyz";
    g.string(LETTERS, 1..2) + &g.string(&format!("{LETTERS}0123456789-"), 0..13)
}

fn arb_rdata(g: &mut Gen, origin: &Name) -> RData {
    match g.range(0..5u32) {
        0 => RData::A(Ipv4Addr::from(g.range(0..=u32::MAX))),
        1 => RData::Aaaa(Ipv6Addr::from(std::array::from_fn(|_| {
            g.range(0..=u8::MAX)
        }))),
        2 => RData::Ns(origin.child(&arb_label(g)).unwrap()),
        3 => RData::Mx {
            preference: g.range(1..100u16),
            exchange: origin.child(&arb_label(g)).unwrap(),
        },
        _ => RData::Txt(vec![arb_label(g).into_bytes()]),
    }
}

fn arb_zone(g: &mut Gen) -> Zone {
    let origin = Name::parse("zone.test").unwrap();
    let soa = SoaData {
        mname: origin.child("ns1").unwrap(),
        rname: origin.child("hostmaster").unwrap(),
        serial: 7,
        refresh: 14_400,
        retry: 3_600,
        expire: 1_209_600,
        minimum: 60,
    };
    let mut zone = Zone::new(origin.clone(), 3_600, soa);
    for _ in 0..g.range(0..25) {
        let name = origin.child(&arb_label(g)).expect("valid label");
        let ttl = g.range(1..100_000u32);
        zone.add(Record::new(name, ttl, arb_rdata(g, &origin)));
    }
    zone
}

const CASES: u64 = 128;

#[test]
fn serialize_parse_round_trip() {
    check::cases("serialize_parse_round_trip", CASES, |g| {
        let zone = arb_zone(g);
        let text = zone.to_zonefile();
        let parsed =
            zonefile::parse(&text, None).unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
        assert_eq!(parsed.origin(), zone.origin());
        assert_eq!(parsed.serial(), zone.serial());
        assert_eq!(parsed.record_count(), zone.record_count());
        // Re-serializing the parsed zone yields identical text: the
        // serializer is a canonical form.
        assert_eq!(parsed.to_zonefile(), text);
    });
}

#[test]
fn parsed_zone_answers_like_the_original() {
    check::cases("parsed_zone_answers_like_the_original", CASES, |g| {
        let zone = arb_zone(g);
        let parsed = zonefile::parse(&zone.to_zonefile(), None).unwrap();
        for r in zone.iter_records() {
            if r.rtype() == RecordType::SOA {
                continue;
            }
            let q = dike_wire::Question::new(r.name.clone(), r.rtype());
            assert_eq!(parsed.answer(&q), zone.answer(&q));
        }
    });
}

//! Property tests: the codec must round-trip every message the generators
//! can produce, and neither it nor the RFC 7873 cookie option decoder may
//! panic on arbitrary input bytes.

use std::net::{Ipv4Addr, Ipv6Addr};

use dike_telemetry::check::{self, Gen};
use dike_wire::cookie::{self, Cookie};
use dike_wire::{
    codec, Message, Name, Opcode, Question, RData, Rcode, Record, RecordClass, RecordType, SoaData,
};

/// A letter or digit, then up to twenty letters, digits or hyphens.
fn arb_label(g: &mut Gen) -> String {
    const ALNUM: &str = "abcdefghijklmnopqrstuvwxyz0123456789";
    g.string(ALNUM, 1..2) + &g.string(&format!("{ALNUM}-"), 0..21)
}

fn arb_name(g: &mut Gen) -> Name {
    Name::parse(&g.vec(0..5, arb_label).join(".")).unwrap()
}

fn arb_u8(g: &mut Gen) -> u8 {
    g.range(0..=u8::MAX)
}

fn arb_u16(g: &mut Gen) -> u16 {
    g.range(0..=u16::MAX)
}

fn arb_u32(g: &mut Gen) -> u32 {
    g.range(0..=u32::MAX)
}

fn arb_rdata(g: &mut Gen) -> RData {
    match g.range(0..12u32) {
        0 => RData::A(Ipv4Addr::from(arb_u32(g))),
        1 => RData::Aaaa(Ipv6Addr::from(std::array::from_fn(|_| arb_u8(g)))),
        2 => RData::Ns(arb_name(g)),
        3 => RData::Cname(arb_name(g)),
        4 => RData::Ptr(arb_name(g)),
        5 => {
            let t = arb_u32(g);
            RData::Soa(Box::new(SoaData {
                mname: arb_name(g),
                rname: arb_name(g),
                serial: arb_u32(g),
                refresh: t,
                retry: t / 2,
                expire: t.saturating_mul(2),
                minimum: t % 86400,
            }))
        }
        6 => RData::Mx {
            preference: arb_u16(g),
            exchange: arb_name(g),
        },
        7 => RData::Txt(g.vec(0..4, |g| g.bytes(0..40))),
        8 => RData::Ds {
            key_tag: arb_u16(g),
            algorithm: arb_u8(g),
            digest_type: arb_u8(g),
            digest: g.bytes(0..40),
        },
        9 => RData::Srv {
            priority: arb_u16(g),
            weight: arb_u16(g),
            port: arb_u16(g),
            target: arb_name(g),
        },
        10 => RData::Dnskey {
            flags: arb_u16(g),
            protocol: 3,
            algorithm: arb_u8(g),
            key: g.bytes(0..48),
        },
        _ => RData::Unknown {
            rtype: g.range(600..9000u16),
            data: g.bytes(0..30),
        },
    }
}

fn arb_record(g: &mut Gen) -> Record {
    Record {
        name: arb_name(g),
        class: RecordClass::IN,
        ttl: arb_u32(g),
        rdata: arb_rdata(g),
    }
}

fn arb_message(g: &mut Gen) -> Message {
    let is_response = g.bool();
    Message {
        id: arb_u16(g),
        is_response,
        opcode: Opcode::Query,
        authoritative: g.bool(),
        truncated: false,
        recursion_desired: !is_response,
        recursion_available: is_response,
        authentic_data: false,
        checking_disabled: false,
        rcode: Rcode::from_u8(g.range(0..3u8)),
        questions: g.vec(0..2, |g| Question::new(arb_name(g), RecordType::AAAA)),
        answers: g.vec(0..4, arb_record),
        authorities: g.vec(0..3, arb_record),
        additionals: g.vec(0..3, arb_record),
    }
}

/// A message engineered to stress name compression: many names stacked on
/// one shared suffix (pointer chains), a root-owned record, and a
/// maximum-length (63-octet) label riding the shared suffix.
fn arb_compression_message(g: &mut Gen) -> Message {
    let suffix_name = Name::parse(&g.vec(1..3, arb_label).join(".")).unwrap();
    let big_label = g.string("abcdefghijklmnopqrstuvwxyz0123456789", 63..64);
    let rec = |name: Name, rdata: RData| Record {
        name,
        class: RecordClass::IN,
        ttl: 300,
        rdata,
    };
    let mut answers = vec![
        // Root-owned record pointing into the shared suffix.
        rec(Name::root(), RData::Ns(suffix_name.clone())),
        // Max-length label on the shared suffix.
        rec(
            suffix_name.child(&big_label).unwrap(),
            RData::Cname(suffix_name.clone()),
        ),
    ];
    // Stack prefixes one label at a time so each name is a strict
    // superset of the previous — the encoder must chase and emit
    // pointer chains into earlier names.
    let mut stacked = suffix_name.clone();
    for p in g.vec(1..5, arb_label) {
        if let Ok(deeper) = stacked.child(&p) {
            answers.push(rec(deeper.clone(), RData::Ptr(stacked)));
            stacked = deeper;
        }
    }
    Message {
        id: arb_u16(g),
        is_response: true,
        opcode: Opcode::Query,
        authoritative: true,
        truncated: false,
        recursion_desired: false,
        recursion_available: true,
        authentic_data: false,
        checking_disabled: false,
        rcode: Rcode::NoError,
        questions: vec![Question::new(suffix_name, RecordType::AAAA)],
        answers,
        authorities: Vec::new(),
        additionals: Vec::new(),
    }
}

const CASES: u64 = 512;

#[test]
fn encode_decode_round_trip() {
    check::cases("encode_decode_round_trip", CASES, |g| {
        let msg = arb_message(g);
        let bytes = codec::encode(&msg).unwrap();
        assert_eq!(codec::decode(&bytes).unwrap(), msg);
    });
}

#[test]
fn decode_never_panics_on_noise() {
    check::cases("decode_never_panics_on_noise", CASES, |g| {
        let _ = codec::decode(&g.bytes(0..256));
    });
}

#[test]
fn decode_never_panics_on_mutated_valid_message() {
    check::cases("decode_never_panics_on_mutated_valid_message", CASES, |g| {
        let mut bytes = codec::encode(&arb_message(g)).unwrap();
        let idx = g.range(0..bytes.len());
        bytes[idx] = arb_u8(g);
        let _ = codec::decode(&bytes);
    });
}

#[test]
fn compression_never_grows_message() {
    check::cases("compression_never_grows_message", CASES, |g| {
        // The encoder only emits a pointer when it is at least as small as
        // the labels it replaces, so encoding with compression can never
        // exceed the naive uncompressed size.
        let msg = arb_message(g);
        let bytes = codec::encode(&msg).unwrap();
        let naive: usize = 12
            + msg
                .questions
                .iter()
                .map(|q| q.name.wire_len() + 4)
                .sum::<usize>()
            + msg
                .answers
                .iter()
                .chain(&msg.authorities)
                .chain(&msg.additionals)
                .map(|r| r.name.wire_len() + 10 + 512)
                .sum::<usize>();
        assert!(bytes.len() <= naive);
    });
}

#[test]
fn compression_chains_round_trip() {
    check::cases("compression_chains_round_trip", CASES, |g| {
        let msg = arb_compression_message(g);
        let bytes = codec::encode(&msg).unwrap();
        assert_eq!(codec::decode(&bytes).unwrap(), msg);
    });
}

#[test]
fn pooled_encoder_matches_fresh() {
    check::cases("pooled_encoder_matches_fresh", CASES, |g| {
        // One warm EncodeBuffer reused across messages must emit exactly
        // the bytes a fresh per-message encode does.
        let mut buf = codec::EncodeBuffer::new();
        for _ in 0..g.range(1..4) {
            let m = if g.bool() {
                arb_message(g)
            } else {
                arb_compression_message(g)
            };
            let pooled = buf.encode(&m).unwrap();
            let fresh = codec::encode(&m).unwrap();
            assert_eq!(&pooled[..], &fresh[..]);
            assert_eq!(buf.encoded_len(&m).unwrap(), fresh.len());
        }
    });
}

#[test]
fn name_parse_display_round_trip() {
    check::cases("name_parse_display_round_trip", CASES, |g| {
        let name = arb_name(g);
        let back = Name::parse(&name.to_string()).unwrap();
        assert_eq!(name, back);
    });
}

/// A query whose OPT additional carries `options` as its raw RDATA.
fn query_with_opt(options: Vec<u8>) -> Message {
    let mut q = Message::query(7, Name::parse("x.nl").unwrap(), RecordType::A);
    q.additionals.push(Record {
        name: Name::root(),
        class: RecordClass::Unknown(1232),
        ttl: 0,
        rdata: RData::Opt(options),
    });
    q
}

/// Everything a server does with a received cookie option: find it,
/// check it, answer with a completed one. Whatever the option bytes, the
/// completed cookie must be the one read back.
fn exercise_cookie_path(mut q: Message) {
    if let Some(c) = cookie::cookie_of(&q) {
        assert_eq!(Cookie::from_option_data(&c.option_data()), Some(c.clone()));
        let _ = cookie::validate(&c, 9, 77);
    }
    let full = Cookie {
        client: [5; 8],
        server: Some(cookie::server_cookie(&[5; 8], 9, 77).to_vec()),
    };
    cookie::set_cookie(&mut q, 1232, &full);
    assert_eq!(cookie::cookie_of(&q), Some(full));
    let wire = codec::encode(&q).unwrap();
    assert_eq!(codec::decode(&wire).unwrap(), q);
}

#[test]
fn cookie_decoder_never_panics_on_noise() {
    check::cases("cookie_decoder_never_panics_on_noise", CASES, |g| {
        let _ = Cookie::from_option_data(&g.bytes(0..48));
        // Half the time the noise opens with a cookie TLV header, so the
        // walk gets past the option code.
        let mut options = g.bytes(0..64);
        if g.bool() && options.len() >= 4 {
            options[..2].copy_from_slice(&cookie::COOKIE_OPTION_CODE.to_be_bytes());
            options[2] = 0;
            options[3] = g.range(0..48u8);
        }
        exercise_cookie_path(query_with_opt(options));
    });
}

#[test]
fn cookie_decoder_never_panics_on_a_damaged_option() {
    check::cases(
        "cookie_decoder_never_panics_on_a_damaged_option",
        CASES,
        |g| {
            // A foreign option, then a valid cookie (client-only or full).
            let mut q = query_with_opt(vec![0, 42, 0, 3, b'a', b'b', b'c']);
            let sent = Cookie {
                client: std::array::from_fn(|_| arb_u8(g)),
                server: g.bool().then(|| g.bytes(8..33)),
            };
            cookie::set_cookie(&mut q, 1232, &sent);
            assert_eq!(cookie::cookie_of(&q), Some(sent));

            // One byte overwritten (lengths among them), then the tail cut.
            let Some(RData::Opt(raw)) = q.additionals.last_mut().map(|r| &mut r.rdata) else {
                unreachable!("the OPT record was pushed last");
            };
            let at = g.range(0..raw.len());
            raw[at] = arb_u8(g);
            raw.truncate(g.range(at..=raw.len()));
            exercise_cookie_path(q);
        },
    );
}

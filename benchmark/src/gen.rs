//! Seeded input generation for `serve-udp`: the zone and the query mix
//! are pure functions of `--seed`. The generator is the harness's own
//! (SplitMix64), so inputs do not change when the measured crates or
//! their `rand` stand-in do.

use std::net::Ipv4Addr;

use dike_auth::Zone;
use dike_wire::{codec, Message, Name, RData, Record, RecordType, SoaData};

/// SplitMix64: a 64-bit state, one multiply-xorshift round per draw.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (widening multiply; `n` is small
    /// against 2^64, so the bias is far below anything measured here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The zone every `serve-udp` run hosts.
pub const ZONE_ORIGIN: &str = "bench.test";

/// The `i`-th host label of the zone for `seed`: the index keeps labels
/// distinct, the seeded suffix makes the name set differ between seeds.
fn host_label(i: usize, rng: &mut SplitMix64) -> String {
    format!("h{i:x}-{:05x}", rng.below(1 << 20))
}

/// Builds the seeded zone: apex SOA and two NS with glue, then `names`
/// hosts with one A record each (every eighth also a second A). Returns
/// the zone and the host names in generation order.
pub fn zone(seed: u64, names: usize) -> (Zone, Vec<Name>) {
    let mut rng = SplitMix64::new(seed ^ 0x20e5);
    let origin = Name::parse(ZONE_ORIGIN).expect("static origin");
    let soa = SoaData {
        mname: origin.child("ns1").expect("static label"),
        rname: origin.child("hostmaster").expect("static label"),
        serial: 2018103100,
        refresh: 14_400,
        retry: 3_600,
        expire: 1_209_600,
        minimum: 60,
    };
    let mut zone = Zone::new(origin.clone(), 3_600, soa);
    for (i, label) in ["ns1", "ns2"].iter().enumerate() {
        let ns = origin.child(label).expect("static label");
        zone.add(Record::new(origin.clone(), 3_600, RData::Ns(ns.clone())));
        zone.add(Record::new(
            ns,
            3_600,
            RData::A(Ipv4Addr::new(192, 0, 2, 1 + i as u8)),
        ));
    }
    let mut hosts = Vec::with_capacity(names);
    for i in 0..names {
        let name = origin
            .child(&host_label(i, &mut rng))
            .expect("generated label is valid");
        let addresses = if i % 8 == 0 { 2 } else { 1 };
        for _ in 0..addresses {
            let ip = Ipv4Addr::from(0x0a00_0000 | rng.below(1 << 24) as u32);
            zone.add(Record::new(name.clone(), 300, RData::A(ip)));
        }
        hosts.push(name);
    }
    (zone, hosts)
}

/// One pre-encoded query and the bytes a correct server answers with.
/// The message ID (the first two octets of each) is zero here and
/// patched per send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    /// The encoded query.
    pub query: Vec<u8>,
    /// The encoded reference response.
    pub expected: Vec<u8>,
}

/// The seeded query mix: `count` query messages, 70 % for existing hosts,
/// 20 % for names the zone does not hold (NXDOMAIN), 10 % for the apex
/// (NS or SOA).
pub fn query_mix(seed: u64, hosts: &[Name], count: usize) -> Vec<Message> {
    let mut rng = SplitMix64::new(seed ^ 0x9e81);
    let origin = Name::parse(ZONE_ORIGIN).expect("static origin");
    (0..count)
        .map(|i| {
            let (name, qtype) = match rng.below(10) {
                0..=6 => (
                    hosts[rng.below(hosts.len() as u64) as usize].clone(),
                    RecordType::A,
                ),
                7 | 8 => (
                    origin
                        .child(&format!("absent{i:x}-{:05x}", rng.below(1 << 20)))
                        .expect("generated label is valid"),
                    RecordType::A,
                ),
                _ if rng.below(2) == 0 => (origin.clone(), RecordType::NS),
                _ => (origin.clone(), RecordType::SOA),
            };
            Message::iterative_query(0, name, qtype)
        })
        .collect()
}

/// Encodes each query of `mix` next to the reference answer `answer`
/// gives for it.
pub fn templates(mix: &[Message], mut answer: impl FnMut(&Message) -> Message) -> Vec<Template> {
    mix.iter()
        .map(|q| Template {
            query: codec::encode(q).expect("generated query encodes"),
            expected: codec::encode(&answer(q)).expect("reference answer encodes"),
        })
        .collect()
}

/// The seeded send order: `count` indices into `templates` entries.
pub fn send_order(seed: u64, templates: usize, count: usize) -> Vec<u16> {
    assert!(
        templates <= usize::from(u16::MAX) + 1,
        "template index fits u16"
    );
    let mut rng = SplitMix64::new(seed ^ 0x5e9d);
    (0..count)
        .map(|_| rng.below(templates as u64) as u16)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_auth::{zonefile, AuthServer};
    use dike_netsim::SimTime;
    use dike_wire::Rcode;

    #[test]
    fn zone_is_a_pure_function_of_the_seed() {
        let (a, hosts_a) = zone(7, 300);
        let (b, hosts_b) = zone(7, 300);
        let (c, _) = zone(8, 300);
        assert_eq!(a.to_zonefile(), b.to_zonefile());
        assert_eq!(hosts_a, hosts_b);
        assert_ne!(a.to_zonefile(), c.to_zonefile());
        // SOA + 2 NS + 2 glue + one A per host + a second A on every 8th.
        assert_eq!(a.record_count(), 5 + 300 + 300usize.div_ceil(8));
    }

    #[test]
    fn zone_survives_the_zone_file_round_trip() {
        let (z, _) = zone(3, 64);
        let back = zonefile::parse(&z.to_zonefile(), None).expect("parses");
        assert_eq!(back.to_zonefile(), z.to_zonefile());
    }

    #[test]
    fn mix_is_seeded_and_has_the_stated_shares() {
        let (z, hosts) = zone(11, 500);
        let mix = query_mix(11, &hosts, 4096);
        assert_eq!(mix, query_mix(11, &hosts, 4096));
        assert_ne!(mix, query_mix(12, &hosts, 4096));

        let mut server = AuthServer::new().with_zone(Box::new(z));
        let (mut hit, mut nx, mut apex) = (0, 0, 0);
        for q in &mix {
            let resp = server.handle_query(SimTime::ZERO, q);
            let question = q.question().expect("one question");
            if question.qtype != RecordType::A {
                assert!(!resp.answers.is_empty(), "apex {question:?} has data");
                apex += 1;
            } else if resp.rcode == Rcode::NxDomain {
                nx += 1;
            } else {
                assert!(!resp.answers.is_empty(), "host {question:?} has data");
                hit += 1;
            }
        }
        let share = |n: i32| f64::from(n) / mix.len() as f64;
        assert!((share(hit) - 0.7).abs() < 0.03, "existing {}", share(hit));
        assert!((share(nx) - 0.2).abs() < 0.03, "nxdomain {}", share(nx));
        assert!((share(apex) - 0.1).abs() < 0.03, "apex {}", share(apex));
    }

    #[test]
    fn templates_and_send_order_repeat() {
        let (z, hosts) = zone(5, 100);
        let mix = query_mix(5, &hosts, 64);
        let mut server = AuthServer::new().with_zone(Box::new(z));
        let t = templates(&mix, |q| server.handle_query(SimTime::ZERO, q));
        assert_eq!(t.len(), 64);
        assert!(t
            .iter()
            .all(|t| t.query[..2] == [0, 0] && t.expected[..2] == [0, 0]));
        assert_eq!(send_order(5, 64, 1000), send_order(5, 64, 1000));
        assert_ne!(send_order(5, 64, 1000), send_order(6, 64, 1000));
        assert!(send_order(5, 64, 1000).iter().all(|i| *i < 64));
    }
}

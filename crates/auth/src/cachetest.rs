//! The paper's measurement zone (§3.2).
//!
//! Every RIPE Atlas probe queries a unique name, `{probeid}.cachetest.nl`,
//! and receives a AAAA record whose address encodes three fields used for
//! answer classification:
//!
//! ```text
//! prefix  (64 bits)  fd0f:3897:faf7:a375  — fixed
//! serial  (16 bits)  incremented every 10 minutes (zone rotation)
//! probeid (16 bits)  echoes the queried probe id
//! ttl     (32 bits)  the TTL configured for this experiment
//! ```
//!
//! e.g. probe 1414 with serial 1 and TTL 60 gets
//! `fd0f:3897:faf7:a375:1:586::3c` — exactly the paper's example.
//!
//! The serial lets the analysis distinguish a cached answer (old serial)
//! from a fresh one (current serial); the embedded TTL exposes rewriting
//! by recursives.

use std::net::Ipv6Addr;

use dike_netsim::{SimDuration, SimTime};
use dike_wire::{Name, Question, RData, Record, RecordType};

use crate::server::ZoneProvider;
use crate::zone::{default_soa, Zone, ZoneAnswer};

/// The fixed 64-bit prefix of every synthesized AAAA answer.
pub(crate) const AAAA_PREFIX: [u16; 4] = [0xfd0f, 0x3897, 0xfaf7, 0xa375];

/// The fields encoded in a synthesized AAAA address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbePayload {
    /// Zone rotation serial at answer time.
    pub serial: u16,
    /// The probe id the query was for.
    pub probe_id: u16,
    /// The experiment's configured TTL.
    pub ttl: u32,
}

/// Builds the AAAA address for a probe answer.
pub fn probe_aaaa(serial: u16, probe_id: u16, ttl: u32) -> Ipv6Addr {
    Ipv6Addr::new(
        AAAA_PREFIX[0],
        AAAA_PREFIX[1],
        AAAA_PREFIX[2],
        AAAA_PREFIX[3],
        serial,
        probe_id,
        (ttl >> 16) as u16,
        (ttl & 0xffff) as u16,
    )
}

/// Decodes a synthesized AAAA address back into its fields; `None` when
/// the prefix does not match (i.e. the answer is not from this zone).
pub fn decode_probe_aaaa(addr: Ipv6Addr) -> Option<ProbePayload> {
    let s = addr.segments();
    if s[0..4] != AAAA_PREFIX {
        return None;
    }
    Some(ProbePayload {
        serial: s[4],
        probe_id: s[5],
        ttl: ((s[6] as u32) << 16) | s[7] as u32,
    })
}

/// The `cachetest.nl` zone with per-probe AAAA synthesis and 10-minute
/// serial rotation.
#[derive(Debug)]
pub struct CacheTestZone {
    zone: Zone,
    /// TTL configured for the probe AAAA answers (the experiment's knob).
    answer_ttl: u32,
    /// Current rotation serial, bumped by [`CacheTestZone::rotate`].
    serial: u16,
    rotation_interval: SimDuration,
}

impl CacheTestZone {
    /// Builds the zone. `ns_addrs` are the IPv4 addresses of the
    /// authoritative servers (the paper ran two, `ns1` and `ns2`).
    pub fn new(answer_ttl: u32, ns_addrs: &[std::net::Ipv4Addr]) -> Self {
        let origin = Name::parse("cachetest.nl").expect("static name");
        let mut zone = Zone::new(origin.clone(), 3600, default_soa(&origin));
        for (i, addr) in ns_addrs.iter().enumerate() {
            let ns_name = origin
                .child(&format!("ns{}", i + 1))
                .expect("valid ns label");
            zone.add(Record::new(
                origin.clone(),
                3600,
                RData::Ns(ns_name.clone()),
            ));
            zone.add(Record::new(ns_name, 3600, RData::A(*addr)));
        }
        CacheTestZone {
            zone,
            answer_ttl,
            serial: 1,
            rotation_interval: SimDuration::from_mins(10),
        }
    }

    /// The configured answer TTL.
    pub fn answer_ttl(&self) -> u32 {
        self.answer_ttl
    }

    /// Extracts a probe id from `{pid}.cachetest.nl`.
    fn probe_id_of(&self, name: &Name) -> Option<u16> {
        if name.label_count() != self.zone.origin().label_count() + 1
            || !name.is_subdomain_of(self.zone.origin())
        {
            return None;
        }
        let label = name.labels().next()?;
        std::str::from_utf8(label).ok()?.parse::<u16>().ok()
    }
}

impl ZoneProvider for CacheTestZone {
    fn origin(&self) -> &Name {
        self.zone.origin()
    }

    fn answer(&mut self, _now: SimTime, q: &Question) -> ZoneAnswer {
        // Probe names synthesize AAAA answers; anything else falls through
        // to the static zone content.
        if let Some(pid) = self.probe_id_of(&q.name) {
            return match q.qtype {
                RecordType::AAAA => ZoneAnswer::Authoritative {
                    answers: vec![Record::new(
                        q.name.clone(),
                        self.answer_ttl,
                        RData::Aaaa(probe_aaaa(self.serial, pid, self.answer_ttl)),
                    )],
                    additionals: Vec::new(),
                },
                // Probe names exist but only carry AAAA data.
                _ => ZoneAnswer::NoData {
                    soa: self.zone.soa().clone(),
                },
            };
        }
        self.zone.answer(q)
    }

    fn rotation_interval(&self) -> Option<SimDuration> {
        Some(self.rotation_interval)
    }

    fn rotate(&mut self, _now: SimTime) {
        self.serial = self.serial.wrapping_add(1);
        self.zone.bump_serial();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn zone() -> CacheTestZone {
        CacheTestZone::new(
            60,
            &[
                Ipv4Addr::new(198, 51, 100, 1),
                Ipv4Addr::new(198, 51, 100, 2),
            ],
        )
    }

    #[test]
    fn paper_example_encoding() {
        // Probe 1414, serial 1, TTL 60 → fd0f:3897:faf7:a375:1:586::3c.
        let addr = probe_aaaa(1, 1414, 60);
        assert_eq!(addr.to_string(), "fd0f:3897:faf7:a375:1:586:0:3c");
        let p = decode_probe_aaaa(addr).unwrap();
        assert_eq!(p.serial, 1);
        assert_eq!(p.probe_id, 1414);
        assert_eq!(p.ttl, 60);
    }

    #[test]
    fn day_long_ttl_fits_in_32_bits() {
        let p = decode_probe_aaaa(probe_aaaa(7, 99, 86_400)).unwrap();
        assert_eq!(p.ttl, 86_400);
    }

    #[test]
    fn foreign_prefix_does_not_decode() {
        assert_eq!(decode_probe_aaaa(Ipv6Addr::LOCALHOST), None);
    }

    #[test]
    fn probe_query_synthesizes_current_serial() {
        let mut z = zone();
        let q = Question::new(Name::parse("1414.cachetest.nl").unwrap(), RecordType::AAAA);
        match z.answer(SimTime::ZERO, &q) {
            ZoneAnswer::Authoritative { answers, .. } => {
                let RData::Aaaa(addr) = answers[0].rdata else {
                    panic!("expected AAAA")
                };
                let p = decode_probe_aaaa(addr).unwrap();
                assert_eq!(p.serial, 1);
                assert_eq!(p.probe_id, 1414);
                assert_eq!(answers[0].ttl, 60);
            }
            other => panic!("expected authoritative, got {other:?}"),
        }
    }

    #[test]
    fn rotation_bumps_serial_in_answers() {
        let mut z = zone();
        z.rotate(SimTime::ZERO);
        z.rotate(SimTime::ZERO);
        let q = Question::new(Name::parse("7.cachetest.nl").unwrap(), RecordType::AAAA);
        match z.answer(SimTime::ZERO, &q) {
            ZoneAnswer::Authoritative { answers, .. } => {
                let RData::Aaaa(addr) = answers[0].rdata else {
                    panic!("expected AAAA")
                };
                assert_eq!(decode_probe_aaaa(addr).unwrap().serial, 3);
            }
            other => panic!("expected authoritative, got {other:?}"),
        }
    }

    #[test]
    fn non_aaaa_probe_query_is_nodata() {
        // The paper's Fig. 10 counts AAAA-for-NS queries that draw
        // negative answers; probe names behave the same for non-AAAA.
        let mut z = zone();
        let q = Question::new(Name::parse("1414.cachetest.nl").unwrap(), RecordType::A);
        assert!(matches!(
            z.answer(SimTime::ZERO, &q),
            ZoneAnswer::NoData { .. }
        ));
    }

    #[test]
    fn ns_names_resolve_statically() {
        let mut z = zone();
        let q = Question::new(Name::parse("ns1.cachetest.nl").unwrap(), RecordType::A);
        assert!(matches!(
            z.answer(SimTime::ZERO, &q),
            ZoneAnswer::Authoritative { .. }
        ));
        // AAAA for the NS name: NODATA (the authoritatives are v4-only,
        // which drives the negative-caching traffic in Fig. 10).
        let q6 = Question::new(Name::parse("ns1.cachetest.nl").unwrap(), RecordType::AAAA);
        assert!(matches!(
            z.answer(SimTime::ZERO, &q6),
            ZoneAnswer::NoData { .. }
        ));
    }

    #[test]
    fn non_numeric_label_is_not_a_probe() {
        let mut z = zone();
        let q = Question::new(Name::parse("www.cachetest.nl").unwrap(), RecordType::AAAA);
        assert!(matches!(
            z.answer(SimTime::ZERO, &q),
            ZoneAnswer::NxDomain { .. }
        ));
    }
}

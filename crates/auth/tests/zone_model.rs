//! Oracle test for [`Zone`]: random zones are built into the zone and
//! into a reference model side by side, and the two must give the same
//! [`ZoneAnswer`] to every question, hold the same RRset at every owner
//! and type, and serialize to the same text.
//!
//! The model is the zone's earlier design kept as plain code: one
//! `BTreeMap` from owner name to its RRsets, a covering-cut walk, and a
//! canonical-order range scan for empty non-terminals. It is slow and
//! obviously right; the zone under test is the hashed index with its
//! `interior` set.
//!
//! `DIKE_CASES` scales the case count (CI runs 2000 in release).

use std::collections::BTreeMap;
use std::net::{Ipv4Addr, Ipv6Addr};

use dike_auth::{Zone, ZoneAnswer};
use dike_telemetry::check::{self, Gen};
use dike_wire::{Name, Question, RData, Record, RecordType, SoaData};

/// The reference zone.
struct Model {
    origin: Name,
    soa: Record,
    records: BTreeMap<Name, BTreeMap<RecordType, Vec<Record>>>,
}

impl Model {
    fn new(origin: Name, soa_ttl: u32, soa: SoaData) -> Self {
        let soa_record = Record::new(origin.clone(), soa_ttl, RData::Soa(Box::new(soa)));
        let mut records = BTreeMap::new();
        records.insert(origin.clone(), {
            let mut m = BTreeMap::new();
            m.insert(RecordType::SOA, vec![soa_record.clone()]);
            m
        });
        Model {
            origin,
            soa: soa_record,
            records,
        }
    }

    fn add(&mut self, record: Record) {
        self.records
            .entry(record.name.clone())
            .or_default()
            .entry(record.rtype())
            .or_default()
            .push(record);
    }

    fn rrset(&self, name: &Name, rtype: RecordType) -> Option<&[Record]> {
        self.records
            .get(name)
            .and_then(|m| m.get(&rtype))
            .map(|v| v.as_slice())
    }

    /// The shallowest NS owner strictly below the origin at or above
    /// `name`.
    fn covering_cut(&self, name: &Name) -> Option<&Name> {
        let mut best: Option<&Name> = None;
        for candidate in name.self_and_ancestors() {
            if candidate == self.origin {
                break;
            }
            if let Some((key, types)) = self.records.get_key_value(&candidate) {
                if types.contains_key(&RecordType::NS) {
                    best = Some(key);
                }
            }
        }
        best
    }

    /// Whether any owner sits at or below `name`: canonical order puts
    /// descendants right after the name.
    fn name_exists(&self, name: &Name) -> bool {
        if self.records.contains_key(name) {
            return true;
        }
        self.records
            .range(name.clone()..)
            .take_while(|(k, _)| k.is_subdomain_of(name))
            .next()
            .is_some()
    }

    fn addresses(&self, ns: &[Record]) -> Vec<Record> {
        let mut out = Vec::new();
        for r in ns {
            if let RData::Ns(target) = &r.rdata {
                for t in [RecordType::A, RecordType::AAAA] {
                    if let Some(addrs) = self.rrset(target, t) {
                        out.extend(addrs.iter().cloned());
                    }
                }
            }
        }
        out
    }

    fn answer(&self, q: &Question) -> ZoneAnswer {
        if !q.name.is_subdomain_of(&self.origin) {
            return ZoneAnswer::NotInZone;
        }
        if let Some(cut) = self.covering_cut(&q.name) {
            let ns = self.rrset(cut, RecordType::NS).unwrap().to_vec();
            let glue = self.addresses(&ns);
            return ZoneAnswer::Referral { ns, glue };
        }
        let Some(types) = self.records.get(&q.name) else {
            let soa = self.soa.clone();
            return if self.name_exists(&q.name) {
                ZoneAnswer::NoData { soa }
            } else {
                ZoneAnswer::NxDomain { soa }
            };
        };
        if let Some(rrset) = types.get(&q.qtype) {
            let answers = rrset.clone();
            let additionals = if q.qtype == RecordType::NS {
                self.addresses(&answers)
            } else {
                Vec::new()
            };
            return ZoneAnswer::Authoritative {
                answers,
                additionals,
            };
        }
        if let Some(cnames) = types.get(&RecordType::CNAME) {
            let mut answers = cnames.clone();
            if let Some(RData::Cname(target)) = cnames.first().map(|r| &r.rdata) {
                if let Some(rrset) = self.rrset(target, q.qtype) {
                    answers.extend(rrset.iter().cloned());
                }
            }
            return ZoneAnswer::Authoritative {
                answers,
                additionals: Vec::new(),
            };
        }
        ZoneAnswer::NoData {
            soa: self.soa.clone(),
        }
    }

    fn to_zonefile(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "$ORIGIN {}.", self.origin);
        let RData::Soa(s) = &self.soa.rdata else {
            unreachable!("soa record holds SOA data")
        };
        let _ = writeln!(
            out,
            "{}.\t{}\tIN\tSOA\t{}. {}. {} {} {} {} {}",
            self.soa.name,
            self.soa.ttl,
            s.mname,
            s.rname,
            s.serial,
            s.refresh,
            s.retry,
            s.expire,
            s.minimum
        );
        for r in self.records.values().flat_map(|t| t.values().flatten()) {
            let rdata = match &r.rdata {
                RData::Soa(_) => continue,
                RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => format!("{n}."),
                RData::Mx {
                    preference,
                    exchange,
                } => format!("{preference} {exchange}."),
                other => other.to_string(),
            };
            let _ = writeln!(out, "{}.\t{}\tIN\t{}\t{}", r.name, r.ttl, r.rtype(), rdata);
        }
        out
    }
}

const ORIGINS: [&str; 3] = ["zone.test", "nl", "a.b.test"];
/// Few labels, so owners share ancestors and a drawn name often exists.
const LABELS: [&str; 5] = ["a", "b", "ns", "www", "sub"];
const QTYPES: [RecordType; 8] = [
    RecordType::A,
    RecordType::AAAA,
    RecordType::NS,
    RecordType::CNAME,
    RecordType::TXT,
    RecordType::MX,
    RecordType::SOA,
    RecordType::DS,
];

/// `base` with zero to three labels from [`LABELS`] prepended.
fn arb_name(g: &mut Gen, base: &Name) -> Name {
    let mut name = base.clone();
    for _ in 0..g.range(0..4) {
        let label = *g.pick(&LABELS);
        name = name.child(label).unwrap();
    }
    name
}

/// A server name: in the zone (glue when it sits below a cut) or not.
fn arb_target(g: &mut Gen, origin: &Name) -> Name {
    if g.range(0..4u32) == 0 {
        Name::parse("ns.elsewhere.test").unwrap()
    } else {
        arb_name(g, origin)
    }
}

/// NS is a quarter of the draws, so nested cuts and apex NS are common.
fn arb_record(g: &mut Gen, origin: &Name) -> Record {
    let owner = arb_name(g, origin);
    let ttl = g.range(1..100_000u32);
    let rdata = match g.range(0..8u32) {
        0 | 1 => RData::A(Ipv4Addr::from(g.range(0..=u32::MAX))),
        2 => RData::Aaaa(Ipv6Addr::from(std::array::from_fn(|_| {
            g.range(0..=u8::MAX)
        }))),
        3 | 4 => RData::Ns(arb_target(g, origin)),
        5 => RData::Cname(arb_name(g, origin)),
        6 => RData::Mx {
            preference: g.range(0..100u16),
            exchange: arb_target(g, origin),
        },
        _ => RData::Txt(vec![g.string("abc xyz", 0..8).into_bytes()]),
    };
    Record::new(owner, ttl, rdata)
}

/// The name as presentation text with each letter's case flipped at random.
fn respell(g: &mut Gen, name: &Name) -> Name {
    let text: String = name
        .to_string()
        .chars()
        .map(|c| if g.bool() { c.to_ascii_uppercase() } else { c })
        .collect();
    Name::parse(&text).unwrap()
}

/// Owners, every ancestor of each (out of zone above the origin), a
/// child of each (below any cut it owns), absent siblings, fresh draws
/// and names elsewhere.
fn arb_questions(g: &mut Gen, origin: &Name, owners: &[Name]) -> Vec<Name> {
    let mut names = vec![Name::root(), Name::parse("elsewhere.test").unwrap()];
    for owner in owners {
        names.extend(owner.self_and_ancestors());
        let label = *g.pick(&LABELS);
        names.push(owner.child(label).unwrap());
        if let Some(parent) = owner.parent() {
            names.push(parent.child("absent").unwrap());
        }
    }
    for _ in 0..8 {
        names.push(arb_name(g, origin));
    }
    names.into_iter().map(|n| respell(g, &n)).collect()
}

#[test]
fn the_zone_matches_the_reference_model() {
    check::cases(
        "the_zone_matches_the_reference_model",
        check::count(256),
        |g| {
            let origin = *g.pick(&ORIGINS);
            let origin = Name::parse(origin).unwrap();
            let soa = SoaData {
                mname: origin.child("ns").unwrap(),
                rname: origin.child("hostmaster").unwrap(),
                serial: g.range(0..=u32::MAX),
                refresh: 14_400,
                retry: 3_600,
                expire: 1_209_600,
                minimum: 60,
            };
            let mut zone = Zone::new(origin.clone(), 3_600, soa.clone());
            let mut model = Model::new(origin.clone(), 3_600, soa);
            let records = g.vec(0..30, |g| arb_record(g, &origin));
            for r in &records {
                zone.add(r.clone());
                model.add(r.clone());
            }
            assert_eq!(zone.to_zonefile(), model.to_zonefile());
            let count: usize = model
                .records
                .values()
                .flat_map(|t| t.values())
                .map(Vec::len)
                .sum();
            assert_eq!(zone.record_count(), count);

            let owners: Vec<Name> = model.records.keys().cloned().collect();
            for owner in &owners {
                for qtype in QTYPES {
                    assert_eq!(
                        zone.rrset(owner, qtype).as_deref(),
                        model.rrset(owner, qtype),
                        "{owner} {qtype}"
                    );
                }
            }
            for name in arb_questions(g, &origin, &owners) {
                for qtype in QTYPES {
                    let q = Question::new(name.clone(), qtype);
                    assert_eq!(zone.answer(&q), model.answer(&q), "{name} {qtype}");
                }
            }
        },
    );
}

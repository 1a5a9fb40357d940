//! The zone model and its lookup semantics.

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use dike_wire::{Name, Question, RData, Record, RecordType, SoaData};

/// What the zone says about a question. The server turns this into a wire
/// message; keeping it structural makes the semantics unit-testable.
#[derive(Debug, Clone, PartialEq)]
pub enum ZoneAnswer {
    /// Authoritative data: answer records (possibly a CNAME chain) plus
    /// additional-section records (e.g. addresses for in-zone NS answers).
    Authoritative {
        /// Answer-section records.
        answers: Vec<Record>,
        /// Additional-section records.
        additionals: Vec<Record>,
    },
    /// The name exists but has no data of this type (RFC 2308 NODATA).
    NoData {
        /// The zone SOA, for the authority section.
        soa: Record,
    },
    /// The name does not exist (NXDOMAIN).
    NxDomain {
        /// The zone SOA, for the authority section.
        soa: Record,
    },
    /// The question falls under a delegated child zone: a referral.
    Referral {
        /// The child's NS RRset, for the authority section.
        ns: Vec<Record>,
        /// Glue addresses, for the additional section.
        glue: Vec<Record>,
    },
    /// The question is outside this zone entirely.
    NotInZone,
}

/// One owner name's records in one exact-size slice, in insertion
/// order, so an add appends whatever its type. Never empty. It hashes,
/// compares and borrows as its first record's name, so the index keeps
/// no second copy of the owner.
#[derive(Clone)]
struct Owner(Box<[Record]>);

impl Owner {
    fn name(&self) -> &Name {
        &self.0[0].name
    }

    /// The `rtype` records, in insertion order.
    fn rrset(&self, rtype: RecordType) -> impl Iterator<Item = &Record> {
        self.0.iter().filter(move |r| r.rtype() == rtype)
    }

    /// The `rtype` records, if any, in an exact-size vector (a collected
    /// filter would start at four).
    fn rrset_vec(&self, rtype: RecordType) -> Option<Vec<Record>> {
        let len = self.rrset(rtype).count();
        (len > 0).then(|| {
            let mut rrset = Vec::with_capacity(len);
            rrset.extend(self.rrset(rtype).cloned());
            rrset
        })
    }

    /// The records by type, insertion order kept within a type.
    fn by_type(&self) -> Vec<&Record> {
        let mut records: Vec<&Record> = self.0.iter().collect();
        records.sort_by_key(|r| r.rtype());
        records
    }
}

impl PartialEq for Owner {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
    }
}

impl Eq for Owner {}

impl std::hash::Hash for Owner {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name().hash(state);
    }
}

impl std::borrow::Borrow<Name> for Owner {
    fn borrow(&self) -> &Name {
        self.name()
    }
}

/// An in-memory DNS zone.
///
/// Records are stored per owner name, each owner's records in one slice
/// in insertion order. Any NS RRset owned by a name *below* the origin marks
/// a zone cut: queries at or below it produce referrals, and address
/// records stored below the cut serve as glue.
///
/// Owners live in a hash index: the answer path only ever probes exact
/// names, so nothing on it compares names in canonical order. The cold
/// paths that must ([`Zone::iter_records`], [`Zone::to_zonefile`] and
/// `Debug`) sort the owners, and each owner's records by type, when
/// called.
#[derive(Clone)]
pub struct Zone {
    origin: Name,
    soa: Record,
    records: HashSet<Owner>,
    /// Every proper ancestor of an owner, strictly below the origin. A
    /// name here without records of its own is an empty non-terminal.
    interior: HashSet<Name>,
}

impl Zone {
    /// Creates a zone with the given origin and SOA data.
    pub fn new(origin: Name, soa_ttl: u32, soa: SoaData) -> Self {
        let soa_record = Record::new(origin.clone(), soa_ttl, RData::Soa(Box::new(soa)));
        let apex = Owner(Box::new([soa_record.clone()]));
        Zone {
            records: HashSet::from([apex]),
            origin,
            soa: soa_record,
            interior: HashSet::new(),
        }
    }

    /// The zone origin.
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// The SOA record.
    pub fn soa(&self) -> &Record {
        &self.soa
    }

    /// The SOA serial.
    pub fn serial(&self) -> u32 {
        match &self.soa.rdata {
            RData::Soa(s) => s.serial,
            _ => unreachable!("soa record always holds SOA data"),
        }
    }

    /// Bumps the SOA serial — a zone reload.
    pub(crate) fn bump_serial(&mut self) {
        if let RData::Soa(s) = &mut self.soa.rdata {
            s.serial = s.serial.wrapping_add(1);
        }
        if let Some(apex) = self.records.take(&self.origin) {
            let mut records = apex.0.into_vec();
            let at = records.iter().position(|r| r.rtype() == RecordType::SOA);
            records.retain(|r| r.rtype() != RecordType::SOA);
            records.insert(at.unwrap_or(records.len()), self.soa.clone());
            self.records.insert(Owner(records.into_boxed_slice()));
        }
    }

    /// Adds a record. Records outside the origin are rejected.
    ///
    /// # Panics
    /// Panics if `record.name` is not at or below the zone origin —
    /// building a zone with out-of-bailiwick data is a programming error.
    pub fn add(&mut self, record: Record) {
        assert!(
            record.name.is_subdomain_of(&self.origin),
            "record {} outside zone {}",
            record.name,
            self.origin
        );
        for ancestor in between(&record.name, &self.origin) {
            // An ancestor already present has all of its own above it.
            if !self.interior.insert(ancestor) {
                break;
            }
        }
        // Room for exactly one more keeps the slice exact-size.
        let mut records = self
            .records
            .take(&record.name)
            .map_or_else(Vec::new, |owner| owner.0.into_vec());
        records.reserve_exact(1);
        records.push(record);
        self.records.insert(Owner(records.into_boxed_slice()));
    }

    /// Total number of records (handy for zone-file tests).
    pub fn record_count(&self) -> usize {
        self.records.iter().map(|owner| owner.0.len()).sum()
    }

    /// The owners' records in canonical DNS order of the owners, each
    /// owner's by type.
    fn sorted_owners(&self) -> BTreeMap<&Name, Vec<&Record>> {
        self.records
            .iter()
            .map(|o| (o.name(), o.by_type()))
            .collect()
    }

    /// Iterates every record in canonical order (names in canonical DNS
    /// order, each name's records by type). Sorts the owners on each call.
    pub fn iter_records(&self) -> impl Iterator<Item = &Record> {
        self.sorted_owners().into_values().flatten()
    }

    /// Serializes the zone to master-file text that
    /// [`crate::zonefile::parse`] reads back into an equal zone.
    pub fn to_zonefile(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "$ORIGIN {}.", self.origin);
        // The SOA must come first; emit it explicitly, then everything
        // else except the apex SOA slot.
        let _ = writeln!(out, "{}.\t{}\tIN\tSOA\t{}", self.soa.name, self.soa.ttl, {
            let RData::Soa(s) = &self.soa.rdata else {
                unreachable!("soa record holds SOA data")
            };
            format!(
                "{}. {}. {} {} {} {} {}",
                s.mname, s.rname, s.serial, s.refresh, s.retry, s.expire, s.minimum
            )
        });
        for r in self.iter_records() {
            if r.rtype() == RecordType::SOA {
                continue;
            }
            let rdata = match &r.rdata {
                // Names inside RDATA need trailing dots to stay absolute
                // through a parse round trip.
                RData::Ns(n) => format!("{n}."),
                RData::Cname(n) => format!("{n}."),
                RData::Ptr(n) => format!("{n}."),
                RData::Mx {
                    preference,
                    exchange,
                } => format!("{preference} {exchange}."),
                RData::Srv {
                    priority,
                    weight,
                    port,
                    target,
                } => format!("{priority} {weight} {port} {target}."),
                other => other.to_string(),
            };
            let _ = writeln!(out, "{}.\t{}\tIN\t{}\t{}", r.name, r.ttl, r.rtype(), rdata);
        }
        out
    }

    /// All records of a type at a name, in insertion order, if any.
    pub fn rrset(&self, name: &Name, rtype: RecordType) -> Option<Vec<Record>> {
        self.records.get(name)?.rrset_vec(rtype)
    }

    /// Appends the records of a type at a name to `out`.
    fn extend_rrset(&self, out: &mut Vec<Record>, name: &Name, rtype: RecordType) {
        if let Some(owner) = self.records.get(name) {
            out.extend(owner.rrset(rtype).cloned());
        }
    }

    /// Answers a question per authoritative-server semantics.
    pub fn answer(&self, q: &Question) -> ZoneAnswer {
        if !q.name.is_subdomain_of(&self.origin) {
            return ZoneAnswer::NotInZone;
        }

        // One walk from the qname up to (excluding) the origin probes each
        // name once: the qname's probe is also the exact-match lookup, and
        // any NS owner on the way is a zone cut. Keep walking past a cut:
        // if several nested cuts exist, the shallowest one (closest to the
        // origin) owns the referral — everything deeper belongs to the
        // child.
        let node = self.records.get(&q.name);
        let mut cut = node
            .filter(|_| q.name != self.origin)
            .and_then(|owner| owner.rrset_vec(RecordType::NS));
        for ancestor in between(&q.name, &self.origin) {
            if let Some(ns) = self.rrset(&ancestor, RecordType::NS) {
                cut = Some(ns);
            }
        }

        // Delegations take precedence over everything except data at the
        // origin itself — but an NS query *at the cut* is still a referral
        // (the child is authoritative for its own apex).
        if let Some(ns) = cut {
            let mut glue = Vec::new();
            for r in &ns {
                if let RData::Ns(target) = &r.rdata {
                    for t in [RecordType::A, RecordType::AAAA] {
                        self.extend_rrset(&mut glue, target, t);
                    }
                }
            }
            return ZoneAnswer::Referral { ns, glue };
        }

        let Some(owner) = node else {
            // A name with no records exists if some owner sits below it
            // (an empty non-terminal).
            return if self.interior.contains(&q.name) {
                ZoneAnswer::NoData {
                    soa: self.soa.clone(),
                }
            } else {
                ZoneAnswer::NxDomain {
                    soa: self.soa.clone(),
                }
            };
        };

        // Exact type match.
        if let Some(answers) = owner.rrset_vec(q.qtype) {
            let mut additionals = Vec::new();
            // For NS answers, include in-zone addresses of the servers.
            if q.qtype == RecordType::NS {
                for r in &answers {
                    if let RData::Ns(target) = &r.rdata {
                        for t in [RecordType::A, RecordType::AAAA] {
                            self.extend_rrset(&mut additionals, target, t);
                        }
                    }
                }
            }
            return ZoneAnswer::Authoritative {
                answers,
                additionals,
            };
        }

        // CNAME at the name answers any other type, chased in-zone.
        if let Some(mut answers) = owner.rrset_vec(RecordType::CNAME) {
            if let Some(RData::Cname(target)) =
                owner.rrset(RecordType::CNAME).next().map(|r| &r.rdata)
            {
                self.extend_rrset(&mut answers, target, q.qtype);
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
}

/// The names strictly between `name` and its ancestor `origin`, deepest
/// first: `a.b.c.nl` under `nl` yields `b.c.nl`, then `c.nl`.
fn between<'a>(name: &'a Name, origin: &Name) -> impl Iterator<Item = Name> + 'a {
    let depth = name.label_count() - origin.label_count();
    name.self_and_ancestors().take(depth).skip(1)
}

/// Prints the owners in canonical order, not the per-process hash order.
/// `interior` is derived from the owners and left out.
impl fmt::Debug for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Zone")
            .field("origin", &self.origin)
            .field("soa", &self.soa)
            .field("records", &self.sorted_owners())
            .finish()
    }
}

/// A conventional SOA for test and experiment zones.
pub(crate) fn default_soa(origin: &Name) -> SoaData {
    SoaData {
        mname: origin.child("ns1").expect("valid label"),
        rname: origin.child("hostmaster").expect("valid label"),
        serial: 1,
        refresh: 14_400,
        retry: 3_600,
        expire: 1_209_600,
        minimum: 60,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn test_zone() -> Zone {
        let origin = name("cachetest.nl");
        let mut z = Zone::new(origin.clone(), 3600, default_soa(&origin));
        z.add(Record::new(
            origin.clone(),
            3600,
            RData::Ns(name("ns1.cachetest.nl")),
        ));
        z.add(Record::new(
            origin.clone(),
            3600,
            RData::Ns(name("ns2.cachetest.nl")),
        ));
        z.add(Record::new(
            name("ns1.cachetest.nl"),
            3600,
            RData::A(Ipv4Addr::new(198, 51, 100, 1)),
        ));
        z.add(Record::new(
            name("ns2.cachetest.nl"),
            3600,
            RData::A(Ipv4Addr::new(198, 51, 100, 2)),
        ));
        z.add(Record::new(
            name("www.cachetest.nl"),
            60,
            RData::A(Ipv4Addr::new(203, 0, 113, 1)),
        ));
        z.add(Record::new(
            name("alias.cachetest.nl"),
            60,
            RData::Cname(name("www.cachetest.nl")),
        ));
        // A delegated child zone with glue.
        z.add(Record::new(
            name("sub.cachetest.nl"),
            3600,
            RData::Ns(name("ns1.sub.cachetest.nl")),
        ));
        z.add(Record::new(
            name("ns1.sub.cachetest.nl"),
            3600,
            RData::A(Ipv4Addr::new(198, 51, 100, 53)),
        ));
        z
    }

    #[test]
    fn exact_match_is_authoritative() {
        let z = test_zone();
        match z.answer(&Question::new(name("www.cachetest.nl"), RecordType::A)) {
            ZoneAnswer::Authoritative { answers, .. } => {
                assert_eq!(answers.len(), 1);
                assert_eq!(answers[0].ttl, 60);
            }
            other => panic!("expected authoritative, got {other:?}"),
        }
    }

    #[test]
    fn ns_answer_includes_glue_addresses() {
        let z = test_zone();
        match z.answer(&Question::new(name("cachetest.nl"), RecordType::NS)) {
            ZoneAnswer::Authoritative {
                answers,
                additionals,
            } => {
                assert_eq!(answers.len(), 2);
                assert_eq!(additionals.len(), 2);
            }
            other => panic!("expected authoritative, got {other:?}"),
        }
    }

    #[test]
    fn missing_type_is_nodata_with_soa() {
        let z = test_zone();
        match z.answer(&Question::new(name("www.cachetest.nl"), RecordType::AAAA)) {
            ZoneAnswer::NoData { soa } => assert_eq!(soa.rtype(), RecordType::SOA),
            other => panic!("expected nodata, got {other:?}"),
        }
    }

    #[test]
    fn missing_name_is_nxdomain() {
        let z = test_zone();
        assert!(matches!(
            z.answer(&Question::new(name("nope.cachetest.nl"), RecordType::A)),
            ZoneAnswer::NxDomain { .. }
        ));
    }

    #[test]
    fn empty_non_terminal_is_nodata_not_nxdomain() {
        let origin = name("cachetest.nl");
        let mut z = Zone::new(origin.clone(), 3600, default_soa(&origin));
        z.add(Record::new(
            name("a.b.cachetest.nl"),
            60,
            RData::A(Ipv4Addr::new(203, 0, 113, 9)),
        ));
        // "b.cachetest.nl" has no records but exists as a non-terminal.
        assert!(matches!(
            z.answer(&Question::new(name("b.cachetest.nl"), RecordType::A)),
            ZoneAnswer::NoData { .. }
        ));
    }

    #[test]
    fn delegation_produces_referral_with_glue() {
        let z = test_zone();
        match z.answer(&Question::new(name("x.sub.cachetest.nl"), RecordType::A)) {
            ZoneAnswer::Referral { ns, glue } => {
                assert_eq!(ns.len(), 1);
                assert_eq!(glue.len(), 1);
                assert_eq!(ns[0].name, name("sub.cachetest.nl"));
            }
            other => panic!("expected referral, got {other:?}"),
        }
        // A query exactly at the cut also refers.
        assert!(matches!(
            z.answer(&Question::new(name("sub.cachetest.nl"), RecordType::NS)),
            ZoneAnswer::Referral { .. }
        ));
    }

    #[test]
    fn cname_is_followed_in_zone() {
        let z = test_zone();
        match z.answer(&Question::new(name("alias.cachetest.nl"), RecordType::A)) {
            ZoneAnswer::Authoritative { answers, .. } => {
                assert_eq!(answers.len(), 2);
                assert_eq!(answers[0].rtype(), RecordType::CNAME);
                assert_eq!(answers[1].rtype(), RecordType::A);
            }
            other => panic!("expected authoritative, got {other:?}"),
        }
    }

    #[test]
    fn out_of_zone_is_not_in_zone() {
        let z = test_zone();
        assert_eq!(
            z.answer(&Question::new(name("example.com"), RecordType::A)),
            ZoneAnswer::NotInZone
        );
    }

    #[test]
    fn bump_serial_updates_soa_everywhere() {
        let mut z = test_zone();
        let before = z.serial();
        z.bump_serial();
        assert_eq!(z.serial(), before + 1);
        match z.answer(&Question::new(name("cachetest.nl"), RecordType::SOA)) {
            ZoneAnswer::Authoritative { answers, .. } => match &answers[0].rdata {
                RData::Soa(s) => assert_eq!(s.serial, before + 1),
                _ => panic!("expected SOA rdata"),
            },
            other => panic!("expected authoritative, got {other:?}"),
        }
    }

    #[test]
    fn debug_lists_owners_in_canonical_order() {
        let shown = format!("{:?}", test_zone());
        let owners = ["", "alias.", "ns1.", "ns2.", "sub.", "ns1.sub.", "www."];
        let at: Vec<usize> = owners
            .iter()
            .map(|o| shown.find(&format!("Name({o}cachetest.nl): [")).unwrap())
            .collect();
        assert!(at.windows(2).all(|w| w[0] < w[1]), "{shown}");
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn adding_out_of_zone_record_panics() {
        let mut z = test_zone();
        z.add(Record::new(
            name("example.com"),
            60,
            RData::A(Ipv4Addr::new(1, 2, 3, 4)),
        ));
    }
}

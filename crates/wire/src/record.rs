//! Resource records.

use std::fmt;

use crate::name::Name;
use crate::rdata::RData;
use crate::types::{RecordClass, RecordType};

/// One resource record: owner name, class, TTL and typed data.
///
/// The TTL is the *remaining* lifetime wherever the record currently lives:
/// authoritative servers emit the zone TTL, caches decrement it as wall
/// time passes (RFC 1035 §3.2.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Record {
    /// Owner name.
    pub name: Name,
    /// Record class; `IN` everywhere in these experiments.
    pub class: RecordClass,
    /// Remaining time to live, seconds.
    pub ttl: u32,
    /// The typed record data.
    pub rdata: RData,
}

impl Record {
    /// Creates an `IN`-class record.
    pub fn new(name: Name, ttl: u32, rdata: RData) -> Self {
        Record {
            name,
            class: RecordClass::IN,
            ttl,
            rdata,
        }
    }

    /// The record's type, derived from its data.
    pub fn rtype(&self) -> RecordType {
        self.rdata.record_type()
    }

    /// Returns a copy with the TTL replaced — used by caches when serving
    /// a record whose lifetime has partially elapsed.
    pub fn with_ttl(&self, ttl: u32) -> Self {
        let mut r = self.clone();
        r.ttl = ttl;
        r
    }
}

impl fmt::Display for Record {
    /// Zone-file presentation format: `name ttl class type rdata`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {}",
            self.name,
            self.ttl,
            self.class,
            self.rtype(),
            self.rdata
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn new_defaults_to_in_class() {
        let r = Record::new(
            Name::parse("ns1.cachetest.nl").unwrap(),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 53)),
        );
        assert_eq!(r.class, RecordClass::IN);
        assert_eq!(r.rtype(), RecordType::A);
    }

    #[test]
    fn with_ttl_only_changes_ttl() {
        let r = Record::new(
            Name::parse("cachetest.nl").unwrap(),
            3600,
            RData::Ns(Name::parse("ns1.cachetest.nl").unwrap()),
        );
        let r2 = r.with_ttl(10);
        assert_eq!(r2.ttl, 10);
        assert_eq!(r2.name, r.name);
        assert_eq!(r2.rdata, r.rdata);
    }

    #[test]
    fn display_is_zone_file_format() {
        let r = Record::new(
            Name::parse("cachetest.nl").unwrap(),
            60,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        );
        assert_eq!(r.to_string(), "cachetest.nl 60 IN A 192.0.2.1");
    }

    /// Every message section, cached RRset and zone RRset is a slice of
    /// records, so their size is the simulator's bytes per answer. A
    /// variant stored inline (an unboxed `SoaData`) regrows all of them.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn record_layout_stays_small() {
        assert!(
            std::mem::size_of::<RData>() <= 40,
            "RData is {} bytes",
            std::mem::size_of::<RData>()
        );
        assert!(
            std::mem::size_of::<Record>() <= 80,
            "Record is {} bytes",
            std::mem::size_of::<Record>()
        );
    }
}

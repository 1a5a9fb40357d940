//! Cache entries and keys.

use std::sync::Arc;

use dike_netsim::SimTime;
use dike_wire::{Name, Record, RecordType};

/// Cache lookup key: the owner name and record type. Class is always IN.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Owner name (canonical lowercase, via [`Name`]).
    pub name: Name,
    /// Record type.
    pub rtype: RecordType,
}

impl CacheKey {
    /// Builds a key.
    pub fn new(name: Name, rtype: RecordType) -> Self {
        CacheKey { name, rtype }
    }
}

/// RFC 2181 §5.4.1 data ranking: where a record came from decides whether
/// it may replace what is already cached. Authoritative answers outrank
/// referral (glue) data; equal or higher trust always replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TrustLevel {
    /// Data from a referral's authority/additional sections (glue).
    Glue,
    /// Data from the answer section of an authoritative response.
    Authoritative,
}

/// Why a negative entry exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegativeKind {
    /// The name does not exist at all (NXDOMAIN).
    NxDomain,
    /// The name exists but has no records of this type (NODATA).
    NoData,
}

/// What a cache slot holds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum EntryData {
    /// A positive RRset, shared with every answer served from it.
    Positive(Arc<[Record]>),
    /// A cached negative result (RFC 2308).
    Negative(NegativeKind),
}

/// One cache slot.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub(crate) data: EntryData,
    /// When the entry was stored.
    pub(crate) stored_at: SimTime,
    /// Effective TTL in seconds after clamping.
    pub(crate) effective_ttl: u32,
    /// Data-ranking trust of the stored records (RFC 2181 §5.4.1).
    pub(crate) trust: TrustLevel,
    /// Hits served from this entry, driving RRset rotation.
    pub(crate) hits: u32,
}

impl Entry {
    /// Seconds of life left at `now`; `None` once expired.
    pub(crate) fn remaining_ttl(&self, now: SimTime) -> Option<u32> {
        let age = now.since(self.stored_at).as_secs();
        let ttl = self.effective_ttl as u64;
        if age >= ttl {
            None
        } else {
            Some((ttl - age) as u32)
        }
    }

    /// When the entry expires.
    pub(crate) fn expires_at(&self) -> SimTime {
        self.stored_at + dike_netsim::SimDuration::from_secs(self.effective_ttl as u64)
    }

    /// Whether the entry is still usable as *stale* data at `now`, given a
    /// post-expiry window.
    pub(crate) fn usable_as_stale(&self, now: SimTime, window: dike_netsim::SimDuration) -> bool {
        let hard_limit = self.expires_at() + window;
        now < hard_limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_netsim::SimDuration;
    use std::net::Ipv4Addr;

    fn entry(ttl: u32) -> Entry {
        Entry {
            data: EntryData::Positive(Arc::from([Record::new(
                Name::parse("cachetest.nl").unwrap(),
                ttl,
                dike_wire::RData::A(Ipv4Addr::new(192, 0, 2, 1)),
            )])),
            stored_at: SimTime::ZERO,
            effective_ttl: ttl,
            trust: TrustLevel::Authoritative,
            hits: 0,
        }
    }

    #[test]
    fn remaining_ttl_decrements() {
        let e = entry(3600);
        assert_eq!(e.remaining_ttl(SimTime::ZERO), Some(3600));
        let t = SimDuration::from_secs(1200).after_zero();
        assert_eq!(e.remaining_ttl(t), Some(2400));
    }

    #[test]
    fn expires_exactly_at_ttl() {
        let e = entry(60);
        let just_before = SimDuration::from_secs(59).after_zero();
        let at = SimDuration::from_secs(60).after_zero();
        assert_eq!(e.remaining_ttl(just_before), Some(1));
        assert_eq!(e.remaining_ttl(at), None);
    }

    #[test]
    fn stale_window_extends_usability() {
        let e = entry(60);
        let after_expiry = SimDuration::from_secs(120).after_zero();
        assert!(e.usable_as_stale(after_expiry, SimDuration::from_secs(3600)));
        let way_after = SimDuration::from_secs(60 + 3601).after_zero();
        assert!(!e.usable_as_stale(way_after, SimDuration::from_secs(3600)));
    }
}

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

/// "No slot": the end of the LRU list.
pub(crate) const NIL: u32 = u32::MAX;

/// One occupied cache slot: its key, what it holds, and its place on the
/// LRU list. The key's and the entry's fields sit side by side, so the
/// slot carries one struct's padding, not three.
#[derive(Debug)]
pub(crate) struct Slot {
    /// Owner name of the key.
    pub(crate) name: Name,
    /// Record type of the key.
    pub(crate) rtype: RecordType,
    pub(crate) data: EntryData,
    /// When the entry was stored.
    pub(crate) stored_at: SimTime,
    /// Effective TTL in seconds after clamping.
    pub(crate) effective_ttl: u32,
    /// Data-ranking trust of the stored records (RFC 2181 §5.4.1).
    pub(crate) trust: TrustLevel,
    /// Hits served from this entry, driving RRset rotation.
    pub(crate) hits: u32,
    /// The next less recently used slot.
    pub(crate) prev: u32,
    /// The next more recently used slot.
    pub(crate) next: u32,
}

impl Slot {
    /// A slot for `(name, rtype)` holding `data`, stored at `now` with
    /// `effective_ttl`, not yet linked.
    pub(crate) fn new(
        name: Name,
        rtype: RecordType,
        data: EntryData,
        now: SimTime,
        effective_ttl: u32,
        trust: TrustLevel,
    ) -> Self {
        Slot {
            name,
            rtype,
            data,
            stored_at: now,
            effective_ttl,
            trust,
            hits: 0,
            prev: NIL,
            next: NIL,
        }
    }

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

    fn entry(ttl: u32) -> Slot {
        let name = Name::parse("cachetest.nl").unwrap();
        let data = EntryData::Positive(Arc::from([Record::new(
            name.clone(),
            ttl,
            dike_wire::RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        )]));
        let trust = TrustLevel::Authoritative;
        Slot::new(name, RecordType::A, data, SimTime::ZERO, ttl, trust)
    }

    /// A slot is a key, an entry and two links in one struct's padding:
    /// 80 bytes where the key, the entry and the links apart took 88.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_slot_is_80_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 80);
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

//! The cache proper: an LRU-bounded TTL cache with negative entries and
//! optional serve-stale.

use std::sync::Arc;

use dike_netsim::SimTime;
use dike_wire::{Name, RData, Record, RecordType};

use crate::config::{CacheConfig, STALE_WINDOW};
use crate::entry::{CacheKey, EntryData, NegativeKind, Slot, TrustLevel, NIL};
use crate::index::SlotIndex;

/// The result of a cache lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheAnswer {
    /// A live positive entry; records carry the decremented TTL.
    Fresh(CachedRrset),
    /// A live negative entry.
    Negative(NegativeKind),
    /// An expired entry served under serve-stale rules; records carry
    /// TTL 0 per RFC 8767 (and the paper's §5.3 observation).
    Stale(CachedRrset),
    /// Nothing usable.
    Miss,
}

impl CacheAnswer {
    /// True for `Fresh` and `Negative` — answers a resolver may return
    /// without contacting an authoritative.
    pub fn is_usable_fresh(&self) -> bool {
        matches!(self, CacheAnswer::Fresh(_) | CacheAnswer::Negative(_))
    }
}

/// A positive answer as served: the cached RRset itself (shared, not
/// copied), where this hit's rotation starts, and the TTL every record
/// carries. Nothing is copied until [`CachedRrset::into_records`].
#[derive(Debug, Clone)]
pub struct CachedRrset {
    records: Arc<[Record]>,
    start: usize,
    ttl: u32,
}

impl CachedRrset {
    /// The records in served order: BIND-style cyclic rotation
    /// (`rrset-order cyclic`) starts successive hits at successive
    /// offsets.
    fn rotated(&self) -> impl Iterator<Item = &Record> {
        let (before, from) = self.records.split_at(self.start);
        from.iter().chain(before)
    }

    /// The records' data in served order.
    pub fn rdata(&self) -> impl Iterator<Item = &RData> {
        self.rotated().map(|r| &r.rdata)
    }

    /// The records in served order, each carrying the served TTL — what
    /// goes into a client's answer section.
    pub fn into_records(self) -> Vec<Record> {
        self.rotated().map(|r| r.with_ttl(self.ttl)).collect()
    }
}

/// Equal when the served records are: same order, same TTL.
impl PartialEq for CachedRrset {
    fn eq(&self, other: &Self) -> bool {
        self.ttl == other.ttl && self.rotated().eq(other.rotated())
    }
}

/// Running statistics, cheap to copy out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a live entry.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Lookups that found only an expired entry.
    pub expired: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Stale answers served.
    pub stale_served: u64,
    /// Whole-cache flushes (operator wipes, paper §5.3's cold-cache
    /// restarts).
    pub flushes: u64,
}

/// A recursive resolver's cache.
///
/// Entries are whole RRsets keyed by `(name, type)`. `index` finds a
/// key's slot in `slots` from 8-byte buckets of slot number and hash
/// tag, comparing the key held in the slot itself, so each key is stored
/// once. The slots form a doubly-linked LRU list from
/// `head` (least recently used, the next victim) to `tail` (most
/// recent), so a touch and an eviction are O(1) and allocate nothing.
/// The slab never has holes: an eviction hands the victim's slot to the
/// new entry, a re-insert overwrites its own slot, and only a flush
/// removes slots (all of them). The slab grows by a quarter, up to the
/// configured capacity, so at most a fifth of what it holds is slack.
#[derive(Debug)]
pub struct ResolverCache {
    config: CacheConfig,
    index: SlotIndex,
    slots: Vec<Slot>,
    head: u32,
    tail: u32,
    stats: CacheStats,
    /// See [`ResolverCache::generation`].
    generation: u64,
}

impl ResolverCache {
    /// An empty cache with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        ResolverCache {
            config,
            index: SlotIndex::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
            generation: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of live slots (including expired ones not yet evicted).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slots are occupied.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// A number that moves whenever a delegation walk could find more
    /// than before: a positive NS or A RRset stored, or a flush. Nothing
    /// else adds NS or A data (an eviction, an expiry or a negative entry
    /// only takes it away), so while the generation holds, a walk down a
    /// name's ancestors finds no deeper delegation than last time.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Stores a positive RRset observed at `now` with authoritative trust.
    /// The effective TTL is the minimum TTL across the set, clamped by
    /// configuration. Returns the effective TTL actually stored.
    pub fn insert(&mut self, now: SimTime, records: impl Into<Arc<[Record]>>) -> u32 {
        self.insert_ranked(now, records, TrustLevel::Authoritative)
    }

    /// Stores a positive RRset with an explicit trust level (RFC 2181
    /// §5.4.1): lower-trust data (glue) never replaces live higher-trust
    /// data (an authoritative answer). Returns the effective TTL of
    /// whatever ends up cached.
    pub fn insert_ranked(
        &mut self,
        now: SimTime,
        records: impl Into<Arc<[Record]>>,
        trust: TrustLevel,
    ) -> u32 {
        let records = records.into();
        debug_assert!(!records.is_empty(), "cannot cache an empty RRset");
        let (name, rtype) = (&records[0].name, records[0].rtype());
        // Data ranking: keep a live higher-trust entry.
        if let Some(at) = self.slot_of(SlotIndex::tag(name, rtype), name, rtype) {
            let existing = &self.slots[at as usize];
            if existing.trust > trust {
                if let Some(remaining) = existing.remaining_ttl(now) {
                    return remaining;
                }
            }
        }
        let raw_ttl = records.iter().map(|r| r.ttl).min().unwrap_or(0);
        let ttl = self.config.clamp_ttl(raw_ttl);
        let name = name.clone();
        let data = EntryData::Positive(records);
        self.store(Slot::new(name, rtype, data, now, ttl, trust));
        ttl
    }

    /// Stores a negative result (RFC 2308) with the given negative TTL.
    pub fn insert_negative(
        &mut self,
        now: SimTime,
        name: Name,
        rtype: RecordType,
        kind: NegativeKind,
        neg_ttl: u32,
    ) -> u32 {
        let ttl = self.config.clamp_ttl(neg_ttl);
        let (data, trust) = (EntryData::Negative(kind), TrustLevel::Authoritative);
        self.store(Slot::new(name, rtype, data, now, ttl, trust));
        ttl
    }

    /// Makes `fresh` the most recently used slot: over its key's own
    /// slot if it has one, else over the least recently used slot when
    /// the cache is full, else in a new slot.
    fn store(&mut self, fresh: Slot) {
        self.stats.insertions += 1;
        if matches!(fresh.data, EntryData::Positive(_))
            && matches!(fresh.rtype, RecordType::NS | RecordType::A)
        {
            self.generation += 1;
        }
        let key_tag = SlotIndex::tag(&fresh.name, fresh.rtype);
        let capacity = self.config.capacity.max(1); // 0 still holds the entry just stored
        let at = match self.slot_of(key_tag, &fresh.name, fresh.rtype) {
            Some(at) => {
                self.unlink(at);
                self.slots[at as usize] = fresh;
                at
            }
            None if self.slots.len() >= capacity => {
                let at = self.head;
                self.unlink(at);
                self.stats.evictions += 1;
                let victim = std::mem::replace(&mut self.slots[at as usize], fresh);
                self.index
                    .remove(SlotIndex::tag(&victim.name, victim.rtype), at);
                self.index.insert(key_tag, at, self.slots.len());
                at
            }
            None => {
                assert!(self.slots.len() < NIL as usize, "slot indices are u32");
                let len = self.slots.len();
                if len == self.slots.capacity() {
                    // A quarter more, not double: at most a fifth slack.
                    self.slots.reserve_exact((len / 4).clamp(1, capacity - len));
                }
                self.slots.push(fresh);
                self.index.insert(key_tag, len as u32, len + 1);
                len as u32
            }
        };
        self.push_tail(at);
    }

    /// The slot holding `(name, rtype)`, whose tag is `tag`.
    fn slot_of(&self, tag: u32, name: &Name, rtype: RecordType) -> Option<u32> {
        let slots = &self.slots;
        self.index.find(tag, |at| {
            let slot = &slots[at as usize];
            slot.rtype == rtype && slot.name == *name
        })
    }

    /// Takes slot `at` out of the LRU list.
    fn unlink(&mut self, at: u32) {
        let Slot { prev, next, .. } = self.slots[at as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Links slot `at` in as the most recently used.
    fn push_tail(&mut self, at: u32) {
        let slot = &mut self.slots[at as usize];
        slot.prev = self.tail;
        slot.next = NIL;
        match self.tail {
            NIL => self.head = at,
            t => self.slots[t as usize].next = at,
        }
        self.tail = at;
    }

    /// Looks up `(name, rtype)` at `now`. Fresh entries are returned with
    /// decremented TTLs; expired entries report [`CacheAnswer::Miss`]
    /// (use [`ResolverCache::lookup_stale`] after a failed refresh).
    pub fn lookup(&mut self, now: SimTime, name: &Name, rtype: RecordType) -> CacheAnswer {
        self.lookup_min_trust(now, name, rtype, TrustLevel::Glue)
    }

    /// Like [`ResolverCache::lookup`] but ignores entries below
    /// `min_trust`. Client-facing resolver answers use
    /// [`TrustLevel::Authoritative`]: RFC 2181 §5.4.1 says referral data
    /// may steer resolution but must not be returned as an answer.
    pub fn lookup_min_trust(
        &mut self,
        now: SimTime,
        name: &Name,
        rtype: RecordType,
        min_trust: TrustLevel,
    ) -> CacheAnswer {
        match self.slot_of(SlotIndex::tag(name, rtype), name, rtype) {
            Some(at) => self.serve(at, now, min_trust),
            None => {
                self.stats.misses += 1;
                CacheAnswer::Miss
            }
        }
    }

    /// Answers from slot `at`: a miss below `min_trust`, expired past its
    /// TTL, else a hit that advances the RRset's rotation and makes the
    /// slot the most recently used.
    fn serve(&mut self, at: u32, now: SimTime, min_trust: TrustLevel) -> CacheAnswer {
        let entry = &mut self.slots[at as usize];
        if entry.trust < min_trust {
            self.stats.misses += 1;
            return CacheAnswer::Miss;
        }
        let Some(remaining) = entry.remaining_ttl(now) else {
            self.stats.expired += 1;
            return CacheAnswer::Miss;
        };
        self.stats.hits += 1;
        let answer = match &entry.data {
            EntryData::Positive(records) => CacheAnswer::Fresh(CachedRrset {
                records: Arc::clone(records),
                start: entry.hits as usize % records.len(),
                ttl: remaining,
            }),
            EntryData::Negative(kind) => CacheAnswer::Negative(*kind),
        };
        entry.hits = entry.hits.wrapping_add(1);
        if at != self.tail {
            self.unlink(at);
            self.push_tail(at);
        }
        answer
    }

    /// After resolution has failed, tries to serve an expired entry under
    /// serve-stale rules. Records come back with TTL 0. Entries below
    /// `min_trust` are never served, fresh or stale (see
    /// [`ResolverCache::lookup_min_trust`]).
    pub fn lookup_stale(
        &mut self,
        now: SimTime,
        name: &Name,
        rtype: RecordType,
        min_trust: TrustLevel,
    ) -> CacheAnswer {
        if !self.config.serve_stale {
            return CacheAnswer::Miss;
        }
        let Some(at) = self.slot_of(SlotIndex::tag(name, rtype), name, rtype) else {
            return CacheAnswer::Miss;
        };
        let entry = &self.slots[at as usize];
        if entry.remaining_ttl(now).is_some() {
            // Still fresh: callers should have used `lookup`.
            return self.serve(at, now, min_trust);
        }
        if entry.trust < min_trust || !entry.usable_as_stale(now, STALE_WINDOW) {
            return CacheAnswer::Miss;
        }
        match &entry.data {
            EntryData::Positive(records) => {
                self.stats.stale_served += 1;
                CacheAnswer::Stale(CachedRrset {
                    records: Arc::clone(records),
                    start: 0,
                    ttl: 0,
                })
            }
            EntryData::Negative(_) => CacheAnswer::Miss,
        }
    }

    /// Drops everything — an operator flush or a machine reboot.
    pub fn flush(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
        self.stats.flushes += 1;
        self.generation += 1;
    }

    /// The remaining TTL of a cached entry, for inspection in experiments.
    pub fn remaining_ttl(&self, now: SimTime, name: &Name, rtype: RecordType) -> Option<u32> {
        let at = self.slot_of(SlotIndex::tag(name, rtype), name, rtype)?;
        self.slots[at as usize].remaining_ttl(now)
    }

    /// A snapshot of every live slot: `(key, remaining TTL, trust)` — the
    /// equivalent of `rndc dumpdb` / `unbound-control dump_cache` used in
    /// the paper's Appendix A.3.
    pub fn dump(&self, now: SimTime) -> Vec<(CacheKey, u32, TrustLevel)> {
        let mut out: Vec<(CacheKey, u32, TrustLevel)> = self
            .slots
            .iter()
            .filter_map(|s| {
                let key = || CacheKey::new(s.name.clone(), s.rtype);
                s.remaining_ttl(now).map(|ttl| (key(), ttl, s.trust))
            })
            .collect();
        out.sort_by(|a, b| (&a.0.name, a.0.rtype).cmp(&(&b.0.name, b.0.rtype)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_netsim::SimDuration;
    use dike_wire::RData;
    use std::net::Ipv4Addr;

    fn rec(name: &str, ttl: u32, last_octet: u8) -> Record {
        Record::new(
            Name::parse(name).unwrap(),
            ttl,
            RData::A(Ipv4Addr::new(192, 0, 2, last_octet)),
        )
    }

    fn at(secs: u64) -> SimTime {
        SimDuration::from_secs(secs).after_zero()
    }

    /// The records a fresh answer serves.
    fn fresh(answer: CacheAnswer) -> Vec<Record> {
        match answer {
            CacheAnswer::Fresh(rrset) => rrset.into_records(),
            other => panic!("expected fresh, got {other:?}"),
        }
    }

    #[test]
    fn hit_returns_decremented_ttl() {
        let mut c = ResolverCache::new(CacheConfig::honoring());
        c.insert(at(0), vec![rec("a.nl", 3600, 1)]);
        let rs = fresh(c.lookup(at(1200), &Name::parse("a.nl").unwrap(), RecordType::A));
        assert_eq!(rs[0].ttl, 2400);
    }

    #[test]
    fn expired_entry_is_a_miss() {
        let mut c = ResolverCache::new(CacheConfig::honoring());
        c.insert(at(0), vec![rec("a.nl", 60, 1)]);
        assert_eq!(
            c.lookup(at(60), &Name::parse("a.nl").unwrap(), RecordType::A),
            CacheAnswer::Miss
        );
        assert_eq!(c.stats().expired, 1);
    }

    #[test]
    fn ttl_capping_applies_at_insert() {
        let mut c = ResolverCache::new(CacheConfig::ttl_capper_60s());
        let stored = c.insert(at(0), vec![rec("a.nl", 3600, 1)]);
        assert_eq!(stored, 60);
        // Alive at 59s, gone at 61s.
        assert!(matches!(
            c.lookup(at(59), &Name::parse("a.nl").unwrap(), RecordType::A),
            CacheAnswer::Fresh(_)
        ));
        assert_eq!(
            c.lookup(at(61), &Name::parse("a.nl").unwrap(), RecordType::A),
            CacheAnswer::Miss
        );
    }

    #[test]
    fn rrset_ttl_is_minimum_of_records() {
        let mut c = ResolverCache::new(CacheConfig::honoring());
        let stored = c.insert(at(0), vec![rec("a.nl", 300, 1), rec("a.nl", 100, 2)]);
        assert_eq!(stored, 100);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ResolverCache::new(CacheConfig {
            capacity: 2,
            ..CacheConfig::honoring()
        });
        c.insert(at(0), vec![rec("a.nl", 3600, 1)]);
        c.insert(at(1), vec![rec("b.nl", 3600, 2)]);
        // Touch a.nl so b.nl becomes the LRU victim.
        c.lookup(at(2), &Name::parse("a.nl").unwrap(), RecordType::A);
        c.insert(at(3), vec![rec("c.nl", 3600, 3)]);
        assert!(matches!(
            c.lookup(at(4), &Name::parse("a.nl").unwrap(), RecordType::A),
            CacheAnswer::Fresh(_)
        ));
        assert_eq!(
            c.lookup(at(4), &Name::parse("b.nl").unwrap(), RecordType::A),
            CacheAnswer::Miss
        );
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn negative_caching_round_trip() {
        let mut c = ResolverCache::new(CacheConfig::honoring());
        let n = Name::parse("nope.cachetest.nl").unwrap();
        c.insert_negative(
            at(0),
            n.clone(),
            RecordType::AAAA,
            NegativeKind::NxDomain,
            60,
        );
        assert_eq!(
            c.lookup(at(30), &n, RecordType::AAAA),
            CacheAnswer::Negative(NegativeKind::NxDomain)
        );
        assert_eq!(c.lookup(at(61), &n, RecordType::AAAA), CacheAnswer::Miss);
    }

    #[test]
    fn serve_stale_returns_ttl_zero() {
        let mut c = ResolverCache::new(CacheConfig::honoring().with_serve_stale());
        let n = Name::parse("a.nl").unwrap();
        c.insert(at(0), vec![rec("a.nl", 60, 1)]);
        // Fresh lookup path is unaffected.
        assert_eq!(c.lookup(at(120), &n, RecordType::A), CacheAnswer::Miss);
        match c.lookup_stale(at(120), &n, RecordType::A, TrustLevel::Glue) {
            CacheAnswer::Stale(rs) => assert_eq!(rs.into_records()[0].ttl, 0),
            other => panic!("expected stale, got {other:?}"),
        }
        assert_eq!(c.stats().stale_served, 1);
    }

    #[test]
    fn serve_stale_disabled_never_serves() {
        let mut c = ResolverCache::new(CacheConfig::honoring());
        let n = Name::parse("a.nl").unwrap();
        c.insert(at(0), vec![rec("a.nl", 60, 1)]);
        assert_eq!(
            c.lookup_stale(at(120), &n, RecordType::A, TrustLevel::Glue),
            CacheAnswer::Miss
        );
    }

    #[test]
    fn serve_stale_respects_window() {
        let mut c = ResolverCache::new(CacheConfig::honoring().with_serve_stale());
        let n = Name::parse("a.nl").unwrap();
        c.insert(at(0), vec![rec("a.nl", 60, 1)]);
        let window = STALE_WINDOW.as_secs();
        assert_eq!(window, 3 * 86_400, "the stale window is three days");
        assert!(matches!(
            c.lookup_stale(at(60 + window - 1), &n, RecordType::A, TrustLevel::Glue),
            CacheAnswer::Stale(_)
        ));
        assert_eq!(
            c.lookup_stale(at(60 + window + 1), &n, RecordType::A, TrustLevel::Glue),
            CacheAnswer::Miss
        );
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = ResolverCache::new(CacheConfig::honoring());
        c.insert(at(0), vec![rec("a.nl", 3600, 1)]);
        c.flush();
        assert!(c.is_empty());
        assert_eq!(
            c.lookup(at(1), &Name::parse("a.nl").unwrap(), RecordType::A),
            CacheAnswer::Miss
        );
    }

    #[test]
    fn reinsert_replaces_entry() {
        let mut c = ResolverCache::new(CacheConfig::honoring());
        let n = Name::parse("a.nl").unwrap();
        c.insert(at(0), vec![rec("a.nl", 60, 1)]);
        c.insert(at(30), vec![rec("a.nl", 60, 2)]);
        // Refreshed at t=30, so 31 seconds remain, and the new rdata is
        // served.
        let rs = fresh(c.lookup(at(59), &n, RecordType::A));
        assert_eq!(rs[0].ttl, 31);
        assert_eq!(rs[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 2)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn glue_does_not_replace_live_authoritative_data() {
        // Appendix A / RFC 2181 §5.4.1: the child's authoritative NS TTL
        // (60 s) must survive a later glue re-insert (3600 s).
        let mut c = ResolverCache::new(CacheConfig::honoring());
        let n = Name::parse("cachetest.nl").unwrap();
        c.insert_ranked(
            at(0),
            vec![rec("cachetest.nl", 60, 1)],
            TrustLevel::Authoritative,
        );
        c.insert_ranked(at(10), vec![rec("cachetest.nl", 3600, 2)], TrustLevel::Glue);
        let rs = fresh(c.lookup(at(10), &n, RecordType::A));
        assert_eq!(rs[0].ttl, 50, "authoritative entry kept (60s aging)");
        assert_eq!(rs[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
    }

    #[test]
    fn glue_replaces_expired_authoritative_data() {
        let mut c = ResolverCache::new(CacheConfig::honoring());
        let n = Name::parse("cachetest.nl").unwrap();
        c.insert_ranked(
            at(0),
            vec![rec("cachetest.nl", 60, 1)],
            TrustLevel::Authoritative,
        );
        // At t=100 the authoritative entry is expired; glue may land.
        c.insert_ranked(
            at(100),
            vec![rec("cachetest.nl", 3600, 2)],
            TrustLevel::Glue,
        );
        assert_eq!(fresh(c.lookup(at(100), &n, RecordType::A))[0].ttl, 3600);
    }

    #[test]
    fn authoritative_replaces_glue() {
        let mut c = ResolverCache::new(CacheConfig::honoring());
        let n = Name::parse("cachetest.nl").unwrap();
        c.insert_ranked(at(0), vec![rec("cachetest.nl", 3600, 1)], TrustLevel::Glue);
        c.insert_ranked(
            at(10),
            vec![rec("cachetest.nl", 60, 2)],
            TrustLevel::Authoritative,
        );
        assert_eq!(fresh(c.lookup(at(10), &n, RecordType::A))[0].ttl, 60);
    }

    #[test]
    fn dump_lists_live_entries_with_trust() {
        let mut c = ResolverCache::new(CacheConfig::honoring());
        c.insert_ranked(at(0), vec![rec("a.nl", 60, 1)], TrustLevel::Glue);
        c.insert(at(0), vec![rec("b.nl", 3600, 2)]);
        let dump = c.dump(at(30));
        assert_eq!(dump.len(), 2);
        assert_eq!(dump[0].0.name, Name::parse("a.nl").unwrap());
        assert_eq!(dump[0].1, 30);
        assert_eq!(dump[0].2, TrustLevel::Glue);
        assert_eq!(dump[1].2, TrustLevel::Authoritative);
        // Expired entries vanish from the dump.
        assert_eq!(c.dump(at(100)).len(), 1);
    }

    #[test]
    fn rrset_rotation_cycles_record_order() {
        let mut c = ResolverCache::new(CacheConfig::honoring());
        c.insert(
            at(0),
            vec![
                rec("multi.nl", 3600, 1),
                rec("multi.nl", 3600, 2),
                rec("multi.nl", 3600, 3),
            ],
        );
        let n = Name::parse("multi.nl").unwrap();
        let firsts: Vec<_> = (0..4)
            .map(|_| fresh(c.lookup(at(1), &n, RecordType::A))[0].rdata.clone())
            .collect();
        assert_eq!(
            firsts[0],
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
            "the first hit serves insertion order"
        );
        assert_eq!(firsts[0], firsts[3], "rotation cycles with period 3");
        assert_ne!(firsts[0], firsts[1]);
        assert_ne!(firsts[1], firsts[2]);
        // A single-record RRset has nothing to rotate.
        c.insert(at(0), vec![rec("one.nl", 3600, 9)]);
        let one = Name::parse("one.nl").unwrap();
        for _ in 0..3 {
            assert_eq!(fresh(c.lookup(at(1), &one, RecordType::A)).len(), 1);
        }
    }

    #[test]
    fn hits_share_the_stored_rrset() {
        let mut c = ResolverCache::new(CacheConfig::honoring());
        c.insert(at(0), vec![rec("a.nl", 3600, 1), rec("a.nl", 3600, 2)]);
        let n = Name::parse("a.nl").unwrap();
        let (CacheAnswer::Fresh(first), CacheAnswer::Fresh(second)) = (
            c.lookup(at(1), &n, RecordType::A),
            c.lookup(at(1), &n, RecordType::A),
        ) else {
            panic!("expected two fresh answers");
        };
        assert!(
            Arc::ptr_eq(&first.records, &second.records),
            "no copy per hit"
        );
        assert_ne!(first, second, "each hit starts the rotation one further");
    }

    #[test]
    fn distinct_types_are_distinct_slots() {
        let mut c = ResolverCache::new(CacheConfig::honoring());
        let n = Name::parse("a.nl").unwrap();
        c.insert(at(0), vec![rec("a.nl", 3600, 1)]);
        assert_eq!(c.lookup(at(1), &n, RecordType::AAAA), CacheAnswer::Miss);
        assert!(matches!(
            c.lookup(at(1), &n, RecordType::A),
            CacheAnswer::Fresh(_)
        ));
    }
}

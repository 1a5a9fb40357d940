//! Fragmented cache farms.
//!
//! Large public resolvers are "many separate recursives behind a load
//! balancer or on IP anycast ... caches may be fragmented with each
//! machine operating an independent cache" (paper §3.1). The paper's
//! fingerprint for this is *serial numbers going backwards* in consecutive
//! answers (§3.5: a VP seeing serials 1, 3, 3, 7, 3, 3).
//!
//! [`FragmentedCache`] models the farm: `n` independent [`ResolverCache`]s
//! with a selector choosing which backend handles each query.

use std::sync::Arc;

use dike_netsim::SimTime;
use dike_telemetry::rng::Rng;
use dike_wire::{Name, Record, RecordType};

use crate::cache::{CacheAnswer, CacheStats, ResolverCache};
use crate::config::CacheConfig;
use crate::entry::NegativeKind;

/// A farm of independent caches behind a load balancer.
#[derive(Debug)]
pub struct FragmentedCache {
    backends: Vec<ResolverCache>,
}

impl FragmentedCache {
    /// A farm of `n` backends (at least 1), each configured identically.
    pub fn new(n: usize, config: CacheConfig) -> Self {
        let n = n.max(1);
        FragmentedCache {
            backends: (0..n).map(|_| ResolverCache::new(config)).collect(),
        }
    }

    /// Selects the backend that will serve this query. Load balancers hash
    /// flows, which from a single client's perspective over time looks
    /// random; we sample uniformly.
    pub fn pick_backend(&mut self, rng: &mut Rng) -> usize {
        if self.backends.len() == 1 {
            0
        } else {
            rng.random_range(0..self.backends.len())
        }
    }

    /// Looks up on a specific backend.
    pub fn lookup_on(
        &mut self,
        backend: usize,
        now: SimTime,
        name: &Name,
        rtype: RecordType,
    ) -> CacheAnswer {
        self.backends[backend].lookup(now, name, rtype)
    }

    /// Trust-filtered lookup on a specific backend (see
    /// [`ResolverCache::lookup_min_trust`]).
    pub fn lookup_on_min_trust(
        &mut self,
        backend: usize,
        now: SimTime,
        name: &Name,
        rtype: RecordType,
        min_trust: crate::TrustLevel,
    ) -> CacheAnswer {
        self.backends[backend].lookup_min_trust(now, name, rtype, min_trust)
    }

    /// Serve-stale lookup on a specific backend.
    pub fn lookup_stale_on(
        &mut self,
        backend: usize,
        now: SimTime,
        name: &Name,
        rtype: RecordType,
    ) -> CacheAnswer {
        self.backends[backend].lookup_stale(now, name, rtype)
    }

    /// Inserts into a specific backend (the one that resolved the query).
    pub fn insert_on(
        &mut self,
        backend: usize,
        now: SimTime,
        records: impl Into<Arc<[Record]>>,
    ) -> u32 {
        self.backends[backend].insert(now, records)
    }

    /// Ranked insert into a specific backend (RFC 2181 data ranking).
    pub fn insert_ranked_on(
        &mut self,
        backend: usize,
        now: SimTime,
        records: impl Into<Arc<[Record]>>,
        trust: crate::TrustLevel,
    ) -> u32 {
        self.backends[backend].insert_ranked(now, records, trust)
    }

    /// Dumps one backend's live entries (see [`ResolverCache::dump`]).
    pub fn dump_backend(
        &self,
        backend: usize,
        now: SimTime,
    ) -> Vec<(crate::CacheKey, u32, crate::TrustLevel)> {
        self.backends[backend].dump(now)
    }

    /// Inserts a negative result into a specific backend.
    pub fn insert_negative_on(
        &mut self,
        backend: usize,
        now: SimTime,
        name: Name,
        rtype: RecordType,
        kind: NegativeKind,
        neg_ttl: u32,
    ) -> u32 {
        self.backends[backend].insert_negative(now, name, rtype, kind, neg_ttl)
    }

    /// Flushes every backend.
    pub fn flush_all(&mut self) {
        for b in &mut self.backends {
            b.flush();
        }
    }

    /// Aggregated statistics across backends.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for b in &self.backends {
            let s = b.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.expired += s.expired;
            total.evictions += s.evictions;
            total.insertions += s.insertions;
            total.stale_served += s.stale_served;
            total.flushes += s.flushes;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_netsim::SimDuration;
    use dike_wire::RData;
    use std::net::Ipv6Addr;

    fn aaaa(name: &str, ttl: u32, serial: u16) -> Record {
        // Mirror the paper's encoding: the serial lives in the address.
        let addr = Ipv6Addr::new(0xfd0f, 0x3897, 0xfaf7, 0xa375, serial, 0, 0, 1);
        Record::new(Name::parse(name).unwrap(), ttl, RData::Aaaa(addr))
    }

    fn at(secs: u64) -> SimTime {
        SimDuration::from_secs(secs).after_zero()
    }

    #[test]
    fn single_backend_behaves_like_plain_cache() {
        let mut f = FragmentedCache::new(1, CacheConfig::honoring());
        let mut rng = Rng::seed_from_u64(1);
        let b = f.pick_backend(&mut rng);
        assert_eq!(b, 0);
        f.insert_on(b, at(0), vec![aaaa("p1.cachetest.nl", 3600, 1)]);
        assert!(matches!(
            f.lookup_on(
                0,
                at(10),
                &Name::parse("p1.cachetest.nl").unwrap(),
                RecordType::AAAA
            ),
            CacheAnswer::Fresh(_)
        ));
    }

    #[test]
    fn fragmentation_produces_misses_on_other_backends() {
        let mut f = FragmentedCache::new(4, CacheConfig::honoring());
        let name = Name::parse("p1.cachetest.nl").unwrap();
        f.insert_on(0, at(0), vec![aaaa("p1.cachetest.nl", 3600, 1)]);
        // Backend 0 hits; the other three miss.
        assert!(matches!(
            f.lookup_on(0, at(10), &name, RecordType::AAAA),
            CacheAnswer::Fresh(_)
        ));
        for b in 1..4 {
            assert_eq!(
                f.lookup_on(b, at(10), &name, RecordType::AAAA),
                CacheAnswer::Miss
            );
        }
    }

    #[test]
    fn serial_regression_is_observable_across_backends() {
        // Fill backend 0 with serial 7 at a later time, backend 1 with
        // serial 3 earlier; alternating backends shows 7 then 3 — the
        // "serial decreases" fingerprint from §3.5.
        let mut f = FragmentedCache::new(2, CacheConfig::honoring());
        let name = Name::parse("p1.cachetest.nl").unwrap();
        f.insert_on(1, at(0), vec![aaaa("p1.cachetest.nl", 3600, 3)]);
        f.insert_on(0, at(600), vec![aaaa("p1.cachetest.nl", 3600, 7)]);
        let s0 = match f.lookup_on(0, at(700), &name, RecordType::AAAA) {
            CacheAnswer::Fresh(rs) => match rs.rdata().next().unwrap() {
                RData::Aaaa(a) => a.segments()[4],
                _ => unreachable!(),
            },
            _ => panic!("expected hit"),
        };
        let s1 = match f.lookup_on(1, at(710), &name, RecordType::AAAA) {
            CacheAnswer::Fresh(rs) => match rs.rdata().next().unwrap() {
                RData::Aaaa(a) => a.segments()[4],
                _ => unreachable!(),
            },
            _ => panic!("expected hit"),
        };
        assert!(s0 > s1, "consecutive answers can regress: {s0} then {s1}");
    }

    #[test]
    fn pick_backend_covers_all_backends() {
        let mut f = FragmentedCache::new(8, CacheConfig::honoring());
        let mut rng = Rng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(f.pick_backend(&mut rng));
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn flush_all_clears_every_backend() {
        let mut f = FragmentedCache::new(3, CacheConfig::honoring());
        for b in 0..3 {
            f.insert_on(b, at(0), vec![aaaa("p1.cachetest.nl", 3600, b as u16)]);
        }
        f.flush_all();
        for b in 0..3 {
            assert_eq!(
                f.lookup_on(
                    b,
                    at(1),
                    &Name::parse("p1.cachetest.nl").unwrap(),
                    RecordType::AAAA
                ),
                CacheAnswer::Miss
            );
        }
    }

    #[test]
    fn stats_aggregate_across_backends() {
        let mut f = FragmentedCache::new(2, CacheConfig::honoring());
        f.insert_on(0, at(0), vec![aaaa("p1.cachetest.nl", 3600, 1)]);
        f.insert_on(1, at(0), vec![aaaa("p2.cachetest.nl", 3600, 1)]);
        let name = Name::parse("p1.cachetest.nl").unwrap();
        f.lookup_on(0, at(1), &name, RecordType::AAAA); // hit
        f.lookup_on(1, at(1), &name, RecordType::AAAA); // miss
        let s = f.stats();
        assert_eq!(s.insertions, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }
}

//! Fragmented cache farms.
//!
//! Large public resolvers are "many separate recursives behind a load
//! balancer or on IP anycast ... caches may be fragmented with each
//! machine operating an independent cache" (paper §3.1). The paper's
//! fingerprint for this is *serial numbers going backwards* in consecutive
//! answers (§3.5: a VP seeing serials 1, 3, 3, 7, 3, 3).
//!
//! [`FragmentedCache`] models the farm: `n` independent [`ResolverCache`]s
//! with a selector choosing which backend handles each query. Indexing
//! the farm with a backend number yields that backend's own cache.

use std::ops::{Index, IndexMut};

use dike_telemetry::rng::Rng;

use crate::cache::{CacheStats, ResolverCache};
use crate::config::CacheConfig;

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

impl Index<usize> for FragmentedCache {
    type Output = ResolverCache;

    fn index(&self, backend: usize) -> &ResolverCache {
        &self.backends[backend]
    }
}

impl IndexMut<usize> for FragmentedCache {
    fn index_mut(&mut self, backend: usize) -> &mut ResolverCache {
        &mut self.backends[backend]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheAnswer;
    use dike_netsim::{SimDuration, SimTime};
    use dike_wire::{Name, RData, Record, RecordType};
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
        f[b].insert(at(0), vec![aaaa("p1.cachetest.nl", 3600, 1)]);
        assert!(matches!(
            f[0].lookup(
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
        f[0].insert(at(0), vec![aaaa("p1.cachetest.nl", 3600, 1)]);
        // Backend 0 hits; the other three miss.
        assert!(matches!(
            f[0].lookup(at(10), &name, RecordType::AAAA),
            CacheAnswer::Fresh(_)
        ));
        for b in 1..4 {
            assert_eq!(
                f[b].lookup(at(10), &name, RecordType::AAAA),
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
        f[1].insert(at(0), vec![aaaa("p1.cachetest.nl", 3600, 3)]);
        f[0].insert(at(600), vec![aaaa("p1.cachetest.nl", 3600, 7)]);
        let s0 = match f[0].lookup(at(700), &name, RecordType::AAAA) {
            CacheAnswer::Fresh(rs) => match rs.rdata().next().unwrap() {
                RData::Aaaa(a) => a.segments()[4],
                _ => unreachable!(),
            },
            _ => panic!("expected hit"),
        };
        let s1 = match f[1].lookup(at(710), &name, RecordType::AAAA) {
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
            f[b].insert(at(0), vec![aaaa("p1.cachetest.nl", 3600, b as u16)]);
        }
        f.flush_all();
        for b in 0..3 {
            assert_eq!(
                f[b].lookup(
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
        f[0].insert(at(0), vec![aaaa("p1.cachetest.nl", 3600, 1)]);
        f[1].insert(at(0), vec![aaaa("p2.cachetest.nl", 3600, 1)]);
        let name = Name::parse("p1.cachetest.nl").unwrap();
        f[0].lookup(at(1), &name, RecordType::AAAA); // hit
        f[1].lookup(at(1), &name, RecordType::AAAA); // miss
        let s = f.stats();
        assert_eq!(s.insertions, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }
}

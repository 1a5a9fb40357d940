//! Oracle test for [`ResolverCache`]: random operation sequences run
//! against the cache and against a reference model side by side, and
//! after every operation the two must give the same answers, statistics,
//! size and dump.
//!
//! The model is the cache's earlier design kept as plain code: one
//! `HashMap` from key to `(entry, use-stamp)`, a `BTreeMap` from stamp to
//! key for LRU order, and a fresh `Vec<Record>` built for every hit. It is
//! slow and obviously right; the cache under test is the slot slab with
//! its intrusive LRU list and shared RRsets.
//!
//! Two families of cases: caches of one to eight slots over four owners,
//! where keys collide, replace and evict on almost every step, and caches
//! of up to 2,000 slots over 600 owners, where the index grows through
//! many doublings, probes wrap around its end and evictions remove keys
//! from long probe runs.
//!
//! `DIKE_CASES` scales the case count (CI runs 2000 in release).

use std::collections::{BTreeMap, HashMap};
use std::net::{Ipv4Addr, Ipv6Addr};
use std::ops::Range;

use dike_cache::{
    CacheAnswer, CacheConfig, CacheKey, CacheStats, NegativeKind, ResolverCache, TrustLevel,
    STALE_WINDOW,
};
use dike_netsim::{SimDuration, SimTime};
use dike_telemetry::check::{self, Gen};
use dike_wire::{Name, RData, Record, RecordType};

/// A lookup's answer with its records copied out, comparable across the
/// cache and the model.
#[derive(Debug, PartialEq)]
enum Answer {
    Fresh(Vec<Record>),
    Negative(NegativeKind),
    Stale(Vec<Record>),
    Miss,
}

impl From<CacheAnswer> for Answer {
    fn from(answer: CacheAnswer) -> Self {
        match answer {
            CacheAnswer::Fresh(rrset) => Answer::Fresh(rrset.into_records()),
            CacheAnswer::Negative(kind) => Answer::Negative(kind),
            CacheAnswer::Stale(rrset) => Answer::Stale(rrset.into_records()),
            CacheAnswer::Miss => Answer::Miss,
        }
    }
}

enum Data {
    Positive(Vec<Record>),
    Negative(NegativeKind),
}

struct Entry {
    data: Data,
    stored_at: SimTime,
    effective_ttl: u32,
    trust: TrustLevel,
    hits: u32,
}

impl Entry {
    fn remaining_ttl(&self, now: SimTime) -> Option<u32> {
        let age = now.since(self.stored_at).as_secs();
        let ttl = self.effective_ttl as u64;
        (age < ttl).then(|| (ttl - age) as u32)
    }

    fn usable_as_stale(&self, now: SimTime) -> bool {
        now < self.stored_at + SimDuration::from_secs(self.effective_ttl as u64) + STALE_WINDOW
    }
}

/// The reference cache.
struct Model {
    config: CacheConfig,
    map: HashMap<CacheKey, (Entry, u64)>,
    lru: BTreeMap<u64, CacheKey>,
    next_stamp: u64,
    stats: CacheStats,
}

impl Model {
    fn new(config: CacheConfig) -> Self {
        Model {
            config,
            map: HashMap::new(),
            lru: BTreeMap::new(),
            next_stamp: 0,
            stats: CacheStats::default(),
        }
    }

    fn insert_ranked(&mut self, now: SimTime, records: Vec<Record>, trust: TrustLevel) -> u32 {
        let key = CacheKey::new(records[0].name.clone(), records[0].rtype());
        if let Some((existing, _)) = self.map.get(&key) {
            if existing.trust > trust {
                if let Some(remaining) = existing.remaining_ttl(now) {
                    return remaining;
                }
            }
        }
        let raw_ttl = records.iter().map(|r| r.ttl).min().unwrap();
        let ttl = self.config.clamp_ttl(raw_ttl);
        self.store(key, now, ttl, trust, Data::Positive(records));
        ttl
    }

    fn insert_negative(
        &mut self,
        now: SimTime,
        name: Name,
        rtype: RecordType,
        kind: NegativeKind,
        neg_ttl: u32,
    ) -> u32 {
        let ttl = self.config.clamp_ttl(neg_ttl);
        let key = CacheKey::new(name, rtype);
        self.store(
            key,
            now,
            ttl,
            TrustLevel::Authoritative,
            Data::Negative(kind),
        );
        ttl
    }

    fn store(&mut self, key: CacheKey, now: SimTime, ttl: u32, trust: TrustLevel, data: Data) {
        self.stats.insertions += 1;
        if let Some((_, stamp)) = self.map.remove(&key) {
            self.lru.remove(&stamp);
        }
        while self.map.len() >= self.config.capacity {
            let Some((_, victim)) = self.lru.pop_first() else {
                break;
            };
            self.map.remove(&victim);
            self.stats.evictions += 1;
        }
        self.next_stamp += 1;
        let stamp = self.next_stamp;
        self.lru.insert(stamp, key.clone());
        let entry = Entry {
            data,
            stored_at: now,
            effective_ttl: ttl,
            trust,
            hits: 0,
        };
        self.map.insert(key, (entry, stamp));
    }

    fn lookup_min_trust(
        &mut self,
        now: SimTime,
        name: &Name,
        rtype: RecordType,
        min_trust: TrustLevel,
    ) -> Answer {
        let key = CacheKey::new(name.clone(), rtype);
        let Some((entry, stamp)) = self.map.get_mut(&key) else {
            self.stats.misses += 1;
            return Answer::Miss;
        };
        if entry.trust < min_trust {
            self.stats.misses += 1;
            return Answer::Miss;
        }
        let Some(remaining) = entry.remaining_ttl(now) else {
            self.stats.expired += 1;
            return Answer::Miss;
        };
        self.stats.hits += 1;
        let answer = match &entry.data {
            Data::Positive(records) => {
                let n = records.len();
                let start = entry.hits as usize % n;
                Answer::Fresh(
                    (0..n)
                        .map(|i| records[(start + i) % n].with_ttl(remaining))
                        .collect(),
                )
            }
            Data::Negative(kind) => Answer::Negative(*kind),
        };
        entry.hits = entry.hits.wrapping_add(1);
        self.next_stamp += 1;
        let old = std::mem::replace(stamp, self.next_stamp);
        self.lru.remove(&old);
        self.lru.insert(self.next_stamp, key);
        answer
    }

    fn lookup_stale(
        &mut self,
        now: SimTime,
        name: &Name,
        rtype: RecordType,
        min_trust: TrustLevel,
    ) -> Answer {
        if !self.config.serve_stale {
            return Answer::Miss;
        }
        let Some((entry, _)) = self.map.get(&CacheKey::new(name.clone(), rtype)) else {
            return Answer::Miss;
        };
        if entry.remaining_ttl(now).is_some() {
            return self.lookup_min_trust(now, name, rtype, min_trust);
        }
        if entry.trust < min_trust || !entry.usable_as_stale(now) {
            return Answer::Miss;
        }
        match &entry.data {
            Data::Positive(records) => {
                let stale = records.iter().map(|r| r.with_ttl(0)).collect();
                self.stats.stale_served += 1;
                Answer::Stale(stale)
            }
            Data::Negative(_) => Answer::Miss,
        }
    }

    fn flush(&mut self) {
        self.map.clear();
        self.lru.clear();
        self.stats.flushes += 1;
    }

    fn dump(&self, now: SimTime) -> Vec<(CacheKey, u32, TrustLevel)> {
        let mut out: Vec<_> = self
            .map
            .iter()
            .filter_map(|(k, (e, _))| e.remaining_ttl(now).map(|ttl| (k.clone(), ttl, e.trust)))
            .collect();
        out.sort_by(|a, b| (&a.0.name, a.0.rtype).cmp(&(&b.0.name, b.0.rtype)));
        out
    }
}

/// Few owners, so keys collide, entries are replaced and capacity
/// pressure evicts.
const OWNERS: [&str; 4] = ["a.test", "b.test", "ns1.a.test", "www.b.test"];
/// Owners of the large family: with three types each, 1,800 keys.
const MANY_OWNERS: usize = 600;
const RTYPES: [RecordType; 3] = [RecordType::A, RecordType::AAAA, RecordType::NS];
/// Short TTLs expire within a few clock steps; the 8-day one outlives a
/// 1-day cap.
const TTLS: [u32; 7] = [1, 5, 30, 60, 300, 3_600, 8 * 86_400];

fn arb_key(g: &mut Gen, owners: &[Name]) -> (Name, RecordType) {
    (g.pick(owners).clone(), *g.pick(&RTYPES))
}

/// One to four records of one owner and type; few distinct rdata
/// values, so a wrong rotation offset shows.
fn arb_rrset(g: &mut Gen, owners: &[Name]) -> Vec<Record> {
    let (owner, rtype) = arb_key(g, owners);
    g.vec(1..5, |g| {
        let v = g.range(1..5u8);
        let rdata = match rtype {
            RecordType::A => RData::A(Ipv4Addr::new(192, 0, 2, v)),
            RecordType::AAAA => RData::Aaaa(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, v.into())),
            _ => RData::Ns(Name::parse(&format!("ns{v}.test")).unwrap()),
        };
        Record::new(owner.clone(), *g.pick(&TTLS), rdata)
    })
}

fn arb_trust(g: &mut Gen) -> TrustLevel {
    if g.bool() {
        TrustLevel::Glue
    } else {
        TrustLevel::Authoritative
    }
}

/// Mostly small steps; some past short TTLs, some past a day, some past
/// the stale window.
fn arb_step(g: &mut Gen) -> u64 {
    match g.range(0..20u32) {
        0..=11 => g.range(0..5),
        12..=16 => g.range(0..400),
        17..=18 => g.range(3_000..100_000),
        _ => STALE_WINDOW.as_secs() + g.range(0..1_000u64),
    }
}

/// How a family of cases draws.
struct Family {
    owners: Vec<Name>,
    capacity: Range<usize>,
    steps: Range<usize>,
    /// A step flushes with probability `1 / flush_one_in`.
    flush_one_in: u32,
    /// Steps between `dump()` comparisons; answers, statistics and
    /// `len()` are compared after every step.
    dump_every: usize,
}

/// Runs one random operation sequence on the cache and the model.
fn run_case(g: &mut Gen, family: &Family) {
    let config = CacheConfig {
        capacity: g.range(family.capacity.clone()),
        max_ttl: *g.pick(&[60, 86_400, 7 * 86_400]),
        serve_stale: g.bool(),
    };
    let owners = &family.owners[..];
    let mut cache = ResolverCache::new(config);
    let mut model = Model::new(config);
    let mut secs = 0u64;
    let steps = g.range(family.steps.clone());
    for step in 0..steps {
        secs += arb_step(g);
        let now = SimDuration::from_secs(secs).after_zero();
        let what = if g.range(0..family.flush_one_in) == 0 {
            cache.flush();
            model.flush();
            "flush"
        } else {
            match g.range(0..11u32) {
                0 | 1 => {
                    let rrset = arb_rrset(g, owners);
                    let got = cache.insert(now, rrset.clone());
                    let want = model.insert_ranked(now, rrset, TrustLevel::Authoritative);
                    assert_eq!(got, want, "step {step}: insert");
                    "insert"
                }
                2 | 3 => {
                    let (rrset, trust) = (arb_rrset(g, owners), arb_trust(g));
                    let got = cache.insert_ranked(now, rrset.clone(), trust);
                    assert_eq!(got, model.insert_ranked(now, rrset, trust), "step {step}");
                    "insert_ranked"
                }
                4 => {
                    let (name, rtype) = arb_key(g, owners);
                    let kind = *g.pick(&[NegativeKind::NxDomain, NegativeKind::NoData]);
                    let ttl = *g.pick(&TTLS);
                    let got = cache.insert_negative(now, name.clone(), rtype, kind, ttl);
                    let want = model.insert_negative(now, name, rtype, kind, ttl);
                    assert_eq!(got, want, "step {step}: insert_negative");
                    "insert_negative"
                }
                5..=7 => {
                    let (name, rtype) = arb_key(g, owners);
                    let got = Answer::from(cache.lookup(now, &name, rtype));
                    let want = model.lookup_min_trust(now, &name, rtype, TrustLevel::Glue);
                    assert_eq!(got, want, "step {step}: lookup {name} {rtype}");
                    "lookup"
                }
                8 | 9 => {
                    let ((name, rtype), trust) = (arb_key(g, owners), arb_trust(g));
                    let got = Answer::from(cache.lookup_min_trust(now, &name, rtype, trust));
                    let want = model.lookup_min_trust(now, &name, rtype, trust);
                    assert_eq!(got, want, "step {step}: lookup_min_trust {name} {rtype}");
                    "lookup_min_trust"
                }
                _ => {
                    let ((name, rtype), trust) = (arb_key(g, owners), arb_trust(g));
                    let got = Answer::from(cache.lookup_stale(now, &name, rtype, trust));
                    let want = model.lookup_stale(now, &name, rtype, trust);
                    assert_eq!(got, want, "step {step}: lookup_stale {name} {rtype}");
                    "lookup_stale"
                }
            }
        };
        assert_eq!(cache.stats(), model.stats, "step {step}: after {what}");
        assert_eq!(cache.len(), model.map.len(), "step {step}: after {what}");
        if step % family.dump_every == 0 || step + 1 == steps {
            assert_eq!(
                cache.dump(now),
                model.dump(now),
                "step {step}: after {what}"
            );
        }
    }
}

#[test]
fn the_cache_matches_the_reference_model() {
    let family = Family {
        owners: OWNERS.iter().map(|o| Name::parse(o).unwrap()).collect(),
        capacity: 1..9,
        steps: 0..200,
        flush_one_in: 12,
        dump_every: 1,
    };
    check::cases(
        "the_cache_matches_the_reference_model",
        check::count(256),
        |g| run_case(g, &family),
    );
}

/// Up to 1,800 keys in caches of up to 2,000 slots: the index grows from
/// 8 buckets to 2,048, and a cache smaller than the keys drawn evicts on
/// most inserts, each eviction a removal from the index.
#[test]
fn the_cache_matches_the_reference_model_at_scale() {
    let family = Family {
        owners: (0..MANY_OWNERS)
            .map(|i| Name::parse(&format!("h{i}.zone{}.test", i % 7)).unwrap())
            .collect(),
        capacity: 1..2_001,
        steps: 2_000..8_000,
        flush_one_in: 1_500,
        dump_every: 250,
    };
    check::cases(
        "the_cache_matches_the_reference_model_at_scale",
        check::count(32),
        |g| run_case(g, &family),
    );
}

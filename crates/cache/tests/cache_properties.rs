//! Property tests for the cache's core invariants.

use dike_cache::{CacheAnswer, CacheConfig, ResolverCache, TrustLevel, STALE_WINDOW};
use dike_netsim::{SimDuration, SimTime};
use dike_telemetry::check;
use dike_wire::{Name, RData, Record, RecordType};
use std::net::Ipv4Addr;

fn rec(name: &str, ttl: u32) -> Record {
    Record::new(
        Name::parse(name).unwrap(),
        ttl,
        RData::A(Ipv4Addr::new(192, 0, 2, 1)),
    )
}

fn at(secs: u64) -> SimTime {
    SimDuration::from_secs(secs).after_zero()
}

const CASES: u64 = 256;

/// A fresh hit's remaining TTL equals stored TTL minus elapsed time,
/// and is never larger than the stored TTL.
#[test]
fn remaining_ttl_is_exact() {
    check::cases("remaining_ttl_is_exact", CASES, |g| {
        let (ttl, elapsed) = (g.range(1..1_000_000u32), g.range(0..2_000_000u64));
        let mut c = ResolverCache::new(CacheConfig::honoring());
        let stored = c.insert(at(0), vec![rec("x.nl", ttl)]);
        let name = Name::parse("x.nl").unwrap();
        match c.lookup(at(elapsed), &name, RecordType::A) {
            CacheAnswer::Fresh(rs) => {
                assert!(elapsed < stored as u64, "hit implies not expired");
                assert_eq!(rs.into_records()[0].ttl as u64, stored as u64 - elapsed);
            }
            CacheAnswer::Miss => {
                assert!(elapsed >= stored as u64, "miss implies expired");
            }
            other => panic!("unexpected {other:?}"),
        }
    });
}

/// Clamping is idempotent and bounded.
#[test]
fn clamp_is_idempotent() {
    check::cases("clamp_is_idempotent", CASES, |g| {
        // Half the TTLs land below the cap, where it must not bind.
        let ttl_below = if g.bool() { 1_000 } else { 10_000_000u32 };
        let ttl = g.range(0..ttl_below);
        let max = g.range(500..1_000_000u32);
        let cfg = CacheConfig {
            max_ttl: max,
            ..CacheConfig::default()
        };
        let once = cfg.clamp_ttl(ttl);
        assert_eq!(cfg.clamp_ttl(once), once);
        assert_eq!(once, ttl.min(max));
    });
}

/// The cache never exceeds its capacity, whatever the insertion order.
#[test]
fn capacity_is_respected() {
    check::cases("capacity_is_respected", CASES, |g| {
        let names = g.vec(1..200, |g| g.string("abcdefghijklmnopqrstuvwxyz", 1..9));
        let cap = g.range(1..20usize);
        let mut c = ResolverCache::new(CacheConfig {
            capacity: cap,
            ..CacheConfig::honoring()
        });
        for (i, n) in names.iter().enumerate() {
            c.insert(at(i as u64), vec![rec(&format!("{n}.nl"), 3600)]);
            assert!(c.len() <= cap);
        }
    });
}

/// Serve-stale never serves a *fresh* answer as stale and never serves
/// anything beyond the stale window.
#[test]
fn stale_respects_window() {
    check::cases("stale_respects_window", CASES, |g| {
        let ttl = g.range(1..1000u32);
        let window = STALE_WINDOW.as_secs();
        // Half the probes land near the end of the window.
        let probe = if g.bool() {
            g.range(0..10_000u64)
        } else {
            window + g.range(0..2_000u64)
        };
        let mut c = ResolverCache::new(CacheConfig::honoring().with_serve_stale());
        c.insert(at(0), vec![rec("x.nl", ttl)]);
        let name = Name::parse("x.nl").unwrap();
        match c.lookup_stale(at(probe), &name, RecordType::A, TrustLevel::Authoritative) {
            CacheAnswer::Fresh(_) => assert!(probe < ttl as u64),
            CacheAnswer::Stale(rs) => {
                assert!(probe >= ttl as u64);
                assert!(probe < ttl as u64 + window);
                assert_eq!(rs.into_records()[0].ttl, 0, "stale answers carry TTL 0");
            }
            CacheAnswer::Miss => assert!(probe >= ttl as u64 + window),
            other => panic!("unexpected {other:?}"),
        }
    });
}

/// A hit advances the entry's rotation and LRU position but never its
/// data: on a one-record RRset, two consecutive lookups at the same
/// instant return identical answers.
#[test]
fn lookup_is_repeatable() {
    check::cases("lookup_is_repeatable", CASES, |g| {
        let (ttl, t) = (g.range(1..10_000u32), g.range(0..20_000u64));
        let mut c = ResolverCache::new(CacheConfig::honoring());
        c.insert(at(0), vec![rec("x.nl", ttl)]);
        let name = Name::parse("x.nl").unwrap();
        let a = c.lookup(at(t), &name, RecordType::A);
        let b = c.lookup(at(t), &name, RecordType::A);
        assert_eq!(a, b);
    });
}

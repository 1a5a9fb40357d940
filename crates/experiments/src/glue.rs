//! Appendix A: which TTL wins, the parent's referral (glue) or the
//! child's authoritative answer? (Tables 5 and 6.)
//!
//! The parent (`nl`) hands out the `cachetest.nl` NS RRset with TTL
//! 3600 s; the child's own zone publishes the same NS names with TTL
//! 60 s. RFC 2181 §5.4.1 says the authoritative value must win, and the
//! paper measures that ~95% of recursives agree.

use std::sync::Arc;

use dike_auth::{AuthServer, Zone};
use dike_cache::TrustLevel;
use dike_netsim::{Addr, Context, Node, SimDuration, Simulator, TimerToken};
use dike_resolver::{profiles, RecursiveResolver};
use dike_telemetry::sync::Mutex;
use dike_wire::{Message, Name, RData, Rcode, Record, RecordType};

use crate::topology::{root_and_nl_zones, soa_for};

/// Table 5's TTL buckets for client-observed NS/A record TTLs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TtlBuckets {
    /// Answers observed.
    pub total: usize,
    /// TTL > 3600: neither value (rewriting upward).
    pub above_parent: usize,
    /// TTL exactly 3600: the parent's referral value.
    pub parent: usize,
    /// 60 < TTL < 3600: a decremented parent value (or other rewriting).
    pub between: usize,
    /// TTL exactly 60: the child's authoritative value.
    pub authoritative: usize,
    /// TTL < 60: a decremented authoritative value.
    pub below_auth: usize,
}

impl TtlBuckets {
    fn add(&mut self, ttl: u32) {
        self.total += 1;
        if ttl > 3600 {
            self.above_parent += 1;
        } else if ttl == 3600 {
            self.parent += 1;
        } else if ttl > 60 {
            self.between += 1;
        } else if ttl == 60 {
            self.authoritative += 1;
        } else {
            self.below_auth += 1;
        }
    }

    /// Fraction of answers carrying (possibly decremented) authoritative
    /// TTLs — the paper's ~95%.
    pub fn authoritative_fraction(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.authoritative + self.below_auth) as f64 / self.total as f64
    }
}

/// Builds the glue-experiment hierarchy: parent refers with TTL 3600,
/// child answers with TTL 60. Returns `(root, ns)` addresses.
fn build_glue_world(sim: &mut Simulator) -> (Addr, Addr) {
    let base = sim.next_addr().0;
    let root_addr = Addr(base);
    let nl_addr = Addr(base + 1);
    let ns_addr = Addr(base + 2);
    let v4 = |a: Addr| std::net::Ipv4Addr::from(a.0);

    // Parent: referral NS + glue with TTL 3600.
    let (root_zone, mut nl_zone) = root_and_nl_zones(nl_addr);
    let ct = Name::parse("cachetest.nl").expect("static");
    let ns_name = Name::parse("ns1.cachetest.nl").expect("static");
    nl_zone.add(Record::new(ct.clone(), 3_600, RData::Ns(ns_name.clone())));
    nl_zone.add(Record::new(ns_name.clone(), 3_600, RData::A(v4(ns_addr))));

    // Child: the same records with TTL 60 (authoritative values).
    let mut child = Zone::new(ct.clone(), 60, soa_for(&ct));
    child.add(Record::new(ct.clone(), 60, RData::Ns(ns_name.clone())));
    child.add(Record::new(ns_name, 60, RData::A(v4(ns_addr))));

    sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(root_zone))));
    sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(nl_zone))));
    sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(child))));
    (root_addr, ns_addr)
}

/// A client that first *primes* its resolver with an unrelated in-zone
/// query (so the referral's NS/glue records land in the cache, exactly
/// as they would for any resolver that has touched the zone before),
/// then asks the measured question and records the answer's TTL.
struct TtlProbe {
    resolver: Addr,
    qtype: RecordType,
    qname: Name,
    observed: Arc<Mutex<Vec<u32>>>,
}

/// Timer/message ids: 1 = priming query, 2 = measured query.
const PRIME: u64 = 1;
const MEASURE: u64 = 2;

impl Node for TtlProbe {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs(1), TimerToken(PRIME));
        ctx.set_timer(SimDuration::from_secs(10), TimerToken(MEASURE));
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, msg: &Message, _l: usize) {
        if msg.is_response && msg.id == MEASURE as u16 && msg.rcode == Rcode::NoError {
            if let Some(r) = msg.answers.first() {
                self.observed.lock().push(r.ttl);
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        let (id, qname, qtype) = if token.0 == PRIME {
            // An apex A query walks the referral chain (caching the
            // parent's NS + glue) without fetching the measured RRset
            // authoritatively — the child answers it NODATA.
            (
                PRIME as u16,
                Name::parse("cachetest.nl").expect("static"),
                RecordType::A,
            )
        } else {
            (MEASURE as u16, self.qname.clone(), self.qtype)
        };
        ctx.send(self.resolver, &Message::query(id, qname, qtype));
    }
}

/// Runs Table 5: `n_resolvers` recursives (a `sloppy_fraction` of which
/// answer from referral data), each queried once for the NS (or A)
/// record of the test zone.
pub fn run_table5(
    qtype: RecordType,
    n_resolvers: usize,
    sloppy_fraction: f64,
    seed: u64,
) -> TtlBuckets {
    let mut sim = Simulator::new(seed);
    let (root, _ns) = build_glue_world(&mut sim);
    let observed = Arc::new(Mutex::new(Vec::new()));
    let qname = match qtype {
        RecordType::A => Name::parse("ns1.cachetest.nl").expect("static"),
        _ => Name::parse("cachetest.nl").expect("static"),
    };
    for i in 0..n_resolvers {
        let mut cfg = if i % 2 == 0 {
            profiles::bind_like(vec![root])
        } else {
            profiles::unbound_like(vec![root])
        };
        // The sloppy minority serves referral data to clients.
        if (i as f64 + 0.5) / n_resolvers as f64 <= sloppy_fraction {
            cfg.answer_from_glue = true;
        }
        let (_, r) = sim.add_node(Box::new(RecursiveResolver::new(cfg)));
        sim.add_node(Box::new(TtlProbe {
            resolver: r,
            qtype,
            qname: qname.clone(),
            observed: observed.clone(),
        }));
    }
    sim.run_until(SimDuration::from_mins(3).after_zero());
    drop(sim);
    let mut buckets = TtlBuckets::default();
    for ttl in observed.lock().iter() {
        buckets.add(*ttl);
    }
    buckets
}

/// Table 6 / Appendix A.3: after one NS query, what does the resolver's
/// cache hold — the parent's 3600 s or the child's 60 s value?
/// Returns the cached `(remaining_ttl, trust)` for the NS RRset.
pub fn run_cache_dump(seed: u64) -> Option<(u32, TrustLevel)> {
    let mut sim = Simulator::new(seed);
    let (root, _) = build_glue_world(&mut sim);
    let (resolver_id, resolver) =
        sim.add_node(Box::new(RecursiveResolver::new(profiles::bind_like(vec![
            root,
        ]))));
    let observed = Arc::new(Mutex::new(Vec::new()));
    sim.add_node(Box::new(TtlProbe {
        resolver,
        qtype: RecordType::NS,
        qname: Name::parse("cachetest.nl").expect("static"),
        observed,
    }));
    // Dump while the child's 60 s entry is still alive (the measured
    // query fires at t=10 s).
    sim.run_until(SimDuration::from_secs(30).after_zero());
    let now = sim.now();
    let node = sim.node(resolver_id)?;
    let resolver_ref = node.as_any()?.downcast_ref::<RecursiveResolver>()?;
    resolver_ref
        .dump_cache(now)
        .into_iter()
        .find(|(k, _, _)| {
            k.rtype == RecordType::NS && k.name == Name::parse("cachetest.nl").expect("static")
        })
        .map(|(_, ttl, trust)| (ttl, trust))
}

/// Appendix A.3's `amazon.com` fixture, scaled to the paper's exact TTLs:
/// `.com` hands out the NS RRset with TTL 172,800 s (2 days) as a
/// referral; `amazon.com`'s own servers publish it with TTL 3,600 s.
/// After one `NS amazon.com` query, the resolver's cache must hold the
/// child's 3,600 s value — the paper's Listings 3 and 4 show exactly
/// this for BIND and Unbound.
pub fn run_amazon_fixture(seed: u64) -> Option<(u32, TrustLevel)> {
    let mut sim = Simulator::new(seed);
    let root_addr = sim.next_addr();
    let com_addr = Addr(root_addr.0 + 1);
    let amazon_addr = Addr(root_addr.0 + 2);
    let v4 = |a: Addr| std::net::Ipv4Addr::from(a.0);

    let origin = Name::root();
    let mut root_zone = dike_auth::Zone::new(origin.clone(), 86_400, soa_for(&origin));
    let com = Name::parse("com").expect("static");
    root_zone.add(Record::new(
        com.clone(),
        172_800,
        RData::Ns(Name::parse("a.gtld-servers.net").expect("static")),
    ));
    root_zone.add(Record::new(
        Name::parse("a.gtld-servers.net").expect("static"),
        172_800,
        RData::A(v4(com_addr)),
    ));

    let mut com_zone = dike_auth::Zone::new(com.clone(), 172_800, soa_for(&com));
    com_zone.add(Record::new(
        com.clone(),
        172_800,
        RData::Ns(Name::parse("a.gtld-servers.net").expect("static")),
    ));
    // The gtld server's own glue lives under .net in reality; hosting it
    // in-zone here keeps the fixture self-contained without changing the
    // measured record.
    let amazon = Name::parse("amazon.com").expect("static");
    let dynect = Name::parse("ns1.amazon.com").expect("static");
    com_zone.add(Record::new(
        amazon.clone(),
        172_800,
        RData::Ns(dynect.clone()),
    ));
    com_zone.add(Record::new(
        dynect.clone(),
        172_800,
        RData::A(v4(amazon_addr)),
    ));

    let mut amazon_zone = dike_auth::Zone::new(amazon.clone(), 3_600, soa_for(&amazon));
    amazon_zone.add(Record::new(
        amazon.clone(),
        3_600,
        RData::Ns(dynect.clone()),
    ));
    amazon_zone.add(Record::new(dynect, 86_400, RData::A(v4(amazon_addr))));

    sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(root_zone))));
    sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(com_zone))));
    sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(amazon_zone))));

    let (resolver_id, resolver) =
        sim.add_node(Box::new(RecursiveResolver::new(profiles::bind_like(vec![
            root_addr,
        ]))));
    let observed = Arc::new(Mutex::new(Vec::new()));
    sim.add_node(Box::new(TtlProbe {
        resolver,
        qtype: RecordType::NS,
        qname: amazon.clone(),
        observed,
    }));
    sim.run_until(SimDuration::from_secs(30).after_zero());
    let now = sim.now();
    let node = sim.node(resolver_id)?;
    let r = node.as_any()?.downcast_ref::<RecursiveResolver>()?;
    r.dump_cache(now)
        .into_iter()
        .find(|(k, _, _)| k.rtype == RecordType::NS && k.name == amazon)
        .map(|(_, ttl, trust)| (ttl, trust))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn most_recursives_serve_the_authoritative_ttl() {
        let b = run_table5(RecordType::NS, 40, 0.05, 31);
        assert!(b.total >= 38, "answers {b:?}");
        let frac = b.authoritative_fraction();
        assert!(
            frac > 0.9,
            "authoritative TTL should win ~95% (paper Table 5): {frac} {b:?}"
        );
        // The sloppy minority shows up as parent-valued answers.
        assert!(b.parent + b.between >= 1, "{b:?}");
    }

    #[test]
    fn a_records_behave_the_same() {
        let b = run_table5(RecordType::A, 30, 0.05, 32);
        assert!(b.authoritative_fraction() > 0.85, "{b:?}");
    }

    #[test]
    fn cache_holds_the_childs_value() {
        let (ttl, trust) = run_cache_dump(33).expect("NS rrset cached");
        assert!(ttl <= 60, "cached TTL {ttl} must be the child's 60 s");
        assert_eq!(trust, TrustLevel::Authoritative);
    }

    /// Appendix A.3 verbatim: amazon.com's NS cached at ~3600 s (the
    /// child's value), not the parent's 172,800 s.
    #[test]
    fn amazon_fixture_matches_listings_3_and_4() {
        let (ttl, trust) = run_amazon_fixture(34).expect("NS rrset cached");
        assert!(
            (3_500..=3_600).contains(&ttl),
            "the paper's cache dumps show ~3595s, got {ttl}"
        );
        assert_eq!(trust, TrustLevel::Authoritative);
    }
}

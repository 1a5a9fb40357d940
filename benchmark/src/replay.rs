//! Replays a traced pass's sampled traffic through each layer's public
//! calls, under child spans, to get per-operation host times: the codec
//! over the sampled messages, the authoritative and the ingress gate over
//! the sampled queries at the measured servers, and the resolver cache
//! over the sample's distinct names.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::net::{Ipv4Addr, Ipv6Addr};

use dike_auth::{AuthServer, CacheTestZone};
use dike_cache::{CacheConfig, ResolverCache};
use dike_defense::DefensePlan;
use dike_netsim::{IngressGate, SimDuration};
use dike_wire::codec::{self, EncodeBuffer};
use dike_wire::{Message, Name, RData, Record, RecordType};

use crate::trace::{Role, Sample, Tracer};

/// Per-operation host nanoseconds from one replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCosts {
    /// `EncodeBuffer::encode` per sampled message.
    pub encode_ns: f64,
    /// `codec::decode` per sampled message.
    pub decode_ns: f64,
    /// `AuthServer::handle_query` per sampled query at the measured
    /// authoritatives.
    pub handle_query_ns: f64,
    /// `IngressGate::on_query` per sampled query at the measured
    /// authoritatives (0 without a defense plan).
    pub rrl_verdict_ns: f64,
    /// `ResolverCache::lookup` of a cached name.
    pub lookup_hit_ns: f64,
    /// `ResolverCache::lookup` of a name never inserted.
    pub lookup_miss_ns: f64,
    /// `ResolverCache::insert` of a one-record RRset.
    pub insert_ns: f64,
}

/// Host nanoseconds per `EncodeBuffer::encode` over `to_encode` and per
/// `codec::decode` over `to_decode`, each under its own child span of
/// `parent`. Every payload is let go at once, as the simulator and the
/// live server do after a send.
pub fn wire_costs(
    tracer: &mut Tracer,
    parent: usize,
    to_encode: &[&Message],
    to_decode: &[Vec<u8>],
) -> (f64, f64) {
    let ((), encode) = tracer.span("wire.encode", Some(parent), |_, _| {
        let mut enc = EncodeBuffer::new();
        for m in to_encode {
            black_box(enc.encode(m).expect("message encodes"));
        }
        ((), to_encode.len() as u64)
    });
    let ((), decode) = tracer.span("wire.decode", Some(parent), |_, _| {
        for w in to_decode {
            black_box(codec::decode(w).expect("bytes decode"));
        }
        ((), to_decode.len() as u64)
    });
    (
        tracer.get(encode).ns_per_op(),
        tracer.get(decode).ns_per_op(),
    )
}

/// Replays `samples` (in arrival order) under `parent`. `zone_ttl` is the
/// measured authoritatives' answer TTL; `plan` is the run's defense plan,
/// if it had one; `with_cache` is false for workloads whose measured
/// traffic never touches a resolver cache.
pub fn replay(
    tracer: &mut Tracer,
    parent: usize,
    samples: &[Sample],
    zone_ttl: u32,
    plan: Option<&DefensePlan>,
    with_cache: bool,
) -> LayerCosts {
    let mut costs = LayerCosts::default();
    if samples.is_empty() {
        return costs;
    }

    let messages: Vec<&Message> = samples.iter().map(|s| &s.msg).collect();
    let wires: Vec<Vec<u8>> = messages
        .iter()
        .map(|m| codec::encode(m).expect("sampled message encodes"))
        .collect();
    (costs.encode_ns, costs.decode_ns) = wire_costs(tracer, parent, &messages, &wires);
    drop(wires);

    // auth + defense: the queries that reached the measured servers.
    let ns_queries: Vec<&Sample> = samples.iter().filter(|s| s.role == Role::NsQuery).collect();
    if !ns_queries.is_empty() {
        let ((), span) = tracer.span("auth.handle_query", Some(parent), |_, _| {
            let mut server = AuthServer::new().with_zone(Box::new(CacheTestZone::new(
                zone_ttl,
                &[Ipv4Addr::new(10, 0, 0, 3), Ipv4Addr::new(10, 0, 0, 4)],
            )));
            for s in &ns_queries {
                black_box(server.handle_query(s.at, &s.msg));
            }
            ((), ns_queries.len() as u64)
        });
        costs.handle_query_ns = tracer.get(span).ns_per_op();

        if let Some(engine) = plan.and_then(|p| p.build_engines().into_values().next()) {
            let ((), span) = tracer.span("defense.rrl_verdict", Some(parent), |_, _| {
                let mut gate = IngressGate::new(Box::new(engine));
                for s in &ns_queries {
                    black_box(gate.on_query(s.at, s.src, &s.msg));
                }
                ((), ns_queries.len() as u64)
            });
            costs.rrl_verdict_ns = tracer.get(span).ns_per_op();
        }
    }

    // cache: the distinct question names of the sample.
    if with_cache {
        let names: Vec<Name> = samples
            .iter()
            .filter_map(|s| s.msg.question().map(|q| q.name.clone()))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let absent: Vec<Name> = names
            .iter()
            .filter_map(|n| n.child("absent").ok())
            .collect();
        let now = SimDuration::from_secs(1).after_zero();
        let mut cache = ResolverCache::new(CacheConfig::unbound_like());
        let ((), span) = tracer.span("cache.insert", Some(parent), |_, _| {
            for n in &names {
                let record = Record::new(n.clone(), 1_800, RData::Aaaa(Ipv6Addr::LOCALHOST));
                black_box(cache.insert(now, vec![record]));
            }
            ((), names.len() as u64)
        });
        costs.insert_ns = tracer.get(span).ns_per_op();
        let ((), span) = tracer.span("cache.lookup_hit", Some(parent), |_, _| {
            for n in &names {
                black_box(cache.lookup(now, n, RecordType::AAAA));
            }
            ((), names.len() as u64)
        });
        costs.lookup_hit_ns = tracer.get(span).ns_per_op();
        let ((), span) = tracer.span("cache.lookup_miss", Some(parent), |_, _| {
            for n in &absent {
                black_box(cache.lookup(now, n, RecordType::AAAA));
            }
            ((), absent.len() as u64)
        });
        costs.lookup_miss_ns = tracer.get(span).ns_per_op();
        debug_assert_eq!(cache.stats().hits as usize, names.len());
    }
    costs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_defense::{Defense, RrlConfig};
    use dike_netsim::{Addr, SimTime};

    fn sample(role: Role, id: u16) -> Sample {
        Sample {
            role,
            at: SimTime::ZERO,
            src: Addr(77),
            msg: Message::iterative_query(
                id,
                Name::parse(&format!("{id}.cachetest.nl")).unwrap(),
                RecordType::AAAA,
            ),
        }
    }

    #[test]
    fn every_layer_gets_a_span_and_a_cost() {
        let samples: Vec<Sample> = (1..=40)
            .map(|i| {
                sample(
                    if i % 2 == 0 {
                        Role::NsQuery
                    } else {
                        Role::ResolverQuery
                    },
                    i,
                )
            })
            .collect();
        let plan = DefensePlan::new().with(Defense::rrl(Addr(3), RrlConfig::slip_at(5.0, 2)));
        let mut tracer = Tracer::new("unit".to_owned());
        let (costs, _) = tracer.span("replay", None, |t, me| {
            (replay(t, me, &samples, 60, Some(&plan), true), 0)
        });
        for v in [
            costs.encode_ns,
            costs.decode_ns,
            costs.handle_query_ns,
            costs.rrl_verdict_ns,
            costs.lookup_hit_ns,
            costs.lookup_miss_ns,
            costs.insert_ns,
        ] {
            assert!(v > 0.0, "{costs:?}");
        }
        assert_eq!(tracer.find("wire.decode").unwrap().count, 40);
        assert_eq!(tracer.find("auth.handle_query").unwrap().count, 20);
        assert_eq!(tracer.find("cache.insert").unwrap().count, 40);
        assert_eq!(tracer.find("cache.lookup_hit").unwrap().parent, Some(0));
    }

    #[test]
    fn layers_a_workload_never_calls_stay_at_zero() {
        let samples = vec![sample(Role::ResolverQuery, 1)];
        let mut tracer = Tracer::new("unit".to_owned());
        let (costs, _) = tracer.span("replay", None, |t, me| {
            (replay(t, me, &samples, 60, None, false), 0)
        });
        assert_eq!(costs.handle_query_ns, 0.0);
        assert_eq!(costs.rrl_verdict_ns, 0.0);
        assert_eq!(costs.insert_ns, 0.0);
        assert!(tracer.find("cache.insert").is_none());
    }
}

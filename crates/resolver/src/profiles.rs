//! Named resolver profiles, calibrated to the software and deployments
//! the paper measured.
//!
//! §6.2 measures BIND 9.10.3 and Unbound 1.5.8 against an unreachable
//! zone: BIND resolves `sub.cachetest.net` in 3 queries normally and ~12
//! under failure; Unbound takes 5–6 normally (it additionally probes
//! AAAA for the NS names) and ~46 under failure. §3.5 attributes half of
//! all cache misses to public resolvers with fragmented caches (mostly
//! Google Public DNS), and §3.4 notes EC2-style resolvers that cap every
//! TTL at 60 s.

use dike_cache::CacheConfig;
use dike_netsim::{Addr, SimDuration};

use crate::config::{ResolverConfig, ResolverMode, RetryPolicy, SelectionPolicy};

/// BIND-like iterative resolver: honors TTLs (7-day cache cap), chases
/// A-for-NS but is lazy about AAAA probing, retries each request about 4
/// times with exponential backoff.
pub fn bind_like(roots: Vec<Addr>) -> ResolverConfig {
    ResolverConfig {
        mode: ResolverMode::Iterative { roots },
        retry: RetryPolicy {
            initial_timeout: SimDuration::from_millis(800),
            backoff_factor: 2.0,
            max_timeout: SimDuration::from_secs(8),
            max_attempts: 4,
        },
        cache: CacheConfig {
            max_ttl: 7 * 86_400,
            ..CacheConfig::default()
        },
        infra_a: true,
        infra_aaaa: false,
        selection: SelectionPolicy::SrttBased,
        answer_from_glue: false,
        max_pending: 10_000,
        flush_interval: None,
        servfail_ttl: SimDuration::from_secs(5),
        tcp_fallback: false,
        use_cookies: false,
        max_fetch: None,
    }
}

/// Unbound-like iterative resolver: 1-day cache cap, probes both A and
/// AAAA for NS names (generating the `AAAA-for-NS` negative-answer
/// traffic of Fig. 10), retries more aggressively.
pub fn unbound_like(roots: Vec<Addr>) -> ResolverConfig {
    ResolverConfig {
        mode: ResolverMode::Iterative { roots },
        retry: RetryPolicy {
            initial_timeout: SimDuration::from_millis(400),
            backoff_factor: 2.0,
            max_timeout: SimDuration::from_secs(6),
            max_attempts: 7,
        },
        cache: CacheConfig::unbound_like(),
        infra_a: false,
        infra_aaaa: true,
        selection: SelectionPolicy::SrttBased,
        answer_from_glue: false,
        max_pending: 10_000,
        flush_interval: None,
        servfail_ttl: SimDuration::from_secs(5),
        tcp_fallback: false,
        use_cookies: false,
        max_fetch: None,
    }
}

/// A farm *frontend*: the anycast-facing tier of a public resolver. It
/// barely caches (per-machine caches across thousands of frontends are
/// effectively cold for any one name) and sprays queries randomly over
/// the farm's backend resolvers — which is exactly what fragments the
/// farm's cache from a client's point of view.
pub fn farm_frontend(backends: Vec<Addr>) -> ResolverConfig {
    ResolverConfig {
        mode: ResolverMode::Forwarding {
            upstreams: backends,
        },
        retry: RetryPolicy {
            initial_timeout: SimDuration::from_millis(800),
            backoff_factor: 1.5,
            max_timeout: SimDuration::from_secs(4),
            max_attempts: 4,
        },
        cache: CacheConfig {
            capacity: 1,
            ..CacheConfig::default()
        },
        infra_a: false,
        infra_aaaa: false,
        selection: SelectionPolicy::Random,
        answer_from_glue: false,
        max_pending: 10_000,
        flush_interval: None,
        servfail_ttl: SimDuration::from_secs(2),
        tcp_fallback: false,
        use_cookies: false,
        max_fetch: None,
    }
}

/// An EC2-style resolver that caps every TTL at 60 s (paper §3.4,
/// ref.\[36\]).
pub fn ttl_capper(roots: Vec<Addr>) -> ResolverConfig {
    ResolverConfig {
        cache: CacheConfig::ttl_capper_60s(),
        ..bind_like(roots)
    }
}

/// A home-router first-level forwarder (R1): little cache of its own,
/// forwards to ISP or public recursives, and switches upstream on retry —
/// the amplification path of §6.2.
pub fn home_router(upstreams: Vec<Addr>) -> ResolverConfig {
    ResolverConfig {
        mode: ResolverMode::Forwarding { upstreams },
        retry: RetryPolicy {
            initial_timeout: SimDuration::from_millis(1_000),
            backoff_factor: 2.0,
            max_timeout: SimDuration::from_secs(4),
            max_attempts: 3,
        },
        cache: CacheConfig {
            capacity: 256,
            ..CacheConfig::default()
        },
        infra_a: false,
        infra_aaaa: false,
        selection: SelectionPolicy::SrttBased,
        answer_from_glue: false,
        max_pending: 10_000,
        flush_interval: None,
        servfail_ttl: SimDuration::from_secs(5),
        tcp_fallback: false,
        use_cookies: false,
        max_fetch: None,
    }
}

/// A serve-stale adopter (the paper found OpenDNS and Google already
/// serving stale during outages, §5.3).
pub fn with_serve_stale(mut config: ResolverConfig) -> ResolverConfig {
    config.cache = config.cache.with_serve_stale();
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_is_lazier_than_unbound() {
        let b = bind_like(vec![Addr(1)]);
        let u = unbound_like(vec![Addr(1)]);
        assert!(b.retry.max_attempts < u.retry.max_attempts);
        assert!(!b.infra_aaaa && u.infra_aaaa);
    }

    #[test]
    fn ttl_capper_caps() {
        let c = ttl_capper(vec![Addr(1)]);
        assert_eq!(c.cache.clamp_ttl(3600), 60);
    }

    #[test]
    fn forwarders_do_not_probe_infra() {
        let h = home_router(vec![Addr(2)]);
        assert!(!h.infra_a && !h.infra_aaaa);
        assert!(matches!(h.mode, ResolverMode::Forwarding { .. }));
    }

    #[test]
    fn serve_stale_wrapper_sets_flag() {
        let c = with_serve_stale(bind_like(vec![Addr(1)]));
        assert!(c.cache.serve_stale);
    }
}

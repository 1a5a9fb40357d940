//! Resolver configuration.

use dike_cache::CacheConfig;
use dike_netsim::{Addr, SimDuration};

/// How unanswered upstream queries are retried.
///
/// Both BIND and Unbound pace retries with exponential backoff (paper
/// §6.2: "Such retries are appropriate, provided they are paced (both use
/// exponential backoff)").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Timeout before the first retry.
    pub(crate) initial_timeout: SimDuration,
    /// Multiplier applied to the timeout after each retry.
    pub(crate) backoff_factor: f64,
    /// Ceiling on the per-try timeout.
    pub(crate) max_timeout: SimDuration,
    /// Total upstream sends per resolution task (first try included).
    /// The paper observes 6–7 tries per request when authoritatives are
    /// unreachable (§6.2).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            initial_timeout: SimDuration::from_millis(750),
            backoff_factor: 2.0,
            max_timeout: SimDuration::from_secs(6),
            max_attempts: 7,
        }
    }
}

impl RetryPolicy {
    /// The timeout for attempt number `attempt` (0-based).
    ///
    /// A mis-set `backoff_factor` (NaN, infinite, zero or negative — and
    /// anything below 1, which would *shrink* the pacing) falls back to
    /// constant pacing at `initial_timeout`. The result is always in
    /// `[min(initial_timeout, max_timeout), max_timeout]`: no
    /// configuration can produce a zero retry timeout, which would turn
    /// paced exponential backoff (paper §6.2) into an unpaced retry
    /// storm at the authoritatives.
    pub(crate) fn timeout_for(&self, attempt: u32) -> SimDuration {
        let factor = if self.backoff_factor.is_finite() {
            self.backoff_factor.max(1.0)
        } else {
            1.0
        };
        let scaled = self.initial_timeout.mul_f64(factor.powi(attempt as i32));
        scaled.min(self.max_timeout)
    }

    /// Whether another attempt is allowed after `attempts` sends.
    pub(crate) fn allows_retry(&self, attempts: u32) -> bool {
        attempts < self.max_attempts
    }
}

/// RFC 7766 TCP fallback: how long to wait for the handshake before
/// giving up on the connection and resuming UDP retries. The simulator
/// never times out a SYN on its own: this timer is the dialer's
/// responsibility, and it also covers SYNs silently dropped by a dead or
/// unreachable server. TCP timeouts are distinct from the UDP
/// [`RetryPolicy`], and a TCP attempt does not consume a UDP attempt from
/// the task's budget.
pub(crate) const TCP_CONNECT_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// RFC 7766 TCP fallback: how long to wait for the response once the
/// query has been sent over the established connection.
pub(crate) const TCP_RESPONSE_TIMEOUT: SimDuration = SimDuration::from_secs(4);

/// How the next upstream/authoritative server is chosen per attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum SelectionPolicy {
    /// Prefer the lowest smoothed-RTT server (BIND-style).
    #[default]
    SrttBased,
    /// Uniform random per attempt — how load-balanced farm frontends
    /// spray queries over their backends (the fragmentation driver of
    /// paper §3.5).
    Random,
}

/// Where the resolver sends the queries it cannot answer from cache.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ResolverMode {
    /// Full iterative resolution starting from these root server
    /// addresses.
    Iterative {
        /// Root hints.
        roots: Vec<Addr>,
    },
    /// Forward every miss to one of these upstream recursive resolvers.
    Forwarding {
        /// Upstream resolvers (Rn), tried in selector order.
        upstreams: Vec<Addr>,
    },
}

/// Full resolver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolverConfig {
    /// Iterative or forwarding.
    pub(crate) mode: ResolverMode,
    /// Retry pacing.
    pub retry: RetryPolicy,
    /// Cache behaviour.
    pub cache: CacheConfig,
    /// Whether to resolve A records for NS names learned from referrals
    /// (infrastructure queries).
    pub(crate) infra_a: bool,
    /// Whether to also probe AAAA for NS names. The experiment zone is
    /// IPv4-only, so these draw negative answers — the `AAAA-for-NS`
    /// series in paper Fig. 10. Unbound does this, BIND is lazier.
    pub(crate) infra_aaaa: bool,
    /// Upstream selection policy.
    pub(crate) selection: SelectionPolicy,
    /// Whether client answers may be served from referral (glue) data.
    /// RFC 2181 forbids it; a small share of real-world resolvers do it
    /// anyway (the ~5% "parent TTL" rows of the paper's Table 5).
    pub answer_from_glue: bool,
    /// Cap on concurrently pending resolution tasks (BIND's
    /// `recursive-clients`, Unbound's `num-queries-per-thread`). When the
    /// table is full, new client questions are refused with SERVFAIL —
    /// load shedding under retry storms.
    pub max_pending: usize,
    /// Periodic full cache flush (operator flushes, machine restarts —
    /// the paper's §3.1 lists these among the causes of early cache
    /// loss). `None` disables.
    pub flush_interval: Option<SimDuration>,
    /// How long a resolution failure is remembered (RFC 2308 §7 allows
    /// caching SERVFAIL up to 5 minutes; BIND/Unbound use a few
    /// seconds). While a failure is cached, client queries for the same
    /// question get an immediate SERVFAIL instead of triggering a new
    /// resolution — damping the retry storm of paper §6. Zero disables.
    pub servfail_ttl: SimDuration,
    /// RFC 7766 TCP fallback on truncated answers, paced by a 2 s
    /// connect and a 4 s response timeout. `false` (the default) keeps
    /// the resolver UDP-only, which is what the paper measures — a
    /// slipped TC=1 then counts as a lost answer unless another server's
    /// UDP retry succeeds.
    pub tcp_fallback: bool,
    /// RFC 7873 DNS cookies: attach a deterministic client cookie to
    /// every upstream query and learn the server half from responses. A
    /// cookie-validating ingress defense then exempts this resolver
    /// from rate limiting (return routability proven).
    pub use_cookies: bool,
    /// NXNSAttack mitigation, MaxFetch(k): cap on NS-address
    /// (infrastructure) fetches spawned per referral. A malicious
    /// delegation listing N glueless out-of-bailiwick NS names otherwise
    /// turns one client query into up to 2N infra queries against the
    /// zone hosting those names. Fetches beyond the cap are dropped and
    /// counted (`max_fetch_exceeded`). `None` (the default) leaves the
    /// fan-out uncapped — the vulnerable behaviour the paper-era
    /// resolvers shipped.
    pub max_fetch: Option<u32>,
}

impl ResolverConfig {
    /// An iterative resolver with default behaviour.
    pub fn iterative(roots: Vec<Addr>) -> Self {
        ResolverConfig {
            mode: ResolverMode::Iterative { roots },
            retry: RetryPolicy::default(),
            cache: CacheConfig::honoring(),
            infra_a: true,
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

    /// A forwarding resolver with default behaviour.
    pub fn forwarding(upstreams: Vec<Addr>) -> Self {
        ResolverConfig {
            mode: ResolverMode::Forwarding { upstreams },
            retry: RetryPolicy::default(),
            cache: CacheConfig::honoring(),
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            initial_timeout: SimDuration::from_millis(500),
            backoff_factor: 2.0,
            max_timeout: SimDuration::from_secs(3),
            max_attempts: 7,
        };
        assert_eq!(p.timeout_for(0), SimDuration::from_millis(500));
        assert_eq!(p.timeout_for(1), SimDuration::from_millis(1000));
        assert_eq!(p.timeout_for(2), SimDuration::from_millis(2000));
        // Capped at 3 s from attempt 3 on.
        assert_eq!(p.timeout_for(3), SimDuration::from_secs(3));
        assert_eq!(p.timeout_for(6), SimDuration::from_secs(3));
    }

    #[test]
    fn mis_set_backoff_factor_never_yields_zero_timeout() {
        // NaN is the original bug: powi(NaN) = NaN used to cast the
        // scaled span to 0 ns and turn every retry into an immediate
        // resend — the unpaced-retry pathology of paper §6.2.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -2.0, 0.5] {
            let p = RetryPolicy {
                backoff_factor: bad,
                ..RetryPolicy::default()
            };
            for attempt in 0..p.max_attempts {
                let t = p.timeout_for(attempt);
                assert!(
                    t >= p.initial_timeout.min(p.max_timeout),
                    "backoff_factor {bad}: attempt {attempt} timeout {t} below floor"
                );
                assert!(t <= p.max_timeout, "backoff_factor {bad}: {t} over cap");
            }
        }
    }

    #[test]
    fn huge_attempt_counts_saturate_at_max_timeout() {
        let p = RetryPolicy::default();
        // 2^1000 overflows to +∞; the scale saturates and the cap wins.
        assert_eq!(p.timeout_for(1000), p.max_timeout);
    }

    #[test]
    fn allows_retry_respects_max_attempts() {
        let p = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        assert!(p.allows_retry(0));
        assert!(p.allows_retry(2));
        assert!(!p.allows_retry(3));
    }

    #[test]
    fn constructors_pick_sane_modes() {
        let it = ResolverConfig::iterative(vec![Addr(1)]);
        assert!(matches!(it.mode, ResolverMode::Iterative { .. }));
        assert!(it.infra_a && it.infra_aaaa);
        let fw = ResolverConfig::forwarding(vec![Addr(2), Addr(3)]);
        assert!(matches!(fw.mode, ResolverMode::Forwarding { .. }));
        assert!(!fw.infra_a);
    }
}

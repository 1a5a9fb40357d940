//! Cache configuration.

use dike_netsim::SimDuration;

/// How long past expiry an entry remains usable as stale data (RFC 8767
/// suggests one to three days; we take the upper end).
pub const STALE_WINDOW: SimDuration = SimDuration::from_secs(3 * 86_400);

/// Tunable cache behaviour. The defaults model a well-behaved resolver
/// that honors TTLs; the named constructors model the deviations the
/// paper attributes the ~30% cache-miss rate to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Maximum number of RRset entries before LRU eviction.
    pub capacity: usize,
    /// Records with larger TTLs are clamped to this cap.
    pub max_ttl: u32,
    /// Whether expired entries may be served when refresh fails
    /// (RFC 8767) for up to [`STALE_WINDOW`]. Stale answers carry TTL 0,
    /// matching the paper's observation that 1031/1048 late successes
    /// had TTL 0 (§5.3).
    pub serve_stale: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 100_000,
            // Unbound's default cache-max-ttl: 1 day.
            max_ttl: 86_400,
            serve_stale: false,
        }
    }
}

impl CacheConfig {
    /// A resolver that honors TTLs exactly (caps at 7 days, like BIND's
    /// `max-cache-ttl` default, which is above every TTL we use).
    pub fn honoring() -> Self {
        CacheConfig {
            max_ttl: 7 * 86_400,
            ..CacheConfig::default()
        }
    }

    /// An EC2-style resolver that caps every TTL at 60 s (paper §3.4,
    /// citing ref.\[36\]).
    pub fn ttl_capper_60s() -> Self {
        CacheConfig {
            max_ttl: 60,
            ..CacheConfig::default()
        }
    }

    /// Unbound-style: cache entries dropped after 1 day.
    pub fn unbound_like() -> Self {
        CacheConfig {
            max_ttl: 86_400,
            ..CacheConfig::default()
        }
    }

    /// A serve-stale adopter (paper §5.3 found OpenDNS and Google already
    /// experimenting with this).
    pub fn with_serve_stale(mut self) -> Self {
        self.serve_stale = true;
        self
    }

    /// The effective TTL after clamping.
    pub fn clamp_ttl(&self, ttl: u32) -> u32 {
        ttl.min(self.max_ttl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_honors_short_ttls() {
        let c = CacheConfig::default();
        assert_eq!(c.clamp_ttl(60), 60);
        assert_eq!(c.clamp_ttl(3600), 3600);
        // Short TTLs are never raised.
        assert_eq!(c.clamp_ttl(0), 0);
        assert_eq!(c.clamp_ttl(1), 1);
    }

    #[test]
    fn capper_truncates() {
        let c = CacheConfig::ttl_capper_60s();
        assert_eq!(c.clamp_ttl(3600), 60);
        assert_eq!(c.clamp_ttl(30), 30);
    }

    #[test]
    fn unbound_caps_day_long_ttls() {
        let c = CacheConfig::unbound_like();
        assert_eq!(c.clamp_ttl(7 * 86_400), 86_400);
        assert_eq!(c.clamp_ttl(86_400), 86_400);
    }
}

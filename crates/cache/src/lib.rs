#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # dike-cache
//!
//! The recursive-resolver cache, implementing the full behaviour surface
//! the paper observes in the wild (§3.1, §3.5):
//!
//! * **TTL honoring** — entries live exactly as long as the authoritative
//!   said, decremented on every lookup.
//! * **TTL clamping** — operators override TTLs with minima and caps
//!   (e.g. Amazon EC2's default resolver caps everything at 60 s; BIND
//!   drops entries after 7 days, Unbound after 1 day).
//! * **Limited capacity** — LRU eviction when full.
//! * **Explicit flush** — operators flush, machines reboot.
//! * **Negative caching** (RFC 2308) — NXDOMAIN/NODATA results cached for
//!   `min(SOA TTL, SOA minimum)`.
//! * **Serve-stale** (RFC 8767 draft, ref.\[19\] in the paper) — expired entries
//!   may be served with TTL 0 when the authoritatives are unreachable.

mod cache;
mod config;
mod entry;
mod index;

pub use cache::{CacheAnswer, CacheStats, CachedRrset, ResolverCache};
pub use config::{CacheConfig, STALE_WINDOW};
pub use entry::{CacheKey, NegativeKind, TrustLevel};
pub use index::SlotIndex;

#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # dike-resolver
//!
//! The recursive resolver — the component whose caching and retry
//! behaviour the paper identifies as the DNS's main DDoS defense.
//!
//! A [`RecursiveResolver`] node can operate in two modes:
//!
//! * **Iterative** ([`ResolverConfig::iterative`]): full resolution from
//!   root hints, following referrals down the hierarchy, with bailiwick
//!   checking, RTT-based server selection, exponential-backoff retries,
//!   and infrastructure queries for the addresses of name servers it
//!   learns (the A-for-NS / AAAA-for-NS traffic of paper Fig. 10).
//! * **Forwarding** ([`ResolverConfig::forwarding`]): a first-level
//!   recursive (R1, e.g. a home router or a public-resolver frontend)
//!   that forwards to one or more upstream recursives (Rn), switching
//!   upstream on retry — the multi-level amplification of paper §6.2.
//!
//! Cache behaviour (TTL honoring/clamping, fragmentation, serve-stale)
//! comes from [`dike_cache`]; [`profiles`] provides named configurations
//! calibrated to the software and deployments the paper measured
//! (BIND 9.10, Unbound 1.5.8, EC2-style TTL cappers, Google-style
//! anycast farms).

mod config;
mod node;
pub mod profiles;
mod selector;
mod task;

pub use config::{ResolverConfig, RetryPolicy};
pub use node::{RecursiveResolver, ResolverStats};

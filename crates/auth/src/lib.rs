#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # dike-auth
//!
//! The authoritative DNS server side of the simulation:
//!
//! * [`Zone`] — an in-memory zone: SOA, records, delegations with glue,
//!   and RFC-faithful lookup semantics (authoritative answers, referrals
//!   with the `AA` bit clear, NXDOMAIN/NODATA negatives with the SOA in
//!   the authority section, CNAME chasing).
//! * [`zonefile`] — a zone-file parser for the master-file subset the
//!   experiments need (`$ORIGIN`, `$TTL`, `@`, relative names, comments).
//! * [`AuthServer`] — the simulator node: answers queries against one or
//!   more zones, picking the deepest matching origin.
//! * [`CacheTestZone`] — the paper's measurement zone (§3.2): synthesizes
//!   a unique AAAA answer per probe id with the serial / probe-id / TTL
//!   encoded in the address, and rotates the serial every 10 minutes.
//! * [`nxns`] — NXNSAttack zone builders: a malicious zone whose
//!   referrals list configurably many glueless, out-of-bailiwick NS
//!   names under a victim zone, and the victim zone that absorbs the
//!   amplified infrastructure-query load.

mod cachetest;
pub mod nxns;
mod server;
mod zone;
pub mod zonefile;

pub use cachetest::{decode_probe_aaaa, probe_aaaa, CacheTestZone, ProbePayload};
pub use nxns::NxnsZoneConfig;
pub use server::{AuthServer, ZoneProvider};
pub use zone::{Zone, ZoneAnswer};

#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # dike-stub
//!
//! The client side of the measurements: an Atlas-like probe that queries
//! each of its local recursive resolvers for a unique name at a fixed
//! pacing, logging every outcome.
//!
//! Mirrors the paper's measurement design (§3.2):
//!
//! * each probe queries `{probeid}.cachetest.nl` (AAAA);
//! * a *vantage point* (VP) is the tuple (probe, recursive) — probes with
//!   several local recursives contribute several VPs;
//! * queries time out after 5 seconds, reported as "no answer";
//! * rounds are spread over a few minutes, like Atlas spreads its
//!   measurement load.
//!
//! Every query's fate lands in a shared [`ProbeLog`] which the analysis
//! crates consume after the run.

mod log;
mod probe;

pub use log::{new_shared_log, ProbeLog, QueryOutcome, QueryRecord, SharedProbeLog, VpKey};
pub use probe::{StubConfig, StubProbe};

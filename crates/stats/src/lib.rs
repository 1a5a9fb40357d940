#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # dike-stats
//!
//! Analysis of experiment output, mirroring the paper's methodology:
//!
//! * [`classify`] — the AA/CC/AC/CA answer classification of §3.4: for
//!   every vantage point, track what the cache *should* contain and
//!   compare with where the answer actually came from (via the serial
//!   embedded in the AAAA payload), flagging TTL manipulation and
//!   cache-fragmentation fingerprints.
//! * [`timeseries`] — per-round binning of client outcomes
//!   (OK / SERVFAIL / no answer) behind Figures 6, 8, 13 and 14.
//! * [`latency`] — per-round latency quantiles behind Figures 9 and 15.
//! * [`passive`] — the §4.1 ENTRADA-style passive-trace analysis.
//! * [`quantile`] / [`ecdf`] — order statistics used throughout.
//! * [`server_view`] — a [`dike_netsim::trace::TraceSink`] that accounts
//!   authoritative-side traffic by query type and source (Figures 10–12,
//!   Table 7).
//! * [`table`] — plain-text table rendering for the `repro` binary and
//!   EXPERIMENTS.md.

pub mod classify;
pub mod ecdf;
pub mod latency;
pub mod passive;
pub mod quantile;
pub mod server_view;
pub mod table;
pub mod timeseries;

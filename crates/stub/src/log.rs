//! The shared answer log probes write into.

use std::net::Ipv6Addr;
use std::sync::Arc;

use dike_netsim::{Addr, SimDuration, SimTime};
use dike_wire::Rcode;
use parking_lot::Mutex;

/// Identifies a vantage point: one probe querying one recursive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VpKey {
    /// Probe id (also the queried label).
    pub probe: u16,
    /// Index of the recursive within the probe's resolver list.
    pub recursive: u8,
}

/// What happened to one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// A response arrived within the timeout.
    Answer {
        /// Response code.
        rcode: Rcode,
        /// The first AAAA answer, when present (carries the experiment
        /// payload: serial, probe id, configured TTL).
        aaaa: Option<Ipv6Addr>,
        /// The TTL the recursive reported on that answer.
        ttl: Option<u32>,
    },
    /// Nothing arrived within the 5-second window — Atlas's "no answer".
    Timeout,
}

impl QueryOutcome {
    /// True when the client got a usable answer (NOERROR with data).
    pub fn is_ok(&self) -> bool {
        matches!(
            self,
            QueryOutcome::Answer {
                rcode: Rcode::NoError,
                aaaa: Some(_),
                ..
            }
        )
    }

    /// True for SERVFAIL answers.
    pub fn is_servfail(&self) -> bool {
        matches!(
            self,
            QueryOutcome::Answer {
                rcode: Rcode::ServFail,
                ..
            }
        )
    }

    /// True for timeouts.
    pub fn is_timeout(&self) -> bool {
        matches!(self, QueryOutcome::Timeout)
    }
}

/// One logged query.
#[derive(Debug, Clone, Copy)]
pub struct QueryRecord {
    /// Which vantage point sent it.
    pub vp: VpKey,
    /// Address of the recursive it was sent to.
    pub recursive: Addr,
    /// Probe round (0-based).
    pub round: u32,
    /// When it was sent.
    pub sent_at: SimTime,
    /// What happened.
    pub outcome: QueryOutcome,
    /// Time to answer, when one arrived.
    pub rtt: Option<SimDuration>,
}

/// The run-wide collection of query records.
#[derive(Debug, Default)]
pub struct ProbeLog {
    /// Every query, in completion order.
    pub records: Vec<QueryRecord>,
}

impl ProbeLog {
    /// Records answered OK.
    pub fn ok_count(&self) -> usize {
        self.records.iter().filter(|r| r.outcome.is_ok()).count()
    }

    /// Records that timed out.
    pub fn timeout_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome.is_timeout())
            .count()
    }

    /// Records answered SERVFAIL.
    pub fn servfail_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome.is_servfail())
            .count()
    }

    /// Distinct vantage points seen.
    pub fn vp_count(&self) -> usize {
        let mut vps: Vec<VpKey> = self.records.iter().map(|r| r.vp).collect();
        vps.sort();
        vps.dedup();
        vps.len()
    }

    /// Sorts the records into the canonical `(vp, round, sent_at)`
    /// order. A sharded run appends from several shard threads, so raw
    /// append order depends on thread scheduling even though the record
    /// *set* is deterministic; canonical order is what digests and
    /// exports compare. Stable, so a vantage point's same-instant
    /// retries keep their relative order.
    pub fn canonicalize(&mut self) {
        self.records
            .sort_by_key(|r| (r.vp, r.round, r.sent_at, r.rtt.is_some(), r.rtt));
    }
}

/// Shared handle type used by probes.
pub type SharedProbeLog = Arc<Mutex<ProbeLog>>;

/// Creates a fresh shared log.
pub fn new_shared_log() -> SharedProbeLog {
    Arc::new(Mutex::new(ProbeLog::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(outcome: QueryOutcome) -> QueryRecord {
        QueryRecord {
            vp: VpKey {
                probe: 1,
                recursive: 0,
            },
            recursive: Addr(1),
            round: 0,
            sent_at: SimTime::ZERO,
            outcome,
            rtt: None,
        }
    }

    #[test]
    fn outcome_predicates() {
        let ok = QueryOutcome::Answer {
            rcode: Rcode::NoError,
            aaaa: Some(Ipv6Addr::LOCALHOST),
            ttl: Some(60),
        };
        assert!(ok.is_ok() && !ok.is_servfail() && !ok.is_timeout());
        let sf = QueryOutcome::Answer {
            rcode: Rcode::ServFail,
            aaaa: None,
            ttl: None,
        };
        assert!(sf.is_servfail() && !sf.is_ok());
        assert!(QueryOutcome::Timeout.is_timeout());
        // NOERROR without data is not "ok".
        let empty = QueryOutcome::Answer {
            rcode: Rcode::NoError,
            aaaa: None,
            ttl: None,
        };
        assert!(!empty.is_ok());
    }

    #[test]
    fn log_counters() {
        let mut log = ProbeLog::default();
        log.records.push(rec(QueryOutcome::Answer {
            rcode: Rcode::NoError,
            aaaa: Some(Ipv6Addr::LOCALHOST),
            ttl: Some(60),
        }));
        log.records.push(rec(QueryOutcome::Timeout));
        log.records.push(rec(QueryOutcome::Answer {
            rcode: Rcode::ServFail,
            aaaa: None,
            ttl: None,
        }));
        assert_eq!(log.ok_count(), 1);
        assert_eq!(log.timeout_count(), 1);
        assert_eq!(log.servfail_count(), 1);
        assert_eq!(log.vp_count(), 1);
    }
}

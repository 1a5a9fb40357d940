//! The shared answer log probes write into.

use std::net::Ipv6Addr;
use std::sync::Arc;

use dike_netsim::{Addr, SimDuration, SimTime};
use dike_telemetry::sync::Mutex;
use dike_wire::Rcode;

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

    /// FNV-1a over every field of every record, in log order: any
    /// reordered, dropped or altered query — down to a response code, an
    /// answer address or a TTL — changes it. Two logs with equal record
    /// counts and equal digests are the same run.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut push = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for r in &self.records {
            push(r.vp.probe as u64);
            push(r.vp.recursive as u64);
            push(r.recursive.0 as u64);
            push(r.round as u64);
            push(r.sent_at.as_nanos());
            match r.outcome {
                QueryOutcome::Answer { rcode, aaaa, ttl } => {
                    push(1);
                    push(rcode.to_u8() as u64);
                    match aaaa {
                        Some(a) => push(u128::from(a) as u64 ^ (u128::from(a) >> 64) as u64),
                        None => push(0xffff),
                    }
                    push(ttl.map(u64::from).unwrap_or(0xfffe));
                }
                QueryOutcome::Timeout => push(2),
            }
            push(r.rtt.map(|d| d.as_nanos()).unwrap_or(u64::MAX));
        }
        h
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
        assert!(ok.is_ok() && !ok.is_timeout());
        let sf = QueryOutcome::Answer {
            rcode: Rcode::ServFail,
            aaaa: None,
            ttl: None,
        };
        assert!(!sf.is_ok() && !sf.is_timeout());
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
    fn digest_sees_every_field() {
        let answer = |rcode, ttl| QueryOutcome::Answer {
            rcode,
            aaaa: Some(Ipv6Addr::LOCALHOST),
            ttl: Some(ttl),
        };
        let log = |records: Vec<QueryRecord>| ProbeLog { records };
        let base = log(vec![
            rec(answer(Rcode::NoError, 60)),
            rec(QueryOutcome::Timeout),
        ]);
        assert_eq!(base.digest(), log(base.records.clone()).digest());
        assert_ne!(base.digest(), ProbeLog::default().digest());
        // Fields an is_ok/is_timeout summary cannot tell apart.
        let other_ttl = log(vec![
            rec(answer(Rcode::NoError, 61)),
            rec(QueryOutcome::Timeout),
        ]);
        let other_rcode = log(vec![
            rec(answer(Rcode::Refused, 60)),
            rec(QueryOutcome::Timeout),
        ]);
        let reordered = log(vec![
            rec(QueryOutcome::Timeout),
            rec(answer(Rcode::NoError, 60)),
        ]);
        for changed in [other_ttl, other_rcode, reordered] {
            assert_ne!(base.digest(), changed.digest());
        }
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
    }
}

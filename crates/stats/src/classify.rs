//! The answer classification of paper §3.4.
//!
//! Every valid answer carries the zone serial inside its AAAA payload.
//! Because the zone rotates its serial on a fixed schedule (every 10
//! minutes), the analysis knows exactly which serial a *fresh* answer
//! would carry at any instant; an older serial proves the answer came
//! from a cache. Tracking each vantage point's previous answer and its
//! reported TTL tells us where the answer *should* have come from:
//!
//! | | observed authoritative | observed cache |
//! |---|---|---|
//! | **expected authoritative** | `AA` | `CA` (extended cache) |
//! | **expected cache** | `AC` (cache miss) | `CC` (cache hit) |
//!
//! Warm-up answers (each VP's first) are counted separately, and TTL
//! rewriting is flagged when the TTL reported by the recursive differs
//! from the TTL encoded in the payload by more than 10%.

use dike_auth::decode_probe_aaaa;
use dike_netsim::{SimDuration, SimTime};
use dike_stub::{ProbeLog, QueryOutcome, VpKey};
use std::collections::HashMap;

/// Where an answer came from vs. where it should have come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnswerClass {
    /// The VP's first answer: necessarily from the authoritative.
    WarmUp,
    /// Expected and observed authoritative.
    AA,
    /// Expected and observed cache (a cache hit).
    CC,
    /// Expected cache, observed authoritative (a cache miss).
    AC,
    /// Expected authoritative, observed cache (an extended/stale cache).
    CA,
}

/// One classified answer.
#[derive(Debug, Clone, Copy)]
pub struct ClassifiedAnswer {
    /// The vantage point.
    pub vp: VpKey,
    /// When the query was sent.
    pub at: SimTime,
    /// The classification.
    pub class: AnswerClass,
    /// The serial observed in the payload.
    pub serial: u16,
}

/// Aggregate counts in the shape of the paper's Table 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassificationSummary {
    /// Valid answers considered (OK answers carrying the payload).
    pub valid_answers: usize,
    /// VPs discarded for having only one answer.
    pub one_answer_vps: usize,
    /// Warm-up answers (first per VP).
    pub warmup: usize,
    /// Warm-ups whose reported TTL matched the zone TTL.
    pub warmup_ttl_as_zone: usize,
    /// Warm-ups with rewritten TTLs.
    pub warmup_ttl_altered: usize,
    /// Expected and observed authoritative.
    pub aa: usize,
    /// Cache hits.
    pub cc: usize,
    /// Cache hits where the serial went backwards (fragmentation).
    pub cc_dec: usize,
    /// Cache misses.
    pub ac: usize,
    /// Cache misses whose TTL was not rewritten (miss not explained by
    /// TTL manipulation).
    pub ac_ttl_as_zone: usize,
    /// Cache misses with rewritten TTLs.
    pub ac_ttl_altered: usize,
    /// Extended-cache answers.
    pub ca: usize,
    /// Extended-cache answers with backwards serials.
    pub ca_dec: usize,
}

impl ClassificationSummary {
    /// The cache-miss fraction the paper reports under Fig. 3:
    /// `AC / (AA + CC + AC + CA)`.
    pub fn miss_rate(&self) -> f64 {
        let total = self.aa + self.cc + self.ac + self.ca;
        if total == 0 {
            0.0
        } else {
            self.ac as f64 / total as f64
        }
    }
}

/// Full classification result.
#[derive(Debug, Clone, Default)]
pub struct Classification {
    /// Every classified answer, in per-VP time order.
    pub answers: Vec<ClassifiedAnswer>,
    /// The Table-2-shaped summary.
    pub summary: ClassificationSummary,
}

/// The classifier configuration.
#[derive(Debug, Clone, Copy)]
pub struct Classifier {
    /// Zone serial rotation interval (10 minutes in every experiment).
    pub rotation: SimDuration,
    /// The serial the zone started with.
    pub(crate) initial_serial: u16,
}

impl Default for Classifier {
    fn default() -> Self {
        Classifier {
            rotation: SimDuration::from_mins(10),
            initial_serial: 1,
        }
    }
}

impl Classifier {
    /// The serial a fresh authoritative answer carries at `t`.
    pub(crate) fn serial_at(&self, t: SimTime) -> u16 {
        self.initial_serial
            .wrapping_add((t.as_nanos() / self.rotation.as_nanos().max(1)) as u16)
    }

    /// Classifies every valid answer in `log`.
    pub fn classify(&self, log: &ProbeLog) -> Classification {
        /// (sent_at, answered_at, serial, payload_ttl, received_ttl)
        type ValidAnswer = (SimTime, SimTime, u16, u32, u32);
        // Group valid answers per VP, in time order.
        let mut per_vp: HashMap<VpKey, Vec<ValidAnswer>> = HashMap::new();
        let mut valid = 0usize;
        for r in &log.records {
            let QueryOutcome::Answer {
                aaaa: Some(addr),
                ttl: Some(received_ttl),
                ..
            } = r.outcome
            else {
                continue;
            };
            let Some(payload) = decode_probe_aaaa(addr) else {
                continue;
            };
            valid += 1;
            let answered_at = r.sent_at + r.rtt.unwrap_or(SimDuration::ZERO);
            per_vp.entry(r.vp).or_default().push((
                r.sent_at,
                answered_at,
                payload.serial,
                payload.ttl,
                received_ttl,
            ));
        }

        let mut result = Classification::default();
        result.summary.valid_answers = valid;

        let mut vps: Vec<VpKey> = per_vp.keys().copied().collect();
        vps.sort();
        for vp in vps {
            let mut answers = per_vp.remove(&vp).expect("vp exists");
            answers.sort_by_key(|a| a.0);
            if answers.len() < 2 {
                result.summary.one_answer_vps += 1;
                continue;
            }
            // Warm-up: the first answer.
            let (_, _, mut prev_serial, payload_ttl, recv_ttl) = answers[0];
            result.summary.warmup += 1;
            if ttl_altered(payload_ttl, recv_ttl) {
                result.summary.warmup_ttl_altered += 1;
            } else {
                result.summary.warmup_ttl_as_zone += 1;
            }
            result.answers.push(ClassifiedAnswer {
                vp,
                at: answers[0].0,
                class: AnswerClass::WarmUp,
                serial: prev_serial,
            });

            // The cache should hold the previous answer until this
            // time. Expectation follows the *zone* TTL (the payload TTL),
            // so a miss caused by a recursive truncating the TTL shows up
            // as AC-with-TTL-altered — exactly Table 2's accounting.
            let mut cache_until = answers[0].1 + SimDuration::from_secs(answers[0].3 as u64);

            for &(sent_at, answered_at, serial, payload_ttl, recv_ttl) in &answers[1..] {
                let expect_cache = sent_at < cache_until;
                // Observed: a fresh answer carries the serial current at
                // the moment the authoritative answered (allow the serial
                // at send time for rotation-boundary tolerance).
                let fresh_serial_now = self.serial_at(answered_at);
                let fresh_serial_sent = self.serial_at(sent_at);
                let observed_auth = serial == fresh_serial_now || serial == fresh_serial_sent;
                // A serial going *backwards* is the cache-fragmentation
                // fingerprint of §3.5.
                let dec = serial < prev_serial;

                let class = match (expect_cache, observed_auth) {
                    (true, true) => AnswerClass::AC,
                    (true, false) => AnswerClass::CC,
                    (false, true) => AnswerClass::AA,
                    (false, false) => AnswerClass::CA,
                };
                match class {
                    AnswerClass::AA => result.summary.aa += 1,
                    AnswerClass::CC => {
                        result.summary.cc += 1;
                        if dec {
                            result.summary.cc_dec += 1;
                        }
                    }
                    AnswerClass::AC => {
                        result.summary.ac += 1;
                        if ttl_altered(payload_ttl, recv_ttl) {
                            result.summary.ac_ttl_altered += 1;
                        } else {
                            result.summary.ac_ttl_as_zone += 1;
                        }
                    }
                    AnswerClass::CA => {
                        result.summary.ca += 1;
                        if dec {
                            result.summary.ca_dec += 1;
                        }
                    }
                    AnswerClass::WarmUp => unreachable!("warm-up handled above"),
                }
                result.answers.push(ClassifiedAnswer {
                    vp,
                    at: sent_at,
                    class,
                    serial,
                });

                // Update expectations: a fresh answer refreshes the cache
                // for its reported TTL; a cached answer does not extend
                // the original entry's life.
                if observed_auth {
                    cache_until = answered_at + SimDuration::from_secs(payload_ttl as u64);
                }
                prev_serial = serial;
            }
        }
        result
    }
}

/// The paper flags a TTL as altered when it deviates from the zone value
/// by more than 10%.
fn ttl_altered(payload_ttl: u32, received_ttl: u32) -> bool {
    if payload_ttl == 0 {
        return received_ttl != 0;
    }
    let diff = (payload_ttl as f64 - received_ttl as f64).abs();
    diff / payload_ttl as f64 > 0.10
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_auth::probe_aaaa;
    use dike_netsim::Addr;
    use dike_stub::QueryRecord;

    fn record(
        probe: u16,
        recursive: u8,
        round: u32,
        sent_secs: u64,
        serial: u16,
        payload_ttl: u32,
        recv_ttl: u32,
    ) -> QueryRecord {
        QueryRecord {
            vp: VpKey { probe, recursive },
            recursive: Addr(99),
            round,
            sent_at: SimDuration::from_secs(sent_secs).after_zero(),
            outcome: QueryOutcome::Answer {
                rcode: dike_wire::Rcode::NoError,
                aaaa: Some(probe_aaaa(serial, probe, payload_ttl)),
                ttl: Some(recv_ttl),
            },
            rtt: Some(SimDuration::from_millis(20)),
        }
    }

    fn classify(records: Vec<QueryRecord>) -> Classification {
        let log = ProbeLog { records };
        Classifier::default().classify(&log)
    }

    #[test]
    fn perfect_cache_yields_cc() {
        // TTL 3600, queries at 0 and 1200 s: second answer cached (same
        // serial, decremented TTL).
        let c = classify(vec![
            record(1, 0, 0, 0, 1, 3600, 3600),
            record(1, 0, 1, 1200, 1, 3600, 2400),
        ]);
        assert_eq!(c.summary.warmup, 1);
        assert_eq!(c.summary.cc, 1);
        assert_eq!(c.summary.ac, 0);
        assert_eq!(c.summary.miss_rate(), 0.0);
    }

    #[test]
    fn expired_ttl_yields_aa() {
        // TTL 60, queries at 0 and 1200 s: second must be fresh. At
        // t=1200 the serial has rotated twice (1 → 3).
        let c = classify(vec![
            record(1, 0, 0, 0, 1, 60, 60),
            record(1, 0, 1, 1200, 3, 60, 60),
        ]);
        assert_eq!(c.summary.aa, 1);
        assert_eq!(c.summary.cc, 0);
    }

    #[test]
    fn cache_miss_yields_ac() {
        // TTL 3600 but the second answer is fresh (serial rotated):
        // expected cache, observed authoritative.
        let c = classify(vec![
            record(1, 0, 0, 0, 1, 3600, 3600),
            record(1, 0, 1, 1200, 3, 3600, 3600),
        ]);
        assert_eq!(c.summary.ac, 1);
        assert_eq!(c.summary.ac_ttl_as_zone, 1);
        assert!(c.summary.miss_rate() > 0.99);
    }

    #[test]
    fn stale_answer_yields_ca() {
        // TTL 60; at t=1200 the cache should be long empty, but the
        // answer still carries serial 1: extended cache (serve-stale).
        let c = classify(vec![
            record(1, 0, 0, 0, 1, 60, 60),
            record(1, 0, 1, 1200, 1, 60, 0),
        ]);
        assert_eq!(c.summary.ca, 1);
    }

    #[test]
    fn ttl_rewriting_is_flagged_on_warmup() {
        // Zone TTL 3600 but the recursive reports 60: a capper.
        let c = classify(vec![
            record(1, 0, 0, 0, 1, 3600, 60),
            record(1, 0, 1, 1200, 3, 3600, 60),
        ]);
        assert_eq!(c.summary.warmup_ttl_altered, 1);
        assert_eq!(c.summary.warmup_ttl_as_zone, 0);
    }

    #[test]
    fn ttl_within_ten_percent_is_as_zone() {
        // 3595 on a 3600 zone TTL: normal decrementing, not rewriting.
        let c = classify(vec![
            record(1, 0, 0, 0, 1, 3600, 3595),
            record(1, 0, 1, 1200, 1, 3600, 2395),
        ]);
        assert_eq!(c.summary.warmup_ttl_as_zone, 1);
    }

    #[test]
    fn serial_regression_marks_fragmentation() {
        // Answers with serials 3 then 1: the second VP answer comes from
        // a different, older cache fragment.
        let c = classify(vec![
            record(1, 0, 0, 1300, 3, 3600, 3600),
            record(1, 0, 1, 2500, 1, 3600, 2400),
        ]);
        assert_eq!(c.summary.cc, 1);
        assert_eq!(c.summary.cc_dec, 1);
    }

    #[test]
    fn one_answer_vps_are_discarded() {
        let c = classify(vec![record(1, 0, 0, 0, 1, 3600, 3600)]);
        assert_eq!(c.summary.one_answer_vps, 1);
        assert_eq!(c.summary.warmup, 0);
        assert!(c.answers.is_empty());
    }

    #[test]
    fn vps_are_classified_independently() {
        let c = classify(vec![
            record(1, 0, 0, 0, 1, 3600, 3600),
            record(1, 1, 0, 0, 1, 3600, 3600),
            record(1, 0, 1, 1200, 1, 3600, 2400), // CC on vp (1,0)
            record(1, 1, 1, 1200, 3, 3600, 3600), // AC on vp (1,1)
        ]);
        assert_eq!(c.summary.warmup, 2);
        assert_eq!(c.summary.cc, 1);
        assert_eq!(c.summary.ac, 1);
    }

    #[test]
    fn serial_at_rotates_every_interval() {
        let cl = Classifier::default();
        assert_eq!(cl.serial_at(SimTime::ZERO), 1);
        assert_eq!(cl.serial_at(SimDuration::from_secs(599).after_zero()), 1);
        assert_eq!(cl.serial_at(SimDuration::from_secs(600).after_zero()), 2);
        assert_eq!(cl.serial_at(SimDuration::from_mins(60).after_zero()), 7);
    }

    #[test]
    fn timeouts_and_servfails_are_not_valid_answers() {
        let mut r1 = record(1, 0, 0, 0, 1, 3600, 3600);
        r1.outcome = QueryOutcome::Timeout;
        let mut r2 = record(1, 0, 1, 1200, 1, 3600, 2400);
        r2.outcome = QueryOutcome::Answer {
            rcode: dike_wire::Rcode::ServFail,
            aaaa: None,
            ttl: None,
        };
        let c = classify(vec![r1, r2]);
        assert_eq!(c.summary.valid_answers, 0);
    }
}

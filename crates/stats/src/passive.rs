//! Passive-trace analysis — the paper's §4.1 ENTRADA methodology.
//!
//! The paper mines six hours of traffic captured at the `.nl`
//! authoritatives: "for each target name in the zone and source ... we
//! build a timeseries of all requests and compute their interarrival
//! time Δ", labels queries `AC` (Δ < TTL: an unnecessary refetch) or `AA`
//! (Δ ≥ TTL), excludes sub-10-second parallel queries, and plots the
//! ECDF of each recursive's median Δt (Figure 4).
//!
//! [`PassiveAnalyzer`] is that pipeline as a [`TraceSink`]: attach it to
//! a simulation, let traffic flow, then read the same statistics the
//! paper computed.

use std::collections::HashMap;

use dike_netsim::trace::{Disposition, TraceSink};
use dike_netsim::{Addr, SimTime};
use dike_wire::{Message, Name, RecordType};

use crate::ecdf::Ecdf;

/// The §4.1 statistics extracted from a capture.
#[derive(Debug, Clone)]
pub struct PassiveReport {
    /// Sources that sent at least `min_queries`.
    pub analyzed_sources: usize,
    /// Sources discarded for sending fewer.
    pub discarded_sources: usize,
    /// All queries observed (for the watched names).
    pub total_queries: usize,
    /// Fraction of inter-arrivals under 10 s (parallel queries).
    pub frac_under_10s: f64,
    /// Inter-arrivals with Δ < TTL (unnecessary refetches), after the
    /// <10 s exclusion — the paper's `AC` label.
    pub ac_intervals: usize,
    /// Inter-arrivals with Δ ≥ TTL — the paper's `AA` label.
    pub aa_intervals: usize,
    /// ECDF of per-source median Δt (seconds), the Figure 4 curve.
    pub median_dt_ecdf: Ecdf,
}

impl PassiveReport {
    /// Fraction of resolvers whose median Δt sits within ±10% of `ttl` —
    /// the "peak at the TTL" measure.
    pub fn frac_at(&self, ttl: f64) -> f64 {
        if self.median_dt_ecdf.is_empty() {
            return 0.0;
        }
        let hi = self.median_dt_ecdf.at(ttl * 1.1);
        let lo = self.median_dt_ecdf.at(ttl * 0.9);
        hi - lo
    }
}

/// A capture-and-analyze sink for queries of one type to a set of watched
/// names at a set of server addresses.
#[derive(Debug)]
pub struct PassiveAnalyzer {
    servers: Vec<Addr>,
    names: Vec<Name>,
    qtype: RecordType,
    /// (source, name index) → query timestamps (seconds).
    series: HashMap<(Addr, usize), Vec<f64>>,
    total: usize,
}

impl PassiveAnalyzer {
    /// Watches `names`/`qtype` queries arriving at `servers`.
    pub fn new(
        servers: impl IntoIterator<Item = Addr>,
        names: impl IntoIterator<Item = Name>,
        qtype: RecordType,
    ) -> Self {
        PassiveAnalyzer {
            servers: servers.into_iter().collect(),
            names: names.into_iter().collect(),
            qtype,
            series: HashMap::new(),
            total: 0,
        }
    }

    /// Runs the §4.1 analysis: `ttl` is the zone TTL for AA/AC labeling,
    /// `min_queries` the per-source inclusion threshold (the paper uses 5).
    pub fn analyze(&self, ttl: u32, min_queries: usize) -> PassiveReport {
        // Group per source across names.
        let mut per_source: HashMap<Addr, Vec<&Vec<f64>>> = HashMap::new();
        for ((src, _), stamps) in &self.series {
            per_source.entry(*src).or_default().push(stamps);
        }

        let mut analyzed = 0usize;
        let mut discarded = 0usize;
        let mut under_10 = 0usize;
        let mut intervals = 0usize;
        let mut ac = 0usize;
        let mut aa = 0usize;
        let mut medians = Vec::new();

        for (_, name_series) in per_source {
            let n: usize = name_series.iter().map(|s| s.len()).sum();
            if n < min_queries {
                discarded += 1;
                continue;
            }
            analyzed += 1;
            let mut gaps: Vec<f64> = Vec::new();
            for stamps in name_series {
                let mut s = stamps.clone();
                s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                gaps.extend(s.windows(2).map(|w| w[1] - w[0]));
            }
            intervals += gaps.len();
            under_10 += gaps.iter().filter(|&&g| g < 10.0).count();
            gaps.retain(|&g| g >= 10.0);
            for &g in &gaps {
                if g < ttl as f64 {
                    ac += 1;
                } else {
                    aa += 1;
                }
            }
            if !gaps.is_empty() {
                gaps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                medians.push(gaps[gaps.len() / 2]);
            }
        }

        PassiveReport {
            analyzed_sources: analyzed,
            discarded_sources: discarded,
            total_queries: self.total,
            frac_under_10s: if intervals == 0 {
                0.0
            } else {
                under_10 as f64 / intervals as f64
            },
            ac_intervals: ac,
            aa_intervals: aa,
            median_dt_ecdf: Ecdf::of(&medians),
        }
    }
}

impl TraceSink for PassiveAnalyzer {
    fn observe(
        &mut self,
        now: SimTime,
        src: Addr,
        dst: Addr,
        msg: Option<&Message>,
        _wire_len: usize,
        _disposition: Disposition,
    ) {
        let Some(msg) = msg else {
            return;
        };
        if msg.is_response || !self.servers.contains(&dst) {
            return;
        }
        let Some(q) = msg.question() else {
            return;
        };
        if q.qtype != self.qtype {
            return;
        }
        let Some(idx) = self.names.iter().position(|n| *n == q.name) else {
            return;
        };
        self.total += 1;
        self.series
            .entry((src, idx))
            .or_default()
            .push(now.as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(name: &str) -> Message {
        Message::iterative_query(1, Name::parse(name).unwrap(), RecordType::A)
    }

    fn observe_at(an: &mut PassiveAnalyzer, src: u32, name: &str, secs: f64) {
        an.observe(
            SimTime::from_nanos((secs * 1e9) as u64),
            Addr(src),
            Addr(9),
            Some(&q(name)),
            40,
            Disposition::Delivered,
        );
    }

    fn analyzer() -> PassiveAnalyzer {
        PassiveAnalyzer::new(
            [Addr(9)],
            [
                Name::parse("ns1.dns.nl").unwrap(),
                Name::parse("ns2.dns.nl").unwrap(),
            ],
            RecordType::A,
        )
    }

    #[test]
    fn honoring_source_is_labeled_aa_with_median_at_ttl() {
        let mut an = analyzer();
        for k in 0..6 {
            observe_at(&mut an, 1, "ns1.dns.nl", 3600.0 * k as f64);
        }
        let r = an.analyze(3600, 5);
        assert_eq!(r.analyzed_sources, 1);
        assert_eq!(r.aa_intervals, 5);
        assert_eq!(r.ac_intervals, 0);
        assert!(r.frac_at(3600.0) > 0.99);
    }

    #[test]
    fn early_refetchers_are_labeled_ac() {
        let mut an = analyzer();
        for k in 0..6 {
            observe_at(&mut an, 2, "ns1.dns.nl", 1800.0 * k as f64);
        }
        let r = an.analyze(3600, 5);
        assert_eq!(r.ac_intervals, 5);
        assert_eq!(r.aa_intervals, 0);
    }

    #[test]
    fn parallel_queries_are_excluded_from_medians() {
        let mut an = analyzer();
        // Pairs of queries 2 s apart, pairs spaced a TTL apart.
        for k in 0..5 {
            let base = 3600.0 * k as f64;
            observe_at(&mut an, 3, "ns1.dns.nl", base);
            observe_at(&mut an, 3, "ns1.dns.nl", base + 2.0);
        }
        let r = an.analyze(3600, 5);
        assert!(r.frac_under_10s > 0.4, "{}", r.frac_under_10s);
        // The median is computed on the >=10 s gaps only: ~3598 s.
        assert!(r.frac_at(3600.0) > 0.99);
    }

    #[test]
    fn per_name_series_are_independent() {
        let mut an = analyzer();
        // Alternating names every 1800 s: per-name Δ is 3600 s.
        for k in 0..6 {
            let name = if k % 2 == 0 {
                "ns1.dns.nl"
            } else {
                "ns2.dns.nl"
            };
            observe_at(&mut an, 4, name, 1800.0 * k as f64);
        }
        let r = an.analyze(3600, 5);
        assert_eq!(r.ac_intervals, 0, "per-name gaps are a full TTL");
        assert_eq!(r.aa_intervals, 4);
    }

    #[test]
    fn sparse_sources_are_discarded() {
        let mut an = analyzer();
        observe_at(&mut an, 5, "ns1.dns.nl", 0.0);
        observe_at(&mut an, 5, "ns1.dns.nl", 3600.0);
        let r = an.analyze(3600, 5);
        assert_eq!(r.analyzed_sources, 0);
        assert_eq!(r.discarded_sources, 1);
    }

    #[test]
    fn unwatched_traffic_is_ignored() {
        let mut an = analyzer();
        // Wrong destination.
        an.observe(
            SimTime::ZERO,
            Addr(1),
            Addr(8),
            Some(&q("ns1.dns.nl")),
            40,
            Disposition::Delivered,
        );
        // Wrong name.
        observe_at(&mut an, 1, "other.dns.nl", 0.0);
        // Wrong type.
        let mut aaaa = q("ns1.dns.nl");
        aaaa.questions[0].qtype = RecordType::AAAA;
        an.observe(
            SimTime::ZERO,
            Addr(1),
            Addr(9),
            Some(&aaaa),
            40,
            Disposition::Delivered,
        );
        assert_eq!(an.analyze(3600, 1).total_queries, 0);
    }
}

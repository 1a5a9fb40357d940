//! Passive-trace analysis — the paper's §4.1 ENTRADA methodology.
//!
//! The paper mines six hours of traffic captured at the `.nl`
//! authoritatives: "for each target name in the zone and source ... we
//! build a timeseries of all requests and compute their interarrival
//! time Δ", labels queries `AC` (Δ < TTL: an unnecessary refetch) or `AA`
//! (Δ ≥ TTL), excludes sub-10-second parallel queries, and plots the
//! ECDF of each recursive's median Δt (Figure 4).
//!
//! [`PassiveTally`] is the per-source step of that pipeline and
//! [`PassiveAnalyzer`] the capture in front of it, as a [`TraceSink`]:
//! attach it to a simulation, let traffic flow, then read the same
//! statistics the paper computed.

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
    /// Queries sent by the analyzed sources.
    pub total_queries: usize,
    /// Inter-arrivals under 10 s (parallel queries), as a fraction of
    /// `total_queries` (paper: ~28%).
    pub frac_under_10s: f64,
    /// Inter-arrivals with Δ < TTL (unnecessary refetches), after the
    /// <10 s exclusion — the paper's `AC` label.
    pub ac_intervals: usize,
    /// Inter-arrivals with Δ ≥ TTL — the paper's `AA` label.
    pub aa_intervals: usize,
    /// ECDF of per-source median Δt (seconds), the Figure 4 curve.
    pub median_dt_ecdf: Ecdf,
    /// Fraction of those medians with |Δt − TTL| < TTL/10 — the
    /// paper's "largest peak is at 3600 s".
    pub frac_at_ttl: f64,
    /// Fraction with |Δt − TTL/2| < TTL/10 (the paper's smaller peak
    /// around 1800 s).
    pub frac_at_half_ttl: f64,
}

/// The per-source step of the §4.1 analysis, as an accumulator: feed it
/// each source's query timestamps with [`PassiveTally::add_source`],
/// then read the [`PassiveReport`]. [`PassiveAnalyzer`] feeds it from a
/// captured trace; the Figure 4 generator feeds it directly.
#[derive(Debug, Default)]
pub struct PassiveTally {
    ttl: f64,
    min_queries: usize,
    analyzed: usize,
    total: usize,
    under_10: usize,
    ac: usize,
    aa: usize,
    medians: Vec<f64>,
}

impl PassiveTally {
    /// `ttl` is the zone TTL for AA/AC labeling and the peaks,
    /// `min_queries` the per-source inclusion threshold (the paper
    /// uses 5).
    pub fn new(ttl: u32, min_queries: usize) -> Self {
        PassiveTally {
            ttl: ttl as f64,
            min_queries,
            ..PassiveTally::default()
        }
    }

    /// Adds one source: its query timestamps in seconds, one series per
    /// watched name (inter-arrivals are taken per name, then pooled),
    /// each in any order.
    pub fn add_source(&mut self, per_name: &[Vec<f64>]) {
        let n: usize = per_name.iter().map(Vec::len).sum();
        if n < self.min_queries {
            return;
        }
        self.analyzed += 1;
        self.total += n;
        let mut gaps: Vec<f64> = Vec::new();
        for stamps in per_name {
            let mut s = stamps.clone();
            s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            gaps.extend(s.windows(2).map(|w| w[1] - w[0]));
        }
        self.under_10 += gaps.iter().filter(|&&g| g < 10.0).count();
        // The paper excludes the parallel (<10 s) queries before taking
        // the median.
        gaps.retain(|&g| g >= 10.0);
        let early = gaps.iter().filter(|&&g| g < self.ttl).count();
        self.ac += early;
        self.aa += gaps.len() - early;
        if !gaps.is_empty() {
            gaps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            self.medians.push(gaps[gaps.len() / 2]);
        }
    }

    /// The statistics over every source added so far.
    pub fn report(&self) -> PassiveReport {
        let share = |k: usize, of: usize| if of == 0 { 0.0 } else { k as f64 / of as f64 };
        let near = |center: f64| {
            let n = self
                .medians
                .iter()
                .filter(|&&m| (m - center).abs() < self.ttl * 0.10);
            share(n.count(), self.medians.len())
        };
        PassiveReport {
            analyzed_sources: self.analyzed,
            total_queries: self.total,
            frac_under_10s: share(self.under_10, self.total),
            ac_intervals: self.ac,
            aa_intervals: self.aa,
            median_dt_ecdf: Ecdf::of(&self.medians),
            frac_at_ttl: near(self.ttl),
            frac_at_half_ttl: near(self.ttl / 2.0),
        }
    }
}

/// A capture-and-analyze sink for queries of one type to a set of watched
/// names at a set of server addresses.
#[derive(Debug)]
pub struct PassiveAnalyzer {
    servers: Vec<Addr>,
    names: Vec<Name>,
    qtype: RecordType,
    /// Per source, one timestamp series (seconds) per watched name.
    series: HashMap<Addr, Vec<Vec<f64>>>,
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
        }
    }

    /// Runs the §4.1 analysis on everything captured ([`PassiveTally`]
    /// has the definitions).
    pub fn analyze(&self, ttl: u32, min_queries: usize) -> PassiveReport {
        let mut tally = PassiveTally::new(ttl, min_queries);
        for per_name in self.series.values() {
            tally.add_source(per_name);
        }
        tally.report()
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
        let names = self.names.len();
        self.series
            .entry(src)
            .or_insert_with(|| vec![Vec::new(); names])[idx]
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
        assert!(r.frac_at_ttl > 0.99);
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
        assert!(r.frac_at_ttl > 0.99);
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
        assert_eq!(r.total_queries, 0, "none of its queries counted");
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

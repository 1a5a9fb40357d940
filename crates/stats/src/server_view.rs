//! Authoritative-side traffic accounting (Figures 10–12, Table 7).
//!
//! A [`ServerView`] is a [`TraceSink`]: it watches every datagram offered
//! to the authoritative servers' ingress — *including those the emulated
//! DDoS drops*, matching the paper's "we measure queries before they are
//! dropped" (§6.1) — and aggregates:
//!
//! * query counts by type per time bin: `NS`, `A-for-NS`, `AAAA-for-NS`
//!   and `AAAA-for-PID` (Fig. 10);
//! * unique recursive (Rn) source addresses per bin (Fig. 12);
//! * per-probe-id Rn fan-out and query counts (Fig. 11, Table 7).

use dike_netsim::trace::{Disposition, TraceSink};
use dike_netsim::{Addr, SimDuration, SimTime};
use dike_telemetry::hash::{FastMap, FastSet};
use dike_wire::{Message, RecordType};

use crate::quantile::quantile;

/// The paper's query-type breakdown for authoritative-side traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerQueryType {
    /// NS queries for the zone.
    Ns,
    /// A queries for a name server's name.
    AForNs,
    /// AAAA queries for a name server's name (negative answers on the
    /// paper's IPv4-only authoritatives).
    AaaaForNs,
    /// AAAA queries for a probe name (`{pid}.cachetest.nl`) — the target
    /// queries.
    AaaaForPid {
        /// The probe id extracted from the name.
        pid: u16,
    },
    /// Anything else (SOA refreshes, DS lookups, ...).
    Other,
}

/// Classifies a query the way the paper's Fig. 10 legend does.
pub fn classify_server_query(msg: &Message) -> Option<ServerQueryType> {
    if msg.is_response {
        return None;
    }
    let q = msg.question()?;
    let first_label = q.name.labels().next();
    let numeric_pid = first_label.and_then(|l| {
        std::str::from_utf8(l)
            .ok()
            .and_then(|s| s.parse::<u16>().ok())
    });
    let looks_like_ns = first_label.map(|l| l.starts_with(b"ns")).unwrap_or(false);
    Some(match (q.qtype, numeric_pid, looks_like_ns) {
        (RecordType::NS, _, _) => ServerQueryType::Ns,
        (RecordType::AAAA, Some(pid), _) => ServerQueryType::AaaaForPid { pid },
        (RecordType::AAAA, None, true) => ServerQueryType::AaaaForNs,
        (RecordType::A, None, true) => ServerQueryType::AForNs,
        _ => ServerQueryType::Other,
    })
}

/// Per-bin query counts by type, plus unique sources.
#[derive(Debug, Clone, Default)]
pub struct ServerBin {
    /// Bin start, minutes.
    pub start_min: u64,
    /// NS queries.
    pub ns: usize,
    /// A-for-NS queries.
    pub a_for_ns: usize,
    /// AAAA-for-NS queries.
    pub aaaa_for_ns: usize,
    /// AAAA-for-PID (target) queries.
    pub aaaa_for_pid: usize,
    /// Everything else.
    pub other: usize,
    /// Distinct recursive addresses seen this bin.
    pub sources: FastSet<Addr>,
}

impl ServerBin {
    /// All queries in the bin.
    pub fn total(&self) -> usize {
        self.ns + self.a_for_ns + self.aaaa_for_ns + self.aaaa_for_pid + self.other
    }
}

/// Fig. 11's per-bin distribution over probes: median / 90th / max of the
/// number of distinct Rn used per probe and of AAAA-for-PID queries per
/// probe.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AmplificationBin {
    /// Bin start, minutes.
    pub start_min: u64,
    /// Median distinct Rn per probe id.
    pub rn_median: f64,
    /// 90th-percentile distinct Rn per probe id.
    pub rn_p90: f64,
    /// Maximum distinct Rn per probe id.
    pub rn_max: f64,
    /// Median AAAA-for-PID queries per probe id.
    pub queries_median: f64,
    /// 90th-percentile queries per probe id.
    pub queries_p90: f64,
    /// Maximum queries per probe id.
    pub queries_max: f64,
}

/// One probe id's AAAA-for-PID traffic: its distinct `(bin, source)`
/// pairs and its queries per bin, both sorted by bin (Fig. 11, and the
/// sources behind §3's Google split).
#[derive(Debug, Default)]
struct ProbeTraffic {
    /// Distinct `(bin, source)` pairs, ascending.
    sources: Vec<(u32, Addr)>,
    /// `(bin, queries)`, ascending by bin; the same bins as `sources`.
    queries: Vec<(u32, u32)>,
}

impl ProbeTraffic {
    /// Counts one query from `src` in `bin`. Traffic mostly arrives in
    /// time order, so both inserts are appends or land in the last bin;
    /// the sharded engine's sinks interleave, and any order gives the
    /// same vectors.
    fn record(&mut self, bin: u32, src: Addr) {
        if let Err(at) = self.sources.binary_search(&(bin, src)) {
            self.sources.insert(at, (bin, src));
        }
        match self.queries.binary_search_by_key(&bin, |&(b, _)| b) {
            Ok(at) => self.queries[at].1 += 1,
            Err(at) => self.queries.insert(at, (bin, 1)),
        }
    }
}

/// The authoritative-side sink.
#[derive(Debug)]
pub struct ServerView {
    auth_addrs: FastSet<Addr>,
    bin_width_min: u64,
    bins: Vec<ServerBin>,
    /// pid → its AAAA-for-PID sources and query counts per bin.
    per_probe: FastMap<u16, ProbeTraffic>,
    /// pid → every (bin, source, delivered) tuple — Table 7 drill-down.
    drilldown: FastMap<u16, Vec<(usize, Addr, bool)>>,
    drilldown_pids: FastSet<u16>,
    /// Total queries offered (any type).
    pub total_queries: u64,
}

impl ServerView {
    /// A view over the given authoritative addresses, binned at
    /// `bin_width`.
    pub fn new(auth_addrs: impl IntoIterator<Item = Addr>, bin_width: SimDuration) -> Self {
        ServerView {
            auth_addrs: auth_addrs.into_iter().collect(),
            bin_width_min: (bin_width.as_secs() / 60).max(1),
            bins: Vec::new(),
            per_probe: FastMap::default(),
            drilldown: FastMap::default(),
            drilldown_pids: FastSet::default(),
            total_queries: 0,
        }
    }

    /// Enables full per-query recording for one probe id (Table 7).
    pub fn track_probe(&mut self, pid: u16) {
        self.drilldown_pids.insert(pid);
    }

    /// The per-bin type breakdown (Fig. 10) and unique sources (Fig. 12).
    pub fn bins(&self) -> &[ServerBin] {
        &self.bins
    }

    /// Fig. 11's per-probe amplification distribution, one entry per bin,
    /// from one pass over the probes.
    pub fn amplification(&self) -> Vec<AmplificationBin> {
        let nbins = self.bins.len();
        let mut rn_counts = vec![Vec::new(); nbins];
        let mut q_counts = vec![Vec::new(); nbins];
        for probe in self.per_probe.values() {
            let mut sources = probe.sources.as_slice();
            for &(bin, queries) in &probe.queries {
                let rn = sources.partition_point(|&(b, _)| b == bin);
                sources = &sources[rn..];
                rn_counts[bin as usize].push(rn as f64);
                q_counts[bin as usize].push(queries as f64);
            }
        }
        let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        (0..nbins)
            .map(|bin| {
                let (rn, q) = (&rn_counts[bin], &q_counts[bin]);
                AmplificationBin {
                    start_min: bin as u64 * self.bin_width_min,
                    rn_median: quantile(rn, 0.5).unwrap_or(0.0),
                    rn_p90: quantile(rn, 0.9).unwrap_or(0.0),
                    rn_max: max(rn),
                    queries_median: quantile(q, 0.5).unwrap_or(0.0),
                    queries_p90: quantile(q, 0.9).unwrap_or(0.0),
                    queries_max: max(q),
                }
            })
            .collect()
    }

    /// Table 7 rows for a tracked probe: per bin, the number of queries
    /// reaching the authoritatives, how many were delivered, and the
    /// distinct Rn used.
    pub fn probe_rows(&self, pid: u16) -> Vec<(u64, usize, usize, usize)> {
        let Some(events) = self.drilldown.get(&pid) else {
            return Vec::new();
        };
        let nbins = self.bins.len();
        let mut rows = Vec::new();
        for bin in 0..nbins {
            let in_bin: Vec<_> = events.iter().filter(|(b, _, _)| *b == bin).collect();
            let queries = in_bin.len();
            let delivered = in_bin.iter().filter(|(_, _, d)| *d).count();
            let mut rn: Vec<Addr> = in_bin.iter().map(|(_, a, _)| *a).collect();
            rn.sort();
            rn.dedup();
            rows.push((
                bin as u64 * self.bin_width_min,
                queries,
                delivered,
                rn.len(),
            ));
        }
        rows
    }

    /// Every distinct source that asked for `pid`'s name, across bins,
    /// ascending.
    pub fn probe_sources(&self, pid: u16) -> Vec<Addr> {
        let Some(probe) = self.per_probe.get(&pid) else {
            return Vec::new();
        };
        let mut out: Vec<Addr> = probe.sources.iter().map(|&(_, src)| src).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl TraceSink for ServerView {
    fn observe(
        &mut self,
        now: SimTime,
        src: Addr,
        dst: Addr,
        msg: Option<&Message>,
        _wire_len: usize,
        disposition: Disposition,
    ) {
        if !self.auth_addrs.contains(&dst) {
            return;
        }
        let Some(qtype) = msg.and_then(classify_server_query) else {
            return;
        };
        self.total_queries += 1;
        let bin_idx = (now.as_mins() / self.bin_width_min) as usize;
        if self.bins.len() <= bin_idx {
            self.bins.resize_with(bin_idx + 1, ServerBin::default);
            for (i, b) in self.bins.iter_mut().enumerate() {
                b.start_min = i as u64 * self.bin_width_min;
            }
        }
        let bin = &mut self.bins[bin_idx];
        bin.sources.insert(src);
        match qtype {
            ServerQueryType::Ns => bin.ns += 1,
            ServerQueryType::AForNs => bin.a_for_ns += 1,
            ServerQueryType::AaaaForNs => bin.aaaa_for_ns += 1,
            ServerQueryType::AaaaForPid { pid } => {
                bin.aaaa_for_pid += 1;
                let bin32 = u32::try_from(bin_idx).expect("bin index fits u32");
                self.per_probe.entry(pid).or_default().record(bin32, src);
                if self.drilldown_pids.contains(&pid) {
                    self.drilldown.entry(pid).or_default().push((
                        bin_idx,
                        src,
                        disposition == Disposition::Delivered,
                    ));
                }
            }
            ServerQueryType::Other => bin.other += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_wire::{Message, Name, RecordType};

    fn q(name: &str, qtype: RecordType) -> Message {
        Message::iterative_query(1, Name::parse(name).unwrap(), qtype)
    }

    #[test]
    fn query_type_classification() {
        assert_eq!(
            classify_server_query(&q("cachetest.nl", RecordType::NS)),
            Some(ServerQueryType::Ns)
        );
        assert_eq!(
            classify_server_query(&q("ns1.cachetest.nl", RecordType::A)),
            Some(ServerQueryType::AForNs)
        );
        assert_eq!(
            classify_server_query(&q("ns2.cachetest.nl", RecordType::AAAA)),
            Some(ServerQueryType::AaaaForNs)
        );
        assert_eq!(
            classify_server_query(&q("1414.cachetest.nl", RecordType::AAAA)),
            Some(ServerQueryType::AaaaForPid { pid: 1414 })
        );
        assert_eq!(
            classify_server_query(&q("cachetest.nl", RecordType::SOA)),
            Some(ServerQueryType::Other)
        );
        // Responses are not queries.
        let mut resp = q("1.cachetest.nl", RecordType::AAAA);
        resp.is_response = true;
        assert_eq!(classify_server_query(&resp), None);
    }

    #[test]
    fn sink_counts_offered_queries_even_when_dropped() {
        let auth = Addr(9);
        let mut view = ServerView::new([auth], SimDuration::from_mins(10));
        let msg = q("7.cachetest.nl", RecordType::AAAA);
        view.observe(
            SimTime::ZERO,
            Addr(1),
            auth,
            Some(&msg),
            40,
            Disposition::Delivered,
        );
        view.observe(
            SimDuration::from_mins(1).after_zero(),
            Addr(2),
            auth,
            Some(&msg),
            40,
            Disposition::Dropped,
        );
        // Traffic to some other node is ignored.
        view.observe(
            SimTime::ZERO,
            Addr(1),
            Addr(8),
            Some(&msg),
            40,
            Disposition::Delivered,
        );
        assert_eq!(view.total_queries, 2);
        assert_eq!(view.bins()[0].aaaa_for_pid, 2);
        assert_eq!(view.bins()[0].sources.len(), 2);
    }

    #[test]
    fn amplification_tracks_rn_per_probe() {
        let auth = Addr(9);
        let mut view = ServerView::new([auth], SimDuration::from_mins(10));
        let msg7 = q("7.cachetest.nl", RecordType::AAAA);
        let msg8 = q("8.cachetest.nl", RecordType::AAAA);
        // Probe 7: 3 queries from 2 Rn; probe 8: 1 query from 1 Rn.
        for src in [Addr(1), Addr(1), Addr(2)] {
            view.observe(
                SimTime::ZERO,
                src,
                auth,
                Some(&msg7),
                40,
                Disposition::Delivered,
            );
        }
        view.observe(
            SimTime::ZERO,
            Addr(3),
            auth,
            Some(&msg8),
            40,
            Disposition::Delivered,
        );
        let amp = view.amplification();
        assert_eq!(amp.len(), 1);
        assert_eq!(amp[0].rn_max, 2.0);
        assert_eq!(amp[0].queries_max, 3.0);
        assert_eq!(amp[0].rn_median, 1.5);
    }

    #[test]
    fn drilldown_records_tracked_probe_only() {
        let auth = Addr(9);
        let mut view = ServerView::new([auth], SimDuration::from_mins(10));
        view.track_probe(7);
        let msg7 = q("7.cachetest.nl", RecordType::AAAA);
        let msg8 = q("8.cachetest.nl", RecordType::AAAA);
        view.observe(
            SimTime::ZERO,
            Addr(1),
            auth,
            Some(&msg7),
            40,
            Disposition::Delivered,
        );
        view.observe(
            SimTime::ZERO,
            Addr(2),
            auth,
            Some(&msg7),
            40,
            Disposition::Dropped,
        );
        view.observe(
            SimTime::ZERO,
            Addr(3),
            auth,
            Some(&msg8),
            40,
            Disposition::Delivered,
        );
        let rows = view.probe_rows(7);
        assert_eq!(rows.len(), 1);
        // (start_min, queries, delivered, unique rn)
        assert_eq!(rows[0], (0, 2, 1, 2));
        assert!(view.probe_rows(8).is_empty(), "untracked probe");
    }

    #[test]
    fn unique_sources_across_bins() {
        let auth = Addr(9);
        let mut view = ServerView::new([auth], SimDuration::from_mins(10));
        let msg = q("7.cachetest.nl", RecordType::AAAA);
        view.observe(
            SimTime::ZERO,
            Addr(1),
            auth,
            Some(&msg),
            40,
            Disposition::Delivered,
        );
        view.observe(
            SimDuration::from_mins(15).after_zero(),
            Addr(1),
            auth,
            Some(&msg),
            40,
            Disposition::Delivered,
        );
        view.observe(
            SimDuration::from_mins(15).after_zero(),
            Addr(2),
            auth,
            Some(&msg),
            40,
            Disposition::Delivered,
        );
        assert_eq!(view.bins().len(), 2);
        assert_eq!(view.bins()[1].sources.len(), 2);
    }
}

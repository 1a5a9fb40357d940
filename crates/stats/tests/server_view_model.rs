//! Oracle test for [`ServerView`]: random datagram streams go to the view
//! and to a reference model side by side, and the two must report the
//! same bins, Fig. 11 amplification, per-probe sources, Table 7 rows and
//! query total.
//!
//! The model is the view's earlier design kept as plain code: one
//! `HashMap` from `(bin, pid)` to a `HashSet` of sources and a query
//! count, scanned in full for every bin and every probe. It is slow and
//! obviously right; the view under test keeps one sorted `(bin, source)`
//! vector per probe id.
//!
//! Streams arrive out of time order as often as in it (the sharded
//! engine's sinks interleave), mix delivered and dropped datagrams, every
//! query type of the Fig. 10 legend, responses and traffic to other
//! addresses, and track a random subset of probes for Table 7.
//!
//! `DIKE_CASES` scales the case count (CI runs 2000 in release).

use std::collections::{HashMap, HashSet};

use dike_netsim::trace::{Disposition, TraceSink};
use dike_netsim::{Addr, SimDuration, SimTime};
use dike_stats::quantile::quantile;
use dike_stats::server_view::{
    classify_server_query, AmplificationBin, ServerQueryType, ServerView,
};
use dike_telemetry::check::{self, Gen};
use dike_wire::{Message, Name, RecordType};

/// One bin of the model: the view's `ServerBin` with a std `HashSet`.
#[derive(Debug, Default)]
struct ModelBin {
    ns: usize,
    a_for_ns: usize,
    aaaa_for_ns: usize,
    aaaa_for_pid: usize,
    other: usize,
    sources: HashSet<Addr>,
}

/// The nested-set `ServerView` this crate used to ship.
struct Model {
    auth_addrs: HashSet<Addr>,
    bin_width_min: u64,
    bins: Vec<ModelBin>,
    per_probe: HashMap<(usize, u16), (HashSet<Addr>, usize)>,
    drilldown: HashMap<u16, Vec<(usize, Addr, bool)>>,
    drilldown_pids: HashSet<u16>,
    total_queries: u64,
}

impl Model {
    fn new(auth_addrs: &[Addr], bin_width: SimDuration) -> Self {
        Model {
            auth_addrs: auth_addrs.iter().copied().collect(),
            bin_width_min: (bin_width.as_secs() / 60).max(1),
            bins: Vec::new(),
            per_probe: HashMap::new(),
            drilldown: HashMap::new(),
            drilldown_pids: HashSet::new(),
            total_queries: 0,
        }
    }

    fn observe(
        &mut self,
        now: SimTime,
        src: Addr,
        dst: Addr,
        msg: Option<&Message>,
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
            self.bins.resize_with(bin_idx + 1, ModelBin::default);
        }
        let bin = &mut self.bins[bin_idx];
        bin.sources.insert(src);
        match qtype {
            ServerQueryType::Ns => bin.ns += 1,
            ServerQueryType::AForNs => bin.a_for_ns += 1,
            ServerQueryType::AaaaForNs => bin.aaaa_for_ns += 1,
            ServerQueryType::AaaaForPid { pid } => {
                bin.aaaa_for_pid += 1;
                let entry = self
                    .per_probe
                    .entry((bin_idx, pid))
                    .or_insert_with(|| (HashSet::new(), 0));
                entry.0.insert(src);
                entry.1 += 1;
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

    fn amplification(&self) -> Vec<AmplificationBin> {
        (0..self.bins.len())
            .map(|bin| {
                let in_bin = || self.per_probe.iter().filter(move |((b, _), _)| *b == bin);
                let rn: Vec<f64> = in_bin().map(|(_, (s, _))| s.len() as f64).collect();
                let q: Vec<f64> = in_bin().map(|(_, (_, q))| *q as f64).collect();
                AmplificationBin {
                    start_min: bin as u64 * self.bin_width_min,
                    rn_median: quantile(&rn, 0.5).unwrap_or(0.0),
                    rn_p90: quantile(&rn, 0.9).unwrap_or(0.0),
                    rn_max: rn.iter().copied().fold(0.0, f64::max),
                    queries_median: quantile(&q, 0.5).unwrap_or(0.0),
                    queries_p90: quantile(&q, 0.9).unwrap_or(0.0),
                    queries_max: q.iter().copied().fold(0.0, f64::max),
                }
            })
            .collect()
    }

    fn probe_rows(&self, pid: u16) -> Vec<(u64, usize, usize, usize)> {
        let Some(events) = self.drilldown.get(&pid) else {
            return Vec::new();
        };
        (0..self.bins.len())
            .map(|bin| {
                let in_bin: Vec<_> = events.iter().filter(|(b, _, _)| *b == bin).collect();
                let delivered = in_bin.iter().filter(|(_, _, d)| *d).count();
                let rn: HashSet<Addr> = in_bin.iter().map(|(_, a, _)| *a).collect();
                (
                    bin as u64 * self.bin_width_min,
                    in_bin.len(),
                    delivered,
                    rn.len(),
                )
            })
            .collect()
    }

    fn probe_sources(&self, pid: u16) -> Vec<Addr> {
        let mut out: Vec<Addr> = self
            .per_probe
            .iter()
            .filter(|((_, p), _)| *p == pid)
            .flat_map(|(_, (srcs, _))| srcs.iter().copied())
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        out.sort();
        out
    }
}

const AUTHS: [Addr; 2] = [Addr(900), Addr(901)];

/// A datagram's message: every Fig. 10 query type, a response, or an
/// undecodable datagram.
fn arb_msg(g: &mut Gen, pids: u16) -> Option<Message> {
    let ns = format!("ns{}.cachetest.nl", g.range(1..3u32));
    let probe = format!("{}.cachetest.nl", g.range(0..pids));
    let (name, qtype) = match g.range(0..12u32) {
        0 => ("cachetest.nl", RecordType::NS),
        1 => (ns.as_str(), RecordType::A),
        2 => (ns.as_str(), RecordType::AAAA),
        3 => ("cachetest.nl", RecordType::SOA),
        4 => return None,
        _ => (probe.as_str(), RecordType::AAAA),
    };
    let mut msg = Message::iterative_query(1, Name::parse(name).unwrap(), qtype);
    msg.is_response = g.range(0..16u32) == 0;
    Some(msg)
}

fn sorted(sources: impl IntoIterator<Item = Addr>) -> Vec<Addr> {
    let mut v: Vec<Addr> = sources.into_iter().collect();
    v.sort();
    v
}

fn assert_same(view: &ServerView, model: &Model, pids: u16, at: usize) {
    assert_eq!(view.total_queries, model.total_queries, "event {at}: total");
    assert_eq!(view.bins().len(), model.bins.len(), "event {at}: bins");
    for (i, (b, m)) in view.bins().iter().zip(&model.bins).enumerate() {
        let counts = |b: &ModelBin| (b.ns, b.a_for_ns, b.aaaa_for_ns, b.aaaa_for_pid, b.other);
        assert_eq!(
            (b.ns, b.a_for_ns, b.aaaa_for_ns, b.aaaa_for_pid, b.other),
            counts(m),
            "event {at}: bin {i} counts"
        );
        assert_eq!(b.start_min, i as u64 * model.bin_width_min);
        assert_eq!(
            sorted(b.sources.iter().copied()),
            sorted(m.sources.iter().copied()),
            "event {at}: bin {i} sources"
        );
    }
    assert_eq!(
        view.amplification(),
        model.amplification(),
        "event {at}: amplification"
    );
    for pid in 0..pids {
        assert_eq!(
            view.probe_sources(pid),
            model.probe_sources(pid),
            "event {at}: probe_sources({pid})"
        );
        assert_eq!(
            view.probe_rows(pid),
            model.probe_rows(pid),
            "event {at}: probe_rows({pid})"
        );
    }
}

#[test]
fn the_view_matches_the_reference_model() {
    check::cases(
        "the_view_matches_the_reference_model",
        check::count(256),
        |g| {
            let bin_width = SimDuration::from_mins(*g.pick(&[1, 5, 10]));
            let pids = g.range(1..12u16);
            let sources = g.range(1..10u32);
            let mut view = ServerView::new(AUTHS, bin_width);
            let mut model = Model::new(&AUTHS, bin_width);
            for pid in 0..pids {
                if g.range(0..3u32) == 0 {
                    view.track_probe(pid);
                    model.drilldown_pids.insert(pid);
                }
            }
            let in_order = g.bool();
            let mut secs = 0u64;
            let events = g.range(0..300usize);
            for at in 0..events {
                secs = if in_order {
                    secs + g.range(0..40u64)
                } else {
                    g.range(0..3_600u64)
                };
                let now = SimDuration::from_secs(secs).after_zero();
                let src = Addr(g.range(1..=sources));
                let dst = if g.range(0..8u32) == 0 {
                    Addr(7)
                } else {
                    *g.pick(&AUTHS)
                };
                let msg = arb_msg(g, pids);
                let disposition = *g.pick(&[
                    Disposition::Delivered,
                    Disposition::Dropped,
                    Disposition::Dropped,
                    Disposition::NoRoute,
                ]);
                view.observe(now, src, dst, msg.as_ref(), 40, disposition);
                model.observe(now, src, dst, msg.as_ref(), disposition);
                if g.range(0..16u32) == 0 {
                    assert_same(&view, &model, pids, at);
                }
            }
            assert_same(&view, &model, pids, events);
        },
    );
}

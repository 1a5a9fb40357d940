//! Per-round latency quantiles (Figures 9 and 15).

use dike_netsim::SimDuration;
use dike_stub::ProbeLog;

use crate::quantile::LatencySummary;

/// Latency summary for one time bin. Bins with no successful answers
/// carry `None`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBin {
    /// Bin start, minutes after experiment start.
    pub start_min: u64,
    /// Quantiles of the answered queries' RTTs, in milliseconds.
    pub summary: Option<LatencySummary>,
    /// Queries in the bin that got no answer (they have no latency but
    /// Figure 9's caption counts them).
    pub unanswered: usize,
}

/// Builds the latency timeseries: RTT quantiles of answered queries per
/// `bin_width` bin.
pub fn latency_timeseries(log: &ProbeLog, bin_width: SimDuration) -> Vec<LatencyBin> {
    let width_min = (bin_width.as_secs() / 60).max(1);
    let mut rtts: Vec<Vec<f64>> = Vec::new();
    let mut unanswered: Vec<usize> = Vec::new();
    for r in &log.records {
        let bin_idx = (r.sent_at.as_mins() / width_min) as usize;
        if rtts.len() <= bin_idx {
            rtts.resize_with(bin_idx + 1, Vec::new);
            unanswered.resize(bin_idx + 1, 0);
        }
        match r.rtt {
            Some(rtt) if r.outcome.is_ok() => rtts[bin_idx].push(rtt.as_millis_f64()),
            _ => unanswered[bin_idx] += 1,
        }
    }
    rtts.into_iter()
        .zip(unanswered)
        .enumerate()
        .map(|(i, (values, unanswered))| LatencyBin {
            start_min: i as u64 * width_min,
            summary: LatencySummary::of(&values),
            unanswered,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_netsim::Addr;
    use dike_stub::{QueryOutcome, QueryRecord, VpKey};
    use dike_wire::Rcode;

    fn rec(sent_min: u64, rtt_ms: Option<u64>) -> QueryRecord {
        QueryRecord {
            vp: VpKey {
                probe: 1,
                recursive: 0,
            },
            recursive: Addr(1),
            round: 0,
            sent_at: SimDuration::from_mins(sent_min).after_zero(),
            outcome: match rtt_ms {
                Some(_) => QueryOutcome::Answer {
                    rcode: Rcode::NoError,
                    aaaa: Some(std::net::Ipv6Addr::LOCALHOST),
                    ttl: Some(60),
                },
                None => QueryOutcome::Timeout,
            },
            rtt: rtt_ms.map(SimDuration::from_millis),
        }
    }

    #[test]
    fn quantiles_per_bin() {
        let log = ProbeLog {
            records: vec![
                rec(0, Some(10)),
                rec(1, Some(20)),
                rec(2, Some(30)),
                rec(3, None),
                rec(12, Some(100)),
            ],
        };
        let bins = latency_timeseries(&log, SimDuration::from_mins(10));
        assert_eq!(bins.len(), 2);
        let s0 = bins[0].summary.unwrap();
        assert_eq!(s0.count, 3);
        assert_eq!(s0.median, 20.0);
        assert_eq!(bins[0].unanswered, 1);
        assert_eq!(bins[1].summary.unwrap().median, 100.0);
    }

    #[test]
    fn empty_bins_have_no_summary() {
        let log = ProbeLog {
            records: vec![rec(0, None)],
        };
        let bins = latency_timeseries(&log, SimDuration::from_mins(10));
        assert!(bins[0].summary.is_none());
        assert_eq!(bins[0].unanswered, 1);
    }
}

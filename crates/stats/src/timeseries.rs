//! Per-round timeseries of client outcomes (Figures 6, 8, 13, 14) and of
//! answer classes (Figure 7).

use dike_netsim::SimDuration;
use dike_stub::ProbeLog;

use crate::classify::{AnswerClass, Classification};

/// Counts of client outcomes in one time bin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeBin {
    /// Bin start, minutes after experiment start.
    pub start_min: u64,
    /// Queries answered OK (NOERROR with data).
    pub ok: usize,
    /// Queries answered SERVFAIL (or other error codes).
    pub servfail: usize,
    /// Queries with no answer within the timeout.
    pub no_answer: usize,
}

impl OutcomeBin {
    /// All queries in the bin.
    pub fn total(&self) -> usize {
        self.ok + self.servfail + self.no_answer
    }

    /// Fraction answered OK (0 when the bin is empty).
    pub fn ok_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.ok as f64 / t as f64
        }
    }
}

/// The outcome timeseries behind Figures 6 and 8: one bin per
/// `bin_width`, covering the full log.
pub fn outcome_timeseries(log: &ProbeLog, bin_width: SimDuration) -> Vec<OutcomeBin> {
    let width_min = (bin_width.as_secs() / 60).max(1);
    let mut bins: Vec<OutcomeBin> = Vec::new();
    for r in &log.records {
        let bin_idx = (r.sent_at.as_mins() / width_min) as usize;
        if bins.len() <= bin_idx {
            bins.resize_with(bin_idx + 1, OutcomeBin::default);
        }
        let bin = &mut bins[bin_idx];
        if r.outcome.is_ok() {
            bin.ok += 1;
        } else if r.outcome.is_timeout() {
            bin.no_answer += 1;
        } else {
            bin.servfail += 1;
        }
    }
    for (i, b) in bins.iter_mut().enumerate() {
        b.start_min = i as u64 * width_min;
    }
    bins
}

/// The paper's headline client metric over a time window: OK answers
/// over all queries, summed across the bins whose `start_min` lies in
/// `[from_min, to_min)`. Each query counts once (Table 4's "roughly 60%
/// are still served"), so a sparse partial round cannot outweigh a dense
/// one the way a mean of per-bin fractions would let it. `None` when the
/// window holds no traffic — it lies past the end of the run, or the run
/// produced no queries.
pub fn ok_fraction_in(bins: &[OutcomeBin], from_min: u64, to_min: u64) -> Option<f64> {
    let (ok, total) = bins
        .iter()
        .filter(|b| (from_min..to_min).contains(&b.start_min))
        .fold((0usize, 0usize), |(ok, total), b| {
            (ok + b.ok, total + b.total())
        });
    (total > 0).then(|| ok as f64 / total as f64)
}

/// Counts of answer classes in one bin (Figures 7 and 13).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassBin {
    /// Bin start, minutes after experiment start.
    pub start_min: u64,
    /// Fresh-from-authoritative answers (includes warm-ups).
    pub aa: usize,
    /// Cache hits.
    pub cc: usize,
    /// Cache misses.
    pub ac: usize,
    /// Extended-cache answers.
    pub ca: usize,
}

/// Bins a classification by answer time.
pub fn class_timeseries(c: &Classification, bin_width: SimDuration) -> Vec<ClassBin> {
    let width_min = (bin_width.as_secs() / 60).max(1);
    let mut bins: Vec<ClassBin> = Vec::new();
    for a in &c.answers {
        let bin_idx = (a.at.as_mins() / width_min) as usize;
        if bins.len() <= bin_idx {
            bins.resize_with(bin_idx + 1, ClassBin::default);
        }
        let bin = &mut bins[bin_idx];
        match a.class {
            AnswerClass::WarmUp | AnswerClass::AA => bin.aa += 1,
            AnswerClass::CC => bin.cc += 1,
            AnswerClass::AC => bin.ac += 1,
            AnswerClass::CA => bin.ca += 1,
        }
    }
    for (i, b) in bins.iter_mut().enumerate() {
        b.start_min = i as u64 * width_min;
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_netsim::Addr;
    use dike_stub::{QueryOutcome, QueryRecord, VpKey};
    use dike_wire::Rcode;

    fn rec(sent_min: u64, outcome: QueryOutcome) -> QueryRecord {
        QueryRecord {
            vp: VpKey {
                probe: 1,
                recursive: 0,
            },
            recursive: Addr(1),
            round: 0,
            sent_at: SimDuration::from_mins(sent_min).after_zero(),
            outcome,
            rtt: None,
        }
    }

    fn ok() -> QueryOutcome {
        QueryOutcome::Answer {
            rcode: Rcode::NoError,
            aaaa: Some(std::net::Ipv6Addr::LOCALHOST),
            ttl: Some(60),
        }
    }

    #[test]
    fn outcomes_land_in_their_bins() {
        let log = ProbeLog {
            records: vec![
                rec(0, ok()),
                rec(5, QueryOutcome::Timeout),
                rec(12, ok()),
                rec(
                    15,
                    QueryOutcome::Answer {
                        rcode: Rcode::ServFail,
                        aaaa: None,
                        ttl: None,
                    },
                ),
            ],
        };
        let bins = outcome_timeseries(&log, SimDuration::from_mins(10));
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[0].start_min, 0);
        assert_eq!((bins[0].ok, bins[0].no_answer, bins[0].servfail), (1, 1, 0));
        assert_eq!(bins[1].start_min, 10);
        assert_eq!((bins[1].ok, bins[1].no_answer, bins[1].servfail), (1, 0, 1));
        assert_eq!(bins[0].total(), 2);
        assert!((bins[0].ok_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ok_fraction_in_weights_per_query_over_the_half_open_window() {
        let bin = |start_min, ok, servfail, no_answer| OutcomeBin {
            start_min,
            ok,
            servfail,
            no_answer,
        };
        // A dense round (100 queries, half OK) and a sparse partial round
        // (2 queries, both OK): the mean of per-round fractions says 75%.
        let dense_sparse = [bin(60, 50, 25, 25), bin(70, 2, 0, 0)];
        let grid = [
            bin(0, 9, 1, 0),
            bin(10, 8, 0, 2),
            bin(20, 0, 0, 0),
            bin(30, 1, 0, 3),
        ];
        let check = |what: &str, bins: &[OutcomeBin], from, to, want: Option<f64>| {
            assert_eq!(ok_fraction_in(bins, from, to), want, "{what}");
        };
        check("no bins", &[], 0, u64::MAX, None);
        check("window past the end", &grid, 40, 100, None);
        check("window of empty bins", &grid, 20, 30, None);
        check("empty window", &grid, 10, 10, None);
        check(
            "window starting in round 0",
            &grid,
            0,
            20,
            Some(17.0 / 20.0),
        );
        check("whole run", &grid, 0, u64::MAX, Some(18.0 / 24.0));
        // Off the 10-minute grid: only the bin starting at 70 lies in
        // [65, 80); selecting by bin index 65/10..80/10 would take the
        // bin at 60 as well.
        check("off-grid window", &dense_sparse, 65, 80, Some(1.0));
        check("dense + sparse", &dense_sparse, 60, 120, Some(52.0 / 102.0));
    }

    #[test]
    fn empty_log_gives_no_bins() {
        let log = ProbeLog::default();
        assert!(outcome_timeseries(&log, SimDuration::from_mins(10)).is_empty());
    }

    #[test]
    fn intermediate_empty_bins_are_materialized() {
        let log = ProbeLog {
            records: vec![rec(0, ok()), rec(35, ok())],
        };
        let bins = outcome_timeseries(&log, SimDuration::from_mins(10));
        assert_eq!(bins.len(), 4);
        assert_eq!(bins[1].total(), 0);
        assert_eq!(bins[2].total(), 0);
    }
}

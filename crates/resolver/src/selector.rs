//! Authoritative / upstream server selection.
//!
//! Recursives "tend to prefer authoritatives with shorter latency, but
//! query all authoritatives for diversity" (paper §7, citing Müller et
//! al.). We model this the way BIND does: a smoothed RTT (SRTT) estimate
//! per server address, exponentially decayed, with unknown servers given
//! a small random SRTT so they get explored. Selection picks the lowest
//! SRTT among candidates not yet tried in the current round; when every
//! candidate has been tried, the round restarts.

use dike_netsim::{Addr, SimDuration};
use dike_telemetry::hash::FastMap;
use dike_telemetry::rng::Rng;

/// Exponential decay factor applied when updating SRTT with a new sample
/// (BIND uses ~0.7 old + 0.3 new).
const SRTT_ALPHA: f64 = 0.7;

/// Penalty multiplier applied to a server's SRTT when it times out, so
/// persistently dead servers sink in the ranking but are still retried
/// occasionally.
const TIMEOUT_PENALTY: f64 = 2.0;

/// Cap on stored SRTT, milliseconds.
const SRTT_CAP_MS: f64 = 30_000.0;

/// RTT-based server selector shared by all of a resolver's tasks.
#[derive(Debug, Default)]
pub(crate) struct ServerSelector {
    srtt_ms: FastMap<Addr, f64>,
}

impl ServerSelector {
    /// A selector with no history.
    pub(crate) fn new() -> Self {
        ServerSelector::default()
    }

    /// Records a successful exchange with `server`.
    pub(crate) fn record_success(&mut self, server: Addr, rtt: SimDuration) {
        let sample = rtt.as_millis_f64();
        let e = self.srtt_ms.entry(server).or_insert(sample);
        *e = (*e * SRTT_ALPHA + sample * (1.0 - SRTT_ALPHA)).min(SRTT_CAP_MS);
    }

    /// Records a timeout against `server`.
    pub(crate) fn record_timeout(&mut self, server: Addr) {
        let e = self.srtt_ms.entry(server).or_insert(1_000.0);
        *e = (*e * TIMEOUT_PENALTY).min(SRTT_CAP_MS);
    }

    /// Picks the best candidate, preferring those not in `already_tried`.
    /// Unknown servers receive a small random estimate so that fresh
    /// servers are explored early. Returns `None` only for an empty
    /// candidate list.
    pub(crate) fn pick(
        &mut self,
        candidates: &[Addr],
        already_tried: &[Addr],
        rng: &mut Rng,
    ) -> Option<Addr> {
        if candidates.is_empty() {
            return None;
        }
        let fresh: Vec<Addr> = candidates
            .iter()
            .copied()
            .filter(|a| !already_tried.contains(a))
            .collect();
        let pool: &[Addr] = if fresh.is_empty() { candidates } else { &fresh };
        pool.iter()
            .copied()
            .min_by(|a, b| {
                let ea = self.estimate(*a, rng);
                let eb = self.estimate(*b, rng);
                ea.partial_cmp(&eb).expect("srtt never NaN")
            })
            .or_else(|| pool.first().copied())
    }

    /// Uniform random selection, preferring untried candidates — the
    /// [`crate::SelectionPolicy::Random`] policy used by load-balanced
    /// farm frontends.
    pub(crate) fn pick_uniform(
        candidates: &[Addr],
        already_tried: &[Addr],
        rng: &mut Rng,
    ) -> Option<Addr> {
        if candidates.is_empty() {
            return None;
        }
        let fresh: Vec<Addr> = candidates
            .iter()
            .copied()
            .filter(|a| !already_tried.contains(a))
            .collect();
        let pool: &[Addr] = if fresh.is_empty() { candidates } else { &fresh };
        Some(pool[rng.random_range(0..pool.len())])
    }

    fn estimate(&mut self, server: Addr, rng: &mut Rng) -> f64 {
        *self
            .srtt_ms
            .entry(server)
            .or_insert_with(|| rng.random_range(0.0..10.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(11)
    }

    #[test]
    fn prefers_faster_server() {
        let mut s = ServerSelector::new();
        let fast = Addr(1);
        let slow = Addr(2);
        for _ in 0..5 {
            s.record_success(fast, SimDuration::from_millis(5));
            s.record_success(slow, SimDuration::from_millis(200));
        }
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(s.pick(&[fast, slow], &[], &mut r), Some(fast));
        }
    }

    #[test]
    fn avoids_already_tried_within_round() {
        let mut s = ServerSelector::new();
        let a = Addr(1);
        let b = Addr(2);
        s.record_success(a, SimDuration::from_millis(1));
        s.record_success(b, SimDuration::from_millis(500));
        let mut r = rng();
        // a is faster, but it has been tried: b must be chosen.
        assert_eq!(s.pick(&[a, b], &[a], &mut r), Some(b));
        // When everything has been tried, fall back to the full pool.
        assert_eq!(s.pick(&[a, b], &[a, b], &mut r), Some(a));
    }

    #[test]
    fn timeouts_demote_a_server() {
        let mut s = ServerSelector::new();
        let a = Addr(1);
        let b = Addr(2);
        s.record_success(a, SimDuration::from_millis(10));
        s.record_success(b, SimDuration::from_millis(20));
        for _ in 0..6 {
            s.record_timeout(a);
        }
        let mut r = rng();
        assert_eq!(s.pick(&[a, b], &[], &mut r), Some(b));
    }

    #[test]
    fn srtt_is_capped() {
        let mut s = ServerSelector::new();
        let a = Addr(1);
        for _ in 0..100 {
            s.record_timeout(a);
        }
        assert!(s.srtt_ms[&a] <= 30_000.0, "capped at 30 s");
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut s = ServerSelector::new();
        let mut r = rng();
        assert_eq!(s.pick(&[], &[], &mut r), None);
    }

    #[test]
    fn pick_uniform_prefers_untried_then_covers_all() {
        let mut r = rng();
        let pool = [Addr(1), Addr(2), Addr(3)];
        // Untried candidates win.
        for _ in 0..50 {
            let picked = ServerSelector::pick_uniform(&pool, &[Addr(1), Addr(2)], &mut r);
            assert_eq!(picked, Some(Addr(3)));
        }
        // With everything tried, the whole pool is eligible again.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(ServerSelector::pick_uniform(&pool, &pool, &mut r).unwrap());
        }
        assert_eq!(seen.len(), 3);
        // Empty candidates yield nothing.
        assert_eq!(ServerSelector::pick_uniform(&[], &[], &mut r), None);
    }

    #[test]
    fn pick_uniform_spreads_load() {
        // The fragmentation driver: over many picks, every backend gets
        // a reasonable share (unlike SRTT-based selection, which locks
        // onto the fastest).
        let mut r = rng();
        let pool = [Addr(1), Addr(2), Addr(3), Addr(4)];
        let mut counts = std::collections::HashMap::new();
        for _ in 0..4000 {
            *counts
                .entry(ServerSelector::pick_uniform(&pool, &[], &mut r).unwrap())
                .or_insert(0usize) += 1;
        }
        for (_, c) in counts {
            let share = c as f64 / 4000.0;
            assert!((0.2..0.3).contains(&share), "share {share}");
        }
    }

    #[test]
    fn unknown_servers_get_explored() {
        let mut s = ServerSelector::new();
        let known_slow = Addr(1);
        s.record_success(known_slow, SimDuration::from_millis(500));
        let unknown = Addr(2);
        let mut r = rng();
        // The unknown server's random estimate (0..10ms) beats 500ms.
        assert_eq!(s.pick(&[known_slow, unknown], &[], &mut r), Some(unknown));
    }
}

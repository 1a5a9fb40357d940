//! Production-zone trace emulation: paper §4, Figures 4 and 5.
//!
//! The paper's inputs here are passive traces (`.nl` authoritatives via
//! ENTRADA, and the DNS-OARC DITL root captures) that cannot be
//! redistributed. We regenerate their *distributional* results by driving
//! the same cache machinery ([`dike_cache`]) with synthetic client
//! arrival processes over the calibrated resolver population: every
//! authoritative-side query timestamp in these figures exists because a
//! simulated cache missed.

use dike_cache::{CacheAnswer, CacheConfig, ResolverCache};
use dike_netsim::{SimDuration, SimTime};
use dike_stats::passive::{PassiveReport, PassiveTally};
use dike_telemetry::rng::Rng;
use dike_wire::{Name, RData, Record};

/// How one simulated recursive treats the measured records.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RecursiveBehavior {
    /// Honors the TTL with one shared cache.
    Honoring,
    /// A farm of `k` independent caches (queries spread over them).
    Fragmented(usize),
    /// Caps cached TTLs at the given value.
    Capped(u32),
    /// On every miss, additionally sends a duplicate query ~instantly
    /// (parallel queries to multiple authoritatives, the "Happy
    /// Eyeballs"-like behaviour behind the paper's <10 s inter-arrivals).
    ParallelDuplicates,
    /// Does not cache at all (broken or deliberately cache-less) — the
    /// long tail of Fig. 5.
    NoCache,
}

/// Fig. 4 configuration: recursives querying `ns1–ns5.dns.nl` (A, TTL
/// 3600) for six hours.
#[derive(Debug, Clone, Copy)]
pub struct NlConfig {
    /// Recursives to simulate (paper analyzed 7,703).
    pub n_recursives: usize,
    /// Observation window.
    pub duration: SimDuration,
    /// Record TTL (3600 s for `ns[1-5].dns.nl`).
    pub ttl: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NlConfig {
    fn default() -> Self {
        NlConfig {
            n_recursives: 7_700,
            duration: SimDuration::from_secs(6 * 3600),
            ttl: 3600,
            seed: 4,
        }
    }
}

fn sample_behavior_nl(rng: &mut Rng) -> RecursiveBehavior {
    let x: f64 = rng.random_range(0.0..1.0);
    if x < 0.42 {
        RecursiveBehavior::Honoring
    } else if x < 0.58 {
        RecursiveBehavior::Fragmented(rng.random_range(2..6))
    } else if x < 0.68 {
        RecursiveBehavior::Capped(1800)
    } else if x < 0.97 {
        // ~29% of recursives query authoritatives in parallel — behind
        // the paper's 28% of sub-10 s inter-arrivals.
        RecursiveBehavior::ParallelDuplicates
    } else {
        RecursiveBehavior::NoCache
    }
}

/// Runs the Fig. 4 emulation, feeding each recursive's query timestamps
/// through the §4.1 passive analysis ([`PassiveTally`], recursives with
/// ≥ 5 queries).
pub fn run_nl(cfg: &NlConfig) -> PassiveReport {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let names: Vec<Name> = (1..=5)
        .map(|i| Name::parse(&format!("ns{i}.dns.nl")).expect("static"))
        .collect();
    let horizon = cfg.duration.as_secs_f64();

    let mut tally = PassiveTally::new(cfg.ttl, 5);

    for _ in 0..cfg.n_recursives {
        let behavior = sample_behavior_nl(&mut rng);
        // Client demand: log-uniform mean inter-arrival, 20 s … 2000 s.
        let mean_gap = 10f64.powf(rng.random_range(1.3..3.3));
        let cache_cfg = match behavior {
            RecursiveBehavior::Capped(cap) => CacheConfig {
                max_ttl: cap,
                ..CacheConfig::honoring()
            },
            _ => CacheConfig::honoring(),
        };
        // A fragmented farm: k caches, one drawn per query.
        let backends = match behavior {
            RecursiveBehavior::Fragmented(k) => k,
            _ => 1,
        };
        let mut caches: Vec<_> = (0..backends)
            .map(|_| ResolverCache::new(cache_cfg))
            .collect();

        // Poisson client arrivals; each miss emits a query timestamp.
        // The paper computes inter-arrivals per (source, target name), so
        // timestamps are kept per name.
        let mut stamps: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
        let mut t = 0.0f64;
        loop {
            let u: f64 = rng.random_range(f64::EPSILON..1.0);
            t += -mean_gap * u.ln();
            if t >= horizon {
                break;
            }
            let ni = rng.random_range(0..names.len());
            let name = &names[ni];
            let now = SimTime::from_nanos((t * 1e9) as u64);
            let backend = if backends == 1 {
                0
            } else {
                rng.random_range(0..backends)
            };
            let cache = &mut caches[backend];
            let miss = !matches!(
                cache.lookup(now, name, dike_wire::RecordType::A),
                CacheAnswer::Fresh(_)
            ) || behavior == RecursiveBehavior::NoCache;
            if miss {
                stamps[ni].push(t);
                if behavior == RecursiveBehavior::ParallelDuplicates {
                    // Duplicates go to the other authoritatives within a
                    // few seconds.
                    for _ in 0..rng.random_range(1..3) {
                        stamps[ni].push(t + rng.random_range(0.05..8.0));
                    }
                }
                cache.insert(
                    now,
                    vec![Record::new(
                        name.clone(),
                        cfg.ttl,
                        RData::A(std::net::Ipv4Addr::new(194, 0, 28, 53)),
                    )],
                );
            }
        }

        tally.add_source(&stamps);
    }
    tally.report()
}

/// Fig. 5 configuration: a day of `DS nl` queries (TTL 86400) at the 13
/// root letters.
#[derive(Debug, Clone, Copy)]
pub struct RootConfig {
    /// Recursives to simulate (paper saw 70.3k).
    pub n_recursives: usize,
    /// Root letters.
    pub letters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RootConfig {
    fn default() -> Self {
        RootConfig {
            n_recursives: 70_300,
            letters: 13,
            seed: 5,
        }
    }
}

/// Fig. 5 output: CDFs of queries-per-recursive.
#[derive(Debug, Clone)]
pub struct RootResult {
    /// `(n, F(n))` for all letters combined: the fraction of recursives
    /// sending ≤ n queries in the day.
    pub all: Vec<(u32, f64)>,
    /// Same for the friendliest letter (paper's F-root).
    pub friendly_letter: Vec<(u32, f64)>,
    /// Same for the busiest letter (paper's H-root).
    pub worst_letter: Vec<(u32, f64)>,
    /// Fraction of recursives sending exactly one query (paper: ~87%).
    pub frac_single: f64,
    /// The heaviest single recursive (paper: 21.8k).
    pub max_queries: u64,
}

/// Runs the Fig. 5 emulation.
pub fn run_root(cfg: &RootConfig) -> RootResult {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut per_recursive_total: Vec<u64> = Vec::with_capacity(cfg.n_recursives);
    // queries per (letter, recursive), sparse: per letter, a vec of counts.
    let mut per_letter: Vec<Vec<u64>> = vec![Vec::new(); cfg.letters];

    for _ in 0..cfg.n_recursives {
        // Behaviour mixture for a day-long TTL.
        let x: f64 = rng.random_range(0.0..1.0);
        let queries: u64 = if x < 0.865 {
            1 // honors the full day TTL
        } else if x < 0.94 {
            rng.random_range(2..8) // fragmented caches
        } else if x < 0.97 {
            4 // 6-hour cap
        } else if x < 0.99 {
            24 // 1-hour cap
        } else {
            // Cache-less long tail, log-uniform up to ~20k/day.
            10f64.powf(rng.random_range(1.5..4.35)) as u64
        };
        per_recursive_total.push(queries);

        // Letter selection: a favorite letter takes most queries; the
        // heavy hitters skew toward the "worst" letter (letter index
        // `letters-1`), the well-behaved toward lower indices — giving
        // the per-letter spread between F- and H-root the paper shows.
        let favorite = if queries > 4 {
            let skew: f64 = rng.random_range(0.0..1.0);
            if skew < 0.4 {
                cfg.letters - 1
            } else {
                rng.random_range(0..cfg.letters)
            }
        } else {
            rng.random_range(0..cfg.letters)
        };
        let mut counts = vec![0u64; cfg.letters];
        for _ in 0..queries.min(100_000) {
            let letter = if rng.random_range(0.0..1.0) < 0.6 {
                favorite
            } else {
                rng.random_range(0..cfg.letters)
            };
            counts[letter] += 1;
        }
        for (l, &c) in counts.iter().enumerate() {
            if c > 0 {
                per_letter[l].push(c);
            }
        }
    }

    let cdf = |counts: &[u64]| -> Vec<(u32, f64)> {
        let n = counts.len().max(1) as f64;
        (1..=30)
            .map(|k| {
                let le = counts.iter().filter(|&&c| c <= k as u64).count();
                (k, le as f64 / n)
            })
            .collect()
    };

    // Friendliest letter = highest F(5); worst = lowest.
    let scores: Vec<f64> = per_letter
        .iter()
        .map(|c| {
            let n = c.len().max(1) as f64;
            c.iter().filter(|&&q| q <= 4).count() as f64 / n
        })
        .collect();
    let friendly = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let worst = scores
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .unwrap_or(0);

    let single = per_recursive_total.iter().filter(|&&q| q == 1).count();
    RootResult {
        all: cdf(&per_recursive_total),
        friendly_letter: cdf(&per_letter[friendly]),
        worst_letter: cdf(&per_letter[worst]),
        frac_single: single as f64 / per_recursive_total.len().max(1) as f64,
        max_queries: per_recursive_total.iter().copied().max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_cache::ResolverCache;
    use dike_netsim::{Addr, Context, Node, TimerToken};
    use dike_stats::passive::PassiveAnalyzer;
    use dike_wire::{Message, RecordType};

    /// A single honoring resolver's refresh Δt series under Poisson
    /// clients with `mean_gap_s` between queries.
    fn honoring_refresh_gap(ttl: u32, mean_gap_s: f64, hours: u64, seed: u64) -> Vec<f64> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut cache = ResolverCache::new(CacheConfig::honoring());
        let name = Name::parse("ns1.dns.nl").expect("static");
        let mut stamps = Vec::new();
        let mut t = 0.0f64;
        let horizon = (hours * 3600) as f64;
        loop {
            let u: f64 = rng.random_range(f64::EPSILON..1.0);
            t += -mean_gap_s * u.ln();
            if t >= horizon {
                break;
            }
            let now = SimTime::from_nanos((t * 1e9) as u64);
            if !matches!(
                cache.lookup(now, &name, dike_wire::RecordType::A),
                CacheAnswer::Fresh(_)
            ) {
                stamps.push(t);
                cache.insert(
                    now,
                    vec![Record::new(
                        name.clone(),
                        ttl,
                        RData::A(std::net::Ipv4Addr::new(194, 0, 28, 53)),
                    )],
                );
            }
        }
        stamps.windows(2).map(|w| w[1] - w[0]).collect()
    }

    #[test]
    fn honoring_resolver_refreshes_at_the_ttl() {
        // Busy clients (mean gap 30 s) on a 3600 s TTL: the cache misses
        // almost exactly once per TTL.
        let gaps = honoring_refresh_gap(3600, 30.0, 24, 1);
        assert!(gaps.len() > 10);
        let median = {
            let mut g = gaps.clone();
            g.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            g[g.len() / 2]
        };
        assert!(
            (3600.0..3700.0).contains(&median),
            "median refresh gap {median}"
        );
    }

    #[test]
    fn nl_emulation_reproduces_figure_4_shape() {
        let r = run_nl(&NlConfig {
            n_recursives: 800,
            ..NlConfig::default()
        });
        assert!(r.analyzed_sources > 100, "analyzed {}", r.analyzed_sources);
        // A visible sub-10 s parallel-query fraction (paper: ~28%).
        assert!(
            (0.05..0.5).contains(&r.frac_under_10s),
            "under-10s fraction {}",
            r.frac_under_10s
        );
        // The biggest peak sits at the full TTL, with a smaller one at
        // half the TTL (the paper's 1800 s bump).
        assert!(
            r.frac_at_ttl > 0.12 && r.frac_at_ttl > r.frac_at_half_ttl,
            "peak at TTL {} vs half-TTL {} (paper: largest peak at 3600 s)",
            r.frac_at_ttl,
            r.frac_at_half_ttl
        );
        // And a meaningful share of recursives re-query early (paper:
        // 22% of resolvers below the TTL).
        let below = r.median_dt_ecdf.at(3599.0 * 0.95);
        assert!((0.1..0.6).contains(&below), "below-TTL fraction {below}");
    }

    /// The full-stack simulation agrees with the generator: the Figure 4
    /// distribution (peak at the TTL, early-refresh mass from fragmented
    /// and capping resolvers) emerges from real resolver caches under
    /// real query traffic.
    #[test]
    fn full_sim_cross_checks_the_generator() {
        let r = run_nl_full_sim(&NlSimConfig {
            n_recursives: 80,
            duration: SimDuration::from_secs(4 * 3600),
            ..NlSimConfig::default()
        });
        assert!(r.analyzed_sources > 40, "{r:?}");
        // Honoring resolvers put the biggest peak at the TTL...
        let at_ttl = r.frac_at_ttl;
        assert!(at_ttl > 0.3, "peak at TTL: {at_ttl} {r:?}");
        // ...and cappers/fragmented farms create early (AC) refetches.
        assert!(r.ac_intervals > 0, "early refetches exist: {r:?}");
        let ac_frac = r.ac_intervals as f64 / (r.ac_intervals + r.aa_intervals) as f64;
        assert!((0.05..0.8).contains(&ac_frac), "AC fraction {ac_frac}");
    }

    #[test]
    fn root_emulation_reproduces_figure_5_shape() {
        let r = run_root(&RootConfig {
            n_recursives: 20_000,
            ..RootConfig::default()
        });
        // ~87% single-query recursives.
        assert!(
            (0.82..0.92).contains(&r.frac_single),
            "single-query fraction {}",
            r.frac_single
        );
        // Long tail into the thousands.
        assert!(r.max_queries > 1_000, "max {}", r.max_queries);
        // The friendly letter's CDF dominates the worst letter's at n=4.
        let f4 = r
            .friendly_letter
            .iter()
            .find(|(n, _)| *n == 4)
            .expect("n=4")
            .1;
        let h4 = r.worst_letter.iter().find(|(n, _)| *n == 4).expect("n=4").1;
        assert!(
            f4 > h4,
            "friendly letter {f4} should beat worst letter {h4}"
        );
    }

    // ---------------------------------------------------------------------
    // Figure 4, full-simulation cross-check
    // ---------------------------------------------------------------------

    /// A client generating Poisson-paced queries for one of the watched
    /// names through its recursive resolver.
    struct PoissonClient {
        resolver: Addr,
        names: Vec<Name>,
        mean_gap: f64,
        next_id: u16,
    }

    impl Node for PoissonClient {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let gap = self.sample_gap(ctx);
            ctx.set_timer(gap, TimerToken(0));
        }
        fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, _msg: &Message, _l: usize) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
            self.next_id = self.next_id.wrapping_add(1).max(1);
            let name = self.names[ctx.rng().random_range(0..self.names.len())].clone();
            ctx.send(
                self.resolver,
                &Message::query(self.next_id, name, RecordType::A),
            );
            let gap = self.sample_gap(ctx);
            ctx.set_timer(gap, TimerToken(0));
        }
    }

    impl PoissonClient {
        fn sample_gap(&self, ctx: &mut Context<'_>) -> SimDuration {
            let u: f64 = ctx.rng().random_range(f64::EPSILON..1.0);
            SimDuration::from_secs_f64(-self.mean_gap * u.ln())
        }
    }

    /// Configuration for the full-simulation Figure 4 cross-check.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct NlSimConfig {
        /// Recursive resolvers (each is one "source" at the authoritative).
        pub(crate) n_recursives: usize,
        /// Observation window.
        pub(crate) duration: SimDuration,
        /// Zone TTL for the watched records.
        pub(crate) ttl: u32,
        /// Simulator seed.
        pub(crate) seed: u64,
    }

    impl Default for NlSimConfig {
        fn default() -> Self {
            NlSimConfig {
                n_recursives: 150,
                duration: SimDuration::from_secs(6 * 3600),
                ttl: 3600,
                seed: 14,
            }
        }
    }

    /// The generator behind [`run_nl`] models caches directly; this
    /// reference model cross-checks it by running the *full stack* — authoritative server,
    /// recursive resolvers (honoring, fragmented and TTL-capping profiles),
    /// Poisson clients — and feeding the captured traffic through the same
    /// §4.1 passive analysis ([`PassiveAnalyzer`]).
    pub(crate) fn run_nl_full_sim(cfg: &NlSimConfig) -> PassiveReport {
        use dike_auth::{zonefile, AuthServer};
        use dike_resolver::{profiles, RecursiveResolver};

        let mut sim = dike_netsim::Simulator::new(cfg.seed);
        let names: Vec<Name> = (1..=5)
            .map(|i| Name::parse(&format!("ns{i}.dns.nl")).expect("static"))
            .collect();

        // The dns.nl zone, built through the zone-file parser for variety.
        let mut zone_text = String::from(
            "$ORIGIN dns.nl.\n$TTL 3600\n@ IN SOA ns1 hostmaster 1 14400 3600 1209600 60\n",
        );
        for i in 1..=5 {
            zone_text.push_str(&format!("ns{i} {} IN A 194.0.28.{i}\n", cfg.ttl));
        }
        let zone = zonefile::parse(&zone_text, None).expect("valid zone text");
        let (_, auth) = sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(zone))));

        let (analyzer, sink) =
            dike_netsim::trace::shared(PassiveAnalyzer::new([auth], names.clone(), RecordType::A));
        sim.add_sink(sink);

        let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x9e37);
        for i in 0..cfg.n_recursives {
            // Population mirrors the generator's behaviour classes.
            let x: f64 = rng.random_range(0.0..1.0);
            let mut rc = if i % 2 == 0 {
                profiles::bind_like(vec![auth])
            } else {
                profiles::unbound_like(vec![auth])
            };
            let mut farm = 1;
            if x < 0.6 {
                // honoring: leave as-is
            } else if x < 0.8 {
                farm = rng.random_range(2..6); // fragmented farm
            } else {
                rc.cache = CacheConfig {
                    max_ttl: cfg.ttl / 2, // capped at half the TTL
                    ..rc.cache
                };
            }
            let backends: Vec<_> = (0..farm)
                .map(|_| sim.add_node(Box::new(RecursiveResolver::new(rc.clone()))).1)
                .collect();
            // A farm is a frontend spraying queries over backends that
            // each keep their own cache.
            let r = if farm == 1 {
                backends[0]
            } else {
                let frontend = profiles::farm_frontend(backends);
                sim.add_node(Box::new(RecursiveResolver::new(frontend))).1
            };
            // Client demand: log-uniform mean inter-arrival, 20 s - 200 s,
            // dense enough to refresh promptly at expiry (the paper's
            // production recursives see orders of magnitude more demand).
            let mean_gap = 10f64.powf(rng.random_range(1.3..2.3));
            sim.add_node(Box::new(PoissonClient {
                resolver: r,
                names: names.clone(),
                mean_gap,
                next_id: 0,
            }));
        }

        sim.run_until(cfg.duration.after_zero());
        drop(sim);
        let analyzer = std::sync::Arc::try_unwrap(analyzer)
            .expect("single owner")
            .into_inner();
        analyzer.analyze(cfg.ttl, 5)
    }
}

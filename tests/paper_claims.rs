//! Integration tests pinning the paper's headline claims, end to end:
//! every test runs full simulations through the public API and checks
//! the *shape* the paper reports.

use dike::experiments::baseline::{run_baseline, BASELINES};
use dike::experiments::ddos::{run_ddos, DdosExperiment};
use dike::experiments::{AttackPlan, ExperimentSetup, Report};

/// §3 headline: "about 30% of the time clients do not benefit from
/// caching" — the miss rate for cacheable TTLs sits near 30%, and the
/// 60 s TTL control shows no expected-cache answers at all.
#[test]
fn claim_thirty_percent_cache_misses() {
    let r3600 = run_baseline(BASELINES[2], 0.02, 1);
    let miss = r3600.classification.summary.miss_rate();
    assert!(
        (0.18..0.45).contains(&miss),
        "TTL 3600 miss rate {miss} (paper 32.9%)"
    );

    let r60 = run_baseline(BASELINES[0], 0.02, 1);
    assert_eq!(
        r60.classification.summary.ac, 0,
        "no misses possible at TTL 60"
    );
}

/// Table 3: misses concentrate behind public resolvers.
#[test]
fn claim_public_resolvers_dominate_misses() {
    let r = run_baseline(BASELINES[1], 0.02, 2);
    let p = r.public_split;
    assert!(p.ac_total > 50, "enough misses to split: {}", p.ac_total);
    let frac_public = p.public_r1 as f64 / p.ac_total as f64;
    assert!(
        frac_public > 0.35,
        "public share {frac_public} (paper: about half)"
    );
    let frac_google = p.google_r1 as f64 / p.public_r1.max(1) as f64;
    assert!(
        frac_google > 0.5,
        "google share of public misses {frac_google} (paper: ~3/4)"
    );
}

/// Table 2's day-long-TTL row: ~30% of warm-ups show truncated TTLs.
#[test]
fn claim_day_long_ttls_get_truncated() {
    let r = run_baseline(BASELINES[3], 0.02, 3);
    let s = r.classification.summary;
    let frac = s.warmup_ttl_altered as f64 / s.warmup.max(1) as f64;
    assert!(
        (0.10..0.55).contains(&frac),
        "altered warm-up fraction at TTL 86400: {frac} (paper ~30%)"
    );
    // Shorter TTLs are mostly honored (paper: ~2% truncation).
    let r = run_baseline(BASELINES[2], 0.02, 3);
    let s = r.classification.summary;
    let frac = s.warmup_ttl_altered as f64 / s.warmup.max(1) as f64;
    assert!(
        frac < 0.20,
        "altered warm-up fraction at TTL 3600: {frac} (paper ~2%)"
    );
}

/// §5.4: "nearly all clients succeed" at 50% loss; success degrades with
/// intensity but "roughly 60% are still served even with 90% loss"
/// (30-minute TTL), and even without cache protection retries save a
/// sizable minority.
#[test]
fn claim_attack_intensity_gradient() {
    let e = run_ddos(DdosExperiment::E, 0.012, 4);
    let h = run_ddos(DdosExperiment::H, 0.012, 4);
    let i = run_ddos(DdosExperiment::I, 0.012, 4);
    let ok_e = e.ok_fraction_during_attack().expect("attack rounds");
    let ok_h = h.ok_fraction_during_attack().expect("attack rounds");
    let ok_i = i.ok_fraction_during_attack().expect("attack rounds");
    assert!(ok_e > 0.85, "E (50% loss): {ok_e} (paper ~91%)");
    assert!(ok_h > 0.45, "H (90% loss, TTL 1800): {ok_h} (paper ~60%)");
    assert!(ok_i > 0.15, "I (90% loss, TTL 60): {ok_i} (paper ~37%)");
    assert!(
        ok_e > ok_h && ok_h > ok_i,
        "success degrades with intensity and without caches: {ok_e} > {ok_h} > {ok_i}"
    );
}

/// §5's second defense, isolated: with caches out of play (60 s TTL,
/// every probe asks a unique name once per 10 minutes) and 90% loss at
/// both authoritatives, a resolver allowed 7 attempts answers more
/// queries than the same resolver allowed 1.
#[test]
fn claim_retries_help_when_caches_cannot() {
    use dike::experiments::topology::add_hierarchy;
    use dike::netsim::{LatencyModel, LinkParams, LinkTable, SimDuration, Simulator};
    use dike::resolver::{profiles, RecursiveResolver};
    use dike::stub::{new_shared_log, StubConfig, StubProbe};

    let ok_fraction = |max_attempts: u32| {
        let mut sim = Simulator::new(42);
        *sim.links_mut() = LinkTable::new(LinkParams {
            latency: LatencyModel::Fixed(SimDuration::from_millis(10)),
            loss: 0.0,
        });
        let (root, _, ns) = add_hierarchy(&mut sim, 60);
        let mut cfg = profiles::unbound_like(vec![root]);
        cfg.retry.max_attempts = max_attempts;
        let (_, resolver) = sim.add_node(Box::new(RecursiveResolver::new(cfg)));
        let log = new_shared_log();
        for pid in 1..=30u16 {
            let stub = StubConfig::new(
                pid,
                vec![resolver],
                SimDuration::from_secs(60 + pid as u64),
                SimDuration::from_mins(10),
                4,
            );
            sim.add_node(Box::new(StubProbe::new(stub, log.clone())));
        }
        sim.schedule_control(SimDuration::from_secs(30).after_zero(), move |w| {
            for addr in ns {
                w.links_mut().set_ingress_loss(addr, 0.9);
            }
        });
        sim.run_until(SimDuration::from_mins(50).after_zero());
        let log = log.lock();
        log.ok_count() as f64 / log.records.len().max(1) as f64
    };
    let (with, without) = (ok_fraction(7), ok_fraction(1));
    assert!(
        with > without,
        "retries must help under loss: {with} with 7 attempts vs {without} with 1"
    );
}

/// §5.2: during a complete outage, caches filled just before the attack
/// protect clients until the TTL runs out; after that nearly everything
/// fails.
#[test]
fn claim_caches_ride_out_complete_outage_until_ttl() {
    let a = run_ddos(DdosExperiment::A, 0.012, 5);
    // Experiment A: TTL 3600, attack at minute 10. Cache-only window is
    // minutes 10-70; after 70 everything expired.
    let protected = a.ok_fraction_between(20, 60).expect("cache-only rounds");
    let exposed = a
        .ok_fraction_between(80, u64::MAX)
        .expect("post-expiry rounds");
    assert!(
        protected > 0.35,
        "cache-only window success {protected} (paper: 35-70%)"
    );
    assert!(
        exposed < 0.15,
        "post-expiry success {exposed} (paper: almost all fail)"
    );
}

/// §6.1: legitimate retry traffic multiplies the offered load at the
/// authoritatives, and more loss means more retries.
#[test]
fn claim_retries_amplify_server_load() {
    let f = run_ddos(DdosExperiment::F, 0.012, 6);
    let h = run_ddos(DdosExperiment::H, 0.012, 6);
    let mult_f = f.traffic_multiplier().expect("baseline");
    let mult_h = h.traffic_multiplier().expect("baseline");
    assert!(mult_f > 1.5, "75% loss multiplier {mult_f} (paper ~3.5x)");
    assert!(
        mult_h > mult_f,
        "90% loss amplifies more: {mult_h} vs {mult_f}"
    );
}

/// §8's Dyn-vs-Root contrast, as a controlled experiment: the same 90%
/// attack hurts a short-TTL zone (CDN-style, like Dyn's customers) far
/// more than a long-TTL zone (like the root).
#[test]
fn claim_long_ttls_explain_root_vs_dyn_outcomes() {
    let run = |ttl| {
        Report::run(&ExperimentSetup {
            attack: Some(AttackPlan::loss(0.9).window_min(60, 60)),
            seed: 8,
            ..ExperimentSetup::paced(100, ttl, 10, 150)
        })
    };
    let (root_like, dyn_like) = (run(3600), run(120));
    let ok_root = root_like
        .ok_fraction_during_attack()
        .expect("attack rounds");
    let ok_dyn = dyn_like.ok_fraction_during_attack().expect("attack rounds");
    assert!(
        ok_root > ok_dyn + 0.1,
        "long TTLs ride out the attack better: {ok_root} vs {ok_dyn}"
    );
}

/// Determinism: identical seeds reproduce identical runs, bit for bit.
#[test]
fn claim_runs_are_reproducible() {
    let run = |seed| {
        let r = run_ddos(DdosExperiment::G, 0.008, seed);
        let ok: Vec<usize> = r.outcomes.iter().map(|b| b.ok).collect();
        let server: Vec<usize> = r.output.server.bins().iter().map(|b| b.total()).collect();
        (r.output.log.records.len(), ok, server)
    };
    assert_eq!(run(99), run(99));
    assert_ne!(run(99), run(100), "different seeds must differ");
}

/// The telemetry layer is a second, independent accounting of Fig. 10's
/// server-side numbers: per-authoritative query counters in the metrics
/// registry must equal the trace-sink ServerView totals, and resolver
/// retry histograms must be populated during an attack.
#[test]
fn claim_telemetry_agrees_with_server_view() {
    use dike::telemetry::TelemetryConfig;
    let mut setup = DdosExperiment::F.setup(0.008, 7);
    setup.telemetry = Some(TelemetryConfig::every_mins(10));
    let r = Report::run(&setup);
    let reg = r.output.metrics.expect("telemetry requested");
    let ns_ids: Vec<u32> = reg
        .node_labels()
        .filter(|(_, l)| *l == "auth:ns1" || *l == "auth:ns2")
        .map(|(id, _)| id)
        .collect();
    assert_eq!(ns_ids.len(), 2);
    // Offered datagrams use the same pre-loss accounting point as the
    // server view, so they agree exactly even under the attack.
    let offered: u64 = ns_ids
        .iter()
        .map(|&id| {
            reg.counter_total("netsim", Some(id), "datagrams_offered")
                .unwrap_or(0)
        })
        .sum();
    assert!(offered > 0);
    assert_eq!(offered, r.output.server.total_queries);
    // The auth servers' own counters see only what the 75% flood let
    // through — strictly fewer.
    let handled: u64 = ns_ids
        .iter()
        .map(|&id| reg.counter_total("auth", Some(id), "queries").unwrap_or(0))
        .sum();
    assert!(
        handled > 0 && handled < offered,
        "{handled} of {offered} delivered"
    );
    // The attack forces retries; the resolver histograms must see them.
    let retries = reg.counter_sum("resolver", "retries");
    assert!(retries > 0, "75% loss forces retries");
}

/// Figure 7's mechanism: during Experiment B's complete outage, the
/// answers that still arrive are cache hits (CC), including hits from
/// caches filled at different times; on recovery authoritative answers
/// (AA) surge back.
#[test]
fn claim_fig7_cache_classes_during_outage() {
    use dike::stats::timeseries::class_timeseries;
    let b = run_ddos(DdosExperiment::B, 0.012, 31);
    let classes = class_timeseries(&b.classification, dike::netsim::SimDuration::from_mins(10));
    // During the attack (minutes 60-120): answered queries are cache
    // hits, never fresh authoritative data.
    let during: Vec<_> = classes
        .iter()
        .filter(|c| c.start_min >= 70 && c.start_min < 120)
        .collect();
    let cc: usize = during.iter().map(|c| c.cc).sum();
    let aa: usize = during.iter().map(|c| c.aa).sum();
    assert!(cc > 50, "caches serve during the outage: {cc}");
    assert!(
        aa <= cc / 10,
        "no fresh data during a 100% outage: aa={aa} cc={cc}"
    );
    // After recovery (minute 120+), fresh answers return.
    let aa_after: usize = classes
        .iter()
        .filter(|c| c.start_min >= 120 && c.start_min < 140)
        .map(|c| c.aa)
        .sum();
    assert!(
        aa_after > 50,
        "authoritative answers surge on recovery: {aa_after}"
    );
}

/// Figure 12's mechanism: before the attack, the number of distinct
/// recursives reaching the authoritatives oscillates with cache expiry
/// for a 30-minute TTL (Experiment F) but stays flat and high with no
/// caching (Experiment I, TTL 60 < probe interval).
#[test]
fn claim_fig12_unique_recursives_shape() {
    let f = run_ddos(DdosExperiment::F, 0.012, 32);
    let i = run_ddos(DdosExperiment::I, 0.012, 32);
    let pre = |r: &Report| -> Vec<usize> {
        r.output
            .server
            .bins()
            .iter()
            .filter(|b| b.start_min >= 10 && b.start_min < 60)
            .map(|b| b.sources.len())
            .collect()
    };
    let f_pre = pre(&f);
    let i_pre = pre(&i);
    let spread = |v: &[usize]| {
        let max = *v.iter().max().unwrap_or(&0) as f64;
        let min = *v.iter().min().unwrap_or(&0) as f64;
        if max == 0.0 {
            0.0
        } else {
            (max - min) / max
        }
    };
    assert!(
        spread(&f_pre) > 0.4,
        "TTL 1800: expiry-driven oscillation, spread {} ({f_pre:?})",
        spread(&f_pre)
    );
    assert!(
        spread(&i_pre) < 0.25,
        "TTL 60: every round refetches, flat series, spread {} ({i_pre:?})",
        spread(&i_pre)
    );
}

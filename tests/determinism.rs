//! Determinism regression: a run is a pure function of its configuration
//! and seed. The hot-path overhaul (decode-once delivery, pooled payload
//! buffers, dense routing, generation-stamped timers) must not perturb a
//! single delivery, drop, or timer relative to the behaviour the rest of
//! the experiment suite was validated against.

use dike::experiments::{AttackPlan, ExperimentSetup, Report};
use dike::telemetry::TelemetryConfig;

fn fixed_setup() -> ExperimentSetup {
    ExperimentSetup {
        seed: 1414,
        attack: Some(AttackPlan::loss(0.9).window_min(30, 30)),
        ..ExperimentSetup::paced(25, 1800, 10, 90)
    }
}

/// The fixture is the run the pinned digest was measured on: this
/// `Debug` string is the setup the fixture ran at commit faa78c4, where
/// the digest held.
#[test]
fn fixed_setup_is_the_pinned_run() {
    assert_eq!(
        format!("{:?}", fixed_setup()),
        "ExperimentSetup { seed: 1414, population_seed: 7, n_probes: 25, ttl: 1800, \
         round_interval: SimDuration(600000000000), rounds: 9, \
         total_duration: SimDuration(5400000000000), \
         attack: Some(AttackPlan { start_min: 30, duration_min: 30, loss: 0.9, \
         scope: BothNs }), mix: PopulationMix { recursives_per_probe: [0.55, 0.3, \
         0.15], frac_public: 0.33, google_share: 0.75, frac_isp: 0.45, \
         frac_home_router: 0.12, frac_capper: 0.1, probes_per_isp: 3, \
         isp_bind_share: 0.5, isp_sixhour_cap_share: 0.3, isp_flush_share: 0.08, \
         farm_serve_stale_share: 0.25, farm_frontends: 3, farm_backends: 5, \
         farm_count: 3, home_router_public_upstream_share: 0.15 }, \
         first_round_spread: SimDuration(300000000000), \
         round_jitter: SimDuration(240000000000), track_probe: None, \
         regional_latency: true, telemetry: None, faults: None, \
         defense: None, spoofed_flood: None, late_wave: None, tcp: None, \
         cookie_secret: None, tcp_exhaustion: None, nxns: None, \
         resolver_max_fetch: None, audit: false, shards: 1 }"
    );
}

/// Record count plus [`dike::stub::ProbeLog::digest`] — any reordering,
/// dropped query, or shifted timestamp changes it.
fn log_digest(report: &Report) -> (usize, u64) {
    let log = &report.output.log;
    (log.records.len(), log.digest())
}

#[test]
fn fixed_seed_runs_are_bit_identical() {
    let (n1, d1) = log_digest(&Report::run(&fixed_setup()));
    let (n2, d2) = log_digest(&Report::run(&fixed_setup()));
    assert!(n1 > 0, "scenario produced no records");
    assert_eq!(n1, n2);
    assert_eq!(d1, d2, "same seed, different log");
    // Telemetry is pull-only: minute-cadence snapshot cuts must not
    // move a single record.
    let with_cuts = ExperimentSetup {
        telemetry: Some(TelemetryConfig::every_mins(1)),
        ..fixed_setup()
    };
    assert_eq!(
        log_digest(&Report::run(&with_cuts)),
        (n1, d1),
        "telemetry changed the run"
    );
}

#[test]
fn decoded_equals_delivered_loss_free() {
    // No attack, no ambient loss: every datagram that reaches a node was
    // decoded exactly once on the way in.
    let report = Report::run(&ExperimentSetup {
        seed: 99,
        ..ExperimentSetup::paced(10, 1800, 10, 30)
    });
    let perf = report.output.perf;
    assert!(perf.datagrams_delivered > 0);
    assert_eq!(perf.datagrams_decoded, perf.datagrams_delivered);
    assert_eq!(perf.datagrams_undecodable, 0);
}

/// Pinned digest for the fixed setup. Every draw behind it comes from
/// `dike_telemetry::rng`, so the value is the repository's own and holds
/// on every machine; it moves only when the draw order, a draw mapping
/// or the generator itself does. It was first measured with an
/// independent implementation of the same generator (the `rand` stand-in
/// under `benchmark/vendor/`), which makes it a stream-for-stream
/// cross-check of the in-tree one.
#[test]
fn fixed_seed_log_matches_pinned_digest() {
    let (n, d) = log_digest(&Report::run(&fixed_setup()));
    assert_eq!(n, 320);
    assert_eq!(d, 0xf369_b178_61b1_dd38);
}

/// Pinned delivery order within an instant. 64 clients fire one query
/// each at the *same instant* into a single recorder node over a
/// fixed-latency fabric, every round for 8 rounds. The recorder digests
/// `(arrival time, source, query id)` in delivery order: datagrams due
/// at one instant reach the node in the order they were sent (FIFO
/// within the instant).
///
/// Unlike [`fixed_seed_log_matches_pinned_digest`], nothing here draws
/// from the RNG (fixed latency, no loss), so this digest pins the event
/// order alone.
#[test]
fn same_instant_fan_in_is_fifo_and_matches_pinned_digest() {
    use dike::netsim::{
        Addr, Context, LatencyModel, LinkParams, LinkTable, Node, SimDuration, Simulator,
        TimerToken,
    };
    use dike::telemetry::sync::Mutex;
    use dike::wire::{Message, Name, RecordType};
    use std::sync::Arc;

    // `Node: Send` (the sharded engine moves node registries onto worker
    // threads), so the shared log is Arc<Mutex>, not Rc<RefCell> —
    // uncontended here, the run is single-threaded.
    struct Recorder {
        seen: Arc<Mutex<Vec<(u64, u32, u16)>>>,
    }
    impl Node for Recorder {
        fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _l: usize) {
            self.seen.lock().push((ctx.now().as_nanos(), src.0, msg.id));
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _t: TimerToken) {}
    }

    struct Pinger {
        target: Addr,
        id: u16,
        rounds: u32,
    }
    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(5), TimerToken(0));
        }
        fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, _msg: &Message, _l: usize) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
            ctx.send(
                self.target,
                &Message::query(self.id, Name::parse("x.nl").unwrap(), RecordType::A),
            );
            if self.rounds > 0 {
                self.rounds -= 1;
                ctx.set_timer(SimDuration::from_millis(5), TimerToken(0));
            }
        }
    }

    let mut sim = Simulator::new(4242);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(1)),
        loss: 0.0,
    });
    let seen = Arc::new(Mutex::new(Vec::new()));
    let (_, sink) = sim.add_node(Box::new(Recorder { seen: seen.clone() }));
    for i in 0..64u16 {
        sim.add_node(Box::new(Pinger {
            target: sink,
            id: i,
            rounds: 7,
        }));
    }
    sim.run_until_idle();

    let seen = seen.lock();
    assert_eq!(seen.len(), 64 * 8, "every fan-in datagram delivered");
    // Analytic check: this IS the sequential order. Round k timers
    // were armed in node-insertion order, so within each instant the
    // sends — and, over a fixed-latency link, the deliveries — land in
    // ascending pinger order, and round k arrives at 5(k+1)+1 ms.
    for (j, &(at, _, id)) in seen.iter().enumerate() {
        let round = j / 64;
        let expect_at = SimDuration::from_millis(5 * (round as u64 + 1) + 1);
        assert_eq!(at, expect_at.as_nanos(), "round {round} arrival time");
        assert_eq!(id as usize, j % 64, "FIFO-within-instant order");
    }
    // And the digest (covers source-address assignment too) for a
    // byte-exact regression pin.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut push = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for &(at, src, id) in seen.iter() {
        push(at);
        push(src as u64);
        push(id as u64);
    }
    assert_eq!(h, FAN_IN_DIGEST, "same-instant fan-in was reordered");
}

/// Digest of the fan-in delivery sequence above. The analytic
/// assertions establish that the sequence is the sequential FIFO order,
/// so this constant pins it byte-exactly against future event-core
/// changes.
const FAN_IN_DIGEST: u64 = 0x0b1c_a58b_b858_6425;

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The RRL-slip defended, flooded Experiment H at scale 0.02, with the
/// flood raised to 24 sources × 60 q/s: the run both flood pins below
/// measure.
fn pinned_flood_setup() -> ExperimentSetup {
    use dike::experiments::defense::{defense_setup, DefensePreset, SpoofedFlood};
    let mut setup = defense_setup(DefensePreset::RrlSlip, 0.02, 42);
    let attack = setup.attack.expect("defense_setup always attacks");
    setup.spoofed_flood = Some(SpoofedFlood::aligned_with(&attack, 24, 60.0));
    setup
}

/// Pinned telemetry export of the RRL-defended flooded Experiment H:
/// every cut of every node's counters, gauges and histograms, with node
/// labels, as `MetricsRegistry::to_json` writes them. The first constant
/// was measured on the map-backed registry the family-backed one
/// replaced, so it cross-checked the export order, the sparse-point rule
/// and the number formatting of one against the other.
///
/// The resolver reading its cache once per question moved it from
/// 0x5595_af25_f205_cc8c: a per-series diff of the two exports differs
/// only in the `cache.hits`, `cache.misses` and `cache.expired` series.
/// A retry skipping its delegation walk while the cache generation holds
/// moved it again, from 0xd663_75c9_8f65_9011, in the same three series
/// only. Each spoofed source encoding its one query once, not every
/// tick, moved it a third time, from 0x2d39_7c71_25ae_0b14, in the
/// `netsim.bytes_encoded` series only: that counter tallies encoder
/// output, and the flood now resends its bytes without re-encoding them.
/// Every datagram, decode and answer stayed, as [`flood_run_is_pinned`]
/// shows.
#[test]
fn telemetry_export_is_pinned() {
    let report = Report::run(&pinned_flood_setup());
    let json = report
        .output
        .metrics
        .expect("defense_setup sets telemetry")
        .to_json();
    assert_eq!(fnv1a(json.as_bytes()), 0x10a7_13d1_4c84_50c6);
}

/// Pinned outputs of the same flooded run: the client log's record count
/// and digest, the authoritatives' query total per 10-minute bin, and
/// the spoofed fleet's tally. The constants were measured before the
/// fleet encoded each query once, and held unchanged after it: that
/// change moved no datagram.
#[test]
fn flood_run_is_pinned() {
    use dike::experiments::defense::SpoofedStats;
    let report = Report::run(&pinned_flood_setup());
    assert_eq!(log_digest(&report), (4541, 0x936c_f382_1ee3_0630));
    let server = &report.output.server;
    let bins: Vec<(u64, usize)> = server
        .bins()
        .iter()
        .map(|b| (b.start_min, b.total()))
        .collect();
    assert_eq!(
        bins,
        [
            (0, 452),
            (10, 140),
            (20, 113),
            (30, 200),
            (40, 197),
            (50, 125),
            (60, 864_862),
            (70, 865_756),
            (80, 865_184),
            (90, 865_043),
            (100, 865_155),
            (110, 865_186),
            (120, 242),
            (130, 218),
            (140, 190),
            (150, 190),
            (160, 218),
            (170, 148),
        ]
    );
    assert_eq!(server.total_queries, 5_193_619);
    assert_eq!(
        report.output.spoofed,
        Some(SpoofedStats {
            sent: 5_184_001,
            full_answers: 17_424,
            truncated_answers: 251_104,
        })
    );
}

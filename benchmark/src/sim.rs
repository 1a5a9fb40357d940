//! The three simulator workloads: `ddos-h`, `flood-rrl`, `sharded-k2`.
//!
//! Work per repetition is fixed by the constants below — calibrated once
//! on the 2-vCPU reference box so one repetition takes 4–7 s (see
//! `README.md`) and never adjusted at run time. A run repeats its timed
//! section with the same seed and reports the median repetition; the
//! repetitions must also agree exactly on the client log and the event
//! count, which is the determinism check that rides along for free.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dike_experiments::ddos::DdosExperiment;
use dike_experiments::defense::{defense_setup, DefensePreset, SpoofedFlood};
use dike_experiments::setup::{
    run_experiment, AttackPlan, AttackScope, ExperimentOutput, ExperimentSetup,
};
use dike_experiments::shard::run_experiment_sharded;
use dike_experiments::topology::{self, BuildConfig};
use dike_faults::FaultPlan;
use dike_netsim::trace::{self, CountingTrace};
use dike_netsim::{Addr, Context, Node, SimDuration, SimPerf, SimTime, Simulator, TimerToken};
use dike_stats::classify::Classifier;
use dike_stats::latency::latency_timeseries;
use dike_stats::server_view::ServerView;
use dike_stats::timeseries::outcome_timeseries;
use dike_stub::ProbeLog;
use dike_telemetry::{MetricsRegistry, TelemetryConfig};
use dike_wire::{Message, Name, RecordType};

use crate::metrics::Outcome;
use crate::numeric::{median, relative_spread};
use crate::trace::{SampleSink, Tracer, SAMPLE_CAPACITY};
use crate::{micro, os, replay, Fault, RunOptions, REPS, SMOKE_DIVISOR};

/// `ddos-h` population scale (× the paper's 9 200 probes).
const DDOS_H_SCALE: f64 = 1.5;
/// `sharded-k2` population scale. Far below `ddos-h`'s because the
/// sharded engine pays two barrier crossings per conservative window:
/// the paper-scale population takes over a minute per repetition.
const SHARDED_K2_SCALE: f64 = 0.16;
/// `flood-rrl` legitimate-population scale.
const FLOOD_POPULATION_SCALE: f64 = 0.25;
/// `flood-rrl` spoofed sources (one sender node each).
const FLOOD_SOURCES: usize = 24;
/// `flood-rrl` sustained queries per second per spoofed source.
const FLOOD_QPS_PER_SOURCE: f64 = 60.0;
/// The paper band for clients served during Experiment H's attack
/// (Table 4 / Fig. 8: about 60 % at 90 % loss with 30-minute TTLs).
const OK_SHARE_BAND: (f64, f64) = (0.50, 0.75);
/// A single-threaded repetition whose wall time exceeds its CPU time by
/// more than this share was descheduled and is repeated.
const DISTURBED_SLACK: f64 = 0.05;
/// At most this many repetitions are repeated per run.
const MAX_EXTRA_REPS: u32 = 2;
/// `setup_s` is the wall time of this many set-ups of the workload's
/// world back to back: one alone takes 1–10 ms, too short to time to a
/// tenth on a shared box.
const SETUPS_PER_BATCH: u32 = 64;
/// Batches of set-ups per run; the median batch is reported.
const SETUP_BATCHES: u32 = 5;

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// Table 4 Experiment H on the single-threaded engine.
    DdosH,
    /// Experiment H behind RRL-slip with a spoofed flood that dominates
    /// the datagram count.
    FloodRrl,
    /// Experiment H through the sharded engine on two worker threads.
    ShardedK2,
}

impl SimWorkload {
    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            SimWorkload::DdosH => "ddos-h",
            SimWorkload::FloodRrl => "flood-rrl",
            SimWorkload::ShardedK2 => "sharded-k2",
        }
    }
}

/// Table 4's Experiment H as a shard-legal setup: pure UDP, no
/// telemetry, no per-probe drill-down, auditor armed.
fn experiment_h(scale: f64, seed: u64) -> ExperimentSetup {
    let p = DdosExperiment::H.params();
    let n_probes = ((9_200.0 * scale).round() as usize).max(10);
    let mut setup = ExperimentSetup::new(n_probes, p.ttl);
    // `--seed` drives the packet-level randomness (loss draws, path
    // delays, round jitter). The population keeps the repository's
    // default seed: who talks to whom is part of the fixed work, so runs
    // with different seeds do the same amount of it.
    setup.seed = seed;
    setup.round_interval = SimDuration::from_mins(p.interval_min);
    setup.rounds = (p.total_min / p.interval_min) as u32;
    setup.total_duration = SimDuration::from_mins(p.total_min);
    setup.first_round_spread = SimDuration::from_mins(p.interval_min.min(8));
    setup.round_jitter = SimDuration::from_mins(4);
    setup.attack = Some(AttackPlan {
        start_min: p.ddos_start_min,
        duration_min: p.ddos_duration_min,
        loss: p.loss,
        scope: AttackScope::BothNs,
    });
    setup.audit = true;
    setup
}

/// The fixed setup of `workload` for `seed`.
pub fn setup_for(workload: SimWorkload, seed: u64, smoke: bool) -> ExperimentSetup {
    let shrink = if smoke { SMOKE_DIVISOR as f64 } else { 1.0 };
    match workload {
        SimWorkload::DdosH => experiment_h(DDOS_H_SCALE / shrink, seed),
        SimWorkload::ShardedK2 => {
            let mut setup = experiment_h(SHARDED_K2_SCALE / shrink, seed);
            setup.shards = 2;
            setup
        }
        SimWorkload::FloodRrl => {
            let mut setup = defense_setup(
                DefensePreset::RrlSlip,
                FLOOD_POPULATION_SCALE / shrink,
                seed,
            );
            let attack = setup.attack.expect("defense_setup always attacks");
            setup.spoofed_flood = Some(SpoofedFlood::aligned_with(
                &attack,
                FLOOD_SOURCES,
                FLOOD_QPS_PER_SOURCE / shrink,
            ));
            setup.audit = true;
            setup
        }
    }
}

/// FNV-1a over the record stream, the digest the repository's own
/// determinism tests use.
pub fn log_digest(log: &ProbeLog) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut push = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for r in &log.records {
        push(u64::from(r.vp.probe));
        push(u64::from(r.vp.recursive));
        push(u64::from(r.recursive.0));
        push(u64::from(r.round));
        push(r.sent_at.as_nanos());
        push(u64::from(r.outcome.is_ok()));
        push(u64::from(r.outcome.is_timeout()));
        push(r.rtt.map_or(u64::MAX, |d| d.as_nanos()));
    }
    h
}

/// The analysis a user runs on a finished experiment, and what the
/// harness reads out of it.
struct Analysis {
    /// Seconds the `dike-stats` calls took.
    seconds: f64,
    /// Share of client queries answered OK during the attack window.
    ok_share_attack: f64,
    /// Client queries sent during the attack window.
    client_queries_attack: u64,
}

fn analyze(log: &ProbeLog, attack: &AttackPlan) -> Analysis {
    let t0 = Instant::now();
    let bin = SimDuration::from_mins(10);
    let outcomes = outcome_timeseries(log, bin);
    let latencies = latency_timeseries(log, bin);
    let classes = Classifier::default().classify(log);
    let seconds = t0.elapsed().as_secs_f64();
    std::hint::black_box((&latencies, &classes));

    let window = attack.start_min..attack.start_min + attack.duration_min;
    let (ok, total) = outcomes
        .iter()
        .filter(|b| window.contains(&b.start_min))
        .fold((0usize, 0usize), |(ok, total), b| {
            (ok + b.ok, total + b.total())
        });
    Analysis {
        seconds,
        ok_share_attack: if total == 0 {
            0.0
        } else {
            ok as f64 / total as f64
        },
        client_queries_attack: total as u64,
    }
}

/// Queries the measured authoritatives were offered during the attack
/// window, per client query sent in it (Fig. 10's multiplier).
fn upstream_per_client_query(server: &ServerView, attack: &AttackPlan, client_queries: u64) -> f64 {
    let window = attack.start_min..attack.start_min + attack.duration_min;
    let offered: usize = server
        .bins()
        .iter()
        .filter(|b| window.contains(&b.start_min))
        .map(|b| b.total())
        .sum();
    if client_queries == 0 {
        0.0
    } else {
        offered as f64 / client_queries as f64
    }
}

/// The defense ledger as the telemetry registry recorded it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Ledger {
    drops: u64,
    rrl_limited: u64,
    rrl_slipped: u64,
    shed: u64,
}

impl Ledger {
    fn from_registry(reg: &MetricsRegistry) -> Ledger {
        let counter = |name: &str| reg.counter_total("netsim", None, name).unwrap_or(0);
        Ledger {
            drops: counter("defense_drops"),
            rrl_limited: counter("rrl_limited"),
            rrl_slipped: counter("rrl_slipped"),
            shed: counter("shed_known") + counter("shed_unknown") + counter("shed_flagged"),
        }
    }
}

/// One repetition: a whole `run_experiment` call plus the analysis.
struct Rep {
    /// Wall seconds of the call outside `Simulator::run_until`: topology
    /// build, plan installation, shard staging, audit, teardown.
    setup_s: f64,
    /// `SimPerf::wall_nanos` in seconds.
    run_s: f64,
    /// The analysis.
    analysis: Analysis,
    /// User + system CPU seconds of the repetition.
    cpu_s: f64,
    /// Wall seconds of the repetition.
    wall_s: f64,
    /// Digest of the client log.
    digest: u64,
    /// Client log records.
    records: u64,
    /// Queries the spoofed fleet sent.
    spoofed_sent: u64,
    /// The simulator's volume counters.
    perf: SimPerf,
    /// Fig. 10's multiplier.
    upstream_per_client_query: f64,
    /// The telemetry registry, when the setup asked for one.
    registry: Option<MetricsRegistry>,
}

impl Rep {
    fn time_to_result_s(&self) -> f64 {
        self.run_s + self.analysis.seconds
    }

    /// Scenario queries: what the clients and the spoofed fleet sent.
    fn operations(&self) -> u64 {
        self.records + self.spoofed_sent
    }
}

/// `run_experiment` with a panic turned into an error: the auditor (and
/// any bug) reports by panicking, and a panic is a failed run, not a
/// crashed harness. The worker threads of a sharded setup are pinned to
/// `worker_cpus`.
fn run_caught(setup: &ExperimentSetup, worker_cpus: &[usize]) -> Result<ExperimentOutput, String> {
    let call = || catch_unwind(AssertUnwindSafe(|| run_experiment(setup)));
    let result = if setup.shards >= 2 && !worker_cpus.is_empty() {
        os::with_workers_pinned(setup.shards, worker_cpus, call)
    } else {
        call()
    };
    result.map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        format!("run_experiment panicked: {msg}")
    })
}

/// Wall seconds of `setups` set-ups of `setup`'s world: whole
/// `run_experiment` calls that simulate no time, less what little the
/// engine ran (the nodes' start hooks). Topology build, plan
/// installation, shard staging and dealing, audit, teardown.
fn setup_batch_s(setup: &ExperimentSetup, setups: u32) -> Result<f64, String> {
    let mut idle = setup.clone();
    idle.total_duration = SimDuration::ZERO;
    let mut ran_ns = 0;
    let t0 = Instant::now();
    for _ in 0..setups {
        ran_ns += run_caught(&idle, &[])?.perf.wall_nanos;
    }
    Ok(t0.elapsed().as_secs_f64() - ran_ns as f64 / 1e9)
}

fn run_rep(setup: &ExperimentSetup, worker_cpus: &[usize]) -> Result<Rep, String> {
    let attack = setup.attack.expect("every sim workload attacks");
    let cpu0 = os::cpu_seconds(None);
    let t0 = Instant::now();
    let out = run_caught(setup, worker_cpus)?;
    let call_s = t0.elapsed().as_secs_f64();
    let analysis = analyze(&out.log, &attack);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = os::cpu_seconds(None) - cpu0;

    let run_s = out.perf.wall_nanos as f64 / 1e9;
    Ok(Rep {
        setup_s: call_s - run_s,
        run_s,
        cpu_s,
        wall_s,
        digest: log_digest(&out.log),
        records: out.log.records.len() as u64,
        spoofed_sent: out.spoofed.map_or(0, |s| s.sent),
        perf: out.perf,
        upstream_per_client_query: upstream_per_client_query(
            &out.server,
            &attack,
            analysis.client_queries_attack,
        ),
        analysis,
        registry: out.metrics,
    })
}

/// Runs one simulator workload: [`REPS`] same-seed repetitions, the
/// correctness gate, the end-to-end metrics, and — with `opts.trace` —
/// the extra traced pass and the layer ledger.
pub fn run(workload: SimWorkload, opts: &RunOptions) -> Outcome {
    let mut out = Outcome::default();
    let setup = setup_for(workload, opts.seed, opts.smoke);
    let single_threaded = setup.shards < 2;
    // Both workers of the sharded engine run on one core, the highest
    // the process may use, out of one malloc arena: see `NOISE.md` for
    // what the scheduler and per-thread arenas do to the numbers
    // otherwise.
    let cpus = os::allowed_cpus();
    let one_core = &cpus[cpus.len() - 1..];
    if !single_threaded {
        os::steady_malloc();
    }

    let mut reps: Vec<Rep> = Vec::new();
    let mut disturbed = 0u32;
    for i in 0..REPS {
        let mut rep_setup = setup.clone();
        if opts.inject == Some(Fault::PerturbSeed) && i == 1 {
            rep_setup.seed ^= 1;
        }
        loop {
            match run_rep(&rep_setup, one_core) {
                Ok(rep) => {
                    // Wall well above CPU on a single thread means the
                    // box took the core away mid-repetition.
                    let descheduled = single_threaded
                        && !opts.smoke
                        && rep.wall_s > rep.cpu_s * (1.0 + DISTURBED_SLACK);
                    if descheduled && disturbed < MAX_EXTRA_REPS {
                        disturbed += 1;
                        continue;
                    }
                    eprintln!(
                        "{} repetition {i}: set-up {:.4} s, run {:.4} s, analysis {:.4} s, cpu {:.2} s",
                        workload.name(),
                        rep.setup_s,
                        rep.run_s,
                        rep.analysis.seconds,
                        rep.cpu_s
                    );
                    reps.push(rep);
                }
                Err(why) => out.fail(why),
            }
            break;
        }
    }
    let (batches, setups) = if opts.smoke {
        (2, 2)
    } else {
        (SETUP_BATCHES, SETUPS_PER_BATCH)
    };
    let mut setup_batches = Vec::new();
    for _ in 0..batches {
        match setup_batch_s(&setup, setups) {
            Ok(s) => setup_batches.push(s),
            Err(why) => out.fail(why),
        }
    }
    let Some(first) = reps.first().filter(|_| !setup_batches.is_empty()) else {
        out.attempted = 1;
        return out;
    };

    // The gate: identities and bands, no pinned constants.
    for (i, rep) in reps.iter().enumerate().skip(1) {
        out.check(rep.digest == first.digest, || {
            format!(
                "repetition {i} log digest {:#x} differs from repetition 0's {:#x}",
                rep.digest, first.digest
            )
        });
        out.check(rep.perf.events_popped == first.perf.events_popped, || {
            format!(
                "repetition {i} popped {} events, repetition 0 popped {}",
                rep.perf.events_popped, first.perf.events_popped
            )
        });
    }
    let perf = first.perf;
    out.check(
        perf.datagrams_undecodable == 0
            && perf.datagrams_delivered <= perf.datagrams_decoded
            && perf.datagrams_decoded <= perf.datagrams_sent,
        || format!("datagram counters inconsistent: {perf:?}"),
    );
    if workload == SimWorkload::DdosH {
        let share = first.analysis.ok_share_attack;
        out.check((OK_SHARE_BAND.0..=OK_SHARE_BAND.1).contains(&share), || {
            format!(
                "ok share during the attack {share:.3} outside the paper band {OK_SHARE_BAND:?}"
            )
        });
    }
    let ledger = first.registry.as_ref().map(Ledger::from_registry);
    if workload == SimWorkload::FloodRrl {
        let l = ledger.expect("defense_setup sets telemetry");
        out.check(
            l.drops == l.rrl_limited + l.shed && l.rrl_limited > 0,
            || format!("defense ledger identity broken: {l:?}"),
        );
        let share = first.spoofed_sent as f64 / perf.datagrams_sent as f64;
        out.check(share >= 0.8, || {
            format!("spoofed datagrams are only {share:.3} of all datagrams")
        });
    }

    // End to end: the median repetition.
    let med = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let time_to_result_s = med(Rep::time_to_result_s);
    out.attempted = first.operations();
    out.set("time_to_result_s", time_to_result_s);
    out.set("throughput", first.operations() as f64 / time_to_result_s);
    out.set("setup_s", median(&setup_batches));
    out.set("cpu_s", med(|r| r.cpu_s));
    out.set("peak_rss_mb", os::peak_rss_mb(None));

    if opts.trace {
        let ttrs: Vec<f64> = reps.iter().map(Rep::time_to_result_s).collect();
        out.set("harness.rep_spread", relative_spread(&ttrs));
        out.set("harness.disturbed_reps", f64::from(disturbed));
        let run_s = med(|r| r.run_s);
        out.set("netsim.run_s", run_s);
        out.set("netsim.events", perf.events_popped as f64);
        out.set("netsim.datagrams_sent", perf.datagrams_sent as f64);
        out.set(
            "netsim.datagrams_delivered",
            perf.datagrams_delivered as f64,
        );
        out.set("netsim.datagrams_decoded", perf.datagrams_decoded as f64);
        out.set(
            "netsim.ns_per_event",
            run_s * 1e9 / perf.events_popped as f64,
        );
        out.set("netsim.events_per_s", perf.events_popped as f64 / run_s);
        out.set("wire.bytes_decoded", perf.bytes_decoded as f64);
        out.set("wire.bytes_encoded", perf.bytes_encoded as f64);
        let analyze_s = med(|r| r.analysis.seconds);
        out.set("stats.analyze_s", analyze_s);
        out.set("stats.records_per_s", first.records as f64 / analyze_s);
        out.set("stub.records", first.records as f64);
        out.set("stub.ok_share_attack", first.analysis.ok_share_attack);
        out.set(
            "resolver.upstream_per_client_query",
            first.upstream_per_client_query,
        );
        if let Some(l) = ledger {
            out.set("defense.drops", l.drops as f64);
            out.set("defense.rrl_limited", l.rrl_limited as f64);
            out.set("defense.rrl_slipped", l.rrl_slipped as f64);
        }
        traced_run(workload, &setup, opts, first, time_to_result_s, &mut out);
    }
    out
}

// ---------------------------------------------------------------------
// The traced pass
// ---------------------------------------------------------------------

/// The harness's stand-in for the spoofed fleet's sender node, whose
/// installer is private to `dike-experiments`: timer-paced, one query per
/// tick, alternating between the two targets, no randomness.
struct Flooder {
    targets: [Addr; 2],
    first_fire: SimDuration,
    interval: SimDuration,
    end: SimTime,
    query_id: u16,
    next_target: usize,
}

impl Node for Flooder {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.first_fire, TimerToken(0));
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, _msg: &Message, _len: usize) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
        if ctx.now() >= self.end {
            return;
        }
        let name = Name::parse(&format!("{}.cachetest.nl", self.query_id)).expect("probe name");
        let q = Message::iterative_query(self.query_id, name, RecordType::AAAA);
        ctx.send(self.targets[self.next_target % 2], &q);
        self.next_target += 1;
        ctx.set_timer(self.interval, TimerToken(0));
    }
}

fn install_flooders(sim: &mut Simulator, flood: &SpoofedFlood, targets: [Addr; 2]) {
    let start = SimDuration::from_mins(flood.start_min);
    let end = (start + SimDuration::from_mins(flood.duration_min)).after_zero();
    let interval = SimDuration::from_secs_f64(1.0 / flood.qps_per_source.max(0.001));
    for i in 0..flood.sources {
        let stagger =
            SimDuration::from_nanos(interval.as_nanos() * i as u64 / flood.sources.max(1) as u64);
        sim.add_node(Box::new(Flooder {
            targets,
            first_fire: start + stagger,
            interval,
            end,
            query_id: 50_000u16.wrapping_add(i as u16),
            next_target: i % 2,
        }));
    }
}

/// What the traced single-threaded pass observed.
struct TracedPass {
    time_to_result_s: f64,
    digest: u64,
    counts: CountingTrace,
    perf: SimPerf,
    sink: SampleSink,
}

/// Assembles `setup`'s world from public pieces — `topology::build`,
/// `FaultPlan::schedule`, `DefensePlan::schedule` — on the
/// single-threaded engine, with a counting and a sampling sink attached,
/// and runs it under spans.
fn traced_pass(setup: &ExperimentSetup, tracer: &mut Tracer, parent: usize) -> TracedPass {
    let attack = setup.attack.expect("every sim workload attacks");
    let mut sim = Simulator::new(setup.seed);
    let build = BuildConfig {
        n_probes: setup.n_probes,
        ttl: setup.ttl,
        mix: setup.mix,
        first_round_spread: setup.first_round_spread,
        round_interval: setup.round_interval,
        round_jitter: setup.round_jitter,
        rounds: setup.rounds,
        population_seed: setup.population_seed,
        regional_latency: setup.regional_latency,
        resolver_tcp_fallback: false,
        cookie_secret: None,
        resolver_max_fetch: None,
        nxns: None,
    };
    let (topo, _) = tracer.span("experiments.build", Some(parent), |_, _| {
        let topo = topology::build(&mut sim, &build);
        let nodes = u64::from(sim.next_addr().0 - Simulator::addr_at(0).0);
        (topo, nodes)
    });

    let registry = setup.telemetry.map(|cfg| {
        let reg = dike_telemetry::shared_registry();
        sim.attach_telemetry(reg.clone(), cfg);
        reg
    });
    // Same sink order as `run_experiment` (the server view first), then
    // the harness's own two.
    let (_, view_sink) = trace::shared(ServerView::new(topo.ns, SimDuration::from_mins(10)));
    sim.add_sink(view_sink);
    let (counts, counts_sink) = trace::shared(CountingTrace::default());
    sim.add_sink(counts_sink);
    let (samples, samples_sink) = trace::shared(SampleSink::new(
        topo.ns,
        [topo.root, topo.nl],
        SAMPLE_CAPACITY,
        setup.seed,
    ));
    sim.add_sink(samples_sink);

    FaultPlan::new()
        .with(attack.fault())
        .schedule(&mut sim)
        .unwrap_or_else(|(_, e)| panic!("invalid attack plan: {e}"));
    if let Some(defense) = &setup.defense {
        defense
            .schedule(&mut sim)
            .unwrap_or_else(|(i, e)| panic!("invalid defense plan (defense {i}): {e}"));
    }
    if let Some(flood) = &setup.spoofed_flood {
        install_flooders(&mut sim, flood, topo.ns);
    }

    let ((), run_span) = tracer.span("netsim.run", Some(parent), |_, _| {
        sim.run_until(setup.total_duration.after_zero());
        ((), sim.perf().events_popped)
    });
    sim.audit().assert_clean();
    let perf = sim.perf();
    drop(sim);

    let unwrap = "simulator dropped, the sink has one owner";
    let log = Arc::try_unwrap(topo.log).expect(unwrap).into_inner();
    let counts = Arc::try_unwrap(counts).expect(unwrap).into_inner();
    let sink = Arc::try_unwrap(samples).ok().expect(unwrap).into_inner();
    // The registry is dropped with its counts unread: the ledger takes
    // them from the untraced run.
    drop(registry);

    let (_, analyze_span) = tracer.span("stats.analyze", Some(parent), |_, _| {
        (analyze(&log, &attack), log.records.len() as u64)
    });
    TracedPass {
        time_to_result_s: tracer.get(run_span).seconds() + tracer.get(analyze_span).seconds(),
        digest: log_digest(&log),
        counts,
        perf,
        sink,
    }
}

/// Operation counts × replayed per-operation cost, over the run time:
/// how much of `netsim.run_s` the layer ledger accounts for.
struct Coverage<'a> {
    perf: &'a SimPerf,
    registry: Option<&'a MetricsRegistry>,
    costs: &'a replay::LayerCosts,
    timer_ns: f64,
    round_trip_ns: f64,
}

impl Coverage<'_> {
    fn wire_ns(&self) -> f64 {
        self.perf.datagrams_decoded as f64 * self.costs.decode_ns
            + self.perf.datagrams_sent as f64 * self.costs.encode_ns
    }

    fn accounted_ns(&self) -> f64 {
        // The engine's own share of a datagram (wheel, routing, loss,
        // node dispatch): half an echo round trip minus its codec work.
        let fabric_ns =
            (self.round_trip_ns / 2.0 - self.costs.encode_ns - self.costs.decode_ns).max(0.0);
        let mut ns = self.wire_ns() + self.perf.datagrams_sent as f64 * fabric_ns;
        if let Some(reg) = self.registry {
            let global = |m: &str| reg.counter_total("netsim", None, m).unwrap_or(0) as f64;
            ns += (global("timers_fired") + global("timers_cancelled")) * self.timer_ns;
            let answered = reg.counter_sum("auth", "queries") as f64;
            ns += answered * self.costs.handle_query_ns;
            ns += reg.counter_sum("cache", "hits") as f64 * self.costs.lookup_hit_ns;
            ns += reg.counter_sum("cache", "misses") as f64 * self.costs.lookup_miss_ns;
            ns += reg.counter_sum("cache", "insertions") as f64 * self.costs.insert_ns;
            // The gate rules on every query it then passes or refuses.
            let refused = Ledger::from_registry(reg).drops as f64;
            ns += (answered + refused) * self.costs.rrl_verdict_ns;
        }
        ns
    }
}

/// The extra pass `--trace` makes, and everything derived from it.
fn traced_run(
    workload: SimWorkload,
    setup: &ExperimentSetup,
    opts: &RunOptions,
    baseline: &Rep,
    untraced_ttr_s: f64,
    out: &mut Outcome,
) {
    let mut tracer = Tracer::new(format!("{}-{}", workload.name(), opts.seed));
    tracer.span("trace.pass", None, |tracer, me| {
        // The sampled world runs on the single-threaded engine; for
        // `sharded-k2` that is the identical setup with `shards = 1`,
        // whose per-event code is the same.
        let mut legacy = setup.clone();
        legacy.shards = 1;
        let pass = traced_pass(&legacy, tracer, me);

        let build = tracer.find("experiments.build").expect("recorded");
        out.set("experiments.build_s", build.seconds());
        out.set("experiments.nodes", build.count as f64);
        out.set("attack.dropped", pass.counts.dropped as f64);
        out.check(
            pass.counts.malformed == 0
                && pass.perf.datagrams_decoded
                    == pass.counts.delivered + pass.counts.dropped + pass.counts.no_route,
            || {
                format!(
                    "decoded {} != delivered + dropped + unroutable in {:?}",
                    pass.perf.datagrams_decoded, pass.counts
                )
            },
        );

        // Counts the layers keep themselves come from the telemetry
        // registry: the untraced run's own where the workload has
        // telemetry on, and on `ddos-h` one more run with cuts every 10
        // minutes, which also prices the cuts.
        let with_cuts = match workload {
            SimWorkload::DdosH => {
                out.check(pass.digest == baseline.digest, || {
                    format!(
                        "traced pass digest {:#x} differs from the untraced run's {:#x}: \
                         the harness-assembled world is not run_experiment's world",
                        pass.digest, baseline.digest
                    )
                });
                out.set(
                    "harness.tracing_overhead",
                    pass.time_to_result_s / untraced_ttr_s,
                );
                let mut with_cuts = setup.clone();
                with_cuts.telemetry = Some(TelemetryConfig::every_mins(10));
                match run_rep(&with_cuts, &[]) {
                    Ok(rep) => {
                        out.set("telemetry.cut_overhead", rep.run_s / baseline.run_s);
                        Some(rep)
                    }
                    Err(why) => {
                        out.fail(why);
                        None
                    }
                }
            }
            SimWorkload::FloodRrl => {
                out.set(
                    "harness.tracing_overhead",
                    pass.time_to_result_s / untraced_ttr_s,
                );
                None
            }
            SimWorkload::ShardedK2 => {
                sharded_ladder(setup, &legacy, baseline, &pass, out);
                None
            }
        };
        let registry = with_cuts
            .as_ref()
            .map_or(baseline.registry.as_ref(), |rep| rep.registry.as_ref());
        if let Some(reg) = registry {
            let (_, span) = tracer.span("telemetry.export", Some(me), |_, _| {
                (std::hint::black_box(reg.to_json().len()), reg.len() as u64)
            });
            out.set("telemetry.export_s", tracer.get(span).seconds());
            out.set("auth.queries", reg.counter_sum("auth", "queries") as f64);
            let (hits, misses) = (
                reg.counter_sum("cache", "hits") as f64,
                reg.counter_sum("cache", "misses") as f64,
            );
            if hits + misses > 0.0 {
                out.set("cache.hit_ratio", hits / (hits + misses));
            }
        }

        // Replay the sample through the layers; price the engine's
        // primitives in small fixed worlds.
        let (costs, _) = tracer.span("replay", Some(me), |tracer, me| {
            let n = pass.sink.samples.len() as u64;
            let costs = replay::replay(
                tracer,
                me,
                &pass.sink.samples,
                setup.ttl,
                setup.defense.as_ref(),
                true,
            );
            (costs, n)
        });
        out.set("wire.encode_ns", costs.encode_ns);
        out.set("wire.decode_ns", costs.decode_ns);
        out.set("auth.handle_query_ns", costs.handle_query_ns);
        out.set("defense.rrl_verdict_ns", costs.rrl_verdict_ns);
        out.set("cache.lookup_hit_ns", costs.lookup_hit_ns);
        out.set("cache.lookup_miss_ns", costs.lookup_miss_ns);
        out.set("cache.insert_ns", costs.insert_ns);

        let shrink = if opts.smoke { SMOKE_DIVISOR as u32 } else { 1 };
        let ((round_trip_ns, timer_ns), _) = tracer.span("micro", Some(me), |_, _| {
            let round_trip_ns = micro::round_trip_ns(200_000 / shrink);
            let timer_ns = micro::timer_ns(256, 1_000 / shrink);
            out.set("netsim.round_trip_ns", round_trip_ns);
            out.set("netsim.timer_ns", timer_ns);
            out.set(
                "netsim.dropped_send_ns",
                micro::dropped_send_ns(4_000 / shrink, 64),
            );
            out.set(
                "resolver.resolve_warm_ns",
                micro::resolve_ns(100_000 / shrink, true),
            );
            out.set(
                "resolver.resolve_cold_ns",
                micro::resolve_ns(40_000 / shrink, false),
            );
            ((round_trip_ns, timer_ns), 5)
        });

        let coverage = Coverage {
            perf: &baseline.perf,
            registry,
            costs: &costs,
            timer_ns,
            round_trip_ns,
        };
        let run_ns = baseline.run_s * 1e9;
        out.set("wire.share_of_run", coverage.wire_ns() / run_ns);
        if workload != SimWorkload::ShardedK2 {
            // Per-operation costs describe the single-threaded engine;
            // the sharded run time is mostly barrier waits.
            out.set("harness.layer_coverage", coverage.accounted_ns() / run_ns);
        }
        ((), 1)
    });

    let path = Path::new(&opts.out_dir).join(format!("trace-{}.jsonl", workload.name()));
    if let Err(e) = tracer.write(&path) {
        out.fail(format!("write {}: {e}", path.display()));
    }
}

/// `sharded-k2` only: the identical setup on the sharded engine with one
/// shard, on the single-threaded engine, and with K = 2 given a core per
/// worker, against the one-core K = 2 baseline.
fn sharded_ladder(
    setup: &ExperimentSetup,
    legacy: &ExperimentSetup,
    k2: &Rep,
    traced_legacy: &TracedPass,
    out: &mut Outcome,
) {
    let cpus = os::allowed_cpus();
    let mut k1_setup = setup.clone();
    k1_setup.shards = 1;
    // `run_experiment` routes `shards = 1` to the single-threaded
    // engine; the sharded engine with one shard is reached directly.
    let k1 = os::with_workers_pinned(1, &cpus[cpus.len() - 1..], || {
        catch_unwind(AssertUnwindSafe(|| run_experiment_sharded(&k1_setup)))
    });
    let Ok(k1) = k1 else {
        out.fail("sharded K=1 run panicked".to_owned());
        return;
    };
    let k1_digest = log_digest(&k1.log);
    out.check(k1_digest == k2.digest, || {
        format!(
            "sharded K=2 digest {:#x} differs from sharded K=1 digest {k1_digest:#x}",
            k2.digest
        )
    });
    let k1_run_s = k1.perf.wall_nanos as f64 / 1e9;
    out.set("shard.k1_run_s", k1_run_s);
    // What the second core buys: bimodal when left to the scheduler and a
    // tenth apart from run to run when pinned, so a layer figure only.
    match run_rep(setup, &cpus) {
        Ok(spread) => {
            out.check(spread.digest == k2.digest, || {
                format!(
                    "two-core digest {:#x} differs from the one-core digest {:#x}",
                    spread.digest, k2.digest
                )
            });
            out.set("shard.k2_run_s", spread.run_s);
            out.set("shard.speedup_k2", k1_run_s / spread.run_s);
            out.set("shard.cpu_over_wall_k2", spread.cpu_s / spread.wall_s);
        }
        Err(why) => out.fail(why),
    }
    match run_rep(legacy, &[]) {
        Ok(rep) => {
            out.set("shard.engine_tax", k1_run_s / rep.run_s);
            out.set(
                "harness.tracing_overhead",
                traced_legacy.time_to_result_s / rep.time_to_result_s(),
            );
        }
        Err(why) => out.fail(why),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(trace: bool, inject: Option<Fault>) -> RunOptions {
        RunOptions {
            seed: 42,
            trace,
            smoke: true,
            inject,
            out_dir: crate::test_dir("sim-trace"),
        }
    }

    #[test]
    fn setups_are_a_pure_function_of_the_seed() {
        for w in [
            SimWorkload::DdosH,
            SimWorkload::FloodRrl,
            SimWorkload::ShardedK2,
        ] {
            let (a, b) = (setup_for(w, 9, false), setup_for(w, 9, false));
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_ne!(format!("{a:?}"), format!("{:?}", setup_for(w, 10, false)));
            assert!(a.audit && a.track_probe.is_none() && a.tcp.is_none());
        }
        let h = setup_for(SimWorkload::DdosH, 1, false);
        assert_eq!((h.ttl, h.rounds, h.shards), (1_800, 18, 1));
        assert!(h.telemetry.is_none());
        assert_eq!(setup_for(SimWorkload::ShardedK2, 1, false).shards, 2);
        let f = setup_for(SimWorkload::FloodRrl, 1, false);
        assert_eq!(f.spoofed_flood.unwrap().sources, FLOOD_SOURCES);
        assert!(f.telemetry.is_some() && f.defense.is_some());
    }

    #[test]
    fn smoke_run_passes_the_gate_on_every_sim_workload() {
        for w in [
            SimWorkload::DdosH,
            SimWorkload::FloodRrl,
            SimWorkload::ShardedK2,
        ] {
            let out = run(w, &smoke(false, None));
            assert!(out.correct(), "{}: {:?}", w.name(), out.check_failures);
            assert!(out.attempted > 0 && out.failed == 0);
            for (name, _) in crate::metrics::END_TO_END {
                assert!(out.get(name).unwrap() > 0.0, "{} {name}", w.name());
            }
        }
    }

    #[test]
    fn a_perturbed_repetition_fails_the_run() {
        let out = run(SimWorkload::DdosH, &smoke(false, Some(Fault::PerturbSeed)));
        assert!(!out.correct());
        assert!(out.check_failures.iter().any(|f| f.contains("digest")));
        assert!(out
            .to_json(&crate::metrics::END_TO_END)
            .contains("\"correct\": false"));
    }

    #[test]
    fn traced_smoke_run_fills_the_layer_ledger() {
        let opts = smoke(true, None);
        let out = run(SimWorkload::FloodRrl, &opts);
        assert!(out.correct(), "{:?}", out.check_failures);
        for name in [
            "experiments.build_s",
            "netsim.events",
            "wire.decode_ns",
            "auth.handle_query_ns",
            "defense.rrl_verdict_ns",
            "defense.drops",
            "attack.dropped",
            "telemetry.export_s",
            "netsim.round_trip_ns",
            "harness.tracing_overhead",
            "harness.layer_coverage",
        ] {
            assert!(out.get(name).unwrap_or(0.0) > 0.0, "{name} missing");
        }
        let trace = std::fs::read_to_string(Path::new(&opts.out_dir).join("trace-flood-rrl.jsonl"))
            .expect("trace written");
        assert!(trace.lines().count() >= 8);
        assert!(trace.contains("\"name\": \"netsim.run\""));
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }
}

//! Chaos harness: randomly generated [`FaultPlan`]s and [`DefensePlan`]s
//! thrown at live simulations. Three properties must hold for *every*
//! plan:
//!
//! 1. no panic — arbitrary crash/degrade/flood/drop combinations never
//!    wedge the event loop or trip an internal assertion;
//! 2. determinism — the same seed and plan twice gives bit-identical
//!    runs (fault scheduling draws no randomness of its own);
//! 3. audit-clean — the invariant auditor (datagram conservation, timer
//!    hygiene, crash/restart pairing) passes at the end of every run.
//!
//! Every property runs on `dike::telemetry::check`: seeded, deterministic
//! cases, 16 of them unless `DIKE_CASES` says otherwise.

use std::sync::Arc;

use dike::telemetry::check;
use dike::telemetry::rng::Rng;
use dike::telemetry::sync::Mutex;

use dike::defense::{ClassifierKind, Defense, DefensePlan, RrlConfig};
use dike::experiments::setup::{run_experiment, ExperimentSetup};
use dike::experiments::topology;
use dike::faults::{Fault, FaultPlan, Waveform};
use dike::netsim::{
    Addr, ClassedQueueConfig, Context, LatencyModel, LinkParams, LinkTable, Node, NodeId,
    QueueConfig, SimDuration, SimTime, Simulator, TcpConfig, TcpConnId, TimerToken,
};
use dike::wire::{Message, Name, RecordType};

/// Cases per property; `DIKE_CASES` scales it so CI can crank it up in
/// release builds. The heavier properties cap it.
fn cases() -> u64 {
    check::count(16)
}

// ---------------------------------------------------------------------
// A small deterministic world: echo servers + chatty clients
// ---------------------------------------------------------------------

struct Echo;

impl Node for Echo {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _len: usize) {
        if !msg.is_response {
            ctx.send(src, &Message::response_to(msg));
        }
    }
    fn on_tcp_message(
        &mut self,
        ctx: &mut Context<'_>,
        conn: TcpConnId,
        _peer: Addr,
        msg: &Message,
        _len: usize,
    ) {
        if !msg.is_response {
            ctx.tcp_send(conn, &Message::response_to(msg));
        }
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: TimerToken) {}
}

struct Chatter {
    target: Addr,
    replies: Arc<Mutex<u64>>,
    remaining: u32,
}

impl Node for Chatter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs(1), TimerToken(0));
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, msg: &Message, _len: usize) {
        if msg.is_response {
            *self.replies.lock() += 1;
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
        let q = Message::query(1, Name::parse("chaos.nl").unwrap(), RecordType::A);
        ctx.send(self.target, &q);
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.set_timer(SimDuration::from_secs(1), TimerToken(0));
        }
    }
}

/// A client that talks to its echo server over TCP: dial once a second,
/// send the query when the handshake completes, hang up on the reply.
/// Every lifecycle edge the transport has — refused SYN, crash-severed
/// connection, idle reap — shows up in its counters, so faults landing
/// mid-handshake are observable, not just survivable.
struct TcpChatter {
    target: Addr,
    replies: Arc<Mutex<u64>>,
    resets: Arc<Mutex<u64>>,
    remaining: u32,
}

impl Node for TcpChatter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs(1), TimerToken(0));
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, _msg: &Message, _len: usize) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
        ctx.tcp_connect(self.target);
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.set_timer(SimDuration::from_secs(1), TimerToken(0));
        }
    }
    fn on_tcp_connected(&mut self, ctx: &mut Context<'_>, conn: TcpConnId, _peer: Addr) {
        let q = Message::query(1, Name::parse("chaos.nl").unwrap(), RecordType::A);
        ctx.tcp_send(conn, &q);
    }
    fn on_tcp_message(
        &mut self,
        ctx: &mut Context<'_>,
        conn: TcpConnId,
        _peer: Addr,
        msg: &Message,
        _len: usize,
    ) {
        if msg.is_response {
            *self.replies.lock() += 1;
            ctx.tcp_close(conn);
        }
    }
    fn on_tcp_closed(&mut self, _ctx: &mut Context<'_>, _conn: TcpConnId, reset: bool) {
        if reset {
            *self.resets.lock() += 1;
        }
    }
}

struct ChaosWorld {
    sim: Simulator,
    echo_ids: Vec<NodeId>,
    echo_addrs: Vec<Addr>,
    replies: Vec<Arc<Mutex<u64>>>,
}

fn chaos_world(seed: u64, n_echo: usize, n_chat: usize) -> ChaosWorld {
    let mut sim = Simulator::new(seed);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(10)),
        loss: 0.0,
    });
    let mut echo_ids = Vec::new();
    let mut echo_addrs = Vec::new();
    for _ in 0..n_echo {
        let (id, addr) = sim.add_node(Box::new(Echo));
        echo_ids.push(id);
        echo_addrs.push(addr);
    }
    let mut replies = Vec::new();
    for i in 0..n_chat {
        let counter = Arc::new(Mutex::new(0));
        sim.add_node(Box::new(Chatter {
            target: echo_addrs[i % n_echo],
            replies: counter.clone(),
            remaining: 119,
        }));
        replies.push(counter);
    }
    ChaosWorld {
        sim,
        echo_ids,
        echo_addrs,
        replies,
    }
}

// ---------------------------------------------------------------------
// Random-but-valid plan generation
// ---------------------------------------------------------------------

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// A random valid fault against the given nodes/addresses. Parameters
/// cover the full legal envelope, including the edges (total loss,
/// full-capacity floods, 1-packet bursts, restarts landing after the
/// horizon).
fn random_fault(rng: &mut Rng, nodes: &[NodeId], addrs: &[Addr]) -> Fault {
    let target = addrs[rng.random_range(0..addrs.len())];
    let start = secs(rng.random_range(0..90)).after_zero();
    let duration = secs(rng.random_range(1..=60));
    match rng.random_range(0..4u32) {
        0 => {
            let node = nodes[rng.random_range(0..nodes.len())];
            let at = secs(rng.random_range(1..=90)).after_zero();
            if rng.random_bool(0.7) {
                Fault::crash_restart(
                    node,
                    at,
                    secs(rng.random_range(1..=120)),
                    rng.random_bool(0.5),
                )
            } else {
                Fault::node_down(node, at)
            }
        }
        1 => Fault::link_degrade(
            target,
            start,
            duration,
            rng.random_range(0.0..=1.0),
            rng.random_range(1.0..50.0),
        )
        .with_latency_factor(rng.random_range(1.0..8.0)),
        2 => {
            let shape = random_waveform(rng);
            Fault::flood(
                target,
                start,
                duration,
                rng.random_range(0.05..=1.0),
                QueueConfig {
                    rate_pps: rng.random_range(200.0..5_000.0),
                    capacity: rng.random_range(16..=2_048),
                },
            )
            .with_shape(shape)
        }
        _ => random_drop(rng, addrs, start, duration),
    }
}

/// A random attack waveform: square, a pulse of 1–10 s cycles, or a
/// ramp of up to six stairs.
fn random_waveform(rng: &mut Rng) -> Waveform {
    match rng.random_range(0..3u32) {
        0 => Waveform::Square,
        1 => Waveform::Pulse {
            period: secs(rng.random_range(1..=10)),
            duty: rng.random_range(0.1..=1.0),
        },
        _ => Waveform::Ramp {
            steps: rng.random_range(1..=6),
        },
    }
}

/// A random shaped random-drop attack on a prefix of `addrs`.
fn random_drop(rng: &mut Rng, addrs: &[Addr], start: SimTime, duration: SimDuration) -> Fault {
    let n = rng.random_range(1..=addrs.len());
    Fault::random_drop(dike::attack::Attack::partial(
        addrs[..n].to_vec(),
        rng.random_range(0.0..=1.0),
        start,
        duration,
    ))
    .with_shape(random_waveform(rng))
}

fn random_plan(rng: &mut Rng, nodes: &[NodeId], addrs: &[Addr]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for _ in 0..rng.random_range(0..=4u32) {
        plan.push(random_fault(rng, nodes, addrs));
    }
    plan
}

/// A random valid server-side defense plan over the given ingress
/// addresses: at most one RRL and one admission layer per target (the
/// plan-level coherence rule) plus optional scale-outs, with parameters
/// spanning the legal envelope — tiny rates, /0 aggregation, zero-slip
/// silent drops, single-class weight concentrations.
fn random_defense_plan(rng: &mut Rng, addrs: &[Addr]) -> DefensePlan {
    let mut plan = DefensePlan::new();
    for &target in addrs {
        if rng.random_bool(0.5) {
            let config = RrlConfig {
                rate_qps: rng.random_range(0.05..200.0),
                burst: rng.random_range(1.0..32.0),
                slip: rng.random_range(0..=4u32),
                prefix_bits: rng.random_range(0..=32u32) as u8,
            };
            let at = secs(rng.random_range(0..90)).after_zero();
            plan.push(Defense::rrl(target, config).starting_at(at));
        }
        if rng.random_bool(0.4) {
            let mut weights = [
                rng.random_range(0.0..8.0),
                rng.random_range(0.0..8.0),
                rng.random_range(0.0..8.0),
            ];
            if weights.iter().sum::<f64>() <= 0.0 {
                weights[0] = 1.0;
            }
            let queue = ClassedQueueConfig {
                rate_pps: rng.random_range(10.0..5_000.0),
                weights,
                capacity: [
                    rng.random_range(1..=512u32),
                    rng.random_range(1..=256u32),
                    rng.random_range(0..=64u32),
                ],
            };
            let classifier = if rng.random_bool(0.5) {
                let n = rng.random_range(0..=addrs.len());
                ClassifierKind::Static {
                    known: addrs[..n].to_vec(),
                    flagged: addrs[n..].to_vec(),
                }
            } else {
                ClassifierKind::History {
                    cutoff: secs(rng.random_range(0..120)).after_zero(),
                }
            };
            let at = secs(rng.random_range(0..90)).after_zero();
            plan.push(Defense::admission(target, queue, classifier).starting_at(at));
        }
        if rng.random_bool(0.3) {
            plan.push(Defense::scale_out(
                target,
                secs(rng.random_range(0..90)).after_zero(),
                secs(rng.random_range(0..=60)),
                rng.random_range(1.0..16.0),
            ));
        }
    }
    plan
}

// ---------------------------------------------------------------------
// The property: schedule, run, audit, digest
// ---------------------------------------------------------------------

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// One chaos iteration: build a world, throw a random plan at it, run to
/// the horizon, audit, and digest everything observable.
fn chaos_iteration(case_seed: u64) -> u64 {
    let mut rng = Rng::seed_from_u64(case_seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut world = chaos_world(case_seed, 3, 4);
    let plan = random_plan(&mut rng, &world.echo_ids, &world.echo_addrs);
    plan.validate().expect("generated plans are valid");
    plan.schedule(&mut world.sim).expect("plan schedules");
    world
        .sim
        .run_until(SimDuration::from_secs(200).after_zero());
    let report = world.sim.audit();
    report.assert_clean();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in [
        report.sent,
        report.delivered,
        report.dropped,
        report.no_route,
        report.undecodable,
        report.node_crashes,
        report.node_restarts,
    ] {
        fnv(&mut h, f);
    }
    for r in &world.replies {
        fnv(&mut h, *r.lock());
    }
    h
}

/// One defended chaos iteration: random faults AND a random server-side
/// defense plan against the same world. On top of the three base
/// properties, the audit's defense ledger must balance (defense drops =
/// RRL-limited + shed, every drop inside datagram conservation) no
/// matter how the layers compose with crashes, floods, and loss.
fn defended_chaos_iteration(case_seed: u64) -> u64 {
    let mut rng = Rng::seed_from_u64(case_seed ^ 0x2545_f491_4f6c_dd1d);
    let mut world = chaos_world(case_seed, 3, 4);
    let faults = random_plan(&mut rng, &world.echo_ids, &world.echo_addrs);
    let defense = random_defense_plan(&mut rng, &world.echo_addrs);
    defense
        .validate()
        .expect("generated defense plans are valid");
    assert_eq!(DefensePlan::from_json(&defense.to_json()).unwrap(), defense);
    faults
        .schedule(&mut world.sim)
        .expect("fault plan schedules");
    defense
        .schedule(&mut world.sim)
        .expect("defense plan schedules");
    world
        .sim
        .run_until(SimDuration::from_secs(200).after_zero());
    let report = world.sim.audit();
    report.assert_clean();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in [
        report.sent,
        report.delivered,
        report.dropped,
        report.defense_drops,
        report.rrl_limited,
        report.rrl_slipped,
        report.shed_by_class[0],
        report.shed_by_class[1],
        report.shed_by_class[2],
        report.scaleout_activations,
    ] {
        fnv(&mut h, f);
    }
    for r in &world.replies {
        fnv(&mut h, *r.lock());
    }
    h
}

/// One TCP chaos iteration: the echo world grows TCP listeners with a
/// deliberately tiny connection table (capacity 2 for 4 dialers, so
/// RST-on-full fires constantly) and a fleet of [`TcpChatter`]s, then a
/// random fault plan whose crash/degrade times are biased to land
/// *inside* the ~20 ms handshake window after each whole-second dial
/// tick. The audit's connection-conservation invariant
/// (`opened = closed + reset + live`) must hold however the faults cut
/// the handshakes, and the whole run must digest identically on replay.
/// Returns `(digest, resets)` so the sweep can check the abortive path
/// was actually exercised, not just survived.
fn tcp_chaos_iteration(case_seed: u64) -> (u64, u64) {
    let mut rng = Rng::seed_from_u64(case_seed ^ 0x94d0_49bb_1331_11eb);
    let mut world = chaos_world(case_seed, 3, 4);
    for &addr in &world.echo_addrs {
        world.sim.world_mut().set_tcp_listener(
            addr,
            TcpConfig {
                table_capacity: 2,
                ..TcpConfig::default()
            },
        );
    }
    let mut tcp_replies = Vec::new();
    let mut tcp_resets = Vec::new();
    for i in 0..4 {
        let replies = Arc::new(Mutex::new(0));
        let resets = Arc::new(Mutex::new(0));
        world.sim.add_node(Box::new(TcpChatter {
            target: world.echo_addrs[i % world.echo_addrs.len()],
            replies: replies.clone(),
            resets: resets.clone(),
            remaining: 119,
        }));
        tcp_replies.push(replies);
        tcp_resets.push(resets);
    }

    // Faults aimed at the handshake: dials fire at t = 1s, 2s, … and the
    // 10 ms link latency puts the SYN and the open callback inside the
    // next ~20 ms, so crashes/degrades starting a few ms past a tick cut
    // connections in SynSent or just-established states.
    let mut faults = FaultPlan::new();
    for _ in 0..rng.random_range(1..=3u32) {
        let tick = rng.random_range(1..90u64);
        let at = SimDuration::from_millis(tick * 1_000 + rng.random_range(0..30u64));
        if rng.random_bool(0.6) {
            let node = world.echo_ids[rng.random_range(0..world.echo_ids.len())];
            faults.push(Fault::crash_restart(
                node,
                at.after_zero(),
                secs(rng.random_range(1..=30)),
                rng.random_bool(0.5),
            ));
        } else {
            let target = world.echo_addrs[rng.random_range(0..world.echo_addrs.len())];
            faults.push(
                Fault::link_degrade(
                    target,
                    at.after_zero(),
                    secs(rng.random_range(1..=30)),
                    rng.random_range(0.2..=1.0),
                    rng.random_range(1.0..20.0),
                )
                .with_latency_factor(rng.random_range(1.0..8.0)),
            );
        }
    }
    faults.validate().expect("generated plans are valid");
    faults.schedule(&mut world.sim).expect("plan schedules");
    world
        .sim
        .run_until(SimDuration::from_secs(200).after_zero());
    let report = world.sim.audit();
    report.assert_clean();
    // Connection conservation, restated explicitly: every dial is
    // accounted for as a graceful close, an abortive reset, or a
    // still-live connection — mid-handshake casualties included.
    assert_eq!(
        report.tcp.opened,
        report.tcp.closed + report.tcp.reset + report.tcp_live,
        "case {case_seed}: TCP connections leaked or double-counted"
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in [
        report.sent,
        report.delivered,
        report.tcp.opened,
        report.tcp.closed,
        report.tcp.reset,
        report.tcp.syn_refused,
        report.tcp.messages,
        report.tcp_live,
        report.node_crashes,
        report.node_restarts,
    ] {
        fnv(&mut h, f);
    }
    for r in tcp_replies.iter().chain(&world.replies) {
        fnv(&mut h, *r.lock());
    }
    for r in &tcp_resets {
        fnv(&mut h, *r.lock());
    }
    (h, report.tcp.reset)
}

#[test]
fn chaos_tcp_midhandshake_faults_conserve_connections() {
    let mut total_resets = 0;
    check::cases(
        "chaos_tcp_midhandshake_faults_conserve_connections",
        cases(),
        |g| total_resets += tcp_chaos_iteration(g.case()).1,
    );
    // The sweep must actually exercise the abortive path (the tiny
    // table plus mid-handshake crashes guarantee refusals and severed
    // connections); a sweep with zero resets means the faults missed.
    assert!(total_resets > 0, "no run ever took the RST path");
}

#[test]
fn chaos_tcp_runs_are_deterministic() {
    check::cases("chaos_tcp_runs_are_deterministic", cases().min(8), |g| {
        let a = tcp_chaos_iteration(g.case());
        let b = tcp_chaos_iteration(g.case());
        assert_eq!(a, b, "same seed+plan, different run");
    });
}

#[test]
fn chaos_random_fault_plans_never_panic_and_stay_audit_clean() {
    check::cases(
        "chaos_random_fault_plans_never_panic_and_stay_audit_clean",
        cases(),
        |g| {
            chaos_iteration(g.case());
        },
    );
}

#[test]
fn chaos_random_defense_plans_never_panic_and_stay_audit_clean() {
    check::cases(
        "chaos_random_defense_plans_never_panic_and_stay_audit_clean",
        cases(),
        |g| {
            defended_chaos_iteration(g.case());
        },
    );
}

#[test]
fn chaos_defended_runs_are_deterministic() {
    check::cases(
        "chaos_defended_runs_are_deterministic",
        cases().min(8),
        |g| {
            let a = defended_chaos_iteration(g.case());
            let b = defended_chaos_iteration(g.case());
            assert_eq!(a, b, "same seed+plans, different run");
        },
    );
}

#[test]
fn chaos_runs_are_deterministic() {
    check::cases("chaos_runs_are_deterministic", cases().min(8), |g| {
        let a = chaos_iteration(g.case());
        let b = chaos_iteration(g.case());
        assert_eq!(a, b, "same seed+plan, different run");
    });
}

#[test]
fn chaos_invalid_plans_schedule_nothing() {
    let mut world = chaos_world(3, 2, 2);
    let plan = FaultPlan::new()
        .with(Fault::node_down(world.echo_ids[0], secs(5).after_zero()))
        .with(Fault::link_degrade(
            world.echo_addrs[0],
            secs(1).after_zero(),
            secs(10),
            1.5, // invalid loss
            10.0,
        ));
    assert!(plan.schedule(&mut world.sim).is_err());
    // Nothing was installed: the run behaves exactly like a fault-free one.
    world
        .sim
        .run_until(SimDuration::from_secs(200).after_zero());
    let report = world.sim.audit();
    report.assert_clean();
    assert_eq!(report.node_crashes, 0, "all-or-nothing scheduling");
    assert_eq!(report.dropped, 0);
}

/// The full paper topology under random fault plans AND random defense
/// plans at the authoritatives: resolvers, probe fleets and real servers
/// instead of echo toys. Heavier, so fewer cases; the auditor runs
/// inside `run_experiment` via `setup.audit`.
#[test]
fn chaos_full_experiments_are_clean_and_deterministic() {
    let name = "chaos_full_experiments_are_clean_and_deterministic";
    check::cases(name, cases().min(3), |g| {
        let case = g.case();
        let run = || {
            let mut rng = Rng::seed_from_u64(case ^ 0x517c_c1b7_2722_0a95);
            let ns_nodes = topology::ns_node_ids();
            let ns_addrs = topology::ns_addrs();
            let plan = random_plan(&mut rng, &ns_nodes, &ns_addrs);
            let defense = random_defense_plan(&mut rng, &ns_addrs);
            let mut setup = ExperimentSetup::new(12, 300);
            setup.seed = case;
            setup.rounds = 4;
            setup.round_interval = SimDuration::from_mins(10);
            setup.total_duration = SimDuration::from_mins(45);
            setup.faults = Some(plan);
            setup.defense = (!defense.is_empty()).then_some(defense);
            setup.audit = true;
            let out = run_experiment(&setup);
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            fnv(&mut h, out.log.records.len() as u64);
            fnv(&mut h, out.log.ok_count() as u64);
            fnv(&mut h, out.server.total_queries);
            for r in &out.log.records {
                fnv(&mut h, r.sent_at.as_nanos());
                fnv(&mut h, r.rtt.map(|d| d.as_nanos()).unwrap_or(u64::MAX));
            }
            h
        };
        assert_eq!(run(), run(), "experiment not deterministic");
    });
}

//! Property tests for the simulator core: determinism under arbitrary
//! workloads, causality (no event before its cause), and loss-rate
//! statistics.

use std::sync::Arc;

use dike_telemetry::check::{self, Gen};
use dike_telemetry::sync::Mutex;

use dike_netsim::{
    Addr, Context, LatencyModel, LinkParams, LinkTable, Node, SimDuration, Simulator, TimerToken,
};
use dike_wire::{Message, Name, RecordType};

/// A node that queries a target at scripted delays and logs every event
/// it sees (send times and receive times).
struct Chatter {
    target: Addr,
    delays_ms: Vec<u64>,
    log: Arc<Mutex<Vec<(u64, &'static str)>>>,
    next_id: u16,
}

impl Node for Chatter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (i, &d) in self.delays_ms.iter().enumerate() {
            ctx.set_timer(SimDuration::from_millis(d), TimerToken(i as u64));
        }
    }
    fn on_datagram(&mut self, ctx: &mut Context<'_>, _src: Addr, msg: &Message, _l: usize) {
        if msg.is_response {
            self.log.lock().push((ctx.now().as_nanos(), "recv"));
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
        self.next_id += 1;
        self.log.lock().push((ctx.now().as_nanos(), "send"));
        ctx.send(
            self.target,
            &Message::query(self.next_id, Name::parse("x.nl").unwrap(), RecordType::A),
        );
    }
}

struct Echo;
impl Node for Echo {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _l: usize) {
        if !msg.is_response {
            ctx.send(src, &Message::response_to(msg));
        }
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _t: TimerToken) {}
}

fn run_world(
    seed: u64,
    latency_ms: u64,
    loss: f64,
    scripts: &[Vec<u64>],
) -> Vec<(u64, &'static str)> {
    let mut sim = Simulator::new(seed);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::LogNormal {
            median: SimDuration::from_millis(latency_ms.max(1)),
            sigma: 0.3,
        },
        loss,
    });
    let (_, echo) = sim.add_node(Box::new(Echo));
    let log = Arc::new(Mutex::new(Vec::new()));
    for delays in scripts {
        sim.add_node(Box::new(Chatter {
            target: echo,
            delays_ms: delays.clone(),
            log: log.clone(),
            next_id: 0,
        }));
    }
    sim.run_until_idle();
    drop(sim);
    Arc::try_unwrap(log).expect("single owner").into_inner()
}

const CASES: u64 = 48;

fn arb_seed(g: &mut Gen) -> u64 {
    g.range(0..1000)
}

/// One to `max_len - 1` send delays, each under `max_ms` milliseconds.
fn arb_script(g: &mut Gen, max_ms: u64, max_len: usize) -> Vec<u64> {
    g.vec(1..max_len, |g| g.range(1..max_ms))
}

/// Identical inputs produce bit-identical event logs; a different
/// seed (with jittered latency) produces a different log.
#[test]
fn runs_are_deterministic() {
    check::cases("runs_are_deterministic", CASES, |g| {
        let seed = arb_seed(g);
        let scripts = g.vec(1..6, |g| arb_script(g, 5_000, 6));
        let a = run_world(seed, 10, 0.0, &scripts);
        let b = run_world(seed, 10, 0.0, &scripts);
        assert_eq!(&a, &b);
        assert!(!a.is_empty());
    });
}

/// Virtual time never goes backwards in any node's observed order.
#[test]
fn observed_time_is_monotone() {
    check::cases("observed_time_is_monotone", CASES, |g| {
        let seed = arb_seed(g);
        let scripts = g.vec(1..5, |g| arb_script(g, 5_000, 5));
        let log = run_world(seed, 7, 0.1, &scripts);
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0, "time went backwards: {w:?}");
        }
    });
}

/// With zero loss every query is eventually answered; with full
/// ingress loss at the echo none are.
fn check_loss_extremes(seed: u64, delays: &[u64]) {
    let script = [delays.to_vec()];
    let clean = run_world(seed, 5, 0.0, &script);
    let sends = clean.iter().filter(|(_, k)| *k == "send").count();
    let recvs = clean.iter().filter(|(_, k)| *k == "recv").count();
    assert_eq!(sends, delays.len());
    assert_eq!(recvs, sends, "lossless world answers everything");

    let lossy = run_world(seed, 5, 1.0, &script);
    let recvs = lossy.iter().filter(|(_, k)| *k == "recv").count();
    assert_eq!(recvs, 0, "full-loss world answers nothing");
}

#[test]
fn loss_extremes() {
    check::cases("loss_extremes", CASES, |g| {
        let seed = arb_seed(g);
        check_loss_extremes(seed, &arb_script(g, 2_000, 8));
    });
}

/// A response can never arrive before its query was sent plus two
/// minimum path delays... loosely: every recv follows at least one
/// send strictly earlier.
fn check_causality(seed: u64, delays: &[u64]) {
    let log = run_world(seed, 5, 0.3, &[delays.to_vec()]);
    let mut sends_seen = 0usize;
    let mut recvs_seen = 0usize;
    for (_, kind) in &log {
        match *kind {
            "send" => sends_seen += 1,
            _ => {
                recvs_seen += 1;
                assert!(
                    recvs_seen <= sends_seen,
                    "a response arrived before any unanswered query existed"
                );
            }
        }
    }
}

#[test]
fn causality() {
    check::cases("causality", CASES, |g| {
        let seed = arb_seed(g);
        check_causality(seed, &arb_script(g, 2_000, 6));
    });
}

/// The one input this suite's saved-regressions file recorded as once
/// failing, before the seeded runner; its draws will not land on
/// `seed = 0, delays = [1]`, so that case is run by name.
#[test]
fn pinned_regression_seed_0_delay_1() {
    check_loss_extremes(0, &[1]);
    check_causality(0, &[1]);
}

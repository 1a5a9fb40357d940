//! End-to-end queueing behaviour: delays grow with offered load, the
//! buffer tail-drops when saturated, and background (attack) load
//! squeezes legitimate service capacity.

use std::sync::Arc;

use dike_telemetry::sync::Mutex;

use dike_netsim::{
    Addr, Context, LatencyModel, LinkParams, LinkTable, Node, QueueConfig, SimDuration, SimTime,
    Simulator, TimerToken,
};
use dike_wire::{Message, Name, RecordType};

struct Echo;
impl Node for Echo {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _l: usize) {
        if !msg.is_response {
            ctx.send(src, &Message::response_to(msg));
        }
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _t: TimerToken) {}
}

/// Fires a burst of queries at t=1 s and records each response time.
struct BurstClient {
    target: Addr,
    burst: u16,
    rtts: Arc<Mutex<Vec<u64>>>, // ms
    sent_at: SimTime,
}

impl Node for BurstClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs(1), TimerToken(0));
    }
    fn on_datagram(&mut self, ctx: &mut Context<'_>, _src: Addr, msg: &Message, _l: usize) {
        if msg.is_response {
            self.rtts
                .lock()
                .push((ctx.now() - self.sent_at).as_millis());
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
        self.sent_at = ctx.now();
        for id in 0..self.burst {
            ctx.send(
                self.target,
                &Message::query(id, Name::parse("x.nl").unwrap(), RecordType::A),
            );
        }
    }
}

fn run(burst: u16, queue: Option<QueueConfig>, background: f64) -> Vec<u64> {
    let mut sim = Simulator::new(9);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(5)),
        loss: 0.0,
    });
    let (_, echo) = sim.add_node(Box::new(Echo));
    if let Some(cfg) = queue {
        sim.world_mut().set_ingress_queue(echo, cfg);
        if background > 0.0 {
            sim.schedule_control(SimTime::ZERO, move |w| {
                if let Some(q) = w.gate_mut(echo).and_then(|g| g.queue_mut()) {
                    q.inject_background_load(background);
                }
            });
        }
    }
    let rtts = Arc::new(Mutex::new(Vec::new()));
    sim.add_node(Box::new(BurstClient {
        target: echo,
        burst,
        rtts: rtts.clone(),
        sent_at: SimTime::ZERO,
    }));
    sim.run_until(SimDuration::from_secs(120).after_zero());
    drop(sim);
    let mut out = Arc::try_unwrap(rtts).expect("single owner").into_inner();
    out.sort_unstable();
    out
}

#[test]
fn no_queue_means_flat_latency() {
    let rtts = run(100, None, 0.0);
    assert_eq!(rtts.len(), 100);
    assert!(rtts.iter().all(|&r| r == 10), "pure path RTT: {rtts:?}");
}

#[test]
fn queueing_delay_grows_across_a_burst() {
    // 100 q/s service: a 100-query burst spreads over a second.
    let rtts = run(
        100,
        Some(QueueConfig {
            rate_pps: 100.0,
            capacity: 1_000,
        }),
        0.0,
    );
    assert_eq!(rtts.len(), 100);
    assert!(rtts[0] <= 25, "head of burst barely waits: {}", rtts[0]);
    assert!(
        (900..1200).contains(&rtts[99]),
        "tail waits ~1s: {}",
        rtts[99]
    );
}

#[test]
fn saturated_buffer_tail_drops() {
    let rtts = run(
        200,
        Some(QueueConfig {
            rate_pps: 100.0,
            capacity: 50,
        }),
        0.0,
    );
    // Only ~capacity make it through; the rest were tail-dropped.
    assert!(
        (45..=60).contains(&rtts.len()),
        "roughly the buffer's worth delivered: {}",
        rtts.len()
    );
}

#[test]
fn background_attack_load_inflates_delay() {
    let calm = run(
        50,
        Some(QueueConfig {
            rate_pps: 1_000.0,
            capacity: 10_000,
        }),
        0.0,
    );
    let attacked = run(
        50,
        Some(QueueConfig {
            rate_pps: 1_000.0,
            capacity: 10_000,
        }),
        0.95, // the flood eats 95% of capacity
    );
    let med = |v: &[u64]| v[v.len() / 2];
    assert!(
        med(&attacked) > med(&calm) * 5,
        "attack load inflates queueing delay: {} vs {}",
        med(&attacked),
        med(&calm)
    );
}

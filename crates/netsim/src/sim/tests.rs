use super::*;
use crate::defense::DefenseLedger;
use crate::link::{LatencyModel, LinkParams};
use crate::trace::{shared, CountingTrace, MemoryTrace};
use dike_wire::{Message, Name, RecordType};

/// A node that answers every query with an empty NOERROR response.
struct Echo;

impl Node for Echo {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _wire_len: usize) {
        if !msg.is_response {
            let resp = Message::response_to(msg);
            ctx.send(src, &resp);
        }
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: TimerToken) {}
}

/// A node that sends one query at start and records the reply time.
struct Pinger {
    target: Addr,
    sent_at: Option<SimTime>,
    rtt: Option<SimDuration>,
}

impl Node for Pinger {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let q = Message::query(1, Name::parse("cachetest.nl").unwrap(), RecordType::AAAA);
        self.sent_at = Some(ctx.now());
        ctx.send(self.target, &q);
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, _src: Addr, msg: &Message, _wire_len: usize) {
        if msg.is_response {
            self.rtt = Some(ctx.now() - self.sent_at.unwrap());
        }
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: TimerToken) {}
}

fn fixed_fabric(sim: &mut Simulator, ms: u64) {
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(ms)),
        loss: 0.0,
    });
}

#[test]
fn query_response_round_trip_takes_two_link_delays() {
    let mut sim = Simulator::new(1);
    fixed_fabric(&mut sim, 10);
    let (_echo_id, echo_addr) = sim.add_node(Box::new(Echo));
    let (ping_id, _) = sim.add_node(Box::new(Pinger {
        target: echo_addr,
        sent_at: None,
        rtt: None,
    }));
    sim.run_until_idle();
    // One query (10 ms) plus one response (10 ms): the clock stops at
    // exactly 20 ms.
    assert_eq!(sim.now().as_nanos() / 1_000_000, 20);
    let _ = ping_id;
}

#[test]
fn sinks_see_delivered_and_dropped() {
    let mut sim = Simulator::new(2);
    fixed_fabric(&mut sim, 5);
    let (_id, echo_addr) = sim.add_node(Box::new(Echo));
    sim.add_node(Box::new(Pinger {
        target: echo_addr,
        sent_at: None,
        rtt: None,
    }));
    let (counts, sink) = shared(CountingTrace::default());
    sim.add_sink(sink);
    sim.run_until_idle();
    // One query delivered + one response delivered.
    assert_eq!(counts.lock().delivered, 2);
    assert_eq!(counts.lock().dropped, 0);
}

#[test]
fn full_ingress_loss_blackholes_queries_but_sinks_observe_them() {
    let mut sim = Simulator::new(3);
    fixed_fabric(&mut sim, 5);
    let (_id, echo_addr) = sim.add_node(Box::new(Echo));
    sim.add_node(Box::new(Pinger {
        target: echo_addr,
        sent_at: None,
        rtt: None,
    }));
    sim.links_mut().set_ingress_loss(echo_addr, 1.0);
    let (trace, sink) = shared(MemoryTrace::default());
    sim.add_sink(sink);
    sim.run_until_idle();
    let events = &trace.lock().events;
    assert_eq!(events.len(), 1, "the query is observed even though dropped");
    assert_eq!(events[0].disposition, Disposition::Dropped);
}

#[test]
fn control_event_starts_attack_mid_run() {
    let mut sim = Simulator::new(4);
    fixed_fabric(&mut sim, 1);
    let (_id, echo_addr) = sim.add_node(Box::new(Echo));

    // Two pingers: one starts before the attack, one after (via timer).
    // Results are reported through shared handles, like the real
    // experiment nodes do.
    struct DelayedPinger {
        target: Addr,
        delay: SimDuration,
        got_reply: std::sync::Arc<dike_telemetry::sync::Mutex<bool>>,
    }
    impl Node for DelayedPinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(self.delay, TimerToken(0));
        }
        fn on_datagram(
            &mut self,
            _ctx: &mut Context<'_>,
            _src: Addr,
            msg: &Message,
            _wire_len: usize,
        ) {
            if msg.is_response {
                *self.got_reply.lock() = true;
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
            let q = Message::query(7, Name::parse("x.nl").unwrap(), RecordType::A);
            ctx.send(self.target, &q);
        }
    }

    let early_ok = std::sync::Arc::new(dike_telemetry::sync::Mutex::new(false));
    let late_ok = std::sync::Arc::new(dike_telemetry::sync::Mutex::new(false));
    sim.add_node(Box::new(DelayedPinger {
        target: echo_addr,
        delay: SimDuration::from_secs(1),
        got_reply: early_ok.clone(),
    }));
    sim.add_node(Box::new(DelayedPinger {
        target: echo_addr,
        delay: SimDuration::from_secs(30),
        got_reply: late_ok.clone(),
    }));

    // Attack starts at t=10s.
    sim.schedule_control(SimDuration::from_secs(10).after_zero(), move |w| {
        w.links_mut().set_ingress_loss(echo_addr, 1.0);
    });
    sim.run_until_idle();

    assert!(*early_ok.lock(), "query before attack must succeed");
    assert!(!*late_ok.lock(), "query during 100% attack must fail");
}

#[test]
fn timers_fire_in_order_and_cancel_works() {
    struct TimerNode {
        fired: std::sync::Arc<dike_telemetry::sync::Mutex<Vec<u64>>>,
        to_cancel: Option<TimerId>,
    }
    impl Node for TimerNode {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_secs(3), TimerToken(3));
            ctx.set_timer(SimDuration::from_secs(1), TimerToken(1));
            let id = ctx.set_timer(SimDuration::from_secs(2), TimerToken(2));
            self.to_cancel = Some(id);
        }
        fn on_datagram(
            &mut self,
            _ctx: &mut Context<'_>,
            _src: Addr,
            _msg: &Message,
            _wire_len: usize,
        ) {
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
            self.fired.lock().push(token.0);
            if token.0 == 1 {
                // Cancel the 2s timer before it fires.
                let id = self.to_cancel.take().unwrap();
                ctx.cancel_timer(id);
            }
        }
    }

    let fired = std::sync::Arc::new(dike_telemetry::sync::Mutex::new(Vec::new()));
    let mut sim = Simulator::new(5);
    sim.add_node(Box::new(TimerNode {
        fired: fired.clone(),
        to_cancel: None,
    }));
    sim.run_until_idle();
    assert_eq!(*fired.lock(), vec![1, 3]);
}

#[test]
fn identical_seeds_produce_identical_runs() {
    fn run(seed: u64) -> u64 {
        let mut sim = Simulator::new(seed);
        let (_, echo_addr) = sim.add_node(Box::new(Echo));
        for _ in 0..20 {
            sim.add_node(Box::new(Pinger {
                target: echo_addr,
                sent_at: None,
                rtt: None,
            }));
        }
        let (counts, sink) = shared(CountingTrace::default());
        sim.add_sink(sink);
        sim.run_until_idle();
        let c = *counts.lock();
        sim.now().as_nanos() ^ c.delivered ^ (c.octets << 1)
    }
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43), "different seeds should differ");
}

#[test]
fn run_until_advances_clock_to_deadline() {
    let mut sim = Simulator::new(6);
    sim.run_until(SimDuration::from_secs(100).after_zero());
    assert_eq!(sim.now().as_secs(), 100);
}

/// A run to 10 s, then a world change scheduled for 5 s: it would run
/// with the clock moving backwards, so each scheduling call refuses it
/// where it is made.
fn sim_at_ten_seconds() -> Simulator {
    let mut sim = Simulator::new(6);
    sim.add_node(Box::new(Echo));
    sim.run_until(SimDuration::from_secs(10).after_zero());
    sim
}

#[test]
#[should_panic(expected = "schedule_control: at t+5.000s is before now t+10.000s")]
fn a_control_before_now_is_refused() {
    sim_at_ten_seconds().schedule_control(SimDuration::from_secs(5).after_zero(), |_| {});
}

#[test]
#[should_panic(expected = "schedule_node_down: at t+5.000s is before now t+10.000s")]
fn a_crash_before_now_is_refused() {
    sim_at_ten_seconds().schedule_node_down(SimDuration::from_secs(5).after_zero(), NodeId(0));
}

#[test]
#[should_panic(expected = "schedule_node_up: at t+5.000s is before now t+10.000s")]
fn a_restart_before_now_is_refused() {
    sim_at_ten_seconds().schedule_node_up(SimDuration::from_secs(5).after_zero(), NodeId(0), false);
}

/// A node whose first timer fires 1 ns before the end of simulated
/// time. Each firing then sends a query to `target`, or, without one,
/// re-arms the timer a second later.
struct EndOfTime {
    target: Option<Addr>,
}

impl Node for EndOfTime {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_nanos(u64::MAX - 1), TimerToken(0));
    }

    fn on_datagram(&mut self, _: &mut Context<'_>, _: Addr, _: &Message, _: usize) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        match self.target {
            Some(dst) => ctx.send(dst, &Message::query(1, Name::root(), RecordType::NS)),
            None => {
                ctx.set_timer(SimDuration::from_secs(1), token);
            }
        }
    }
}

/// Starts `sim`'s nodes, then steps it until it idles or `budget` events
/// have run, so that a world stuck at its last instant ends the test
/// instead of hanging it.
fn step_at_most(sim: &mut Simulator, budget: usize) {
    sim.start_pending();
    for _ in 0..budget {
        if !sim.step() {
            return;
        }
    }
}

#[test]
#[should_panic(expected = "timer at n0: 1000.000ms after now t+18446744073.710s \
                           is past the end of simulated time")]
fn a_timer_past_the_end_of_time_is_refused() {
    let mut sim = Simulator::new(7);
    sim.add_node(Box::new(EndOfTime { target: None }));
    step_at_most(&mut sim, 1_000);
}

#[test]
#[should_panic(
    expected = "delivery at 10.0.0.1: 10.000ms after now t+18446744073.710s \
                           is past the end of simulated time"
)]
fn a_delivery_past_the_end_of_time_is_refused() {
    let mut sim = Simulator::new(8);
    fixed_fabric(&mut sim, 10);
    let (_, echo) = sim.add_node(Box::new(Echo));
    sim.add_node(Box::new(EndOfTime { target: Some(echo) }));
    step_at_most(&mut sim, 1_000);
}

/// `at == now()` is accepted, and the event runs at `now()`, after
/// everything already queued for that instant — before the first pop,
/// and after `run_until` moved the clock to an instant nothing popped at.
#[test]
fn scheduling_at_now_runs_after_what_is_queued_there() {
    let log = std::sync::Arc::new(dike_telemetry::sync::Mutex::new(Vec::new()));
    let mut sim = Simulator::new(6);
    let record = |sim: &mut Simulator, at: SimTime, tag: &'static str| {
        let log = log.clone();
        sim.schedule_control(at, move |w| log.lock().push((tag, w.now().as_secs())));
    };
    record(&mut sim, SimTime::ZERO, "a");
    record(&mut sim, SimTime::ZERO, "b");
    let now = sim.now();
    record(&mut sim, now, "c");
    sim.run_until(SimDuration::from_secs(10).after_zero());
    let now = sim.now();
    record(&mut sim, now, "d");
    record(&mut sim, now, "e");
    sim.run_until_idle();
    assert_eq!(
        *log.lock(),
        [("a", 0), ("b", 0), ("c", 0), ("d", 10), ("e", 10)]
    );
}

/// Sends one query a millisecond to `target`, `ticks` times, switching
/// from `msgs[0]` through the rest in equal stretches. A keeping sender
/// encodes each message once and resends its bytes; a one-shot sender
/// encodes on every tick and keeps nothing.
struct Resender {
    target: Addr,
    msgs: Vec<Message>,
    keep: bool,
    kept: Option<(usize, Arc<[u8]>)>,
    tick: usize,
    ticks: usize,
}

impl Node for Resender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_millis(1), TimerToken(0));
    }

    fn on_datagram(&mut self, _: &mut Context<'_>, _: Addr, _: &Message, _: usize) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
        let which = self.tick * self.msgs.len() / self.ticks;
        if !self.keep {
            ctx.send(self.target, &self.msgs[which]);
        } else {
            let payload = match &self.kept {
                Some((kept, bytes)) if *kept == which => Arc::clone(bytes),
                _ => {
                    let bytes = ctx.encode(&self.msgs[which]);
                    self.kept = Some((which, Arc::clone(&bytes)));
                    bytes
                }
            };
            ctx.send_wire(self.target, payload);
        }
        self.tick += 1;
        if self.tick < self.ticks {
            ctx.set_timer(SimDuration::from_millis(1), TimerToken(0));
        }
    }
}

/// Takes every datagram, answers none.
struct Sink;

impl Node for Sink {
    fn on_datagram(&mut self, _: &mut Context<'_>, _: Addr, _: &Message, _: usize) {}
    fn on_timer(&mut self, _: &mut Context<'_>, _: TimerToken) {}
}

/// Runs one [`Resender`] of `msgs` against a [`Sink`] and returns what
/// the sink's ingress observed, with the run's counters.
fn resend_run(msgs: &[Message], keep: bool, ticks: usize) -> (Vec<Option<Message>>, SimPerf) {
    let mut sim = Simulator::new(8);
    fixed_fabric(&mut sim, 5);
    let (_, target) = sim.add_node(Box::new(Sink));
    sim.add_node(Box::new(Resender {
        target,
        msgs: msgs.to_vec(),
        keep,
        kept: None,
        tick: 0,
        ticks,
    }));
    let (trace, sink) = shared(MemoryTrace::default());
    sim.add_sink(sink);
    sim.run_until_idle();
    sim.audit().assert_clean();
    let observed = trace.lock().events.iter().map(|e| e.msg.clone()).collect();
    (observed, sim.perf())
}

fn numbered_query(id: u16) -> Message {
    Message::query(
        id,
        Name::parse(&format!("{id}.cachetest.nl")).unwrap(),
        RecordType::AAAA,
    )
}

/// A sender that resends one payload N times costs one codec call; every
/// arrival still counts as decoded and observes the payload's decode.
#[test]
fn a_resent_payload_is_decoded_once() {
    let query = numbered_query(7);
    let len = dike_wire::codec::encode(&query).unwrap().len() as u64;
    let (observed, perf) = resend_run(std::slice::from_ref(&query), true, 10);
    assert_eq!(observed, vec![Some(query); 10]);
    assert_eq!(perf.decode_calls, 1);
    assert_eq!(perf.datagrams_decoded, 10);
    assert_eq!(perf.bytes_decoded, 10 * len);
}

/// A sender that switches payloads is decoded afresh at the switch: its
/// arrivals observe the new message, not the one it resent before.
#[test]
fn a_switched_payload_is_decoded_afresh() {
    let msgs = [numbered_query(1), numbered_query(2)];
    let (observed, perf) = resend_run(&msgs, true, 10);
    let want: Vec<Option<Message>> = (0..10).map(|i| Some(msgs[i / 5].clone())).collect();
    assert_eq!(observed, want);
    assert_eq!((perf.decode_calls, perf.datagrams_decoded), (2, 10));
}

/// A one-shot payload (its sender keeps no clone) costs one codec call
/// per arrival, as it always did.
#[test]
fn a_one_shot_payload_is_decoded_on_every_arrival() {
    let query = numbered_query(7);
    let (observed, perf) = resend_run(std::slice::from_ref(&query), false, 10);
    assert_eq!(observed, vec![Some(query); 10]);
    assert_eq!((perf.decode_calls, perf.datagrams_decoded), (10, 10));
}

/// Nodes added between runs start on the next run, and nobody starts
/// twice — on the plain run loops and on the sharded engine's rounds.
#[test]
fn nodes_added_after_a_run_start_exactly_once() {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    struct CountsStarts(Arc<AtomicU32>);
    impl Node for CountsStarts {
        fn on_start(&mut self, _ctx: &mut Context<'_>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        fn on_datagram(&mut self, _: &mut Context<'_>, _: Addr, _: &Message, _: usize) {}
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: TimerToken) {}
    }
    let plain = Simulator::new(7);
    let sharded = Simulator::new_sharded(
        7,
        shard::ShardConfig {
            id: 0,
            starts: vec![FIRST_ADDR],
            floor: shard::DEFAULT_LOOKAHEAD,
        },
    );
    for (mut sim, windowed) in [(plain, false), (sharded, true)] {
        let starts: [Arc<AtomicU32>; 3] = Default::default();
        let count = |i: usize| starts[i].load(Ordering::Relaxed);
        let run = |sim: &mut Simulator, secs: u64| {
            if windowed {
                sim.run_round(u64::MAX, SimDuration::from_secs(secs).as_nanos());
            } else {
                sim.run_until(SimDuration::from_secs(secs).after_zero());
            }
        };
        sim.add_node(Box::new(CountsStarts(starts[0].clone())));
        run(&mut sim, 1);
        assert_eq!((count(0), count(1), count(2)), (1, 0, 0));
        sim.add_node(Box::new(CountsStarts(starts[1].clone())));
        sim.add_node(Box::new(CountsStarts(starts[2].clone())));
        run(&mut sim, 2);
        run(&mut sim, 3);
        assert_eq!((count(0), count(1), count(2)), (1, 1, 1));
    }
}

fn telemetry_run(seed: u64) -> dike_telemetry::MetricsRegistry {
    let mut sim = Simulator::new(seed);
    fixed_fabric(&mut sim, 10);
    let (echo_id, echo_addr) = sim.add_node(Box::new(Echo));
    sim.add_node(Box::new(Pinger {
        target: echo_addr,
        sent_at: None,
        rtt: None,
    }));
    let reg = dike_telemetry::shared_registry();
    sim.attach_telemetry(reg.clone(), dike_telemetry::TelemetryConfig::every_secs(1));
    sim.label_node(echo_id, "echo");
    sim.run_until(SimDuration::from_secs(5).after_zero());
    drop(sim);
    std::sync::Arc::try_unwrap(reg)
        .expect("simulator dropped its registry handle")
        .into_inner()
}

#[test]
fn telemetry_counts_events_and_per_node_traffic() {
    let reg = telemetry_run(7);
    // One query + one response.
    assert_eq!(reg.counter_total("netsim", None, "datagrams_sent"), Some(2));
    assert_eq!(
        reg.counter_total("netsim", None, "datagrams_delivered"),
        Some(2)
    );
    assert_eq!(
        reg.counter_total("netsim", None, "datagrams_dropped"),
        Some(0)
    );
    // The echo node (node 0) was offered exactly the query.
    assert_eq!(
        reg.counter_total("netsim", Some(0), "datagrams_offered"),
        Some(1)
    );
    assert_eq!(
        reg.counter_total("netsim", Some(0), "datagrams_delivered"),
        Some(1)
    );
    assert_eq!(reg.node_label(0), Some("echo"));
    // Boundaries at 1..=5 s, cut on sim time.
    assert_eq!(reg.snapshot_times().len(), 5);
    assert_eq!(reg.snapshot_times()[0], 1_000_000_000);
    assert_eq!(reg.snapshot_times()[4], 5_000_000_000);
}

#[test]
fn telemetry_snapshots_are_deterministic_across_runs() {
    assert_eq!(telemetry_run(9).to_json(), telemetry_run(9).to_json());
}

/// Boundaries every 2^62 ns before a control event at the end of
/// simulated time: three are cut, the fourth would pass `u64::MAX` ns,
/// and the run's final snapshot is at the end itself. A boundary that
/// saturated there would be cut forever inside one `step()`, so the run
/// has its own thread and a watchdog; a run that never returns is left
/// detached.
#[test]
fn telemetry_stops_cutting_at_the_end_of_time() {
    let (done, finished) = std::sync::mpsc::channel();
    let run = std::thread::spawn(move || {
        let mut sim = Simulator::new(11);
        sim.add_node(Box::new(Echo));
        let reg = dike_telemetry::shared_registry();
        let config = dike_telemetry::TelemetryConfig {
            snapshot_interval_nanos: 1 << 62,
        };
        sim.attach_telemetry(reg.clone(), config);
        sim.schedule_control(SimTime::from_nanos(u64::MAX), |_| {});
        sim.run_until_idle();
        let times = reg.lock().snapshot_times().to_vec();
        let _ = done.send(());
        times
    });
    let waited = finished.recv_timeout(std::time::Duration::from_secs(10));
    assert!(
        !matches!(waited, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
        "the run did not return within 10 s"
    );
    let times = run.join().expect("the run panicked");
    assert_eq!(times, [1 << 62, 2 << 62, 3 << 62, u64::MAX]);
}

/// A zero snapshot interval is refused when attached. Clamped to 1 ns
/// it asked a one-second run for a billion cuts, so the run has its own
/// thread and a watchdog, as above: the thread must panic, which drops
/// its sender, within 10 s.
#[test]
fn a_zero_telemetry_interval_is_refused() {
    let (done, finished) = std::sync::mpsc::channel::<()>();
    let run = std::thread::spawn(move || {
        let mut sim = Simulator::new(12);
        sim.add_node(Box::new(Echo));
        let reg = dike_telemetry::shared_registry();
        sim.attach_telemetry(reg, dike_telemetry::TelemetryConfig::every_secs(0));
        sim.run_until(SimTime::from_nanos(1_000_000_000));
        let _ = done.send(());
    });
    let waited = finished.recv_timeout(std::time::Duration::from_secs(10));
    assert!(
        matches!(waited, Err(std::sync::mpsc::RecvTimeoutError::Disconnected)),
        "the run did not panic within 10 s: {waited:?}"
    );
    let err = run.join().expect_err("the run panicked");
    let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
    assert!(msg.contains("interval is zero"), "panic said: {msg}");
}

/// An admission-style defense that delays every query by a fixed
/// amount in one class.
struct DelayAll(SimDuration, crate::queueing::QueueClass);

impl crate::defense::IngressDefense for DelayAll {
    fn on_query(
        &mut self,
        _now: SimTime,
        _src: Addr,
        _msg: &Message,
    ) -> crate::defense::IngressVerdict {
        crate::defense::IngressVerdict::Enqueue {
            delay: self.0,
            class: self.1,
        }
    }
}

#[test]
fn queue_delay_histograms_reach_the_telemetry_cuts() {
    use crate::queueing::QueueClass;

    let mut sim = Simulator::new(11);
    fixed_fabric(&mut sim, 10);
    let (_, echo_addr) = sim.add_node(Box::new(Echo));
    sim.add_node(Box::new(Pinger {
        target: echo_addr,
        sent_at: None,
        rtt: None,
    }));
    sim.world_mut().set_ingress_defense(
        echo_addr,
        Box::new(DelayAll(SimDuration::from_millis(3), QueueClass::Known)),
    );
    let reg = dike_telemetry::shared_registry();
    sim.attach_telemetry(reg.clone(), dike_telemetry::TelemetryConfig::every_secs(1));
    sim.run_until(SimDuration::from_secs(2).after_zero());
    drop(sim);
    let reg = std::sync::Arc::try_unwrap(reg)
        .expect("simulator dropped its registry handle")
        .into_inner();

    // The delayed class publishes a histogram row; the classes that
    // saw no traffic stay absent so defense-free snapshot shapes are
    // unchanged.
    let known = reg
        .histogram("netsim", None, "defense_queue_delay_known")
        .expect("known-class delay histogram is published");
    assert_eq!(known.count, 1, "one query was enqueued");
    assert_eq!(known.sum, SimDuration::from_millis(3).as_nanos());
    for absent in ["defense_queue_delay_unknown", "defense_queue_delay_flagged"] {
        assert!(
            reg.histogram("netsim", None, absent).is_none(),
            "{absent} must not appear without samples"
        );
    }
}

/// A defense that cycles through one verdict of every kind the
/// ledger counts, plus a delayed admission.
struct EveryVerdict(usize);

impl crate::defense::IngressDefense for EveryVerdict {
    fn on_query(
        &mut self,
        _now: SimTime,
        _src: Addr,
        _msg: &Message,
    ) -> crate::defense::IngressVerdict {
        use crate::defense::IngressVerdict::*;
        use crate::queueing::QueueClass::*;
        self.0 += 1;
        match self.0 % 7 {
            0 => Pass,
            1 => RrlDrop,
            2 => RrlSlip,
            3 => Shed(Known),
            4 | 5 => Shed(Unknown),
            _ => Enqueue {
                delay: SimDuration::from_millis(1),
                class: Flagged,
            },
        }
    }
}

/// The registry reader and the two writers share one name table: what
/// a defended echo world publishes reads back as its own ledger.
#[test]
fn ledger_read_from_the_registry_equals_the_simulators() {
    let mut sim = Simulator::new(12);
    fixed_fabric(&mut sim, 10);
    let (_, echo_addr) = sim.add_node(Box::new(Echo));
    for _ in 0..20 {
        sim.add_node(Box::new(Pinger {
            target: echo_addr,
            sent_at: None,
            rtt: None,
        }));
    }
    sim.world_mut()
        .set_ingress_defense(echo_addr, Box::new(EveryVerdict(0)));
    let reg = dike_telemetry::shared_registry();
    sim.attach_telemetry(reg.clone(), dike_telemetry::TelemetryConfig::every_secs(1));
    sim.run_until(SimDuration::from_secs(2).after_zero());
    let ledger = sim.world_mut().defense_ledger();
    drop(sim);
    let reg = std::sync::Arc::try_unwrap(reg)
        .expect("simulator dropped its registry handle")
        .into_inner();

    assert_eq!(ledger.rrl_limited, 6);
    assert_eq!(ledger.rrl_slipped, 3);
    assert_eq!(ledger.shed_by_class, [3, 6, 0]);
    assert_eq!(ledger.shed(), 9);
    assert_eq!(ledger.defense_drops, 15);
    assert_eq!(DefenseLedger::from_registry(&reg, "netsim"), ledger);
    assert_eq!(
        DefenseLedger::from_registry(&reg, "serve"),
        DefenseLedger::default(),
        "nothing was published under another component"
    );
}

/// Installing a second defense on a defended address swaps the
/// engine inside the gate: the drops, the delay samples and the
/// cookie secret of the first engine's lifetime stay.
#[test]
fn replacing_a_defense_keeps_the_gates_accounting_and_secret() {
    use crate::queueing::QueueClass;

    let ping = |sim: &mut Simulator, target, n| {
        for _ in 0..n {
            sim.add_node(Box::new(Pinger {
                target,
                sent_at: None,
                rtt: None,
            }));
        }
    };
    let mut sim = Simulator::new(13);
    fixed_fabric(&mut sim, 10);
    let (_, echo_addr) = sim.add_node(Box::new(Echo));
    ping(&mut sim, echo_addr, 20);
    sim.world_mut()
        .set_ingress_defense(echo_addr, Box::new(EveryVerdict(0)));
    sim.world_mut()
        .set_ingress_cookie_secret(echo_addr, Some(0x5ec2e7));
    sim.run_until(SimDuration::from_secs(1).after_zero());
    let first_life = sim.world_mut().defense_ledger();
    assert_eq!(first_life.defense_drops, 15);

    sim.world_mut().set_ingress_defense(
        echo_addr,
        Box::new(DelayAll(SimDuration::from_millis(3), QueueClass::Known)),
    );
    ping(&mut sim, echo_addr, 5);
    sim.run_until(SimDuration::from_secs(2).after_zero());

    assert_eq!(
        sim.world_mut().defense_ledger(),
        first_life,
        "the second engine drops nothing; the first engine's drops stay"
    );
    let delays = sim.world_mut().defense_queue_delays();
    assert_eq!(delays[QueueClass::Flagged.index()].count(), 3);
    assert_eq!(delays[QueueClass::Known.index()].count(), 5);
    let gate = sim.world_mut().gate_mut(echo_addr).expect("defended");
    assert_eq!(gate.cookie_secret(), Some(0x5ec2e7));
    sim.audit().assert_clean();
}

/// Sends `queries` back to back at start and logs each reply's id and
/// arrival time in milliseconds.
struct Burst {
    target: Addr,
    queries: Vec<Message>,
    replies: std::sync::Arc<dike_telemetry::sync::Mutex<Vec<(u16, u64)>>>,
}

impl Node for Burst {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for q in &self.queries {
            ctx.send(self.target, q);
        }
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, _src: Addr, msg: &Message, _wire_len: usize) {
        let ms = ctx.now().as_nanos() / 1_000_000;
        self.replies.lock().push((msg.id, ms));
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: TimerToken) {}
}

/// A defense and a plain service queue share one address's gate: the
/// cookie exemption skips the defense but not the queue, an admitted
/// query skips the queue, a queue drop is the queue's alone, and a
/// replaced queue keeps its counts.
#[test]
fn a_defense_and_a_queue_share_one_gate() {
    use crate::queueing::{QueueClass, QueueConfig};
    use dike_wire::cookie;

    const SECRET: u64 = 0x0ddba11;
    let mut sim = Simulator::new(14);
    fixed_fabric(&mut sim, 10);
    let (echo_id, echo_addr) = sim.add_node(Box::new(Echo));
    // Every query the defense sees is admitted after 3 ms; the plain
    // queue serves one query a second and holds one.
    sim.world_mut().set_ingress_defense(
        echo_addr,
        Box::new(DelayAll(SimDuration::from_millis(3), QueueClass::Known)),
    );
    sim.world_mut()
        .set_ingress_cookie_secret(echo_addr, Some(SECRET));
    sim.world_mut().set_ingress_queue(
        echo_addr,
        QueueConfig {
            rate_pps: 1.0,
            capacity: 1,
        },
    );
    let reg = dike_telemetry::shared_registry();
    sim.attach_telemetry(reg.clone(), dike_telemetry::TelemetryConfig::every_secs(1));

    let query = |id| Message::query(id, Name::parse("q.nl").unwrap(), RecordType::A);
    let src = sim.next_addr();
    let exempt = |id| {
        let mut q = query(id).with_edns(1232);
        let client = cookie::client_cookie_for(src.0, echo_addr.0);
        let full = cookie::Cookie {
            client,
            server: Some(cookie::server_cookie(&client, src.0, SECRET).to_vec()),
        };
        cookie::set_cookie(&mut q, 1232, &full);
        q
    };
    let replies = std::sync::Arc::new(dike_telemetry::sync::Mutex::new(Vec::new()));
    sim.add_node(Box::new(Burst {
        target: echo_addr,
        queries: vec![query(1), exempt(2), exempt(3)],
        replies: replies.clone(),
    }));
    sim.run_until(SimDuration::from_secs(2).after_zero());

    // Query 1 went through admission (10 + 3 + 10 ms) and never touched
    // the plain queue; query 2 skipped the defense but waited its
    // second in the queue; query 3 found the queue full.
    assert_eq!(*replies.lock(), [(1, 23), (2, 1_020)]);
    let gate = sim.world_mut().gate_mut(echo_addr).expect("gated");
    let queue = gate.queue().expect("queued");
    assert_eq!((queue.accepted(), queue.dropped()), (1, 1));
    let delays = gate.queue_delays();
    assert_eq!(delays[QueueClass::Known.index()].count(), 1);
    assert_eq!(
        delays.iter().map(|h| h.count()).sum::<u64>(),
        1,
        "a plain-queue wait is no admission delay"
    );
    let ledger = sim.world_mut().defense_ledger();
    assert_eq!(ledger.cookie_exempt, 2);
    assert_eq!(
        ledger.defense_drops, 0,
        "the queue drop is not the defense's"
    );

    let node = Some(echo_id.0);
    {
        let reg = reg.lock();
        assert_eq!(reg.counter_total("netsim", None, "queue_drops"), Some(1));
        assert_eq!(reg.counter_total("netsim", node, "queue_dropped"), Some(1));
        assert_eq!(
            reg.counter_total("netsim", node, "datagrams_dropped"),
            Some(1)
        );
    }

    // A replacement starts idle under the new config and keeps the
    // old queue's counts, like the ledger does.
    sim.world_mut()
        .set_ingress_queue(echo_addr, QueueConfig::small_authoritative());
    sim.run_until(SimDuration::from_secs(3).after_zero());
    let gate = sim.world_mut().gate_mut(echo_addr).expect("gated");
    let queue = gate.queue().expect("queued");
    assert_eq!((queue.accepted(), queue.dropped()), (1, 1));
    assert_eq!(gate.cookie_secret(), Some(SECRET));
    assert_eq!(
        reg.lock().counter_total("netsim", None, "queue_drops"),
        Some(1)
    );
    sim.audit().assert_clean();
}

/// A TCP-capable echo: answers stream queries in place, over the
/// same connection.
struct TcpEcho;

impl Node for TcpEcho {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _wire_len: usize) {
        if !msg.is_response {
            let resp = Message::response_to(msg);
            ctx.send(src, &resp);
        }
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: TimerToken) {}

    fn on_tcp_message(
        &mut self,
        ctx: &mut Context<'_>,
        conn: crate::tcp::TcpConnId,
        _peer: Addr,
        msg: &Message,
        _wire_len: usize,
    ) {
        if !msg.is_response {
            let resp = Message::response_to(msg);
            ctx.tcp_send(conn, &resp);
        }
    }
}

/// Dials `target` at start, sends one query when connected, and logs
/// `(event, sim-millis)` pairs for the test to assert on.
struct TcpClient {
    target: Addr,
    close_after_reply: bool,
    log: std::sync::Arc<dike_telemetry::sync::Mutex<Vec<(String, u64)>>>,
}

impl TcpClient {
    fn log(&self, ctx: &Context<'_>, what: &str) {
        self.log
            .lock()
            .push((what.to_string(), ctx.now().as_nanos() / 1_000_000));
    }
}

impl Node for TcpClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.tcp_connect(self.target);
    }

    fn on_datagram(
        &mut self,
        _ctx: &mut Context<'_>,
        _src: Addr,
        _msg: &Message,
        _wire_len: usize,
    ) {
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: TimerToken) {}

    fn on_tcp_connected(
        &mut self,
        ctx: &mut Context<'_>,
        conn: crate::tcp::TcpConnId,
        _peer: Addr,
    ) {
        self.log(ctx, "connected");
        let q = Message::query(9, Name::parse("tcp.nl").unwrap(), RecordType::A);
        ctx.tcp_send(conn, &q);
    }

    fn on_tcp_message(
        &mut self,
        ctx: &mut Context<'_>,
        conn: crate::tcp::TcpConnId,
        _peer: Addr,
        msg: &Message,
        _wire_len: usize,
    ) {
        assert!(msg.is_response);
        self.log(ctx, "reply");
        if self.close_after_reply {
            ctx.tcp_close(conn);
        }
    }

    fn on_tcp_closed(&mut self, ctx: &mut Context<'_>, _conn: crate::tcp::TcpConnId, reset: bool) {
        self.log(ctx, if reset { "reset" } else { "fin" });
    }
}

fn tcp_log() -> std::sync::Arc<dike_telemetry::sync::Mutex<Vec<(String, u64)>>> {
    std::sync::Arc::new(dike_telemetry::sync::Mutex::new(Vec::new()))
}

#[test]
fn tcp_handshake_costs_one_rtt_and_per_conn_cost_applies() {
    let mut sim = Simulator::new(21);
    fixed_fabric(&mut sim, 10);
    let (_, server_addr) = sim.add_node(Box::new(TcpEcho));
    sim.world_mut().set_tcp_listener(
        server_addr,
        crate::tcp::TcpConfig {
            per_conn_cost: SimDuration::from_millis(5),
            ..Default::default()
        },
    );
    let log = tcp_log();
    sim.add_node(Box::new(TcpClient {
        target: server_addr,
        close_after_reply: true,
        log: log.clone(),
    }));
    sim.run_until_idle();
    // SYN 10ms + SYN-ACK 10ms = connected at 20; query 10ms + 5ms
    // per-connection cost + reply 10ms = 45.
    assert_eq!(
        *log.lock(),
        vec![("connected".to_string(), 20), ("reply".to_string(), 45)]
    );
    let stats = sim.world.tcp.stats;
    assert_eq!(stats.opened, 1);
    assert_eq!(stats.closed, 1);
    assert_eq!(stats.reset, 0);
    assert_eq!(stats.messages, 2);
    assert_eq!(sim.world.tcp.live(), 0);
    sim.audit().assert_clean();
}

#[test]
fn tcp_dial_without_listener_is_reset() {
    let mut sim = Simulator::new(22);
    fixed_fabric(&mut sim, 10);
    let (_, server_addr) = sim.add_node(Box::new(TcpEcho));
    // No listener installed: a live node refuses like a closed port.
    let log = tcp_log();
    sim.add_node(Box::new(TcpClient {
        target: server_addr,
        close_after_reply: false,
        log: log.clone(),
    }));
    sim.run_until_idle();
    assert_eq!(*log.lock(), vec![("reset".to_string(), 20)]);
    let stats = sim.world.tcp.stats;
    assert_eq!((stats.opened, stats.reset, stats.syn_refused), (1, 1, 1));
    assert_eq!(sim.world.tcp.live(), 0);
    sim.audit().assert_clean();
}

#[test]
fn tcp_table_full_sheds_handshakes_but_udp_still_served() {
    let mut sim = Simulator::new(23);
    fixed_fabric(&mut sim, 10);
    let (_, server_addr) = sim.add_node(Box::new(TcpEcho));
    sim.world_mut().set_tcp_listener(
        server_addr,
        crate::tcp::TcpConfig {
            table_capacity: 1,
            per_conn_cost: SimDuration::ZERO,
            // Long idle timeout: the first connection holds its slot
            // (the client never closes) while the second dials.
            idle_timeout: SimDuration::from_secs(60),
        },
    );
    let holder = tcp_log();
    sim.add_node(Box::new(TcpClient {
        target: server_addr,
        close_after_reply: false, // holds the only table slot
        log: holder.clone(),
    }));
    let shed = tcp_log();
    sim.add_node(Box::new(TcpClient {
        target: server_addr,
        close_after_reply: false,
        log: shed.clone(),
    }));
    // A plain UDP client must sail through the whole time.
    sim.add_node(Box::new(Pinger {
        target: server_addr,
        sent_at: None,
        rtt: None,
    }));
    sim.run_until(SimDuration::from_secs(30).after_zero());
    let stats = sim.world.tcp.stats;
    assert_eq!(stats.syn_refused, 1, "second handshake shed with RST");
    // Same-instant SYNs race deterministically: exactly one of the
    // two dialers connected, the other saw a reset.
    let connected = |l: &std::sync::Arc<dike_telemetry::sync::Mutex<Vec<(String, u64)>>>| {
        l.lock().iter().any(|(e, _)| e == "connected")
    };
    let was_reset = |l: &std::sync::Arc<dike_telemetry::sync::Mutex<Vec<(String, u64)>>>| {
        l.lock().iter().any(|(e, _)| e == "reset")
    };
    assert!(connected(&holder) ^ connected(&shed));
    assert!(was_reset(&holder) ^ was_reset(&shed));
    // UDP round-tripped: delivered query + response.
    assert!(sim.perf().datagrams_delivered >= 2, "UDP must keep flowing");
    sim.audit().assert_clean();
}

#[test]
fn tcp_idle_timeout_reaps_and_releases_the_table_slot() {
    let mut sim = Simulator::new(24);
    fixed_fabric(&mut sim, 10);
    let (_, server_addr) = sim.add_node(Box::new(TcpEcho));
    sim.world_mut().set_tcp_listener(
        server_addr,
        crate::tcp::TcpConfig {
            table_capacity: 4,
            per_conn_cost: SimDuration::ZERO,
            idle_timeout: SimDuration::from_secs(2),
        },
    );
    let log = tcp_log();
    sim.add_node(Box::new(TcpClient {
        target: server_addr,
        close_after_reply: false, // lingers until the server reaps it
        log: log.clone(),
    }));
    sim.run_until_idle();
    let entries = log.lock().clone();
    assert_eq!(entries.len(), 3, "connected, reply, fin: {entries:?}");
    assert_eq!(entries[2].0, "fin", "idle reap is a graceful close");
    // Last activity is the reply reaching the client at t=40ms;
    // reaped 2s later, plus one path delay for the FIN.
    assert_eq!(entries[2].1, 2050);
    let listeners = &sim.world.tcp.listeners;
    let open: Vec<usize> = listeners.iter().flatten().map(|l| l.open).collect();
    assert_eq!(open, [0], "the reaped connection gave its slot back");
    let stats = sim.world.tcp.stats;
    assert_eq!((stats.opened, stats.closed, stats.reset), (1, 1, 0));
    sim.audit().assert_clean();
}

#[test]
fn tcp_server_crash_resets_connections_and_conserves() {
    let mut sim = Simulator::new(25);
    fixed_fabric(&mut sim, 10);
    let (server_id, server_addr) = sim.add_node(Box::new(TcpEcho));
    sim.world_mut().set_tcp_listener(
        server_addr,
        crate::tcp::TcpConfig {
            idle_timeout: SimDuration::from_secs(60),
            ..Default::default()
        },
    );
    let log = tcp_log();
    sim.add_node(Box::new(TcpClient {
        target: server_addr,
        close_after_reply: false,
        log: log.clone(),
    }));
    sim.schedule_node_down(SimDuration::from_secs(1).after_zero(), server_id);
    sim.run_until(SimDuration::from_secs(5).after_zero());
    let entries = log.lock().clone();
    assert_eq!(
        entries.last().map(|(e, at)| (e.as_str(), *at)),
        Some(("reset", 1010)),
        "crash severs the connection with an RST: {entries:?}"
    );
    let stats = sim.world.tcp.stats;
    assert_eq!((stats.opened, stats.closed, stats.reset), (1, 0, 1));
    assert_eq!(sim.world.tcp.live(), 0);
    sim.audit().assert_clean();
}

#[test]
fn udp_only_runs_never_touch_tcp_state() {
    let mut sim = Simulator::new(26);
    fixed_fabric(&mut sim, 10);
    let (_, echo_addr) = sim.add_node(Box::new(Echo));
    sim.add_node(Box::new(Pinger {
        target: echo_addr,
        sent_at: None,
        rtt: None,
    }));
    sim.run_until_idle();
    assert_eq!(sim.world.tcp.stats, crate::tcp::TcpStats::default());
    assert_eq!(sim.world.tcp.live(), 0);
    sim.audit().assert_clean();
}

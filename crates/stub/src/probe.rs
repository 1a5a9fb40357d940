//! The probe node.

use dike_netsim::{Addr, Context, Node, SimDuration, TimerId, TimerToken};
use dike_wire::{Message, Name, RecordType};

use crate::log::{QueryOutcome, QueryRecord, SharedProbeLog, VpKey};

/// Atlas's DNS query timeout (paper §3.2).
const QUERY_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// Probe configuration.
#[derive(Debug, Clone)]
pub struct StubConfig {
    /// This probe's id; also the first label of the queried name.
    pub probe_id: u16,
    /// The local recursive resolvers; each contributes one VP.
    pub recursives: Vec<Addr>,
    /// Name to query; defaults to `{probe_id}.cachetest.nl`.
    pub qname: Name,
    /// Query type; AAAA in every experiment.
    pub qtype: RecordType,
    /// Time of the first round (phase within the experiment).
    pub(crate) first_round_at: SimDuration,
    /// Spacing between rounds (10 or 20 minutes in the paper).
    pub round_interval: SimDuration,
    /// Extra per-round jitter, uniform in `[0, round_jitter)` — Atlas
    /// spreads each round's queries over several minutes.
    pub round_jitter: SimDuration,
    /// Number of rounds to run.
    pub rounds: u32,
}

impl StubConfig {
    /// A probe with the paper's defaults (AAAA for its unique name, 5 s
    /// timeout), querying `recursives` every `round_interval` starting at
    /// `first_round_at`.
    pub fn new(
        probe_id: u16,
        recursives: Vec<Addr>,
        first_round_at: SimDuration,
        round_interval: SimDuration,
        rounds: u32,
    ) -> Self {
        let qname = Name::parse(&format!("{probe_id}.cachetest.nl")).expect("probe name");
        StubConfig {
            probe_id,
            recursives,
            qname,
            qtype: RecordType::AAAA,
            first_round_at,
            round_interval,
            round_jitter: SimDuration::ZERO,
            rounds,
        }
    }
}

/// Timer-token tags (upper bits distinguish round timers from query
/// timeouts; lower bits carry the payload).
const TOKEN_ROUND: u64 = 1 << 63;

/// A query out, waiting for its answer or its timeout.
struct Pending {
    /// The query's message id.
    id: u16,
    /// The index of the recursive asked in `config.recursives`.
    recursive: u8,
    round: u32,
    sent_at: dike_netsim::SimTime,
    timer: TimerId,
}

/// Counters a [`StubProbe`] keeps for telemetry (the client's-eye view of
/// the paper's figures: queries sent, answers back, timeouts).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StubStats {
    /// Queries sent (one per recursive per round).
    pub(crate) queries_sent: u64,
    /// Answers received before the timeout (any rcode).
    pub(crate) answers: u64,
    /// Queries that hit the 5 s Atlas timeout.
    pub(crate) timeouts: u64,
}

/// The probe node. Sends one query per recursive per round and logs every
/// outcome into the shared [`crate::ProbeLog`].
pub struct StubProbe {
    config: StubConfig,
    log: SharedProbeLog,
    /// Queries out, found by message id with a scan: one per recursive,
    /// more only while rounds overlap the timeout.
    pending: Vec<Pending>,
    next_id: u16,
    round: u32,
    stats: StubStats,
}

impl StubProbe {
    /// A probe writing into `log`.
    pub fn new(config: StubConfig, log: SharedProbeLog) -> Self {
        StubProbe {
            config,
            log,
            pending: Vec::new(),
            next_id: 1,
            round: 0,
            stats: StubStats::default(),
        }
    }

    fn fire_round(&mut self, ctx: &mut Context<'_>) {
        let round = self.round;
        self.round += 1;
        self.pending.reserve_exact(self.config.recursives.len());
        // Index loop: iterating a borrowed `recursives` would pin `self`
        // immutably while the body mutates it (a per-round Vec clone
        // otherwise).
        for i in 0..self.config.recursives.len() {
            let recursive = self.config.recursives[i];
            let id = self.next_id;
            self.next_id = self.next_id.wrapping_add(1).max(1);
            let msg = Message::query(id, self.config.qname.clone(), self.config.qtype);
            let timer = ctx.set_timer(QUERY_TIMEOUT, TimerToken(id as u64));
            let pending = Pending {
                id,
                recursive: i as u8,
                round,
                sent_at: ctx.now(),
                timer,
            };
            // An id still out after 65,535 more queries is forgotten.
            match self.pending.iter_mut().find(|p| p.id == id) {
                Some(old) => *old = pending,
                None => self.pending.push(pending),
            }
            ctx.send(recursive, &msg);
            self.stats.queries_sent += 1;
        }
        // Schedule the next round.
        if self.round < self.config.rounds {
            let jitter = if self.config.round_jitter > SimDuration::ZERO {
                SimDuration::from_nanos(
                    ctx.rng()
                        .random_range(0..self.config.round_jitter.as_nanos().max(1)),
                )
            } else {
                SimDuration::ZERO
            };
            ctx.set_timer(self.config.round_interval + jitter, TimerToken(TOKEN_ROUND));
        }
    }

    /// Logs what became of the query `pending`.
    fn log(&self, pending: Pending, outcome: QueryOutcome, rtt: Option<SimDuration>) {
        let i = pending.recursive;
        self.log.lock().records.push(QueryRecord {
            vp: VpKey {
                probe: self.config.probe_id,
                recursive: i,
            },
            recursive: self.config.recursives[usize::from(i)],
            round: pending.round,
            sent_at: pending.sent_at,
            outcome,
            rtt,
        });
    }
}

impl Node for StubProbe {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.config.rounds == 0 || self.config.recursives.is_empty() {
            return;
        }
        ctx.set_timer(self.config.first_round_at, TimerToken(TOKEN_ROUND));
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _wire_len: usize) {
        if !msg.is_response {
            return;
        }
        let Some(at) = self.pending.iter().position(|p| p.id == msg.id) else {
            return; // late answer after timeout: Atlas reports no answer
        };
        if self.config.recursives[usize::from(self.pending[at].recursive)] != src {
            return; // answer from the wrong resolver: ignore it
        }
        let pending = self.pending.swap_remove(at);
        ctx.cancel_timer(pending.timer);
        let aaaa = msg.answers.iter().find_map(|r| match &r.rdata {
            dike_wire::RData::Aaaa(a) => Some((*a, r.ttl)),
            _ => None,
        });
        self.stats.answers += 1;
        let outcome = QueryOutcome::Answer {
            rcode: msg.rcode,
            aaaa: aaaa.map(|(a, _)| a),
            ttl: aaaa.map(|(_, t)| t),
        };
        let rtt = Some(ctx.now() - pending.sent_at);
        self.log(pending, outcome, rtt);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        if token.0 & TOKEN_ROUND != 0 {
            self.fire_round(ctx);
            return;
        }
        let id = token.0 as u16;
        let Some(at) = self.pending.iter().position(|p| p.id == id) else {
            return; // answered already
        };
        self.stats.timeouts += 1;
        let pending = self.pending.swap_remove(at);
        self.log(pending, QueryOutcome::Timeout, None);
    }

    fn publish_metrics(&self, out: &mut dike_telemetry::NodePublisher<'_>) {
        out.counter("stub", "queries_sent", self.stats.queries_sent);
        out.counter("stub", "answers", self.stats.answers);
        out.counter("stub", "timeouts", self.stats.timeouts);
        out.gauge("stub", "pending_queries", self.pending.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::new_shared_log;
    use dike_netsim::{LatencyModel, LinkParams, LinkTable, Simulator};
    use dike_wire::Rcode;

    /// An answering resolver stand-in: replies NOERROR with a AAAA.
    struct FakeResolver;

    impl Node for FakeResolver {
        fn on_datagram(
            &mut self,
            ctx: &mut Context<'_>,
            src: Addr,
            msg: &Message,
            _wire_len: usize,
        ) {
            let mut resp = Message::response_to(msg);
            resp.recursion_available = true;
            resp.answers.push(dike_wire::Record::new(
                msg.question().unwrap().name.clone(),
                60,
                dike_wire::RData::Aaaa(std::net::Ipv6Addr::LOCALHOST),
            ));
            ctx.send(src, &resp);
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: TimerToken) {}
    }

    fn fixed(sim: &mut Simulator, ms: u64) {
        *sim.links_mut() = LinkTable::new(LinkParams {
            latency: LatencyModel::Fixed(SimDuration::from_millis(ms)),
            loss: 0.0,
        });
    }

    #[test]
    fn probe_queries_each_recursive_each_round() {
        let mut sim = Simulator::new(1);
        fixed(&mut sim, 5);
        let (_, r1) = sim.add_node(Box::new(FakeResolver));
        let (_, r2) = sim.add_node(Box::new(FakeResolver));
        let log = new_shared_log();
        let cfg = StubConfig::new(
            1414,
            vec![r1, r2],
            SimDuration::from_secs(1),
            SimDuration::from_secs(60),
            3,
        );
        sim.add_node(Box::new(StubProbe::new(cfg, log.clone())));
        sim.run_until(SimDuration::from_secs(300).after_zero());

        let log = log.lock();
        // 2 recursives × 3 rounds.
        assert_eq!(log.records.len(), 6);
        assert_eq!(log.ok_count(), 6);
        let vps: std::collections::BTreeSet<VpKey> = log.records.iter().map(|r| r.vp).collect();
        assert_eq!(vps.len(), 2);
        // Rounds are numbered and every record has an RTT of ~10 ms.
        for r in &log.records {
            assert!(r.round < 3);
            let rtt = r.rtt.unwrap();
            assert_eq!(rtt.as_millis(), 10);
        }
    }

    #[test]
    fn unanswered_queries_time_out_after_5s() {
        let mut sim = Simulator::new(2);
        fixed(&mut sim, 5);
        let (_, r1) = sim.add_node(Box::new(FakeResolver));
        sim.links_mut().set_ingress_loss(r1, 1.0); // blackhole the resolver
        let log = new_shared_log();
        let cfg = StubConfig::new(
            7,
            vec![r1],
            SimDuration::from_secs(1),
            SimDuration::from_secs(60),
            2,
        );
        sim.add_node(Box::new(StubProbe::new(cfg, log.clone())));
        sim.run_until(SimDuration::from_secs(200).after_zero());

        let log = log.lock();
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.timeout_count(), 2);
        // Timeout records carry the round's send time but no RTT.
        assert!(log.records.iter().all(|r| r.rtt.is_none()));
    }

    #[test]
    fn servfail_answers_are_logged_as_servfail() {
        struct FailingResolver;
        impl Node for FailingResolver {
            fn on_datagram(
                &mut self,
                ctx: &mut Context<'_>,
                src: Addr,
                msg: &Message,
                _wire_len: usize,
            ) {
                ctx.send(src, &Message::error_response(msg, Rcode::ServFail));
            }
            fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: TimerToken) {}
        }
        let mut sim = Simulator::new(3);
        fixed(&mut sim, 5);
        let (_, r1) = sim.add_node(Box::new(FailingResolver));
        let log = new_shared_log();
        let cfg = StubConfig::new(
            9,
            vec![r1],
            SimDuration::from_secs(1),
            SimDuration::from_secs(60),
            1,
        );
        sim.add_node(Box::new(StubProbe::new(cfg, log.clone())));
        sim.run_until(SimDuration::from_secs(60).after_zero());
        let servfail = |r: &&QueryRecord| {
            matches!(
                r.outcome,
                QueryOutcome::Answer {
                    rcode: Rcode::ServFail,
                    ..
                }
            )
        };
        assert_eq!(log.lock().records.iter().filter(servfail).count(), 1);
    }

    /// Passes each query on to `via`, which answers it.
    struct Relay {
        via: Addr,
    }

    impl Node for Relay {
        fn on_datagram(&mut self, ctx: &mut Context<'_>, _: Addr, msg: &Message, _: usize) {
            ctx.send(self.via, msg);
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: TimerToken) {}
    }

    /// Answers every query it is handed, but to `client`, from its own
    /// address: an answer from a resolver the client never asked.
    struct Impostor {
        client: Addr,
    }

    impl Node for Impostor {
        fn on_datagram(&mut self, ctx: &mut Context<'_>, _: Addr, msg: &Message, _: usize) {
            let mut resp = Message::response_to(msg);
            resp.answers.push(dike_wire::Record::new(
                msg.question().unwrap().name.clone(),
                60,
                dike_wire::RData::Aaaa(std::net::Ipv6Addr::LOCALHOST),
            ));
            ctx.send(self.client, &resp);
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: TimerToken) {}
    }

    /// Rounds 2 s apart overlap the 5 s timeout. Of three recursives one
    /// answers, one is blackholed, and one's answer comes from another
    /// address (ignored, so it times out): up to seven queries are out
    /// at once, two or three of them to the same recursive.
    #[test]
    fn rounds_that_overlap_the_timeout_keep_every_query_apart() {
        let mut sim = Simulator::new(5);
        fixed(&mut sim, 5);
        let registry = dike_telemetry::shared_registry();
        sim.attach_telemetry(
            registry.clone(),
            dike_telemetry::TelemetryConfig {
                snapshot_interval_nanos: 500_000_000,
            },
        );
        let (_, answers) = sim.add_node(Box::new(FakeResolver));
        let (_, blackholed) = sim.add_node(Box::new(FakeResolver));
        sim.links_mut().set_ingress_loss(blackholed, 1.0);
        let (_, impostor) = sim.add_node(Box::new(Impostor {
            client: Simulator::addr_at(4),
        }));
        let (_, misdirected) = sim.add_node(Box::new(Relay { via: impostor }));
        let log = new_shared_log();
        let cfg = StubConfig::new(
            21,
            vec![answers, blackholed, misdirected],
            SimDuration::from_secs(1),
            SimDuration::from_secs(2),
            4,
        );
        let (probe, probe_addr) = sim.add_node(Box::new(StubProbe::new(cfg, log.clone())));
        assert_eq!(probe_addr, Simulator::addr_at(4));
        sim.run_until(SimDuration::from_secs(20).after_zero());

        // (recursive index, round, sent at s, answered, rtt ms) in log order.
        let ms = |r: &QueryRecord| r.rtt.map(|d| d.as_millis());
        let got: Vec<_> = log
            .lock()
            .records
            .iter()
            .map(|r| {
                assert_eq!(r.vp.probe, 21);
                assert_eq!(
                    r.recursive,
                    [answers, blackholed, misdirected][r.vp.recursive as usize]
                );
                let answered = match r.outcome {
                    QueryOutcome::Answer { rcode, aaaa, ttl } => {
                        assert_eq!(
                            (rcode, aaaa, ttl),
                            (
                                Rcode::NoError,
                                Some(std::net::Ipv6Addr::LOCALHOST),
                                Some(60)
                            )
                        );
                        true
                    }
                    QueryOutcome::Timeout => false,
                };
                (
                    r.vp.recursive,
                    r.round,
                    r.sent_at.as_nanos() / 1_000_000_000,
                    answered,
                    ms(r),
                )
            })
            .collect();
        let answer = |round: u32| (0, round, 1 + 2 * u64::from(round), true, Some(10));
        let timeout = |vp: u8, round: u32| (vp, round, 1 + 2 * u64::from(round), false, None);
        assert_eq!(
            got,
            vec![
                answer(0),
                answer(1),
                answer(2),
                timeout(1, 0),
                timeout(2, 0),
                answer(3),
                timeout(1, 1),
                timeout(2, 1),
                timeout(1, 2),
                timeout(2, 2),
                timeout(1, 3),
                timeout(2, 3),
            ]
        );

        // Queries out at half-second instants: three go out each round,
        // the answered one leaves 10 ms later, the other two 5 s later.
        let registry = registry.lock();
        let pending_at = |secs: f64| {
            let at = (secs * 1e9) as u64;
            let idx = registry
                .snapshot_times()
                .iter()
                .position(|&t| t == at)
                .expect("a snapshot at that instant");
            match registry.value_at("stub", Some(probe.0), "pending_queries", idx as u32) {
                Some(dike_telemetry::MetricValue::Gauge { value, .. }) => value,
                other => panic!("pending_queries at {secs} s: {other:?}"),
            }
        };
        let want = [
            (0.5, 0.0),
            (1.5, 2.0),
            (3.5, 4.0),
            (5.5, 6.0),
            (6.5, 4.0),
            (7.5, 6.0),
            (8.5, 4.0),
            (10.5, 2.0),
            (12.5, 0.0),
        ];
        for (secs, pending) in want {
            assert_eq!(pending_at(secs), pending, "pending_queries at {secs} s");
        }
    }

    #[test]
    fn jitter_spreads_round_times() {
        let mut sim = Simulator::new(4);
        fixed(&mut sim, 5);
        let (_, r1) = sim.add_node(Box::new(FakeResolver));
        let log = new_shared_log();
        let mut cfg = StubConfig::new(
            11,
            vec![r1],
            SimDuration::from_secs(1),
            SimDuration::from_mins(10),
            5,
        );
        cfg.round_jitter = SimDuration::from_mins(5);
        sim.add_node(Box::new(StubProbe::new(cfg, log.clone())));
        sim.run_until(SimDuration::from_mins(90).after_zero());

        let log = log.lock();
        assert_eq!(log.records.len(), 5);
        // With jitter, inter-round gaps differ from the base interval.
        let mut gaps = Vec::new();
        for w in log.records.windows(2) {
            gaps.push(w[1].sent_at.as_nanos() - w[0].sent_at.as_nanos());
        }
        assert!(
            gaps.iter().any(|&g| g != gaps[0]),
            "jittered gaps should not all be identical: {gaps:?}"
        );
    }
}

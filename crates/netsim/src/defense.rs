//! The ingress stage: where server-side DDoS defenses and the plain
//! service queue plug into the delivery pipeline.
//!
//! The mechanisms themselves (RRL token buckets, source classifiers,
//! weighted-class admission — Rizvi et al.'s layered defenses) live in
//! the `dike-defense` crate; this module defines the narrow,
//! deterministic seam in front of a server: an installed
//! [`IngressDefense`] inspects the decoded query and returns an
//! [`IngressVerdict`], and the [`IngressGate`] wrapping it — together
//! with an optional [`ServiceQueue`], the paper's future-work queueing
//! model — owns the accounting (the per-cause [`DefenseLedger`], the
//! per-class admission-delay histograms, the queue's counters) and the
//! slip synthesis (a TC=1 response from the server's address). The
//! gate's caller (the simulator's delivery pipeline, or a live socket
//! loop in `dike-serve`) only obeys the returned [`GateAction`]; it
//! never interprets verdicts itself, so simulated and live servers
//! cannot drift in how defenses count.
//!
//! Determinism contract: with no gate installed the hot path costs one
//! branch (`gate_count == 0`) and the run is bit-identical to a
//! gate-free build; an installed defense must draw no RNG and derive
//! every decision from sim time, the source address, and its own
//! serializable configuration.

use dike_telemetry::{Histogram, MetricsRegistry};
use dike_wire::Message;

use crate::addr::Addr;
use crate::queueing::{QueueClass, QueueConfig, QueueOutcome, ServiceQueue, QUEUE_CLASSES};
use crate::time::{SimDuration, SimTime};

/// What the defense pipeline decided about one arriving query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressVerdict {
    /// No layer objected; hand the query onward (the gate's plain
    /// [`ServiceQueue`], if installed, still applies).
    Pass,
    /// The admission scheduler accepted the query into a class queue;
    /// deliver after this additional queueing delay. Bypasses any plain
    /// ingress queue — the defense's scheduler *is* the queue.
    Enqueue {
        /// Queueing delay before the query reaches the server.
        delay: SimDuration,
        /// The class whose queue it waited in (feeds the gate's
        /// per-class delay histograms).
        class: QueueClass,
    },
    /// The admission scheduler shed the query: its class's buffer was
    /// full (or the class is disabled). Counted per class.
    Shed(QueueClass),
    /// Rate-limited, silent drop (classic RRL `drop` action).
    RrlDrop,
    /// Rate-limited, but answer with a truncated TC=1 response (classic
    /// RRL `slip` action): honest clients retry or fail over, spoofed
    /// floods get nothing useful. The gate synthesizes the TC response;
    /// the query still never reaches the server node.
    RrlSlip,
}

/// A server-side defense pipeline installed in front of one ingress
/// address. Implementations must be deterministic: no RNG, no wall
/// clock, decisions purely from `(now, src, msg)` and internal state.
pub trait IngressDefense: Send {
    /// Evaluates one query that already cleared the loss filters.
    fn on_query(&mut self, now: SimTime, src: Addr, msg: &Message) -> IngressVerdict;

    /// Multiplies internal service capacity — the scale-out action
    /// adding replica capacity behind this ingress. Default no-op.
    fn scale_capacity(&mut self, _factor: f64) {}
}

/// Cumulative per-cause drop accounting for one gate (or, summed, for a
/// whole run). The auditor invariant holds per gate and in the sum:
/// `defense_drops == rrl_limited + shed_by_class.iter().sum()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefenseLedger {
    /// Queries the defense kept from its server, all causes.
    pub defense_drops: u64,
    /// Queries rate-limited by RRL, drop and slip actions alike.
    pub rrl_limited: u64,
    /// The subset of `rrl_limited` answered with a TC=1 slip response.
    pub rrl_slipped: u64,
    /// Queries shed by the admission scheduler, per class
    /// `[known, unknown, flagged]`.
    pub shed_by_class: [u64; QUEUE_CLASSES.len()],
    /// Queries that bypassed the defense entirely because they carried a
    /// valid RFC 7873 server cookie (return-routable source — see
    /// [`IngressGate::set_cookie_secret`]). Not a drop: these were
    /// delivered.
    pub cookie_exempt: u64,
}

impl DefenseLedger {
    /// Adds another ledger's counts into this one.
    pub fn merge(&mut self, other: &DefenseLedger) {
        self.defense_drops += other.defense_drops;
        self.rrl_limited += other.rrl_limited;
        self.rrl_slipped += other.rrl_slipped;
        for (a, b) in self.shed_by_class.iter_mut().zip(&other.shed_by_class) {
            *a += b;
        }
        self.cookie_exempt += other.cookie_exempt;
    }

    /// The telemetry counter [`DefenseLedger::cookie_exempt`] goes
    /// under. Left to the publisher because the two differ on when: the
    /// simulator's cut only once an exemption has fired (cookie-free runs
    /// keep their snapshot shape), the live server always.
    pub const COOKIE_EXEMPT_METRIC: &'static str = "cookie_exempt";

    /// Publishes the drop accounting, and `queue_delay` (indexed like
    /// [`QUEUE_CLASSES`]), as `component`'s run-wide metrics. Empty
    /// histograms are skipped so defense-free runs keep their snapshot
    /// shape.
    pub fn publish(
        &self,
        queue_delay: &[Histogram; QUEUE_CLASSES.len()],
        reg: &mut MetricsRegistry,
        component: &str,
    ) {
        reg.record_counter(component, None, "defense_drops", self.defense_drops);
        reg.record_counter(component, None, "rrl_limited", self.rrl_limited);
        reg.record_counter(component, None, "rrl_slipped", self.rrl_slipped);
        for class in QUEUE_CLASSES {
            let shed = self.shed_by_class[class.index()];
            reg.record_counter(component, None, class.shed_metric(), shed);
            let delay = &queue_delay[class.index()];
            if delay.count() > 0 {
                reg.record_histogram(component, None, class.queue_delay_metric(), delay);
            }
        }
    }

    /// Reads back what [`DefenseLedger::publish`] (and the publisher's
    /// `cookie_exempt` counter) last wrote under `component`; a counter
    /// never published reads as zero.
    pub fn from_registry(reg: &MetricsRegistry, component: &str) -> DefenseLedger {
        let counter = |name: &str| reg.counter_total(component, None, name).unwrap_or(0);
        DefenseLedger {
            defense_drops: counter("defense_drops"),
            rrl_limited: counter("rrl_limited"),
            rrl_slipped: counter("rrl_slipped"),
            shed_by_class: QUEUE_CLASSES.map(|class| counter(class.shed_metric())),
            cookie_exempt: counter(Self::COOKIE_EXEMPT_METRIC),
        }
    }

    /// Queries shed by the admission scheduler, all classes.
    pub fn shed(&self) -> u64 {
        self.shed_by_class.iter().sum()
    }
}

/// What the caller of [`IngressGate::on_query`] must do with the query.
/// All accounting already happened inside the gate; the caller only
/// moves (or stops) the datagram.
#[derive(Debug)]
pub enum GateAction {
    /// Hand the query to the server now.
    Deliver,
    /// A queue accepted it — the admission scheduler's or, failing
    /// that, the plain one: hand it over after this delay.
    DeliverAfter(SimDuration),
    /// The query stops here: refused by the defense or tail-dropped by
    /// the plain queue. If `slip` is set, send that synthesized TC=1
    /// response back to the source from the server's address.
    Drop {
        /// The RRL slip response to send, when the verdict was
        /// [`IngressVerdict::RrlSlip`].
        slip: Option<Message>,
    },
}

/// The one ingress stage in front of a server (DESIGN.md §5.6): an
/// optional [`IngressDefense`] and an optional plain [`ServiceQueue`],
/// plus the accounting of both — the [`DefenseLedger`], the per-class
/// admission-delay histograms, the queue's own counters — and the TC=1
/// slip synthesis. The simulator keeps one per gated address;
/// `dike-serve` runs one in front of each live socket. Both obey the
/// returned [`GateAction`] and never touch the counters, which is what
/// keeps simulated and live defense ledgers comparable
/// query-for-query. The default gate has neither stage and delivers
/// everything.
#[derive(Default)]
pub struct IngressGate {
    defense: Option<Box<dyn IngressDefense>>,
    queue: Option<ServiceQueue>,
    ledger: DefenseLedger,
    queue_delay: [Histogram; QUEUE_CLASSES.len()],
    /// RFC 7873 server-cookie secret. When set, a query carrying a full
    /// cookie that validates for its source address bypasses the defense
    /// entirely (the source is return-routable, so rate-limiting it
    /// defends against nothing), and slip responses complete the
    /// client's cookie so its next query is exempt.
    cookie_secret: Option<u64>,
}

impl IngressGate {
    /// A gate around `defense` with zeroed accounting.
    pub fn new(defense: Box<dyn IngressDefense>) -> Self {
        IngressGate {
            defense: Some(defense),
            ..IngressGate::default()
        }
    }

    /// Installs `defense`, or swaps it for the wrapped one. Everything
    /// the gate owns — ledger, delay histograms, cookie secret, queue —
    /// stays, so the accounting of a defended address is cumulative
    /// across engines.
    pub(crate) fn set_defense(&mut self, defense: Box<dyn IngressDefense>) {
        self.defense = Some(defense);
    }

    /// Installs a plain service queue behind the defense, or replaces
    /// the one there. A replacement starts idle under the new config
    /// but keeps its predecessor's counts, like the ledger does.
    pub(crate) fn set_queue(&mut self, config: QueueConfig) {
        let mut queue = ServiceQueue::new(config);
        if let Some(old) = &self.queue {
            queue.keep_counts_of(old);
        }
        self.queue = Some(queue);
    }

    /// The plain service queue, if one is installed.
    pub(crate) fn queue(&self) -> Option<&ServiceQueue> {
        self.queue.as_ref()
    }

    /// Mutable access to the plain service queue (e.g. for a flood
    /// fault to consume its capacity).
    pub fn queue_mut(&mut self) -> Option<&mut ServiceQueue> {
        self.queue.as_mut()
    }

    /// Sets or clears the RFC 7873 cookie-validation exemption: queries
    /// whose cookie validates under the secret for their source address
    /// skip the wrapped defense (counted in
    /// [`DefenseLedger::cookie_exempt`]).
    pub fn set_cookie_secret(&mut self, secret: Option<u64>) {
        self.cookie_secret = secret;
    }

    /// The configured cookie secret, if any.
    pub fn cookie_secret(&self) -> Option<u64> {
        self.cookie_secret
    }

    /// Runs one query through the gate's stages in order — the cookie
    /// exemption, the defense, the plain queue — does the accounting,
    /// and says what the caller must do with it.
    pub fn on_query(&mut self, now: SimTime, src: Addr, msg: &Message) -> GateAction {
        let exempt = !msg.is_response
            && self.cookie_secret.is_some_and(|secret| {
                dike_wire::cookie::cookie_of(msg)
                    .is_some_and(|c| dike_wire::cookie::validate(&c, src.0, secret))
            });
        if exempt {
            self.ledger.cookie_exempt += 1;
        }
        let verdict = match &mut self.defense {
            Some(defense) if !exempt => defense.on_query(now, src, msg),
            _ => IngressVerdict::Pass,
        };
        match verdict {
            // A query the defense passed (or never saw) waits in the
            // plain queue. That wait is the queue's, not an admission
            // class's, so it stays out of the delay histograms.
            IngressVerdict::Pass => match self.queue.as_mut().map(|q| q.offer(now)) {
                None => GateAction::Deliver,
                Some(QueueOutcome::Enqueued(delay)) => GateAction::DeliverAfter(delay),
                Some(QueueOutcome::Dropped) => GateAction::Drop { slip: None },
            },
            // The admission scheduler is the queue: the plain one is
            // skipped.
            IngressVerdict::Enqueue { delay, class } => {
                self.queue_delay[class.index()].observe(delay.as_nanos());
                GateAction::DeliverAfter(delay)
            }
            IngressVerdict::Shed(class) => {
                self.ledger.defense_drops += 1;
                self.ledger.shed_by_class[class.index()] += 1;
                GateAction::Drop { slip: None }
            }
            IngressVerdict::RrlDrop => {
                self.ledger.defense_drops += 1;
                self.ledger.rrl_limited += 1;
                GateAction::Drop { slip: None }
            }
            IngressVerdict::RrlSlip => {
                self.ledger.defense_drops += 1;
                self.ledger.rrl_limited += 1;
                self.ledger.rrl_slipped += 1;
                // The slip response: a minimal TC=1 answer telling honest
                // clients to retry or fail over. Synthesized here so the
                // sim and a live server send byte-identical slips.
                let mut resp = Message::response_to(msg);
                resp.truncated = true;
                // Echo the client's OPT — EDNS size, cookie, every other
                // option — so a fallback-capable client can tell the TCP
                // retry is sanctioned (RFC 6891 §6.1.1: respond with OPT
                // when the query carried one).
                if let Some(opt) = msg
                    .additionals
                    .iter()
                    .find(|r| r.rtype() == dike_wire::RecordType::OPT)
                {
                    resp.additionals.push(opt.clone());
                    // Holding the secret, complete the cookie: the slip
                    // doubles as the cookie handshake, and the client's
                    // *next* query bypasses RRL (RFC 7873 §5.2.3).
                    if let Some(secret) = self.cookie_secret {
                        dike_wire::cookie::complete(&mut resp, msg, src.0, secret);
                    }
                }
                GateAction::Drop { slip: Some(resp) }
            }
        }
    }

    /// This gate's cumulative drop accounting.
    pub fn ledger(&self) -> &DefenseLedger {
        &self.ledger
    }

    /// The per-class admission delays in nanoseconds, indexed like
    /// [`QUEUE_CLASSES`].
    pub fn queue_delays(&self) -> &[Histogram; QUEUE_CLASSES.len()] {
        &self.queue_delay
    }

    /// Multiplies the service capacity behind this ingress — scale-out
    /// adding replicas: the plain queue's rate and the defense's.
    pub fn scale_capacity(&mut self, factor: f64) {
        if let Some(queue) = &mut self.queue {
            queue.scale_capacity(factor);
        }
        if let Some(defense) = &mut self.defense {
            defense.scale_capacity(factor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_wire::{Name, RecordType};

    /// Scripted defense: returns a fixed verdict sequence.
    struct Script(Vec<IngressVerdict>);
    impl IngressDefense for Script {
        fn on_query(&mut self, _now: SimTime, _src: Addr, _msg: &Message) -> IngressVerdict {
            self.0.remove(0)
        }
    }

    fn query() -> Message {
        Message::query(9, Name::parse("q.nl").unwrap(), RecordType::A)
    }

    #[test]
    fn gate_accounts_every_verdict_and_holds_the_invariant() {
        let mut gate = IngressGate::new(Box::new(Script(vec![
            IngressVerdict::Pass,
            IngressVerdict::Enqueue {
                delay: SimDuration::from_millis(3),
                class: QueueClass::Known,
            },
            IngressVerdict::Shed(QueueClass::Flagged),
            IngressVerdict::RrlDrop,
            IngressVerdict::RrlSlip,
        ])));
        let q = query();
        let src = Addr(0x0a00_0002);
        let mut actions = Vec::new();
        for _ in 0..5 {
            actions.push(gate.on_query(SimTime::ZERO, src, &q));
        }
        assert!(matches!(actions[0], GateAction::Deliver));
        assert!(
            matches!(actions[1], GateAction::DeliverAfter(d) if d == SimDuration::from_millis(3))
        );
        assert!(matches!(actions[2], GateAction::Drop { slip: None }));
        assert!(matches!(actions[3], GateAction::Drop { slip: None }));
        let GateAction::Drop { slip: Some(slip) } = &actions[4] else {
            panic!("slip verdict must carry a response");
        };
        assert!(slip.truncated && slip.is_response && slip.id == 9);

        let l = gate.ledger();
        assert_eq!(l.defense_drops, 3);
        assert_eq!(l.rrl_limited, 2);
        assert_eq!(l.rrl_slipped, 1);
        assert_eq!(l.shed_by_class, [0, 0, 1]);
        assert_eq!(
            l.defense_drops,
            l.rrl_limited + l.shed_by_class.iter().sum::<u64>()
        );
        let delays = gate.queue_delays();
        assert_eq!(delays[QueueClass::Known.index()].count(), 1);
        assert_eq!(delays[QueueClass::Unknown.index()].count(), 0);
    }

    #[test]
    fn ledger_merge_sums_fields() {
        let a = DefenseLedger {
            defense_drops: 3,
            rrl_limited: 2,
            rrl_slipped: 1,
            shed_by_class: [1, 0, 0],
            cookie_exempt: 5,
        };
        let mut b = DefenseLedger::default();
        b.merge(&a);
        b.merge(&a);
        assert_eq!(b.defense_drops, 6);
        assert_eq!(b.rrl_limited, 4);
        assert_eq!(b.rrl_slipped, 2);
        assert_eq!(b.shed_by_class, [2, 0, 0]);
        assert_eq!(b.cookie_exempt, 10);
    }

    #[test]
    fn valid_cookie_bypasses_the_defense_entirely() {
        use dike_wire::cookie;

        const SECRET: u64 = 0x5eed;
        let src = Addr(0x0a00_0007);
        // A defense that would drop everything.
        let mut gate = IngressGate::new(Box::new(Script(vec![IngressVerdict::RrlDrop; 3])));
        gate.set_cookie_secret(Some(SECRET));

        // Full, valid cookie: exempt — the scripted RrlDrop is never
        // consulted.
        let mut exempt = query().with_edns(1232);
        let client = cookie::client_cookie_for(src.0, 0x0a00_0001);
        let full = cookie::Cookie {
            client,
            server: Some(cookie::server_cookie(&client, src.0, SECRET).to_vec()),
        };
        cookie::set_cookie(&mut exempt, 1232, &full);
        assert!(matches!(
            gate.on_query(SimTime::ZERO, src, &exempt),
            GateAction::Deliver
        ));
        assert_eq!(gate.ledger().cookie_exempt, 1);
        assert_eq!(gate.ledger().defense_drops, 0);

        // Client-only cookie: not return-routable proof, defense applies.
        let mut first_contact = query().with_edns(1232);
        cookie::set_cookie(
            &mut first_contact,
            1232,
            &cookie::Cookie::client_only(client),
        );
        assert!(matches!(
            gate.on_query(SimTime::ZERO, src, &first_contact),
            GateAction::Drop { slip: None }
        ));

        // Valid cookie from the *wrong* source address: spoofed, defense
        // applies.
        assert!(matches!(
            gate.on_query(SimTime::ZERO, Addr(0x0a00_0008), &exempt),
            GateAction::Drop { slip: None }
        ));
        assert_eq!(gate.ledger().cookie_exempt, 1);
        assert_eq!(gate.ledger().defense_drops, 2);
    }

    #[test]
    fn slip_echoes_the_clients_opt_and_completes_the_cookie() {
        use dike_wire::cookie;

        const SECRET: u64 = 0x1414;
        let src = Addr(0x0a00_0009);
        let mut gate = IngressGate::new(Box::new(Script(vec![IngressVerdict::RrlSlip])));
        gate.set_cookie_secret(Some(SECRET));

        let mut q = Message::query(
            0x1414,
            Name::parse("1414.cachetest.nl").unwrap(),
            RecordType::AAAA,
        )
        .with_edns(1232);
        let client = cookie::client_cookie_for(src.0, 0x0a00_0001);
        cookie::set_cookie(&mut q, 1232, &cookie::Cookie::client_only(client));

        let GateAction::Drop { slip: Some(slip) } = gate.on_query(SimTime::ZERO, src, &q) else {
            panic!("slip verdict must carry a response");
        };
        assert!(slip.truncated && slip.is_response);
        assert_eq!(
            slip.edns_payload_size(),
            Some(1232),
            "slip echoes the client's advertised payload size"
        );
        let echoed = cookie::cookie_of(&slip).expect("slip carries the cookie");
        assert_eq!(echoed.client, client);
        assert!(
            cookie::validate(&echoed, src.0, SECRET),
            "the slip completes the cookie so the next query is exempt"
        );

        // Regression pin: the slip's exact wire bytes. The sim and a live
        // server synthesize slips through this one code path; these bytes
        // are what a resolver's TCP-fallback (and cookie learning) logic
        // keys off, so they must not drift silently.
        let wire = dike_wire::codec::encode(&slip).unwrap();
        let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            // id=1414 · QR|TC|RD · one question (1414.cachetest.nl AAAA)
            // · OPT size=1232 · COOKIE option: 8B client + 8B server.
            "141483000001000000000001043134313409636163686574657374026e6c00001c000100002904d0\
             000000000014000a0010cab79114c96e2ed259fc40d5765e3f00"
        );
    }
}

//! Hostile-input tests: the resolver must ignore spoofed, mismatched and
//! out-of-bailiwick responses, and survive garbage without panicking.

use std::sync::Arc;

use dike_telemetry::sync::Mutex;

use dike_netsim::{
    Addr, Context, LatencyModel, LinkParams, LinkTable, Node, SimDuration, Simulator, TimerToken,
};
use dike_resolver::{profiles, RecursiveResolver};
use dike_wire::{Message, MessageBuilder, Name, RData, Rcode, Record, RecordType};

fn name(s: &str) -> Name {
    Name::parse(s).unwrap()
}

/// A spoofing attacker: it watches nothing (off-path), it just floods
/// the resolver with forged responses claiming to answer the victim
/// name from a *wrong* source address and with guessed ids.
struct OffPathSpoofer {
    resolver: Addr,
    victim: Name,
}

impl Node for OffPathSpoofer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_millis(500), TimerToken(0));
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, _msg: &Message, _l: usize) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
        // Forge a burst of responses with sweeping ids.
        for id in 0..64u16 {
            let q = Message::iterative_query(id, self.victim.clone(), RecordType::AAAA);
            let forged = MessageBuilder::respond_to(&q)
                .authoritative()
                .answer(Record::new(
                    self.victim.clone(),
                    86_400,
                    RData::Aaaa(std::net::Ipv6Addr::new(0xdead, 0, 0, 0, 0, 0, 0, 0xbeef)),
                ))
                .build();
            ctx.send(self.resolver, &forged);
        }
        ctx.set_timer(SimDuration::from_millis(100), TimerToken(0));
    }
}

/// The client under test.
struct Client {
    resolver: Addr,
    victim: Name,
    answer: Arc<Mutex<Option<RData>>>,
}

impl Node for Client {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs(2), TimerToken(0));
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, msg: &Message, _l: usize) {
        if msg.is_response && msg.rcode == Rcode::NoError {
            if let Some(r) = msg.answers.first() {
                *self.answer.lock() = Some(r.rdata.clone());
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
        ctx.send(
            self.resolver,
            &Message::query(9, self.victim.clone(), RecordType::AAAA),
        );
    }
}

#[test]
fn off_path_spoofing_is_ignored() {
    let mut sim = Simulator::new(66);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(8)),
        loss: 0.0,
    });
    let (root, _, _) = dike_experiments::topology::add_hierarchy(&mut sim, 3600);
    let (_, resolver) = sim.add_node(Box::new(RecursiveResolver::new(profiles::unbound_like(
        vec![root],
    ))));
    let victim = name("77.cachetest.nl");
    sim.add_node(Box::new(OffPathSpoofer {
        resolver,
        victim: victim.clone(),
    }));
    let answer = Arc::new(Mutex::new(None));
    sim.add_node(Box::new(Client {
        resolver,
        victim,
        answer: answer.clone(),
    }));
    sim.run_until(SimDuration::from_secs(30).after_zero());

    // The client got the *real* answer (the cachetest payload prefix),
    // not the attacker's dead:beef record, despite thousands of forgeries.
    let got = answer.lock().clone().expect("client answered");
    match got {
        RData::Aaaa(a) => {
            assert_eq!(
                a.segments()[0],
                0xfd0f,
                "answer must carry the genuine zone payload, got {a}"
            );
        }
        other => panic!("expected AAAA, got {other:?}"),
    }
}

/// A poisoning authoritative: answers correctly but stuffs an
/// out-of-bailiwick "extra" NS + glue for a zone it does not own.
struct PoisoningAuth {
    victim_zone: Name,
}

impl Node for PoisoningAuth {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _l: usize) {
        if msg.is_response {
            return;
        }
        // Answer whatever was asked with a referral that tries to claim
        // authority over an unrelated zone (classic Kashpureff-style
        // poisoning).
        let mut b = MessageBuilder::respond_to(msg);
        b = b.authority(Record::new(
            self.victim_zone.clone(),
            86_400,
            RData::Ns(name("evil.attacker.example")),
        ));
        b = b.additional(Record::new(
            name("evil.attacker.example"),
            86_400,
            RData::A(std::net::Ipv4Addr::new(6, 6, 6, 6)),
        ));
        ctx.send(src, &b.build());
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _t: TimerToken) {}
}

#[test]
fn out_of_bailiwick_referrals_are_rejected() {
    // The resolver asks the poisoner (configured as its only root) about
    // a name under cachetest.nl; the poisoner's referral claims authority
    // over a zone that does NOT contain the query name. The resolver must
    // not follow it (and must not cache it as a delegation).
    let mut sim = Simulator::new(67);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(5)),
        loss: 0.0,
    });
    let (_, poisoner) = sim.add_node(Box::new(PoisoningAuth {
        victim_zone: name("com"), // unrelated to cachetest.nl
    }));
    let (resolver_id, resolver) =
        sim.add_node(Box::new(RecursiveResolver::new(profiles::bind_like(vec![
            poisoner,
        ]))));
    let answer = Arc::new(Mutex::new(None));
    sim.add_node(Box::new(Client {
        resolver,
        victim: name("77.cachetest.nl"),
        answer: answer.clone(),
    }));
    sim.run_until(SimDuration::from_secs(60).after_zero());

    // No answer can exist (the poisoner never answers properly), and the
    // poisoned delegation must not have been followed.
    assert!(answer.lock().is_none(), "no forged answer accepted");
    let node = sim.node(resolver_id).unwrap();
    let r = node
        .as_any()
        .unwrap()
        .downcast_ref::<RecursiveResolver>()
        .unwrap();
    assert_eq!(r.stats().referrals, 0, "poisoned referral never followed");
    // The resolution failed cleanly instead of looping.
    assert!(r.stats().failures >= 1);
}

/// A hostile parent: refers every query into its child zone, but the
/// additional-section glue it attaches belongs to a name *no NS record
/// delegates to* — in bailiwick, yet unrelated to the delegation. A
/// resolver that adopts it is steered to an attacker address without a
/// single forged NS.
struct DecoyGlueAuth {
    /// The child zone the referral delegates (under this server's own
    /// zone, so bailiwick checks pass).
    child: Name,
    /// The in-bailiwick owner of the decoy glue (NOT an NS target).
    decoy: Name,
    /// Where the decoy glue points.
    attacker: Addr,
}

impl Node for DecoyGlueAuth {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _l: usize) {
        if msg.is_response {
            return;
        }
        let b = MessageBuilder::respond_to(msg)
            .authority(Record::new(
                self.child.clone(),
                3_600,
                RData::Ns(name("ns.elsewhere.example")),
            ))
            .additional(Record::new(
                self.decoy.clone(),
                3_600,
                RData::A(std::net::Ipv4Addr::from(self.attacker.0)),
            ));
        ctx.send(src, &b.build());
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _t: TimerToken) {}
}

/// An attacker endpoint that answers anything sent to it — reaching it
/// at all is the failure.
struct AnsweringAttacker {
    hits: Arc<Mutex<u64>>,
}

impl Node for AnsweringAttacker {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _l: usize) {
        if msg.is_response {
            return;
        }
        *self.hits.lock() += 1;
        let qname = msg.questions.first().map(|q| q.name.clone()).unwrap();
        let b = MessageBuilder::respond_to(msg)
            .authoritative()
            .answer(Record::new(
                qname,
                86_400,
                RData::A(std::net::Ipv4Addr::new(6, 6, 6, 6)),
            ));
        ctx.send(src, &b.build());
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _t: TimerToken) {}
}

#[test]
fn glue_not_matching_an_ns_target_never_steers_the_resolver() {
    // Regression: the glue filter used to require only in-bailiwick
    // ownership, so a referral could carry an unrelated in-bailiwick
    // A record and have the resolver adopt it as the child's address.
    let mut sim = Simulator::new(69);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(5)),
        loss: 0.0,
    });
    let hits = Arc::new(Mutex::new(0u64));
    let (_, attacker) = sim.add_node(Box::new(AnsweringAttacker { hits: hits.clone() }));
    let (_, parent) = sim.add_node(Box::new(DecoyGlueAuth {
        child: name("sub.cachetest.nl"),
        decoy: name("decoy.sub.cachetest.nl"),
        attacker,
    }));
    let (resolver_id, resolver) =
        sim.add_node(Box::new(RecursiveResolver::new(profiles::bind_like(vec![
            parent,
        ]))));
    let answer = Arc::new(Mutex::new(None));
    sim.add_node(Box::new(Client {
        resolver,
        victim: name("www.sub.cachetest.nl"),
        answer: answer.clone(),
    }));
    sim.run_until(SimDuration::from_secs(60).after_zero());

    // The decoy address was never contacted for the client question and
    // its planted answer never reached the client. (The NS target's own
    // infra A lookup may legitimately traverse the parent, but the task
    // must not be *steered* to the decoy address.)
    assert_eq!(*hits.lock(), 0, "decoy glue steered queries to attacker");
    assert!(answer.lock().is_none(), "no attacker answer accepted");
    let node = sim.node(resolver_id).unwrap();
    let r = node
        .as_any()
        .unwrap()
        .downcast_ref::<RecursiveResolver>()
        .unwrap();
    // The referral WAS followed (it is well-formed) — it just yields no
    // usable glue, so the task parks for glue and eventually fails.
    assert!(r.stats().referrals >= 1);
    assert!(r.stats().glue_wait_exhausted >= 1, "{:?}", r.stats());
}

/// A parent that always answers with the same permanently glueless
/// referral: the NS target lives under a zone that never resolves.
struct GluelessReferralAuth {
    child: Name,
    /// NS targets for the child, possibly listing duplicates.
    targets: Vec<Name>,
}

impl Node for GluelessReferralAuth {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _l: usize) {
        if msg.is_response {
            return;
        }
        let mut b = MessageBuilder::respond_to(msg);
        for t in &self.targets {
            b = b.authority(Record::new(self.child.clone(), 3_600, RData::Ns(t.clone())));
        }
        ctx.send(src, &b.build());
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _t: TimerToken) {}
}

#[test]
fn permanently_glueless_referral_fails_with_servfail_not_forever() {
    // Regression: a glueless referral whose NS names never resolve used
    // to loop park → re-ask parent → park, forever. The glue-wait budget
    // caps it: the task fails with SERVFAIL and the counter moves.
    let mut sim = Simulator::new(70);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(5)),
        loss: 0.0,
    });
    let (_, parent) = sim.add_node(Box::new(GluelessReferralAuth {
        child: name("sub.cachetest.nl"),
        targets: vec![name("ns.nowhere.example")],
    }));
    let (resolver_id, resolver) =
        sim.add_node(Box::new(RecursiveResolver::new(profiles::bind_like(vec![
            parent,
        ]))));
    let got_servfail = Arc::new(Mutex::new(false));
    struct ServfailClient {
        resolver: Addr,
        flag: Arc<Mutex<bool>>,
    }
    impl Node for ServfailClient {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_secs(1), TimerToken(0));
        }
        fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, msg: &Message, _l: usize) {
            if msg.is_response && msg.rcode == Rcode::ServFail {
                *self.flag.lock() = true;
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
            ctx.send(
                self.resolver,
                &Message::query(3, name("www.sub.cachetest.nl"), RecordType::A),
            );
        }
    }
    sim.add_node(Box::new(ServfailClient {
        resolver,
        flag: got_servfail.clone(),
    }));
    sim.run_until(SimDuration::from_secs(90).after_zero());

    let node = sim.node(resolver_id).unwrap();
    let r = node
        .as_any()
        .unwrap()
        .downcast_ref::<RecursiveResolver>()
        .unwrap();
    assert!(r.stats().glue_wait_exhausted >= 1, "{:?}", r.stats());
    assert!(r.stats().failures >= 1, "task failed cleanly");
    assert!(*got_servfail.lock(), "client saw SERVFAIL, not silence");
}

#[test]
fn duplicate_ns_names_in_a_referral_spawn_one_infra_fetch() {
    // A referral listing the same NS name twice must not double the
    // resolver's infrastructure fan-out (free amplification otherwise).
    let infra_for = |targets: Vec<Name>, seed: u64| {
        let mut sim = Simulator::new(seed);
        *sim.links_mut() = LinkTable::new(LinkParams {
            latency: LatencyModel::Fixed(SimDuration::from_millis(5)),
            loss: 0.0,
        });
        let (_, parent) = sim.add_node(Box::new(GluelessReferralAuth {
            child: name("sub.cachetest.nl"),
            targets,
        }));
        // bind-like: infra A only, so one unique NS name = one fetch.
        let (resolver_id, resolver) =
            sim.add_node(Box::new(RecursiveResolver::new(profiles::bind_like(vec![
                parent,
            ]))));
        let answer = Arc::new(Mutex::new(None));
        sim.add_node(Box::new(Client {
            resolver,
            victim: name("www.sub.cachetest.nl"),
            answer,
        }));
        sim.run_until(SimDuration::from_secs(30).after_zero());
        let node = sim.node(resolver_id).unwrap();
        node.as_any()
            .unwrap()
            .downcast_ref::<RecursiveResolver>()
            .unwrap()
            .stats()
            .infra_tasks
    };
    let once = infra_for(vec![name("ns.nowhere.example")], 71);
    let twice = infra_for(
        vec![name("ns.nowhere.example"), name("ns.nowhere.example")],
        71,
    );
    assert!(once >= 1, "glueless referral spawns the mandatory fetch");
    assert_eq!(twice, once, "duplicate NS names deduplicate");
}

/// Responses whose question section does not match the outstanding query
/// are dropped even when they come from the right server with the right
/// id (a confused or malicious server).
struct WrongQuestionAuth;

impl Node for WrongQuestionAuth {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _l: usize) {
        if msg.is_response {
            return;
        }
        // Echo the id but answer a *different* question.
        let mut resp = Message::query(msg.id, name("other.example"), RecordType::A);
        resp.is_response = true;
        resp.authoritative = true;
        resp.answers.push(Record::new(
            name("other.example"),
            60,
            RData::A(std::net::Ipv4Addr::new(6, 6, 6, 6)),
        ));
        ctx.send(src, &resp);
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _t: TimerToken) {}
}

#[test]
fn mismatched_question_is_dropped() {
    let mut sim = Simulator::new(68);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(5)),
        loss: 0.0,
    });
    let (_, bad_auth) = sim.add_node(Box::new(WrongQuestionAuth));
    let (resolver_id, resolver) =
        sim.add_node(Box::new(RecursiveResolver::new(profiles::bind_like(vec![
            bad_auth,
        ]))));
    let answer = Arc::new(Mutex::new(None));
    sim.add_node(Box::new(Client {
        resolver,
        victim: name("77.cachetest.nl"),
        answer: answer.clone(),
    }));
    sim.run_until(SimDuration::from_secs(60).after_zero());

    assert!(answer.lock().is_none(), "mismatched answers never accepted");
    let node = sim.node(resolver_id).unwrap();
    let r = node
        .as_any()
        .unwrap()
        .downcast_ref::<RecursiveResolver>()
        .unwrap();
    // Every attempt timed out (the "response" was discarded), so the
    // task burned its full retry budget.
    assert!(r.stats().retries >= 2, "{:?}", r.stats());
}

//! The NXNSAttack recursive-amplification experiment: packet
//! amplification through glueless out-of-bailiwick referrals, and the
//! MaxFetch(k) mitigation.
//!
//! The Dike paper's floods hit the authoritatives directly; NXNSAttack
//! (Afek, Bremler-Barr & Shafir) instead turns the *resolvers* into the
//! flood. A malicious zone answers each attack query with a referral
//! listing N glueless NS names hosted under a victim zone; the resolver
//! must fetch addresses for those names before it can proceed, so one
//! client query fans out into up to 2N infrastructure queries (A + AAAA
//! per NS name) against the victim's authoritative.
//!
//! The comparison arms bracket the mitigation space:
//!
//! * `undefended` — the paper-era resolver: the full 2N fan-out lands
//!   on the victim, amplification ≈ 2 × fan-out.
//! * `maxfetch-5` / `maxfetch-2` — the resolver caps NS-address fetches
//!   per referral at k, so the victim sees at most k queries per attack
//!   query no matter how wide the malicious referral is.
//!
//! Amplification is measured through the existing telemetry cut: the
//! victim authoritative's `queries` counter (nothing else in the world
//! queries the `victim` TLD) over the attack client's sent count.

use std::sync::Arc;

use dike_auth::NxnsZoneConfig;
use dike_netsim::{Addr, Context, Node, SimDuration, Simulator, TimerToken};
use dike_telemetry::sync::Mutex;
use dike_telemetry::TelemetryConfig;
use dike_wire::{Message, Name, Rcode, RecordType};

use crate::setup::{ExperimentOutput, ExperimentSetup};
use crate::sweep::{SweepAxis, SweepEngine};

/// The malicious TLD the attacker's zone is delegated as.
pub fn attack_origin() -> Name {
    Name::parse("attack").expect("static")
}

/// When the attack client sends its first query.
const START: SimDuration = SimDuration::from_mins(5);

/// The client's inter-query interval: 2 queries per second, timer-paced
/// (no RNG).
const INTERVAL: SimDuration = SimDuration::from_millis(500);

/// Total queries the client sends. Each targets a fresh delegation cut
/// (`w.s<q>.attack`), defeating both the referral cache and the failure
/// cache — a repeat name would amplify only once — so this stays within
/// [`NxnsZoneConfig::default`]'s cut count.
pub const NXNS_QUERIES: usize = 60;

/// What the attack client saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NxnsStats {
    /// Queries sent to the attack resolver.
    pub queries_sent: u64,
    /// Responses with any rcode but SERVFAIL.
    pub answers: u64,
    /// SERVFAIL responses (the expected outcome: the malicious NS names
    /// never resolve, so every task exhausts its glue-wait budget).
    pub servfails: u64,
}

/// The attack client: timer-paced queries for `w.s<q>.attack`, one
/// fresh cut per query. Deterministic — no RNG.
struct NxnsClient {
    resolver: Addr,
    origin: Name,
    cuts: usize,
    sent: usize,
    stats: Arc<Mutex<NxnsStats>>,
}

impl Node for NxnsClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(START, TimerToken(0));
    }

    fn on_datagram(&mut self, _ctx: &mut Context<'_>, src: Addr, msg: &Message, _len: usize) {
        if src != self.resolver || !msg.is_response {
            return;
        }
        let mut s = self.stats.lock();
        if msg.rcode == Rcode::ServFail {
            s.servfails += 1;
        } else {
            s.answers += 1;
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
        if self.sent >= NXNS_QUERIES {
            return;
        }
        let cut = self.sent % self.cuts.max(1);
        let qname = dike_auth::nxns::query_name(&self.origin, cut);
        ctx.send(
            self.resolver,
            &Message::query(self.sent as u16, qname, RecordType::A),
        );
        self.sent += 1;
        self.stats.lock().queries_sent += 1;
        ctx.set_timer(INTERVAL, TimerToken(0));
    }
}

/// Adds the attack client to a built world. Returns the shared tally;
/// callers unwrap it after the simulator is dropped.
pub(crate) fn install_nxns(
    sim: &mut Simulator,
    zone: &NxnsZoneConfig,
    resolver: Addr,
) -> Arc<Mutex<NxnsStats>> {
    let stats = Arc::new(Mutex::new(NxnsStats::default()));
    sim.add_node(Box::new(NxnsClient {
        resolver,
        origin: attack_origin(),
        cuts: zone.cuts,
        sent: 0,
        stats: stats.clone(),
    }));
    stats
}

// ---------------------------------------------------------------------
// The comparison grid
// ---------------------------------------------------------------------

/// The arms of the `repro nxns` grid: a label and the resolvers'
/// MaxFetch(k), `None` for uncapped.
const MAX_FETCH_ARMS: [(&str, Option<u32>); 3] = [
    ("undefended", None),
    ("maxfetch-5", Some(5)),
    ("maxfetch-2", Some(2)),
];

/// One row of the NXNS comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct NxnsRow {
    /// The attack client's tally.
    pub client: NxnsStats,
    /// Queries the victim authoritative received (the amplified load).
    pub victim_queries: u64,
    /// Queries the attacker's own authoritative received (referral
    /// serves plus glue-wait re-asks — the attacker's cost).
    pub attacker_queries: u64,
    /// Victim-received queries per client query.
    pub amplification: f64,
    /// Referrals whose fan-out the resolvers cut at MaxFetch(k).
    pub max_fetch_exceeded: u64,
    /// Tasks failed after exhausting their glue-wait budget.
    pub glue_wait_exhausted: u64,
}

/// The `repro nxns` grid: a small background population (so the
/// amplification rides through the standard world, not a bespoke rig)
/// plus the NXNS cast and telemetry every 10 minutes, one arm per
/// MaxFetch setting. The base is the undefended arm.
pub fn nxns_grid(scale: f64, seed: u64) -> SweepEngine {
    let n_probes = ((2_400.0 * scale).round() as usize).max(8);
    let base = ExperimentSetup {
        seed,
        round_interval: SimDuration::from_mins(10),
        rounds: 3,
        total_duration: SimDuration::from_mins(40),
        telemetry: Some(TelemetryConfig::every_mins(10)),
        nxns: Some(NxnsZoneConfig::default()),
        ..ExperimentSetup::new(n_probes, 1800)
    };
    SweepEngine::new(base).axis(SweepAxis::new(
        "arm",
        MAX_FETCH_ARMS.map(|(label, k)| {
            (label, move |s: &mut ExperimentSetup| {
                s.resolver_max_fetch = k;
            })
        }),
    ))
}

fn auth_queries(out: &ExperimentOutput, label: &str) -> u64 {
    let reg = out.metrics.as_ref().expect("the nxns grid sets telemetry");
    reg.node_labels()
        .filter(|(_, l)| *l == label)
        .map(|(id, _)| reg.counter_total("auth", Some(id), "queries").unwrap_or(0))
        .sum()
}

/// Derives a comparison row from a finished run.
pub fn nxns_row(out: &ExperimentOutput) -> NxnsRow {
    let reg = out.metrics.as_ref().expect("the nxns grid sets telemetry");
    let client = out.nxns.expect("nxns armed");
    let victim_queries = auth_queries(out, "auth:nxns-victim");
    NxnsRow {
        client,
        victim_queries,
        attacker_queries: auth_queries(out, "auth:nxns-attacker"),
        amplification: victim_queries as f64 / client.queries_sent.max(1) as f64,
        max_fetch_exceeded: reg.counter_sum("resolver", "max_fetch_exceeded"),
        glue_wait_exhausted: reg.counter_sum("resolver", "glue_wait_exhausted"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::run_experiment;

    #[test]
    fn arm_setups_are_internally_consistent() {
        let engine = nxns_grid(0.003, 7);
        for (i, (label, k)) in MAX_FETCH_ARMS.into_iter().enumerate() {
            assert_eq!(engine.coord_labels(i), [("arm".into(), label.into())]);
            let setup = engine.setup_for(i, 0);
            assert_eq!(setup.resolver_max_fetch, k);
            let zone = setup.nxns.expect("attack armed");
            assert!(NXNS_QUERIES <= zone.cuts, "fresh cut per query");
            assert!(setup.telemetry.is_some(), "amplification needs telemetry");
        }
    }

    /// Satellite: the amplification measurement is reproducible across
    /// two identical runs, monotone in the fan-out N, and the simulator
    /// audit stays clean with the NXNS cast installed.
    #[test]
    fn amplification_is_reproducible_monotone_and_audit_clean() {
        let run = |fanout: usize| {
            let mut setup = nxns_grid(0.003, 11).base;
            setup.audit = true;
            setup.nxns = Some(NxnsZoneConfig {
                fanout,
                ..NxnsZoneConfig::default()
            });
            let out = run_experiment(&setup);
            (
                auth_queries(&out, "auth:nxns-victim"),
                out.nxns.expect("client ran").queries_sent,
            )
        };
        let (v1, sent1) = run(4);
        let (v2, sent2) = run(4);
        assert_eq!((v1, sent1), (v2, sent2), "identical seeds, identical runs");
        assert_eq!(sent1, NXNS_QUERIES as u64);
        let (v3, _) = run(8);
        assert!(
            v3 > v1,
            "victim load grows with fan-out: {v3} (N=8) vs {v1} (N=4)"
        );
    }

    /// The acceptance contract at small scale: ≥10× measured
    /// amplification undefended at fan-out 20, and MaxFetch(k) bounding
    /// the victim's load to at most k queries per referral.
    #[test]
    fn nxns_comparison_meets_the_acceptance_contract() {
        let engine = nxns_grid(0.003, 11);
        let fanout = engine.base.nxns.expect("attack armed").fanout;
        let rows = engine.run_rows(|report| nxns_row(&report.output));
        let [undefended, k5, k2] = &rows[..] else {
            panic!("one row per arm: {rows:?}")
        };

        assert!(undefended.client.queries_sent > 0);
        assert!(
            undefended.amplification >= 10.0,
            "undefended amplification at fan-out {fanout}: {}",
            undefended.amplification
        );
        assert_eq!(undefended.max_fetch_exceeded, 0, "no cap, no counter");
        assert!(
            undefended.glue_wait_exhausted > 0,
            "malicious NS names never resolve, so tasks exhaust glue waits"
        );

        // MaxFetch(k) bounds the victim's load per referral — and the
        // client issued exactly one referral-drawing query per cut, so
        // the per-query bound is the per-referral bound.
        for (k, row) in [(5u64, k5), (2u64, k2)] {
            assert!(
                row.victim_queries <= k * row.client.queries_sent,
                "MaxFetch({k}) bound: {} victim queries for {} client queries",
                row.victim_queries,
                row.client.queries_sent
            );
            assert!(row.max_fetch_exceeded > 0, "the cap must fire");
        }
        assert!(
            k2.amplification < k5.amplification && k5.amplification < undefended.amplification,
            "amplification orders by k: {} < {} < {}",
            k2.amplification,
            k5.amplification,
            undefended.amplification
        );
    }

    /// The comparison rows do not depend on how many workers run the
    /// grid's arms.
    #[test]
    fn comparison_rows_are_identical_across_worker_counts() {
        let rows = |threads| {
            nxns_grid(0.003, 11)
                .threads(threads)
                .run_rows(|r| nxns_row(&r.output))
        };
        assert_eq!(rows(1), rows(0));
    }
}

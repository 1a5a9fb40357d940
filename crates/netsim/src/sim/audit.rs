//! The simulation invariant auditor.
//!
//! Fault injection makes it easy to write a plausible-looking scenario
//! that quietly corrupts the simulator's bookkeeping — a datagram that is
//! neither delivered nor counted dropped, a timer slot leaked across a
//! crash, a decode skipped on a rare path. The auditor turns those bugs
//! into loud failures: [`Simulator::audit`] cross-checks the counters
//! against the live event queue and reports every violated identity.
//!
//! The checked invariants (DESIGN.md §5.3):
//!
//! 1. **Datagram conservation** — every datagram ever sent is accounted
//!    for exactly once: `sent + xshard_in = delivered + dropped +
//!    no_route + undecodable + in_flight + xshard_out`, where *in
//!    flight* counts pending `Event::Deliver` entries still in the
//!    queue and the `xshard` terms (0 outside a sharded world, see
//!    [`crate::shard`]) account for datagrams crossing shard
//!    boundaries. (Pending `Event::DeliverQueued` entries passed the
//!    ingress filters and were already counted delivered.)
//! 2. **Decode-once** — every arrival is decoded exactly once:
//!    `decoded + undecodable + in_flight + xshard_out = sent + xshard_in`.
//! 3. **Timer hygiene** — no slot leaks: the number of allocated timer
//!    slots equals the number of pending `Event::Timer` entries (every
//!    slot is recycled exactly when its event pops, fired, cancelled, or
//!    crash-suppressed alike).
//! 4. **Liveness bookkeeping** — restarts never exceed crashes, and the
//!    per-node up/epoch vectors stay in step with the node registry.
//! 5. **Defense ledger** — defense drops are fully attributed by cause.
//! 6. **Connection conservation** — every TCP connection ever dialed is
//!    accounted for exactly once:
//!    `opened = closed + reset + live` (see [`crate::tcp`]), with
//!    refused SYNs a subset of resets.
//!
//! Auditing is pull-based and read-only: call it whenever you like (it is
//! O(queue length)), typically after a run drains. The chaos harness
//! (`tests/chaos.rs`) calls it after every random fault plan; experiments
//! honor the `DIKE_AUDIT=1` environment variable to assert a clean audit
//! at the end of every run.

use super::Simulator;
use crate::event::Event;

/// The result of one audit pass: the raw quantities each invariant was
/// computed from, plus a human-readable description of every violation.
/// An empty [`AuditReport::violations`] means all invariants hold.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Datagrams that entered the fabric.
    pub sent: u64,
    /// Datagrams this shard handed to another shard's ingress (always 0
    /// in a plain world). Conservation treats them as leaving this
    /// ledger; the sharded auditor ([`crate::shard::ShardedSim::audit`])
    /// checks they arrive exactly once on the owning shard.
    pub(crate) xshard_out: u64,
    /// Datagrams injected from other shards (always 0 in a plain world);
    /// they enter this ledger at injection, like a local send.
    pub(crate) xshard_in: u64,
    /// Datagrams handed past the ingress filters (includes queue drops,
    /// which are counted delivered at ingress and broken out separately).
    pub delivered: u64,
    /// Datagrams dropped by ambient loss, attack filters, degrades, or a
    /// downed destination.
    pub dropped: u64,
    /// Datagrams whose destination resolved to no node.
    pub no_route: u64,
    /// Payloads the codec rejected at ingress.
    pub undecodable: u64,
    /// Payloads decoded at ingress.
    pub decoded: u64,
    /// Pending `Event::Deliver` entries: sent but not yet arrived.
    pub in_flight: u64,
    /// Pending `Event::DeliverQueued` entries (already counted in
    /// `delivered`; reported for visibility).
    pub(crate) queued_deliveries: u64,
    /// Queries an ingress defense kept from its node (already counted in
    /// `delivered`, like queue drops; broken out here). Must equal the
    /// sum of the per-cause counters below — invariant 5.
    pub defense_drops: u64,
    /// RRL-limited queries (drop + slip actions).
    pub rrl_limited: u64,
    /// The subset of `rrl_limited` answered with a TC=1 slip.
    pub rrl_slipped: u64,
    /// Admission-scheduler sheds per class `[known, unknown, flagged]`.
    pub shed_by_class: [u64; 3],
    /// Scale-out provisioning actions that have fired (informational,
    /// like `queued_deliveries`; no invariant constrains it).
    pub scaleout_activations: u64,
    /// Cumulative TCP transport counters — invariant 6 checks
    /// `opened == closed + reset + live`.
    pub tcp: crate::tcp::TcpStats,
    /// TCP connections currently live (any state).
    pub tcp_live: u64,
    /// Pending TCP transport events (SYNs, deliveries, FINs, idle
    /// probes) in the queue; informational.
    pub(crate) pending_tcp: u64,
    /// Pending `Event::Timer` entries in the queue.
    pub(crate) pending_timers: u64,
    /// Timer slots currently allocated (granted and not yet recycled).
    pub(crate) allocated_timer_slots: u64,
    /// Crashes applied so far.
    pub node_crashes: u64,
    /// Restarts applied so far.
    pub node_restarts: u64,
    /// One line per violated invariant; empty when the audit is clean.
    pub violations: Vec<String>,
}

impl AuditReport {
    /// Whether every invariant held.
    pub(crate) fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with every violation if the audit is not clean. The chaos
    /// harness and `DIKE_AUDIT=1` experiment runs use this.
    ///
    /// # Panics
    /// Panics when [`AuditReport::violations`] is not empty.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "sim audit failed:\n  {}",
            self.violations.join("\n  ")
        );
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "audit: sent={} delivered={} dropped={} no_route={} undecodable={} \
             in_flight={} pending_timers={} slots={} crashes={} restarts={} -> {}",
            self.sent,
            self.delivered,
            self.dropped,
            self.no_route,
            self.undecodable,
            self.in_flight,
            self.pending_timers,
            self.allocated_timer_slots,
            self.node_crashes,
            self.node_restarts,
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} violation(s)", self.violations.len())
            }
        )
    }
}

impl Simulator {
    /// Cross-checks the simulator's counters against its live event queue
    /// and returns the findings. Read-only and callable at any point;
    /// most callers audit after a run drains (`run_until_idle`) or stops
    /// at its deadline.
    pub fn audit(&self) -> AuditReport {
        let world = &self.world;
        let net = &world.net;
        let ledger = world.defense_ledger();
        let (xshard_out, xshard_in) = world
            .shard
            .as_deref()
            .map_or((0, 0), |s| (s.xshard_out, s.xshard_in));
        let mut report = AuditReport {
            sent: net.datagrams_sent,
            xshard_out,
            xshard_in,
            delivered: net.datagrams_delivered,
            dropped: net.datagrams_dropped,
            no_route: net.datagrams_no_route,
            undecodable: net.datagrams_undecodable,
            decoded: net.datagrams_decoded,
            node_crashes: net.node_crashes,
            node_restarts: net.node_restarts,
            defense_drops: ledger.defense_drops,
            rrl_limited: ledger.rrl_limited,
            rrl_slipped: ledger.rrl_slipped,
            shed_by_class: ledger.shed_by_class,
            scaleout_activations: net.scaleout_activations,
            tcp: world.tcp.stats,
            tcp_live: world.tcp.live(),
            allocated_timer_slots: world.timers.allocated(),
            ..AuditReport::default()
        };

        for event in world.queue.iter() {
            match event {
                Event::Deliver(_) => report.in_flight += 1,
                Event::DeliverQueued { .. } => report.queued_deliveries += 1,
                Event::Timer { .. } => report.pending_timers += 1,
                Event::TcpSyn { .. }
                | Event::TcpOpen { .. }
                | Event::TcpMsg { .. }
                | Event::TcpFin { .. }
                | Event::TcpIdle { .. } => report.pending_tcp += 1,
                Event::NodeDown { .. } | Event::NodeUp { .. } | Event::Control(_) => {}
            }
        }

        // Cross-shard terms extend both identities symmetrically: what a
        // shard hands out (`xshard_out`) leaves its ledger, what it is
        // handed (`xshard_in`) enters it. Both are 0 in a plain world,
        // collapsing to the original formulas.
        let accounted = report.delivered
            + report.dropped
            + report.no_route
            + report.undecodable
            + report.in_flight
            + report.xshard_out;
        if report.sent + report.xshard_in != accounted {
            report.violations.push(format!(
                "datagram conservation: sent+xshard_in={} but delivered+dropped+no_route+undecodable+in_flight+xshard_out={}",
                report.sent + report.xshard_in, accounted
            ));
        }
        let decode_accounted =
            report.decoded + report.undecodable + report.in_flight + report.xshard_out;
        if report.sent + report.xshard_in != decode_accounted {
            report.violations.push(format!(
                "decode-once: sent+xshard_in={} but decoded+undecodable+in_flight+xshard_out={}",
                report.sent + report.xshard_in,
                decode_accounted
            ));
        }
        if report.allocated_timer_slots != report.pending_timers {
            report.violations.push(format!(
                "timer slot leak: {} slots allocated but {} timer events pending",
                report.allocated_timer_slots, report.pending_timers
            ));
        }
        if report.node_restarts > report.node_crashes {
            report.violations.push(format!(
                "liveness: {} restarts exceed {} crashes",
                report.node_restarts, report.node_crashes
            ));
        }
        let (nodes, ups, epochs) = (
            self.nodes.len(),
            world.nodes.up.len(),
            world.nodes.epoch.len(),
        );
        if ups != nodes || epochs != nodes {
            report.violations.push(format!(
                "liveness vectors out of step: {nodes} nodes but {ups} up-flags / {epochs} epochs"
            ));
        }
        // Invariant 5: defense drops stay inside the delivered ledger and
        // are fully attributed — every drop has exactly one cause (RRL or
        // a per-class shed), and slips are a subset of RRL limits.
        let defense_attributed = report.rrl_limited + report.shed_by_class.iter().sum::<u64>();
        if report.defense_drops != defense_attributed {
            report.violations.push(format!(
                "defense ledger: {} defense drops but rrl_limited+shed_by_class={}",
                report.defense_drops, defense_attributed
            ));
        }
        if report.rrl_slipped > report.rrl_limited {
            report.violations.push(format!(
                "defense ledger: {} slips exceed {} RRL-limited queries",
                report.rrl_slipped, report.rrl_limited
            ));
        }
        if report.defense_drops > report.delivered {
            report.violations.push(format!(
                "defense ledger: {} defense drops exceed {} delivered",
                report.defense_drops, report.delivered
            ));
        }
        // Invariant 6: connection conservation — every dialed connection
        // is closed, reset, or still live, exactly once.
        let conn_accounted = report.tcp.closed + report.tcp.reset + report.tcp_live;
        if report.tcp.opened != conn_accounted {
            report.violations.push(format!(
                "connection conservation: opened={} but closed+reset+live={}",
                report.tcp.opened, conn_accounted
            ));
        }
        if report.tcp.syn_refused > report.tcp.reset {
            report.violations.push(format!(
                "connection conservation: {} refused SYNs exceed {} resets",
                report.tcp.syn_refused, report.tcp.reset
            ));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use crate::link::{LatencyModel, LinkParams};
    use crate::node::{Context, Node, TimerToken};
    use crate::time::SimDuration;
    use crate::{Addr, LinkTable, Simulator};
    use dike_wire::{Message, Name, RecordType};

    struct Echo;
    impl Node for Echo {
        fn on_datagram(
            &mut self,
            ctx: &mut Context<'_>,
            src: Addr,
            msg: &Message,
            _wire_len: usize,
        ) {
            if !msg.is_response {
                let resp = Message::response_to(msg);
                ctx.send(src, &resp);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: TimerToken) {}
    }

    struct Chatter {
        target: Addr,
        remaining: u32,
    }
    impl Node for Chatter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(50), TimerToken(0));
        }
        fn on_datagram(
            &mut self,
            _ctx: &mut Context<'_>,
            _src: Addr,
            _msg: &Message,
            _wire_len: usize,
        ) {
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
            let q = Message::query(
                self.remaining as u16,
                Name::parse("x.nl").unwrap(),
                RecordType::A,
            );
            ctx.send(self.target, &q);
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.set_timer(SimDuration::from_millis(50), TimerToken(0));
            }
        }
    }

    fn lossy_sim(seed: u64, loss: f64) -> Simulator {
        let mut sim = Simulator::new(seed);
        *sim.links_mut() = LinkTable::new(LinkParams {
            latency: LatencyModel::Fixed(SimDuration::from_millis(10)),
            loss,
        });
        sim
    }

    #[test]
    fn clean_run_audits_clean() {
        let mut sim = lossy_sim(1, 0.0);
        let (_, echo) = sim.add_node(Box::new(Echo));
        sim.add_node(Box::new(Chatter {
            target: echo,
            remaining: 20,
        }));
        sim.run_until_idle();
        let report = sim.audit();
        report.assert_clean();
        assert_eq!(report.in_flight, 0);
        assert_eq!(report.pending_timers, 0);
        assert_eq!(report.allocated_timer_slots, 0);
    }

    #[test]
    fn lossy_run_conserves_datagrams() {
        let mut sim = lossy_sim(2, 0.4);
        let (_, echo) = sim.add_node(Box::new(Echo));
        sim.add_node(Box::new(Chatter {
            target: echo,
            remaining: 200,
        }));
        sim.run_until_idle();
        let report = sim.audit();
        report.assert_clean();
        assert!(report.dropped > 0, "40% loss should drop something");
    }

    #[test]
    fn mid_run_audit_counts_in_flight_and_timers() {
        let mut sim = lossy_sim(3, 0.0);
        let (_, echo) = sim.add_node(Box::new(Echo));
        sim.add_node(Box::new(Chatter {
            target: echo,
            remaining: 50,
        }));
        // Stop in the middle of the chatter: timers and datagrams pending.
        sim.run_until(SimDuration::from_millis(125).after_zero());
        let report = sim.audit();
        report.assert_clean();
        assert!(
            report.pending_timers > 0,
            "chatter keeps a timer armed: {report}"
        );
    }

    #[test]
    fn crashed_node_run_audits_clean() {
        let mut sim = lossy_sim(4, 0.0);
        let (echo_id, echo) = sim.add_node(Box::new(Echo));
        sim.add_node(Box::new(Chatter {
            target: echo,
            remaining: 100,
        }));
        sim.schedule_node_down(SimDuration::from_secs(1).after_zero(), echo_id);
        sim.schedule_node_up(SimDuration::from_secs(3).after_zero(), echo_id, true);
        sim.run_until_idle();
        let report = sim.audit();
        report.assert_clean();
        assert_eq!(report.node_crashes, 1);
        assert_eq!(report.node_restarts, 1);
        assert!(report.dropped > 0, "downtime must drop ingress: {report}");
    }
}

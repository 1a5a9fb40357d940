//! The telemetry publisher: attaching a registry, labelling nodes, and
//! cutting a snapshot of the simulator's counters and every node's
//! metrics at each sim-time boundary.

use dike_telemetry::{NodePublisher, SharedRegistry, TelemetryConfig};

use super::Simulator;
use crate::addr::{Addr, NodeId};
use crate::defense::DefenseLedger;
use crate::time::{SimDuration, SimTime};

/// Telemetry attachment: the shared registry plus the next sim-time
/// boundary at which a snapshot is due, `None` once the next would pass
/// the end of simulated time.
pub(super) struct Telemetry {
    registry: SharedRegistry,
    interval: SimDuration,
    pub(super) next_at: Option<SimTime>,
}

impl Simulator {
    /// Attaches a metrics registry. From now on the simulator cuts a
    /// snapshot of every registered metric each `config` interval of
    /// *simulated* time (plus one final snapshot when a run method
    /// returns), publishing its own event/datagram counters and calling
    /// [`crate::Node::publish_metrics`] on every node. Never driven by wall
    /// clock, so metric series are as deterministic as the run itself.
    ///
    /// # Panics
    /// On a zero snapshot interval, which would cut without end.
    pub fn attach_telemetry(&mut self, registry: SharedRegistry, config: TelemetryConfig) {
        assert!(
            config.snapshot_interval_nanos > 0,
            "telemetry snapshot interval is zero"
        );
        let interval = SimDuration::from_nanos(config.snapshot_interval_nanos);
        self.telemetry = Some(Telemetry {
            registry,
            interval,
            next_at: self.world.now.checked_add(interval),
        });
    }

    /// Attaches a human-readable label (e.g. `auth:ns1`) to a node in
    /// the telemetry registry. No-op unless telemetry is attached.
    pub(crate) fn label_node(&mut self, id: NodeId, label: &str) {
        if let Some(tel) = &self.telemetry {
            tel.registry.lock().set_node_label(id.0, label);
        }
    }

    /// Attaches a human-readable label (e.g. `auth:ns1`) to the node at
    /// `addr` in the telemetry registry. No-op unless telemetry is
    /// attached; ignores anycast VIPs and unknown addresses.
    pub fn label_addr(&mut self, addr: Addr, label: &str) {
        if let Some(id) = self.world.node_at(addr) {
            self.label_node(id, label);
        }
    }

    /// Closes a run out at `at`: every boundary still due, then one
    /// final snapshot labeled `at`.
    pub(super) fn cut_final_snapshots(&mut self, at: SimTime) {
        self.cut_due_snapshots(at);
        self.cut_snapshot(at);
    }

    /// Cuts snapshots at every due boundary `<= upto`.
    pub(super) fn cut_due_snapshots(&mut self, upto: SimTime) {
        loop {
            let next = self.telemetry.as_ref().and_then(|tel| tel.next_at);
            let Some(at) = next.filter(|&at| at <= upto) else {
                return;
            };
            self.cut_snapshot(at);
            let tel = self.telemetry.as_mut().expect("telemetry still attached");
            tel.next_at = at.checked_add(tel.interval);
        }
    }

    /// Publishes all counters and node metrics and cuts one snapshot
    /// labeled `at`. Duplicate boundaries collapse in the registry.
    fn cut_snapshot(&mut self, at: SimTime) {
        let Some(tel) = &self.telemetry else { return };
        let mut reg = tel.registry.lock();
        let net = &self.world.net;
        reg.record_counter("netsim", None, "events_popped", net.events_popped);
        reg.record_counter("netsim", None, "timers_fired", net.timers_fired);
        reg.record_counter("netsim", None, "timers_cancelled", net.timers_cancelled);
        reg.record_counter("netsim", None, "control_events", net.control_events);
        reg.record_counter("netsim", None, "datagrams_sent", net.datagrams_sent);
        reg.record_counter(
            "netsim",
            None,
            "datagrams_delivered",
            net.datagrams_delivered,
        );
        reg.record_counter("netsim", None, "datagrams_dropped", net.datagrams_dropped);
        reg.record_counter("netsim", None, "datagrams_no_route", net.datagrams_no_route);
        reg.record_counter("netsim", None, "datagrams_decoded", net.datagrams_decoded);
        reg.record_counter(
            "netsim",
            None,
            "datagrams_undecodable",
            net.datagrams_undecodable,
        );
        reg.record_counter("netsim", None, "bytes_encoded", net.bytes_encoded);
        reg.record_counter("netsim", None, "bytes_decoded", net.bytes_decoded);
        // Plain-queue tail drops are the gates' queues' own counts.
        let gates = self.world.gates.iter().flatten();
        let queue_drops = gates.filter_map(|g| g.queue()).map(|q| q.dropped()).sum();
        reg.record_counter("netsim", None, "queue_drops", queue_drops);
        reg.record_counter("netsim", None, "node_crashes", net.node_crashes);
        reg.record_counter("netsim", None, "node_restarts", net.node_restarts);
        reg.record_counter(
            "netsim",
            None,
            "datagrams_dropped_node_down",
            net.datagrams_dropped_node_down,
        );
        reg.record_counter(
            "netsim",
            None,
            "datagrams_dropped_degrade",
            net.datagrams_dropped_degrade,
        );
        reg.record_counter(
            "netsim",
            None,
            "timers_suppressed_crash",
            net.timers_suppressed_crash,
        );
        // Defense accounting lives in the gates, not in NetStats: sum it
        // at the snapshot boundary.
        let ledger = self.world.defense_ledger();
        ledger.publish(&self.world.defense_queue_delays(), &mut reg, "netsim");
        if ledger.cookie_exempt > 0 {
            reg.record_counter(
                "netsim",
                None,
                DefenseLedger::COOKIE_EXEMPT_METRIC,
                ledger.cookie_exempt,
            );
        }
        reg.record_counter(
            "netsim",
            None,
            "scaleout_activations",
            net.scaleout_activations,
        );
        // TCP transport counters: published only when the run actually
        // has TCP (a listener or a dial), so UDP-only runs keep their
        // exact snapshot shape.
        if self.world.tcp.active() {
            let tcp = &self.world.tcp.stats;
            reg.record_counter("netsim", None, "tcp_conns_opened", tcp.opened);
            reg.record_counter("netsim", None, "tcp_conns_closed", tcp.closed);
            reg.record_counter("netsim", None, "tcp_conns_reset", tcp.reset);
            reg.record_counter("netsim", None, "tcp_syn_refused", tcp.syn_refused);
            reg.record_counter("netsim", None, "tcp_messages", tcp.messages);
            reg.record_high_water(
                "netsim",
                None,
                "tcp_conns_live_high_water",
                tcp.live_high_water as f64,
            );
        }
        reg.record_high_water(
            "netsim",
            None,
            "event_queue_depth_high_water",
            net.queue_depth_high_water as f64,
        );
        for idx in 0..self.world.nodes.len() {
            let offered = self.world.nodes.offered[idx];
            if offered == 0 {
                continue;
            }
            let id = Some(idx as u32);
            reg.record_counter("netsim", id, "datagrams_offered", offered);
            reg.record_counter(
                "netsim",
                id,
                "datagrams_delivered",
                self.world.nodes.delivered[idx],
            );
            reg.record_counter(
                "netsim",
                id,
                "datagrams_dropped",
                self.world.nodes.dropped[idx],
            );
            // Ingress-queue statistics for the node's unicast address
            // (gates are keyed by address, dense like nodes).
            let gate = self.world.gates.get(idx).and_then(Option::as_ref);
            if let Some(q) = gate.and_then(|g| g.queue()) {
                reg.record_counter("netsim", id, "queue_accepted", q.accepted());
                reg.record_counter("netsim", id, "queue_dropped", q.dropped());
                reg.record_high_water("netsim", id, "queue_peak_backlog", q.peak_backlog() as f64);
            }
        }
        for (idx, slot) in self.nodes.iter().enumerate() {
            if let Some(node) = slot {
                node.publish_metrics(&mut NodePublisher::new(&mut reg, idx as u32));
            }
        }
        reg.snapshot(at.as_nanos());
    }
}

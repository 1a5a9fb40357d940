//! The ingress stages in front of a node: the per-address table of
//! ingress gates, and [`Simulator::deliver`], which walks one arriving
//! datagram through them — routing, the loss filters, decode, the gate
//! (defense, then service queue) — and hands what survives to its node.

use std::ops::Deref;
use std::sync::Arc;

use dike_telemetry::Histogram;
use dike_wire::Message;

use super::{rng_stream, Simulator, World};
use crate::addr::Addr;
use crate::datagram::Datagram;
use crate::defense::{DefenseLedger, GateAction, IngressDefense, IngressGate};
use crate::event::Event;
use crate::queueing::QueueConfig;
use crate::time::SimDuration;
use crate::trace::Disposition;

/// An arrival's decoded message: a one-shot payload's own, or the
/// sender's shared decode of a payload it resends.
enum Decoded {
    Owned(Message),
    Shared(Arc<Message>),
}

impl Deref for Decoded {
    type Target = Message;

    fn deref(&self) -> &Message {
        match self {
            Decoded::Owned(msg) => msg,
            Decoded::Shared(msg) => msg,
        }
    }
}

impl Decoded {
    /// The message behind an `Arc`, for a wait in the ingress gate: one
    /// allocation for a one-shot payload, as boxing it was, and none for
    /// a shared one.
    fn into_shared(self) -> Arc<Message> {
        match self {
            Decoded::Owned(msg) => Arc::new(msg),
            Decoded::Shared(msg) => msg,
        }
    }
}

impl World {
    /// Decodes an arriving payload, or reuses its decode. Only a sender
    /// that keeps its bytes can resend them, so a payload that is not
    /// shared (`strong_count == 1`) decodes as it always did, with no
    /// extra allocation. A shared one is looked up by sender: when it is
    /// the very allocation the sender's last shared arrival carried,
    /// that arrival's message is reused; otherwise it is decoded and
    /// remembered in the sender's place. `None` when the codec rejects
    /// it (a rejection is not remembered).
    fn decode(&mut self, dgram: &Datagram) -> Option<Decoded> {
        let shared = Arc::strong_count(&dgram.payload) > 1;
        if shared {
            if let Some((bytes, msg)) = self.resent.get(&dgram.src) {
                if Arc::ptr_eq(bytes, &dgram.payload) {
                    return Some(Decoded::Shared(Arc::clone(msg)));
                }
            }
        }
        self.net.decode_calls += 1;
        let msg = dgram.message().ok()?;
        if !shared {
            return Some(Decoded::Owned(msg));
        }
        let msg = Arc::new(msg);
        self.resent
            .insert(dgram.src, (Arc::clone(&dgram.payload), Arc::clone(&msg)));
        Some(Decoded::Shared(msg))
    }

    /// The gate at `addr`, installed empty on first use.
    fn gate_entry(&mut self, addr: Addr) -> Option<&mut IngressGate> {
        let Some(idx) = self.unicast_index(addr) else {
            debug_assert!(false, "ingress gate on non-unicast address {addr}");
            return None;
        };
        if idx >= self.gates.len() {
            self.gates.resize_with(idx + 1, || None);
        }
        let slot = &mut self.gates[idx];
        if slot.is_none() {
            self.gate_count += 1;
        }
        Some(slot.get_or_insert_with(IngressGate::default))
    }

    /// Installs (or replaces) the service queue in the ingress gate in
    /// front of `addr` — the paper's future-work queueing model (see
    /// [`crate::queueing`]). A replacement keeps the old queue's counts.
    pub fn set_ingress_queue(&mut self, addr: Addr, config: QueueConfig) {
        if let Some(gate) = self.gate_entry(addr) {
            gate.set_queue(config);
        }
    }

    /// Installs an ingress defense pipeline in front of `addr` (see
    /// [`crate::defense`]). Typically called from a control event
    /// scheduled by a `dike-defense` `DefensePlan`. On an address that
    /// is already defended this swaps the engine inside the installed
    /// gate: its ledger, delay histograms, cookie secret and queue stay,
    /// so run totals — and the conservation audit — survive a
    /// replacement.
    pub fn set_ingress_defense(&mut self, addr: Addr, defense: Box<dyn IngressDefense>) {
        if let Some(gate) = self.gate_entry(addr) {
            gate.set_defense(defense);
        }
    }

    /// Sets (or clears) the RFC 7873 cookie-exemption secret on the
    /// gate installed at `addr` (see [`IngressGate::set_cookie_secret`]).
    /// Debug-asserts when no gate is installed — defense plans install
    /// engines before secrets.
    pub fn set_ingress_cookie_secret(&mut self, addr: Addr, secret: Option<u64>) {
        match self.gate_mut(addr) {
            Some(gate) => gate.set_cookie_secret(secret),
            None => debug_assert!(false, "cookie secret on ungated address {addr}"),
        }
    }

    /// Mutable access to an installed ingress gate (e.g. for a flood
    /// fault to consume its queue's capacity, or scale-out to grow it).
    pub fn gate_mut(&mut self, addr: Addr) -> Option<&mut IngressGate> {
        self.unicast_index(addr)
            .and_then(|i| self.gates.get_mut(i))
            .and_then(|slot| slot.as_mut())
    }

    /// Run-wide defense drop accounting: the sum of every gate's ledger.
    pub fn defense_ledger(&self) -> DefenseLedger {
        let mut total = DefenseLedger::default();
        for gate in self.gates.iter().flatten() {
            total.merge(gate.ledger());
        }
        total
    }

    /// Run-wide per-class admission-delay histograms (nanoseconds),
    /// merged across gates; indexed like [`crate::queueing::QUEUE_CLASSES`].
    pub(crate) fn defense_queue_delays(&self) -> [Histogram; 3] {
        let mut merged: [Histogram; 3] = Default::default();
        for gate in self.gates.iter().flatten() {
            for (mine, theirs) in merged.iter_mut().zip(gate.queue_delays()) {
                mine.merge(theirs);
            }
        }
        merged
    }

    /// Records one scale-out activation (replica capacity provisioned);
    /// called by the defense layer's detection-delay control event.
    pub fn note_scaleout_activation(&mut self) {
        self.net.scaleout_activations += 1;
    }
}

impl Simulator {
    pub(super) fn deliver(&mut self, dgram: Datagram) {
        let wire_len = dgram.wire_len();

        // Anycast resolves to a member site first; the attack filter of
        // that *site* (its unicast address) then applies, so a DDoS can
        // take down one catchment while others stay clean (paper §8).
        let (dest, site_filter_addr) = match self.world.anycast.catchment(dgram.dst, dgram.src) {
            Some(member) => (Some(member), Some(self.world.addr_of(member))),
            None => (self.world.node_at(dgram.dst), None),
        };

        // A crashed destination drops everything at its ingress. Checked
        // before the loss filters and without drawing randomness, so a
        // fault plan that never fires leaves the RNG stream — and hence
        // the fixed-seed digest — untouched.
        let node_down = dest.is_some_and(|id| !self.world.nodes.up[id.0 as usize]);

        // Ingress loss (ambient + attack + bursty degrade) is evaluated at
        // arrival, which matches filtering in front of the target and lets
        // filters that start mid-flight affect packets already "in the
        // air".
        let (ambient_drop, attack_drop, degrade_drop) = if node_down {
            (false, false, false)
        } else {
            // Arrival-side randomness comes from the destination's
            // stream, so in a sharded world the draw order is the node's
            // own arrival order.
            let World {
                links,
                rng,
                shard,
                first_addr,
                ..
            } = &mut self.world;
            let idx = dgram.dst.0.wrapping_sub(*first_addr) as usize;
            let rng = rng_stream(shard, rng, idx);
            let params = links.params(dgram.src, dgram.dst);
            let ambient = params.loss > 0.0 && rng.random_bool(params.loss.clamp(0.0, 1.0));
            let mut attack = links.ingress_loss(dgram.dst);
            if let Some(site) = site_filter_addr {
                attack = attack.max(links.ingress_loss(site));
            }
            let attack = attack > 0.0 && rng.random_bool(attack);
            // Gilbert–Elliott degrade: its state chain advances per
            // arrival at the degraded address (RNG is drawn only while a
            // degrade is installed there). Like the attack filter, an
            // anycast delivery consults both the VIP and the member site.
            let mut degrade = links.degrade_drop(dgram.dst, rng);
            if let Some(site) = site_filter_addr {
                degrade |= links.degrade_drop(site, rng);
            }
            (ambient, attack, degrade)
        };

        // Decode once, at ingress; sinks, the ingress gate, and the
        // destination node all reuse this one Message (decode-once
        // invariant, DESIGN.md §5.2), and a sender's resent payload is
        // decoded once for all its arrivals. A payload our own codec
        // rejects is counted and dropped rather than aborting the run —
        // one bad packet must not kill a sweep arm.
        let msg = self.world.decode(&dgram);
        if msg.is_some() {
            self.world.net.datagrams_decoded += 1;
            self.world.net.bytes_decoded += wire_len as u64;
        }

        let disposition = if msg.is_none() {
            Disposition::Malformed
        } else if dest.is_none() {
            Disposition::NoRoute
        } else if node_down || ambient_drop || attack_drop || degrade_drop {
            Disposition::Dropped
        } else {
            Disposition::Delivered
        };
        self.world
            .observe(dgram.src, dgram.dst, msg.as_deref(), wire_len, disposition);
        if let Some(id) = dest {
            if disposition != Disposition::Malformed {
                // Offered counts before the loss filters — the same ingress
                // accounting the trace sinks use for the paper's server view.
                self.world.nodes.offered[id.0 as usize] += 1;
            }
        }
        match disposition {
            Disposition::Malformed => self.world.net.datagrams_undecodable += 1,
            Disposition::NoRoute => self.world.net.datagrams_no_route += 1,
            Disposition::Dropped => {
                self.world.net.datagrams_dropped += 1;
                if node_down {
                    self.world.net.datagrams_dropped_node_down += 1;
                } else if degrade_drop {
                    self.world.net.datagrams_dropped_degrade += 1;
                }
                if let Some(id) = dest {
                    self.world.nodes.dropped[id.0 as usize] += 1;
                }
            }
            Disposition::Delivered => self.world.net.datagrams_delivered += 1,
        }

        if disposition != Disposition::Delivered {
            return;
        }
        let msg = msg.expect("delivered implies decoded");
        let id = dest.expect("delivered implies destination exists");
        // Anycast deliveries run the node with the VIP as its local
        // address, so replies naturally come from the anycast address —
        // like a real anycast site answering from the shared prefix.
        let local = if site_filter_addr.is_some() {
            dgram.dst
        } else {
            self.world.addr_of(id)
        };

        // The ingress gate (cookie exemption → classifier → admission →
        // RRL → plain service queue; see `crate::defense` and
        // `dike-defense`), evaluated in front of the *site*: anycast
        // looks up the member's unicast address, unicast the
        // destination itself. `gate_count` keeps the ungated common
        // case to one branch, and gate drops happen after the Delivered
        // accounting above — they stay inside the conservation ledger,
        // broken out by cause in the gate.
        let now = self.world.now;
        let site_addr = site_filter_addr.unwrap_or(dgram.dst);
        let mut wait = None;
        if self.world.gate_count > 0 {
            match self
                .world
                .gate_mut(site_addr)
                .map(|gate| gate.on_query(now, dgram.src, &msg))
            {
                None | Some(GateAction::Deliver) => {}
                Some(GateAction::DeliverAfter(delay)) => wait = Some(delay),
                Some(GateAction::Drop { slip }) => {
                    // The gate already did the per-cause accounting; the
                    // pipeline only records the per-node drop and, for an
                    // RRL slip, sends the synthesized TC=1 response from
                    // the server's (possibly anycast) address.
                    self.world.nodes.dropped[id.0 as usize] += 1;
                    if let Some(resp) = slip {
                        let payload = self.world.encode(&resp);
                        self.world.send_datagram(local, dgram.src, payload);
                    }
                    return;
                }
            }
        }
        match wait {
            Some(delay) if delay > SimDuration::ZERO => self.world.push(
                self.world.after(delay, "queued delivery", local),
                Event::DeliverQueued {
                    dgram,
                    msg: msg.into_shared(),
                    node: id,
                    local,
                },
            ),
            _ => self.hand_to_node(dgram.src, &msg, wire_len, id, local),
        }
    }
}

//! Minimal connection-oriented transport: handshake RTT, per-connection
//! server cost, and a bounded per-listener connection table that is a
//! first-class attackable resource.
//!
//! The model is deliberately small (see DESIGN.md §5.8):
//!
//! * A connection is dialed with [`crate::Context::tcp_connect`]; the SYN
//!   travels one sampled path delay to the listener, which either accepts
//!   (table slot allocated, SYN-ACK back — the dialer's
//!   `on_tcp_connected` fires one more delay later), refuses with an RST
//!   when it has no listener or the table is full (`on_tcp_closed` with
//!   `reset`), or — when the server node is down — says nothing at all,
//!   leaving the dialer to its own connect timeout.
//! * Established connections carry [`dike_wire::Message`]s reliably (no
//!   loss filter: TCP's retransmission is abstracted away, which is the
//!   honest first-order model for loss rates the handshake survives).
//!   Client→server messages additionally pay the listener's
//!   per-connection service cost, the knob that makes a busy TCP path
//!   slower than UDP.
//! * Each listener bounds concurrently-open connections
//!   ([`TcpConfig::table_capacity`]) and reaps idle ones
//!   ([`TcpConfig::idle_timeout`]). A flood of held-open connections
//!   therefore exhausts the table and new handshakes shed with RST while
//!   UDP service continues untouched — the degradation mode the
//!   `repro cookies` exhaustion arm measures.
//! * Conservation: every dialed connection is eventually counted exactly
//!   once as closed (graceful) or reset (RST/crash), or is still live;
//!   the sim auditor checks `opened == closed + reset + live`.
//!
//! No RNG is drawn and no event is scheduled unless some node actually
//! dials, so UDP-only runs — including the pinned fixed-seed digest —
//! are byte-identical with this module compiled in.

use std::collections::BTreeMap;

use dike_wire::Message;

use super::{Simulator, World};
use crate::addr::{Addr, NodeId};
use crate::event::Event;
use crate::time::{SimDuration, SimTime};

/// Handle to a simulated TCP connection. Ids are allocated monotonically
/// and never reused, so a stale handle (connection already torn down)
/// simply fails the table lookup instead of aliasing a new connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TcpConnId(pub u64);

/// Listener parameters: the attackable resource bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// Maximum concurrently-established connections; SYNs beyond this are
    /// refused with RST (graceful shed — UDP service is unaffected).
    pub table_capacity: usize,
    /// Per-message server-side service cost added to client→server
    /// delivery: connection handling is more expensive than a stateless
    /// datagram.
    pub per_conn_cost: SimDuration,
    /// Idle reap: a connection with no traffic for this long is closed
    /// by the server (FIN to the client).
    pub idle_timeout: SimDuration,
}

impl Default for TcpConfig {
    fn default() -> TcpConfig {
        TcpConfig {
            table_capacity: 64,
            per_conn_cost: SimDuration::from_micros(200),
            idle_timeout: SimDuration::from_secs(10),
        }
    }
}

/// Cumulative transport counters, reported in
/// [`AuditReport::tcp`](crate::AuditReport::tcp) and audited for
/// conservation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TcpStats {
    /// Connections dialed (every `tcp_connect`, whether or not the
    /// handshake ever completes).
    pub opened: u64,
    /// Graceful closes (either side's `tcp_close`, or idle reap).
    pub closed: u64,
    /// Abortive teardowns: refused SYNs and connections severed by a
    /// node crash.
    pub reset: u64,
    /// SYNs refused because the listener was absent or its table full.
    /// (Each refused SYN is also counted in `reset`.)
    pub syn_refused: u64,
    /// Messages delivered over established connections (both directions).
    pub messages: u64,
    /// High-water mark of concurrently-live connections.
    pub(crate) live_high_water: u64,
}

/// Connection lifecycle. `SynSent` connections occupy no table slot —
/// only established ones consume the listener's capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TcpConnState {
    /// SYN in flight (or silently dropped at a down server); the dialer
    /// owns cleanup via its connect timeout.
    SynSent,
    /// Handshake accepted; a table slot is held until teardown.
    Established,
}

/// One live connection record. Lives in a `BTreeMap` keyed by id so
/// crash teardown iterates deterministically.
#[derive(Debug)]
pub(crate) struct TcpConn {
    pub(crate) client: NodeId,
    pub(crate) client_addr: Addr,
    /// Dialed listener node; `None` when the address routes nowhere
    /// (the SYN then vanishes, like dialing a dark address).
    pub(crate) server: Option<NodeId>,
    pub(crate) server_addr: Addr,
    pub(crate) state: TcpConnState,
    /// Stamped at establish and on every delivered message; the idle
    /// probe closes the connection only when its armed stamp still
    /// matches.
    pub(crate) last_activity: SimTime,
}

/// Per-listener state: configuration plus current table occupancy.
#[derive(Debug)]
pub(crate) struct TcpListener {
    pub(crate) config: TcpConfig,
    /// Established connections currently holding a table slot.
    pub(crate) open: usize,
}

/// All transport state hanging off the `World`. Empty (and untouched on
/// the hot path) until the first listener or dial.
#[derive(Debug, Default)]
pub(crate) struct TcpWorld {
    /// Listeners, dense-indexed like nodes (`addr - FIRST_ADDR`).
    pub(crate) listeners: Vec<Option<TcpListener>>,
    pub(crate) listener_count: usize,
    /// Live connections by id; `BTreeMap` for deterministic iteration
    /// when a crash severs every connection a node is party to.
    pub(crate) conns: BTreeMap<u64, TcpConn>,
    pub(crate) next_conn: u64,
    pub(crate) stats: TcpStats,
}

impl TcpWorld {
    /// Whether any TCP activity exists (listeners installed or
    /// connections ever dialed) — gates snapshot publication so
    /// UDP-only runs keep their exact metric shape.
    pub(crate) fn active(&self) -> bool {
        self.listener_count > 0 || self.stats.opened > 0
    }

    /// Connections currently live (any state).
    pub(crate) fn live(&self) -> u64 {
        self.conns.len() as u64
    }
}

impl World {
    /// Installs (or replaces) a TCP listener on `addr` (see
    /// [`crate::tcp`]): the node behind it starts accepting connections,
    /// bounded by `config.table_capacity`. Reinstalling keeps
    /// currently-established connections — occupancy is recomputed from
    /// the live table, not reset.
    pub fn set_tcp_listener(&mut self, addr: Addr, config: TcpConfig) {
        let Some(idx) = self.unicast_index(addr) else {
            debug_assert!(false, "tcp listener on non-unicast address {addr}");
            return;
        };
        if idx >= self.tcp.listeners.len() {
            self.tcp.listeners.resize_with(idx + 1, || None);
        }
        let open = self
            .tcp
            .conns
            .values()
            .filter(|c| c.state == TcpConnState::Established && c.server_addr == addr)
            .count();
        if self.tcp.listeners[idx]
            .replace(TcpListener { config, open })
            .is_none()
        {
            self.tcp.listener_count += 1;
        }
    }

    /// The listener installed on `addr`, if any.
    fn tcp_listener(&self, addr: Addr) -> Option<&TcpListener> {
        self.unicast_index(addr)
            .and_then(|i| self.tcp.listeners.get(i))
            .and_then(|slot| slot.as_ref())
    }

    /// Dials `dst` from `client` (see [`Context::tcp_connect`]).
    pub(crate) fn tcp_connect(
        &mut self,
        client: NodeId,
        client_addr: Addr,
        dst: Addr,
    ) -> TcpConnId {
        let id = self.tcp.next_conn;
        self.tcp.next_conn += 1;
        self.tcp.stats.opened += 1;
        // Unicast only: TCP listeners bind one address, so a VIP dial
        // resolves to no server and the SYN vanishes (dark address).
        let server = self.node_at(dst);
        self.tcp.conns.insert(
            id,
            TcpConn {
                client,
                client_addr,
                server,
                server_addr: dst,
                state: TcpConnState::SynSent,
                last_activity: self.now,
            },
        );
        let live = self.tcp.live();
        if live > self.tcp.stats.live_high_water {
            self.tcp.stats.live_high_water = live;
        }
        let delay = self.path_delay(client_addr, dst);
        let at = self.after(delay, "TCP delivery", dst);
        self.push(at, Event::TcpSyn { conn: id });
        TcpConnId(id)
    }

    /// Sends over an established connection (see [`Context::tcp_send`]).
    pub(crate) fn tcp_send(&mut self, from: NodeId, conn: TcpConnId, msg: &Message) {
        let Some(c) = self.tcp.conns.get(&conn.0) else {
            return;
        };
        if c.state != TcpConnState::Established {
            return;
        }
        let to_server = from == c.client;
        let (src, dst) = if to_server {
            (c.client_addr, c.server_addr)
        } else {
            (c.server_addr, c.client_addr)
        };
        let server_addr = c.server_addr;
        // Encode once for size accounting; the decoded message travels in
        // the event (TCP never re-decodes — stream framing is abstracted).
        let wire_len = self.encode(msg).len();
        let mut delay = self.path_delay(src, dst);
        if to_server {
            // The listener's per-connection service cost: connection
            // handling is more expensive than a stateless datagram.
            if let Some(l) = self.tcp_listener(server_addr) {
                delay = delay + l.config.per_conn_cost;
            }
        }
        let at = self.after(delay, "TCP delivery", dst);
        self.push(
            at,
            Event::TcpMsg {
                conn: conn.0,
                msg: Box::new(msg.clone()),
                wire_len,
                to_server,
            },
        );
    }

    /// Closes a connection from `from`'s side (see
    /// [`Context::tcp_close`]). The surviving peer is notified with a
    /// FIN; the closer gets no callback.
    pub(crate) fn tcp_close(&mut self, from: NodeId, conn: TcpConnId) {
        let Some(c) = self.remove_conn(conn.0) else {
            return;
        };
        self.tcp.stats.closed += 1;
        if c.state != TcpConnState::Established {
            // Abandoned handshake: the server never learned of it (its
            // accept either never happened or is in flight and will find
            // no record), so there is no one to notify.
            return;
        }
        let closer_is_client = from == c.client;
        let (peer, src, dst) = if closer_is_client {
            (c.server, c.client_addr, c.server_addr)
        } else {
            (Some(c.client), c.server_addr, c.client_addr)
        };
        let Some(peer) = peer else { return };
        if !self.nodes.up[peer.0 as usize] {
            return;
        }
        let epoch = self.nodes.epoch[peer.0 as usize];
        let delay = self.path_delay(src, dst);
        let at = self.after(delay, "TCP delivery", dst);
        self.push(
            at,
            Event::TcpFin {
                conn: conn.0,
                notify: peer,
                epoch,
                reset: false,
            },
        );
    }

    /// Removes a connection record, releasing its listener table slot
    /// when it was established. All teardown paths (close, RST, crash,
    /// idle reap) funnel through here so occupancy can never leak.
    fn remove_conn(&mut self, id: u64) -> Option<TcpConn> {
        let c = self.tcp.conns.remove(&id)?;
        if c.state == TcpConnState::Established {
            if let Some(l) = self
                .unicast_index(c.server_addr)
                .and_then(|i| self.tcp.listeners.get_mut(i))
                .and_then(|slot| slot.as_mut())
            {
                l.open = l.open.saturating_sub(1);
            }
        }
        Some(c)
    }

    /// Severs every connection `node` is party to (crash teardown):
    /// records are removed and counted reset, and each established
    /// peer still up is notified with an RST after the usual path delay.
    /// Deterministic — connections iterate in id order — and a no-op
    /// (zero RNG draws) when the run has no connections.
    pub(super) fn reset_conns_of(&mut self, node: NodeId) {
        if self.tcp.conns.is_empty() {
            return;
        }
        let ids: Vec<u64> = self
            .tcp
            .conns
            .iter()
            .filter(|(_, c)| c.client == node || c.server == Some(node))
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            let c = self
                .remove_conn(id)
                .expect("collected from the table above");
            self.tcp.stats.reset += 1;
            if c.state != TcpConnState::Established {
                // A SynSent record has no peer state to tear down: either
                // the server never saw the SYN, or the crashed node *is*
                // the server and the dialer's connect timeout handles it.
                continue;
            }
            let (peer, src, dst) = if c.client == node {
                (c.server, c.client_addr, c.server_addr)
            } else {
                (Some(c.client), c.server_addr, c.client_addr)
            };
            let Some(peer) = peer else { continue };
            if peer == node || !self.nodes.up[peer.0 as usize] {
                continue;
            }
            let epoch = self.nodes.epoch[peer.0 as usize];
            let delay = self.path_delay(src, dst);
            let at = self.after(delay, "TCP delivery", dst);
            self.push(
                at,
                Event::TcpFin {
                    conn: id,
                    notify: peer,
                    epoch,
                    reset: true,
                },
            );
        }
    }
}

impl Simulator {
    /// SYN arrival at the dialed address: accept (table slot allocated,
    /// SYN-ACK back), refuse with RST (no listener, or table full), or —
    /// when the server node is down — silence, leaving the dialer to its
    /// own connect timeout.
    pub(super) fn tcp_syn(&mut self, conn: u64) {
        let Some(c) = self.world.tcp.conns.get(&conn) else {
            return; // dialer already gave up
        };
        let (client, client_addr, server, server_addr) =
            (c.client, c.client_addr, c.server, c.server_addr);
        let server_up = server.is_some_and(|s| self.world.nodes.up[s.0 as usize]);
        if !server_up {
            // Silent drop, like a SYN into a null-routed prefix. The
            // record stays SynSent; the dialer owns cleanup.
            return;
        }
        let accepted_idle_timeout = self
            .world
            .unicast_index(server_addr)
            .and_then(|i| self.world.tcp.listeners.get_mut(i))
            .and_then(|slot| slot.as_mut())
            .and_then(|l| {
                (l.open < l.config.table_capacity).then(|| {
                    l.open += 1;
                    l.config.idle_timeout
                })
            });
        let now = self.world.now;
        match accepted_idle_timeout {
            Some(idle_timeout) => {
                let c = self
                    .world
                    .tcp
                    .conns
                    .get_mut(&conn)
                    .expect("present: looked up above");
                c.state = TcpConnState::Established;
                c.last_activity = now;
                let delay = self.world.path_delay(server_addr, client_addr);
                let open_at = self.world.after(delay, "TCP delivery", client_addr);
                self.world.push(open_at, Event::TcpOpen { conn });
                let idle_at = self
                    .world
                    .after(idle_timeout, "TCP idle timer", server_addr);
                self.world
                    .push(idle_at, Event::TcpIdle { conn, stamp: now });
            }
            None => {
                // Graceful shed: RST the handshake, keep serving UDP.
                // The SynSent record never held a table slot.
                self.world.tcp.stats.syn_refused += 1;
                self.world.tcp.stats.reset += 1;
                self.world.remove_conn(conn);
                if self.world.nodes.up[client.0 as usize] {
                    let epoch = self.world.nodes.epoch[client.0 as usize];
                    let delay = self.world.path_delay(server_addr, client_addr);
                    self.world.push(
                        self.world.after(delay, "TCP delivery", client_addr),
                        Event::TcpFin {
                            conn,
                            notify: client,
                            epoch,
                            reset: true,
                        },
                    );
                }
            }
        }
    }

    /// SYN-ACK arrival at the dialer: the handshake is complete.
    pub(super) fn tcp_open(&mut self, conn: u64) {
        let Some(c) = self.world.tcp.conns.get(&conn) else {
            return; // torn down while the SYN-ACK was in flight
        };
        if c.state != TcpConnState::Established {
            return;
        }
        let (client, server_addr) = (c.client, c.server_addr);
        if !self.world.nodes.up[client.0 as usize] {
            return; // crash teardown raced this event out of the queue
        }
        self.dispatch(client, self.world.addr_of(client), |node, ctx| {
            node.on_tcp_connected(ctx, TcpConnId(conn), server_addr)
        });
    }

    /// Message delivery over an established connection.
    pub(super) fn tcp_msg(&mut self, conn: u64, msg: &Message, wire_len: usize, to_server: bool) {
        let now = self.world.now;
        let Some(c) = self.world.tcp.conns.get_mut(&conn) else {
            return; // connection torn down with the message in flight
        };
        if c.state != TcpConnState::Established {
            return;
        }
        c.last_activity = now;
        let (target, peer_addr, server_addr) = if to_server {
            (c.server, c.client_addr, c.server_addr)
        } else {
            (Some(c.client), c.server_addr, c.server_addr)
        };
        let Some(target) = target else { return };
        self.world.tcp.stats.messages += 1;
        // Re-arm the idle probe against this fresh activity stamp.
        if let Some(idle) = self
            .world
            .tcp_listener(server_addr)
            .map(|l| l.config.idle_timeout)
        {
            let idle_at = self.world.after(idle, "TCP idle timer", server_addr);
            self.world
                .push(idle_at, Event::TcpIdle { conn, stamp: now });
        }
        if !self.world.nodes.up[target.0 as usize] {
            return; // crash teardown races: conn removal is same-instant
        }
        self.dispatch(target, self.world.addr_of(target), |node, ctx| {
            node.on_tcp_message(ctx, TcpConnId(conn), peer_addr, msg, wire_len)
        });
    }

    /// Teardown notification (FIN/RST) reaching the surviving peer.
    pub(super) fn tcp_fin(&mut self, conn: u64, notify: NodeId, epoch: u32, reset: bool) {
        let nidx = notify.0 as usize;
        if !self.world.nodes.up[nidx] || self.world.nodes.epoch[nidx] != epoch {
            return; // the peer crashed (or restarted) in the meantime
        }
        self.dispatch(notify, self.world.addr_of(notify), |node, ctx| {
            node.on_tcp_closed(ctx, TcpConnId(conn), reset)
        });
    }

    /// Idle-timeout probe: reaps the connection iff nothing moved since
    /// the probe was armed (later activity re-armed a fresher probe).
    pub(super) fn tcp_idle(&mut self, conn: u64, stamp: SimTime) {
        let Some(c) = self.world.tcp.conns.get(&conn) else {
            return;
        };
        if c.state != TcpConnState::Established || c.last_activity != stamp {
            return;
        }
        let (client, client_addr, server_addr) = (c.client, c.client_addr, c.server_addr);
        self.world
            .remove_conn(conn)
            .expect("present: looked up above");
        self.world.tcp.stats.closed += 1;
        // FIN to the client; the reaping server initiated the close and
        // gets no callback, per the Node::on_tcp_closed contract.
        if self.world.nodes.up[client.0 as usize] {
            let epoch = self.world.nodes.epoch[client.0 as usize];
            let delay = self.world.path_delay(server_addr, client_addr);
            self.world.push(
                self.world.after(delay, "TCP delivery", client_addr),
                Event::TcpFin {
                    conn,
                    notify: client,
                    epoch,
                    reset: false,
                },
            );
        }
    }
}

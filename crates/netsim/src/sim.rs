//! The simulator: node registry, event loop, and the [`World`] that nodes
//! and control events mutate.

use bytes::Bytes;
use dike_telemetry::{Histogram, NodePublisher, SharedRegistry, TelemetryConfig};
use dike_wire::codec::EncodeBuffer;
use dike_wire::Message;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::addr::{Addr, NodeId};
use crate::anycast::AnycastTable;
use crate::datagram::Datagram;
use crate::defense::{DefenseLedger, GateAction, IngressDefense, IngressGate};
use crate::event::{Event, EventQueue, HeapEntry};
use crate::link::LinkTable;
use crate::node::{Context, Node, NodeHotState, TimerId, TimerSlab, TimerToken};
use crate::queueing::{QueueConfig, QueueOutcome, ServiceQueue};
use crate::shard::{Envelope, ShardConfig};
use crate::tcp::{TcpConfig, TcpConn, TcpConnId, TcpConnState, TcpListener, TcpStats, TcpWorld};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Disposition, SharedSink};

pub mod audit;

/// First address handed out by [`Simulator::add_node`]: `10.0.0.1`.
pub(crate) const FIRST_ADDR: u32 = 0x0a00_0001;

/// First anycast VIP handed out by [`Simulator::add_anycast_group`]:
/// `198.18.0.1` (benchmarking range, far from the unicast pool).
const FIRST_VIP: u32 = 0xc612_0001;

/// Simulator-level counters, always maintained (plain integer adds, so
/// the hot path carries no telemetry branch) and published into the
/// attached [`dike_telemetry::MetricsRegistry`] at snapshot boundaries.
#[derive(Debug, Clone, Copy, Default)]
struct NetStats {
    events_popped: u64,
    timers_fired: u64,
    timers_cancelled: u64,
    control_events: u64,
    datagrams_sent: u64,
    datagrams_delivered: u64,
    datagrams_dropped: u64,
    datagrams_no_route: u64,
    /// Payloads decoded at ingress (the decode-once invariant means this
    /// equals arrivals, and equals deliveries in a loss-free run).
    datagrams_decoded: u64,
    /// Payloads the codec rejected at ingress; traced as
    /// [`Disposition::Malformed`] and dropped.
    datagrams_undecodable: u64,
    /// Octets produced by the pooled encoder.
    bytes_encoded: u64,
    /// Octets consumed by the ingress decoder.
    bytes_decoded: u64,
    queue_drops: u64,
    /// High-water mark of the event-queue depth.
    queue_depth_high_water: u64,
    /// Node crashes applied ([`Event::NodeDown`] on a live node).
    node_crashes: u64,
    /// Node restarts applied ([`Event::NodeUp`] on a downed node).
    node_restarts: u64,
    /// Datagrams dropped because the destination node was down. Also
    /// counted in `datagrams_dropped` (they share the `Dropped`
    /// disposition); this breaks out the cause.
    datagrams_dropped_node_down: u64,
    /// Timers armed before a crash and suppressed at pop because the
    /// node's liveness epoch had moved on.
    timers_suppressed_crash: u64,
    /// Datagrams dropped by an installed Gilbert–Elliott link degrade.
    /// Also counted in `datagrams_dropped`; this breaks out the cause.
    datagrams_dropped_degrade: u64,
    /// Scale-out defenses that fired (capacity provisioned).
    scaleout_activations: u64,
}

/// Per-shard engine state, present only in worlds created through
/// [`Simulator::new_sharded`]. Holds everything the sharded engine adds
/// on top of a plain world: the shard layout, the per-node RNG streams,
/// the cross-shard outboxes, and the envelope ledger the auditor checks.
pub(crate) struct ShardState {
    /// This shard's index.
    pub(crate) id: usize,
    /// First raw unicast address of every shard, ascending.
    pub(crate) starts: Vec<u32>,
    /// Propagation floor = conservative lookahead; every one-way delay
    /// is clamped up to this, local and cross-shard alike.
    pub(crate) floor: SimDuration,
    /// World seed, kept so nodes added later derive their stream from
    /// `(seed, global node index)`.
    pub(crate) seed: u64,
    /// One RNG stream per *local* node, seeded from the node's global
    /// index so the stream is shard-layout-independent.
    pub(crate) rngs: Vec<SmallRng>,
    /// Outgoing cross-shard envelopes, one bin per destination shard;
    /// drained by the barrier loop at every window boundary.
    pub(crate) outbox: Vec<Vec<Envelope>>,
    /// Datagrams handed to another shard (counted at send).
    pub(crate) xshard_out: u64,
    /// Datagrams injected from another shard (counted at injection).
    pub(crate) xshard_in: u64,
}

impl ShardState {
    /// Which shard owns `addr`. Anycast VIPs resolve locally (anycast is
    /// not supported sharded; the gate lives in the experiment driver),
    /// as do addresses below the first shard's start.
    fn shard_of(&self, addr: Addr) -> usize {
        if addr.0 >= FIRST_VIP {
            return self.id;
        }
        match self.starts.partition_point(|s| *s <= addr.0) {
            0 => 0,
            n => n - 1,
        }
    }
}

/// The RNG stream behind dense node index `idx` (`addr - first_addr`):
/// that node's own stream in a sharded world — per-node streams are what
/// make the outcome independent of the shard count, see [`crate::shard`]
/// — and the world RNG in a plain one. Send-side draws pass the sender's
/// index, arrival-side draws the receiver's. An index that is no local
/// node (an anycast VIP; those are gated out of sharded runs) falls back
/// to the world RNG.
fn rng_stream<'a>(
    shard: &'a mut Option<Box<ShardState>>,
    rng: &'a mut SmallRng,
    idx: usize,
) -> &'a mut SmallRng {
    match shard.as_deref_mut().and_then(|s| s.rngs.get_mut(idx)) {
        Some(stream) => stream,
        None => rng,
    }
}

/// Everything in the simulation except the nodes themselves. Split out so
/// a node can be taken off the registry and run against `&mut World`
/// without borrow gymnastics.
pub struct World {
    now: SimTime,
    queue: EventQueue,
    seq: u64,
    links: LinkTable,
    rng: SmallRng,
    /// First unicast address owned by this world: [`FIRST_ADDR`] for a
    /// plain world, the shard's slice start for a sharded one.
    first_addr: u32,
    /// Sharded-engine state; `None` in a plain (legacy) world, which
    /// keeps every legacy code path — and the pinned digest — untouched.
    shard: Option<Box<ShardState>>,
    sinks: Vec<SharedSink>,
    anycast: AnycastTable,
    next_vip: u32,
    /// Ingress queues, dense-indexed like nodes (`addr - FIRST_ADDR`).
    /// `queue_count` lets the hot path skip the lookup entirely when no
    /// queues are installed (the common case).
    queues: Vec<Option<ServiceQueue>>,
    queue_count: usize,
    /// Ingress defense gates, dense-indexed like `queues`; the
    /// `defense_count == 0` fast path keeps the undefended hot path to
    /// one branch (see [`crate::defense`]). Each [`IngressGate`] owns
    /// its own verdict accounting, and a gate is never removed — a
    /// replacement swaps the engine inside it — so run totals are the
    /// sum over this table.
    defenses: Vec<Option<IngressGate>>,
    defense_count: usize,
    /// Generation-stamped timer slots. A [`TimerId`] packs `(gen, slot)`;
    /// cancellation bumps the slot's generation so the already-queued event
    /// is recognized as stale when it pops — O(1), no tombstone set.
    timers: TimerSlab,
    /// Pooled wire encoder: one per run, so steady-state sends are
    /// allocation-free and payloads are refcounted slices of pool chunks.
    encoder: EncodeBuffer,
    net: NetStats,
    /// Struct-of-arrays per-node hot state: address, liveness, epoch,
    /// and traffic counters, dense-indexed by node id.
    nodes: NodeHotState,
    /// Connection-oriented transport state (see [`crate::tcp`]). Empty
    /// and untouched — no RNG, no events — until a listener is installed
    /// or a node dials.
    tcp: TcpWorld,
}

impl World {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The network fabric, for installing loss filters and path overrides.
    pub fn links_mut(&mut self) -> &mut LinkTable {
        &mut self.links
    }

    /// Read-only fabric access.
    pub fn links(&self) -> &LinkTable {
        &self.links
    }

    /// The RNG stream for `node` (see [`rng_stream`]).
    pub(crate) fn rng_for(&mut self, node: NodeId) -> &mut SmallRng {
        rng_stream(&mut self.shard, &mut self.rng, node.0 as usize)
    }

    /// The address of `node`.
    pub fn addr_of(&self, node: NodeId) -> Addr {
        self.nodes.addr[node.0 as usize]
    }

    /// The node behind `addr`, if any (unicast only; an anycast address
    /// resolves per source, by catchment). O(1): unicast addresses are
    /// assigned densely from `FIRST_ADDR`, so this is arithmetic, not a
    /// map lookup.
    pub fn node_at(&self, addr: Addr) -> Option<NodeId> {
        let idx = addr.0.wrapping_sub(self.first_addr);
        ((idx as usize) < self.nodes.len()).then_some(NodeId(idx))
    }

    /// Dense index for per-address state (queues): `addr - first_addr`
    /// when `addr` is in this world's slice of the unicast pool.
    fn unicast_index(&self, addr: Addr) -> Option<usize> {
        (self.first_addr..FIRST_VIP)
            .contains(&addr.0)
            .then_some((addr.0 - self.first_addr) as usize)
    }

    /// Mutable anycast registry — scale-out defenses grow a group's
    /// membership mid-run from a control event.
    pub fn anycast_mut(&mut self) -> &mut AnycastTable {
        &mut self.anycast
    }

    /// Installs (or replaces) an ingress service queue in front of
    /// `addr` — the paper's future-work queueing model
    /// (see [`crate::queueing`]).
    pub fn set_ingress_queue(&mut self, addr: Addr, config: QueueConfig) {
        let Some(idx) = self.unicast_index(addr) else {
            debug_assert!(false, "ingress queue on non-unicast address {addr}");
            return;
        };
        if idx >= self.queues.len() {
            self.queues.resize_with(idx + 1, || None);
        }
        if self.queues[idx]
            .replace(ServiceQueue::new(config))
            .is_none()
        {
            self.queue_count += 1;
        }
    }

    /// Mutable access to an installed queue (e.g. to inject background
    /// attack load mid-run from a control event).
    pub fn queue_mut(&mut self, addr: Addr) -> Option<&mut ServiceQueue> {
        self.unicast_index(addr)
            .and_then(|i| self.queues.get_mut(i))
            .and_then(|slot| slot.as_mut())
    }

    /// Installs an ingress defense pipeline in front of `addr` (see
    /// [`crate::defense`]). Typically called from a control event
    /// scheduled by a `dike-defense` `DefensePlan`. On an address that
    /// is already defended this swaps the engine inside the installed
    /// gate: its ledger, delay histograms and cookie secret stay, so run
    /// totals — and the conservation audit — survive a replacement.
    pub fn set_ingress_defense(&mut self, addr: Addr, defense: Box<dyn IngressDefense>) {
        let Some(idx) = self.unicast_index(addr) else {
            debug_assert!(false, "ingress defense on non-unicast address {addr}");
            return;
        };
        if idx >= self.defenses.len() {
            self.defenses.resize_with(idx + 1, || None);
        }
        match &mut self.defenses[idx] {
            Some(gate) => gate.replace_defense(defense),
            slot => {
                *slot = Some(IngressGate::new(defense));
                self.defense_count += 1;
            }
        }
    }

    /// Sets (or clears) the RFC 7873 cookie-exemption secret on the
    /// defense gate installed at `addr` (see
    /// [`IngressGate::with_cookie_secret`]). Debug-asserts when no gate
    /// is installed — defense plans install engines before secrets.
    pub fn set_ingress_cookie_secret(&mut self, addr: Addr, secret: Option<u64>) {
        match self.defense_mut(addr) {
            Some(gate) => gate.set_cookie_secret(secret),
            None => debug_assert!(false, "cookie secret on undefended address {addr}"),
        }
    }

    /// Mutable access to an installed defense gate (e.g. for a flood
    /// fault to consume its admission capacity, or scale-out to grow it).
    pub fn defense_mut(&mut self, addr: Addr) -> Option<&mut IngressGate> {
        self.unicast_index(addr)
            .and_then(|i| self.defenses.get_mut(i))
            .and_then(|slot| slot.as_mut())
    }

    /// Run-wide defense drop accounting: the sum of every gate's ledger.
    pub fn defense_ledger(&self) -> DefenseLedger {
        let mut total = DefenseLedger::default();
        for gate in self.defenses.iter().flatten() {
            total.merge(gate.ledger());
        }
        total
    }

    /// Run-wide per-class queue-delay histograms (nanoseconds), merged
    /// across gates; indexed like [`crate::queueing::QUEUE_CLASSES`].
    pub fn defense_queue_delays(&self) -> [Histogram; 3] {
        let mut merged: [Histogram; 3] = Default::default();
        for gate in self.defenses.iter().flatten() {
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

    fn push(&mut self, at: SimTime, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(HeapEntry { at, seq, event });
        let depth = self.queue.len() as u64;
        if depth > self.net.queue_depth_high_water {
            self.net.queue_depth_high_water = depth;
        }
    }

    /// Encodes `msg` through the pooled run encoder, returning a refcounted
    /// payload and updating the encode counters.
    ///
    /// # Panics
    /// Panics if the message fails to encode — a node producing an
    /// unencodable message is a bug, not a runtime condition.
    pub(crate) fn encode(&mut self, msg: &Message) -> Bytes {
        let payload = self
            .encoder
            .encode(msg)
            .expect("node produced an unencodable DNS message");
        self.net.bytes_encoded += payload.len() as u64;
        payload
    }

    /// Samples the one-way path delay `src → dst`: the link's latency
    /// model, stretched by any installed degrade's latency factor at the
    /// destination — a congested path is slow as well as lossy.
    ///
    /// In a sharded world the sample comes from the *sender's* per-node
    /// stream and is clamped up to the propagation floor (the
    /// conservative lookahead), uniformly for local and cross-shard
    /// paths — see [`crate::shard`].
    fn path_delay(&mut self, src: Addr, dst: Addr) -> SimDuration {
        let floor = self.shard.as_deref().map(|s| s.floor);
        let idx = src.0.wrapping_sub(self.first_addr) as usize;
        let rng = rng_stream(&mut self.shard, &mut self.rng, idx);
        let mut delay = self.links.params(src, dst).latency.sample(rng);
        let factor = self.links.latency_factor(dst);
        if factor != 1.0 {
            delay = SimDuration::from_nanos((delay.as_nanos() as f64 * factor) as u64);
        }
        match floor {
            Some(f) => delay.max(f),
            None => delay,
        }
    }

    /// Queues a datagram: samples the path delay now, evaluates loss at
    /// arrival (see [`Simulator::step`]). In a sharded world a datagram
    /// whose destination lives on another shard is parked in that
    /// shard's outbox instead (counted `xshard_out`), to be exchanged at
    /// the next window barrier.
    pub(crate) fn send_datagram(&mut self, src: Addr, dst: Addr, payload: Bytes) {
        self.net.datagrams_sent += 1;
        let delay = self.path_delay(src, dst);
        let at = self.now + delay;
        if let Some(s) = self.shard.as_deref_mut() {
            let target = s.shard_of(dst);
            if target != s.id {
                s.xshard_out += 1;
                s.outbox[target].push(Envelope {
                    at,
                    src,
                    dst,
                    payload,
                });
                return;
            }
        }
        self.push(at, Event::Deliver(Datagram { src, dst, payload }));
    }

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

    /// Cumulative transport counters (see [`crate::tcp::TcpStats`]).
    pub fn tcp_stats(&self) -> TcpStats {
        self.tcp.stats
    }

    /// Connections currently live in any state (the auditor's `live`
    /// term in `opened == closed + reset + live`).
    pub fn tcp_conns_live(&self) -> u64 {
        self.tcp.live()
    }

    /// Established connections currently holding a slot in `addr`'s
    /// listener table. `None` when no listener is installed there.
    pub fn tcp_listener_open(&self, addr: Addr) -> Option<usize> {
        self.tcp_listener(addr).map(|l| l.open)
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
        let at = self.now + delay;
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
        let at = self.now + delay;
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
        let at = self.now + delay;
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
    fn reset_conns_of(&mut self, node: NodeId) {
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
            let at = self.now + delay;
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

    /// Whether `node` is currently up. Nodes start up; only scheduled
    /// [`Event::NodeDown`]/[`Event::NodeUp`] change this.
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.nodes.up.get(node.0 as usize).copied().unwrap_or(false)
    }

    pub(crate) fn set_timer(
        &mut self,
        node: NodeId,
        delay: SimDuration,
        token: TimerToken,
    ) -> TimerId {
        let id = self.timers.grant();
        let at = self.now + delay;
        let epoch = self.nodes.epoch[node.0 as usize];
        self.push(
            at,
            Event::Timer {
                node,
                token,
                id,
                epoch,
            },
        );
        TimerId(id)
    }

    pub(crate) fn cancel_timer(&mut self, id: TimerId) {
        self.timers.cancel(id.0);
    }

    fn observe(
        &mut self,
        src: Addr,
        dst: Addr,
        msg: Option<&Message>,
        wire_len: usize,
        disposition: Disposition,
    ) {
        let now = self.now;
        for sink in &self.sinks {
            sink.lock()
                .observe(now, src, dst, msg, wire_len, disposition);
        }
    }
}

/// Telemetry attachment: the shared registry plus the next sim-time
/// boundary at which a snapshot is due.
struct Telemetry {
    registry: SharedRegistry,
    interval: SimDuration,
    next_at: SimTime,
}

/// The deterministic discrete-event simulator.
///
/// A run is fully determined by the seed, the nodes added, and the
/// scheduled control events; re-running with the same inputs produces the
/// identical event sequence.
pub struct Simulator {
    nodes: Vec<Option<Box<dyn Node>>>,
    started: Vec<bool>,
    world: World,
    telemetry: Option<Telemetry>,
    /// Wall-clock nanoseconds spent inside the run methods. Kept out of
    /// [`NetStats`]/telemetry (those must stay deterministic); surfaced
    /// through [`Simulator::perf`].
    wall_nanos: u64,
}

/// Wall-clock throughput summary of a run, paired with the deterministic
/// volume counters needed to turn it into rates. This is *observability,
/// not simulation state*: nothing here feeds back into the run, and none
/// of it enters the telemetry registry (whose snapshots are asserted
/// byte-identical across same-seed runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimPerf {
    /// Events processed by the run loop.
    pub events_popped: u64,
    /// Datagrams entering the fabric.
    pub datagrams_sent: u64,
    /// Datagrams handed to nodes.
    pub datagrams_delivered: u64,
    /// Payloads decoded at ingress (== arrivals under decode-once).
    pub datagrams_decoded: u64,
    /// Payloads rejected by the codec at ingress.
    pub datagrams_undecodable: u64,
    /// Octets produced by the pooled encoder.
    pub bytes_encoded: u64,
    /// Octets consumed by the ingress decoder.
    pub bytes_decoded: u64,
    /// Wall-clock nanoseconds spent inside `run_until`/`run_until_idle`.
    pub wall_nanos: u64,
}

impl Simulator {
    /// A fresh simulator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Simulator {
            nodes: Vec::new(),
            started: Vec::new(),
            world: World {
                now: SimTime::ZERO,
                queue: EventQueue::new(),
                seq: 0,
                links: LinkTable::default(),
                rng: SmallRng::seed_from_u64(seed),
                first_addr: FIRST_ADDR,
                shard: None,
                sinks: Vec::new(),
                anycast: AnycastTable::new(),
                next_vip: FIRST_VIP,
                queues: Vec::new(),
                queue_count: 0,
                defenses: Vec::new(),
                defense_count: 0,
                timers: TimerSlab::default(),
                encoder: EncodeBuffer::new(),
                net: NetStats::default(),
                nodes: NodeHotState::default(),
                tcp: TcpWorld::default(),
            },
            telemetry: None,
            wall_nanos: 0,
        }
    }

    /// Attaches a metrics registry. From now on the simulator cuts a
    /// snapshot of every registered metric each `config` interval of
    /// *simulated* time (plus one final snapshot when a run method
    /// returns), publishing its own event/datagram counters and calling
    /// [`Node::publish_metrics`] on every node. Never driven by wall
    /// clock, so metric series are as deterministic as the run itself.
    pub fn attach_telemetry(&mut self, registry: SharedRegistry, config: TelemetryConfig) {
        let interval = SimDuration::from_nanos(config.snapshot_interval_nanos.max(1));
        self.telemetry = Some(Telemetry {
            registry,
            interval,
            next_at: self.world.now + interval,
        });
    }

    /// Attaches a human-readable label (e.g. `auth:ns1`) to a node in
    /// the telemetry registry. No-op unless telemetry is attached.
    pub fn label_node(&mut self, id: NodeId, label: &str) {
        if let Some(tel) = &self.telemetry {
            tel.registry
                .lock()
                .expect("telemetry registry poisoned")
                .set_node_label(id.0, label);
        }
    }

    /// [`Simulator::label_node`] keyed by address instead of node id.
    /// Ignores anycast VIPs and unknown addresses.
    pub fn label_addr(&mut self, addr: Addr, label: &str) {
        if let Some(id) = self.world.node_at(addr) {
            self.label_node(id, label);
        }
    }

    /// Closes a run out at `at`: every boundary still due, then one
    /// final snapshot labeled `at`.
    fn cut_final_snapshots(&mut self, at: SimTime) {
        self.cut_due_snapshots(at);
        self.cut_snapshot(at);
    }

    /// Cuts snapshots at every due boundary `<= upto`.
    fn cut_due_snapshots(&mut self, upto: SimTime) {
        loop {
            let Some(tel) = &self.telemetry else { return };
            let at = tel.next_at;
            if at > upto {
                return;
            }
            self.cut_snapshot(at);
            let tel = self.telemetry.as_mut().expect("telemetry still attached");
            tel.next_at = at + tel.interval;
        }
    }

    /// Publishes all counters and node metrics and cuts one snapshot
    /// labeled `at`. Duplicate boundaries collapse in the registry.
    fn cut_snapshot(&mut self, at: SimTime) {
        let Some(tel) = &self.telemetry else { return };
        let mut reg = tel.registry.lock().expect("telemetry registry poisoned");
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
        reg.record_counter("netsim", None, "queue_drops", net.queue_drops);
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
            // (queues are keyed by address, dense like nodes).
            if let Some(Some(q)) = self.world.queues.get(idx) {
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

    /// The address the *next* call to [`Simulator::add_node`] will assign.
    /// Topology builders use this to write addresses into zone glue before
    /// the owning nodes exist.
    pub fn next_addr(&self) -> Addr {
        Addr(self.world.first_addr + self.nodes.len() as u32)
    }

    /// The address assigned to the `index`-th added node (assignment is
    /// deterministic: `10.0.0.1 + index`).
    pub fn addr_at(index: usize) -> Addr {
        Addr(FIRST_ADDR + index as u32)
    }

    /// Registers a node and assigns it the next address. In a sharded
    /// world the node also gets its own RNG stream, seeded from the
    /// world seed and the node's *global* index so the stream does not
    /// depend on how the world was cut.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> (NodeId, Addr) {
        let id = NodeId(self.nodes.len() as u32);
        let addr = Addr(self.world.first_addr + id.0);
        self.nodes.push(Some(node));
        self.started.push(false);
        self.world.nodes.push(addr);
        if let Some(s) = self.world.shard.as_deref_mut() {
            let global = (addr.0 - FIRST_ADDR) as u64;
            s.rngs.push(SmallRng::seed_from_u64(crate::shard::mix_seed(
                s.seed, global,
            )));
        }
        (id, addr)
    }

    /// Registers an anycast group over existing nodes and returns its
    /// virtual address. Datagrams to the VIP are routed to one member by
    /// the per-source catchment; that member replies *from* the VIP.
    /// Attack a single site by installing ingress loss on the member's
    /// unicast address; attack the whole service via the VIP.
    pub fn add_anycast_group(&mut self, members: &[NodeId]) -> Addr {
        assert!(!members.is_empty(), "anycast group needs members");
        for m in members {
            assert!(
                (m.0 as usize) < self.nodes.len(),
                "anycast member {m} does not exist"
            );
        }
        let vip = Addr(self.world.next_vip);
        self.world.next_vip += 1;
        self.world.anycast.set_group(vip, members.to_vec());
        vip
    }

    /// Installs an ingress service queue in front of `addr`
    /// (see [`crate::queueing`]).
    pub fn set_ingress_queue(&mut self, addr: Addr, config: QueueConfig) {
        self.world.set_ingress_queue(addr, config);
    }

    /// Installs an ingress defense pipeline in front of `addr`
    /// (see [`crate::defense`]).
    pub fn set_ingress_defense(&mut self, addr: Addr, defense: Box<dyn IngressDefense>) {
        self.world.set_ingress_defense(addr, defense);
    }

    /// Arms (or clears) RFC 7873 cookie validation on the ingress gate
    /// already installed at `addr` (see
    /// [`crate::defense::IngressGate::set_cookie_secret`]).
    pub fn set_ingress_cookie_secret(&mut self, addr: Addr, secret: Option<u64>) {
        self.world.set_ingress_cookie_secret(addr, secret);
    }

    /// Installs a TCP listener on `addr` (see [`crate::tcp`]): the node
    /// behind it starts accepting connections, bounded by the config's
    /// table capacity.
    pub fn set_tcp_listener(&mut self, addr: Addr, config: TcpConfig) {
        self.world.set_tcp_listener(addr, config);
    }

    /// Cumulative TCP transport counters.
    pub fn tcp_stats(&self) -> TcpStats {
        self.world.tcp_stats()
    }

    /// TCP connections currently live (any state).
    pub fn tcp_conns_live(&self) -> u64 {
        self.world.tcp_conns_live()
    }

    /// Attaches a trace sink; every datagram arrival is reported to it.
    pub fn add_sink(&mut self, sink: SharedSink) {
        self.world.sinks.push(sink);
    }

    /// The network fabric.
    pub fn links_mut(&mut self) -> &mut LinkTable {
        self.world.links_mut()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// The world, for wiring up scenarios before or between runs.
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Run-wide defense drop accounting — what the sim/live parity test
    /// compares against a live server's gate ledger.
    pub fn defense_ledger(&self) -> DefenseLedger {
        self.world.defense_ledger()
    }

    /// Schedules `f` to mutate the world at time `at` — the hook attack
    /// scenarios use to start and stop loss filters.
    pub fn schedule_control(&mut self, at: SimTime, f: impl FnOnce(&mut World) + Send + 'static) {
        self.world.push(at, Event::Control(Box::new(f)));
    }

    /// Schedules a crash of `node` at time `at`: from then on its ingress
    /// traffic is dropped and timers it armed before the crash are
    /// suppressed. Crashing an already-down node is a no-op.
    pub fn schedule_node_down(&mut self, at: SimTime, node: NodeId) {
        assert!(
            (node.0 as usize) < self.nodes.len(),
            "cannot crash unknown node {node}"
        );
        self.world.push(at, Event::NodeDown { node });
    }

    /// Schedules a restart of `node` at time `at`. The node's
    /// [`Node::on_restart`] hook runs with `cold_cache` (wipe volatile
    /// state or keep it), then `on_start` re-arms its timers. Restarting
    /// a node that is not down is a no-op.
    pub fn schedule_node_up(&mut self, at: SimTime, node: NodeId, cold_cache: bool) {
        assert!(
            (node.0 as usize) < self.nodes.len(),
            "cannot restart unknown node {node}"
        );
        self.world.push(
            at,
            Event::NodeUp {
                node,
                cold: cold_cache,
            },
        );
    }

    /// Whether `node` is currently up (see `World::node_is_up`).
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.world.node_is_up(node)
    }

    /// Borrows a node back out (e.g. to read its final state after the
    /// run). Returns `None` for ids that were never assigned.
    pub fn node(&self, id: NodeId) -> Option<&dyn Node> {
        self.nodes
            .get(id.0 as usize)
            .and_then(|slot| slot.as_deref())
    }

    /// Ensures every node has had `on_start` called. Invoked automatically
    /// by the run methods; idempotent per node.
    pub(crate) fn start_pending(&mut self) {
        for idx in 0..self.nodes.len() {
            if self.started[idx] {
                continue;
            }
            self.started[idx] = true;
            let id = NodeId(idx as u32);
            let addr = self.world.addr_of(id);
            let mut node = self.nodes[idx].take().expect("node missing during start");
            node.on_start(&mut Context {
                world: &mut self.world,
                node: id,
                addr,
            });
            self.nodes[idx] = Some(node);
        }
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(entry) = self.world.queue.pop() else {
            return false;
        };
        debug_assert!(entry.at >= self.world.now, "time went backwards");
        // Snapshot boundaries are cut *before* the first event at or past
        // them is applied: a snapshot at t covers exactly the events with
        // time < t, independent of how events cluster around boundaries.
        if let Some(tel) = &self.telemetry {
            if entry.at >= tel.next_at {
                self.cut_due_snapshots(entry.at);
            }
        }
        self.world.now = entry.at;
        self.world.net.events_popped += 1;
        match entry.event {
            Event::Deliver(dgram) => self.deliver(dgram),
            Event::DeliverQueued {
                dgram,
                msg,
                node,
                local,
            } => {
                let wire_len = dgram.wire_len();
                self.hand_to_node(dgram.src, &msg, wire_len, node, local);
            }
            Event::Timer {
                node,
                token,
                id,
                epoch,
            } => {
                // The slot's pending event has left the queue either way:
                // invalidate the outstanding handle and recycle the slot.
                let live = self.world.timers.retire(id);
                if !live {
                    self.world.net.timers_cancelled += 1;
                    return true;
                }
                // A timer armed before a crash must not fire into the
                // node's next life (or while it is down).
                let nidx = node.0 as usize;
                if self.world.nodes.epoch[nidx] != epoch || !self.world.nodes.up[nidx] {
                    self.world.net.timers_suppressed_crash += 1;
                    return true;
                }
                self.world.net.timers_fired += 1;
                self.dispatch_timer(node, token);
            }
            Event::NodeDown { node } => {
                let nidx = node.0 as usize;
                if self.world.nodes.up[nidx] {
                    self.world.nodes.up[nidx] = false;
                    // Bump the epoch at crash time: everything armed in
                    // this life is now stale, whether or not the node
                    // ever comes back.
                    self.world.nodes.epoch[nidx] = self.world.nodes.epoch[nidx].wrapping_add(1);
                    self.world.net.node_crashes += 1;
                    // Sever every TCP connection the crashed node was
                    // party to (RST to surviving peers). A no-op — zero
                    // RNG draws — in runs without connections.
                    self.world.reset_conns_of(node);
                }
            }
            Event::NodeUp { node, cold } => {
                let nidx = node.0 as usize;
                if !self.world.nodes.up[nidx] {
                    self.world.nodes.up[nidx] = true;
                    self.world.net.node_restarts += 1;
                    self.restart_node(node, cold);
                }
            }
            Event::Control(f) => {
                self.world.net.control_events += 1;
                f(&mut self.world)
            }
            Event::TcpSyn { conn } => self.tcp_syn(conn),
            Event::TcpOpen { conn } => self.tcp_open(conn),
            Event::TcpMsg {
                conn,
                msg,
                wire_len,
                to_server,
            } => self.tcp_msg(conn, &msg, wire_len, to_server),
            Event::TcpFin {
                conn,
                notify,
                epoch,
                reset,
            } => self.tcp_fin(conn, notify, epoch, reset),
            Event::TcpIdle { conn, stamp } => self.tcp_idle(conn, stamp),
        }
        true
    }

    /// SYN arrival at the dialed address: accept (table slot allocated,
    /// SYN-ACK back), refuse with RST (no listener, or table full), or —
    /// when the server node is down — silence, leaving the dialer to its
    /// own connect timeout.
    fn tcp_syn(&mut self, conn: u64) {
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
                self.world.push(now + delay, Event::TcpOpen { conn });
                self.world
                    .push(now + idle_timeout, Event::TcpIdle { conn, stamp: now });
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
                        now + delay,
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
    fn tcp_open(&mut self, conn: u64) {
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
        self.dispatch_tcp(client, |node, ctx| {
            node.on_tcp_connected(ctx, TcpConnId(conn), server_addr)
        });
    }

    /// Message delivery over an established connection.
    fn tcp_msg(&mut self, conn: u64, msg: &Message, wire_len: usize, to_server: bool) {
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
            self.world
                .push(now + idle, Event::TcpIdle { conn, stamp: now });
        }
        if !self.world.nodes.up[target.0 as usize] {
            return; // crash teardown races: conn removal is same-instant
        }
        self.dispatch_tcp(target, |node, ctx| {
            node.on_tcp_message(ctx, TcpConnId(conn), peer_addr, msg, wire_len)
        });
    }

    /// Teardown notification (FIN/RST) reaching the surviving peer.
    fn tcp_fin(&mut self, conn: u64, notify: NodeId, epoch: u32, reset: bool) {
        let nidx = notify.0 as usize;
        if !self.world.nodes.up[nidx] || self.world.nodes.epoch[nidx] != epoch {
            return; // the peer crashed (or restarted) in the meantime
        }
        self.dispatch_tcp(notify, |node, ctx| {
            node.on_tcp_closed(ctx, TcpConnId(conn), reset)
        });
    }

    /// Idle-timeout probe: reaps the connection iff nothing moved since
    /// the probe was armed (later activity re-armed a fresher probe).
    fn tcp_idle(&mut self, conn: u64, stamp: SimTime) {
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
            let now = self.world.now;
            let delay = self.world.path_delay(server_addr, client_addr);
            self.world.push(
                now + delay,
                Event::TcpFin {
                    conn,
                    notify: client,
                    epoch,
                    reset: false,
                },
            );
        }
    }

    /// Checks a node out of the registry, runs a TCP hook against the
    /// world, and puts it back — the `dispatch_timer` pattern.
    fn dispatch_tcp(&mut self, id: NodeId, f: impl FnOnce(&mut Box<dyn Node>, &mut Context<'_>)) {
        let idx = id.0 as usize;
        let Some(mut node) = self.nodes[idx].take() else {
            return;
        };
        let addr = self.world.addr_of(id);
        f(
            &mut node,
            &mut Context {
                world: &mut self.world,
                node: id,
                addr,
            },
        );
        self.nodes[idx] = Some(node);
    }

    fn deliver(&mut self, dgram: Datagram) {
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
            let ambient =
                params.loss > 0.0 && rand::RngExt::random_bool(rng, params.loss.clamp(0.0, 1.0));
            let mut attack = links.ingress_loss(dgram.dst);
            if let Some(site) = site_filter_addr {
                attack = attack.max(links.ingress_loss(site));
            }
            let attack = attack > 0.0 && rand::RngExt::random_bool(rng, attack);
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

        // Decode once, at ingress; sinks, the queueing stage, and the
        // destination node all reuse this one Message (decode-once
        // invariant, DESIGN.md §5.2). A payload our own codec rejects is
        // counted and dropped rather than aborting the run — one bad
        // packet must not kill a sweep arm.
        let msg = match dgram.message() {
            Ok(m) => {
                self.world.net.datagrams_decoded += 1;
                self.world.net.bytes_decoded += wire_len as u64;
                Some(m)
            }
            Err(_) => None,
        };

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
            .observe(dgram.src, dgram.dst, msg.as_ref(), wire_len, disposition);
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

        // Ingress defense pipeline (classifier → admission → RRL; see
        // `crate::defense` and `dike-defense`). Evaluated in front of the
        // *site*, like the queue below. `defense_count` keeps the
        // undefended common case to one branch, and like queue drops,
        // defense drops happen after the Delivered accounting above —
        // they stay inside the conservation ledger, broken out by cause.
        let now = self.world.now;
        let site_addr = site_filter_addr.unwrap_or(dgram.dst);
        // The wait a queueing stage imposed, once one has taken the query.
        let mut wait = None;
        if self.world.defense_count > 0 {
            match self
                .world
                .defense_mut(site_addr)
                .map(|gate| gate.on_query(now, dgram.src, &msg))
            {
                None | Some(GateAction::Deliver) => {}
                // The defense's class scheduler is the queue: skip the
                // plain ingress queue below.
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

        // Ingress service queue (the paper's future-work queueing model):
        // the queue sits in front of the *site*, so anycast looks up the
        // member's unicast address, unicast the destination itself.
        // `queue_count` keeps the no-queues common case to one branch.
        if wait.is_none() && self.world.queue_count > 0 {
            if let Some(q) = self.world.queue_mut(site_addr) {
                match q.offer(now) {
                    QueueOutcome::Dropped => {
                        // Already observed as Delivered above (it passed the
                        // random-loss filters); report the queue drop too so
                        // sinks can distinguish. Simplest faithful model:
                        // count it as a drop at the ingress.
                        self.world.net.queue_drops += 1;
                        self.world.nodes.dropped[id.0 as usize] += 1;
                        return;
                    }
                    QueueOutcome::Enqueued(delay) => wait = Some(delay),
                }
            }
        }
        match wait {
            Some(delay) if delay > SimDuration::ZERO => self.world.push(
                now + delay,
                Event::DeliverQueued {
                    dgram,
                    msg: Box::new(msg),
                    node: id,
                    local,
                },
            ),
            _ => self.hand_to_node(dgram.src, &msg, wire_len, id, local),
        }
    }

    /// Hands a datagram that has cleared every ingress stage (directly,
    /// or after its wait in a service or defense queue) to its node.
    /// Takes the message decoded at ingress — this path never re-decodes.
    fn hand_to_node(&mut self, src: Addr, msg: &Message, wire_len: usize, id: NodeId, local: Addr) {
        let idx = id.0 as usize;
        self.world.nodes.delivered[idx] += 1;
        let Some(mut node) = self.nodes[idx].take() else {
            return; // node is mid-dispatch; cannot happen single-threaded
        };
        node.on_datagram(
            &mut Context {
                world: &mut self.world,
                node: id,
                addr: local,
            },
            src,
            msg,
            wire_len,
        );
        self.nodes[idx] = Some(node);
    }

    /// Runs the restart sequence on a node that just came back up:
    /// `on_restart(cold)` first (drop in-flight work, optionally wipe
    /// caches), then `on_start` to re-arm its initial timers in the new
    /// epoch.
    fn restart_node(&mut self, id: NodeId, cold: bool) {
        let idx = id.0 as usize;
        let Some(mut node) = self.nodes[idx].take() else {
            return;
        };
        node.on_restart(cold);
        let addr = self.world.addr_of(id);
        node.on_start(&mut Context {
            world: &mut self.world,
            node: id,
            addr,
        });
        self.nodes[idx] = Some(node);
    }

    fn dispatch_timer(&mut self, id: NodeId, token: TimerToken) {
        let idx = id.0 as usize;
        let Some(mut node) = self.nodes[idx].take() else {
            return;
        };
        let addr = self.world.addr_of(id);
        node.on_timer(
            &mut Context {
                world: &mut self.world,
                node: id,
                addr,
            },
            token,
        );
        self.nodes[idx] = Some(node);
    }

    /// Runs until the queue is empty. With telemetry attached, a final
    /// snapshot is cut at the time of the last event.
    pub fn run_until_idle(&mut self) {
        let t0 = std::time::Instant::now();
        self.start_pending();
        while self.step() {}
        self.cut_final_snapshots(self.world.now);
        self.wall_nanos += t0.elapsed().as_nanos() as u64;
    }

    /// Runs until the clock reaches `deadline` (events at exactly
    /// `deadline` are processed) or the queue empties. With telemetry
    /// attached, all due boundaries plus a final snapshot are cut at
    /// `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        let t0 = std::time::Instant::now();
        self.start_pending();
        while let Some(at) = self.world.queue.next_at() {
            if at > deadline {
                break;
            }
            self.step();
        }
        if self.world.now < deadline {
            self.world.now = deadline;
        }
        self.cut_final_snapshots(deadline);
        self.wall_nanos += t0.elapsed().as_nanos() as u64;
    }

    /// A fresh simulator for one shard of a sharded world (see
    /// [`crate::shard`]): it owns the slice of the global node space
    /// starting at `cfg.starts[cfg.id]`, gives every node its own RNG
    /// stream, clamps all one-way delays to `cfg.floor`, and parks
    /// datagrams bound for other shards in per-destination outboxes.
    ///
    /// # Panics
    /// Panics on an inconsistent config (id out of range, unsorted
    /// starts, zero floor).
    pub fn new_sharded(seed: u64, cfg: ShardConfig) -> Self {
        let k = cfg.starts.len();
        assert!(cfg.id < k, "shard id {} out of range 0..{k}", cfg.id);
        assert!(
            cfg.starts.windows(2).all(|w| w[0] < w[1]) && cfg.starts[0] == FIRST_ADDR,
            "shard starts must ascend from FIRST_ADDR"
        );
        assert!(
            cfg.floor > SimDuration::ZERO,
            "the propagation floor (lookahead) must be positive"
        );
        let mut sim = Simulator::new(seed);
        sim.world.first_addr = cfg.starts[cfg.id];
        sim.world.shard = Some(Box::new(ShardState {
            id: cfg.id,
            starts: cfg.starts,
            floor: cfg.floor,
            seed,
            rngs: Vec::new(),
            outbox: (0..k).map(|_| Vec::new()).collect(),
            xshard_out: 0,
            xshard_in: 0,
        }));
        sim
    }

    /// `(id, shard count, floor)` when this simulator is a shard of a
    /// sharded world; `None` for a plain simulator.
    pub(crate) fn shard_params(&self) -> Option<(usize, usize, SimDuration)> {
        self.world
            .shard
            .as_deref()
            .map(|s| (s.id, s.starts.len(), s.floor))
    }

    /// Time of the earliest pending event, if any — what a shard
    /// publishes at the window barrier.
    pub(crate) fn next_event_at(&mut self) -> Option<SimTime> {
        self.world.queue.next_at()
    }

    /// Runs every pending event strictly before `end` (the half-open
    /// conservative window `[_, end)`). Unlike [`Simulator::run_until`]
    /// this neither advances the clock to `end` nor cuts telemetry
    /// snapshots — the barrier loop calls it once per window and
    /// [`Simulator::finish_window_run`] closes the run out.
    pub(crate) fn run_window(&mut self, end: SimTime) {
        self.start_pending();
        while let Some(at) = self.world.queue.next_at() {
            if at >= end {
                break;
            }
            self.step();
        }
    }

    /// Closes out a windowed run: advances the clock to `deadline` like
    /// [`Simulator::run_until`] does after its loop.
    pub(crate) fn finish_window_run(&mut self, deadline: SimTime) {
        if self.world.now < deadline {
            self.world.now = deadline;
        }
    }

    /// Takes the accumulated cross-shard outboxes (one bin per
    /// destination shard), leaving them empty.
    ///
    /// # Panics
    /// Panics on a plain (non-sharded) simulator.
    pub(crate) fn take_outboxes(&mut self) -> Vec<Vec<Envelope>> {
        let s = self
            .world
            .shard
            .as_deref_mut()
            .expect("take_outboxes on a non-sharded simulator");
        s.outbox.iter_mut().map(std::mem::take).collect()
    }

    /// Injects envelopes received from other shards, already merged in
    /// the fixed cross-shard order. Arrival times must not be in this
    /// shard's past — the conservative window guarantees it.
    pub(crate) fn inject_envelopes(&mut self, envelopes: Vec<Envelope>) {
        if let Some(s) = self.world.shard.as_deref_mut() {
            s.xshard_in += envelopes.len() as u64;
        }
        for env in envelopes {
            debug_assert!(
                env.at >= self.world.now,
                "cross-shard envelope arrived in the past: {} < {}",
                env.at,
                self.world.now
            );
            self.world.push(
                env.at,
                Event::Deliver(Datagram {
                    src: env.src,
                    dst: env.dst,
                    payload: env.payload,
                }),
            );
        }
    }

    /// Tears a *never-run* simulator apart into its nodes and fabric —
    /// the staging step of sharded experiment setup: build the full
    /// topology into one plain simulator, dismantle it, and deal the
    /// node slices out to per-shard simulators.
    ///
    /// # Panics
    /// Panics if the simulator has already started (processed events or
    /// run `on_start` hooks) — a running world cannot be repartitioned.
    pub fn dismantle(self) -> (Vec<Box<dyn Node>>, LinkTable) {
        assert!(
            self.world.net.events_popped == 0 && self.started.iter().all(|s| !s),
            "dismantle requires an unstarted simulator"
        );
        let nodes = self
            .nodes
            .into_iter()
            .map(|slot| slot.expect("node missing from an unstarted registry"))
            .collect();
        (nodes, self.world.links)
    }

    /// Wall-clock throughput summary of the run so far: the deterministic
    /// volume counters plus the wall time spent inside the run methods.
    /// Deliberately *not* part of the telemetry registry, which must stay
    /// bit-identical across same-seed runs.
    pub fn perf(&self) -> SimPerf {
        let net = &self.world.net;
        SimPerf {
            events_popped: net.events_popped,
            datagrams_sent: net.datagrams_sent,
            datagrams_delivered: net.datagrams_delivered,
            datagrams_decoded: net.datagrams_decoded,
            datagrams_undecodable: net.datagrams_undecodable,
            bytes_encoded: net.bytes_encoded,
            bytes_decoded: net.bytes_decoded,
            wall_nanos: self.wall_nanos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LatencyModel, LinkParams};
    use crate::trace::{shared, CountingTrace, MemoryTrace};
    use dike_wire::{Message, Name, RecordType};

    /// A node that answers every query with an empty NOERROR response.
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

        fn on_datagram(
            &mut self,
            ctx: &mut Context<'_>,
            _src: Addr,
            msg: &Message,
            _wire_len: usize,
        ) {
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
            got_reply: std::sync::Arc<parking_lot::Mutex<bool>>,
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

        let early_ok = std::sync::Arc::new(parking_lot::Mutex::new(false));
        let late_ok = std::sync::Arc::new(parking_lot::Mutex::new(false));
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
            fired: std::sync::Arc<parking_lot::Mutex<Vec<u64>>>,
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

        let fired = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
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
            .expect("registry not poisoned")
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
        sim.set_ingress_defense(
            echo_addr,
            Box::new(DelayAll(SimDuration::from_millis(3), QueueClass::Known)),
        );
        let reg = dike_telemetry::shared_registry();
        sim.attach_telemetry(reg.clone(), dike_telemetry::TelemetryConfig::every_secs(1));
        sim.run_until(SimDuration::from_secs(2).after_zero());
        drop(sim);
        let reg = std::sync::Arc::try_unwrap(reg)
            .expect("simulator dropped its registry handle")
            .into_inner()
            .expect("registry not poisoned");

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
        sim.set_ingress_defense(echo_addr, Box::new(EveryVerdict(0)));
        let reg = dike_telemetry::shared_registry();
        sim.attach_telemetry(reg.clone(), dike_telemetry::TelemetryConfig::every_secs(1));
        sim.run_until(SimDuration::from_secs(2).after_zero());
        let ledger = sim.defense_ledger();
        drop(sim);
        let reg = std::sync::Arc::try_unwrap(reg)
            .expect("simulator dropped its registry handle")
            .into_inner()
            .expect("registry not poisoned");

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
        sim.set_ingress_defense(echo_addr, Box::new(EveryVerdict(0)));
        sim.set_ingress_cookie_secret(echo_addr, Some(0x5ec2e7));
        sim.run_until(SimDuration::from_secs(1).after_zero());
        let first_life = sim.defense_ledger();
        assert_eq!(first_life.defense_drops, 15);

        sim.set_ingress_defense(
            echo_addr,
            Box::new(DelayAll(SimDuration::from_millis(3), QueueClass::Known)),
        );
        ping(&mut sim, echo_addr, 5);
        sim.run_until(SimDuration::from_secs(2).after_zero());

        assert_eq!(
            sim.defense_ledger(),
            first_life,
            "the second engine drops nothing; the first engine's drops stay"
        );
        let delays = sim.world_mut().defense_queue_delays();
        assert_eq!(delays[QueueClass::Flagged.index()].count(), 3);
        assert_eq!(delays[QueueClass::Known.index()].count(), 5);
        let gate = sim.world_mut().defense_mut(echo_addr).expect("defended");
        assert_eq!(gate.cookie_secret(), Some(0x5ec2e7));
        sim.audit().assert_clean();
    }

    /// A TCP-capable echo: answers stream queries in place, over the
    /// same connection.
    struct TcpEcho;

    impl Node for TcpEcho {
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
        log: std::sync::Arc<parking_lot::Mutex<Vec<(String, u64)>>>,
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

        fn on_tcp_closed(
            &mut self,
            ctx: &mut Context<'_>,
            _conn: crate::tcp::TcpConnId,
            reset: bool,
        ) {
            self.log(ctx, if reset { "reset" } else { "fin" });
        }
    }

    fn tcp_log() -> std::sync::Arc<parking_lot::Mutex<Vec<(String, u64)>>> {
        std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()))
    }

    #[test]
    fn tcp_handshake_costs_one_rtt_and_per_conn_cost_applies() {
        let mut sim = Simulator::new(21);
        fixed_fabric(&mut sim, 10);
        let (_, server_addr) = sim.add_node(Box::new(TcpEcho));
        sim.set_tcp_listener(
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
        let stats = sim.tcp_stats();
        assert_eq!(stats.opened, 1);
        assert_eq!(stats.closed, 1);
        assert_eq!(stats.reset, 0);
        assert_eq!(stats.messages, 2);
        assert_eq!(sim.tcp_conns_live(), 0);
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
        let stats = sim.tcp_stats();
        assert_eq!((stats.opened, stats.reset, stats.syn_refused), (1, 1, 1));
        assert_eq!(sim.tcp_conns_live(), 0);
        sim.audit().assert_clean();
    }

    #[test]
    fn tcp_table_full_sheds_handshakes_but_udp_still_served() {
        let mut sim = Simulator::new(23);
        fixed_fabric(&mut sim, 10);
        let (_, server_addr) = sim.add_node(Box::new(TcpEcho));
        sim.set_tcp_listener(
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
        let stats = sim.tcp_stats();
        assert_eq!(stats.syn_refused, 1, "second handshake shed with RST");
        // Same-instant SYNs race deterministically: exactly one of the
        // two dialers connected, the other saw a reset.
        let connected = |l: &std::sync::Arc<parking_lot::Mutex<Vec<(String, u64)>>>| {
            l.lock().iter().any(|(e, _)| e == "connected")
        };
        let was_reset = |l: &std::sync::Arc<parking_lot::Mutex<Vec<(String, u64)>>>| {
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
        sim.set_tcp_listener(
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
        assert_eq!(sim.world_mut().tcp_listener_open(server_addr), Some(0));
        let stats = sim.tcp_stats();
        assert_eq!((stats.opened, stats.closed, stats.reset), (1, 1, 0));
        sim.audit().assert_clean();
    }

    #[test]
    fn tcp_server_crash_resets_connections_and_conserves() {
        let mut sim = Simulator::new(25);
        fixed_fabric(&mut sim, 10);
        let (server_id, server_addr) = sim.add_node(Box::new(TcpEcho));
        sim.set_tcp_listener(
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
        let stats = sim.tcp_stats();
        assert_eq!((stats.opened, stats.closed, stats.reset), (1, 0, 1));
        assert_eq!(sim.tcp_conns_live(), 0);
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
        assert_eq!(sim.tcp_stats(), crate::tcp::TcpStats::default());
        assert_eq!(sim.tcp_conns_live(), 0);
        sim.audit().assert_clean();
    }
}

//! The simulator: node registry, event loop, and the [`World`] that nodes
//! and control events mutate.
//!
//! This file is the engine's core — [`Simulator`], the [`World`]'s clock,
//! queue, RNG, send path, timers and sinks, [`Simulator::step`], the
//! node-dispatch helpers and the run loops. Everything else that reaches
//! into the world's private state is a child module: the ingress stages
//! (`ingress`), the TCP state machine ([`tcp`]), the telemetry cuts
//! (`telemetry`), the sharded engine's plumbing ([`shard`]) and the
//! auditor ([`audit`]).

use std::fmt;
use std::sync::Arc;

use dike_telemetry::hash::FastMap;
use dike_telemetry::rng::Rng;
use dike_wire::codec::EncodeBuffer;
use dike_wire::Message;

use crate::addr::{Addr, NodeId};
use crate::anycast::AnycastTable;
use crate::datagram::Datagram;
use crate::defense::IngressGate;
use crate::event::{Event, EventQueue};
use crate::link::LinkTable;
use crate::node::{Context, Node, NodeHotState, TimerId, TimerSlab, TimerToken};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Disposition, SharedSink};

pub mod audit;
mod ingress;
pub mod shard;
pub mod tcp;
mod telemetry;

use shard::{rng_stream, Envelope, ShardState};
use tcp::TcpWorld;
use telemetry::Telemetry;

/// First address handed out by [`Simulator::add_node`]: `10.0.0.1`.
pub(crate) const FIRST_ADDR: u32 = 0x0a00_0001;

/// First anycast VIP handed out by [`Simulator::add_anycast_group`]:
/// `198.18.0.1` (benchmarking range, far from the unicast pool).
pub(crate) const FIRST_VIP: u32 = 0xc612_0001;

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
    /// Arrivals whose payload decoded at ingress (the decode-once
    /// invariant means this equals arrivals, and equals deliveries in a
    /// loss-free run), whether the codec ran or a resent payload's
    /// decode was reused.
    datagrams_decoded: u64,
    /// Codec calls at ingress: one per arrival, except that a sender's
    /// resent payload is decoded once (see `World::decode`). Kept out of
    /// telemetry.
    decode_calls: u64,
    /// Payloads the codec rejected at ingress; traced as
    /// [`Disposition::Malformed`] and dropped.
    datagrams_undecodable: u64,
    /// Octets produced by the pooled encoder.
    bytes_encoded: u64,
    /// Octets of the payloads counted in `datagrams_decoded`.
    bytes_decoded: u64,
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

/// Everything in the simulation except the nodes themselves. Split out so
/// a node can be taken off the registry and run against `&mut World`
/// without borrow gymnastics.
pub struct World {
    now: SimTime,
    queue: EventQueue,
    links: LinkTable,
    rng: Rng,
    /// First unicast address owned by this world: [`FIRST_ADDR`] for a
    /// plain world, the shard's slice start for a sharded one.
    first_addr: u32,
    /// Sharded-engine state; `None` in a plain (legacy) world, which
    /// keeps every legacy code path — and the pinned digest — untouched.
    shard: Option<Box<ShardState>>,
    sinks: Vec<SharedSink>,
    anycast: AnycastTable,
    next_vip: u32,
    /// Ingress gates (defense and service queue), dense-indexed like
    /// nodes (`addr - FIRST_ADDR`); the `gate_count == 0` fast path
    /// keeps the ungated hot path to one branch (see [`crate::defense`]).
    /// Each [`IngressGate`] owns its own accounting, and a gate is never
    /// removed — a replacement swaps the engine or queue inside it — so
    /// run totals are the sum over this table.
    gates: Vec<Option<IngressGate>>,
    gate_count: usize,
    /// Generation-stamped timer slots. A [`TimerId`] packs `(gen, slot)`;
    /// cancellation bumps the slot's generation so the already-queued event
    /// is recognized as stale when it pops — O(1), no tombstone set.
    timers: TimerSlab,
    /// Pooled wire encoder: one per run, so steady-state sends are
    /// allocation-free and payloads are refcounted slices of pool chunks.
    encoder: EncodeBuffer,
    /// Per sender, the last payload that arrived while shared (its
    /// sender kept the bytes to resend them) and its decode, which the
    /// sender's next arrival of the same allocation reuses. The entry
    /// holds a clone of the payload, so its address cannot be reused
    /// while the entry lives.
    resent: FastMap<Addr, (Arc<[u8]>, Arc<Message>)>,
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

    /// The network fabric, for installing loss filters and access latency.
    pub fn links_mut(&mut self) -> &mut LinkTable {
        &mut self.links
    }

    /// Read-only fabric access.
    pub fn links(&self) -> &LinkTable {
        &self.links
    }

    /// The RNG stream for `node` (see [`rng_stream`]).
    pub(crate) fn rng_for(&mut self, node: NodeId) -> &mut Rng {
        rng_stream(&mut self.shard, &mut self.rng, node.0 as usize)
    }

    /// The address of `node`.
    pub(crate) fn addr_of(&self, node: NodeId) -> Addr {
        self.nodes.addr[node.0 as usize]
    }

    /// The node behind `addr`, if any (unicast only; an anycast address
    /// resolves per source, by catchment). O(1): unicast addresses are
    /// assigned densely from `FIRST_ADDR`, so this is arithmetic, not a
    /// map lookup.
    pub(crate) fn node_at(&self, addr: Addr) -> Option<NodeId> {
        let idx = addr.0.wrapping_sub(self.first_addr);
        ((idx as usize) < self.nodes.len()).then_some(NodeId(idx))
    }

    /// Dense index for per-address state (gates): `addr - first_addr`
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

    /// The instant `delay` after now, for an `event` at `node`.
    ///
    /// # Panics
    /// Panics, naming the event, its node and the instant, if that
    /// instant is past the end of simulated time. Saturating there
    /// instead would hold the clock at its last instant: a timer that
    /// re-arms would fire at that instant forever.
    fn after(&self, delay: SimDuration, event: &str, node: impl fmt::Display) -> SimTime {
        self.now.checked_add(delay).unwrap_or_else(|| {
            panic!(
                "{event} at {node}: {delay} after now {} is past the end of simulated time",
                self.now
            )
        })
    }

    fn push(&mut self, at: SimTime, event: Event) {
        self.queue.push(at, event);
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
    pub(crate) fn encode(&mut self, msg: &Message) -> Arc<[u8]> {
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
        let idx = src.0.wrapping_sub(self.first_addr) as usize;
        let rng = rng_stream(&mut self.shard, &mut self.rng, idx);
        let mut delay = self.links.params(src, dst).latency.sample(rng);
        let factor = self.links.latency_factor(dst);
        if factor != 1.0 {
            delay = SimDuration::from_nanos((delay.as_nanos() as f64 * factor) as u64);
        }
        match self.shard.as_deref() {
            Some(s) => delay.max(s.floor),
            None => delay,
        }
    }

    /// Queues a datagram: samples the path delay now, evaluates loss at
    /// arrival (see [`Simulator::step`]). In a sharded world a datagram
    /// whose destination lives on another shard is parked in that
    /// shard's outbox instead (counted `xshard_out`), to be exchanged at
    /// the next round barrier; the earliest such arrival bounds how far
    /// this shard may run before then (see [`crate::shard`]).
    pub(crate) fn send_datagram(&mut self, src: Addr, dst: Addr, payload: Arc<[u8]>) {
        self.net.datagrams_sent += 1;
        let delay = self.path_delay(src, dst);
        let at = self.after(delay, "delivery", dst);
        if let Some(s) = self.shard.as_deref_mut() {
            let target = s.shard_of(dst);
            if target != s.id {
                s.xshard_out += 1;
                s.parked_min = s.parked_min.min(at.as_nanos());
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
        let at = self.after(delay, "timer", node);
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

/// The deterministic discrete-event simulator.
///
/// A run is fully determined by the seed, the nodes added, and the
/// scheduled control events; re-running with the same inputs produces the
/// identical event sequence.
pub struct Simulator {
    nodes: Vec<Option<Box<dyn Node>>>,
    /// Nodes `[0, started_upto)` have had `on_start` called. Nodes are
    /// append-only and start in index order, so one watermark says it
    /// all and [`Simulator::start_pending`] is O(1) when nothing is new.
    started_upto: usize,
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
    /// Arrivals whose payload decoded at ingress (== arrivals under
    /// decode-once), reused decodes of a resent payload included.
    pub datagrams_decoded: u64,
    /// Codec calls at ingress: `datagrams_decoded + datagrams_undecodable`
    /// less the arrivals that reused their sender's decode of the same
    /// resent payload.
    pub decode_calls: u64,
    /// Payloads rejected by the codec at ingress.
    pub datagrams_undecodable: u64,
    /// Octets produced by the pooled encoder.
    pub bytes_encoded: u64,
    /// Octets of the payloads counted in `datagrams_decoded`.
    pub bytes_decoded: u64,
    /// Synchronisation rounds (barrier crossings) of the sharded engine,
    /// identical on every shard; 0 on the plain engine.
    pub sync_rounds: u64,
    /// Wall-clock nanoseconds spent inside `run_until`/`run_until_idle`.
    pub wall_nanos: u64,
}

impl Simulator {
    /// A fresh simulator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Simulator {
            nodes: Vec::new(),
            started_upto: 0,
            world: World {
                now: SimTime::ZERO,
                queue: EventQueue::default(),
                links: LinkTable::default(),
                rng: Rng::seed_from_u64(seed),
                first_addr: FIRST_ADDR,
                shard: None,
                sinks: Vec::new(),
                anycast: AnycastTable::new(),
                next_vip: FIRST_VIP,
                gates: Vec::new(),
                gate_count: 0,
                timers: TimerSlab::default(),
                encoder: EncodeBuffer::new(),
                resent: FastMap::default(),
                net: NetStats::default(),
                nodes: NodeHotState::default(),
                tcp: TcpWorld::default(),
            },
            telemetry: None,
            wall_nanos: 0,
        }
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
        self.world.nodes.push(addr);
        if let Some(s) = self.world.shard.as_deref_mut() {
            let global = (addr.0 - FIRST_ADDR) as u64;
            s.rngs
                .push(Rng::seed_from_u64(crate::shard::mix_seed(s.seed, global)));
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

    /// Schedules `f` to mutate the world at time `at` — the hook attack
    /// scenarios use to start and stop loss filters.
    ///
    /// # Panics
    /// Panics if `at` is before [`Simulator::now`].
    pub fn schedule_control(&mut self, at: SimTime, f: impl FnOnce(&mut World) + Send + 'static) {
        self.assert_not_past("schedule_control", at);
        self.world.push(at, Event::Control(Box::new(f)));
    }

    /// Panics, naming `call`, if `at` is before the clock: an event there
    /// would run with `now()` moving backwards.
    fn assert_not_past(&self, call: &str, at: SimTime) {
        let now = self.world.now;
        assert!(at >= now, "{call}: at {at} is before now {now}");
    }

    /// Schedules a crash of `node` at time `at`: from then on its ingress
    /// traffic is dropped and timers it armed before the crash are
    /// suppressed. Crashing an already-down node is a no-op.
    ///
    /// # Panics
    /// Panics on an unknown node, or if `at` is before [`Simulator::now`].
    pub fn schedule_node_down(&mut self, at: SimTime, node: NodeId) {
        assert!(
            (node.0 as usize) < self.nodes.len(),
            "cannot crash unknown node {node}"
        );
        self.assert_not_past("schedule_node_down", at);
        self.world.push(at, Event::NodeDown { node });
    }

    /// Schedules a restart of `node` at time `at`. The node's
    /// [`Node::on_restart`] hook runs with `cold_cache` (wipe volatile
    /// state or keep it), then `on_start` re-arms its timers. Restarting
    /// a node that is not down is a no-op.
    ///
    /// # Panics
    /// Panics on an unknown node, or if `at` is before [`Simulator::now`].
    pub fn schedule_node_up(&mut self, at: SimTime, node: NodeId, cold_cache: bool) {
        assert!(
            (node.0 as usize) < self.nodes.len(),
            "cannot restart unknown node {node}"
        );
        self.assert_not_past("schedule_node_up", at);
        self.world.push(
            at,
            Event::NodeUp {
                node,
                cold: cold_cache,
            },
        );
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
        while self.started_upto < self.nodes.len() {
            let idx = self.started_upto;
            self.started_upto += 1;
            let id = NodeId(idx as u32);
            self.dispatch(id, self.world.addr_of(id), |node, ctx| node.on_start(ctx));
        }
    }

    /// Checks node `id` out of the registry, runs `f` on it with a
    /// [`Context`] that sends from `addr`, and puts it back. A node that
    /// is already checked out is skipped (cannot happen single-threaded).
    fn dispatch(
        &mut self,
        id: NodeId,
        addr: Addr,
        f: impl FnOnce(&mut dyn Node, &mut Context<'_>),
    ) {
        let idx = id.0 as usize;
        let Some(mut node) = self.nodes[idx].take() else {
            return;
        };
        f(
            &mut *node,
            &mut Context {
                world: &mut self.world,
                node: id,
                addr,
            },
        );
        self.nodes[idx] = Some(node);
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.world.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.world.now, "time went backwards");
        // Snapshot boundaries are cut *before* the first event at or past
        // them is applied: a snapshot at t covers exactly the events with
        // time < t, independent of how events cluster around boundaries.
        if let Some(tel) = &self.telemetry {
            if tel.next_at.is_some_and(|next| at >= next) {
                self.cut_due_snapshots(at);
            }
        }
        self.world.now = at;
        self.world.net.events_popped += 1;
        match event {
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

    /// Hands a datagram that has cleared every ingress stage (directly,
    /// or after its wait in a service or defense queue) to its node.
    /// Takes the message decoded at ingress — this path never re-decodes.
    fn hand_to_node(&mut self, src: Addr, msg: &Message, wire_len: usize, id: NodeId, local: Addr) {
        self.world.nodes.delivered[id.0 as usize] += 1;
        self.dispatch(id, local, |node, ctx| {
            node.on_datagram(ctx, src, msg, wire_len)
        });
    }

    /// Runs the restart sequence on a node that just came back up:
    /// `on_restart(cold)` first (drop in-flight work, optionally wipe
    /// caches), then `on_start` to re-arm its initial timers in the new
    /// epoch.
    fn restart_node(&mut self, id: NodeId, cold: bool) {
        self.dispatch(id, self.world.addr_of(id), |node, ctx| {
            node.on_restart(cold);
            node.on_start(ctx);
        });
    }

    fn dispatch_timer(&mut self, id: NodeId, token: TimerToken) {
        self.dispatch(id, self.world.addr_of(id), |node, ctx| {
            node.on_timer(ctx, token)
        });
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
        while let Some(at) = self.world.queue.peek() {
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
            decode_calls: net.decode_calls,
            datagrams_undecodable: net.datagrams_undecodable,
            bytes_encoded: net.bytes_encoded,
            bytes_decoded: net.bytes_decoded,
            sync_rounds: 0,
            wall_nanos: self.wall_nanos,
        }
    }
}

#[cfg(test)]
mod tests;

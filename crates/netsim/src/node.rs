//! The node programming model: the [`Node`] trait and the [`Context`]
//! handed to nodes while they run.

use std::sync::Arc;

use dike_telemetry::rng::Rng;
use dike_wire::Message;

use crate::addr::{Addr, NodeId};
use crate::sim::World;
use crate::time::{SimDuration, SimTime};

/// Opaque payload a node attaches to its timers so it can tell them apart
/// when they fire (e.g. "retry query #17" vs "expire cache sweep").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

/// Handle for cancelling a pending timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) u64);

/// A simulated host. Nodes are single-threaded state machines driven by
/// datagram arrivals and timer expirations — nothing else.
///
/// `Send` is a supertrait: the sharded engine ([`crate::shard`]) moves
/// each shard's node registry onto its own worker thread. Nodes still
/// run strictly single-threaded — one shard, one thread, one event at a
/// time — so no implementation needs interior synchronization; shared
/// handles (logs, sinks) just have to be `Arc`-based rather than `Rc`.
pub trait Node: Send {
    /// Optional downcast hook so experiments can inspect concrete node
    /// state (cache dumps, statistics) after a run. Nodes that want to be
    /// inspectable return `Some(self)`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Called once when the simulation starts, before any other event;
    /// schedule initial timers here.
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Called when the node comes back from a crash
    /// ([`crate::Simulator::schedule_node_up`]), *before* `on_start`
    /// re-arms its timers. `cold_cache` says whether the restart loses
    /// volatile state: implementations must drop in-flight work either
    /// way (the pre-crash timers driving it are suppressed) and
    /// additionally wipe caches when `cold_cache` is set. The default
    /// does nothing, which is only correct for stateless nodes.
    fn on_restart(&mut self, cold_cache: bool) {
        let _ = cold_cache;
    }

    /// A datagram arrived. `wire_len` is the encoded payload size.
    fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, wire_len: usize);

    /// A previously set (and not cancelled) timer fired.
    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken);

    /// A connection this node dialed with [`Context::tcp_connect`]
    /// completed its handshake; the node may now [`Context::tcp_send`].
    /// Default: no-op (UDP-only nodes never see TCP events).
    fn on_tcp_connected(&mut self, ctx: &mut Context<'_>, conn: crate::tcp::TcpConnId, peer: Addr) {
        let _ = (ctx, conn, peer);
    }

    /// A message arrived over an established connection. `peer` is the
    /// remote address; `wire_len` is the encoded payload size (TCP
    /// responses are never truncated, so it may exceed any UDP limit).
    fn on_tcp_message(
        &mut self,
        ctx: &mut Context<'_>,
        conn: crate::tcp::TcpConnId,
        peer: Addr,
        msg: &Message,
        wire_len: usize,
    ) {
        let _ = (ctx, conn, peer, msg, wire_len);
    }

    /// The peer closed (or reset) a connection this node was party to.
    /// `reset` distinguishes RST (refused handshake, peer crash) from a
    /// graceful FIN (peer close, idle timeout). The node that *initiates*
    /// a close never gets this hook — only the surviving peer does.
    fn on_tcp_closed(&mut self, ctx: &mut Context<'_>, conn: crate::tcp::TcpConnId, reset: bool) {
        let _ = (ctx, conn, reset);
    }

    /// Publishes the node's current metric values into the attached
    /// telemetry registry. Called by the simulator at every sim-time
    /// snapshot boundary (never between events, never from wall clock).
    /// The default publishes nothing; nodes with interesting state
    /// override it and report *cumulative* values — the registry handles
    /// the time series.
    fn publish_metrics(&self, out: &mut dike_telemetry::NodePublisher<'_>) {
        let _ = out;
    }
}

/// Struct-of-arrays per-node hot state: liveness, epochs, routing, and
/// traffic counters, each in its own dense vector indexed by node id.
/// The delivery loop touches these on every datagram; keeping them out
/// of the `Vec<Option<Box<dyn Node>>>` registry means the bookkeeping
/// never pointer-chases through a trait object it does not need.
#[derive(Debug, Default)]
pub(crate) struct NodeHotState {
    /// Unicast address per node.
    pub(crate) addr: Vec<Addr>,
    /// Liveness per node. All nodes start up; only scheduled
    /// NodeDown/NodeUp events flip this.
    pub(crate) up: Vec<bool>,
    /// Liveness epoch per node: bumped on every crash so timers armed in
    /// a previous life are recognized as stale when they pop.
    pub(crate) epoch: Vec<u32>,
    /// Datagrams whose destination resolved to the node, counted
    /// *before* loss filters (the paper's server-view accounting).
    pub(crate) offered: Vec<u64>,
    /// Datagrams handed to the node.
    pub(crate) delivered: Vec<u64>,
    /// Datagrams dropped at the node's ingress (loss, crash, queue,
    /// defense).
    pub(crate) dropped: Vec<u64>,
}

impl NodeHotState {
    /// Registers one node with the given unicast address.
    pub(crate) fn push(&mut self, addr: Addr) {
        self.addr.push(addr);
        self.up.push(true);
        self.epoch.push(0);
        self.offered.push(0);
        self.delivered.push(0);
        self.dropped.push(0);
    }

    /// Registered node count.
    pub(crate) fn len(&self) -> usize {
        self.addr.len()
    }
}

/// Generation-stamped timer-slot allocator. A grant id packs
/// `(generation << 32) | slot`; cancellation bumps the slot's generation
/// so the already-queued event is recognized as stale when it pops —
/// O(1), no tombstone set. Slots recycle when their event pops.
#[derive(Debug, Default)]
pub(crate) struct TimerSlab {
    gens: Vec<u32>,
    free: Vec<u32>,
}

impl TimerSlab {
    /// Allocates a slot and returns its packed grant id.
    pub(crate) fn grant(&mut self) -> u64 {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                // Checked cast: a silent `as u32` here would alias slot 0's
                // generation stamps once >4B timers were ever live at once.
                let slot = u32::try_from(self.gens.len()).unwrap_or_else(|_| {
                    panic!(
                        "timer slot space exhausted: {} timers live at once \
                         exceeds the u32 slot range packed into TimerId",
                        self.gens.len()
                    )
                });
                self.gens.push(0);
                slot
            }
        };
        ((self.gens[slot as usize] as u64) << 32) | slot as u64
    }

    /// Invalidates a grant if it is still current; stale handles (timer
    /// already fired, double cancel) are no-ops.
    pub(crate) fn cancel(&mut self, id: u64) {
        let (slot, gen) = ((id & 0xffff_ffff) as usize, (id >> 32) as u32);
        if self.gens.get(slot) == Some(&gen) {
            self.gens[slot] = gen.wrapping_add(1);
        }
    }

    /// Recycles a slot when its queued event pops. Returns whether the
    /// grant was still live (not cancelled since it was armed).
    pub(crate) fn retire(&mut self, id: u64) -> bool {
        let (slot, gen) = ((id & 0xffff_ffff) as usize, (id >> 32) as u32);
        let live = self.gens[slot] == gen;
        self.gens[slot] = gen.wrapping_add(1);
        self.free.push(slot as u32);
        live
    }

    /// Slots currently granted and not yet recycled.
    pub(crate) fn allocated(&self) -> u64 {
        (self.gens.len() - self.free.len()) as u64
    }
}

/// The node's window onto the simulator while it handles an event.
pub struct Context<'a> {
    pub(crate) world: &'a mut World,
    pub(crate) node: NodeId,
    pub(crate) addr: Addr,
}

impl<'a> Context<'a> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// This node's address.
    pub fn self_addr(&self) -> Addr {
        self.addr
    }

    /// Sends `msg` to `dst`. The message is encoded immediately through
    /// the run's pooled encoder; delivery (or loss) happens at the
    /// destination's ingress after the sampled path delay.
    ///
    /// # Panics
    /// Panics if the message fails to encode — a node producing an
    /// unencodable message is a bug, not a runtime condition.
    pub fn send(&mut self, dst: Addr, msg: &Message) {
        let payload = self.world.encode(msg);
        self.world.send_datagram(self.addr, dst, payload);
    }

    /// Encodes `msg` through the run's pooled encoder without sending it.
    /// Use with [`Context::send_wire`] when the encoded form is needed
    /// anyway (size-limit checks, retransmit reuse) so the payload is
    /// encoded exactly once.
    ///
    /// # Panics
    /// Panics if the message fails to encode (see [`Context::send`]).
    pub fn encode(&mut self, msg: &Message) -> Arc<[u8]> {
        self.world.encode(msg)
    }

    /// Sends an already-encoded payload to `dst`. The payload is
    /// refcounted, so sending the same bytes to several destinations
    /// shares one buffer.
    pub fn send_wire(&mut self, dst: Addr, payload: Arc<[u8]>) {
        self.world.send_datagram(self.addr, dst, payload);
    }

    /// Schedules a timer `delay` from now carrying `token`.
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) -> TimerId {
        self.world.set_timer(self.node, delay, token)
    }

    /// Cancels a pending timer. Cancelling an already-fired timer is a
    /// no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.world.cancel_timer(id);
    }

    /// The simulation's RNG. All node randomness must come from here to
    /// keep runs reproducible. In a sharded world this is the node's
    /// *own* stream (seeded from the global node index), so draw order
    /// depends only on the node's event order — not on which shard, or
    /// how many shards, the world was cut into.
    pub fn rng(&mut self) -> &mut Rng {
        self.world.rng_for(self.node)
    }

    /// Opens a TCP connection to `dst` (a unicast listener address). The
    /// SYN is in flight after this returns; the handshake completes at
    /// [`Node::on_tcp_connected`] one RTT later, or fails via
    /// [`Node::on_tcp_closed`] with `reset` when the listener refuses
    /// (no listener, or connection table full). A dialed connection the
    /// handshake never completes for must still be closed by this node
    /// (connect-timeout path) — the simulator does not time out SYNs.
    pub fn tcp_connect(&mut self, dst: Addr) -> crate::tcp::TcpConnId {
        self.world.tcp_connect(self.node, self.addr, dst)
    }

    /// Sends `msg` over an established connection. Encoded once for size
    /// accounting; delivery is reliable (no loss filter — see DESIGN.md
    /// §5.8) after the sampled path delay plus, client→server, the
    /// listener's per-connection service cost. Sending on a connection
    /// that is gone or not yet established is a silent no-op, like
    /// writing to a socket racing a close.
    pub fn tcp_send(&mut self, conn: crate::tcp::TcpConnId, msg: &Message) {
        self.world.tcp_send(self.node, conn, msg);
    }

    /// Closes a connection this node is party to. The peer learns via
    /// [`Node::on_tcp_closed`] one path delay later; this node gets no
    /// callback. Closing an already-gone connection is a no-op.
    pub fn tcp_close(&mut self, conn: crate::tcp::TcpConnId) {
        self.world.tcp_close(self.node, conn);
    }
}

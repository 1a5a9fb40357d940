//! The sharded parallel engine: one scenario split across K per-core
//! shards, synchronized by conservative time windows, deterministic and
//! shard-count-independent by construction.
//!
//! # Model
//!
//! The global node index space `[0, N)` is cut into K contiguous slices;
//! shard `i` owns the nodes whose unicast addresses fall in
//! `[starts[i], starts[i+1])` and runs them on its own [`Simulator`]
//! (own event wheel, own clock). Datagrams between co-sharded nodes take
//! the ordinary local path. A datagram whose destination lives on
//! another shard has its path delay sampled *on the sending shard* (from
//! the sender's RNG stream, exactly like a local send), and is parked in
//! a per-`(src, dst)`-shard outbox as an [`Envelope`] carrying its
//! absolute arrival time.
//!
//! # Conservative windows
//!
//! All one-way delays in a sharded world are clamped to a propagation
//! floor `L` (the lookahead, [`DEFAULT_LOOKAHEAD`] = 1 ms), applied
//! uniformly to local and cross-shard sends alike so the clamp itself is
//! shard-count-independent. Execution proceeds in half-open windows: at
//! each barrier every shard publishes the time of its earliest pending
//! event, every shard independently computes the same global minimum
//! `T`, and the next window is `[T, T + L)`. Any datagram sent at time
//! `t ≥ T` arrives at `t + delay ≥ T + L`, i.e. strictly after the
//! window — so envelopes exchanged at the *next* barrier can never be
//! late, and no shard ever sees an event in its past.
//!
//! # Determinism, independent of K
//!
//! Three mechanisms make the digest identical for every shard count:
//!
//! * **Per-node RNG streams.** Each node draws from its own
//!   [`rand::rngs::SmallRng`] seeded from `(world seed, global node
//!   index)`; send-side draws (latency) come from the sender's stream,
//!   arrival-side draws (ambient loss, attack loss, degrade chains) from
//!   the receiver's. A node's draw order is therefore exactly its own
//!   event order, which windowed execution preserves regardless of K.
//! * **Fixed merge order.** At each barrier a shard drains its incoming
//!   envelope column in ascending source-shard order and stable-sorts by
//!   `(arrival time, source address)` before injection, so injection
//!   order never depends on thread scheduling.
//! * **Continuous tie-breaking.** Same-instant arrivals at one node from
//!   *different* senders are the only place local-vs-envelope sequencing
//!   could differ between shard counts; with continuous latency
//!   distributions they are measure-zero, and the pinned K ∈ {1,2,4,8}
//!   digest test is the empirical gate.
//!
//! # Auditing
//!
//! Every cross-shard envelope is counted twice — `xshard_out` on the
//! sender, `xshard_in` on the receiver, plus a pairwise matrix in the
//! barrier loop itself — and [`ShardedSim::audit`] checks conservation
//! end to end: per-shard ledgers (with the cross-shard terms) plus
//! `posted == drained` for every shard pair. See DESIGN.md §5.10.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use bytes::Bytes;
use rand::rngs::SmallRng;

use super::audit::AuditReport;
use super::{SimPerf, Simulator, FIRST_ADDR, FIRST_VIP};
use crate::addr::Addr;
use crate::datagram::Datagram;
use crate::event::Event;
use crate::link::LinkTable;
use crate::node::Node;
use crate::time::{SimDuration, SimTime};

/// Default propagation floor / lookahead: 1 ms. Far below every latency
/// model the experiments use (the ambient fabric is LogNormal with a
/// 20 ms median), so the clamp almost never binds; large enough that
/// windows amortize barrier crossings over many events.
pub const DEFAULT_LOOKAHEAD: SimDuration = SimDuration::from_millis(1);

/// A datagram in transit between shards: the path delay was already
/// sampled on the sending shard, so only the absolute arrival time
/// travels — the receiving shard injects it verbatim.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Absolute arrival time (send time + sampled one-way delay).
    pub at: SimTime,
    /// Sending node's address.
    pub src: Addr,
    /// Destination address (owned by the receiving shard).
    pub dst: Addr,
    /// Encoded wire payload.
    pub payload: Bytes,
}

/// Configuration for one shard of a sharded world, handed to
/// [`Simulator::new_sharded`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// This shard's index in `[0, starts.len())`.
    pub id: usize,
    /// First raw unicast address of every shard, ascending; shard `i`
    /// owns `[starts[i], starts[i+1])` (the last shard owns the rest).
    pub starts: Vec<u32>,
    /// Propagation floor = conservative lookahead. Every one-way delay
    /// in the world is clamped up to this, local and cross-shard alike.
    pub floor: SimDuration,
}

/// splitmix64-style mixer deriving a node's RNG seed from the world
/// seed and its *global* node index — shard-layout-independent.
pub(crate) fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Evenly cuts a global node population into K contiguous slices,
/// returning the raw first address of each (suitable for
/// [`ShardConfig::starts`]). Any contiguous cut yields the same digest —
/// that is what shard-count independence means — so even slices are
/// chosen purely for load balance.
///
/// # Panics
/// Panics when `k` is zero or exceeds `n_nodes` (a shard must own at
/// least one node).
pub fn even_starts(n_nodes: usize, k: usize) -> Vec<u32> {
    assert!(k >= 1, "shard count must be at least 1");
    assert!(
        k <= n_nodes,
        "cannot cut {n_nodes} nodes into {k} non-empty shards"
    );
    (0..k)
        .map(|i| crate::sim::FIRST_ADDR + (n_nodes * i / k) as u32)
        .collect()
}

/// The cross-shard audit: per-shard reports plus the barrier loop's own
/// pairwise envelope conservation.
#[derive(Debug, Clone, Default)]
pub struct ShardAuditReport {
    /// One full [`AuditReport`] per shard (cross-shard terms included in
    /// its conservation identities).
    pub shards: Vec<AuditReport>,
    /// Envelopes posted per `(src, dst)` shard pair, row-major.
    pub posted: Vec<u64>,
    /// Envelopes drained per `(src, dst)` shard pair, row-major.
    pub drained: Vec<u64>,
    /// Cross-shard violations (pairwise or totals); per-shard violations
    /// live in the per-shard reports.
    pub violations: Vec<String>,
}

impl ShardAuditReport {
    /// Whether every invariant held, on every shard and across them.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.shards.iter().all(|r| r.is_clean())
    }

    /// Panics with every violation if the audit is not clean.
    ///
    /// # Panics
    /// Panics when [`ShardAuditReport::is_clean`] is false.
    pub fn assert_clean(&self) {
        let mut all: Vec<String> = Vec::new();
        for (i, r) in self.shards.iter().enumerate() {
            all.extend(r.violations.iter().map(|v| format!("shard {i}: {v}")));
        }
        all.extend(self.violations.iter().cloned());
        assert!(
            all.is_empty(),
            "sharded sim audit failed:\n  {}",
            all.join("\n  ")
        );
    }
}

/// K shard [`Simulator`]s plus the conservative-window barrier loop that
/// runs them in parallel. Construct the shards with
/// [`Simulator::new_sharded`] (one per slice of the global node space),
/// populate each with its slice of nodes, then drive the whole world
/// with [`ShardedSim::run_until`].
pub struct ShardedSim {
    shards: Vec<Simulator>,
    floor: SimDuration,
    /// Pairwise envelopes posted / drained, row-major `[src * k + dst]`,
    /// folded out of the atomics after every run.
    posted: Vec<u64>,
    drained: Vec<u64>,
    wall_nanos: u64,
}

impl ShardedSim {
    /// Assembles a sharded world from its per-shard simulators. Each must
    /// have been created with [`Simulator::new_sharded`] against the same
    /// `starts` table and floor, in id order.
    ///
    /// # Panics
    /// Panics when the shard set is empty, inconsistent, or out of order.
    pub fn new(shards: Vec<Simulator>) -> Self {
        assert!(!shards.is_empty(), "a sharded world needs at least 1 shard");
        let k = shards.len();
        let mut floor = SimDuration::ZERO;
        for (i, sim) in shards.iter().enumerate() {
            let (id, starts_len, f) = sim
                .shard_params()
                .expect("every shard must come from Simulator::new_sharded");
            assert_eq!(id, i, "shards must be supplied in id order");
            assert_eq!(
                starts_len, k,
                "shard {i} was built for {starts_len} shards, not {k}"
            );
            if i == 0 {
                floor = f;
            } else {
                assert_eq!(f, floor, "shards disagree on the propagation floor");
            }
        }
        ShardedSim {
            shards,
            floor,
            posted: vec![0; k * k],
            drained: vec![0; k * k],
            wall_nanos: 0,
        }
    }

    /// Runs every shard in parallel until the global clock reaches
    /// `deadline` (events at exactly `deadline` are processed, matching
    /// [`Simulator::run_until`]) or all shards drain.
    ///
    /// One OS thread per shard; windows are computed identically and
    /// locally on every thread (no coordinator), and all cross-shard
    /// traffic moves at the two barriers bounding each window.
    pub fn run_until(&mut self, deadline: SimTime) {
        let k = self.shards.len();
        let t0 = std::time::Instant::now();
        let deadline_ns = deadline.as_nanos();
        let floor_ns = self.floor.as_nanos();
        let barrier = Barrier::new(k);
        // Earliest pending event per shard (u64::MAX = idle), valid
        // between the second barrier of a window and the first barrier
        // of the next — the only region where anyone reads it.
        let next_ats: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(0)).collect();
        // Outbox matrix, row-major [src * k + dst]. Writers lock their
        // cell after the window barrier; the owning reader drains it
        // after the next barrier — never concurrently.
        let matrix: Vec<Mutex<Vec<Envelope>>> =
            (0..k * k).map(|_| Mutex::new(Vec::new())).collect();
        let posted: Vec<AtomicU64> = (0..k * k).map(|_| AtomicU64::new(0)).collect();
        let drained: Vec<AtomicU64> = (0..k * k).map(|_| AtomicU64::new(0)).collect();

        std::thread::scope(|scope| {
            for (i, sim) in self.shards.iter_mut().enumerate() {
                let (barrier, next_ats, matrix, posted, drained) =
                    (&barrier, &next_ats, &matrix, &posted, &drained);
                scope.spawn(move || {
                    // Prologue: run `on_start` hooks (window [0, 0) is
                    // empty, so this only seeds the queues/outboxes).
                    sim.run_window(SimTime::ZERO);
                    post_outboxes(sim, i, k, matrix, posted);
                    loop {
                        // Barrier A: every shard's outboxes are posted.
                        barrier.wait();
                        let mut incoming: Vec<Envelope> = Vec::new();
                        for j in 0..k {
                            let mut cell = matrix[j * k + i].lock().expect("outbox cell poisoned");
                            drained[j * k + i].fetch_add(cell.len() as u64, Ordering::Relaxed);
                            incoming.append(&mut cell);
                        }
                        // Fixed merge order: arrival time, then source
                        // address; the sort is stable, so each sender's
                        // own send order survives ties.
                        incoming.sort_by_key(|e| (e.at, e.src.0));
                        sim.inject_envelopes(incoming);
                        next_ats[i].store(
                            sim.next_event_at().map_or(u64::MAX, SimTime::as_nanos),
                            Ordering::Release,
                        );
                        // Barrier B: every next_at is final; each shard
                        // now computes the identical window bound.
                        barrier.wait();
                        let t = (0..k)
                            .map(|j| next_ats[j].load(Ordering::Acquire))
                            .min()
                            .expect("k >= 1");
                        if t > deadline_ns {
                            break;
                        }
                        let end = SimTime::from_nanos(
                            t.saturating_add(floor_ns)
                                .min(deadline_ns.saturating_add(1)),
                        );
                        sim.run_window(end);
                        post_outboxes(sim, i, k, matrix, posted);
                    }
                });
            }
        });
        for sim in &mut self.shards {
            sim.finish_window_run(deadline);
        }
        for (acc, v) in self.posted.iter_mut().zip(&posted) {
            *acc += v.load(Ordering::Relaxed);
        }
        for (acc, v) in self.drained.iter_mut().zip(&drained) {
            *acc += v.load(Ordering::Relaxed);
        }
        self.wall_nanos += t0.elapsed().as_nanos() as u64;
    }

    /// Audits every shard (cross-shard terms included) plus the pairwise
    /// envelope-conservation invariant: everything posted into the
    /// barrier matrix was drained exactly once, and the matrix totals
    /// match each shard's own `xshard_out` / `xshard_in` ledger.
    pub fn audit(&self) -> ShardAuditReport {
        let k = self.shards.len();
        let mut report = ShardAuditReport {
            shards: self.shards.iter().map(Simulator::audit).collect(),
            posted: self.posted.clone(),
            drained: self.drained.clone(),
            violations: Vec::new(),
        };
        for s in 0..k {
            for d in 0..k {
                let (p, dr) = (self.posted[s * k + d], self.drained[s * k + d]);
                if p != dr {
                    report.violations.push(format!(
                        "cross-shard conservation: shard {s} posted {p} envelopes to shard {d} but {dr} were drained"
                    ));
                }
            }
            let row: u64 = (0..k).map(|d| self.posted[s * k + d]).sum();
            if row != report.shards[s].xshard_out {
                report.violations.push(format!(
                    "cross-shard conservation: shard {s} posted {row} envelopes but its ledger says xshard_out={}",
                    report.shards[s].xshard_out
                ));
            }
            let col: u64 = (0..k).map(|j| self.drained[j * k + s]).sum();
            if col != report.shards[s].xshard_in {
                report.violations.push(format!(
                    "cross-shard conservation: shard {s} drained {col} envelopes but its ledger says xshard_in={}",
                    report.shards[s].xshard_in
                ));
            }
        }
        report
    }

    /// Aggregated wall-clock throughput summary: deterministic volume
    /// counters summed across shards, wall time measured around the
    /// parallel run (not summed per thread).
    pub fn perf(&self) -> SimPerf {
        let mut total = SimPerf::default();
        for sim in &self.shards {
            let p = sim.perf();
            total.events_popped += p.events_popped;
            total.datagrams_sent += p.datagrams_sent;
            total.datagrams_delivered += p.datagrams_delivered;
            total.datagrams_decoded += p.datagrams_decoded;
            total.datagrams_undecodable += p.datagrams_undecodable;
            total.bytes_encoded += p.bytes_encoded;
            total.bytes_decoded += p.bytes_decoded;
        }
        total.wall_nanos = self.wall_nanos;
        total
    }
}

/// Moves a shard's accumulated outboxes into the barrier matrix,
/// counting what was posted per destination.
fn post_outboxes(
    sim: &mut Simulator,
    i: usize,
    k: usize,
    matrix: &[Mutex<Vec<Envelope>>],
    posted: &[AtomicU64],
) {
    let outboxes = sim.take_outboxes();
    debug_assert_eq!(outboxes.len(), k);
    for (j, mut out) in outboxes.into_iter().enumerate() {
        if out.is_empty() {
            continue;
        }
        posted[i * k + j].fetch_add(out.len() as u64, Ordering::Relaxed);
        matrix[i * k + j]
            .lock()
            .expect("outbox cell poisoned")
            .append(&mut out);
    }
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
    pub(super) fn shard_of(&self, addr: Addr) -> usize {
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
pub(super) fn rng_stream<'a>(
    shard: &'a mut Option<Box<ShardState>>,
    rng: &'a mut SmallRng,
    idx: usize,
) -> &'a mut SmallRng {
    match shard.as_deref_mut().and_then(|s| s.rngs.get_mut(idx)) {
        Some(stream) => stream,
        None => rng,
    }
}

impl Simulator {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LatencyModel, LinkParams};
    use crate::node::{Context, Node, TimerToken};
    use crate::{LinkTable, NodeId};
    use dike_wire::{Message, Name, RecordType};
    use std::sync::Arc;

    /// Echo server answering every query.
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

    /// Sends `remaining` queries on a jittered timer and records reply
    /// times into a shared, thread-safe log.
    struct Chatter {
        target: Addr,
        remaining: u32,
        log: Arc<parking_lot::Mutex<Vec<(u32, u64)>>>,
        me: u32,
    }
    impl Node for Chatter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(50), TimerToken(0));
        }
        fn on_datagram(
            &mut self,
            ctx: &mut Context<'_>,
            _src: Addr,
            msg: &Message,
            _wire_len: usize,
        ) {
            if msg.is_response {
                self.log.lock().push((self.me, ctx.now().as_nanos()));
            }
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
                let jitter = rand::RngExt::random_range(ctx.rng(), 0..20_000_000u64);
                ctx.set_timer(
                    SimDuration::from_millis(40) + SimDuration::from_nanos(jitter),
                    TimerToken(0),
                );
            }
        }
    }

    /// Builds the same little world — one echo server, `chatters`
    /// clients — cut into `k` shards, runs it, and returns the sorted
    /// reply log plus the audited sim.
    fn run_cut(seed: u64, chatters: usize, k: usize) -> (Vec<(u32, u64)>, ShardedSim) {
        let n = chatters + 1;
        let starts = even_starts(n, k);
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let links = LinkTable::new(LinkParams {
            latency: LatencyModel::LogNormal {
                median: SimDuration::from_millis(20),
                sigma: 0.4,
            },
            loss: 0.05,
        });
        let echo_addr = Addr(crate::sim::FIRST_ADDR);
        let mut shards = Vec::new();
        let mut next_global = 0usize;
        for (i, &start) in starts.iter().enumerate() {
            let end = starts
                .get(i + 1)
                .map_or(n, |s| (s - crate::sim::FIRST_ADDR) as usize);
            let mut sim = Simulator::new_sharded(
                seed,
                ShardConfig {
                    id: i,
                    starts: starts.clone(),
                    floor: DEFAULT_LOOKAHEAD,
                },
            );
            *sim.links_mut() = links.clone();
            assert_eq!(start, crate::sim::FIRST_ADDR + next_global as u32);
            for g in next_global..end {
                if g == 0 {
                    sim.add_node(Box::new(Echo));
                } else {
                    sim.add_node(Box::new(Chatter {
                        target: echo_addr,
                        remaining: 30,
                        log: log.clone(),
                        me: g as u32,
                    }));
                }
            }
            next_global = end;
            shards.push(sim);
        }
        let mut sharded = ShardedSim::new(shards);
        sharded.run_until(SimDuration::from_secs(10).after_zero());
        let mut entries = log.lock().clone();
        entries.sort_unstable();
        (entries, sharded)
    }

    #[test]
    fn shard_count_does_not_change_the_outcome() {
        let (base, sim1) = run_cut(99, 7, 1);
        assert!(!base.is_empty(), "chatters must get replies");
        sim1.audit().assert_clean();
        for k in [2, 4, 8] {
            let (cut, simk) = run_cut(99, 7, k);
            assert_eq!(base, cut, "K={k} diverged from K=1");
            simk.audit().assert_clean();
        }
    }

    #[test]
    fn cross_shard_traffic_flows_and_is_conserved() {
        let (_, sim) = run_cut(7, 3, 2);
        let report = sim.audit();
        report.assert_clean();
        assert!(
            report.shards[0].xshard_in > 0,
            "chatters on shard 1 must reach the echo on shard 0"
        );
        assert_eq!(
            report.posted.iter().sum::<u64>(),
            report.drained.iter().sum::<u64>()
        );
    }

    #[test]
    fn run_twice_is_deterministic() {
        let (a, _) = run_cut(1234, 5, 4);
        let (b, _) = run_cut(1234, 5, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn faults_work_across_shards() {
        // Crash the echo server (shard 0) mid-run from its owning shard;
        // chatters on the other shard lose replies while it is down.
        let n = 4;
        let starts = even_starts(n, 2);
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mk = |id: usize| {
            Simulator::new_sharded(
                5,
                ShardConfig {
                    id,
                    starts: starts.clone(),
                    floor: DEFAULT_LOOKAHEAD,
                },
            )
        };
        let echo_addr = Addr(crate::sim::FIRST_ADDR);
        let mut s0 = mk(0);
        let (echo_id, _) = s0.add_node(Box::new(Echo));
        s0.add_node(Box::new(Chatter {
            target: echo_addr,
            remaining: 50,
            log: log.clone(),
            me: 1,
        }));
        let mut s1 = mk(1);
        for g in 2..n {
            s1.add_node(Box::new(Chatter {
                target: echo_addr,
                remaining: 50,
                log: log.clone(),
                me: g as u32,
            }));
        }
        s0.schedule_node_down(SimDuration::from_secs(1).after_zero(), echo_id);
        s0.schedule_node_up(SimDuration::from_secs(2).after_zero(), echo_id, true);
        let mut sharded = ShardedSim::new(vec![s0, s1]);
        sharded.run_until(SimDuration::from_secs(5).after_zero());
        let report = sharded.audit();
        report.assert_clean();
        assert_eq!(report.shards[0].node_crashes, 1);
        assert_eq!(report.shards[0].node_restarts, 1);
        assert!(
            report.shards[0].dropped > 0,
            "downtime must drop ingress traffic"
        );
        let _ = NodeId(0);
    }

    #[test]
    fn even_starts_cover_the_population() {
        let starts = even_starts(10, 4);
        assert_eq!(starts.len(), 4);
        assert_eq!(starts[0], crate::sim::FIRST_ADDR);
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "non-empty shards")]
    fn even_starts_rejects_more_shards_than_nodes() {
        let _ = even_starts(3, 4);
    }

    #[test]
    fn mix_seed_separates_streams() {
        let a = mix_seed(42, 0);
        let b = mix_seed(42, 1);
        let c = mix_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}

//! The sharded parallel engine: one scenario split across K per-core
//! shards, synchronized by conservative rounds, deterministic and
//! shard-count-independent by construction.
//!
//! # Model
//!
//! The global node index space `[0, N)` is cut into K contiguous slices;
//! shard `i` owns the nodes whose unicast addresses fall in
//! `[starts[i], starts[i+1])` and runs them on its own [`Simulator`]
//! (own event queue, own clock). Datagrams between co-sharded nodes take
//! the ordinary local path. A datagram whose destination lives on
//! another shard has its path delay sampled *on the sending shard* (from
//! the sender's RNG stream, exactly like a local send), and is parked in
//! a per-`(src, dst)`-shard outbox as an envelope carrying its
//! absolute arrival time.
//!
//! # Conservative rounds
//!
//! All one-way delays in a sharded world are clamped to a propagation
//! floor `L` (the lookahead, [`DEFAULT_LOOKAHEAD`] = 1 ms), applied
//! uniformly to local and cross-shard sends alike so the clamp itself is
//! shard-count-independent. Execution proceeds in rounds with **one
//! barrier each**. In a round shard `i` runs its events up to its
//! horizon, appends its outboxes to a double-buffered `(src, dst)`
//! matrix, publishes (per round parity) its own queue head `Q_i` and the
//! earliest arrival `M_{i→j}` of what it posted to each destination, and
//! crosses the barrier. Every shard then derives the identical
//! `N_j = min(Q_j, min_m M_{m→j})` — shard `j`'s next event once it has
//! injected its column — drains its own column and runs again. The run
//! ends, on every shard in the same round, when `min_j N_j` is past the
//! deadline. Double buffering is what lets one barrier do: a fast shard
//! already writes round `r + 1`'s cells while a slow one still reads
//! round `r`'s, and nobody can reach round `r + 2` before the slow one
//! has crossed barrier `r + 1`.
//!
//! The horizon is per shard and comes from the delays actually sampled,
//! not from the floor alone: shard `i` runs every event strictly before
//! `L + min(min_{j≠i} N_j, a_i)`, where `a_i` is the earliest arrival
//! among the envelopes `i` has parked so far in this round (re-read
//! after every event). That is still conservative:
//!
//! * the earliest event any *other* shard can execute before `i` next
//!   hears from it is `min(min_{j≠i} N_j, a_i)` — its own next event, or
//!   one `i` itself hands it — and whatever that event sends lands at
//!   least `L` later, so nothing can reach `i` before its horizon;
//! * an envelope `i` sends at `t ≥ N_i` arrives at `t + delay ≥ N_i + L`,
//!   and the receiver `j`'s own horizon is `≤ N_i + L`, so `j`'s clock
//!   is still short of the arrival when it injects the envelope after
//!   the barrier.
//!
//! So the ~20 ms sampled path delay, not the 1 ms worst case, is the
//! lookahead most rounds get, and a one-shard world (no peers, no
//! envelopes) runs the whole deadline as a single round. The invariant
//! is checked, not assumed: an envelope injected behind its shard's
//! clock panics the shard, in every build, with a message naming the
//! shard, the envelope's arrival and the clock.
//!
//! The barrier is a sense-reversing counter on two atomics that spins
//! briefly and then [`std::thread::yield_now`]s — no mutex, no condvar,
//! no futex sleep — so a crossing costs about as much with all workers
//! pinned to one core (the waiter yields to the one still running) as
//! with a core each.
//!
//! # Determinism, independent of K
//!
//! Three mechanisms make the digest identical for every shard count:
//!
//! * **Per-node RNG streams.** Each node draws from its own
//!   [`dike_telemetry::rng::Rng`] seeded from `(world seed, global node
//!   index)`; send-side draws (latency) come from the sender's stream,
//!   arrival-side draws (ambient loss, attack loss, degrade chains) from
//!   the receiver's. A node's draw order is therefore exactly its own
//!   event order, which round-by-round execution preserves regardless
//!   of K.
//! * **Fixed merge order.** After each barrier a shard drains its incoming
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

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dike_telemetry::rng::{mix64, Rng};

use super::audit::AuditReport;
use super::{SimPerf, Simulator, FIRST_ADDR, FIRST_VIP};
use crate::addr::Addr;
use crate::datagram::Datagram;
use crate::event::Event;
use crate::link::LinkTable;
use crate::node::Node;
use crate::time::{SimDuration, SimTime};

/// Default propagation floor / lookahead: 1 ms. Below the *median* of
/// every latency model the experiments use, but not out of reach of
/// their tails: 60 % of probes sit on a last-mile LogNormal with a
/// 2–11 ms median and σ 0.25, so on the shortest paths 1 ms is under
/// 3 σ out and the clamp does bind — on 16 of 316,341 samples
/// (0.005 %) of a 4.6k-probe run under 90 % loss. It is the worst-case lookahead
/// only: a round's horizon comes from the delays actually sampled (see
/// the module docs).
pub const DEFAULT_LOOKAHEAD: SimDuration = SimDuration::from_millis(1);

/// A datagram in transit between shards: the path delay was already
/// sampled on the sending shard, so only the absolute arrival time
/// travels — the receiving shard injects it verbatim.
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    /// Absolute arrival time (send time + sampled one-way delay).
    pub(crate) at: SimTime,
    /// Sending node's address.
    pub(crate) src: Addr,
    /// Destination address (owned by the receiving shard).
    pub(crate) dst: Addr,
    /// Encoded wire payload.
    pub(crate) payload: Arc<[u8]>,
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

/// Derives a node's RNG seed from the world seed and its *global* node
/// index — shard-layout-independent.
pub(crate) fn mix_seed(seed: u64, stream: u64) -> u64 {
    mix64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
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
    /// Panics with every violation if the audit is not clean.
    ///
    /// # Panics
    /// Panics when any shard's report or the cross-shard check names a
    /// violation.
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

/// Busy-wait iterations at the barrier before a waiter starts yielding.
/// Long enough to catch a peer that is a few events from arriving on its
/// own core; short enough that workers sharing a core hand it over at
/// once instead of burning the slice the peer needs to arrive at all.
const BARRIER_SPINS: u32 = 32;

/// A reusable sense-reversing barrier for a fixed set of `n` threads:
/// an arrival counter plus a generation number. The last arriver resets
/// the counter and bumps the generation; the others wait for the bump,
/// spinning [`BARRIER_SPINS`] times and then yielding the CPU. No thread
/// ever sleeps in the kernel, so a crossing needs no wake-up.
struct SpinBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    /// Set when a participant unwinds: its peers would otherwise wait
    /// for an arrival that never comes.
    poisoned: AtomicBool,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier {
            n,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Blocks until all `n` threads have called `wait` in this
    /// generation. Everything a thread wrote before its `wait` is
    /// visible to every thread after theirs: each arrival is an `AcqRel`
    /// read-modify-write on `arrived` (one release sequence, so the last
    /// arriver has acquired them all), and the last arriver's `Release`
    /// store of `generation` pairs with the waiters' `Acquire` loads.
    ///
    /// # Panics
    /// Panics when another participant panicked instead of arriving.
    fn wait(&self) {
        // Read before arriving: the generation cannot move until this
        // thread has arrived too.
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Nobody re-arrives before seeing the new generation, so the
            // reset is ordered before every arrival of the next one.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            return;
        }
        let mut spins = 0;
        while self.generation.load(Ordering::Acquire) == generation {
            assert!(
                !self.poisoned.load(Ordering::Relaxed),
                "a peer shard panicked; abandoning the barrier"
            );
            if spins < BARRIER_SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Poisons the barrier if the worker holding it unwinds, so the other
/// workers panic out of their wait instead of spinning forever and
/// `std::thread::scope` can report the failure.
struct PoisonOnPanic<'a>(&'a SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Relaxed);
        }
    }
}

/// What the workers share during one [`ShardedSim::run_until`]: the
/// barrier and the double-buffered exchange. Everything is indexed by
/// round parity first, so what a shard writes in round `r + 1` never
/// touches what a slower peer is still reading from round `r`.
struct Exchange {
    k: usize,
    barrier: SpinBarrier,
    /// Outbox matrix, `[parity][src][dst]`. The source appends before
    /// the round's barrier, the destination drains after it — the lock
    /// is never contended, it only makes the hand-over safe code.
    cells: Vec<Mutex<Vec<Envelope>>>,
    /// `M_{src→dst}`: earliest arrival among the envelopes `src` posted
    /// to `dst` this round (`u64::MAX` = none), same indexing.
    earliest: Vec<AtomicU64>,
    /// `Q_i`: shard `i`'s queue head after its round (`u64::MAX` =
    /// idle), `[parity][shard]`.
    heads: Vec<AtomicU64>,
}

impl Exchange {
    fn new(k: usize) -> Self {
        Exchange {
            k,
            barrier: SpinBarrier::new(k),
            cells: (0..2 * k * k).map(|_| Mutex::new(Vec::new())).collect(),
            earliest: (0..2 * k * k).map(|_| AtomicU64::new(u64::MAX)).collect(),
            heads: (0..2 * k).map(|_| AtomicU64::new(u64::MAX)).collect(),
        }
    }

    fn cell(&self, parity: usize, src: usize, dst: usize) -> usize {
        (parity * self.k + src) * self.k + dst
    }
}

/// What one worker hands back when the run ends.
struct WorkerTally {
    /// Envelopes this shard posted, per destination shard.
    posted: Vec<u64>,
    /// Envelopes this shard drained, per source shard.
    drained: Vec<u64>,
    /// Barrier crossings; the same on every worker.
    rounds: u64,
}

/// One shard's side of the round protocol (see the module docs). `i` is
/// the shard's index, `deadline_ns` the inclusive end of the run.
fn run_shard(sim: &mut Simulator, i: usize, deadline_ns: u64, ex: &Exchange) -> WorkerTally {
    let k = ex.k;
    let _poison = PoisonOnPanic(&ex.barrier);
    let end = deadline_ns.saturating_add(1);
    let mut tally = WorkerTally {
        posted: vec![0; k],
        drained: vec![0; k],
        rounds: 0,
    };
    let mut incoming: Vec<Envelope> = Vec::new();
    // Nothing is known about the peers yet, and 0 bounds any next event
    // from below: the first round runs `on_start` and `[0, L)`.
    let mut peers_next = 0u64;
    loop {
        let parity = (tally.rounds & 1) as usize;
        sim.run_round(peers_next, end);

        let state = sim.world.shard.as_deref_mut().expect("a sharded world");
        state.parked_min = u64::MAX;
        for (j, out) in state.outbox.iter_mut().enumerate() {
            let c = ex.cell(parity, i, j);
            let first = out.iter().map(|e| e.at.as_nanos()).min();
            // Pairs with the post-barrier `Acquire` loads below; the
            // barrier alone already orders them.
            ex.earliest[c].store(first.unwrap_or(u64::MAX), Ordering::Release);
            if first.is_some() {
                tally.posted[j] += out.len() as u64;
                ex.cells[c]
                    .lock()
                    .expect("outbox cell poisoned")
                    .append(out);
            }
        }
        let head = sim.world.queue.peek().map_or(u64::MAX, |at| at.as_nanos());
        ex.heads[parity * k + i].store(head, Ordering::Release);

        ex.barrier.wait();
        tally.rounds += 1;

        for j in 0..k {
            let mut cell = ex.cells[ex.cell(parity, j, i)]
                .lock()
                .expect("outbox cell poisoned");
            tally.drained[j] += cell.len() as u64;
            incoming.append(&mut cell);
        }
        // Fixed merge order: arrival time, then source address; the sort
        // is stable, so each sender's own send order survives ties.
        incoming.sort_by_key(|e| (e.at, e.src.0));
        sim.inject_envelopes(&mut incoming);

        // N_j for every shard, identically on every shard: the global
        // minimum decides termination, the minimum over the *others*
        // bounds this shard's next round.
        let mut next = u64::MAX;
        peers_next = u64::MAX;
        for j in 0..k {
            let mut n = ex.heads[parity * k + j].load(Ordering::Acquire);
            for m in 0..k {
                n = n.min(ex.earliest[ex.cell(parity, m, j)].load(Ordering::Acquire));
            }
            next = next.min(n);
            if j != i {
                peers_next = peers_next.min(n);
            }
        }
        if next > deadline_ns {
            return tally;
        }
    }
}

/// K shard [`Simulator`]s plus the conservative round loop that runs
/// them in parallel. Construct the shards with
/// [`Simulator::new_sharded`] (one per slice of the global node space),
/// populate each with its slice of nodes, then drive the whole world
/// with [`ShardedSim::run_until`].
pub struct ShardedSim {
    shards: Vec<Simulator>,
    /// Pairwise envelopes posted / drained, row-major `[src * k + dst]`,
    /// folded out of the workers' tallies after every run.
    posted: Vec<u64>,
    drained: Vec<u64>,
    /// Barrier crossings so far (per worker, not summed).
    sync_rounds: u64,
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
            posted: vec![0; k * k],
            drained: vec![0; k * k],
            sync_rounds: 0,
            wall_nanos: 0,
        }
    }

    /// Runs every shard in parallel until the global clock reaches
    /// `deadline` (events at exactly `deadline` are processed, matching
    /// [`Simulator::run_until`]) or all shards drain.
    ///
    /// One OS thread per shard — for a single shard too, so callers that
    /// place the workers see the same thing at every K. Horizons are
    /// computed identically and locally on every thread (no
    /// coordinator), and all cross-shard traffic moves at the one
    /// barrier ending each round.
    pub fn run_until(&mut self, deadline: SimTime) {
        let k = self.shards.len();
        let t0 = std::time::Instant::now();
        let deadline_ns = deadline.as_nanos();
        let ex = Exchange::new(k);
        let tallies: Vec<WorkerTally> = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .shards
                .iter_mut()
                .enumerate()
                .map(|(i, sim)| {
                    let ex = &ex;
                    scope.spawn(move || run_shard(sim, i, deadline_ns, ex))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("a shard worker panicked"))
                .collect()
        });
        // Like `Simulator::run_until` after its loop: the clock ends at
        // the deadline even when the queue ran dry before it.
        for sim in &mut self.shards {
            sim.world.now = sim.world.now.max(deadline);
        }
        for (i, tally) in tallies.iter().enumerate() {
            debug_assert_eq!(tally.rounds, tallies[0].rounds);
            for j in 0..k {
                self.posted[i * k + j] += tally.posted[j];
                self.drained[j * k + i] += tally.drained[j];
            }
        }
        self.sync_rounds += tallies[0].rounds;
        self.wall_nanos += t0.elapsed().as_nanos() as u64;
    }

    /// Audits every shard (cross-shard terms included) plus the pairwise
    /// envelope-conservation invariant: everything posted into the
    /// exchange matrix was drained exactly once, and the matrix totals
    /// match each shard's own `xshard_out` / `xshard_in` ledger. (An
    /// envelope that reaches its shard late never gets this far: the
    /// injection panics.)
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
    /// counters summed across shards, the round count every worker
    /// agrees on, wall time measured around the parallel run (not summed
    /// per thread).
    pub fn perf(&self) -> SimPerf {
        let mut total = SimPerf::default();
        for sim in &self.shards {
            let p = sim.perf();
            total.events_popped += p.events_popped;
            total.datagrams_sent += p.datagrams_sent;
            total.datagrams_delivered += p.datagrams_delivered;
            total.datagrams_decoded += p.datagrams_decoded;
            total.decode_calls += p.decode_calls;
            total.datagrams_undecodable += p.datagrams_undecodable;
            total.bytes_encoded += p.bytes_encoded;
            total.bytes_decoded += p.bytes_decoded;
        }
        total.sync_rounds = self.sync_rounds;
        total.wall_nanos = self.wall_nanos;
        total
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
    pub(crate) rngs: Vec<Rng>,
    /// Outgoing cross-shard envelopes, one bin per destination shard;
    /// emptied into the exchange matrix at the end of every round.
    pub(crate) outbox: Vec<Vec<Envelope>>,
    /// Earliest arrival time among the envelopes parked in `outbox`
    /// (`u64::MAX` when it is empty) — the `a_i` term of the horizon.
    pub(crate) parked_min: u64,
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
    rng: &'a mut Rng,
    idx: usize,
) -> &'a mut Rng {
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
            parked_min: u64::MAX,
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

    /// One round of the sharded engine: runs every pending event
    /// strictly before this shard's horizon `L + min(peers_next, a_i)` —
    /// `peers_next` the earliest next event of any other shard, `a_i` the
    /// earliest arrival parked in the outboxes so far, re-read after
    /// every event — and strictly before `end` (see [`crate::shard`]).
    /// Unlike [`Simulator::run_until`] this neither advances the clock
    /// to the bound nor cuts telemetry snapshots.
    ///
    /// # Panics
    /// Panics on a plain (non-sharded) simulator.
    pub(crate) fn run_round(&mut self, peers_next: u64, end: u64) {
        self.start_pending();
        while let Some(at) = self.world.queue.peek() {
            let s = self.world.shard.as_deref().expect("a sharded world");
            let horizon = peers_next
                .min(s.parked_min)
                .saturating_add(s.floor.as_nanos())
                .min(end);
            if at.as_nanos() >= horizon {
                break;
            }
            self.step();
        }
    }

    /// Injects envelopes received from other shards, already merged in
    /// the fixed cross-shard order, leaving `envelopes` empty.
    ///
    /// # Panics
    /// Panics if an envelope arrives behind this shard's clock: the
    /// horizon rules that out, so one that does is a causality bug in
    /// the engine, not a condition a run can recover from.
    pub(crate) fn inject_envelopes(&mut self, envelopes: &mut Vec<Envelope>) {
        let now = self.world.now;
        let s = self.world.shard.as_deref_mut().expect("a sharded world");
        s.xshard_in += envelopes.len() as u64;
        let id = s.id;
        for env in envelopes.drain(..) {
            assert!(
                env.at >= now,
                "cross-shard causality: shard {id} was handed an envelope arriving at {} ns, behind its clock at {} ns",
                env.at.as_nanos(),
                now.as_nanos(),
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
            self.world.net.events_popped == 0 && self.started_upto == 0,
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

    /// `(client's global index, reply time in ns)`, appended from every
    /// shard's thread.
    type ReplyLog = Arc<dike_telemetry::sync::Mutex<Vec<(u32, u64)>>>;

    /// Sends `remaining` queries on a jittered timer and records reply
    /// times into the shared log.
    struct Chatter {
        target: Addr,
        remaining: u32,
        log: ReplyLog,
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
                let jitter = ctx.rng().random_range(0..20_000_000u64);
                ctx.set_timer(
                    SimDuration::from_millis(40) + SimDuration::from_nanos(jitter),
                    TimerToken(0),
                );
            }
        }
    }

    /// Builds the same little world — one echo server at global index 0,
    /// then `clients` nodes made by `client(echo address, log, global
    /// index)` — over `links`, cut into `k` shards, runs it for 10 s and
    /// returns the sorted reply log plus the sim, ready to audit.
    fn run_world(
        links: LinkParams,
        seed: u64,
        clients: usize,
        k: usize,
        client: impl Fn(Addr, ReplyLog, u32) -> Box<dyn Node>,
    ) -> (Vec<(u32, u64)>, ShardedSim) {
        let n = clients + 1;
        let starts = even_starts(n, k);
        let log: ReplyLog = Arc::default();
        let links = LinkTable::new(links);
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
                    sim.add_node(client(echo_addr, log.clone(), g as u32));
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

    /// [`run_world`] with jittered [`Chatter`]s on a lossy LogNormal
    /// fabric (20 ms median).
    fn run_cut(seed: u64, chatters: usize, k: usize) -> (Vec<(u32, u64)>, ShardedSim) {
        let links = LinkParams {
            latency: LatencyModel::LogNormal {
                median: SimDuration::from_millis(20),
                sigma: 0.4,
            },
            loss: 0.05,
        };
        run_world(links, seed, chatters, k, |target, log, me| {
            Box::new(Chatter {
                target,
                remaining: 30,
                log,
                me,
            })
        })
    }

    /// Ping-pong client: a new query the instant the last reply lands.
    struct PingPong {
        target: Addr,
        remaining: u32,
        log: ReplyLog,
        me: u32,
    }
    impl PingPong {
        fn ping(&mut self, ctx: &mut Context<'_>) {
            if self.remaining > 0 {
                self.remaining -= 1;
                let q = Message::query(
                    self.remaining as u16,
                    Name::parse("x.nl").unwrap(),
                    RecordType::A,
                );
                ctx.send(self.target, &q);
            }
        }
    }
    impl Node for PingPong {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.ping(ctx);
        }
        fn on_datagram(&mut self, ctx: &mut Context<'_>, _: Addr, msg: &Message, _: usize) {
            if msg.is_response {
                self.log.lock().push((self.me, ctx.now().as_nanos()));
                self.ping(ctx);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: TimerToken) {}
    }

    /// The horizon's worst case: every one-way delay *equals* the floor,
    /// so each reply lands exactly on the receiving shard's horizon
    /// (`N_i + L`) and "strictly before" is all that keeps it out of the
    /// past. Clients ping-pong with the echo on shard 0 as fast as the
    /// fabric allows, from every other shard.
    #[test]
    fn delays_equal_to_the_floor_never_arrive_late() {
        let run = |k: usize| {
            let links = LinkParams {
                latency: LatencyModel::Fixed(DEFAULT_LOOKAHEAD),
                loss: 0.0,
            };
            let (log, sim) = run_world(links, 11, 5, k, |target, log, me| {
                Box::new(PingPong {
                    target,
                    remaining: 200,
                    log,
                    me,
                })
            });
            let report = sim.audit();
            report.assert_clean();
            (log, report)
        };
        let (base, _) = run(1);
        assert_eq!(base.len(), 5 * 200, "every ping is answered");
        // Reply `n` of every client lands at exactly `2 n L`.
        assert_eq!(base[199].1, 400 * DEFAULT_LOOKAHEAD.as_nanos());
        for k in [2, 4] {
            let (cut, report) = run(k);
            assert_eq!(base, cut, "K={k} diverged from K=1");
            assert!(report.posted.iter().sum::<u64>() > 0, "K={k} never crossed");
        }
    }

    /// The barrier under more threads than cores: after every crossing
    /// each thread must find every peer in the same round as itself — a
    /// lost wake-up would hang, a doubled generation would let a peer
    /// through a round early. Two crossings per round: the second keeps
    /// peers from moving on while the counters are being compared.
    #[test]
    fn spin_barrier_keeps_oversubscribed_threads_in_step() {
        const CROSSINGS: u64 = 100_000;
        for n in [2usize, 3, 8] {
            let barrier = SpinBarrier::new(n);
            let round: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            std::thread::scope(|scope| {
                for me in 0..n {
                    let (barrier, round) = (&barrier, &round);
                    scope.spawn(move || {
                        let _poison = PoisonOnPanic(barrier);
                        for r in 1..=CROSSINGS / 2 {
                            // Relaxed: the barrier is what must order it.
                            round[me].store(r, Ordering::Relaxed);
                            barrier.wait();
                            for peer in round {
                                assert_eq!(peer.load(Ordering::Relaxed), r);
                            }
                            barrier.wait();
                        }
                    });
                }
            });
        }
    }

    /// A worker that panics takes its peers down with it instead of
    /// leaving them waiting at the barrier for ever.
    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn a_panicking_worker_poisons_the_barrier() {
        let barrier = SpinBarrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _poison = PoisonOnPanic(&barrier);
                panic!("worker failed");
            });
            scope.spawn(|| {
                let _poison = PoisonOnPanic(&barrier);
                barrier.wait();
            });
        });
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
        let log = Arc::new(dike_telemetry::sync::Mutex::new(Vec::new()));
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
    #[should_panic(
        expected = "cross-shard causality: shard 0 was handed an envelope arriving at 10000000 ns, behind its clock at 50000000 ns"
    )]
    fn an_envelope_behind_the_clock_panics_at_injection() {
        let mut sim = Simulator::new_sharded(
            3,
            ShardConfig {
                id: 0,
                starts: vec![crate::sim::FIRST_ADDR],
                floor: DEFAULT_LOOKAHEAD,
            },
        );
        let (_, echo) = sim.add_node(Box::new(Echo));
        sim.add_node(Box::new(Chatter {
            target: echo,
            remaining: 0,
            log: ReplyLog::default(),
            me: 1,
        }));
        // The chatter's first timer fires at 50 ms and moves the clock.
        sim.run_round(
            u64::MAX,
            SimDuration::from_millis(60).after_zero().as_nanos(),
        );
        assert_eq!(sim.world.now, SimDuration::from_millis(50).after_zero());
        let payload = sim.world.encode(&Message::query(
            1,
            Name::parse("x.nl").unwrap(),
            RecordType::A,
        ));
        sim.inject_envelopes(&mut vec![Envelope {
            at: SimDuration::from_millis(10).after_zero(),
            src: Addr(crate::sim::FIRST_ADDR + 9),
            dst: echo,
            payload,
        }]);
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

//! The event core: a hierarchical timer wheel ordered by `(time, sequence)`.
//!
//! The sequence number makes ordering total and FIFO among simultaneous
//! events, which is what makes runs reproducible. The production queue is
//! [`EventWheel`], a calendar queue with O(1) push and amortized-O(1) pop;
//! the original `ReferenceHeap` (a `BinaryHeap` over the same
//! `(time, seq)` key) lives on in this module's tests as the executable
//! specification the equivalence property test drives both structures
//! against.
//!
//! # Wheel layout (DESIGN.md §5.7)
//!
//! Time is bucketed into slots of `2^SLOT_BITS` ns (65.536 µs). The slot
//! index (`at >> SLOT_BITS`, 48 bits) is split into [`LEVELS`] base-64
//! digits; an entry lives at the *highest* digit in which its slot index
//! differs from the cursor's, so level 0 spans ~4.2 ms, level 1 ~268 ms,
//! and the eighth level covers the entire u64 nanosecond range — there is
//! no overflow list. Draining a level-`l` slot re-places ("cascades") its
//! entries one level down; by the time a slot reaches level 0 it holds
//! only entries within one slot width, which are sorted once by
//! `(at, seq)` into the `ready` run. Entries pushed at or before the
//! cursor (same-instant sends, or pushes after a peek advanced the
//! cursor) are merge-inserted into `ready` directly, preserving the exact
//! total order the reference heap produces.

use std::collections::VecDeque;

use crate::addr::NodeId;
use crate::datagram::Datagram;
use crate::node::TimerToken;
use crate::sim::World;
use crate::time::SimTime;

/// Things that can happen.
pub enum Event {
    /// A datagram reaches its destination's ingress (loss filters are
    /// evaluated here, at arrival, like a filter in front of the target).
    Deliver(Datagram),
    /// A datagram that already passed the ingress queue is handed to its
    /// node after the queueing delay (no filters re-applied). Carries the
    /// message decoded at ingress so the node hand-off never re-decodes.
    DeliverQueued {
        /// The datagram.
        dgram: Datagram,
        /// The payload, decoded once at ingress (decode-once invariant).
        msg: Box<dike_wire::Message>,
        /// The resolved destination node.
        node: NodeId,
        /// The address the node answers from (the VIP for anycast).
        local: crate::addr::Addr,
    },
    /// A node's timer fires.
    Timer {
        /// The node that set the timer.
        node: NodeId,
        /// The opaque payload the node attached.
        token: TimerToken,
        /// Timer id, for cancellation.
        id: u64,
        /// The node's liveness epoch when the timer was set. A crash bumps
        /// the epoch, so timers armed before the crash are suppressed when
        /// they pop — a rebooted server does not inherit its predecessor's
        /// pending work.
        epoch: u32,
    },
    /// The node crashes: ingress traffic is dropped, pending timers from
    /// before the crash are suppressed (see [`Event::Timer::epoch`]).
    NodeDown {
        /// The node to take down.
        node: NodeId,
    },
    /// The node restarts: [`crate::node::Node::on_restart`] runs first
    /// (with `cold` saying whether volatile state such as caches is
    /// wiped), then `on_start` re-arms its initial timers.
    NodeUp {
        /// The node to bring back.
        node: NodeId,
        /// Whether the restart loses cached state (the paper's cache-loss
        /// sensitivity axis).
        cold: bool,
    },
    /// Scheduled world mutation — how attack scenarios flip loss filters
    /// mid-run without a node.
    Control(Box<dyn FnOnce(&mut World) + Send>),
    /// A TCP SYN reaches the dialed address: the listener accepts (table
    /// slot allocated, SYN-ACK scheduled), refuses (RST back), or — when
    /// the server is down — stays silent. See [`crate::tcp`].
    TcpSyn {
        /// Connection id (see [`crate::tcp::TcpConnId`]).
        conn: u64,
    },
    /// The SYN-ACK reaches the client: the connection is established and
    /// [`crate::node::Node::on_tcp_connected`] runs.
    TcpOpen {
        /// Connection id.
        conn: u64,
    },
    /// A message delivered over an established connection (already
    /// encoded once for size accounting; TCP is modeled reliable, so no
    /// loss filter applies — see DESIGN.md §5.8).
    TcpMsg {
        /// Connection id.
        conn: u64,
        /// The message, decoded exactly once at send time.
        msg: Box<dike_wire::Message>,
        /// Encoded payload size.
        wire_len: usize,
        /// Direction: client→server (true) or server→client (false).
        to_server: bool,
    },
    /// A teardown notification (FIN or RST) reaching the surviving peer;
    /// the connection record is already gone. `epoch` guards against
    /// notifying a node that crashed and restarted in the meantime.
    TcpFin {
        /// Connection id (for the peer's bookkeeping only).
        conn: u64,
        /// The node to notify via `on_tcp_closed`.
        notify: NodeId,
        /// `notify`'s liveness epoch when the teardown was initiated.
        epoch: u32,
        /// RST (peer crashed / listener refused) vs graceful FIN.
        reset: bool,
    },
    /// Idle-timeout probe: closes the connection iff no activity has been
    /// recorded since `stamp` (each activity re-arms a fresh probe).
    TcpIdle {
        /// Connection id.
        conn: u64,
        /// The `last_activity` value this probe was armed against.
        stamp: SimTime,
    },
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Event::Deliver(d) => write!(f, "Deliver({} -> {})", d.src, d.dst),
            Event::DeliverQueued { dgram, node, .. } => {
                write!(
                    f,
                    "DeliverQueued({} -> {} via {node})",
                    dgram.src, dgram.dst
                )
            }
            Event::Timer {
                node, token, id, ..
            } => {
                write!(f, "Timer(node={node}, token={}, id={id})", token.0)
            }
            Event::NodeDown { node } => write!(f, "NodeDown({node})"),
            Event::NodeUp { node, cold } => write!(f, "NodeUp({node}, cold={cold})"),
            Event::Control(_) => write!(f, "Control(..)"),
            Event::TcpSyn { conn } => write!(f, "TcpSyn(conn={conn})"),
            Event::TcpOpen { conn } => write!(f, "TcpOpen(conn={conn})"),
            Event::TcpMsg {
                conn, to_server, ..
            } => write!(f, "TcpMsg(conn={conn}, to_server={to_server})"),
            Event::TcpFin {
                conn,
                notify,
                reset,
                ..
            } => write!(f, "TcpFin(conn={conn}, notify={notify}, reset={reset})"),
            Event::TcpIdle { conn, .. } => write!(f, "TcpIdle(conn={conn})"),
        }
    }
}

/// A queue entry, ordered by `(time, seq)`.
pub struct HeapEntry {
    /// When the event occurs.
    pub at: SimTime,
    /// Tie-break: insertion order.
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

/// Nanoseconds per level-0 slot, as a shift: 2^16 ns ≈ 65.5 µs.
const SLOT_BITS: u32 = 16;
/// Bits per wheel level — one base-64 digit of the slot index.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Levels in the ladder. `SLOT_BITS + LEVELS × LEVEL_BITS = 64`, so the
/// top level spans the whole u64 nanosecond range and no overflow list is
/// needed.
const LEVELS: usize = 8;

/// Summary of one wheel self-check pass, consumed by the sim auditor's
/// wheel-slot conservation invariant.
#[derive(Debug, Clone, Copy, Default)]
pub struct WheelAudit {
    /// `len()` as maintained incrementally.
    pub len: u64,
    /// Entries actually found by walking `ready` plus every slot.
    pub scanned: u64,
    /// Entries violating placement: a slot entry at or before the cursor
    /// window, a slot entry filed under the wrong (level, slot), a
    /// `ready` entry after the cursor window, or a `ready` run that is
    /// not sorted by `(at, seq)`.
    pub misplaced: u64,
}

/// Hierarchical timer wheel keyed by `(SimTime, seq)`: the production
/// event queue. Same pop order as a binary heap over the same key (the
/// tests' `ReferenceHeap`), O(1) push, O(1) amortized pop.
pub struct EventWheel {
    /// Slot index (`at >> SLOT_BITS`) of the open window: every pending
    /// entry in a slot at or before it has been drained into `ready`.
    cursor: u64,
    /// Per-level occupancy bitmaps: bit `s` set ⇔ `slots[level·64+s]` is
    /// non-empty.
    occupied: [u64; LEVELS],
    /// `LEVELS × SLOTS` buckets, row-major by level. Bucket `Vec`s keep
    /// their capacity across drains, so steady state allocates nothing.
    slots: Vec<Vec<HeapEntry>>,
    /// The sorted run of entries at or before the cursor window,
    /// in pop order.
    ready: VecDeque<HeapEntry>,
    /// Reusable staging buffer for slot drains and cascades.
    scratch: Vec<HeapEntry>,
    len: usize,
}

impl Default for EventWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl EventWheel {
    /// An empty wheel with the cursor at time zero.
    pub fn new() -> Self {
        EventWheel {
            cursor: 0,
            occupied: [0; LEVELS],
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            ready: VecDeque::new(),
            scratch: Vec::new(),
            len: 0,
        }
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Inserts an entry. Entries landing at or before the cursor window
    /// are merge-inserted into the sorted ready run (same-instant pushes
    /// go behind earlier seqs — FIFO within the instant); later entries
    /// are filed at the highest level where their slot index differs
    /// from the cursor's.
    pub fn push(&mut self, entry: HeapEntry) {
        self.len += 1;
        let s = entry.at.as_nanos() >> SLOT_BITS;
        if s <= self.cursor {
            let key = (entry.at, entry.seq);
            // Almost always the back: seqs grow monotonically, so a
            // same-window push during dispatch lands after everything
            // already queued for this window.
            let before_back = self
                .ready
                .back()
                .is_some_and(|last| (last.at, last.seq) > key);
            if !before_back {
                self.ready.push_back(entry);
            } else {
                let idx = self.ready.partition_point(|e| (e.at, e.seq) <= key);
                self.ready.insert(idx, entry);
            }
        } else {
            self.place(s, entry);
        }
    }

    /// Files an entry whose slot index `s` is strictly after the cursor.
    fn place(&mut self, s: u64, entry: HeapEntry) {
        debug_assert!(s > self.cursor);
        let diff = s ^ self.cursor;
        let level = ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize;
        let slot = ((s >> (level as u32 * LEVEL_BITS)) & (SLOTS as u64 - 1)) as usize;
        self.occupied[level] |= 1 << slot;
        self.slots[level * SLOTS + slot].push(entry);
    }

    /// Removes and returns the earliest entry.
    pub fn pop(&mut self) -> Option<HeapEntry> {
        if self.ready.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
        let entry = self.ready.pop_front();
        debug_assert!(entry.is_some(), "advance found no entry despite len > 0");
        self.len -= 1;
        entry
    }

    /// The time of the earliest pending entry, without removing it. May
    /// advance the cursor; pushes for earlier instants afterwards are
    /// still ordered correctly (they merge into the ready run).
    pub fn next_at(&mut self) -> Option<SimTime> {
        if self.ready.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
        self.ready.front().map(|e| e.at)
    }

    /// Moves the cursor to the next occupied slot and drains it into the
    /// ready run. Precondition: `ready` is empty and `len > 0`.
    fn advance(&mut self) {
        debug_assert!(self.ready.is_empty() && self.len > 0);
        'scan: loop {
            for level in 0..LEVELS {
                let shift = level as u32 * LEVEL_BITS;
                let digit = (self.cursor >> shift) & (SLOTS as u64 - 1);
                // Occupied slots strictly after the cursor's digit. Every
                // occupied slot at this level is after the digit (pushes
                // require it, and the cursor never jumps an occupied
                // slot), so this mask is really just "any occupancy".
                let mask = if digit >= SLOTS as u64 - 1 {
                    0
                } else {
                    self.occupied[level] & (!0u64 << (digit + 1))
                };
                if mask == 0 {
                    continue;
                }
                let idx = mask.trailing_zeros() as u64;
                self.occupied[level] &= !(1u64 << idx);
                // Cursor: digits above `level` keep, digit := idx, lower
                // digits zero — the start of the drained slot's span.
                self.cursor =
                    ((((self.cursor >> shift) >> LEVEL_BITS) << LEVEL_BITS) | idx) << shift;
                let mut scratch = std::mem::take(&mut self.scratch);
                scratch.append(&mut self.slots[level * SLOTS + idx as usize]);
                if level == 0 {
                    // One slot width: sort by (at, seq) and serve.
                    self.ready.extend(scratch.drain(..));
                    self.ready
                        .make_contiguous()
                        .sort_unstable_by_key(|e| (e.at, e.seq));
                    self.scratch = scratch;
                    return;
                }
                // Cascade: re-place one level down (entries exactly at
                // the new cursor go straight to the ready run).
                let mut any_ready = false;
                for entry in scratch.drain(..) {
                    let s = entry.at.as_nanos() >> SLOT_BITS;
                    if s == self.cursor {
                        self.ready.push_back(entry);
                        any_ready = true;
                    } else {
                        self.place(s, entry);
                    }
                }
                self.scratch = scratch;
                if any_ready {
                    self.ready
                        .make_contiguous()
                        .sort_unstable_by_key(|e| (e.at, e.seq));
                    return;
                }
                continue 'scan;
            }
            unreachable!("len > 0 but no occupied slot in any level");
        }
    }

    /// Visits every pending entry, in no particular order (the auditor
    /// counts event kinds; it never relies on iteration order).
    pub fn iter(&self) -> impl Iterator<Item = &HeapEntry> {
        self.ready.iter().chain(self.slots.iter().flatten())
    }

    /// Walks the whole structure and cross-checks placement against the
    /// incremental bookkeeping — the wheel-slot conservation invariant.
    pub fn audit(&self) -> WheelAudit {
        let mut report = WheelAudit {
            len: self.len as u64,
            ..WheelAudit::default()
        };
        let mut prev: Option<(SimTime, u64)> = None;
        for e in &self.ready {
            report.scanned += 1;
            let key = (e.at, e.seq);
            if e.at.as_nanos() >> SLOT_BITS > self.cursor || prev.is_some_and(|p| p > key) {
                report.misplaced += 1;
            }
            prev = Some(key);
        }
        for level in 0..LEVELS {
            for slot in 0..SLOTS {
                for e in &self.slots[level * SLOTS + slot] {
                    report.scanned += 1;
                    let s = e.at.as_nanos() >> SLOT_BITS;
                    let well_placed = s > self.cursor
                        && (s ^ self.cursor).leading_zeros() < 64
                        && ((63 - (s ^ self.cursor).leading_zeros()) / LEVEL_BITS) as usize
                            == level
                        && ((s >> (level as u32 * LEVEL_BITS)) & (SLOTS as u64 - 1)) as usize
                            == slot
                        && self.occupied[level] & (1 << slot) != 0;
                    if !well_placed {
                        report.misplaced += 1;
                    }
                }
            }
        }
        report
    }
}

/// The queue type used by the simulator.
pub type EventQueue = EventWheel;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// The original binary-heap event queue, kept as the executable
    /// ordering specification for [`EventWheel`]. `HeapEntry` orders
    /// reversed so the heap pops the earliest `(time, seq)` first.
    type ReferenceHeap = BinaryHeap<HeapEntry>;

    impl PartialEq for HeapEntry {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }

    impl Eq for HeapEntry {}

    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: the smallest (time, seq) is the "greatest" heap entry.
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    fn timer_entry(at: SimTime, seq: u64) -> HeapEntry {
        HeapEntry {
            at,
            seq,
            event: Event::Timer {
                node: NodeId(0),
                token: TimerToken(seq),
                id: seq,
                epoch: 0,
            },
        }
    }

    fn entry(secs: u64, seq: u64) -> HeapEntry {
        timer_entry(SimDuration::from_secs(secs).after_zero(), seq)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(entry(30, 0));
        q.push(entry(10, 1));
        q.push(entry(20, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_secs())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for seq in [5u64, 1, 3, 2, 4] {
            q.push(entry(10, seq));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn spans_from_nanoseconds_to_hours_cascade_in_order() {
        // Exercise every level of the ladder: delays from one slot width
        // up to > 1 hour, pushed in scrambled order.
        let delays_ns: Vec<u64> = (0..30).map(|i| 1u64 << (i + 10)).collect();
        let mut q = EventQueue::new();
        for (seq, &d) in delays_ns.iter().enumerate().rev() {
            q.push(timer_entry(
                SimDuration::from_nanos(d).after_zero(),
                seq as u64,
            ));
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_nanos())
            .collect();
        let mut want = delays_ns.clone();
        want.sort_unstable();
        assert_eq!(popped, want);
    }

    #[test]
    fn push_earlier_than_peeked_front_still_pops_first() {
        // next_at advances the cursor; a subsequent push for an earlier
        // instant must still come out first (run_until peeks, returns to
        // the caller, and the caller may schedule sooner work).
        let mut q = EventQueue::new();
        q.push(timer_entry(SimDuration::from_millis(10).after_zero(), 0));
        assert_eq!(q.next_at(), Some(SimDuration::from_millis(10).after_zero()));
        q.push(timer_entry(SimDuration::from_millis(3).after_zero(), 1));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn audit_counts_and_placement_stay_clean_under_churn() {
        let mut q = EventQueue::new();
        let mut seq = 0u64;
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        let mut now = SimTime::ZERO;
        for round in 0..200 {
            for _ in 0..(round % 7 + 1) {
                let d = next() % 1_000_000_000 + 1;
                q.push(timer_entry(now + SimDuration::from_nanos(d), seq));
                seq += 1;
            }
            for _ in 0..(round % 5) {
                if let Some(e) = q.pop() {
                    now = e.at;
                }
            }
            let audit = q.audit();
            assert_eq!(audit.len, q.len() as u64);
            assert_eq!(audit.scanned, audit.len, "round {round}");
            assert_eq!(audit.misplaced, 0, "round {round}");
        }
    }

    /// Property test: identical random schedules — bursts of same-instant
    /// pushes, far-future entries, interleaved pops (which is also how
    /// cancellation and crash-epoch suppression look to the queue: the
    /// entry pops and is discarded by the sim) — produce identical pop
    /// sequences from the reference heap and the wheel.
    #[test]
    fn wheel_matches_reference_heap_on_random_schedules() {
        for trial in 0u64..20 {
            let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ (trial.wrapping_mul(0xdead_beef_cafe_f00d));
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut heap = ReferenceHeap::new();
            let mut wheel = EventWheel::new();
            let mut seq = 0u64;
            let mut now = SimTime::ZERO;
            let mut popped_heap = Vec::new();
            let mut popped_wheel = Vec::new();
            for _ in 0..400 {
                match next() % 10 {
                    // Same-instant burst at a common future time.
                    0..=2 => {
                        let at = now + SimDuration::from_nanos(next() % 200_000 + 1);
                        for _ in 0..(next() % 4 + 1) {
                            heap.push(timer_entry(at, seq));
                            wheel.push(timer_entry(at, seq));
                            seq += 1;
                        }
                    }
                    // Single push, near or far future (spans all levels).
                    3..=6 => {
                        let exp = next() % 40;
                        let at = now + SimDuration::from_nanos((next() % 1_000) + (1 << exp));
                        heap.push(timer_entry(at, seq));
                        wheel.push(timer_entry(at, seq));
                        seq += 1;
                    }
                    // Pop a few (a cancelled or crash-suppressed timer is
                    // exactly this: popped, then dropped by the sim).
                    _ => {
                        for _ in 0..(next() % 3 + 1) {
                            let a = heap.pop().map(|e| (e.at, e.seq));
                            let b = wheel.pop().map(|e| (e.at, e.seq));
                            assert_eq!(a, b, "trial {trial}");
                            if let Some((at, s)) = a {
                                now = at;
                                popped_heap.push((at, s));
                                popped_wheel.push((at, s));
                            }
                        }
                    }
                }
            }
            loop {
                let a = heap.pop().map(|e| (e.at, e.seq));
                let b = wheel.pop().map(|e| (e.at, e.seq));
                assert_eq!(a, b, "trial {trial} drain");
                match a {
                    Some(k) => {
                        popped_heap.push(k);
                        popped_wheel.push(k);
                    }
                    None => break,
                }
            }
            assert_eq!(popped_heap, popped_wheel);
            assert_eq!(wheel.len(), 0);
            let audit = wheel.audit();
            assert_eq!((audit.scanned, audit.misplaced), (0, 0));
        }
    }
}

//! The event core: every pending event in one [`EventQueue`], popped
//! earliest first and, within one instant, in push order.
//!
//! FIFO among simultaneous events makes the order total — what makes
//! runs reproducible. The simulator's clock never runs backwards, so the
//! queue is a monotone radix heap over `SimTime` nanoseconds rather
//! than a comparison heap (DESIGN.md §5.7).

use std::sync::Arc;

use crate::addr::NodeId;
use crate::datagram::Datagram;
use crate::node::TimerToken;
use crate::sim::World;
use crate::time::SimTime;

/// Things that can happen.
pub(crate) enum Event {
    /// A datagram reaches its destination's ingress (loss filters are
    /// evaluated here, at arrival, like a filter in front of the target).
    Deliver(Datagram),
    /// A datagram that already passed the ingress queue is handed to its
    /// node after the queueing delay (no filters re-applied). Carries the
    /// message decoded at ingress so the node hand-off never re-decodes.
    DeliverQueued {
        /// The datagram.
        dgram: Datagram,
        /// The payload, decoded once at ingress (decode-once invariant);
        /// shared with the sender's other arrivals when it resends one
        /// payload.
        msg: Arc<dike_wire::Message>,
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

/// One bucket per bit of a `SimTime`'s nanoseconds.
const BUCKETS: usize = 64;

/// A drained bucket keeps a buffer of up to this many entries for its
/// next fill and frees a larger one, so a burst does not pin its peak
/// capacity for the rest of the run.
const KEEP_DRAINED: usize = 1024;

/// The simulator's event queue: a monotone radix heap.
///
/// Entries at the last-popped instant wait in one FIFO run; every other
/// entry waits, as an `(at, slot)` key, in the bucket of the highest bit
/// in which its time differs from that instant, and its event sits in a
/// slab with a free list. A pop drains the run; when the run is empty,
/// the lowest non-empty bucket's earliest entries become the new run and
/// the rest of that bucket moves down to lower buckets — each key only
/// ever moves down, so it moves at most 64 times. A per-bucket minimum
/// and a non-empty mask make [`EventQueue::peek`] O(1) and free of side
/// effects.
///
/// Same-instant entries always share one bucket and keep their relative
/// order through every move, so they pop in push order by construction.
///
/// # Panics
/// [`EventQueue::push`] panics on an instant before the last pop: the
/// clock would run backwards.
pub(crate) struct EventQueue {
    /// The last-popped instant in nanoseconds (0 before the first pop).
    last: u64,
    /// Slots of the entries at `last`, in push order; `run[head..]` are
    /// still queued.
    run: Vec<u32>,
    head: usize,
    /// `buckets[i]` holds the entries whose time differs from `last`
    /// first in bit `i`; `(nanoseconds, slot)` in arrival order.
    buckets: [Vec<(u64, u32)>; BUCKETS],
    /// `mins[i]` is the earliest time in `buckets[i]`, `u64::MAX` when
    /// it is empty.
    mins: [u64; BUCKETS],
    /// Bit `i` is set iff `buckets[i]` is non-empty.
    mask: u64,
    /// The queued events by slot; `None` marks a free slot.
    slab: Vec<Option<Event>>,
    free: Vec<u32>,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            last: 0,
            run: Vec::new(),
            head: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            mins: [u64::MAX; BUCKETS],
            mask: 0,
            slab: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl EventQueue {
    /// Queues `event` at `at`, behind every entry already queued there.
    ///
    /// # Panics
    /// Panics if `at` is before the last-popped instant.
    pub(crate) fn push(&mut self, at: SimTime, event: Event) {
        let key = at.as_nanos();
        assert!(
            key >= self.last,
            "event queue: push at {at} is before the last pop at {}",
            SimTime::from_nanos(self.last)
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot =
                    u32::try_from(self.slab.len()).expect("event queue: 2^32 pending events");
                self.slab.push(Some(event));
                slot
            }
        };
        self.file(key, slot);
    }

    /// Files a key under the current `last`: into the run when it is that
    /// instant, else into the bucket of its highest differing bit.
    fn file(&mut self, key: u64, slot: u32) {
        if key == self.last {
            self.run.push(slot);
            return;
        }
        let b = 63 - (key ^ self.last).leading_zeros() as usize;
        self.buckets[b].push((key, slot));
        self.mins[b] = self.mins[b].min(key);
        self.mask |= 1 << b;
    }

    /// The instant of the next pop, if any.
    pub(crate) fn peek(&self) -> Option<SimTime> {
        if self.head < self.run.len() {
            return Some(SimTime::from_nanos(self.last));
        }
        (self.mask != 0)
            .then(|| SimTime::from_nanos(self.mins[self.mask.trailing_zeros() as usize]))
    }

    /// Removes the earliest entry (the first pushed among equals).
    pub(crate) fn pop(&mut self) -> Option<(SimTime, Event)> {
        if self.head == self.run.len() && !self.advance() {
            return None;
        }
        let slot = self.run[self.head];
        self.head += 1;
        if self.head == self.run.len() {
            self.run.clear();
            self.head = 0;
        }
        let event = self.slab[slot as usize]
            .take()
            .expect("a queued slot holds its event");
        self.free.push(slot);
        Some((SimTime::from_nanos(self.last), event))
    }

    /// Moves `last` to the lowest non-empty bucket's minimum and refiles
    /// that bucket under it: its earliest entries form the new run, the
    /// rest land in lower buckets, since each differs from the new `last`
    /// only below the bucket's bit — so none lands back in the bucket
    /// being drained. Called only with the run empty. `false` when
    /// nothing is queued.
    fn advance(&mut self) -> bool {
        if self.mask == 0 {
            return false;
        }
        let b = self.mask.trailing_zeros() as usize;
        self.last = self.mins[b];
        self.mins[b] = u64::MAX;
        self.mask &= !(1 << b);
        let mut drained = std::mem::take(&mut self.buckets[b]);
        for &(key, slot) in &drained {
            self.file(key, slot);
        }
        drained.clear();
        if drained.capacity() <= KEEP_DRAINED {
            self.buckets[b] = drained;
        }
        true
    }

    /// Number of queued events.
    pub(crate) fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Every queued event, in no particular order (the auditor's census).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Event> {
        self.slab.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use dike_telemetry::check;

    fn timer(tag: u64) -> Event {
        Event::Timer {
            node: NodeId(0),
            token: TimerToken(tag),
            id: tag,
            epoch: 0,
        }
    }

    /// The timer token each test stamps on its entries: the witness of
    /// push order among equal instants.
    fn tag(event: &Event) -> u64 {
        match event {
            Event::Timer { token, .. } => token.0,
            other => panic!("test queues only timers, got {other:?}"),
        }
    }

    fn push_secs(q: &mut EventQueue, secs: u64, tag: u64) {
        q.push(SimDuration::from_secs(secs).after_zero(), timer(tag));
    }

    fn drain(q: &mut EventQueue) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|(at, e)| (at.as_nanos(), tag(&e)))
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        push_secs(&mut q, 30, 0);
        push_secs(&mut q, 10, 1);
        push_secs(&mut q, 20, 2);
        let order: Vec<u64> = drain(&mut q)
            .iter()
            .map(|&(at, _)| at / 1_000_000_000)
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::default();
        for tag in [5u64, 1, 3, 2, 4] {
            push_secs(&mut q, 10, tag);
        }
        let order: Vec<u64> = drain(&mut q).iter().map(|&(_, tag)| tag).collect();
        assert_eq!(order, vec![5, 1, 3, 2, 4]);
    }

    #[test]
    fn spans_from_nanoseconds_to_hours_pop_in_order() {
        // Delays from ~1 µs up to > 1 hour, pushed in scrambled order.
        let delays_ns: Vec<u64> = (0..30).map(|i| 1u64 << (i + 10)).collect();
        let mut q = EventQueue::default();
        for (tag, &d) in delays_ns.iter().enumerate().rev() {
            q.push(SimDuration::from_nanos(d).after_zero(), timer(tag as u64));
        }
        let popped: Vec<u64> = drain(&mut q).iter().map(|&(at, _)| at).collect();
        let mut want = delays_ns.clone();
        want.sort_unstable();
        assert_eq!(popped, want);
    }

    #[test]
    fn push_earlier_than_peeked_front_still_pops_first() {
        // run_until peeks, returns to the caller, and the caller may
        // schedule sooner work: that push must still come out first.
        let mut q = EventQueue::default();
        q.push(SimDuration::from_millis(10).after_zero(), timer(0));
        assert_eq!(q.peek(), Some(SimDuration::from_millis(10).after_zero()));
        q.push(SimDuration::from_millis(3).after_zero(), timer(1));
        assert_eq!(q.peek(), Some(SimDuration::from_millis(3).after_zero()));
        let order: Vec<u64> = drain(&mut q).iter().map(|&(_, tag)| tag).collect();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn a_push_at_the_draining_instant_joins_the_back_of_its_run() {
        let mut q = EventQueue::default();
        push_secs(&mut q, 5, 0);
        push_secs(&mut q, 5, 1);
        push_secs(&mut q, 6, 9);
        assert_eq!(q.pop().map(|(_, e)| tag(&e)), Some(0));
        // Mid-run: 1 is still queued at the popped instant.
        push_secs(&mut q, 5, 2);
        assert_eq!(q.peek(), Some(SimDuration::from_secs(5).after_zero()));
        push_secs(&mut q, 5, 3);
        let order: Vec<u64> = drain(&mut q).iter().map(|&(_, tag)| tag).collect();
        assert_eq!(order, vec![1, 2, 3, 9]);
    }

    #[test]
    fn a_redistribution_keeps_same_instant_entries_in_push_order() {
        // Everything below is pushed with `last` = 0, so times in
        // [2^40, 2^41) share the top bucket. Draining it moves the
        // other instants down into lower buckets, interleaved in push
        // order with the instant that becomes the run.
        let base = 1u64 << 40;
        let at = |off: u64| SimTime::from_nanos(base + off);
        let mut q = EventQueue::default();
        let pushes = [(7, 0), (0, 1), (7, 2), (3, 3), (0, 4), (7, 5), (3, 6)];
        for (off, tag) in pushes {
            q.push(at(off), timer(tag));
        }
        assert_eq!(q.peek(), Some(at(0)));
        let got = drain(&mut q);
        let want: Vec<(u64, u64)> = [(0, 1), (0, 4), (3, 3), (3, 6), (7, 0), (7, 2), (7, 5)]
            .iter()
            .map(|&(off, tag)| (base + off, tag))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "event queue: push at t+1.000s is before the last pop at t+2.000s")]
    fn a_push_before_the_last_pop_panics() {
        let mut q = EventQueue::default();
        push_secs(&mut q, 2, 0);
        push_secs(&mut q, 3, 1);
        q.pop();
        push_secs(&mut q, 1, 2);
    }

    /// The model queue: `(time, tag)` keys kept in pop order — by time,
    /// then push order — and popped from the front. Slow and obviously
    /// right.
    #[derive(Default)]
    struct Model(Vec<(SimTime, u64)>);

    impl Model {
        fn push(&mut self, key: (SimTime, u64)) {
            let idx = self.0.partition_point(|k| k.0 <= key.0);
            self.0.insert(idx, key);
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            (!self.0.is_empty()).then(|| self.0.remove(0))
        }
    }

    /// Oracle: random schedules drive the production queue and the sorted
    /// model side by side — same-instant bursts (also at the instant
    /// just popped, while its run drains), single pushes from 1 ns to
    /// 2^40 ns ahead, interleaved pops (which is also how cancellation
    /// and crash-epoch suppression look to the queue: the entry pops and
    /// the sim discards it), and a peek followed by a push for an instant
    /// before the peeked front. Every pop and peek must agree; the timer
    /// token, a push counter, witnesses FIFO among equal instants.
    /// `DIKE_CASES` scales the case count.
    #[test]
    fn queue_matches_sorted_model_on_random_schedules() {
        check::cases("event_queue_model", check::count(64), |g| {
            let mut queue = EventQueue::default();
            let mut model = Model::default();
            let mut pushed = 0u64;
            let mut now = SimTime::ZERO;
            let mut push = |queue: &mut EventQueue, model: &mut Model, at| {
                queue.push(at, timer(pushed));
                model.push((at, pushed));
                pushed += 1;
            };
            for step in 0..g.range(1..400usize) {
                match g.range(0..10u32) {
                    // Same-instant burst at a common instant, now or later.
                    0..=2 => {
                        let at = now + SimDuration::from_nanos(g.range(0..=200_000u64));
                        for _ in 0..g.range(1..=4u32) {
                            push(&mut queue, &mut model, at);
                        }
                    }
                    // One push, 1 ns to 2^40 ns ahead.
                    3..=5 => {
                        let span = 1u64 << g.range(0..=40u32);
                        let at = now + SimDuration::from_nanos(g.range(1..=span));
                        push(&mut queue, &mut model, at);
                    }
                    // Peek, then push for an instant before the front.
                    6 => {
                        let front = queue.peek();
                        assert_eq!(front, model.0.first().map(|k| k.0), "peek at step {step}");
                        if let Some(at) = front {
                            let gap = at.as_nanos() - now.as_nanos();
                            if gap > 0 {
                                let earlier = now + SimDuration::from_nanos(g.range(0..gap));
                                push(&mut queue, &mut model, earlier);
                            }
                        }
                    }
                    // Pop a few.
                    _ => {
                        for _ in 0..g.range(1..=3u32) {
                            let got = queue.pop().map(|(at, e)| (at, tag(&e)));
                            assert_eq!(got, model.pop(), "pop at step {step}");
                            if let Some((at, _)) = got {
                                now = at;
                            }
                        }
                    }
                }
                assert_eq!(queue.len(), model.0.len(), "len at step {step}");
            }
            loop {
                let got = queue.pop().map(|(at, e)| (at, tag(&e)));
                assert_eq!(got, model.pop(), "drain");
                if got.is_none() {
                    break;
                }
            }
        });
    }
}

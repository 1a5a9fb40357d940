//! The event core: every pending event in one binary heap, ordered by
//! `(time, sequence)`.
//!
//! The sequence number is unique and grows with every push, which makes
//! the order total and FIFO among simultaneous events — what makes runs
//! reproducible. Any correct priority queue over that key pops the same
//! sequence, so the simulator keeps its queue in a plain
//! `BinaryHeap<HeapEntry>` (DESIGN.md §5.7).

use std::cmp::Ordering;

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

/// A queue entry. Orders *reversed* by `(time, seq)`, so the max-heap
/// `BinaryHeap<HeapEntry>` pops the earliest entry first and, within one
/// instant, the one pushed first.
pub struct HeapEntry {
    /// When the event occurs.
    pub at: SimTime,
    /// Tie-break: insertion order.
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use dike_telemetry::check;
    use std::collections::BinaryHeap;

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
        let mut q = BinaryHeap::new();
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
        let mut q = BinaryHeap::new();
        for seq in [5u64, 1, 3, 2, 4] {
            q.push(entry(10, seq));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn spans_from_nanoseconds_to_hours_pop_in_order() {
        // Delays from ~1 µs up to > 1 hour, pushed in scrambled order.
        let delays_ns: Vec<u64> = (0..30).map(|i| 1u64 << (i + 10)).collect();
        let mut q = BinaryHeap::new();
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
        // run_until peeks, returns to the caller, and the caller may
        // schedule sooner work: that push must still come out first.
        let mut q = BinaryHeap::new();
        q.push(timer_entry(SimDuration::from_millis(10).after_zero(), 0));
        assert_eq!(
            q.peek().map(|e| e.at),
            Some(SimDuration::from_millis(10).after_zero())
        );
        q.push(timer_entry(SimDuration::from_millis(3).after_zero(), 1));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![1, 0]);
    }

    /// The model queue: `(time, seq)` keys kept sorted, popped from the
    /// front. Slow and obviously right.
    #[derive(Default)]
    struct Model(Vec<(SimTime, u64)>);

    impl Model {
        fn push(&mut self, key: (SimTime, u64)) {
            let idx = self.0.partition_point(|k| *k <= key);
            self.0.insert(idx, key);
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            (!self.0.is_empty()).then(|| self.0.remove(0))
        }
    }

    /// Oracle: random schedules drive the production queue and the sorted
    /// model side by side — same-instant bursts, single pushes from 1 ns
    /// to 2^40 ns ahead, interleaved pops (which is also how cancellation
    /// and crash-epoch suppression look to the queue: the entry pops and
    /// the sim discards it), and a peek followed by a push for an instant
    /// before the peeked front. Every pop and peek must agree.
    /// `DIKE_CASES` scales the case count.
    #[test]
    fn heap_matches_sorted_model_on_random_schedules() {
        check::cases("event_queue_model", check::count(64), |g| {
            let mut heap = BinaryHeap::new();
            let mut model = Model::default();
            let mut seq = 0u64;
            let mut now = SimTime::ZERO;
            let mut push = |heap: &mut BinaryHeap<HeapEntry>, model: &mut Model, at| {
                heap.push(timer_entry(at, seq));
                model.push((at, seq));
                seq += 1;
            };
            for step in 0..g.range(1..400usize) {
                match g.range(0..10u32) {
                    // Same-instant burst at a common future time.
                    0..=2 => {
                        let at = now + SimDuration::from_nanos(g.range(0..=200_000u64));
                        for _ in 0..g.range(1..=4u32) {
                            push(&mut heap, &mut model, at);
                        }
                    }
                    // One push, 1 ns to 2^40 ns ahead.
                    3..=5 => {
                        let span = 1u64 << g.range(0..=40u32);
                        let at = now + SimDuration::from_nanos(g.range(1..=span));
                        push(&mut heap, &mut model, at);
                    }
                    // Peek, then push for an instant before the front.
                    6 => {
                        let front = heap.peek().map(|e| (e.at, e.seq));
                        assert_eq!(front, model.0.first().copied(), "peek at step {step}");
                        if let Some((at, _)) = front {
                            let gap = at.as_nanos() - now.as_nanos();
                            if gap > 0 {
                                let earlier = now + SimDuration::from_nanos(g.range(0..gap));
                                push(&mut heap, &mut model, earlier);
                            }
                        }
                    }
                    // Pop a few.
                    _ => {
                        for _ in 0..g.range(1..=3u32) {
                            let got = heap.pop().map(|e| (e.at, e.seq));
                            assert_eq!(got, model.pop(), "pop at step {step}");
                            if let Some((at, _)) = got {
                                now = at;
                            }
                        }
                    }
                }
                assert_eq!(heap.len(), model.0.len(), "len at step {step}");
            }
            loop {
                let got = heap.pop().map(|e| (e.at, e.seq));
                assert_eq!(got, model.pop(), "drain");
                if got.is_none() {
                    break;
                }
            }
        });
    }
}

#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # dike-netsim
//!
//! A deterministic discrete-event network simulator, purpose-built for the
//! *When the Dike Breaks* DNS experiments but generic over the nodes it
//! hosts.
//!
//! Design follows the event-driven, poll-free philosophy of embedded
//! network stacks: a single virtual clock, one event queue that pops by
//! time and, within an instant, in push order, and nodes that react to exactly two stimuli —
//! datagram delivery and timer expiry. All randomness (latency jitter,
//! packet loss) flows from seeded [`dike_telemetry::rng::Rng`] streams — one
//! per run, or one per node in a sharded world ([`shard`]) — so a run is a
//! pure function of its configuration and seed.
//!
//! * [`SimTime`] / [`SimDuration`] — the virtual clock.
//! * [`Addr`], [`NodeId`] — addressing; one simulated IPv4-style address
//!   per node.
//! * [`Node`] + [`Context`] — the node programming model.
//! * [`LinkTable`], [`LatencyModel`], ingress-loss filters — the network
//!   fabric, including the paper's iptables-style DDoS emulation
//!   (random drop at the target's ingress, §5.1).
//! * [`Simulator`] — the event loop. Its file holds the loop and the
//!   world's core and nothing else; what else reaches into the world's
//!   private state lives in child modules of it: the ingress path
//!   (loss filters → decode → the one per-address [`IngressGate`]:
//!   cookie exemption, defense, then [`ServiceQueue`]), the [`tcp`]
//!   state machine, the telemetry cuts, the [`shard`] plumbing and the
//!   [`audit`]or.
//! * [`trace`] — pluggable observation: every delivered or dropped
//!   datagram can be fed to a [`trace::TraceSink`] for server-side traffic
//!   accounting (paper §6).
//! * Faults — node crash/restart ([`Simulator::schedule_node_down`] /
//!   [`Simulator::schedule_node_up`], with cold-cache restarts via
//!   [`Node::on_restart`]) and bursty Gilbert–Elliott link degrades
//!   ([`DegradeParams`], [`LinkTable::set_degrade`]) alongside the
//!   paper's Bernoulli ingress loss. Higher-level fault plans live in the
//!   `dike-faults` crate.
//! * [`audit`] — pull-based invariant checker (datagram conservation,
//!   decode-once, timer hygiene) that fault-heavy runs assert clean.
//! * Telemetry — attach a [`dike_telemetry::MetricsRegistry`] with
//!   [`Simulator::attach_telemetry`] and the simulator publishes its
//!   event/datagram counters plus every node's
//!   [`Node::publish_metrics`] output at each sim-time snapshot
//!   boundary.
//!
//! ```
//! use dike_netsim::{Simulator, SimDuration};
//!
//! let mut sim = Simulator::new(42);
//! // ... add nodes, then:
//! sim.run_until(SimDuration::from_secs(3600).after_zero());
//! ```

mod addr;
pub mod anycast;
mod datagram;
pub mod defense;
mod event;
mod link;
mod node;
pub mod queueing;
mod sim;
mod time;
pub mod trace;
pub mod trace_io;

pub use addr::{Addr, NodeId};
pub use anycast::AnycastTable;
pub use audit::AuditReport;
pub use defense::{DefenseLedger, GateAction, IngressDefense, IngressGate, IngressVerdict};
pub use dike_telemetry as telemetry;
pub use link::{DegradeParams, LatencyModel, LinkParams, LinkTable};
pub use node::{Context, Node, TimerId, TimerToken};
pub use queueing::{
    ClassedQueue, ClassedQueueConfig, QueueClass, QueueConfig, QueueOutcome, ServiceQueue,
    QUEUE_CLASSES,
};
pub use shard::{even_starts, ShardAuditReport, ShardConfig, ShardedSim, DEFAULT_LOOKAHEAD};
pub use sim::{audit, shard, tcp};
pub use sim::{SimPerf, Simulator};
pub use tcp::{TcpConfig, TcpConnId, TcpStats};
pub use time::{SimDuration, SimTime};

//! Sim-time-aware metrics for the dike simulator.
//!
//! The paper's headline results are all *rates observed at components
//! under stress*: cache-miss rates (§3.4), retry amplification at the
//! authoritatives (Fig. 10), latency inflation under partial loss
//! (Fig. 9). This crate is the measurement layer that makes those rates
//! visible while the simulation runs, instead of post-hoc from client
//! logs only.
//!
//! Design rules:
//!
//! * **Zero dependencies.** Instrumentation must never drag the build
//!   graph around. Being at the bottom of the graph, the crate is also
//!   where the workspace's one JSON codec lives ([`json`]), the
//!   simulator's fixed hasher ([`hash`]), and the three small things that
//!   used to be external crates: the random number generator ([`rng`]),
//!   the non-poisoning lock ([`sync`]) and the seeded property-test runner
//!   ([`check`]). The crate compiles with a bare
//!   `rustc --edition 2021 --test src/lib.rs`.
//! * **Deterministic.** Snapshots are cut on *simulated*-time boundaries
//!   only — never wall clock — so two runs with the same seed produce
//!   byte-identical metric series.
//! * **Cheap.** Hot paths bump plain integer fields the component owns
//!   (a count is a `u64`, a distribution an unsynchronized
//!   [`Histogram`]); the registry is only touched when a snapshot
//!   boundary is crossed. There, republishing a known counter or gauge
//!   is a family guess, a row lookup by node id and a store, with no
//!   allocation, and a stored counter point is 16 bytes. `benchmark/`'s
//!   `telemetry.cut_overhead` layer metric is the measured cost of the
//!   cuts: about 11 ms per cut at 20,553 nodes.
//!
//! # Model
//!
//! Components own their instruments and *publish* them into a
//! [`MetricsRegistry`] at snapshot boundaries, keyed by
//! `(component, node_id, metric)` and stored as one family per
//! `(component, metric)` with one row per node. The registry keeps the
//! latest value per key plus a time-binned series: one point per
//! snapshot boundary at which the value changed (cumulative values, like
//! Prometheus counters — consumers diff adjacent points for per-bin
//! rates).
//!
//! ```
//! use dike_telemetry::{Histogram, MetricsRegistry};
//!
//! let mut reg = MetricsRegistry::new();
//! reg.set_node_label(3, "auth:ns1");
//!
//! // ... simulation runs, component counters tick ...
//! let mut retries = Histogram::new();
//! retries.observe(2);
//!
//! // At a sim-time boundary (here t = 60 s) the driver publishes:
//! reg.record_counter("auth", Some(3), "queries", 128);
//! reg.record_histogram("resolver", Some(7), "retries_per_query", &retries);
//! reg.snapshot(60_000_000_000);
//!
//! assert_eq!(reg.counter_total("auth", Some(3), "queries"), Some(128));
//! let json = reg.to_json();
//! assert!(json.contains("\"auth:ns1\""));
//! ```

#![warn(unreachable_pub)]

pub mod check;
mod export;
pub mod hash;
pub mod json;
mod metrics;
mod registry;
pub mod rng;
pub mod sync;

pub use metrics::{Histogram, HistogramSnapshot};
pub use registry::{MetricValue, MetricsRegistry, NodePublisher, SharedRegistry};

/// Telemetry configuration: how often (in simulated time) the driver
/// cuts a snapshot of every registered metric.
///
/// Durations are plain nanosecond counts so this crate needs no
/// dependency on the simulator's time types; `dike-netsim` converts at
/// the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Snapshot cadence in simulated nanoseconds. Snapshots are cut at
    /// `interval, 2*interval, ...` plus one final snapshot at the end of
    /// the run. Must be non-zero.
    pub snapshot_interval_nanos: u64,
}

impl TelemetryConfig {
    /// Snapshot every `mins` simulated minutes.
    ///
    /// # Panics
    /// If `mins` minutes overflow `u64` nanoseconds.
    pub const fn every_mins(mins: u64) -> Self {
        match mins.checked_mul(60) {
            Some(secs) => Self::every_secs(secs),
            None => panic!("telemetry interval overflows u64 nanoseconds"),
        }
    }

    /// Snapshot every `secs` simulated seconds.
    ///
    /// # Panics
    /// If `secs` seconds overflow `u64` nanoseconds.
    pub const fn every_secs(secs: u64) -> Self {
        match secs.checked_mul(1_000_000_000) {
            Some(nanos) => TelemetryConfig {
                snapshot_interval_nanos: nanos,
            },
            None => panic!("telemetry interval overflows u64 nanoseconds"),
        }
    }
}

impl Default for TelemetryConfig {
    /// One snapshot per simulated minute.
    fn default() -> Self {
        TelemetryConfig::every_mins(1)
    }
}

/// Creates a new shared registry handle (`Arc<`[`sync::Mutex`]`<_>>`).
///
/// The simulator and the caller each hold a clone; after the run the
/// caller unwraps it (the simulator drops its clone when dropped).
pub fn shared_registry() -> SharedRegistry {
    std::sync::Arc::new(sync::Mutex::new(MetricsRegistry::new()))
}

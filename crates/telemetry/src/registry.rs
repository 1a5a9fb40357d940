//! The per-run metrics registry: latest values plus a time-binned
//! series, keyed by `(component, node_id, metric)`.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::metrics::{Histogram, HistogramSnapshot};
use crate::sync::Mutex;

/// A registry shared between the simulator (publisher) and the caller
/// (consumer). Locked only at snapshot boundaries and at the end of the
/// run, never on the event hot path.
pub type SharedRegistry = Arc<Mutex<MetricsRegistry>>;

/// Identifies one metric: which subsystem, which node (None for
/// sim-global metrics like event counts), and which series.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Subsystem: `netsim`, `cache`, `resolver`, `auth`, `stub`.
    pub component: String,
    /// The node the metric belongs to; `None` for global metrics.
    pub node: Option<u32>,
    /// Metric name, e.g. `retries` or `queries_qtype_aaaa`.
    pub metric: String,
}

impl MetricKey {
    /// Builds a key.
    pub fn new(component: &str, node: Option<u32>, metric: &str) -> Self {
        MetricKey {
            component: component.to_owned(),
            node,
            metric: metric.to_owned(),
        }
    }
}

/// The value of one metric at one point in (sim) time. Counter and
/// histogram values are *cumulative since the start of the run*;
/// consumers diff adjacent snapshot points for per-bin rates.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Instantaneous value plus its high-water mark so far.
    Gauge {
        /// Value at the snapshot boundary.
        value: f64,
        /// Highest value seen up to the boundary.
        high_water: f64,
    },
    /// Frozen distribution.
    Histogram(HistogramSnapshot),
}

/// One metric's history: the latest published value and sparse series
/// points `(snapshot_index, value)` — a point is stored only when the
/// value changed, so idle metrics cost one point total.
#[derive(Debug, Clone)]
pub struct MetricSeries {
    /// Most recently published value.
    pub current: MetricValue,
    /// `(index into snapshot_times, cumulative value at that boundary)`.
    pub points: Vec<(u32, MetricValue)>,
}

/// Latest values and snapshot series for every metric in one run.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    labels: BTreeMap<u32, String>,
    metrics: BTreeMap<MetricKey, MetricSeries>,
    snapshot_times: Vec<u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Attaches a human-readable label to a node id (e.g. `auth:ns1`,
    /// `resolver:0`). Labels ride along in exports so consumers can find
    /// the interesting rows without knowing node numbering.
    pub fn set_node_label(&mut self, node: u32, label: impl Into<String>) {
        self.labels.insert(node, label.into());
    }

    /// The label attached to `node`, if any.
    pub fn node_label(&self, node: u32) -> Option<&str> {
        self.labels.get(&node).map(String::as_str)
    }

    /// All labels, ordered by node id.
    pub fn node_labels(&self) -> impl Iterator<Item = (u32, &str)> {
        self.labels.iter().map(|(&n, l)| (n, l.as_str()))
    }

    fn publish(&mut self, key: MetricKey, value: MetricValue) {
        self.metrics
            .entry(key)
            .and_modify(|s| s.current = value.clone())
            .or_insert(MetricSeries {
                current: value,
                points: Vec::new(),
            });
    }

    /// Publishes the cumulative total of a counter.
    pub fn record_counter(&mut self, component: &str, node: Option<u32>, metric: &str, total: u64) {
        self.publish(
            MetricKey::new(component, node, metric),
            MetricValue::Counter(total),
        );
    }

    /// Publishes a gauge value; the registry tracks the high-water mark
    /// across publishes.
    pub fn record_gauge(&mut self, component: &str, node: Option<u32>, metric: &str, value: f64) {
        let key = MetricKey::new(component, node, metric);
        let prev_high = match self.metrics.get(&key).map(|s| &s.current) {
            Some(MetricValue::Gauge { high_water, .. }) => *high_water,
            _ => f64::NEG_INFINITY,
        };
        self.publish(
            key,
            MetricValue::Gauge {
                value,
                high_water: value.max(prev_high),
            },
        );
    }

    /// Publishes a gauge whose value *is* a high-water mark (e.g. queue
    /// depth high-water maintained by the component itself).
    pub fn record_high_water(&mut self, component: &str, node: Option<u32>, metric: &str, hw: f64) {
        self.publish(
            MetricKey::new(component, node, metric),
            MetricValue::Gauge {
                value: hw,
                high_water: hw,
            },
        );
    }

    /// Publishes the cumulative state of a histogram.
    pub fn record_histogram(
        &mut self,
        component: &str,
        node: Option<u32>,
        metric: &str,
        h: &Histogram,
    ) {
        self.publish(
            MetricKey::new(component, node, metric),
            MetricValue::Histogram(h.snapshot()),
        );
    }

    /// Cuts a snapshot at simulated time `at_nanos`: every metric whose
    /// current value differs from its last stored point gains a point.
    /// Boundaries must be non-decreasing (the driver cuts them in sim
    /// order; equal timestamps are collapsed).
    pub fn snapshot(&mut self, at_nanos: u64) {
        if self.snapshot_times.last() == Some(&at_nanos) {
            return;
        }
        debug_assert!(
            match self.snapshot_times.last() {
                Some(&t) => t < at_nanos,
                None => true,
            },
            "snapshots must be cut in sim-time order"
        );
        let idx = self.snapshot_times.len() as u32;
        self.snapshot_times.push(at_nanos);
        for series in self.metrics.values_mut() {
            let changed = match series.points.last() {
                Some((_, v)) => *v != series.current,
                None => true,
            };
            if changed {
                series.points.push((idx, series.current.clone()));
            }
        }
    }

    /// The sim times (nanoseconds) at which snapshots were cut.
    pub fn snapshot_times(&self) -> &[u64] {
        &self.snapshot_times
    }

    /// All metrics, ordered by key.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricKey, &MetricSeries)> {
        self.metrics.iter()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Latest value for a key, if published.
    pub fn get(&self, component: &str, node: Option<u32>, metric: &str) -> Option<&MetricValue> {
        self.metrics
            .get(&MetricKey::new(component, node, metric))
            .map(|s| &s.current)
    }

    /// Latest counter total for a key, if it is a counter.
    pub fn counter_total(&self, component: &str, node: Option<u32>, metric: &str) -> Option<u64> {
        match self.get(component, node, metric) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Sum of a counter across every node of a component (global rows
    /// excluded).
    pub fn counter_sum(&self, component: &str, metric: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(k, _)| k.component == component && k.metric == metric && k.node.is_some())
            .map(|(_, s)| match s.current {
                MetricValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }

    /// Latest histogram for a key, if it is a histogram.
    pub fn histogram(
        &self,
        component: &str,
        node: Option<u32>,
        metric: &str,
    ) -> Option<&HistogramSnapshot> {
        match self.get(component, node, metric) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// The value of a metric at a given snapshot index (the last stored
    /// point at or before `idx`), if the metric existed by then.
    pub fn value_at(&self, key: &MetricKey, idx: u32) -> Option<&MetricValue> {
        let series = self.metrics.get(key)?;
        series
            .points
            .iter()
            .rev()
            .find(|(i, _)| *i <= idx)
            .map(|(_, v)| v)
    }
}

/// A view of the registry scoped to one node: the driver (the
/// simulator) constructs one per node at each snapshot boundary and
/// hands it to the node's `publish_metrics` hook, so components never
/// need to know their own node id.
pub struct NodePublisher<'a> {
    registry: &'a mut MetricsRegistry,
    node: u32,
}

impl<'a> NodePublisher<'a> {
    /// A publisher writing rows for `node`.
    pub fn new(registry: &'a mut MetricsRegistry, node: u32) -> Self {
        NodePublisher { registry, node }
    }

    /// The node this publisher writes rows for.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Publishes a counter total for this node.
    pub fn counter(&mut self, component: &str, metric: &str, total: u64) {
        self.registry
            .record_counter(component, Some(self.node), metric, total);
    }

    /// Publishes a gauge value for this node.
    pub fn gauge(&mut self, component: &str, metric: &str, value: f64) {
        self.registry
            .record_gauge(component, Some(self.node), metric, value);
    }

    /// Publishes a histogram for this node.
    pub fn histogram(&mut self, component: &str, metric: &str, h: &Histogram) {
        self.registry
            .record_histogram(component, Some(self.node), metric, h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_publisher_scopes_rows_to_its_node() {
        let mut r = MetricsRegistry::new();
        let mut p = NodePublisher::new(&mut r, 9);
        p.counter("stub", "timeouts", 4);
        assert_eq!(r.counter_total("stub", Some(9), "timeouts"), Some(4));
    }

    #[test]
    fn counters_accumulate_and_sum() {
        let mut r = MetricsRegistry::new();
        r.record_counter("auth", Some(1), "queries", 10);
        r.record_counter("auth", Some(2), "queries", 5);
        r.record_counter("auth", None, "queries", 99); // global row, not summed
        assert_eq!(r.counter_total("auth", Some(1), "queries"), Some(10));
        assert_eq!(r.counter_sum("auth", "queries"), 15);
    }

    #[test]
    fn snapshots_store_sparse_points() {
        let mut r = MetricsRegistry::new();
        r.record_counter("netsim", None, "events", 1);
        r.snapshot(60);
        r.snapshot(120); // unchanged: no new point
        r.record_counter("netsim", None, "events", 7);
        r.snapshot(180);
        let key = MetricKey::new("netsim", None, "events");
        let series = &r.iter().find(|(k, _)| **k == key).unwrap().1;
        assert_eq!(series.points.len(), 2);
        assert_eq!(series.points[0], (0, MetricValue::Counter(1)));
        assert_eq!(series.points[1], (2, MetricValue::Counter(7)));
        assert_eq!(r.snapshot_times(), &[60, 120, 180]);
        // value_at resolves through the sparse gaps.
        assert_eq!(r.value_at(&key, 1), Some(&MetricValue::Counter(1)));
        assert_eq!(r.value_at(&key, 2), Some(&MetricValue::Counter(7)));
    }

    #[test]
    fn duplicate_boundary_is_collapsed() {
        let mut r = MetricsRegistry::new();
        r.record_counter("netsim", None, "events", 1);
        r.snapshot(60);
        r.snapshot(60);
        assert_eq!(r.snapshot_times(), &[60]);
    }

    #[test]
    fn gauge_high_water_survives_lower_publishes() {
        let mut r = MetricsRegistry::new();
        r.record_gauge("resolver", Some(3), "in_flight", 9.0);
        r.record_gauge("resolver", Some(3), "in_flight", 2.0);
        match r.get("resolver", Some(3), "in_flight") {
            Some(MetricValue::Gauge { value, high_water }) => {
                assert_eq!(*value, 2.0);
                assert_eq!(*high_water, 9.0);
            }
            other => panic!("expected gauge, got {other:?}"),
        }
    }

    #[test]
    fn labels_attach_to_nodes() {
        let mut r = MetricsRegistry::new();
        r.set_node_label(7, "auth:ns1");
        assert_eq!(r.node_label(7), Some("auth:ns1"));
        assert_eq!(r.node_label(8), None);
    }
}

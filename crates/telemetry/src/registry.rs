//! The per-run metrics registry: latest values plus a time-binned
//! series, keyed by `(component, node_id, metric)`.
//!
//! Storage is columnar. Each `(component, metric)` pair is one `Family`,
//! interned on its first publish. A republish finds its family by
//! guessing the one that followed the previous publish's family last
//! time (every node of a role publishes the same list in the same
//! order), else by a borrowed-`&str` hash lookup, and its row by node
//! id. A family holds one `Row` per node, sorted by node, typed by the
//! family's kind, which its first publish fixes: a counter point is a
//! `(u32, u64)` of 16 bytes, a gauge point a `(u32, Gauge)` of 24, a
//! histogram point a `(u32, HistogramSnapshot)` of 64 plus its bins.
//! Republishing a known counter or gauge allocates nothing.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::metrics::{Histogram, HistogramSnapshot};
use crate::sync::Mutex;

/// A registry shared between the simulator (publisher) and the caller
/// (consumer). Locked only at snapshot boundaries and at the end of the
/// run, never on the event hot path.
pub type SharedRegistry = Arc<Mutex<MetricsRegistry>>;

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

/// A gauge row's value: the published value and its high-water mark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Gauge {
    value: f64,
    high_water: f64,
}

/// One node's history within a family: the latest published value and
/// sparse series points `(snapshot_index, value)` — a point is stored
/// only when the value differs from the row's last point, so idle
/// metrics cost one point total.
#[derive(Debug)]
pub(crate) struct Row<V> {
    /// The node; `None` for a global row.
    pub(crate) node: Option<u32>,
    pub(crate) current: V,
    pub(crate) points: Vec<(u32, V)>,
}

/// A family's rows, sorted by node (`None` first), typed by its kind.
#[derive(Debug)]
pub(crate) enum Rows {
    Counter(Vec<Row<u64>>),
    Gauge(Vec<Row<Gauge>>),
    Histogram(Vec<Row<HistogramSnapshot>>),
}

/// Every node's row of one `(component, metric)` pair.
#[derive(Debug)]
pub(crate) struct Family {
    pub(crate) component: Box<str>,
    pub(crate) metric: Box<str>,
    pub(crate) rows: Rows,
    /// Index of the row published last. A cut publishes nodes in
    /// ascending order, so the row after it is the usual next hit.
    cursor: usize,
    /// The family published right after this one last time. Every node
    /// of a role publishes the same metrics in the same order, so this
    /// is the usual next family.
    next: usize,
}

impl Family {
    fn is(&self, component: &str, metric: &str) -> bool {
        *self.metric == *metric && *self.component == *component
    }
}

/// The point type of one family kind.
pub(crate) trait Kind: Clone + PartialEq {
    /// The kind's name, for the mixed-kind panic.
    const NAME: &'static str;
    /// `rows` when they are of this kind.
    fn rows(rows: &mut Rows) -> Option<&mut Vec<Row<Self>>>;
    /// An empty family of this kind.
    fn empty() -> Rows;
    /// The public form of a stored value.
    fn value(&self) -> MetricValue;
}

impl Kind for u64 {
    const NAME: &'static str = "counter";
    fn rows(rows: &mut Rows) -> Option<&mut Vec<Row<Self>>> {
        match rows {
            Rows::Counter(r) => Some(r),
            _ => None,
        }
    }
    fn empty() -> Rows {
        Rows::Counter(Vec::new())
    }
    fn value(&self) -> MetricValue {
        MetricValue::Counter(*self)
    }
}

impl Kind for Gauge {
    const NAME: &'static str = "gauge";
    fn rows(rows: &mut Rows) -> Option<&mut Vec<Row<Self>>> {
        match rows {
            Rows::Gauge(r) => Some(r),
            _ => None,
        }
    }
    fn empty() -> Rows {
        Rows::Gauge(Vec::new())
    }
    fn value(&self) -> MetricValue {
        MetricValue::Gauge {
            value: self.value,
            high_water: self.high_water,
        }
    }
}

impl Kind for HistogramSnapshot {
    const NAME: &'static str = "histogram";
    fn rows(rows: &mut Rows) -> Option<&mut Vec<Row<Self>>> {
        match rows {
            Rows::Histogram(r) => Some(r),
            _ => None,
        }
    }
    fn empty() -> Rows {
        Rows::Histogram(Vec::new())
    }
    fn value(&self) -> MetricValue {
        MetricValue::Histogram(self.clone())
    }
}

impl Rows {
    fn len(&self) -> usize {
        match self {
            Rows::Counter(r) => r.len(),
            Rows::Gauge(r) => r.len(),
            Rows::Histogram(r) => r.len(),
        }
    }

    fn node(&self, row: usize) -> Option<u32> {
        match self {
            Rows::Counter(r) => r[row].node,
            Rows::Gauge(r) => r[row].node,
            Rows::Histogram(r) => r[row].node,
        }
    }
}

/// The row of `node` in rows sorted by node.
fn find<V>(rows: &[Row<V>], node: Option<u32>) -> Option<&Row<V>> {
    let at = rows.binary_search_by_key(&node, |r| r.node).ok()?;
    Some(&rows[at])
}

/// The public form of `node`'s latest value, or of its value at
/// snapshot `at` (the last point at or before it).
fn value_of<V: Kind>(rows: &[Row<V>], node: Option<u32>, at: Option<u32>) -> Option<MetricValue> {
    let row = find(rows, node)?;
    match at {
        None => Some(row.current.value()),
        Some(idx) => {
            let n = row.points.partition_point(|&(i, _)| i <= idx);
            n.checked_sub(1).map(|last| row.points[last].1.value())
        }
    }
}

/// Stores a point for every row whose value differs (by `PartialEq`)
/// from its last point.
fn cut<V: Clone + PartialEq>(rows: &mut [Row<V>], idx: u32) {
    for row in rows {
        if row.points.last().map_or(true, |(_, v)| *v != row.current) {
            row.points.push((idx, row.current.clone()));
        }
    }
}

/// Latest values and snapshot series for every metric in one run.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    labels: BTreeMap<u32, String>,
    families: Vec<Family>,
    /// component → metric → index into `families`.
    index: HashMap<Box<str>, HashMap<Box<str>, usize>>,
    /// The family published last.
    last: usize,
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

    fn family(&self, component: &str, metric: &str) -> Option<&Family> {
        let f = *self.index.get(component)?.get(metric)?;
        Some(&self.families[f])
    }

    /// The index of family `(component, metric)`, created empty with
    /// `empty` if new.
    fn intern(&mut self, component: &str, metric: &str, empty: fn() -> Rows) -> usize {
        if let Some(&f) = self.index.get(component).and_then(|m| m.get(metric)) {
            return f;
        }
        let f = self.families.len();
        self.families.push(Family {
            component: component.into(),
            metric: metric.into(),
            rows: empty(),
            cursor: 0,
            next: f,
        });
        let metrics = self.index.entry(component.into()).or_default();
        metrics.insert(metric.into(), f);
        f
    }

    /// The latest value of `node`'s row in family `(component, metric)`,
    /// created from `init` if the family or the row is new. A family's
    /// kind is fixed by its first publish; publishing it as another kind
    /// is a bug in the publisher and panics.
    fn slot<V: Kind>(
        &mut self,
        component: &str,
        node: Option<u32>,
        metric: &str,
        init: impl FnOnce() -> V,
    ) -> &mut V {
        let guess = self.families.get(self.last).map(|prev| prev.next);
        let f = match guess {
            Some(g) if self.families[g].is(component, metric) => g,
            _ => self.intern(component, metric, V::empty),
        };
        if let Some(prev) = self.families.get_mut(self.last) {
            prev.next = f;
        }
        self.last = f;
        let family = &mut self.families[f];
        let Some(rows) = V::rows(&mut family.rows) else {
            panic!(
                "{component}/{metric} is published as a {} after its first publish as another kind",
                V::NAME
            );
        };
        let next = family.cursor + 1;
        let at = if rows.get(next).is_some_and(|r| r.node == node) {
            next
        } else {
            match rows.binary_search_by_key(&node, |r| r.node) {
                Ok(at) => at,
                Err(at) => {
                    let row = Row {
                        node,
                        current: init(),
                        points: Vec::new(),
                    };
                    rows.insert(at, row);
                    at
                }
            }
        };
        family.cursor = at;
        &mut rows[at].current
    }

    /// Publishes the cumulative total of a counter.
    pub fn record_counter(&mut self, component: &str, node: Option<u32>, metric: &str, total: u64) {
        *self.slot(component, node, metric, || 0) = total;
    }

    /// Publishes a gauge value; the registry tracks the high-water mark
    /// across publishes.
    pub fn record_gauge(&mut self, component: &str, node: Option<u32>, metric: &str, value: f64) {
        let gauge = self.slot(component, node, metric, || Gauge {
            value,
            high_water: f64::NEG_INFINITY,
        });
        gauge.value = value;
        gauge.high_water = value.max(gauge.high_water);
    }

    /// Publishes a gauge whose value *is* a high-water mark (e.g. queue
    /// depth high-water maintained by the component itself).
    pub fn record_high_water(&mut self, component: &str, node: Option<u32>, metric: &str, hw: f64) {
        let gauge = Gauge {
            value: hw,
            high_water: hw,
        };
        *self.slot(component, node, metric, || gauge) = gauge;
    }

    /// Publishes the cumulative state of a histogram.
    pub fn record_histogram(
        &mut self,
        component: &str,
        node: Option<u32>,
        metric: &str,
        h: &Histogram,
    ) {
        h.snapshot_into(self.slot(component, node, metric, HistogramSnapshot::default));
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
        for family in &mut self.families {
            match &mut family.rows {
                Rows::Counter(rows) => cut(rows, idx),
                Rows::Gauge(rows) => cut(rows, idx),
                Rows::Histogram(rows) => cut(rows, idx),
            }
        }
    }

    /// The sim times (nanoseconds) at which snapshots were cut.
    pub fn snapshot_times(&self) -> &[u64] {
        &self.snapshot_times
    }

    /// Every row as `(family, node, index into the family's rows)`, in
    /// export order: component, then node (`None` first), then metric.
    pub(crate) fn rows_in_order(&self) -> Vec<(&Family, Option<u32>, usize)> {
        let mut by_name: Vec<&Family> = self.families.iter().collect();
        by_name.sort_unstable_by_key(|f| (&f.component, &f.metric));
        let mut order = Vec::with_capacity(self.len());
        let mut component = 0;
        for (rank, family) in by_name.iter().enumerate() {
            if rank > 0 && by_name[rank - 1].component != family.component {
                component += 1;
            }
            for row in 0..family.rows.len() {
                order.push((component, family.rows.node(row), rank, row));
            }
        }
        order.sort_unstable();
        order
            .into_iter()
            .map(|(_, node, rank, row)| (by_name[rank], node, row))
            .collect()
    }

    /// Number of registered metrics: one per `(component, node, metric)`.
    pub fn len(&self) -> usize {
        self.families.iter().map(|f| f.rows.len()).sum()
    }

    /// True when nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// The latest value of a metric, or its value at snapshot `at`.
    fn value(
        &self,
        component: &str,
        node: Option<u32>,
        metric: &str,
        at: Option<u32>,
    ) -> Option<MetricValue> {
        match &self.family(component, metric)?.rows {
            Rows::Counter(rows) => value_of(rows, node, at),
            Rows::Gauge(rows) => value_of(rows, node, at),
            Rows::Histogram(rows) => value_of(rows, node, at),
        }
    }

    /// Latest value for a key, if published.
    pub fn get(&self, component: &str, node: Option<u32>, metric: &str) -> Option<MetricValue> {
        self.value(component, node, metric, None)
    }

    /// Latest counter total for a key, if it is a counter.
    pub fn counter_total(&self, component: &str, node: Option<u32>, metric: &str) -> Option<u64> {
        match &self.family(component, metric)?.rows {
            Rows::Counter(rows) => find(rows, node).map(|r| r.current),
            _ => None,
        }
    }

    /// Sum of a counter across every node of a component (global rows
    /// excluded).
    pub fn counter_sum(&self, component: &str, metric: &str) -> u64 {
        match self.family(component, metric).map(|f| &f.rows) {
            Some(Rows::Counter(rows)) => rows
                .iter()
                .filter(|r| r.node.is_some())
                .map(|r| r.current)
                .sum(),
            _ => 0,
        }
    }

    /// Latest histogram for a key, if it is a histogram.
    pub fn histogram(
        &self,
        component: &str,
        node: Option<u32>,
        metric: &str,
    ) -> Option<&HistogramSnapshot> {
        match &self.family(component, metric)?.rows {
            Rows::Histogram(rows) => find(rows, node).map(|r| &r.current),
            _ => None,
        }
    }

    /// The value of a metric at a given snapshot index (the last stored
    /// point at or before `idx`), if the metric existed by then.
    pub fn value_at(
        &self,
        component: &str,
        node: Option<u32>,
        metric: &str,
        idx: u32,
    ) -> Option<MetricValue> {
        self.value(component, node, metric, Some(idx))
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
        let Rows::Counter(rows) = &r.family("netsim", "events").unwrap().rows else {
            panic!("a counter family");
        };
        assert_eq!(rows[0].points, [(0, 1), (2, 7)]);
        assert_eq!(r.snapshot_times(), &[60, 120, 180]);
        // value_at resolves through the sparse gaps.
        let at = |idx| r.value_at("netsim", None, "events", idx);
        assert_eq!(at(1), Some(MetricValue::Counter(1)));
        assert_eq!(at(2), Some(MetricValue::Counter(7)));
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
        assert_eq!(
            r.get("resolver", Some(3), "in_flight"),
            Some(MetricValue::Gauge {
                value: 2.0,
                high_water: 9.0
            })
        );
    }

    #[test]
    #[should_panic(expected = "auth/queries is published as a gauge")]
    fn a_family_keeps_the_kind_of_its_first_publish() {
        let mut r = MetricsRegistry::new();
        r.record_counter("auth", Some(1), "queries", 10);
        r.record_gauge("auth", Some(2), "queries", 1.0);
    }

    #[test]
    fn labels_attach_to_nodes() {
        let mut r = MetricsRegistry::new();
        r.set_node_label(7, "auth:ns1");
        assert_eq!(r.node_label(7), Some("auth:ns1"));
        assert_eq!(r.node_label(8), None);
    }
}

//! The per-run metrics registry: latest values plus a time-binned
//! series, keyed by `(component, node_id, metric)`.
//!
//! Storage is columnar. Each `(component, metric)` pair is one `Family`,
//! interned on its first publish. A republish finds its family by
//! guessing the one that followed the previous publish's family last
//! time (every node of a role publishes the same list in the same
//! order), else by a borrowed-`&str` hash lookup, and its row by node
//! id. A row keeps the id of its first publish (ids count up in
//! insertion order); a sorted index of ids serves node lookup. The
//! family's kind, which its first publish fixes, types its columns: the
//! latest value of each row, and one point log that a cut appends to,
//! cut-major, a `(row id, value)` point per changed row. The log is
//! split columns: a counter point is a `u32` and a `u64`, 12 bytes, a
//! gauge point 20, a histogram point 56 plus its non-empty bins, which
//! sit in one flat column per family. A cut reserves exactly the points
//! it appends, so no column holds more slack than one cut's rows.
//! Republishing a known counter or gauge allocates nothing.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;
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
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub(crate) struct Gauge {
    value: f64,
    high_water: f64,
}

/// A row's `last` before its first point.
const NO_POINT: u32 = u32::MAX;

/// One family's rows and points, typed by its kind. A point is stored
/// only when the row's value differs (by `PartialEq`) from the row's
/// last point, so idle metrics cost one point total.
#[derive(Debug, Default)]
pub(crate) struct Series<V: Kind> {
    /// Each row's latest published value, by row id.
    current: Vec<V>,
    /// Each row's last point (an index into the point columns), by row
    /// id; [`NO_POINT`] before its first.
    last: Vec<u32>,
    /// Each point's row id. Cut-major, and ascending within a cut.
    rows: Vec<u32>,
    /// Each point's value.
    values: V::Column,
}

impl<V: Kind> Series<V> {
    /// True when row `id`'s latest value is not its last point.
    fn changed(&self, id: usize) -> bool {
        let last = self.last[id];
        last == NO_POINT || !self.values.holds(last as usize, &self.current[id])
    }

    /// Appends a point for every changed row, growing the point columns
    /// by exactly the points appended, and gives back the row columns'
    /// growth slack. Returns where the cut's points begin.
    fn cut(&mut self) -> u32 {
        self.current.shrink_to_fit();
        self.last.shrink_to_fit();
        let start = index(self.rows.len());
        let (mut points, mut bins) = (0, 0);
        for id in 0..self.current.len() {
            if self.changed(id) {
                points += 1;
                bins += self.current[id].bins();
            }
        }
        self.rows.reserve_exact(points);
        self.values.reserve_exact(points, bins);
        for id in 0..self.current.len() {
            if self.changed(id) {
                self.last[id] = index(self.rows.len());
                self.rows.push(index(id));
                self.values.push(&self.current[id]);
            }
        }
        start
    }

    /// The public form of row `id`'s latest value.
    pub(crate) fn current(&self, id: usize) -> MetricValue {
        self.current[id].value()
    }

    /// The public form of point `at`.
    pub(crate) fn point(&self, at: usize) -> MetricValue {
        self.values.get(at)
    }

    /// The public form of row `id`'s latest value, or of its value at
    /// snapshot `at`: its last point in the cuts up to and including it,
    /// whose points begin where `starts` says.
    fn value(&self, starts: &[u32], id: usize, at: Option<u32>) -> Option<MetricValue> {
        let Some(at) = at else {
            return Some(self.current(id));
        };
        let last = self.last[id];
        if last == NO_POINT {
            return None;
        }
        let cuts = starts.len().min(at as usize + 1);
        let end = |cut: usize| starts.get(cut).map_or(self.rows.len(), |&s| s as usize);
        if (last as usize) < end(cuts) {
            return Some(self.point(last as usize));
        }
        let id = index(id);
        (0..cuts).rev().find_map(|cut| {
            let from = starts[cut] as usize;
            let at = self.rows[from..end(cut + 1)].binary_search(&id).ok()?;
            Some(self.point(from + at))
        })
    }
}

/// `n` as a row id or point index. A family holds fewer than 2^32 of
/// each: that many points would be tens of gigabytes.
fn index(n: usize) -> u32 {
    u32::try_from(n).expect("a telemetry family outgrew u32 indices")
}

/// A family's series, typed by its kind.
#[derive(Debug)]
pub(crate) enum Log {
    Counter(Series<u64>),
    Gauge(Series<Gauge>),
    Histogram(Series<HistogramSnapshot>),
}

/// Every node's row of one `(component, metric)` pair.
#[derive(Debug)]
pub(crate) struct Family {
    pub(crate) component: Box<str>,
    pub(crate) metric: Box<str>,
    /// Each row's node (`None` for a global row), by row id.
    pub(crate) nodes: Vec<Option<u32>>,
    /// The row ids, sorted by node.
    by_node: Vec<u32>,
    /// Where each snapshot's points begin in the log, by snapshot index.
    pub(crate) starts: Vec<u32>,
    pub(crate) log: Log,
    /// The row id published last. Rows are created as a cut publishes
    /// them, in ascending node order, so the id after it is the usual
    /// next hit.
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

    /// The id of `node`'s row, else where its id goes in `by_node`.
    fn find(&self, node: Option<u32>) -> Result<usize, usize> {
        let at = self
            .by_node
            .binary_search_by_key(&node, |&id| self.nodes[id as usize])?;
        Ok(self.by_node[at] as usize)
    }

    fn row(&self, node: Option<u32>) -> Option<usize> {
        self.find(node).ok()
    }

    /// Each point's row id, in log order.
    pub(crate) fn point_rows(&self) -> &[u32] {
        match &self.log {
            Log::Counter(s) => &s.rows,
            Log::Gauge(s) => &s.rows,
            Log::Histogram(s) => &s.rows,
        }
    }

    /// Cuts the next snapshot: records where its points begin, appends
    /// them, and gives back the row columns' growth slack.
    fn cut(&mut self) {
        self.nodes.shrink_to_fit();
        self.by_node.shrink_to_fit();
        let start = match &mut self.log {
            Log::Counter(s) => s.cut(),
            Log::Gauge(s) => s.cut(),
            Log::Histogram(s) => s.cut(),
        };
        self.starts.push(start);
    }

    /// The public form of `node`'s latest value, or of its value at
    /// snapshot `at` (the last point at or before it).
    fn value(&self, node: Option<u32>, at: Option<u32>) -> Option<MetricValue> {
        let id = self.row(node)?;
        match &self.log {
            Log::Counter(s) => s.value(&self.starts, id, at),
            Log::Gauge(s) => s.value(&self.starts, id, at),
            Log::Histogram(s) => s.value(&self.starts, id, at),
        }
    }
}

/// The point columns of one kind.
pub(crate) trait Column<V>: Debug + Default {
    /// True when point `at` equals `v` (by `V`'s `PartialEq`).
    fn holds(&self, at: usize, v: &V) -> bool;
    /// Room for exactly `points` more points holding `bins` bins.
    fn reserve_exact(&mut self, points: usize, bins: usize);
    /// Appends a point.
    fn push(&mut self, v: &V);
    /// The public form of point `at`.
    fn get(&self, at: usize) -> MetricValue;
}

impl<V: Kind + Copy + PartialEq + Debug> Column<V> for Vec<V> {
    fn holds(&self, at: usize, v: &V) -> bool {
        self[at] == *v
    }
    fn reserve_exact(&mut self, points: usize, _bins: usize) {
        Vec::reserve_exact(self, points);
    }
    fn push(&mut self, v: &V) {
        Vec::push(self, *v);
    }
    fn get(&self, at: usize) -> MetricValue {
        self[at].value()
    }
}

/// A histogram snapshot without its bins.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Summary {
    count: u64,
    sum: u64,
    min: Option<u64>,
    max: Option<u64>,
}

impl Summary {
    fn of(h: &HistogramSnapshot) -> Summary {
        Summary {
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
        }
    }
}

/// Histogram points: a summary each, and their bins end to end in one
/// column.
#[derive(Debug, Default)]
pub(crate) struct Histograms {
    summaries: Vec<Summary>,
    /// Where each point's bins end in `bins`.
    ends: Vec<u32>,
    bins: Vec<(u64, u64)>,
}

impl Histograms {
    fn bins(&self, at: usize) -> &[(u64, u64)] {
        let from = at.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        &self.bins[from..self.ends[at] as usize]
    }
}

impl Column<HistogramSnapshot> for Histograms {
    fn holds(&self, at: usize, v: &HistogramSnapshot) -> bool {
        self.summaries[at] == Summary::of(v) && self.bins(at) == v.bins.as_slice()
    }
    fn reserve_exact(&mut self, points: usize, bins: usize) {
        self.summaries.reserve_exact(points);
        self.ends.reserve_exact(points);
        self.bins.reserve_exact(bins);
    }
    fn push(&mut self, v: &HistogramSnapshot) {
        self.summaries.push(Summary::of(v));
        self.bins.extend_from_slice(&v.bins);
        self.ends.push(index(self.bins.len()));
    }
    fn get(&self, at: usize) -> MetricValue {
        let Summary {
            count,
            sum,
            min,
            max,
        } = self.summaries[at];
        MetricValue::Histogram(HistogramSnapshot {
            count,
            sum,
            min,
            max,
            bins: self.bins(at).to_vec(),
        })
    }
}

/// The value type of one family kind.
pub(crate) trait Kind: Sized {
    /// The kind's name, for the mixed-kind panic.
    const NAME: &'static str;
    /// The columns this kind's points are stored in.
    type Column: Column<Self>;
    /// `log` when it is of this kind.
    fn series(log: &mut Log) -> Option<&mut Series<Self>>;
    /// An empty family of this kind.
    fn empty() -> Log;
    /// The public form of a value.
    fn value(&self) -> MetricValue;
    /// How many histogram bins a point of this value stores.
    fn bins(&self) -> usize {
        0
    }
}

impl Kind for u64 {
    const NAME: &'static str = "counter";
    type Column = Vec<u64>;
    fn series(log: &mut Log) -> Option<&mut Series<Self>> {
        match log {
            Log::Counter(s) => Some(s),
            _ => None,
        }
    }
    fn empty() -> Log {
        Log::Counter(Series::default())
    }
    fn value(&self) -> MetricValue {
        MetricValue::Counter(*self)
    }
}

impl Kind for Gauge {
    const NAME: &'static str = "gauge";
    type Column = Vec<Gauge>;
    fn series(log: &mut Log) -> Option<&mut Series<Self>> {
        match log {
            Log::Gauge(s) => Some(s),
            _ => None,
        }
    }
    fn empty() -> Log {
        Log::Gauge(Series::default())
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
    type Column = Histograms;
    fn series(log: &mut Log) -> Option<&mut Series<Self>> {
        match log {
            Log::Histogram(s) => Some(s),
            _ => None,
        }
    }
    fn empty() -> Log {
        Log::Histogram(Series::default())
    }
    fn value(&self) -> MetricValue {
        MetricValue::Histogram(self.clone())
    }
    fn bins(&self) -> usize {
        self.bins.len()
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

    /// Every family, in interning order.
    pub(crate) fn families(&self) -> &[Family] {
        &self.families
    }

    /// The index of family `(component, metric)`, created empty with
    /// `empty` if new.
    fn intern(&mut self, component: &str, metric: &str, empty: fn() -> Log) -> usize {
        if let Some(&f) = self.index.get(component).and_then(|m| m.get(metric)) {
            return f;
        }
        let f = self.families.len();
        self.families.push(Family {
            component: component.into(),
            metric: metric.into(),
            nodes: Vec::new(),
            by_node: Vec::new(),
            // No points in the snapshots cut before it was born.
            starts: vec![0; self.snapshot_times.len()],
            log: empty(),
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
        let next = family.cursor + 1;
        let id = if family.nodes.get(next) == Some(&node) {
            Ok(next)
        } else {
            family.find(node)
        };
        let Some(series) = V::series(&mut family.log) else {
            panic!(
                "{component}/{metric} is published as a {} after its first publish as another kind",
                V::NAME
            );
        };
        let id = id.unwrap_or_else(|at| {
            let id = family.nodes.len();
            family.nodes.push(node);
            family.by_node.insert(at, index(id));
            series.current.push(init());
            series.last.push(NO_POINT);
            id
        });
        family.cursor = id;
        &mut series.current[id]
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
        self.snapshot_times.push(at_nanos);
        for family in &mut self.families {
            family.cut();
        }
    }

    /// The sim times (nanoseconds) at which snapshots were cut.
    pub fn snapshot_times(&self) -> &[u64] {
        &self.snapshot_times
    }

    /// Every row as `(family index, node, row id)`, in export order:
    /// component, then node (`None` first), then metric.
    pub(crate) fn rows_in_order(&self) -> Vec<(usize, Option<u32>, u32)> {
        let mut by_name: Vec<usize> = (0..self.families.len()).collect();
        by_name.sort_unstable_by_key(|&f| (&self.families[f].component, &self.families[f].metric));
        let mut order = Vec::with_capacity(self.len());
        let mut component = 0;
        for (rank, &f) in by_name.iter().enumerate() {
            let family = &self.families[f];
            if rank > 0 && self.families[by_name[rank - 1]].component != family.component {
                component += 1;
            }
            for &id in &family.by_node {
                order.push((component, family.nodes[id as usize], rank, id));
            }
        }
        order.sort_unstable();
        order
            .into_iter()
            .map(|(_, node, rank, id)| (by_name[rank], node, id))
            .collect()
    }

    /// Number of registered metrics: one per `(component, node, metric)`.
    pub fn len(&self) -> usize {
        self.families.iter().map(|f| f.nodes.len()).sum()
    }

    /// True when nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// Latest value for a key, if published.
    pub fn get(&self, component: &str, node: Option<u32>, metric: &str) -> Option<MetricValue> {
        self.family(component, metric)?.value(node, None)
    }

    /// Latest counter total for a key, if it is a counter.
    pub fn counter_total(&self, component: &str, node: Option<u32>, metric: &str) -> Option<u64> {
        let family = self.family(component, metric)?;
        match &family.log {
            Log::Counter(s) => family.row(node).map(|id| s.current[id]),
            _ => None,
        }
    }

    /// Sum of a counter across every node of a component (global rows
    /// excluded).
    pub fn counter_sum(&self, component: &str, metric: &str) -> u64 {
        let Some(family) = self.family(component, metric) else {
            return 0;
        };
        match &family.log {
            Log::Counter(s) => (family.nodes.iter().zip(&s.current))
                .filter(|(node, _)| node.is_some())
                .map(|(_, total)| total)
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
        let family = self.family(component, metric)?;
        match &family.log {
            Log::Histogram(s) => family.row(node).map(|id| &s.current[id]),
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
        self.family(component, metric)?.value(node, Some(idx))
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
        let family = r.family("netsim", "events").unwrap();
        let Log::Counter(s) = &family.log else {
            panic!("a counter family");
        };
        assert_eq!(s.rows, [0, 0]);
        assert_eq!(s.values, [1, 7]);
        assert_eq!(family.starts, [0, 1, 1]);
        assert_eq!(r.snapshot_times(), &[60, 120, 180]);
        // value_at resolves through the sparse gaps.
        let at = |idx| r.value_at("netsim", None, "events", idx);
        assert_eq!(at(1), Some(MetricValue::Counter(1)));
        assert_eq!(at(2), Some(MetricValue::Counter(7)));
    }

    /// Row ids count up in publish order while the log is cut-major: a
    /// node below every existing row, first published after two cuts,
    /// takes the next id, and its points stay under its own node.
    #[test]
    fn a_late_row_below_the_others_keeps_its_own_points() {
        let mut r = MetricsRegistry::new();
        r.record_counter("auth", Some(5), "queries", 5);
        r.record_counter("auth", Some(9), "queries", 9);
        r.snapshot(60);
        r.record_counter("auth", Some(9), "queries", 10);
        r.snapshot(120);
        r.record_counter("auth", Some(1), "queries", 3);
        r.record_counter("auth", Some(5), "queries", 6);
        r.snapshot(180);
        let row = |node: u32, points: &[(u32, u64)]| {
            let points: Vec<String> = (points.iter())
                .map(|(at, n)| format!(r#"{{"snapshot":{at},"type":"counter","total":{n}}}"#))
                .collect();
            format!(
                r#"{{"component":"auth","node":{node},"metric":"queries","type":"counter","total":{},"points":[{}]}}"#,
                r.counter_total("auth", Some(node), "queries").unwrap(),
                points.join(",")
            )
        };
        let want = format!(
            r#"{{"snapshot_times_nanos":[60,120,180],"node_labels":{{}},"metrics":[{},{},{}]}}"#,
            row(1, &[(2, 3)]),
            row(5, &[(0, 5), (2, 6)]),
            row(9, &[(0, 9), (1, 10)]),
        );
        assert_eq!(r.to_json(), want);
        let at = |node, idx| r.value_at("auth", Some(node), "queries", idx);
        assert_eq!(at(1, 1), None);
        assert_eq!(at(1, 2), Some(MetricValue::Counter(3)));
        assert_eq!(at(5, 1), Some(MetricValue::Counter(5)));
        assert_eq!(at(9, 2), Some(MetricValue::Counter(10)));
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

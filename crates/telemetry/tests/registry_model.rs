//! Oracle test for [`MetricsRegistry`]: random publish / label / cut
//! sequences drive the registry and a reference model side by side, and
//! after every step the two must export the same bytes and answer every
//! query the same way.
//!
//! The model is the registry's earlier design kept as plain code: one
//! `BTreeMap` from `(component, node, metric)` to the latest value plus
//! its sparse `(snapshot, value)` points. It is slow and obviously
//! right; the registry under test is the family-backed one.
//!
//! `DIKE_CASES` scales the case count (CI runs 2000 in release).

use std::collections::BTreeMap;

use dike_telemetry::check::{self, Gen};
use dike_telemetry::json::Writer;
use dike_telemetry::{Histogram, HistogramSnapshot, MetricValue, MetricsRegistry, NodePublisher};

type Key = (String, Option<u32>, String);

/// The reference registry.
#[derive(Default)]
struct Model {
    labels: BTreeMap<u32, String>,
    metrics: BTreeMap<Key, (MetricValue, Vec<(u32, MetricValue)>)>,
    snapshot_times: Vec<u64>,
}

fn key(component: &str, node: Option<u32>, metric: &str) -> Key {
    (component.to_owned(), node, metric.to_owned())
}

impl Model {
    fn publish(&mut self, key: Key, value: MetricValue) {
        self.metrics
            .entry(key)
            .and_modify(|(current, _)| *current = value.clone())
            .or_insert((value, Vec::new()));
    }

    fn record_gauge(&mut self, key: Key, value: f64) {
        let prev_high = match self.metrics.get(&key) {
            Some((MetricValue::Gauge { high_water, .. }, _)) => *high_water,
            _ => f64::NEG_INFINITY,
        };
        let high_water = value.max(prev_high);
        self.publish(key, MetricValue::Gauge { value, high_water });
    }

    fn snapshot(&mut self, at: u64) {
        if self.snapshot_times.last() == Some(&at) {
            return;
        }
        let idx = self.snapshot_times.len() as u32;
        self.snapshot_times.push(at);
        for (current, points) in self.metrics.values_mut() {
            if points.last().map_or(true, |(_, v)| v != current) {
                points.push((idx, current.clone()));
            }
        }
    }

    fn get(&self, key: &Key) -> Option<&MetricValue> {
        self.metrics.get(key).map(|(v, _)| v)
    }

    fn counter_sum(&self, component: &str, metric: &str) -> u64 {
        let rows = self
            .metrics
            .iter()
            .filter(|((c, n, m), _)| c == component && m == metric && n.is_some());
        rows.map(|(_, (v, _))| match v {
            MetricValue::Counter(n) => *n,
            _ => 0,
        })
        .sum()
    }

    fn value_at(&self, key: &Key, idx: u32) -> Option<&MetricValue> {
        let (_, points) = self.metrics.get(key)?;
        points.iter().rev().find(|(i, _)| *i <= idx).map(|(_, v)| v)
    }

    fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object().key("snapshot_times_nanos").begin_array();
        for &t in &self.snapshot_times {
            w.u64(t);
        }
        w.end_array().key("node_labels").begin_object();
        for (node, label) in &self.labels {
            w.key(&node.to_string()).str(label);
        }
        w.end_object().key("metrics").begin_array();
        for ((component, node, metric), (current, points)) in &self.metrics {
            w.begin_object().key("component").str(component).key("node");
            match node {
                Some(n) => w.u64((*n).into()),
                None => w.null(),
            };
            w.key("metric").str(metric);
            value_fields(current, &mut w);
            w.key("points").begin_array();
            for (idx, v) in points {
                w.begin_object().key("snapshot").u64((*idx).into());
                value_fields(v, &mut w);
                w.end_object();
            }
            w.end_array().end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

fn value_fields(v: &MetricValue, w: &mut Writer) {
    match v {
        MetricValue::Counter(n) => {
            w.key("type").str("counter").key("total").u64(*n);
        }
        MetricValue::Gauge { value, high_water } => {
            w.key("type").str("gauge").key("value").f64(*value);
            w.key("high_water").f64(*high_water);
        }
        MetricValue::Histogram(h) => {
            w.key("type").str("histogram").key("histogram");
            histogram_json(h, w);
        }
    }
}

fn histogram_json(h: &HistogramSnapshot, w: &mut Writer) {
    w.begin_object()
        .key("count")
        .u64(h.count)
        .key("sum")
        .u64(h.sum);
    if let Some(min) = h.min {
        w.key("min").u64(min);
    }
    if let Some(max) = h.max {
        w.key("max").u64(max);
    }
    w.key("bins").begin_array();
    for &(lo, c) in &h.bins {
        w.begin_array().u64(lo).u64(c).end_array();
    }
    w.end_array().end_object();
}

const COMPONENTS: [&str; 3] = ["stub", "auth", "netsim"];
/// One metric per kind, plus a gauge that also takes high-water publishes.
const COUNTER: &str = "queries";
const GAUGE: &str = "load";
const HIGH_WATER: &str = "depth";
const HISTOGRAM: &str = "latency";
const METRICS: [&str; 4] = [COUNTER, GAUGE, HIGH_WATER, HISTOGRAM];
/// Few values, so republishing an unchanged value is common. The
/// largest needs the high bits; five of it still sum in `counter_sum`.
const COUNTS: [u64; 4] = [0, 1, 7, 1 << 60];
const GAUGES: [f64; 7] = [0.0, -0.0, 1.5, -2.0, 1e300, f64::NAN, f64::INFINITY];

fn node(g: &mut Gen) -> Option<u32> {
    match g.range(0..6u32) {
        5 => None,
        n => Some(n),
    }
}

fn histogram(g: &mut Gen) -> Histogram {
    let mut h = Histogram::new();
    for _ in 0..g.range(0..3) {
        h.observe(*g.pick(&[0, 1, 5, 1 << 40]));
    }
    h
}

/// A value's `Debug` form: `NaN` equals itself and `-0.0` differs from
/// `0.0`, so two answers match only when they are the same bits.
fn shown<V: std::fmt::Debug>(v: Option<V>) -> String {
    format!("{v:?}")
}

/// One random step applied to both registries.
fn step(g: &mut Gen, reg: &mut MetricsRegistry, model: &mut Model, now: &mut u64) {
    let component = *g.pick(&COMPONENTS);
    let node = node(g);
    match g.range(0..7u32) {
        0 | 1 => {
            let total = *g.pick(&COUNTS);
            match node {
                // The simulator's per-node path.
                Some(n) if g.bool() => {
                    NodePublisher::new(reg, n).counter(component, COUNTER, total)
                }
                _ => reg.record_counter(component, node, COUNTER, total),
            }
            model.publish(key(component, node, COUNTER), MetricValue::Counter(total));
        }
        2 => {
            let metric = *g.pick(&[GAUGE, HIGH_WATER]);
            let value = *g.pick(&GAUGES);
            reg.record_gauge(component, node, metric, value);
            model.record_gauge(key(component, node, metric), value);
        }
        3 => {
            let hw = *g.pick(&GAUGES);
            reg.record_high_water(component, node, HIGH_WATER, hw);
            let gauge = MetricValue::Gauge {
                value: hw,
                high_water: hw,
            };
            model.publish(key(component, node, HIGH_WATER), gauge);
        }
        4 => {
            let h = histogram(g);
            reg.record_histogram(component, node, HISTOGRAM, &h);
            model.publish(
                key(component, node, HISTOGRAM),
                MetricValue::Histogram(h.snapshot()),
            );
        }
        5 => {
            let n = g.range(0..5u32);
            let label = g.text(0..4);
            reg.set_node_label(n, label.clone());
            model.labels.insert(n, label);
        }
        _ => {
            // A zero step repeats the last boundary, which collapses.
            *now += g.range(0..3u64);
            reg.snapshot(*now);
            model.snapshot(*now);
        }
    }
}

/// Every observable answer of the two registries agrees.
fn assert_agree(reg: &MetricsRegistry, model: &Model) {
    assert_eq!(reg.to_json(), model.to_json());
    assert_eq!(reg.len(), model.metrics.len());
    assert_eq!(reg.is_empty(), model.metrics.is_empty());
    assert_eq!(reg.snapshot_times(), model.snapshot_times.as_slice());
    let snapshots = model.snapshot_times.len() as u32;
    for component in COMPONENTS {
        for metric in METRICS {
            assert_eq!(
                reg.counter_sum(component, metric),
                model.counter_sum(component, metric)
            );
            for node in [None, Some(0), Some(1), Some(2), Some(3), Some(4)] {
                let k = key(component, node, metric);
                let want = model.get(&k);
                assert_eq!(shown(reg.get(component, node, metric)), shown(want));
                let total = match want {
                    Some(MetricValue::Counter(n)) => Some(*n),
                    _ => None,
                };
                assert_eq!(reg.counter_total(component, node, metric), total);
                let h = match want {
                    Some(MetricValue::Histogram(h)) => Some(h),
                    _ => None,
                };
                assert_eq!(reg.histogram(component, node, metric), h);
                for idx in 0..=snapshots {
                    assert_eq!(
                        shown(reg.value_at(component, node, metric, idx)),
                        shown(model.value_at(&k, idx)),
                        "{component}/{node:?}/{metric} at snapshot {idx}"
                    );
                }
            }
        }
    }
}

#[test]
fn the_registry_matches_the_reference_model() {
    check::cases(
        "the_registry_matches_the_reference_model",
        check::count(48),
        |g| {
            let mut reg = MetricsRegistry::new();
            let mut model = Model::default();
            let mut now = 0;
            for _ in 0..g.range(1..60) {
                step(g, &mut reg, &mut model, &mut now);
                assert_agree(&reg, &model);
            }
        },
    );
}

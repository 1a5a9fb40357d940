//! JSON export: through [`crate::json`], carrying the full registry
//! including histogram bins.

use crate::json::Writer;
use crate::metrics::HistogramSnapshot;
use crate::registry::{Kind, Log, MetricValue, MetricsRegistry, Series};

fn histogram_json(h: &HistogramSnapshot, w: &mut Writer) {
    w.begin_object();
    w.key("count").u64(h.count).key("sum").u64(h.sum);
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

/// The `type` member and the value members of one metric value, into
/// the object `w` has open.
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

/// One family's points regrouped by row, in one counting pass: row
/// `id`'s points are `order[ends[id - 1]..ends[id]]` (from 0 for row 0),
/// in cut order.
struct ByRow {
    ends: Vec<u32>,
    order: Vec<u32>,
}

impl ByRow {
    /// Groups points whose row ids are `rows` among `count` rows.
    fn of(rows: &[u32], count: usize) -> ByRow {
        let mut ends = vec![0u32; count];
        for &id in rows {
            ends[id as usize] += 1;
        }
        let mut start = 0;
        for n in &mut ends {
            (*n, start) = (start, start + *n);
        }
        // Each row's slot walks from its start to its end.
        let mut order = vec![0; rows.len()];
        for (at, &id) in (0..).zip(rows) {
            let slot = &mut ends[id as usize];
            order[*slot as usize] = at;
            *slot += 1;
        }
        ByRow { ends, order }
    }

    fn points(&self, id: usize) -> &[u32] {
        let from = id.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.order[from as usize..self.ends[id] as usize]
    }
}

/// Row `id`'s latest value and its `points` array, the points given by
/// their indices into `s`; `starts` is where each cut's points begin.
fn series<V: Kind>(s: &Series<V>, starts: &[u32], id: u32, points: &[u32], w: &mut Writer) {
    value_fields(&s.current(id as usize), w);
    w.key("points").begin_array();
    for &at in points {
        let snapshot = starts.partition_point(|&start| start <= at) - 1;
        w.begin_object().key("snapshot").u64(snapshot as u64);
        value_fields(&s.point(at as usize), w);
        w.end_object();
    }
    w.end_array();
}

impl MetricsRegistry {
    /// Serializes the whole registry — snapshot times, node labels, and
    /// every metric's latest value plus its sparse series — as a JSON
    /// object.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object();
        w.key("snapshot_times_nanos").begin_array();
        for &t in self.snapshot_times() {
            w.u64(t);
        }
        w.end_array();
        w.key("node_labels").begin_object();
        for (node, label) in self.node_labels() {
            w.key(&node.to_string()).str(label);
        }
        w.end_object();
        w.key("metrics").begin_array();
        let families = self.families();
        let by_row: Vec<ByRow> = (families.iter())
            .map(|f| ByRow::of(f.point_rows(), f.nodes.len()))
            .collect();
        for (f, node, id) in self.rows_in_order() {
            let family = &families[f];
            w.begin_object();
            w.key("component").str(&family.component).key("node");
            match node {
                Some(n) => w.u64(n.into()),
                None => w.null(),
            };
            w.key("metric").str(&family.metric);
            let (starts, points) = (&family.starts, by_row[f].points(id as usize));
            match &family.log {
                Log::Counter(s) => series(s, starts, id, points, &mut w),
                Log::Gauge(s) => series(s, starts, id, points, &mut w),
                Log::Histogram(s) => series(s, starts, id, points, &mut w),
            }
            w.end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    fn sample_registry() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.set_node_label(1, "auth:ns1");
        r.record_counter("auth", Some(1), "queries", 12);
        r.record_gauge("resolver", Some(2), "in_flight", 3.0);
        let mut h = Histogram::new();
        h.observe(1);
        h.observe(4);
        r.record_histogram("resolver", Some(2), "retries_per_query", &h);
        r.snapshot(60_000_000_000);
        r
    }

    #[test]
    fn json_has_all_sections_and_valid_shape() {
        let json = sample_registry().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"snapshot_times_nanos\":[60000000000]"));
        assert!(json.contains("\"node_labels\":{\"1\":\"auth:ns1\"}"));
        assert!(json.contains("\"component\":\"auth\""));
        assert!(json.contains("\"type\":\"counter\",\"total\":12"));
        assert!(json.contains("\"type\":\"gauge\",\"value\":3.0"));
        assert!(json.contains("\"bins\":[[1,1],[4,1]]"));
        crate::json::parse(&json).expect("the export is one valid document");
    }

    /// Byte for byte what the exporter wrote before it moved onto
    /// `crate::json` (escapes, `u64::MAX`, integral / fractional /
    /// negative-zero / non-finite gauges, empty and populated histograms).
    #[test]
    fn json_export_matches_the_golden_bytes() {
        let mut r = MetricsRegistry::new();
        r.set_node_label(1, "auth:\"ns1\"\n");
        r.set_node_label(7, "r\u{e9}solveur\t\u{1}");
        r.record_counter("auth", Some(1), "queries", u64::MAX);
        r.record_counter("net", None, "back\\slash", 0);
        r.record_gauge("resolver", Some(7), "in_flight", 3.0);
        r.record_gauge("resolver", Some(7), "load", 0.1);
        r.record_gauge("resolver", Some(7), "neg_zero", -0.0);
        r.record_gauge("resolver", Some(7), "nan", f64::NAN);
        r.record_gauge("resolver", Some(7), "small", 0.00012);
        r.record_gauge("resolver", Some(7), "big", 123456789012345.0);
        let mut h = Histogram::new();
        h.observe(1);
        h.observe(4);
        h.observe(1_000_000);
        r.record_histogram("resolver", Some(7), "retries_per_query", &h);
        r.record_histogram("resolver", None, "empty", &Histogram::new());
        r.snapshot(60_000_000_000);
        r.record_counter("auth", Some(1), "queries", u64::MAX);
        r.record_gauge("resolver", Some(7), "in_flight", 1.5);
        r.snapshot(120_000_000_000);
        let golden = concat!(
            r#"{"snapshot_times_nanos":[60000000000,120000000000],"#,
            r#""node_labels":{"1":"auth:\"ns1\"\n","7":"résolveur\t\u0001"},"metrics":["#,
            r#"{"component":"auth","node":1,"metric":"queries","type":"counter","total":18446744073709551615,"#,
            r#""points":[{"snapshot":0,"type":"counter","total":18446744073709551615}]},"#,
            r#"{"component":"net","node":null,"metric":"back\\slash","type":"counter","total":0,"#,
            r#""points":[{"snapshot":0,"type":"counter","total":0}]},"#,
            r#"{"component":"resolver","node":null,"metric":"empty","type":"histogram","#,
            r#""histogram":{"count":0,"sum":0,"bins":[]},"#,
            r#""points":[{"snapshot":0,"type":"histogram","histogram":{"count":0,"sum":0,"bins":[]}}]},"#,
            r#"{"component":"resolver","node":7,"metric":"big","type":"gauge","#,
            r#""value":123456789012345.0,"high_water":123456789012345.0,"points":["#,
            r#"{"snapshot":0,"type":"gauge","value":123456789012345.0,"high_water":123456789012345.0}]},"#,
            r#"{"component":"resolver","node":7,"metric":"in_flight","type":"gauge","value":1.5,"high_water":3.0,"#,
            r#""points":[{"snapshot":0,"type":"gauge","value":3.0,"high_water":3.0},"#,
            r#"{"snapshot":1,"type":"gauge","value":1.5,"high_water":3.0}]},"#,
            r#"{"component":"resolver","node":7,"metric":"load","type":"gauge","value":0.1,"high_water":0.1,"#,
            r#""points":[{"snapshot":0,"type":"gauge","value":0.1,"high_water":0.1}]},"#,
            r#"{"component":"resolver","node":7,"metric":"nan","type":"gauge","value":null,"high_water":null,"#,
            r#""points":[{"snapshot":0,"type":"gauge","value":null,"high_water":null},"#,
            r#"{"snapshot":1,"type":"gauge","value":null,"high_water":null}]},"#,
            r#"{"component":"resolver","node":7,"metric":"neg_zero","type":"gauge","value":-0.0,"high_water":-0.0,"#,
            r#""points":[{"snapshot":0,"type":"gauge","value":-0.0,"high_water":-0.0}]},"#,
            r#"{"component":"resolver","node":7,"metric":"retries_per_query","type":"histogram","#,
            r#""histogram":{"count":3,"sum":1000005,"min":1,"max":1000000,"bins":[[1,1],[4,1],[524288,1]]},"#,
            r#""points":[{"snapshot":0,"type":"histogram","#,
            r#""histogram":{"count":3,"sum":1000005,"min":1,"max":1000000,"bins":[[1,1],[4,1],[524288,1]]}}]},"#,
            r#"{"component":"resolver","node":7,"metric":"small","type":"gauge","value":0.00012,"high_water":0.00012,"#,
            r#""points":[{"snapshot":0,"type":"gauge","value":0.00012,"high_water":0.00012}]}]}"#,
        );
        assert_eq!(r.to_json(), golden);
    }

    #[test]
    fn export_escapes_strings() {
        let mut r = MetricsRegistry::new();
        r.record_counter("we\"ird", None, "a\\b", 1);
        let json = r.to_json();
        assert!(json.contains("we\\\"ird"));
        assert!(json.contains("a\\\\b"));
    }
}

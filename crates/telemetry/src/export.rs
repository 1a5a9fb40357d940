//! JSON and CSV export.
//!
//! JSON goes through [`crate::json`] and carries the full registry
//! including histogram bins; CSV flattens to one row per series point
//! (histogram bins are summarized as count/sum/mean — use JSON when you
//! need the distribution).

use std::fmt::Write as _;

use crate::json::Writer;
use crate::metrics::HistogramSnapshot;
use crate::registry::{MetricValue, MetricsRegistry};

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
        for (key, series) in self.iter() {
            w.begin_object();
            w.key("component").str(&key.component).key("node");
            match key.node {
                Some(n) => w.u64(n.into()),
                None => w.null(),
            };
            w.key("metric").str(&key.metric);
            value_fields(&series.current, &mut w);
            w.key("points").begin_array();
            for (idx, v) in &series.points {
                w.begin_object().key("snapshot").u64((*idx).into());
                value_fields(v, &mut w);
                w.end_object();
            }
            w.end_array().end_object();
        }
        w.end_array().end_object();
        w.finish()
    }

    /// Serializes the series as CSV: header row, then one row per
    /// `(metric, snapshot point)`. Histogram rows carry count/sum/mean;
    /// the full bins are only in [`MetricsRegistry::to_json`].
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(
            "component,node,node_label,metric,type,snapshot,sim_time_nanos,value,high_water,hist_count,hist_sum\n",
        );
        for (key, series) in self.iter() {
            for (idx, v) in &series.points {
                let t = self
                    .snapshot_times()
                    .get(*idx as usize)
                    .copied()
                    .unwrap_or(0);
                let node = key.node.map(|n| n.to_string()).unwrap_or_default();
                let label = key
                    .node
                    .and_then(|n| self.node_label(n))
                    .unwrap_or_default();
                let _ = write!(
                    out,
                    "{},{},{},{},",
                    csv_field(&key.component),
                    node,
                    csv_field(label),
                    csv_field(&key.metric)
                );
                match v {
                    MetricValue::Counter(n) => {
                        let _ = writeln!(out, "counter,{idx},{t},{n},,,");
                    }
                    MetricValue::Gauge { value, high_water } => {
                        let _ = writeln!(out, "gauge,{idx},{t},{value},{high_water},,");
                    }
                    MetricValue::Histogram(h) => {
                        let mean = if h.count > 0 {
                            format!("{}", h.sum as f64 / h.count as f64)
                        } else {
                            String::new()
                        };
                        let _ = writeln!(out, "histogram,{idx},{t},{mean},,{},{}", h.count, h.sum);
                    }
                }
            }
        }
        out
    }
}

/// Quotes a CSV field when needed.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
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

    #[test]
    fn csv_one_row_per_point_plus_header() {
        let r = sample_registry();
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4, "{csv}");
        assert!(lines[0].starts_with("component,node,node_label,metric"));
        assert!(lines[1].contains("auth,1,auth:ns1,queries,counter,0,60000000000,12"));
    }

    #[test]
    fn csv_quotes_awkward_fields() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("a\"b"), "\"a\"\"b\"");
    }
}

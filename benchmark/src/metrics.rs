//! The metric catalogue and the result line.
//!
//! The names and units here are the benchmark's contract: `BENCHMARK.json`
//! lists the same ones (a unit test compares the two), and every later
//! performance or simplicity claim about this repository is stated in
//! them. `README.md` says which layer metric should move which
//! end-to-end metric on which workload.

/// One catalogue row: a metric's name and unit.
pub type Metric = (&'static str, &'static str);

/// What a user of the system sees; same names on every workload.
pub const END_TO_END: [Metric; 5] = [
    ("time_to_result_s", "s"),
    ("throughput", "1/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Single-layer metrics, printed by the traced run. A metric a workload
/// does not exercise reads 0 there (no calls into that layer).
pub const PER_LAYER: [Metric; 58] = [
    ("experiments.build_s", "s"),
    ("experiments.nodes", "count"),
    ("netsim.run_s", "s"),
    ("netsim.events", "count"),
    ("netsim.datagrams_sent", "count"),
    ("netsim.datagrams_delivered", "count"),
    ("netsim.datagrams_decoded", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.round_trip_ns", "ns"),
    ("netsim.timer_ns", "ns"),
    ("netsim.dropped_send_ns", "ns"),
    ("shard.k1_run_s", "s"),
    ("shard.k2_run_s", "s"),
    ("shard.speedup_k2", "ratio"),
    ("shard.engine_tax", "ratio"),
    ("shard.cpu_over_wall_k2", "ratio"),
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("wire.bytes_decoded", "count"),
    ("wire.bytes_encoded", "count"),
    ("wire.share_of_run", "ratio"),
    ("cache.lookup_hit_ns", "ns"),
    ("cache.lookup_miss_ns", "ns"),
    ("cache.insert_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("resolver.resolve_warm_ns", "ns"),
    ("resolver.resolve_cold_ns", "ns"),
    ("resolver.upstream_per_client_query", "ratio"),
    ("auth.handle_query_ns", "ns"),
    ("auth.queries", "count"),
    ("auth.zone_parse_s", "s"),
    ("defense.rrl_verdict_ns", "ns"),
    ("defense.rrl_limited", "count"),
    ("defense.rrl_slipped", "count"),
    ("defense.drops", "count"),
    ("attack.dropped", "count"),
    ("stub.records", "count"),
    ("stub.ok_share_attack", "ratio"),
    ("stats.analyze_s", "s"),
    ("stats.records_per_s", "1/s"),
    ("telemetry.cut_overhead", "ratio"),
    ("telemetry.export_s", "s"),
    ("serve.start_s", "s"),
    ("serve.cpu_us_per_query", "us"),
    ("serve.busy_share", "ratio"),
    ("serve.latency_p99_us", "us"),
    ("serve.udp_rtt_p50_us", "us"),
    ("serve.udp_rtt_p99_us", "us"),
    ("serve.tcp_rtt_p50_us", "us"),
    ("serve.tcp_conn_per_query_us", "us"),
    ("serve.gated_cpu_us_per_query", "us"),
    ("serve.timeouts", "count"),
    ("serve.mismatches", "count"),
    ("harness.tracing_overhead", "ratio"),
    ("harness.layer_coverage", "ratio"),
    ("harness.rep_spread", "ratio"),
    ("harness.disturbed_reps", "count"),
];

/// What one invocation produced: operation counts, failed checks, and the
/// measured values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (client queries).
    pub attempted: u64,
    /// Operations that failed; all of them when a check failed.
    pub failed: u64,
    /// One line per failed correctness check; empty means correct.
    pub check_failures: Vec<String>,
    /// Measured values by catalogue name.
    pub values: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a measured value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Records a failed check; the run then counts every operation failed.
    pub fn fail(&mut self, why: String) {
        self.check_failures.push(why);
    }

    /// Evaluates one correctness check.
    pub fn check(&mut self, holds: bool, why: impl FnOnce() -> String) {
        if !holds {
            self.fail(why());
        }
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The last value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The one-object result line: `correct`, `attempted`, `failed` and
    /// every metric of `catalogue` (0 where the run recorded none).
    ///
    /// # Panics
    /// Panics on a non-finite value: a result that cannot be written as a
    /// JSON number is a harness bug, not a measurement.
    pub fn to_json(&self, catalogue: &[Metric]) -> String {
        let failed = if self.correct() {
            self.failed
        } else {
            self.attempted
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            failed
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self.get(name).unwrap_or(0.0);
            assert!(value.is_finite(), "metric {name} is {value}");
            if i > 0 {
                out.push_str(", ");
            }
            // `{}` on f64 prints the shortest digits that round-trip.
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str("}}");
        out
    }

    /// The human-readable listing: one `name value unit` line per metric.
    pub fn to_text(&self, catalogue: &[Metric]) -> String {
        let mut out = String::new();
        for (name, unit) in catalogue {
            let value = self.get(name).unwrap_or(0.0);
            out.push_str(&format!("{name:<36} {value:>18.6} {unit}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name": "…"` values inside the array that follows `"<key>":`
    /// in `BENCHMARK.json` (the file is flat enough that no parser is
    /// needed: arrays of objects without nested arrays).
    fn names_under(text: &str, key: &str) -> Vec<String> {
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let open = start + text[start..].find('[').expect("array opens");
        let close = open + text[open..].find(']').expect("array closes");
        text[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|chunk| {
                let q1 = chunk.find('"').expect("value opens");
                let q2 = q1 + 1 + chunk[q1 + 1..].find('"').expect("value closes");
                chunk[q1 + 1..q2].to_owned()
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let ours = |c: &[Metric]| c.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names_under(&text, "end_to_end"), ours(&END_TO_END));
        assert_eq!(names_under(&text, "per_layer"), ours(&PER_LAYER));
        assert_eq!(
            names_under(&text, "workloads"),
            crate::WORKLOADS.map(String::from)
        );
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} should be listed with unit {unit}"
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn result_line_has_the_contract_keys_and_every_metric() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.set("time_to_result_s", 1.25);
        o.set("throughput", 8.0);
        let line = o.to_json(&END_TO_END);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"time_to_result_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0, \"unit\": \"MiB\"}"));
        assert!(!line.contains('\n'));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }

    #[test]
    fn a_failed_check_fails_every_operation() {
        let mut o = Outcome {
            attempted: 7,
            failed: 1,
            ..Outcome::default()
        };
        o.check(false, || "digest differs".to_owned());
        assert!(!o.correct());
        assert!(o
            .to_json(&END_TO_END)
            .contains("\"correct\": false, \"attempted\": 7, \"failed\": 7"));
    }
}

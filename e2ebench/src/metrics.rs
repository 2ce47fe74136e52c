//! The declared workloads and metrics, and the result lines printed for
//! them. The names here are the ones `BENCHMARK.json` declares; a test
//! keeps the two in step.

use std::collections::BTreeMap;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["enumerate-1m", "churn-serve-100k"];

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("read_p50_ms", "ms"),
    ("apply_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("graph.gen_s", "s"),
    ("expander.decompose_s", "s"),
    ("expander.assign_s", "s"),
    ("expander.rounds.nibble", "count"),
    ("expander.rounds.parallel_nibble", "count"),
    ("expander.rounds.ldd", "count"),
    ("expander.clusters", "count"),
    ("expander.removed_frac", "ratio"),
    ("expander.jobs", "count"),
    ("expander.steals", "count"),
    ("expander.imbalance", "ratio"),
    ("expander.arena_hit_frac", "ratio"),
    ("routing.queries_max", "count"),
    ("routing.words", "count"),
    ("routing.build_rounds", "count"),
    ("triangle.dlp_s", "s"),
    ("triangle.exchange_s", "s"),
    ("triangle.join_s", "s"),
    ("triangle.merge_s", "s"),
    ("triangle.dlp_ops", "count"),
    ("congest.exchange_rounds", "count"),
    ("congest.exchange_words", "count"),
    ("congest.exchange_messages", "count"),
    ("service.freeze_s", "s"),
    ("service.snapshot_words", "count"),
    ("service.answer_p50_us", "us"),
    ("service.answer_p99_us", "us"),
    ("service.words_total", "count"),
    ("storage.store_s", "s"),
    ("storage.artifact_bytes", "bytes"),
    ("storage.restore_s", "s"),
    ("server.restart_s", "s"),
    ("server.overhead_p50_us", "us"),
    ("server.overhead_p99_us", "us"),
    ("server.queries_per_batch", "ratio"),
    ("server.busy_frac", "ratio"),
    ("server.swap_s", "s"),
    ("load.read_p99_ms", "ms"),
    ("load.late_p99_ms", "ms"),
    ("load.sent", "count"),
    ("load.answered", "count"),
    ("load.max_qps", "1/s"),
    ("churn.open_s", "s"),
    ("churn.batches", "count"),
    ("churn.apply_p99_us", "us"),
    ("churn.intersect_words", "count"),
    ("churn.touched_clusters", "count"),
    ("churn.rebuild_s", "s"),
    ("churn.recluster_checked", "count"),
    ("churn.recluster_broken", "count"),
    ("churn.broken_frac", "ratio"),
    ("churn.reused_frac", "ratio"),
    ("churn.absorbed", "count"),
];

/// One measured value, with the sample count and percentile behind it
/// when it summarises a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The number, as measured.
    pub value: f64,
    /// Samples behind it (1 for a single measurement or a counter).
    pub samples: usize,
    /// The percentile it reports, when it is one.
    pub percentile: Option<f64>,
}

/// Values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<String, Value>,
}

impl Metrics {
    /// Sets a single measurement or counter.
    pub fn set(&mut self, name: &str, value: f64) {
        self.put(name, value, 1, None);
    }

    /// Sets a percentile of `samples` samples.
    pub fn put(&mut self, name: &str, value: f64, samples: usize, percentile: Option<f64>) {
        self.values.insert(
            name.to_string(),
            Value {
                value,
                samples,
                percentile,
            },
        );
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.values.get(name).copied()
    }

    /// `"name": {"value": v, "unit": u}` entries for `declared`, in
    /// declaration order; missing metrics are reported by name.
    pub fn json_entries(&self, declared: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v.value)
            ));
        }
        Ok(parts.join(", "))
    }

    /// `"name": {"value", "unit", "samples", "percentile"}` entries for the
    /// provenance record.
    pub fn record_entries(&self, declared: &[(&str, &str)]) -> String {
        declared
            .iter()
            .filter_map(|&(name, unit)| {
                self.get(name).map(|v| {
                    format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"samples\": {}, \"percentile\": {}}}",
                        json_number(v.value),
                        v.samples,
                        v.percentile.map_or("null".to_string(), json_number),
                    )
                })
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// A JSON number with all its digits (Rust's shortest round-trip form).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECLARED: &str = include_str!("../../BENCHMARK.json");

    /// The `"name"` values inside the JSON array that follows `"key":`.
    fn declared_names(key: &str) -> Vec<String> {
        let at = DECLARED
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let rest = &DECLARED[at..];
        let open = rest.find('[').expect("array opens");
        let close = rest.find(']').expect("array closes");
        let body = &rest[open..close];
        body.split("\"name\"")
            .skip(1)
            .map(|s| {
                let s = &s[s.find('"').expect("name value") + 1..];
                s[..s.find('"').expect("name ends")].to_string()
            })
            .collect()
    }

    fn units(key: &str) -> Vec<String> {
        let at = DECLARED.find(&format!("\"{key}\"")).expect("key present");
        let rest = &DECLARED[at..];
        let body = &rest[rest.find('[').unwrap()..rest.find(']').unwrap()];
        body.split("\"unit\"")
            .skip(1)
            .map(|s| {
                let s = &s[s.find('"').unwrap() + 1..];
                s[..s.find('"').unwrap()].to_string()
            })
            .collect()
    }

    #[test]
    fn workload_names_match_the_declaration() {
        assert_eq!(declared_names("workloads"), WORKLOADS);
    }

    #[test]
    fn end_to_end_names_and_units_match_the_declaration() {
        let names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        let unit: Vec<&str> = END_TO_END.iter().map(|m| m.1).collect();
        assert_eq!(declared_names("end_to_end"), names);
        assert_eq!(units("end_to_end"), unit);
    }

    #[test]
    fn per_layer_names_and_units_match_the_declaration() {
        let names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        let unit: Vec<&str> = PER_LAYER.iter().map(|m| m.1).collect();
        assert_eq!(declared_names("per_layer"), names);
        assert_eq!(units("per_layer"), unit);
    }

    #[test]
    fn json_entries_need_every_declared_metric() {
        let mut m = Metrics::default();
        m.set("a_s", 1.25);
        assert_eq!(
            m.json_entries(&[("a_s", "s")]).unwrap(),
            "\"a_s\": {\"value\": 1.25, \"unit\": \"s\"}"
        );
        assert!(m.json_entries(&[("a_s", "s"), ("b_s", "s")]).is_err());
    }
}

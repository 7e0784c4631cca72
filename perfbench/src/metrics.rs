//! The metric tables (kept equal to `BENCHMARK.json`) and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("cost_over_lb", "ratio"),
    ("ok_share", "fraction"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`.
/// A layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("serde_json.parse_ms", "ms"),
    ("serde_json.parse_mb_per_s", "MB/s"),
    ("serde_json.write_ms", "ms"),
    ("algos.offline_solve_ms", "ms"),
    ("chart.place_ms", "ms"),
    ("algos.ops_per_job", "count"),
    ("core.lower_bound_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("core.cost_ms", "ms"),
    ("sim.drive_ms", "ms"),
    ("obs.recorder_ms", "ms"),
    ("obs.health_ms", "ms"),
    ("obs.gap_ms", "ms"),
    ("obs.trace_write_ms", "ms"),
    ("obs.trace_bytes", "bytes"),
    ("obs.events_per_job", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.step_ms", "ms"),
    ("serve.restore_ms", "ms"),
    ("obs.slo_eval_ms", "ms"),
    ("obs.gap_timeline_ms", "ms"),
    ("serve.log_bytes_per_step", "bytes"),
    ("serve.checkpoint_bytes", "bytes"),
    ("serve.history_events", "count"),
    ("serve.final_rung", "count"),
    ("serve.overloads", "count"),
    ("plan-offline.unattributed_share", "ratio"),
    ("stream-observed.unattributed_share", "ratio"),
    ("serve-tenants.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run prints as its last line.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Timed requests sent.
    pub attempted: u64,
    /// Timed requests that failed a check or were refused.
    pub failed: u64,
    /// `(name, unit, value)` for every metric of the run's table.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// Builds a report over `table`, taking each value from `values`
    /// (0 where absent).
    #[must_use]
    pub fn new(
        correct: bool,
        attempted: u64,
        failed: u64,
        table: &[(&'static str, &'static str)],
        values: &Values,
    ) -> Self {
        let metrics = table
            .iter()
            .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
            .collect();
        Report {
            correct,
            attempted,
            failed,
            metrics,
        }
    }

    /// The one-line JSON result. Non-finite values (which JSON cannot
    /// carry) are written as 0 and make the report incorrect.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut correct = self.correct;
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, unit, value)| {
                let value = if value.is_finite() {
                    value
                } else {
                    correct = false;
                    0.0
                };
                format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut v = Values::new();
        v.insert("setup_s", 0.25);
        let r = Report::new(true, 3, 0, &END_TO_END, &v);
        let j = r.to_json();
        assert!(j.starts_with(r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"#));
        assert!(j.contains(r#""setup_s": {"value": 0.25, "unit": "s"}"#));
        assert!(j.contains(r#""jobs_per_s": {"value": 0, "unit": "jobs/s"}"#));
        assert!(!j.contains('\n'));
    }

    #[test]
    fn non_finite_values_mark_the_run_incorrect() {
        let mut v = Values::new();
        v.insert("setup_s", f64::NAN);
        let j = Report::new(true, 1, 0, &END_TO_END, &v).to_json();
        assert!(j.starts_with(r#"{"correct": false"#));
        assert!(!j.contains("NaN"));
    }

    /// The tables here and the committed `BENCHMARK.json` name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |k: &str| {
                        let at = entry.find(&format!("\"{k}\": \"")).expect("field present")
                            + k.len()
                            + 5;
                        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), owned(&END_TO_END));
        assert_eq!(section("per_layer"), owned(&PER_LAYER));
    }
}

//! Prometheus text-exposition encoding of [`Metrics`].
//!
//! [`encode`] renders the aggregated run metrics in the Prometheus
//! text format (version 0.0.4): `# HELP`/`# TYPE` headers, counter and
//! gauge samples, and the two bucketed histograms as cumulative
//! `_bucket{le="…"}` series with exact `_sum`/`_count`. The output is
//! scrapeable as-is (e.g. served from a file or a textfile-collector
//! directory) and every line is checked by [`validate_exposition`], a
//! small parser used by the test suite as the acceptance gate.

use crate::event::AlertReason;
use crate::recorder::{
    decision_ns_bucket_bounds, ops_bucket_bounds, utilization_bucket_bounds, Metrics,
};
use bshm_core::ops::RejectReason;
use std::fmt::Write as _;

/// Escapes a label value (backslash, double-quote, newline).
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats a float the way Prometheus expects (integral values without a
/// trailing `.0` are fine; non-finite values are not produced here).
fn fmt_value(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64) // bshm-allow(lossy-cast): guarded — x is integral with |x| < 1e15, well inside i64
    } else {
        format!("{x}")
    }
}

struct Exposition {
    out: String,
}

impl Exposition {
    fn header(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn sample(&mut self, name: &str, labels: &[(&str, String)], value: f64) {
        if labels.is_empty() {
            let _ = writeln!(self.out, "{name} {}", fmt_value(value));
        } else {
            let rendered: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
                .collect();
            let _ = writeln!(
                self.out,
                "{name}{{{}}} {}",
                rendered.join(","),
                fmt_value(value)
            );
        }
    }

    /// Emits one histogram family: cumulative buckets (trimmed past the
    /// last non-empty one), `+Inf`, `_sum` and `_count`.
    fn histogram(
        &mut self,
        name: &str,
        help: &str,
        base: &[(&str, String)],
        counts: &[u64],
        bounds: impl Fn(usize) -> (f64, f64),
        sum: f64,
    ) {
        self.header(name, "histogram", help);
        let last = counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate().take(last.max(1)) {
            cum += c;
            let mut labels = base.to_vec();
            labels.push(("le", fmt_value(bounds(i).1)));
            self.sample(&format!("{name}_bucket"), &labels, cum as f64);
        }
        let total: u64 = counts.iter().sum();
        let mut labels = base.to_vec();
        labels.push(("le", "+Inf".to_string()));
        self.sample(&format!("{name}_bucket"), &labels, total as f64);
        self.sample(&format!("{name}_sum"), base, sum);
        self.sample(&format!("{name}_count"), base, total as f64);
    }
}

/// Renders `metrics` as Prometheus text exposition. All families are
/// prefixed `bshm_` and carry an `algorithm` label; per-type series add a
/// `type` label.
#[must_use]
pub fn encode(metrics: &Metrics) -> String {
    let mut e = Exposition { out: String::new() };
    let alg = |_: ()| vec![("algorithm", metrics.algorithm.clone())];
    let base = alg(());

    let counters: [(&str, &str, f64); 14] = [
        (
            "bshm_arrivals_total",
            "Jobs arrived.",
            metrics.arrivals as f64,
        ),
        (
            "bshm_departures_total",
            "Jobs departed.",
            metrics.departures as f64,
        ),
        (
            "bshm_placements_total",
            "Placement decisions made.",
            metrics.placements as f64,
        ),
        (
            "bshm_placements_opened_total",
            "Placements that created a new machine.",
            metrics.opened_placements as f64,
        ),
        (
            "bshm_placements_reused_total",
            "Placements onto an existing machine.",
            metrics.reused_placements as f64,
        ),
        (
            "bshm_machine_opens_total",
            "Machine idle-to-busy transitions.",
            metrics.opens as f64,
        ),
        (
            "bshm_machine_closes_total",
            "Machine busy-to-idle transitions.",
            metrics.closes as f64,
        ),
        (
            "bshm_cost_total",
            "Cost accrued over closed busy spans (rate times ticks).",
            metrics.traced_cost as f64,
        ),
        (
            "bshm_machine_crashes_total",
            "Machines crashed/revoked by a fault plan.",
            metrics.crashes as f64,
        ),
        (
            "bshm_jobs_displaced_total",
            "Active jobs displaced by machine crashes.",
            metrics.displaced_jobs as f64,
        ),
        (
            "bshm_jobs_recovered_total",
            "Displaced jobs re-placed by a recovery policy.",
            metrics.recovered_jobs as f64,
        ),
        (
            "bshm_jobs_dropped_total",
            "Jobs explicitly dropped with a reason (never silent).",
            metrics.dropped_jobs as f64,
        ),
        (
            "bshm_recovery_latency_ns_total",
            "Wall-clock nanoseconds spent in recovery re-placement decisions.",
            metrics.recovery_ns_sum as f64,
        ),
        (
            "bshm_gap_samples_total",
            "Gap-gauge samples observed (GapSample trace events).",
            metrics.gap_samples as f64,
        ),
    ];
    for (name, help, value) in counters {
        e.header(name, "counter", help);
        e.sample(name, &base, value);
    }

    e.header(
        "bshm_cost_by_type_total",
        "counter",
        "Accrued cost per catalog machine type.",
    );
    for (i, &c) in metrics.cost_by_type.iter().enumerate() {
        let mut labels = base.clone();
        labels.push(("type", i.to_string()));
        e.sample("bshm_cost_by_type_total", &labels, c as f64);
    }

    e.header(
        "bshm_open_machines_peak",
        "gauge",
        "Peak simultaneously-busy machines per catalog type.",
    );
    for (i, &p) in metrics.open_peak_by_type.iter().enumerate() {
        let mut labels = base.clone();
        labels.push(("type", i.to_string()));
        e.sample("bshm_open_machines_peak", &labels, f64::from(p));
    }

    e.header(
        "bshm_open_machines",
        "gauge",
        "Busy machines per catalog type at the last gauge transition.",
    );
    let final_gauge = metrics.gauge_timeline.last();
    for i in 0..metrics.open_peak_by_type.len() {
        let mut labels = base.clone();
        labels.push(("type", i.to_string()));
        let v = final_gauge
            .and_then(|g| g.busy.get(i))
            .copied()
            .unwrap_or(0);
        e.sample("bshm_open_machines", &labels, f64::from(v));
    }

    e.header(
        "bshm_lower_bound",
        "gauge",
        "Incrementally maintained busy-time lower bound at the last gap sample.",
    );
    e.sample("bshm_lower_bound", &base, metrics.last_lower_bound as f64);
    e.header(
        "bshm_attributed_cost",
        "gauge",
        "Cost accrued (and attributed to jobs) at the last gap sample.",
    );
    e.sample(
        "bshm_attributed_cost",
        &base,
        metrics.last_attributed_cost as f64,
    );
    e.header(
        "bshm_gap_ratio",
        "gauge",
        "Cost over lower bound at the last gap sample (0 before the first).",
    );
    e.sample("bshm_gap_ratio", &base, metrics.gap_ratio().unwrap_or(0.0));
    e.header(
        "bshm_gap_ratio_max",
        "gauge",
        "Largest cost-over-lower-bound ratio seen at any gap sample.",
    );
    e.sample("bshm_gap_ratio_max", &base, metrics.max_gap_ratio);

    e.header(
        "bshm_alerts_total",
        "counter",
        "SLO alerts fired by the deterministic health plane.",
    );
    e.sample("bshm_alerts_total", &base, metrics.alerts as f64);
    e.header(
        "bshm_alerts_by_reason_total",
        "counter",
        "SLO alerts per typed reason.",
    );
    for (r, &c) in AlertReason::ALL.iter().zip(&metrics.alerts_by_reason) {
        let mut labels = base.clone();
        labels.push(("reason", r.as_str().to_string()));
        e.sample("bshm_alerts_by_reason_total", &labels, c as f64);
    }

    e.header(
        "bshm_tenant_transitions_total",
        "counter",
        "Tenant lifecycle transitions recorded by the resident service.",
    );
    e.sample(
        "bshm_tenant_transitions_total",
        &base,
        metrics.tenant_transitions as f64,
    );
    e.header(
        "bshm_degradations_total",
        "counter",
        "Degradation-ladder rung transitions recorded by the resident service.",
    );
    e.sample(
        "bshm_degradations_total",
        &base,
        metrics.degradations as f64,
    );

    let ops_counters: [(&str, &str, f64); 5] = [
        (
            "bshm_ops_decisions_total",
            "Placement decisions carrying deterministic operation counts.",
            metrics.ops.decisions as f64,
        ),
        (
            "bshm_ops_machines_scanned_total",
            "Candidate machines examined across all decisions.",
            metrics.ops.machines_scanned as f64,
        ),
        (
            "bshm_ops_capacity_comparisons_total",
            "Residual-capacity / fit comparisons evaluated across all decisions.",
            metrics.ops.capacity_comparisons as f64,
        ),
        (
            "bshm_ops_machines_opened_total",
            "Decisions that created a new machine.",
            metrics.ops.machines_opened as f64,
        ),
        (
            "bshm_ops_machines_reused_total",
            "Decisions that reused an existing machine.",
            metrics.ops.machines_reused as f64,
        ),
    ];
    for (name, help, value) in ops_counters {
        e.header(name, "counter", help);
        e.sample(name, &base, value);
    }
    e.header(
        "bshm_ops_rejections_total",
        "counter",
        "Candidates rejected per typed reason across all decisions.",
    );
    for r in RejectReason::ALL {
        let mut labels = base.clone();
        labels.push(("reason", r.as_str().to_string()));
        e.sample(
            "bshm_ops_rejections_total",
            &labels,
            metrics.ops.rejected(r) as f64,
        );
    }

    e.histogram(
        "bshm_ops_per_decision",
        "Deterministic scan work (machines scanned plus comparisons) per placement decision.",
        &base,
        &metrics.ops_hist,
        ops_bucket_bounds,
        metrics.ops_sum as f64,
    );
    e.histogram(
        "bshm_decision_latency_ns",
        "Placement decision wall-clock latency in nanoseconds.",
        &base,
        &metrics.decision_ns_hist,
        decision_ns_bucket_bounds,
        metrics.decision_ns_sum as f64,
    );
    e.histogram(
        "bshm_machine_utilization",
        "Machine fill (load over capacity) right after each placement.",
        &base,
        &metrics.utilization_hist,
        utilization_bucket_bounds,
        metrics.utilization_sum,
    );

    e.out
}

// ------------------------------------------------------------- validation

/// Checks that `text` is well-formed Prometheus text exposition:
///
/// * every line is blank, a `# HELP`/`# TYPE` header, or a sample matching
///   `name{label="value",…} value`;
/// * every sample belongs to a `# TYPE`-declared family (histogram
///   samples via their `_bucket`/`_sum`/`_count` suffix);
/// * every declared histogram emits `_bucket`, `_sum` and `_count`, its
///   buckets are cumulative (non-decreasing in `le` order), and the
///   `+Inf` bucket equals `_count`.
///
/// # Errors
/// Describes the first offending line.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut types: std::collections::BTreeMap<String, String> = std::collections::BTreeMap::new();
    // Histogram family -> per-series (label set minus `le`) bucket state.
    // One family can carry many label sets; cumulativity and the
    // +Inf == _count invariant hold per series, not per family.
    #[derive(Default)]
    struct SeriesState {
        last_bucket: Option<f64>,
        inf: Option<f64>,
        count: Option<f64>,
    }
    #[derive(Default)]
    struct HistState {
        saw_sum: bool,
        saw_count: bool,
        series: std::collections::BTreeMap<String, SeriesState>,
    }
    let mut hists: std::collections::BTreeMap<String, HistState> =
        std::collections::BTreeMap::new();
    fn series_key(labels: &[(String, String)]) -> String {
        let mut parts: Vec<String> = labels
            .iter()
            .filter(|(k, _)| k != "le")
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        parts.sort();
        parts.join(",")
    }

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let (name, kind) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
            if !is_metric_name(name) {
                return Err(format!("line {n}: bad metric name in TYPE: {line}"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {n}: unknown TYPE kind {kind:?}"));
            }
            if kind == "histogram" {
                hists.entry(name.to_string()).or_default();
            }
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            if !line.starts_with("# HELP ") {
                return Err(format!("line {n}: unexpected comment {line:?}"));
            }
            continue;
        }
        let (name, labels, value) = parse_sample(line).map_err(|e| format!("line {n}: {e}"))?;
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                let base = name.strip_suffix(suf)?;
                hists.contains_key(base).then(|| base.to_string())
            })
            .unwrap_or_else(|| name.clone());
        if !types.contains_key(&family) {
            return Err(format!("line {n}: sample {name} has no # TYPE declaration"));
        }
        if let Some(h) = hists.get_mut(&family) {
            let series = h.series.entry(series_key(&labels)).or_default();
            if name.ends_with("_sum") {
                h.saw_sum = true;
            } else if name.ends_with("_count") {
                h.saw_count = true;
                series.count = Some(value);
            } else if name.ends_with("_bucket") {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.clone())
                    .ok_or_else(|| format!("line {n}: histogram bucket without le label"))?;
                if le == "+Inf" {
                    series.inf = Some(value);
                } else {
                    if let Some(prev) = series.last_bucket {
                        if value < prev {
                            return Err(format!(
                                "line {n}: bucket le={le} not cumulative ({value} < {prev})"
                            ));
                        }
                    }
                    series.last_bucket = Some(value);
                }
            } else {
                return Err(format!("line {n}: bare sample {name} in histogram family"));
            }
        }
    }
    for (family, h) in &hists {
        if !h.saw_sum || !h.saw_count {
            return Err(format!("histogram {family}: missing _sum or _count"));
        }
        for (key, series) in &h.series {
            match (series.inf, series.count) {
                (Some(i), Some(c)) if (i - c).abs() < 1e-9 => {}
                (i, c) => {
                    return Err(format!(
                        "histogram {family}{{{key}}}: +Inf bucket {i:?} does not equal _count {c:?}"
                    ))
                }
            }
        }
    }
    Ok(())
}

fn is_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// A parsed sample line: metric name, label pairs, value.
type Sample = (String, Vec<(String, String)>, f64);

/// Parses one sample line into `(name, labels, value)`.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let (head, value_str) = match line.find('}') {
        Some(close) => {
            let (h, rest) = line.split_at(close + 1);
            (h, rest.trim())
        }
        None => {
            let mut it = line.splitn(2, ' ');
            (it.next().unwrap_or(""), it.next().unwrap_or("").trim())
        }
    };
    let (name, labels) = match head.find('{') {
        Some(open) => {
            if !head.ends_with('}') || open + 1 >= head.len() {
                return Err(format!("unbalanced label braces in {line:?}"));
            }
            let name = &head[..open];
            let inner = head[open + 1..head.len() - 1].trim_end_matches(',');
            let mut labels = Vec::new();
            if !inner.is_empty() {
                for pair in split_label_pairs(inner)? {
                    labels.push(pair);
                }
            }
            (name.to_string(), labels)
        }
        None => (head.to_string(), Vec::new()),
    };
    if !is_metric_name(&name) {
        return Err(format!("bad metric name {name:?}"));
    }
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {v:?}"))?,
    };
    Ok((name, labels, value))
}

/// Splits `k="v",k2="v2"` respecting escaped quotes inside values.
fn split_label_pairs(inner: &str) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    let bytes = inner.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let eq = inner[i..]
            .find('=')
            .map(|p| i + p)
            .ok_or_else(|| format!("label pair without `=` in {inner:?}"))?;
        let key = inner[i..eq].trim().to_string();
        if bytes.get(eq + 1) != Some(&b'"') {
            return Err(format!("label {key:?} value not quoted"));
        }
        let mut j = eq + 2;
        let mut value = String::new();
        loop {
            match bytes.get(j) {
                None => return Err(format!("unterminated label value for {key:?}")),
                Some(b'\\') => {
                    if let Some(&c) = bytes.get(j + 1) {
                        value.push(c as char);
                        j += 2;
                    } else {
                        return Err("dangling escape".to_string());
                    }
                }
                Some(b'"') => {
                    j += 1;
                    break;
                }
                Some(&c) => {
                    value.push(c as char);
                    j += 1;
                }
            }
        }
        pairs.push((key, value));
        if bytes.get(j) == Some(&b',') {
            j += 1;
        }
        i = j;
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Probe;
    use crate::recorder::Recorder;
    use crate::replay::parse_jsonl;
    use bshm_core::job::JobId;
    use bshm_core::schedule::MachineId;

    /// The metrics of `jsonl`'s events (one per line) over `n_types`.
    fn metrics_of(n_types: usize, jsonl: &str) -> Metrics {
        let mut rec = Recorder::new("dec-online", n_types);
        for e in &parse_jsonl(jsonl).unwrap() {
            rec.record(e);
        }
        rec.into_metrics().unwrap()
    }

    fn sample_metrics() -> Metrics {
        metrics_of(
            2,
            r#"
            {"Arrival":{"t":0,"job":0,"size":2}}
            {"MachineOpen":{"t":0,"machine":0,"machine_type":0}}
            {"Placement":{"t":0,"job":0,"machine":0,"machine_type":0,"opened":true,"decision_ns":100,"load":2,"capacity":4}}
            {"Arrival":{"t":1,"job":1,"size":8}}
            {"MachineOpen":{"t":1,"machine":1,"machine_type":1}}
            {"Placement":{"t":1,"job":1,"machine":1,"machine_type":1,"opened":true,"decision_ns":7,"load":8,"capacity":16}}
            {"Departure":{"t":5,"job":0,"machine":0}}
            {"CostAccrual":{"t":5,"machine":0,"machine_type":0,"busy":5,"rate":2}}
            {"MachineClose":{"t":5,"machine":0,"machine_type":0,"opened_at":0}}
            {"Departure":{"t":9,"job":1,"machine":1}}
            {"CostAccrual":{"t":9,"machine":1,"machine_type":1,"busy":8,"rate":3}}
            {"MachineClose":{"t":9,"machine":1,"machine_type":1,"opened_at":1}}
            "#,
        )
    }

    #[test]
    fn encode_is_valid_exposition() {
        let m = sample_metrics();
        let text = encode(&m);
        validate_exposition(&text).unwrap();
        assert!(text.contains("# TYPE bshm_arrivals_total counter"));
        assert!(text.contains("bshm_arrivals_total{algorithm=\"dec-online\"} 2"));
        assert!(text.contains("# TYPE bshm_decision_latency_ns histogram"));
        assert!(text.contains("bshm_decision_latency_ns_count{algorithm=\"dec-online\"} 2"));
        assert!(text.contains("le=\"+Inf\""));
        assert!(text.contains("bshm_cost_by_type_total{algorithm=\"dec-online\",type=\"1\"} 24"));
    }

    #[test]
    fn encode_includes_fault_counters() {
        let m = metrics_of(
            1,
            r#"
            {"MachineCrash":{"t":4,"machine":0,"machine_type":0,"displaced":2}}
            {"JobRecovery":{"t":4,"job":0,"from":0,"to":1,"machine_type":0,"recovery_ns":50}}
            {"JobDropped":{"t":4,"job":1,"reason":"no capacity"}}
            "#,
        );
        let text = encode(&m);
        validate_exposition(&text).unwrap();
        assert!(text.contains("bshm_machine_crashes_total{algorithm=\"dec-online\"} 1"));
        assert!(text.contains("bshm_jobs_displaced_total{algorithm=\"dec-online\"} 2"));
        assert!(text.contains("bshm_jobs_recovered_total{algorithm=\"dec-online\"} 1"));
        assert!(text.contains("bshm_jobs_dropped_total{algorithm=\"dec-online\"} 1"));
        assert!(text.contains("bshm_recovery_latency_ns_total{algorithm=\"dec-online\"} 50"));
    }

    #[test]
    fn encode_includes_alert_counters() {
        let m = metrics_of(
            1,
            r#"
            {"Alert":{"t":10,"reason":"DisplacementStorm","window":0,"value_milli":5000,"threshold_milli":3000}}
            {"Alert":{"t":20,"reason":"GapBreach","window":1,"value_milli":1300,"threshold_milli":1100}}
            "#,
        );
        let text = encode(&m);
        validate_exposition(&text).unwrap();
        assert!(text.contains("bshm_alerts_total{algorithm=\"dec-online\"} 2"));
        assert!(text.contains(
            "bshm_alerts_by_reason_total{algorithm=\"dec-online\",reason=\"displacement-storm\"} 1"
        ));
        assert!(text.contains(
            "bshm_alerts_by_reason_total{algorithm=\"dec-online\",reason=\"drop-surge\"} 0"
        ));
    }

    #[test]
    fn empty_metrics_still_valid() {
        let m = Metrics::new("auto", 0);
        let text = encode(&m);
        validate_exposition(&text).unwrap();
        assert!(text.contains("bshm_placements_total{algorithm=\"auto\"} 0"));
    }

    #[test]
    fn histogram_sum_is_exact() {
        let m = sample_metrics();
        let text = encode(&m);
        assert!(text.contains("bshm_decision_latency_ns_sum{algorithm=\"dec-online\"} 107"));
        // 2/4 + 8/16 = 1.0
        assert!(text.contains("bshm_machine_utilization_sum{algorithm=\"dec-online\"} 1"));
    }

    #[test]
    fn validator_rejects_malformed() {
        assert!(validate_exposition("no_type_decl 1\n").is_err());
        assert!(validate_exposition("# TYPE x counter\nx{bad} 1\n").is_err());
        assert!(validate_exposition("# TYPE x counter\nx nope\n").is_err());
        // JSON (or any brace soup) must error, not panic.
        assert!(validate_exposition("{\n  \"arrivals\": 25,\n}\n").is_err());
        assert!(validate_exposition("x{ 1\n").is_err());
        // Non-cumulative histogram buckets.
        let bad = "# TYPE h histogram\n\
                   h_bucket{le=\"1\"} 5\n\
                   h_bucket{le=\"2\"} 3\n\
                   h_bucket{le=\"+Inf\"} 5\n\
                   h_sum 1\nh_count 5\n";
        assert!(validate_exposition(bad).unwrap_err().contains("cumulative"));
        // +Inf bucket must equal _count.
        let bad2 = "# TYPE h histogram\n\
                    h_bucket{le=\"+Inf\"} 4\n\
                    h_sum 1\nh_count 5\n";
        assert!(validate_exposition(bad2).unwrap_err().contains("+Inf"));
    }

    #[test]
    fn label_escaping_round_trips() {
        // Quotes, backslashes and newlines must all render escaped —
        // a raw newline would split the sample across exposition lines.
        let mut m = Metrics::new("weird\"alg\\name\nline", 1);
        m.arrivals = 1;
        let text = encode(&m);
        validate_exposition(&text).unwrap();
        assert!(text.contains("algorithm=\"weird\\\"alg\\\\name\\nline\""));
        assert!(!text.contains("weird\"alg"));
        assert_eq!(escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(escape_label("plain"), "plain");
    }

    #[test]
    fn encode_includes_ops_families() {
        use crate::event::TraceEvent;
        use bshm_core::ops::{OpCounter, PlaceReason, RejectedCandidate};
        let mut rec = Recorder::new("best-fit", 1);
        rec.record(&TraceEvent::Decision {
            t: 0,
            job: JobId(0),
            machine: MachineId(1),
            placed: PlaceReason::Reused,
            pool_size: 2,
            candidates: vec![RejectedCandidate {
                machine: MachineId(0),
                reason: RejectReason::Capacity,
            }],
            ops: Box::new(OpCounter {
                decisions: 1,
                machines_scanned: 2,
                capacity_comparisons: 2,
                rejected_capacity: 1,
                machines_reused: 1,
                ..OpCounter::default()
            }),
        });
        let m = rec.into_metrics().unwrap();
        assert_eq!(m.ops_sum, 4);
        let text = encode(&m);
        validate_exposition(&text).unwrap();
        assert!(text.contains("bshm_ops_decisions_total{algorithm=\"best-fit\"} 1"));
        assert!(text.contains("bshm_ops_machines_scanned_total{algorithm=\"best-fit\"} 2"));
        assert!(text.contains("bshm_ops_machines_reused_total{algorithm=\"best-fit\"} 1"));
        assert!(text
            .contains("bshm_ops_rejections_total{algorithm=\"best-fit\",reason=\"capacity\"} 1"));
        assert!(text.contains(
            "bshm_ops_rejections_total{algorithm=\"best-fit\",reason=\"window_expired\"} 0"
        ));
        assert!(text.contains("bshm_ops_per_decision_count{algorithm=\"best-fit\"} 1"));
        assert!(text.contains("bshm_ops_per_decision_sum{algorithm=\"best-fit\"} 4"));
    }
}

//! The benchmark's output: named metrics with units, the per-layer
//! catalogue, and the one-line JSON result.

use crate::stats::Tally;
use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// End-to-end metrics every workload reports with tracing off, with
/// their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("f1", "score"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports, with their units. A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("session.count_ms", "ms"),
    ("session.featurize_ms", "ms"),
    ("metadiagram.spgemm_calls", "count"),
    ("metadiagram.hadamard_calls", "count"),
    ("metadiagram.cache_hit_ratio", "ratio"),
    ("metadiagram.count_nnz", "count"),
    ("activeiter.ridge_factor_ms", "ms"),
    ("activeiter.replace_ms", "ms"),
    ("activeiter.converge_ms", "ms"),
    ("activeiter.inner_iters", "count"),
    ("activeiter.select_ms", "ms"),
    ("activeiter.query_yield", "ratio"),
    ("session.update_ms", "ms"),
    ("metadiagram.recount_ms", "ms"),
    ("session.refresh_ms", "ms"),
    ("metadiagram.changed_counts", "count"),
    ("metadiagram.touched_rows", "count"),
    ("metadiagram.touched_cols", "count"),
    ("metadiagram.anchors_applied", "count"),
    ("session.pool_update_ms", "ms"),
    ("session.pool_query_ms", "ms"),
    ("session.pool_align_ms", "ms"),
    ("session.pool_open_ms", "ms"),
    ("session.checkpoint_ms", "ms"),
    ("session.journal_append_ms", "ms"),
    ("session.journal_bytes", "bytes"),
    ("session.compactions", "count"),
    ("serve.codec_us", "us"),
    ("serve.frame_bytes", "bytes"),
    ("serve.transport_ms", "ms"),
    ("serve.transport_update_ms", "ms"),
    ("serve.transport_query_ms", "ms"),
    ("serve.transport_align_ms", "ms"),
    ("serve.transport_checkpoint_ms", "ms"),
    ("serve.transport_open_ms", "ms"),
    ("serve.restarts", "count"),
    ("cell.layers_ms", "ms"),
    ("cell.unattributed_ms", "ms"),
    ("active.layers_ms", "ms"),
    ("active.unattributed_ms", "ms"),
    ("serve.layers_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("overhead.op_p50_ms", "ms"),
    ("overhead.ops_per_s", "1/s"),
    ("overhead.f1", "score"),
];

/// Fills `catalogue` from `measured` (by name), 0 for anything missing.
/// Panics on a measured name outside the catalogue or with another unit:
/// both are bugs in this benchmark.
pub fn complete(catalogue: &[(&str, &'static str)], measured: &[Metric]) -> Vec<Metric> {
    for m in measured {
        let known = catalogue.iter().find(|(n, _)| *n == m.name);
        assert!(
            known.is_some_and(|(_, u)| *u == m.unit),
            "metric {} [{}] is not in the catalogue",
            m.name,
            m.unit
        );
    }
    catalogue
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .rev()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric::new(name, value, unit)
        })
        .collect()
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON for a finite number; non-finite values become `null`, which the
/// result line never carries (see [`result_line`]).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `{"key": "value", ...}` for string pairs.
pub fn string_object(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line, and whether the run was correct. A metric that could
/// not be measured (non-finite) makes the run incorrect and counts as one
/// more failed operation.
pub fn result_line(mut tally: Tally, metrics: &[Metric]) -> (String, bool) {
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        tally.check(false, || format!("metric {} is {}", m.name, m.value));
    }
    let metrics: Vec<Metric> = metrics
        .iter()
        .map(|m| {
            Metric::new(
                m.name.clone(),
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit,
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        metrics_object(&metrics)
    );
    (line, tally.correct())
}

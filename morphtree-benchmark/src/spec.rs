//! The benchmark's declaration, `BENCHMARK.json` at the repository root,
//! compiled in: the one list of metrics (with units, directions and
//! bounds) that runs report and `compare` judges. Its workload list must
//! name the workloads this binary runs, in order; a test holds it to
//! [`WORKLOADS`](crate::workload::WORKLOADS).

use std::sync::OnceLock;

use morphtree_core::obs::{parse_json, JsonValue};

const TEXT: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// How far the change's median may be worse than the base's, as a share
    /// of the base's; end-to-end metrics only.
    pub bound: Option<f64>,
}

pub struct Spec {
    /// Seconds one run measures; `--seconds` defaults to it.
    pub run_seconds: f64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// The parsed declaration.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(TEXT).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}")))
}

fn list<'a>(root: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    root.get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("no {key} list"))
}

fn field(entry: &JsonValue, key: &str) -> Result<String, String> {
    entry
        .get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("an entry has no {key}"))
}

fn metrics(root: &JsonValue, key: &str) -> Result<Vec<Metric>, String> {
    list(root, key)?
        .iter()
        .map(|entry| {
            Ok(Metric {
                name: field(entry, "name")?,
                unit: field(entry, "unit")?,
                lower_is_better: field(entry, "better")? == "lower",
                bound: entry.get("bound").and_then(JsonValue::as_f64),
            })
        })
        .collect()
}

fn parse(text: &str) -> Result<Spec, String> {
    let root = parse_json(text).map_err(|e| e.to_string())?;
    Ok(Spec {
        run_seconds: root
            .get("run_seconds")
            .and_then(JsonValue::as_f64)
            .ok_or("no run_seconds")?,
        end_to_end: metrics(&root, "end_to_end")?,
        per_layer: metrics(&root, "per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn declares_the_workloads_this_binary_runs_and_bounds_every_end_to_end_metric() {
        let root = parse_json(TEXT).expect("BENCHMARK.json parses");
        let workloads: Vec<String> = list(&root, "workloads")
            .and_then(|ws| ws.iter().map(|w| field(w, "name")).collect())
            .expect("named workloads");
        assert_eq!(workloads, WORKLOADS);
        let spec = spec();
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
    }
}

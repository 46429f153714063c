//! `BENCHMARK.json` as the benchmark itself reads it.
//!
//! The file is compiled in, so the metric names, units, directions and
//! bounds the binary prints and compares with are the declared ones by
//! construction: a run emits exactly the declared metrics and fails if it
//! has no value for one.

use crate::json::{self, Json};
use crate::stats::Better;

const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadSpec>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("BENCHMARK.json: missing \"{key}\""))
}

fn text(obj: &Json, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: \"{key}\" is not a string"))
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let list = field(doc, key)?.as_arr().ok_or_else(|| format!("\"{key}\" is not a list"))?;
    list.iter()
        .map(|m| {
            let better = match text(m, "better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("BENCHMARK.json: bad \"better\": {other}")),
            };
            Ok(MetricSpec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                better,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl BenchmarkSpec {
    pub fn load() -> Result<BenchmarkSpec, String> {
        Self::parse(BENCHMARK_JSON)
    }

    pub fn parse(text_doc: &str) -> Result<BenchmarkSpec, String> {
        let doc = json::parse(text_doc)?;
        let workloads = field(&doc, "workloads")?
            .as_arr()
            .ok_or("\"workloads\" is not a list")?
            .iter()
            .map(|w| Ok(WorkloadSpec { name: text(w, "name")?, why: text(w, "why")? }))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchmarkSpec {
            run_seconds: field(&doc, "run_seconds")?.as_f64().ok_or("bad \"run_seconds\"")? as u64,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    #[cfg(test)]
    pub fn end_to_end_metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn benchmark_json_meets_the_declared_limits() {
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"],
            "exactly the contract's keys"
        );
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);

        let spec = BenchmarkSpec::load().unwrap();
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));

        let mut seen = BTreeSet::new();
        for w in &spec.workloads {
            assert!(name_ok(&w.name), "workload name {:?}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "why of {}", w.name);
            assert!(seen.insert(w.name.clone()), "name {} used twice", w.name);
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(name_ok(&m.name), "metric name {:?}", m.name);
            assert!(unit_ok(&m.unit), "unit {:?} of {}", m.unit, m.name);
            assert!(seen.insert(m.name.clone()), "name {} used twice", m.name);
        }
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()), "layers carry no bound");

        let setup = spec.end_to_end_metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let widest = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
    }

    #[test]
    fn command_and_paths_stay_inside_the_benchmark_directory() {
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        let paths: Vec<&str> =
            doc.get("paths").unwrap().as_arr().unwrap().iter().filter_map(Json::as_str).collect();
        assert_eq!(paths, ["e2e"]);
        let command: Vec<&str> =
            doc.get("command").unwrap().as_arr().unwrap().iter().filter_map(Json::as_str).collect();
        assert!(command.len() <= 32);
        for arg in &command {
            assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."), "{arg}");
        }
        assert!(command.contains(&"e2e/Cargo.toml"));
    }
}

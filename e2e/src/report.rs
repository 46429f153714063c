//! Turning a run into what gets printed: the table for people, the one-line
//! result for the driver, the result file, and the comparison of two result
//! files against the bounds of `BENCHMARK.json`.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::spec::{BenchmarkSpec, MetricSpec};
use crate::stats::{Better, Spread};
use crate::trace::totals_by_name;
use crate::workloads::RunRecord;

fn measured(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit.to_string()))])
}

/// The end-to-end metrics of a run, in declaration order: the reported
/// value and the spread of the passes. Fails if the run has no value for a
/// declared metric.
fn end_to_end<'a>(
    spec: &'a BenchmarkSpec,
    rec: &RunRecord,
) -> Result<Vec<(&'a MetricSpec, f64, Spread)>, String> {
    spec.end_to_end
        .iter()
        .map(|m| {
            let measured =
                rec.end_to_end.get(m.name.as_str()).filter(|v| !v.passes.is_empty()).ok_or_else(
                    || format!("{}: no value for end-to-end metric {}", rec.workload, m.name),
                )?;
            Ok((m, measured.value, Spread::of(&measured.passes)))
        })
        .collect()
}

fn per_layer<'a>(
    spec: &'a BenchmarkSpec,
    rec: &RunRecord,
) -> Result<Vec<(&'a MetricSpec, f64)>, String> {
    spec.per_layer
        .iter()
        .map(|m| {
            let value = rec.per_layer.get(m.name.as_str()).ok_or_else(|| {
                format!("{}: no value for per-layer metric {}", rec.workload, m.name)
            })?;
            Ok((m, *value))
        })
        .collect()
}

/// A run must not emit a name `BENCHMARK.json` does not declare either.
pub fn undeclared(spec: &BenchmarkSpec, rec: &RunRecord) -> Vec<String> {
    let declared = |list: &[MetricSpec], name: &str| list.iter().any(|m| m.name == name);
    let e2e = rec.end_to_end.keys().filter(|n| !declared(&spec.end_to_end, n));
    let layers = rec.per_layer.keys().filter(|n| !declared(&spec.per_layer, n));
    e2e.chain(layers).map(|n| n.to_string()).collect()
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics` — the end-to-end metrics of an untraced run, the
/// per-layer metrics of a traced one.
pub fn result_line(spec: &BenchmarkSpec, rec: &RunRecord, traced: bool) -> Result<String, String> {
    let metrics: BTreeMap<String, Json> = if traced {
        per_layer(spec, rec)?
            .into_iter()
            .map(|(m, v)| (m.name.clone(), measured(v, &m.unit)))
            .collect()
    } else {
        end_to_end(spec, rec)?
            .into_iter()
            .map(|(m, value, _)| (m.name.clone(), measured(value, &m.unit)))
            .collect()
    };
    Ok(Json::obj([
        ("correct", Json::Bool(rec.failed == 0)),
        ("attempted", Json::Num(rec.attempted as f64)),
        ("failed", Json::Num(rec.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render())
}

/// Every metric by name with its unit, for people (standard error).
pub fn table(spec: &BenchmarkSpec, rec: &RunRecord, traced: bool) -> Result<String, String> {
    let mut out = format!(
        "workload {}  seed {}  threads available {}{}\n",
        rec.workload,
        rec.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if rec.smoke { "  SMOKE: tiny shapes, numbers are not comparable" } else { "" },
    );
    if let Some(why) = &rec.invalid {
        out += &format!("INVALID RUN: {why}\n");
    }
    out += &format!(
        "operations attempted {}  failed {}  failed_share {}\n",
        rec.attempted,
        rec.failed,
        rec.failed as f64 / rec.attempted.max(1) as f64
    );
    out += &format!(
        "{:<34} {:>14} {:<6} {:>14} {:>14} {:>14} {:>6}\n",
        "end-to-end metric", "reported", "unit", "min", "median", "max", "passes"
    );
    for (m, value, s) in end_to_end(spec, rec)? {
        out += &format!(
            "{:<34} {:>14.3} {:<6} {:>14.3} {:>14.3} {:>14.3} {:>6}\n",
            m.name, value, m.unit, s.min, s.median, s.max, s.passes
        );
    }
    out += &format!(
        "(*_p99_us is the {:.1}th percentile: the highest with ten samples beyond it)\n",
        rec.tail_percentile
    );
    if traced {
        out += &format!("{:<34} {:>14} {:<6}\n", "per-layer metric", "value", "unit");
        for (m, v) in per_layer(spec, rec)? {
            out += &format!("{:<34} {:>14.3} {:<6}\n", m.name, v, m.unit);
        }
    }
    if let Some(tracer) = &rec.tracer {
        out += &format!("{:<34} {:>14} {:>14} {:>14}\n", "span", "count", "total ms", "self ms");
        for (name, t) in totals_by_name(tracer.spans()) {
            let ms = |ns: u64| ns as f64 / 1e6;
            out += &format!(
                "{:<34} {:>14} {:>14.3} {:>14.3}\n",
                name,
                t.count,
                ms(t.total_ns),
                ms(t.self_ns)
            );
        }
    }
    Ok(out)
}

/// The result file entry of one workload.
pub fn record_json(spec: &BenchmarkSpec, rec: &RunRecord, traced: bool) -> Result<Json, String> {
    let e2e = end_to_end(spec, rec)?.into_iter().map(|(m, value, s)| {
        let entry = Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(m.unit.clone())),
            ("min", Json::Num(s.min)),
            ("median", Json::Num(s.median)),
            ("max", Json::Num(s.max)),
            ("passes", Json::Num(s.passes as f64)),
        ]);
        (m.name.clone(), entry)
    });
    let mut pairs = vec![
        ("seed", Json::Num(rec.seed as f64)),
        ("smoke", Json::Bool(rec.smoke)),
        ("valid", Json::Bool(rec.invalid.is_none())),
        ("attempted", Json::Num(rec.attempted as f64)),
        ("failed", Json::Num(rec.failed as f64)),
        ("end_to_end", Json::Obj(e2e.collect())),
    ];
    if traced {
        let layers =
            per_layer(spec, rec)?.into_iter().map(|(m, v)| (m.name.clone(), measured(v, &m.unit)));
        pairs.push(("per_layer", Json::Obj(layers.collect())));
    }
    Ok(Json::obj(pairs))
}

// ---- comparing two result files -------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// On one side the best pass lies further from the median pass than the
    /// bound, so a difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: a metric's reported value and its passes.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub passes: Spread,
}

/// Judge one metric of one workload: `base` against `change`.
pub fn judge(base: &Side, change: &Side, better: Better, bound: f64) -> Verdict {
    let improves = |a: f64, b: f64| match better {
        Better::Lower => b < a,
        Better::Higher => b > a,
    };
    // Every pass of the change reads better than every pass of the base.
    if improves(base.passes.best(better), change.passes.worst(better)) {
        return Verdict::Ok;
    }
    if base.passes.best_to_median(better).max(change.passes.best_to_median(better)) > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (change.value - base.value) / base.value.abs(),
        Better::Higher => (base.value - change.value) / base.value.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn side_of(entry: &Json) -> Option<Side> {
    let num = |k: &str| entry.get(k).and_then(Json::as_f64);
    let passes = Spread {
        min: num("min")?,
        median: num("median")?,
        max: num("max")?,
        passes: num("passes")? as usize,
    };
    Some(Side { value: num("value")?, passes })
}

/// One row per (workload, end-to-end metric) present in both files, plus a
/// row per workload for failed operations (which may not rise). Returns the
/// printed rows and whether any row reads `worse`.
pub fn compare(spec: &BenchmarkSpec, base: &Json, change: &Json) -> Result<(String, bool), String> {
    let workloads = |doc: &Json| doc.get("workloads").and_then(Json::as_obj).cloned();
    let (a, b) = (
        workloads(base).ok_or("first file has no \"workloads\"")?,
        workloads(change).ok_or("second file has no \"workloads\"")?,
    );
    let mut out = format!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}  {}\n",
        "workload", "metric", "base", "change", "change%", "bound%", "verdict"
    );
    let mut any_worse = false;
    for w in &spec.workloads {
        let (Some(wa), Some(wb)) = (a.get(&w.name), b.get(&w.name)) else { continue };
        let smoke = |d: &Json| matches!(d.get("smoke"), Some(Json::Bool(true)));
        if smoke(wa) || smoke(wb) {
            out += &format!("{:<16} smoke runs are not comparable\n", w.name);
            continue;
        }
        let failed = |d: &Json| d.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let verdict = if failed(wb) > failed(wa) { Verdict::Worse } else { Verdict::Ok };
        any_worse |= verdict == Verdict::Worse;
        out += &format!(
            "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}  {}\n",
            w.name,
            "failed",
            failed(wa),
            failed(wb),
            "",
            "0",
            verdict.label()
        );
        for m in &spec.end_to_end {
            let entry =
                |d: &Json| d.get("end_to_end").and_then(|e| e.get(&m.name)).and_then(side_of);
            let (Some(sa), Some(sb)) = (entry(wa), entry(wb)) else { continue };
            let bound = m.bound.unwrap_or(0.0);
            let verdict = judge(&sa, &sb, m.better, bound);
            any_worse |= verdict == Verdict::Worse;
            out += &format!(
                "{:<16} {:<16} {:>14.3} {:>14.3} {:>+9.2} {:>7.0}  {}\n",
                w.name,
                m.name,
                sa.value,
                sb.value,
                100.0 * (sb.value - sa.value) / sa.value.abs(),
                100.0 * bound,
                verdict.label()
            );
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A side whose reported value is its best pass.
    fn side(values: &[f64], better: Better) -> Side {
        let passes = Spread::of(values);
        Side { value: passes.best(better), passes }
    }

    #[test]
    fn judge_applies_the_bound_in_the_metric_direction() {
        let (lo, hi) = (Better::Lower, Better::Higher);
        let base = [100.0, 101.0, 102.0];
        // 5 % slower with a 10 % bound: ok. 15 % slower: worse.
        assert_eq!(
            judge(&side(&base, lo), &side(&[105.0, 106.0, 107.0], lo), lo, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&side(&base, lo), &side(&[115.0, 116.0, 117.0], lo), lo, 0.10),
            Verdict::Worse
        );
        // For a rate, lower is the bad direction.
        assert_eq!(
            judge(&side(&base, hi), &side(&[85.0, 86.0, 87.0], hi), hi, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&side(&base, hi), &side(&[115.0, 116.0, 117.0], hi), hi, 0.10),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_passes_are_unresolved_unless_every_pass_is_better() {
        let lo = Better::Lower;
        let base = side(&[100.0, 120.0, 140.0], lo); // best 17 % off the median
        assert_eq!(judge(&base, &side(&[101.0, 102.0, 103.0], lo), lo, 0.10), Verdict::Unresolved);
        // Every pass of the change beats every pass of the base: resolved.
        assert_eq!(judge(&base, &side(&[80.0, 90.0, 99.0], lo), lo, 0.10), Verdict::Ok);
    }

    #[test]
    fn compare_reads_result_files_and_flags_regressions() {
        let spec = BenchmarkSpec::load().unwrap();
        let file = |p50: f64, failed: f64| {
            let entry = Json::obj([
                ("value", Json::Num(p50)),
                ("unit", Json::Str("us".into())),
                ("min", Json::Num(p50)),
                ("median", Json::Num(p50 * 1.01)),
                ("max", Json::Num(p50 * 1.02)),
                ("passes", Json::Num(3.0)),
            ]);
            let workload = Json::obj([
                ("smoke", Json::Bool(false)),
                ("failed", Json::Num(failed)),
                ("end_to_end", Json::obj([("prq_p50_us", entry)])),
            ]);
            Json::obj([("workloads", Json::obj([("resident", workload)]))])
        };
        let (rows, worse) = compare(&spec, &file(400.0, 0.0), &file(404.0, 0.0)).unwrap();
        assert!(!worse, "{rows}");
        assert!(rows.contains("prq_p50_us") && rows.contains("ok"));
        let (rows, worse) = compare(&spec, &file(400.0, 0.0), &file(520.0, 0.0)).unwrap();
        assert!(worse && rows.contains("worse"), "{rows}");
        let (_, worse) = compare(&spec, &file(400.0, 0.0), &file(400.0, 2.0)).unwrap();
        assert!(worse, "more failed operations is a regression");
    }
}

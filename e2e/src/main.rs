//! `e2e` — the repo benchmark (see `README.md` beside `Cargo.toml` and
//! `BENCHMARK.json` at the root of the repo).
//!
//! ```text
//! e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!     [--out result.json] [--spans spans.json] [--smoke]
//! e2e --all      [the same options]      one process per workload
//! e2e --compare base.json change.json    apply the bounds of BENCHMARK.json
//! ```
//!
//! The last line of standard output is the result: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Everything for
//! people goes to standard error. The exit code is non-zero when an
//! operation failed or an answer was wrong.

mod adapter;
mod json;
mod layers;
mod report;
mod spec;
mod stats;
mod tape;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use spec::BenchmarkSpec;
use workloads::{RunOptions, DEFAULT_SEED};

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    seed: Option<u64>,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--seed" => {
                let v = value(&mut it, flag)?;
                args.seed =
                    Some(v.parse().map_err(|_| format!("--seed: {v:?} is not a whole number"))?);
            }
            "--seconds" => {
                let v = value(&mut it, flag)?;
                let s: f64 = v.parse().map_err(|_| format!("--seconds: {v:?} is not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds: {v} is out of range"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = Some(value(&mut it, flag)?.into()),
            "--spans" => args.spans = Some(value(&mut it, flag)?.into()),
            "--compare" => {
                args.compare = Some((value(&mut it, flag)?.into(), value(&mut it, flag)?.into()))
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Where a traced run leaves its spans unless told otherwise: beside the
/// executable, that is inside the build directory.
fn default_spans_path(workload: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.join(format!("e2e-spans-{workload}.json")))
}

fn run_one(spec: &BenchmarkSpec, args: &Args, name: &str) -> Result<bool, String> {
    if !spec.workloads.iter().any(|w| w.name == name) {
        let known: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        return Err(format!("unknown workload {name:?}; BENCHMARK.json declares {known:?}"));
    }
    let shape = workloads::shape(name).ok_or_else(|| format!("workload {name} has no shape"))?;
    let shape = if args.smoke { shape.smoke() } else { shape };
    let opts = RunOptions {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(if args.smoke { 0.5 } else { spec.run_seconds as f64 }),
        traced: args.traced,
        smoke: args.smoke,
    };
    let rec = workloads::run(&shape, &opts)?;
    let stray = report::undeclared(spec, &rec);
    if !stray.is_empty() {
        return Err(format!("metrics not declared in BENCHMARK.json: {stray:?}"));
    }
    eprint!("{}", report::table(spec, &rec, opts.traced)?);

    if let Some(tracer) = &rec.tracer {
        if let Some(path) = args.spans.clone().or_else(|| default_spans_path(name)) {
            let doc = Json::obj([
                ("workload", Json::Str(name.to_string())),
                ("seed", Json::Num(opts.seed as f64)),
                ("spans", tracer.to_json()),
            ]);
            write_file(&path, &doc.render())?;
            eprintln!("{} spans written to {}", tracer.spans().len(), path.display());
        }
    }
    if let Some(path) = &args.out {
        let entry = report::record_json(spec, &rec, opts.traced)?;
        let doc = Json::obj([("workloads", Json::obj([(name, entry)]))]);
        write_file(path, &(doc.render() + "\n"))?;
    }
    println!("{}", report::result_line(spec, &rec, opts.traced)?);
    Ok(rec.failed == 0)
}

/// One process per workload, so that each has its own peak memory; their
/// result files are merged into `--out`.
fn run_all(spec: &BenchmarkSpec, args: &Args, argv: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut pass_on: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => {}
            "--out" | "--spans" | "--workload" => {
                it.next();
            }
            _ => pass_on.push(a.clone()),
        }
    }
    let mut merged = std::collections::BTreeMap::new();
    let mut all_correct = true;
    for w in &spec.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(&pass_on).args(["--workload", &w.name]);
        let part = args.out.as_ref().map(|out| {
            let mut p = out.clone().into_os_string();
            p.push(format!(".{}.part", w.name));
            PathBuf::from(p)
        });
        if let Some(part) = &part {
            cmd.arg("--out").arg(part);
        }
        let status = cmd.status().map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
        if let Some(part) = &part {
            if let Some(entry) = read_json(part)
                .ok()
                .and_then(|d| d.get("workloads").and_then(|ws| ws.get(&w.name)).cloned())
            {
                merged.insert(w.name.clone(), entry);
            }
            let _ = std::fs::remove_file(part);
        }
    }
    if let Some(out) = &args.out {
        write_file(out, &(Json::obj([("workloads", Json::Obj(merged))]).render() + "\n"))?;
    }
    Ok(all_correct)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let spec = BenchmarkSpec::load()?;
    if let Some((base, change)) = &args.compare {
        let (rows, any_worse) = report::compare(&spec, &read_json(base)?, &read_json(change)?)?;
        print!("{rows}");
        return Ok(!any_worse);
    }
    if args.all {
        return run_all(&spec, &args, &argv);
    }
    match &args.workload {
        Some(name) => run_one(&spec, &args, name),
        None => Err("give --workload <name>, --all or --compare <base> <change>".into()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload spill --seed 42 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("spill"));
        assert_eq!((a.seed, a.seconds, a.traced), (Some(42), Some(10.0), true));
        assert!(!parse_args(&argv("--workload spill --trace 0")).unwrap().traced);
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        for bad in
            ["--trace yes", "--seed -1", "--seconds 0", "--bogus", "--workload", "--compare a.json"]
        {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    /// Every workload of `BENCHMARK.json` has a shape, and a smoke run of it
    /// emits exactly the declared metrics with no failed operation.
    #[test]
    fn smoke_runs_emit_exactly_the_declared_metrics() {
        let spec = BenchmarkSpec::load().unwrap();
        assert_eq!(spec.workloads.len(), workloads::SHAPES.len());
        for w in &spec.workloads {
            let mut shape =
                workloads::shape(&w.name).expect("declared workload has a shape").smoke();
            (shape.users, shape.prq, shape.pknn) = (400, 30, 30);
            for traced in [false, true] {
                let opts = RunOptions { seed: 5, seconds: 0.05, traced, smoke: true };
                let rec = workloads::run(&shape, &opts).unwrap();
                assert_eq!(rec.failed, 0, "{} traced={traced}", w.name);
                assert!(rec.attempted > 0);
                assert!(report::undeclared(&spec, &rec).is_empty());
                let line = report::result_line(&spec, &rec, traced).unwrap();
                let doc = json::parse(&line).unwrap();
                let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
                assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
                let declared = if traced { &spec.per_layer } else { &spec.end_to_end };
                let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
                assert_eq!(metrics.len(), declared.len());
                for m in declared {
                    let entry =
                        metrics.get(&m.name).unwrap_or_else(|| panic!("{} missing", m.name));
                    assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit.as_str()));
                    assert!(entry.get("value").and_then(Json::as_f64).is_some(), "{}", m.name);
                }
            }
        }
    }
}

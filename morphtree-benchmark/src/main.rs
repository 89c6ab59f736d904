//! `morphtree-benchmark`: the end-to-end benchmark of the morphtree secure
//! memory and simulator, with a per-layer traced pass.
//!
//! ```text
//! morphtree-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1]
//!                     [--scale full|smoke] [--trace-out FILE]
//! morphtree-benchmark run --seed N [--out FILE] [--workload NAME] [--seconds S]
//!                     [--scale full|smoke] [--trace-out FILE]
//! morphtree-benchmark compare --base A.json... --change B.json...
//! ```
//!
//! The first form runs one workload in this process and prints, as its
//! last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). `run` runs every workload in a child process of its own, then a
//! traced pass, and writes the results with a host record. `compare`
//! judges a change's runs against a base's by the bounds in
//! `BENCHMARK.json`. Exit status: 0 when every output check passed, 1
//! when one failed (or `compare` found a regression), 2 on bad arguments.

mod compare;
mod functional;
mod recover;
mod run;
mod serve;
mod shadow;
mod sim;
mod spec;
mod stats;
mod timing;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use morphtree_core::obs::JsonValue;

use workload::{object, Outcome, Params, Scale, WORKLOADS};

/// `--flag value...` arguments; a flag may take several values.
pub struct Flags(BTreeMap<String, Vec<String>>);

impl Flags {
    /// Parses `args`, accepting only the flags in `known`.
    pub fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut flags: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut current: Option<String> = None;
        for arg in args {
            if let Some(name) = arg.strip_prefix("--") {
                if !known.contains(&name) {
                    return Err(format!("unknown flag --{name}"));
                }
                if flags.contains_key(name) {
                    return Err(format!("--{name} given twice"));
                }
                flags.insert(name.to_owned(), Vec::new());
                current = Some(name.to_owned());
            } else if let Some(name) = &current {
                flags.entry(name.clone()).or_default().push(arg.clone());
            } else {
                return Err(format!("unexpected argument {arg:?}"));
            }
        }
        Ok(Flags(flags))
    }

    pub fn values(&self, name: &str) -> &[String] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// The single value of `--name`, if given.
    pub fn value(&self, name: &str) -> Result<Option<&str>, String> {
        match self.0.get(name).map(Vec::as_slice) {
            None => Ok(None),
            Some([one]) => Ok(Some(one)),
            Some(_) => Err(format!("--{name} takes exactly one value")),
        }
    }

    pub fn number<T: std::str::FromStr>(
        &self,
        name: &str,
        default: Option<T>,
    ) -> Result<T, String> {
        match self.value(name)? {
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {text:?}")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }

    /// The workload parameters shared by the single-run and `run` forms.
    pub fn params(&self) -> Result<Params, String> {
        let seconds: f64 = self.number("seconds", Some(spec::spec().run_seconds))?;
        if !seconds.is_finite() || seconds < 0.0 {
            return Err("--seconds must be a non-negative number".to_owned());
        }
        let scale = match self.value("scale")?.unwrap_or("full") {
            "full" => Scale::Full,
            "smoke" => Scale::Smoke,
            other => return Err(format!("--scale: expected full or smoke, got {other:?}")),
        };
        Ok(Params {
            seed: self.number("seed", None)?,
            seconds,
            scale,
        })
    }

    /// The `--workload` value, checked against the workload names.
    pub fn workload(&self) -> Result<Option<&'static str>, String> {
        match self.value("workload")? {
            None => Ok(None),
            Some(name) => WORKLOADS
                .iter()
                .copied()
                .find(|w| *w == name)
                .map(Some)
                .ok_or_else(|| {
                    format!(
                        "unknown workload {name:?} (expected one of {})",
                        WORKLOADS.join(", ")
                    )
                }),
        }
    }
}

/// Runs one workload in this process.
pub fn run_workload(name: &str, params: &Params, trace: bool) -> Outcome {
    match name {
        "read_wide" => functional::run(params, false, trace),
        "rw_hot" => functional::run(params, true, trace),
        "serve_batch" => serve::run(params, trace),
        "recover_bounded" => recover::run(params, trace),
        "sim_sweep" => sim::run(params, trace),
        other => unreachable!("workload names are checked at parse time: {other}"),
    }
}

/// One-line JSON (the writer's pretty form, joined; strings hold no raw
/// newlines, so this only drops layout).
pub fn compact(value: &JsonValue) -> String {
    value
        .to_pretty_string()
        .lines()
        .map(str::trim_start)
        .collect()
}

/// The result record: every metric `BENCHMARK.json` declares for the
/// pass, by name with its unit. A per-layer metric the workload does not
/// reach reads 0. An end-to-end metric that could not be measured, or a
/// metric the workload emits that is not declared, fails the run.
pub fn result_json(outcome: &Outcome, trace: bool) -> JsonValue {
    let mut checks = outcome.checks;
    let spec = spec::spec();
    let declared = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for (name, _) in &outcome.metrics {
        if !declared.iter().any(|m| m.name == *name) {
            eprintln!("morphtree-benchmark: {name} is not a declared metric of this pass");
            checks.check(false);
        }
    }
    let mut metrics = BTreeMap::new();
    for metric in declared {
        let name = metric.name.as_str();
        let measured = if name == "trace.spans" {
            Some(outcome.spans.len() as f64)
        } else {
            outcome.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
        };
        let value = match measured {
            Some(v) if v.is_finite() => v,
            None if trace => 0.0,
            _ => {
                checks.check(false);
                0.0
            }
        };
        metrics.insert(
            name.to_owned(),
            object(vec![
                ("value", JsonValue::Float(value)),
                ("unit", JsonValue::Str(metric.unit.clone())),
            ]),
        );
    }
    object(vec![
        (
            "correct",
            JsonValue::Bool(checks.failed == 0 && checks.attempted > 0),
        ),
        ("attempted", JsonValue::UInt(checks.attempted)),
        ("failed", JsonValue::UInt(checks.failed)),
        ("metrics", JsonValue::Object(metrics)),
    ])
}

/// Prints a result's checks and metrics, one per line, with the worker
/// thread and core counts beside the serve numbers.
pub fn print_result(result: &JsonValue, details: &BTreeMap<String, JsonValue>) {
    let count = |key| result.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
    println!(
        "  {} output checks, {} failed",
        count("attempted"),
        count("failed")
    );
    if let (Some(threads), Some(nproc)) = (details.get("threads"), details.get("nproc")) {
        println!(
            "  worker threads: {} on {} cores",
            compact(threads),
            compact(nproc)
        );
    }
    for (metric, entry) in result
        .get("metrics")
        .and_then(JsonValue::as_object)
        .into_iter()
        .flatten()
    {
        let value = entry
            .get("value")
            .and_then(JsonValue::as_f64)
            .unwrap_or(f64::NAN);
        let unit = entry.get("unit").and_then(JsonValue::as_str).unwrap_or("");
        println!("  {metric:<36} {value:>16.4} {unit}");
    }
}

/// `--workload NAME ...`: one workload, one pass, in this process.
fn single(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &["workload", "seed", "seconds", "trace", "scale", "trace-out"],
    )?;
    let params = flags.params()?;
    let name = flags.workload()?.ok_or("--workload is required")?;
    let trace = match flags.value("trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    let outcome = run_workload(name, &params, trace);
    let result = result_json(&outcome, trace);
    let pass = if trace {
        "per-layer (traced)"
    } else {
        "end-to-end"
    };
    println!(
        "{name}: {pass}, seed {}, {:?} scale, {} s",
        params.seed, params.scale, params.seconds
    );
    print_result(&result, &outcome.details);
    if let Some(path) = flags.value("trace-out")? {
        if trace {
            outcome
                .spans
                .append_jsonl(Path::new(path), name)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    println!(
        "{}",
        compact(&object(vec![(
            "details",
            JsonValue::Object(outcome.details)
        )]))
    );
    println!("{}", compact(&result));
    let correct = result.get("correct") == Some(&JsonValue::Bool(true));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run::main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => single(&args),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("morphtree-benchmark: {message}");
        eprintln!("usage: morphtree-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] [--scale full|smoke] [--trace-out FILE]");
        eprintln!("       morphtree-benchmark run --seed N [--out FILE] [--workload NAME] [--seconds S] [--scale full|smoke] [--trace-out FILE]");
        eprintln!("       morphtree-benchmark compare --base A.json... --change B.json...");
        eprintln!("workloads: {}", WORKLOADS.join(", "));
        ExitCode::from(2)
    })
}

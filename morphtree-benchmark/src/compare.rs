//! `compare`: judges a change's `run` results against a base's, per
//! workload, by the bounds in `BENCHMARK.json`.
//!
//! For each end-to-end metric it reports both sides' median and quartiles
//! and the share of runs the change wins when run `i` of each side is
//! paired (ties count for neither side). The verdict is
//!
//! - `unresolved` when the base's own spread (interquartile range over
//!   median) is wider than the bound, unless every change run beats every
//!   base run;
//! - `REGRESSION` when the change's median is worse than the base's by
//!   more than the bound;
//! - `gain` when the change wins at least nine pairs in ten and the
//!   medians differ by more than the base's interquartile range;
//! - `within bound` otherwise.
//!
//! Two gates have bound 0. `fail_frac`, the failed share of each side's
//! output checks, may not grow. And the [`EXACT`] traced values, which
//! depend only on the seed and the code, must be identical on every seed
//! both sides ran (`CHANGED` otherwise; `unresolved` when the sides share
//! no seed). A `REGRESSION` or `CHANGED` verdict makes the exit status 1.

use std::process::ExitCode;

use morphtree_core::obs::{parse_json, JsonValue};

use crate::spec::spec;
use crate::stats::quartiles;
use crate::workload::WORKLOADS;
use crate::Flags;

/// Traced values fixed by the seed: the simulated model's outputs, and the
/// functional plane's operation counts over its first round of requests.
pub const EXACT: [&str; 10] = [
    "sim.speedup_vs_sc64",
    "metadata.traffic_per_data_access",
    "metadata.cache_hit_rate",
    "sim.dram_row_hit_rate",
    "functional.macs_per_read",
    "functional.macs_per_write",
    "functional.otp_per_write",
    "functional.reencryptions_per_write",
    "persist.replayed_txns",
    "persist.verified_lines",
];

fn read_json(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// The value of `metric` in `pass` (`end_to_end` or `traced`) on
/// `workload` in one `run` results file.
fn value(results: &JsonValue, workload: &str, pass: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get(pass)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Failed and attempted output checks of `workload`, both passes, summed
/// over `files`. A pass that printed no result counts as one failed check.
fn failures(files: &[JsonValue], workload: &str) -> (u64, u64) {
    let mut sum = (0, 0);
    for pass in files
        .iter()
        .filter_map(|r| r.get("workloads")?.get(workload)?.as_object())
        .flat_map(|passes| passes.values())
    {
        let count = |key| pass.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        let correct = pass.get("correct") == Some(&JsonValue::Bool(true));
        sum.0 += count("failed").max(u64::from(!correct));
        sum.1 += count("attempted").max(1);
    }
    sum
}

fn seed(results: &JsonValue) -> Option<u64> {
    results.get("host")?.get("seed")?.as_u64()
}

/// The verdict on one metric of one workload, with the numbers behind it.
pub struct Verdict {
    pub base: (f64, f64, f64),
    pub change: (f64, f64, f64),
    pub win_fraction: f64,
    pub worse_by: f64,
    pub label: &'static str,
}

/// Judges `change` runs against `base` runs (see the module docs).
pub fn judge(base: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Option<Verdict> {
    let b = quartiles(base)?;
    let c = quartiles(change)?;
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let pairs = base.len().min(change.len());
    let wins = base
        .iter()
        .zip(change)
        .filter(|&(&b, &c)| better(c, b))
        .count();
    let win_fraction = wins as f64 / pairs as f64;
    let worse_by = if lower_is_better {
        (c.1 - b.1) / b.1
    } else {
        (b.1 - c.1) / b.1
    };
    let spread = (b.2 - b.0) / b.1;
    let every_run_better = change.iter().all(|&c| base.iter().all(|&b| better(c, b)));
    let label = if spread > bound && !every_run_better {
        "unresolved"
    } else if worse_by > bound {
        "REGRESSION"
    } else if win_fraction >= 0.9 && (c.1 - b.1).abs() > b.2 - b.0 && worse_by < 0.0 {
        "gain"
    } else {
        "within bound"
    };
    Some(Verdict {
        base: b,
        change: c,
        win_fraction,
        worse_by,
        label,
    })
}

/// Judges an exact value: `(seed, value)` pairs of each side must agree on
/// every seed both have.
pub fn judge_exact(base: &[(u64, f64)], change: &[(u64, f64)]) -> &'static str {
    let mut common = 0;
    for (seed, b) in base {
        for (_, c) in change.iter().filter(|(s, _)| s == seed) {
            if c != b {
                return "CHANGED";
            }
            common += 1;
        }
    }
    if common == 0 {
        "unresolved"
    } else {
        "exact"
    }
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["base", "change"])?;
    let load = |name: &str| -> Result<Vec<JsonValue>, String> {
        let paths = flags.values(name);
        if paths.is_empty() {
            return Err(format!("--{name} needs at least one results file"));
        }
        paths.iter().map(|path| read_json(path)).collect()
    };
    let base = load("base")?;
    let change = load("change")?;

    let mut failing = 0;
    println!(
        "{:<16} {:<10} {:>30} {:>30} {:>6} {:>8}  verdict",
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins", "worse"
    );
    for workload in WORKLOADS {
        for metric in &spec().end_to_end {
            let bound = metric.bound.unwrap_or(0.0);
            let side = |files: &[JsonValue]| -> Vec<f64> {
                files
                    .iter()
                    .filter_map(|r| value(r, workload, "end_to_end", &metric.name))
                    .collect()
            };
            let Some(verdict) = judge(&side(&base), &side(&change), metric.lower_is_better, bound)
            else {
                continue;
            };
            let show = |(q1, mid, q3): (f64, f64, f64)| format!("{mid:.4} [{q1:.4}, {q3:.4}]");
            println!(
                "{workload:<16} {:<10} {:>30} {:>30} {:>5.0}% {:>+7.1}%  {} (bound {:.0}%)",
                metric.name,
                show(verdict.base),
                show(verdict.change),
                verdict.win_fraction * 100.0,
                verdict.worse_by * 100.0,
                verdict.label,
                bound * 100.0,
            );
            failing += usize::from(verdict.label == "REGRESSION");
        }
    }

    println!();
    println!(
        "{:<16} {:<36} {:>24} {:>24}  verdict (bound 0)",
        "workload", "exact value", "base", "change"
    );
    for workload in WORKLOADS {
        let (base_failed, base_attempted) = failures(&base, workload);
        let (change_failed, change_attempted) = failures(&change, workload);
        if base_attempted + change_attempted == 0 {
            continue;
        }
        let frac = |failed: u64, attempted: u64| failed as f64 / attempted.max(1) as f64;
        let grew = frac(change_failed, change_attempted) > frac(base_failed, base_attempted);
        println!(
            "{workload:<16} {:<36} {:>24} {:>24}  {}",
            "fail_frac",
            format!("{base_failed}/{base_attempted}"),
            format!("{change_failed}/{change_attempted}"),
            if grew { "REGRESSION" } else { "within bound" }
        );
        failing += usize::from(grew);
        for metric in EXACT {
            let side = |files: &[JsonValue]| -> Vec<(u64, f64)> {
                files
                    .iter()
                    .filter_map(|r| Some((seed(r)?, value(r, workload, "traced", metric)?)))
                    .collect()
            };
            let (b, c) = (side(&base), side(&change));
            // A layer the workload does not reach reads 0 on both sides.
            if b.iter().chain(&c).all(|&(_, v)| v == 0.0) {
                continue;
            }
            let label = judge_exact(&b, &c);
            let show = |values: &[(u64, f64)]| {
                values
                    .first()
                    .map_or_else(String::new, |&(seed, v)| format!("{v:.6} (seed {seed})"))
            };
            println!(
                "{workload:<16} {metric:<36} {:>24} {:>24}  {label}",
                show(&b),
                show(&c)
            );
            failing += usize::from(label == "CHANGED");
        }
    }
    Ok(if failing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_base_spread() {
        let base = [
            100.0, 101.0, 99.0, 100.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1,
        ];
        let faster: Vec<f64> = base.iter().map(|b| b * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|b| b * 1.2).collect();
        let same: Vec<f64> = base.iter().rev().copied().collect();
        assert_eq!(
            judge(&base, &faster, true, 0.1).map(|v| v.label),
            Some("gain")
        );
        assert_eq!(
            judge(&base, &slower, true, 0.1).map(|v| v.label),
            Some("REGRESSION")
        );
        assert_eq!(
            judge(&base, &same, true, 0.1).map(|v| v.label),
            Some("within bound")
        );
        // Higher-is-better flips the reading of the same numbers.
        assert_eq!(
            judge(&base, &faster, false, 0.1).map(|v| v.label),
            Some("REGRESSION")
        );
        // A base noisier than the bound cannot clear a change...
        let noisy = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(
            judge(&noisy, &same, true, 0.1).map(|v| v.label),
            Some("unresolved")
        );
        // ...unless every change run beats every base run.
        let far: Vec<f64> = base.iter().map(|b| b * 0.1).collect();
        assert_eq!(
            judge(&noisy, &far, true, 0.1).map(|v| v.label),
            Some("gain")
        );
        assert!(judge(&[], &base, true, 0.1).is_none());
    }

    #[test]
    fn exact_values_are_declared_per_layer_metrics() {
        for name in EXACT {
            assert!(spec().per_layer.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn exact_values_must_match_seed_for_seed() {
        let base = [(1, 1.25), (2, 1.5)];
        assert_eq!(judge_exact(&base, &[(2, 1.5), (1, 1.25)]), "exact");
        // Another seed's value is no evidence either way.
        assert_eq!(judge_exact(&base, &[(3, 9.0)]), "unresolved");
        assert_eq!(judge_exact(&base, &[(1, 1.25), (2, 1.5000001)]), "CHANGED");
        assert_eq!(judge_exact(&[], &base), "unresolved");
    }
}

//! `run`: every workload in a child process of its own, one at a time,
//! first untraced (the end-to-end metrics) then traced (the per-layer
//! ones), with the results and a host record written to `--out`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};

use morphtree_core::obs::{parse_json, JsonValue};

use crate::workload::{object, Scale, WORKLOADS};
use crate::{compact, print_result, Flags};

/// What the results depend on besides the code: the host and the build.
fn host_record(seed: u64) -> JsonValue {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let git = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_owned());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    object(vec![
        ("nproc", JsonValue::UInt(nproc as u64)),
        ("threads", JsonValue::UInt(crate::serve::WORKERS as u64)),
        (
            "cpu_features",
            JsonValue::Str(morphtree_crypto::aes::cpu_features()),
        ),
        (
            "aes_backend",
            JsonValue::Str(
                morphtree_crypto::aes::selected_backend()
                    .as_str()
                    .to_owned(),
            ),
        ),
        ("git_rev", JsonValue::Str(git)),
        ("seed", JsonValue::UInt(seed)),
        ("profile", JsonValue::Str(profile.to_owned())),
    ])
}

/// Runs one workload pass in a child process; returns its result record
/// with the child's details folded in, or why it produced none.
fn child(workload: &str, forwarded: &[String], trace: bool) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(forwarded)
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let (Some(details), Some(result)) =
        (lines.len().checked_sub(2).map(|i| lines[i]), lines.last())
    else {
        return Err(format!(
            "{workload} printed no result (status {})",
            output.status
        ));
    };
    let mut result = parse_json(result).map_err(|e| format!("{workload} result: {e}"))?;
    let details = parse_json(details).map_err(|e| format!("{workload} details: {e}"))?;
    if let (JsonValue::Object(map), Some(details)) = (&mut result, details.get("details")) {
        map.insert("details".to_owned(), details.clone());
        map.insert(
            "exit_status".to_owned(),
            JsonValue::Str(output.status.to_string()),
        );
    }
    Ok(result)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &["seed", "out", "workload", "seconds", "scale", "trace-out"],
    )?;
    let params = flags.params()?;
    let workloads: Vec<&str> = match flags.workload()? {
        Some(one) => vec![one],
        None => WORKLOADS.to_vec(),
    };
    let scale = if params.scale == Scale::Smoke {
        "smoke"
    } else {
        "full"
    };
    let forwarded: Vec<String> = [
        ("--seed", params.seed.to_string()),
        ("--seconds", params.seconds.to_string()),
        ("--scale", scale.to_owned()),
    ]
    .into_iter()
    .flat_map(|(flag, value)| [flag.to_owned(), value])
    .collect();
    let trace_out = flags.value("trace-out")?;
    if let Some(path) = trace_out {
        std::fs::write(path, "").map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    let host = host_record(params.seed);
    println!("host {}", compact(&host));
    let mut all_correct = true;
    let mut results: BTreeMap<String, JsonValue> = BTreeMap::new();
    for (pass, trace) in [("end_to_end", false), ("traced", true)] {
        println!("== {pass} ==");
        let mut extra = forwarded.clone();
        if let (true, Some(path)) = (trace, trace_out) {
            extra.extend(["--trace-out".to_owned(), path.to_owned()]);
        }
        for workload in &workloads {
            let result = child(workload, &extra, trace).unwrap_or_else(|message| {
                eprintln!("morphtree-benchmark: {message}");
                JsonValue::Object(BTreeMap::from([(
                    "correct".to_owned(),
                    JsonValue::Bool(false),
                )]))
            });
            println!("{workload}:");
            let details = result
                .get("details")
                .and_then(JsonValue::as_object)
                .cloned()
                .unwrap_or_default();
            print_result(&result, &details);
            all_correct &= result.get("correct") == Some(&JsonValue::Bool(true));
            if let JsonValue::Object(map) = results
                .entry((*workload).to_owned())
                .or_insert_with(|| JsonValue::Object(BTreeMap::new()))
            {
                map.insert(pass.to_owned(), result);
            }
        }
    }

    if let Some(path) = flags.value("out")? {
        let record: BTreeMap<String, JsonValue> = BTreeMap::from([
            ("host".to_owned(), host),
            ("seconds".to_owned(), JsonValue::Float(params.seconds)),
            ("scale".to_owned(), JsonValue::Str(scale.to_owned())),
            ("workloads".to_owned(), JsonValue::Object(results)),
        ]);
        std::fs::write(
            Path::new(path),
            JsonValue::Object(record).to_pretty_string(),
        )
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!(
        "{}",
        if all_correct {
            "all output checks passed"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
